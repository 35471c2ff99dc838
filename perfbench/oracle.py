"""Reference answers for every benchmark op, computed without jetstress.

Polynomials are plain dicts from exponent tuples to ``Fraction``.  The
methods are chosen to differ from the program's where that is cheap:

* exact ``power`` and ``flux`` integrate each monomial of the density in
  closed form over the box or face;
* midpoint ``power`` and ``flux`` use per-axis separable sums, the sum of a
  monomial over a tensor grid being the product of one-axis sums;
* ``symmetrize`` and ``pair`` work with class sums over sorted index tuples;
* ``jet`` differentiates monomials directly;
* ``verify`` and ``dims`` have fixed report lines.

Every answer is rendered to the exact bytes the CLI must print or write, so
comparing bytes checks the determinism contract as well as the values.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction


def fmt(value: Fraction) -> str:
    return str(Fraction(value))


def scalar_line(value: Fraction, as_float: bool) -> bytes:
    text = f"{float(value):.17g}" if as_float else fmt(value)
    return (text + "\n").encode()


def canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


# -- polynomials -------------------------------------------------------------


def derive(poly: dict, counts: tuple) -> dict:
    out: dict = {}
    for exps, coeff in poly.items():
        if any(e < c for e, c in zip(exps, counts)):
            continue
        factor = 1
        for e, c in zip(exps, counts):
            factor *= math.perm(e, c)
        key = tuple(e - c for e, c in zip(exps, counts))
        out[key] = out.get(key, 0) + coeff * factor
    return out


def add_product(acc: dict, left: dict, right: dict) -> None:
    for ea, ca in left.items():
        for eb, cb in right.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            acc[key] = acc.get(key, 0) + ca * cb


def evaluate(poly: dict, point: tuple) -> Fraction:
    total = Fraction(0)
    for exps, coeff in poly.items():
        term = coeff
        for x, e in zip(point, exps):
            if e:
                term *= x**e
        total += term
    return total


def power_density(stress: dict, field: list) -> dict:
    """Stress entries ``(alpha, counts) -> poly`` paired with the field's derivatives."""
    acc: dict = {}
    for (alpha, counts), sigma in stress.items():
        add_product(acc, sigma, derive(field[alpha - 1], counts))
    return acc


def flux_coeffs(stress: dict, field: list, n: int) -> list:
    """Traction entries ``(alpha, counts, j) -> poly``; one density per axis j."""
    coeffs: list = [{} for _ in range(n)]
    for (alpha, counts, j), sigma in stress.items():
        add_product(coeffs[j - 1], sigma, derive(field[alpha - 1], counts))
    return coeffs


def _axis_sum(exp: int, lo: Fraction, hi: Fraction, cells: int | None) -> Fraction:
    """Integral of x**exp over [lo, hi], or its midpoint sum times the cell width."""
    if cells is None:
        return (hi ** (exp + 1) - lo ** (exp + 1)) / (exp + 1)
    width = (hi - lo) / cells
    return width * sum((lo + width * (2 * c + 1) / 2) ** exp for c in range(cells))


def box_sum(poly: dict, lower: tuple, upper: tuple, cells: int | None, fixed: dict) -> Fraction:
    """Exact or midpoint integral over the box; axes in ``fixed`` are frozen at a value."""
    memo: dict = {}
    total = Fraction(0)
    for exps, coeff in poly.items():
        term = coeff
        for axis, e in enumerate(exps):
            if axis in fixed:
                term *= fixed[axis] ** e
                continue
            key = (axis, e)
            if key not in memo:
                memo[key] = _axis_sum(e, lower[axis], upper[axis], cells)
            term *= memo[key]
        total += term
    return total


def total_power(stress: dict, field: list, lower: tuple, upper: tuple, cells: int | None) -> Fraction:
    return box_sum(power_density(stress, field), lower, upper, cells, {})


def boundary_flux(
    stress: dict, field: list, n: int, lower: tuple, upper: tuple, cells: int | None
) -> Fraction:
    coeffs = flux_coeffs(stress, field, n)
    total = Fraction(0)
    for axis in range(n):
        total += box_sum(coeffs[axis], lower, upper, cells, {axis: upper[axis]})
        total -= box_sum(coeffs[axis], lower, upper, cells, {axis: lower[axis]})
    return total


# -- tensors -----------------------------------------------------------------


def class_counts(n: int, l: int):
    """Exponent-count tuples of degree l in graded colex order of their canonical index."""
    return [counts_of(seq, n) for seq in _colex(n, l)]


def _colex(n: int, l: int):
    if l == 0:
        return [()]
    return [head + (last,) for last in range(1, n + 1) for head in _colex(last, l - 1)]


def counts_of(index: tuple, n: int) -> tuple:
    counts = [0] * n
    for axis in index:
        counts[axis - 1] += 1
    return tuple(counts)


def multiplicity(counts: tuple) -> int:
    out = math.factorial(sum(counts))
    for c in counts:
        out //= math.factorial(c)
    return out


def axis_key(index: tuple) -> str:
    return ",".join(str(a) for a in index)


def symmetrize(n: int, l: int, dense: dict) -> dict:
    """Dense ``{ordered index: value}`` to the plain compressed file object."""
    sums: dict = {}
    for index, value in dense.items():
        key = tuple(sorted(index))
        sums[key] = sums.get(key, 0) + value
    components = {}
    for key, total in sums.items():
        value = total / multiplicity(counts_of(key, n))
        if value != 0:
            components[axis_key(key)] = fmt(value)
    return components


def plain_classes(tensor: dict) -> dict:
    """Plain value per sorted index class of a generated tensor description."""
    n = tensor["n"]
    if tensor["storage"] == "dense":
        return {idx: v for idx, v in tensor["values"].items() if list(idx) == sorted(idx)}
    if tensor["convention"] == "arrow":
        return {idx: v / multiplicity(counts_of(idx, n)) for idx, v in tensor["values"].items()}
    return dict(tensor["values"])


def pair(co: dict, contra: dict) -> Fraction:
    n = co["n"]
    left = plain_classes(co)
    right = plain_classes(contra)
    return sum(
        (multiplicity(counts_of(idx, n)) * v * right[idx] for idx, v in left.items() if idx in right),
        Fraction(0),
    )


# -- jets --------------------------------------------------------------------


def jet_object(n: int, m: int, k: int, field: list, point: tuple) -> dict:
    blocks = {}
    for l in range(k + 1):
        entries = {}
        for alpha in range(1, m + 1):
            for counts in class_counts(n, l):
                value = evaluate(derive(field[alpha - 1], counts), point)
                if value != 0:
                    entries[f"{alpha}|{axis_key(counts)}"] = fmt(value)
        blocks[str(l)] = entries
    return {"n": n, "m": m, "k": k, "x": [fmt(c) for c in point], "blocks": blocks}


# -- fixed report lines ------------------------------------------------------


def dims_table(n: int, lmax: int) -> bytes:
    lines = [f"{'l':>3} {'sym_dim':>10} {'dense_dim':>12} {'multiplicity_sum':>18} check"]
    for l in range(lmax + 1):
        total = sum(multiplicity(c) for c in class_counts(n, l))
        lines.append(f"{l:>3} {math.comb(n + l - 1, l):>10} {n**l:>12} {total:>18} ok")
    return ("\n".join(lines) + "\n").encode()


def verify_line(suite: str, n: int, l: int, k: int, m: int, cases: int) -> bytes:
    if suite == "epsilon":
        text = f"epsilon: {cases} cases at n={n}, l={l}: OK"
    elif suite == "duality":
        text = f"duality: all basis pairs up to degree {l} at n={n}: OK"
    elif suite == "cauchy":
        text = f"cauchy: {cases} cases at n={n}, m={m}, k={max(k, 1)}: OK"
    else:
        text = f"jets: {cases} cases at n={n}, m={m}, k={k}: OK"
    return (text + "\n").encode()


def expected(spec: tuple) -> tuple[bytes, bytes | None]:
    """Expected stdout and ``--out`` file bytes for a generated op spec."""
    kind = spec[0]
    if kind == "power":
        _, stress, field, lower, upper, cells, as_float = spec
        return scalar_line(total_power(stress, field, lower, upper, cells), as_float), None
    if kind == "flux":
        _, stress, field, n, lower, upper, cells, as_float = spec
        return scalar_line(boundary_flux(stress, field, n, lower, upper, cells), as_float), None
    if kind == "symmetrize":
        _, n, l, variance, dense, out = spec
        obj = {
            "n": n,
            "degree": l,
            "variance": variance,
            "storage": "symmetric",
            "convention": "plain",
            "components": symmetrize(n, l, dense),
        }
        return f"wrote {out}\n".encode(), canonical_json(obj)
    if kind == "pair":
        _, co, contra, as_float = spec
        return scalar_line(pair(co, contra), as_float), None
    if kind == "jet":
        _, n, m, k, field, point, out = spec
        body = canonical_json(jet_object(n, m, k, field, point))
        if out is None:
            return body, None
        return f"wrote {out}\n".encode(), body
    if kind == "dims":
        _, n, lmax = spec
        return dims_table(n, lmax), None
    if kind == "verify":
        return verify_line(*spec[1:]), None
    raise ValueError(f"unknown op spec {kind!r}")

