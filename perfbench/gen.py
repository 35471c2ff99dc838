"""Seeded inputs for the benchmark workloads.

``build(workload, seed, root)`` returns the op pool of one workload: every op
is one ``jetstress`` command line together with the input files it reads and
a spec from which ``oracle.expected`` computes its answer.  The same seed
gives the same files, flags and specs.  Shapes follow a fixed schedule per
workload, so a different seed changes coefficients, exponents and
points but not the mix of sizes; that keeps the cost of a pool steady from
seed to seed.
"""
from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction

from oracle import axis_key, class_counts


@dataclasses.dataclass
class Op:
    kind: str
    args: list[str]
    spec: tuple | None  # None: the op must fail with one clean ``error:`` line
    out: str | None = None
    files: dict[str, bytes] = dataclasses.field(default_factory=dict)


class Pool:
    """Collects ops and names their files inside ``root``."""

    def __init__(self, root: str, rng: random.Random):
        self.root = root
        self.rng = rng
        self.ops: list[Op] = []

    def path(self, stem: str) -> str:
        """A file name for the op being built."""
        return f"{self.root}/op{len(self.ops):03d}-{stem}.json"


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def rat(rng: random.Random, span: int = 9, den: int = 6) -> Fraction:
    value = Fraction(0)
    while value == 0:
        value = Fraction(rng.randint(-span, span), rng.randint(1, den))
    return value


def rand_poly(rng: random.Random, n: int, deg: int, terms: int) -> dict:
    """``terms`` distinct monomials of degree at most ``deg`` with random coefficients."""
    monomials = [e for l in range(deg + 1) for e in class_counts(n, l)]
    return {e: rat(rng) for e in rng.sample(monomials, min(terms, len(monomials)))}


def poly_obj(poly: dict) -> dict:
    return {axis_key(e): str(c) for e, c in poly.items()}


def field_file(n: int, field: list) -> bytes:
    return _dump({"n": n, "m": len(field), "components": [poly_obj(p) for p in field]})


def canonical_axes(counts: tuple) -> tuple:
    return tuple(axis for axis, c in enumerate(counts, start=1) for _ in range(c))


def rand_stress(rng, n, m, k, kind, fill, sdeg, sterms):
    """A share ``fill`` of the stress slots, each an ``sterms``-term polynomial.

    Returns entries keyed (alpha, counts) or (alpha, counts, j), and the file.
    """
    orders = range(k + 1) if kind == "variational" else range(k)
    axes = [None] if kind == "variational" else list(range(1, n + 1))
    slots = [
        (alpha, counts, j)
        for l in orders
        for alpha in range(1, m + 1)
        for counts in class_counts(n, l)
        for j in axes
    ]
    entries: dict = {}
    blocks: dict = {}
    for alpha, counts, j in sorted(rng.sample(slots, round(fill * len(slots))), key=slots.index):
        poly = rand_poly(rng, n, sdeg, sterms)
        slot = axis_key(canonical_axes(counts))
        if j is None:
            entries[(alpha, counts)] = poly
            blocks[f"{alpha}|{slot}"] = poly_obj(poly)
        else:
            entries[(alpha, counts, j)] = poly
            blocks[f"{alpha}|{slot}|{j}"] = poly_obj(poly)
    obj = {"n": n, "m": m, "k": k, "kind": kind, "blocks": blocks}
    return entries, _dump(obj)


BOUNDS = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3))
WIDTHS = (Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2))


def scheduled_box(j, n):
    """The box of the ``j``-th op of a pool.

    The box sets the size of every rational the op computes (a third in a
    bound, or a half-width, grows each midpoint's denominator), and so much
    of the op's cost; it follows the op's place in the pool rather than the
    seed, so that each op costs about the same from seed to seed.
    """
    lower = tuple(BOUNDS[(j + axis) % len(BOUNDS)] for axis in range(n))
    upper = tuple(lo + WIDTHS[(j + 2 * axis) % len(WIDTHS)] for axis, lo in enumerate(lower))
    text = ",".join(map(str, lower)) + ":" + ",".join(map(str, upper))
    return lower, upper, text


def stress_op(pool: Pool, cmd, n, m, k, fdeg, fterms, fill, sdeg, sterms, cells=None, as_float=False):
    rng = pool.rng
    kind = "variational" if cmd == "power" else "traction"
    stress, stress_bytes = rand_stress(rng, n, m, k, kind, fill, sdeg, sterms)
    field = [rand_poly(rng, n, fdeg, fterms) for _ in range(m)]
    lower, upper, box = scheduled_box(len(pool.ops), n)
    s_path, f_path = pool.path("stress"), pool.path("field")
    args = [cmd, s_path, f_path, f"--box={box}"]
    if cmd == "flux" and rng.random() < 0.5:
        args += ["--k", str(k)]
    if cells is not None:
        args += ["--subdiv", str(cells)]
    if as_float:
        args.append("--float")
    if cmd == "power":
        spec = ("power", stress, field, lower, upper, cells, as_float)
    else:
        spec = ("flux", stress, field, n, lower, upper, cells, as_float)
    label = f"{cmd}{'-mid' if cells else ''}-n{n}"
    pool.ops.append(Op(label, args, spec, files={s_path: stress_bytes, f_path: field_file(n, field)}))


def rand_point(rng, n):
    point = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
    return point, ",".join(map(str, point))


def jet_op(pool: Pool, n, m, k, fdeg, fterms, to_file=True):
    rng = pool.rng
    field = [rand_poly(rng, n, fdeg, fterms) for _ in range(m)]
    point, text = rand_point(rng, n)
    f_path = pool.path("field")
    args = ["jet", f_path, f"--point={text}", "--k", str(k)]
    out = None
    if to_file:
        out = pool.path("jet-out")
        args += ["--out", out]
    spec = ("jet", n, m, k, field, point, out)
    pool.ops.append(Op(f"jet-n{n}-k{k}", args, spec, out=out, files={f_path: field_file(n, field)}))


def sym_values(rng, n, l, fill=1.0):
    return {canonical_axes(c): rat(rng) for c in class_counts(n, l) if rng.random() < fill}


def tensor_file(n, l, variance, storage, values, convention=None):
    obj = {"n": n, "degree": l, "variance": variance, "storage": storage}
    if convention:
        obj["convention"] = convention
    obj["components"] = {axis_key(idx): str(v) for idx, v in values.items()}
    return _dump(obj)


def rand_tensor(rng, n, l, variance, storage):
    """A symmetric tensor in one of three file layouts: dense, plain or arrow."""
    classes = sym_values(rng, n, l)
    if storage == "dense":
        values = {
            idx: classes[tuple(sorted(idx))]
            for idx in _ordered(n, l)
            if tuple(sorted(idx)) in classes
        }
        desc = {"n": n, "storage": "dense", "values": values}
        return desc, tensor_file(n, l, variance, "dense", values)
    desc = {"n": n, "storage": "symmetric", "convention": storage, "values": classes}
    return desc, tensor_file(n, l, variance, "symmetric", classes, storage)


def _ordered(n, l):
    if l == 0:
        return [()]
    return [head + (a,) for head in _ordered(n, l - 1) for a in range(1, n + 1)]


def pair_op(pool: Pool, n, l, co_storage, contra_storage, as_float=False):
    rng = pool.rng
    co, co_bytes = rand_tensor(rng, n, l, "co", co_storage)
    contra, contra_bytes = rand_tensor(rng, n, l, "contra", contra_storage)
    c_path, t_path = pool.path("co"), pool.path("contra")
    args = ["pair", c_path, t_path] + (["--float"] if as_float else [])
    spec = ("pair", co, contra, as_float)
    pool.ops.append(Op(f"pair-n{n}-l{l}", args, spec, files={c_path: co_bytes, t_path: contra_bytes}))


def symmetrize_op(pool: Pool, n, l):
    rng = pool.rng
    variance = rng.choice(("co", "contra"))
    dense = {idx: rat(rng) for idx in _ordered(n, l)}
    d_path, out = pool.path("dense"), pool.path("sym-out")
    spec = ("symmetrize", n, l, variance, dense, out)
    files = {d_path: tensor_file(n, l, variance, "dense", dense)}
    pool.ops.append(Op(f"symmetrize-n{n}-l{l}", ["symmetrize", d_path, "--out", out], spec, out=out, files=files))


def verify_op(pool: Pool, suite, n, l, k, m, cases):
    seed = pool.rng.randrange(10**6)
    args = ["verify", suite, "--n", str(n), "--l", str(l), "--k", str(k), "--m", str(m)]
    args += ["--seed", str(seed), "--cases", str(cases)]
    pool.ops.append(Op(f"verify-{suite}", args, ("verify", suite, n, l, k, m, cases)))


def dims_op(pool: Pool, n, lmax):
    pool.ops.append(Op(f"dims-n{n}", ["dims", "--n", str(n), "--l", str(lmax)], ("dims", n, lmax)))


def error_op(pool: Pool, kind: str):
    """Malformed inputs and out-of-range flags; each must end in one ``error:`` line."""
    rng = pool.rng
    n = rng.randint(2, 3)
    point = ",".join("0" for _ in range(n))
    files: dict = {}
    if kind == "bad-field-shape":
        path = pool.path("field")
        files[path] = _dump({"n": n, "m": 1, "components": [["x"]]})
        args = ["jet", path, f"--point={point}", "--k", "1"]
    elif kind == "bad-degree":
        path = pool.path("dense")
        files[path] = _dump(
            {"n": n, "degree": -1, "variance": "contra", "storage": "dense", "components": {}}
        )
        args = ["symmetrize", path, "--out", pool.path("sym-out")]
    elif kind == "float-overflow":
        co, contra = pool.path("co"), pool.path("contra")
        big = f"{rng.randint(1, 9)}e{rng.randint(309, 400)}"
        files[co] = tensor_file(n, 1, "co", "symmetric", {(1,): big}, "plain")
        files[contra] = tensor_file(n, 1, "contra", "symmetric", {(1,): "1"}, "plain")
        args = ["pair", co, contra, "--float"]
    elif kind == "bad-slot-key":
        stress, field = pool.path("stress"), pool.path("field")
        files[stress] = _dump(
            {"n": n, "m": 1, "k": 1, "kind": "traction", "blocks": {"x||1": {axis_key((0,) * n): "1"}}}
        )
        files[field] = field_file(n, [{(1,) + (0,) * (n - 1): Fraction(1)}])
        box = ",".join("0" for _ in range(n)) + ":" + ",".join("1" for _ in range(n))
        args = ["flux", stress, field, f"--box={box}"]
    elif kind == "dims-zero":
        args = ["dims", "--n", "0"]
    elif kind == "negative-order":
        path = pool.path("field")
        files[path] = field_file(n, [rand_poly(rng, n, 2, 3)])
        args = ["jet", path, f"--point={point}", "--k", str(-rng.randint(1, 3))]
    else:
        raise ValueError(kind)
    out = args[args.index("--out") + 1] if "--out" in args else None
    pool.ops.append(Op(kind, args, None, out=out, files=files))


ERROR_KINDS = (
    "bad-field-shape",
    "bad-degree",
    "float-overflow",
    "bad-slot-key",
    "dims-zero",
    "negative-order",
)
# The kinds that end in one clean ``error:`` line at the commit that added
# this benchmark.  Only these enter the timed pool of ``tensor-files``, so
# that every op of a workload passes; all of ``ERROR_KINDS`` are probed once
# per run by ``error_probes``.
CLEAN_ERROR_KINDS = ("bad-slot-key", "negative-order")


# Each stress schedule is kept to 12 ops so that, in one run, each op of the
# ``stress`` pool repeats often enough for its fastest repeat to fall in a
# moment when the shared host runs at full speed (see README.md).


def _stress_exact(pool: Pool) -> None:
    # Three shapes, each as power and flux; field term counts step up through
    # the pool so op costs spread evenly instead of clustering by shape.
    for i in range(12):
        cmd = ("power", "flux")[i % 2]
        shape = (i // 2) % 3
        if shape == 0:
            stress_op(pool, cmd, 2, 3, 4, 7, 20 + i, 0.9, 4, 4)
        elif shape == 1:
            stress_op(pool, cmd, 3, 2, 4, 6, 30 + 2 * i, 0.9, 3, 3)
        else:
            stress_op(pool, cmd, 3, 1, 3, 7, 40 + 3 * i, 0.9, 3, 3)


def _stress_midpoint(pool: Pool) -> None:
    # Cells per axis step up through the pool, in 2-D and 3-D.
    for i in range(0, 6, 2):
        stress_op(pool, "power", 2, 2, 3, 6, 20, 0.8, 2, 3, cells=8 + 3 * i)
        stress_op(pool, "flux", 2, 2, 3, 6, 20, 0.8, 2, 3, cells=32 + 12 * i)
        stress_op(pool, "power", 3, 1, 2, 5, 20, 0.8, 2, 3, cells=3 + i)
        stress_op(pool, "flux", 3, 1, 3, 5, 20, 0.8, 2, 3, cells=5 + i)


def _tensor_jet(pool: Pool) -> None:
    storages = ("dense", "plain", "arrow")
    for n, l in ((2, 8), (3, 7), (4, 6), (3, 8)):
        symmetrize_op(pool, n, l)
    for i, (n, l) in enumerate(((2, 8), (3, 6), (3, 7), (4, 5), (4, 6), (3, 5))):
        pair_op(pool, n, l, storages[i % 3], storages[(i + 1) % 3], as_float=i % 2 == 1)
    for n, m, k, fdeg, fterms in ((2, 2, 8, 10, 50), (3, 1, 7, 8, 80), (3, 2, 6, 7, 60), (2, 1, 8, 12, 70)):
        jet_op(pool, n, m, k, fdeg, fterms)
    verify_op(pool, "cauchy", 3, 3, 4, 2, 12)
    verify_op(pool, "jets", 3, 3, 3, 2, 6)
    verify_op(pool, "epsilon", 3, 6, 2, 2, 12)
    verify_op(pool, "duality", 3, 5, 2, 2, 25)


def _small_files(pool: Pool) -> None:
    # Two rounds of cheap ops, each with one malformed input.
    for i in range(2):
        dims_op(pool, 2 + i, 3 + i)
        pair_op(pool, 2, 1 + i, ("dense", "arrow")[i], "plain", as_float=i == 0)
        jet_op(pool, 2, 1, 1 + i, 2, 3, to_file=False)
        stress_op(pool, "power", 2, 1, 1, 2, 3, 0.5, 1, 1, as_float=i == 1)
        stress_op(pool, "flux", 2, 1, 1, 2, 3, 0.5, 1, 1)
        error_op(pool, CLEAN_ERROR_KINDS[i])


def _stress(pool: Pool) -> None:
    _stress_exact(pool)
    _stress_midpoint(pool)


def _tensor_files(pool: Pool) -> None:
    _tensor_jet(pool)
    _small_files(pool)


BUILDERS = {
    "stress": _stress,
    "tensor-files": _tensor_files,
}


def build(workload: str, seed: int, root: str) -> list[Op]:
    """The op pool of a workload, in schedule order so sizes are spread through it."""
    pool = Pool(root, random.Random(f"{workload}:{seed}"))
    BUILDERS[workload](pool)
    return pool.ops


def error_probes(seed: int, root: str) -> list[Op]:
    """One op of every malformed-input kind, the probe of the error contract."""
    pool = Pool(root, random.Random(f"errors:{seed}"))
    for kind in ERROR_KINDS:
        error_op(pool, kind)
    return pool.ops
