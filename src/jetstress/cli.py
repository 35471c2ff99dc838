"""Command line interface.

Every command is deterministic: the same inputs and flags produce byte
identical output.  Scalars print as exact rationals unless ``--float`` asks
for shortest-round-trip floating point.  Commands exit 0 on success and
nonzero with a single ``error:`` line on failure.
"""
from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from typing import NoReturn, Sequence

from . import fileio
from .altforms import Vector, frame_rank, restrict
from .hyperstress import (
    BoxRegion,
    TractionHyperStress,
    TractionStressField,
    VariationalStressField,
    boundary_power_flux,
    cauchy_traction,
    total_power,
    traction_density,
)
from .jet import JetElement, _tensor_blocks, jet_of, realize, truncate
from .multiindex import (
    MultiIndex,
    apply_permutation,
    cardinality,
    epsilon_abs,
    kron_delta,
    mi_factorial,
    multiplicity,
    enumerate_nondecreasing,
    permutations_of,
    sym_dim,
)
from .polyfield import Point
from .symtensor import (
    DenseTensor,
    SymTensor,
    compress,
    ordered_indices,
    pair,
    symmetrize_dense,
)
from .fileio import format_rational


def _format_scalar(value: Fraction, as_float: bool) -> str:
    if as_float:
        try:
            return f"{float(value):.17g}"
        except OverflowError:
            raise ValueError("value out of range for --float") from None
    return format_rational(value)


def _parse_point(text: str) -> Point:
    try:
        coords = tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad point {text!r}; expected comma-separated rationals") from None
    return Point(coords)


def _parse_box(text: str) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"bad box {text!r}; expected lower:upper")
    lower = _parse_point(parts[0]).coords
    upper = _parse_point(parts[1]).coords
    if len(lower) != len(upper):
        raise ValueError(f"bad box {text!r}; bound lengths differ")
    return lower, upper


def _region(args: argparse.Namespace) -> tuple[BoxRegion, str]:
    """The ``--box`` region and the integration method ``--subdiv`` selects."""
    lower, upper = _parse_box(args.box)
    if args.subdiv is None:
        return BoxRegion(lower, upper), "exact"
    return BoxRegion(lower, upper, args.subdiv), "midpoint"


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _rand_multiindex(rng: random.Random, n: int, l: int) -> MultiIndex:
    return MultiIndex(tuple(rng.randint(1, n) for _ in range(l)), n)


def cmd_dims(args: argparse.Namespace) -> int:
    n = args.n
    kmax = args.l
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    if kmax < 0:
        raise ValueError(f"--l must be non-negative, got {kmax}")
    print(f"{'l':>3} {'sym_dim':>10} {'dense_dim':>12} {'multiplicity_sum':>18} check")
    for l in range(kmax + 1):
        sym = sym_dim(n, l)
        dense = n**l
        total = sum(multiplicity(card) for card in enumerate_nondecreasing(n, l))
        ok = "ok" if total == dense else "MISMATCH"
        print(f"{l:>3} {sym:>10} {dense:>12} {total:>18} {ok}")
        if total != dense:
            return 1
    return 0


def cmd_symmetrize(args: argparse.Namespace) -> int:
    tensor = fileio.tensor_from_obj(fileio.load(args.input))
    if not isinstance(tensor, DenseTensor):
        raise ValueError("symmetrize expects a dense tensor file")
    result = compress(symmetrize_dense(tensor))
    fileio.save(fileio.tensor_to_obj(result), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_jet(args: argparse.Namespace) -> int:
    field = fileio.field_from_obj(fileio.load(args.field))
    point = _parse_point(args.point)
    jet = jet_of(field, point, args.k)
    obj = fileio.jet_to_obj(jet)
    if args.out:
        fileio.save(obj, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(fileio.dumps(obj))
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    stress = fileio.stress_from_obj(fileio.load(args.stress))
    if not isinstance(stress, VariationalStressField):
        raise ValueError("power expects a variational stress file")
    field = fileio.field_from_obj(fileio.load(args.field))
    region, method = _region(args)
    value = total_power(stress, field, region, method=method)
    print(_format_scalar(value, args.float))
    return 0


def cmd_flux(args: argparse.Namespace) -> int:
    stress = fileio.stress_from_obj(fileio.load(args.stress))
    if not isinstance(stress, TractionStressField):
        raise ValueError("flux expects a traction stress file")
    field = fileio.field_from_obj(fileio.load(args.field))
    region, method = _region(args)
    value = boundary_power_flux(stress, field, region, k=args.k, method=method)
    print(_format_scalar(value, args.float))
    return 0


def cmd_pair(args: argparse.Namespace) -> int:
    left = fileio.tensor_from_obj(fileio.load(args.cotensor))
    right = fileio.tensor_from_obj(fileio.load(args.tensor))
    if isinstance(left, DenseTensor):
        left = compress(left)
    if isinstance(right, DenseTensor):
        right = compress(right)
    print(_format_scalar(pair(left, right), args.float))
    return 0


def _verify_epsilon(rng: random.Random, n: int, l: int, cases: int) -> int:
    perms = list(permutations_of(l))
    for _ in range(cases):
        left = _rand_multiindex(rng, n, l)
        right = _rand_multiindex(rng, n, l)
        delta_sum = sum(kron_delta(left, apply_permutation(p, right)) for p in perms)
        expected = mi_factorial(cardinality(left)) * epsilon_abs(left, right)
        if delta_sum != expected:
            print(f"FAIL epsilon: delta sum {delta_sum} != {expected} for {left}, {right}")
            return 1
        p = perms[rng.randrange(len(perms))]
        if epsilon_abs(apply_permutation(p, left), right) != epsilon_abs(left, right):
            print(f"FAIL epsilon: permutation changed indicator for {left}, {right}")
            return 1
    for _ in range(max(cases // 5, 1)):
        dense = symmetrize_dense(
            DenseTensor.from_function(n, l, "contra", lambda index: _rand_fraction(rng))
        )
        card = cardinality(_rand_multiindex(rng, n, l).sorted())
        canonical = card.canonical()
        class_sum = sum(
            dense.component(index)
            for index in ordered_indices(n, l)
            if epsilon_abs(canonical, index)
        )
        if class_sum != multiplicity(card) * dense.component(canonical):
            print(f"FAIL epsilon: class sum broken at {card}")
            return 1
    print(f"epsilon: {cases} cases at n={n}, l={l}: OK")
    return 0


def _verify_duality(n: int, l: int) -> int:
    for degree in range(l + 1):
        cards = enumerate_nondecreasing(n, degree)
        for left in cards:
            co = SymTensor.from_map(n, degree, "co", "arrow", {left: 1})
            for right in cards:
                contra = SymTensor.from_map(n, degree, "contra", "plain", {right: 1})
                expected = Fraction(int(left == right))
                got = pair(co, contra)
                if got != expected:
                    print(f"FAIL duality: pair at {left}, {right} gave {got}")
                    return 1
    print(f"duality: all basis pairs up to degree {l} at n={n}: OK")
    return 0


def _rand_jet(rng: random.Random, n: int, m: int, k: int) -> JetElement:
    dims = [sym_dim(n, l) for l in range(k + 1)]
    rows = [[[_rand_fraction(rng) for _ in range(dim)] for _ in range(m)] for dim in dims]
    x = Point(tuple(_rand_fraction(rng) for _ in range(n)))
    return JetElement(n, m, k, x, _tensor_blocks(n, rows, "co", "plain"))


def _rand_traction(rng: random.Random, n: int, m: int, k: int) -> TractionHyperStress:
    blocks = []
    for l in range(k):
        block = []
        for _ in range(m):
            row = []
            for _ in range(n):
                comps = tuple(_rand_fraction(rng) for _ in range(sym_dim(n, l)))
                row.append(SymTensor(n, l, "contra", "arrow", comps))
            block.append(tuple(row))
        blocks.append(tuple(block))
    return TractionHyperStress(n, m, k, tuple(blocks))


def _rand_frame(rng: random.Random, n: int) -> list[Vector]:
    while True:
        frame = [
            Vector(n, tuple(_rand_fraction(rng) for _ in range(n))) for _ in range(n - 1)
        ]
        if frame_rank(frame) == n - 1:
            return frame


def _verify_cauchy(rng: random.Random, n: int, m: int, k: int, cases: int) -> int:
    for _ in range(cases):
        stress = _rand_traction(rng, n, m, k)
        jet = _rand_jet(rng, n, m, k - 1)
        frame = _rand_frame(rng, n)
        traction = cauchy_traction(stress, frame)
        via_slots = traction.apply(jet)
        via_density = restrict(traction_density(stress, jet), frame)
        if via_slots != via_density:
            print(f"FAIL cauchy: {via_slots} != {via_density}")
            return 1
    print(f"cauchy: {cases} cases at n={n}, m={m}, k={k}: OK")
    return 0


def _verify_jets(rng: random.Random, n: int, m: int, k: int, cases: int) -> int:
    for _ in range(cases):
        jet = _rand_jet(rng, n, m, k)
        field = realize(jet)
        again = jet_of(field, jet.x, k)
        if again != jet:
            print("FAIL jets: realize round trip changed the jet")
            return 1
        if k > 0:
            direct = jet_of(field, jet.x, k - 1)
            if direct != truncate(again, k - 1):
                print("FAIL jets: truncation disagrees with lower-order jet")
                return 1
    print(f"jets: {cases} cases at n={n}, m={m}, k={k}: OK")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    for flag, least in (("n", 1), ("m", 1), ("l", 0), ("k", 0), ("cases", 1)):
        value = getattr(args, flag)
        if value < least:
            raise ValueError(f"--{flag} must be at least {least}, got {value}")
    rng = random.Random(args.seed)
    if args.suite == "epsilon":
        return _verify_epsilon(rng, args.n, args.l, args.cases)
    if args.suite == "duality":
        return _verify_duality(args.n, args.l)
    if args.suite == "cauchy":
        return _verify_cauchy(rng, args.n, args.m, max(args.k, 1), args.cases)
    if args.suite == "jets":
        return _verify_jets(rng, args.n, args.m, args.k, args.cases)
    raise ValueError(f"unknown suite {args.suite!r}")


class _Parser(argparse.ArgumentParser):
    """Usage errors end as one ``error:`` line and exit 1; subcommand parsers share the class."""

    def error(self, message: str) -> NoReturn:
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jetstress",
        description="Exact symmetric tensor, jet, and hyper-stress computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dims = sub.add_parser("dims", help="compressed and dense dimension table")
    p_dims.add_argument("--n", type=int, required=True, help="space dimension")
    p_dims.add_argument("--l", type=int, default=6, help="largest degree to list")
    p_dims.set_defaults(fn=cmd_dims)

    p_sym = sub.add_parser("symmetrize", help="symmetrize a dense tensor file")
    p_sym.add_argument("input", help="dense tensor JSON file")
    p_sym.add_argument("--out", required=True, help="output path for the compressed tensor")
    p_sym.set_defaults(fn=cmd_symmetrize)

    p_jet = sub.add_parser("jet", help="jet of a polynomial field at a point")
    p_jet.add_argument("field", help="polynomial field JSON file")
    p_jet.add_argument("--point", required=True, help="base point, e.g. '0,1/2'")
    p_jet.add_argument("--k", type=int, required=True, help="jet order")
    p_jet.add_argument("--out", help="output path; print to stdout when omitted")
    p_jet.set_defaults(fn=cmd_jet)

    p_power = sub.add_parser("power", help="total power of a variational stress over a box")
    p_power.add_argument("stress", help="variational stress JSON file")
    p_power.add_argument("field", help="polynomial field JSON file")
    p_power.add_argument("--box", required=True, help="box as lower:upper, e.g. '0,0:1,1'")
    p_power.add_argument("--subdiv", type=int, help="midpoint quadrature instead of exact")
    p_power.add_argument("--float", action="store_true", help="print as floating point")
    p_power.set_defaults(fn=cmd_power)

    p_flux = sub.add_parser("flux", help="boundary power flux of a traction stress")
    p_flux.add_argument("stress", help="traction stress JSON file")
    p_flux.add_argument("field", help="polynomial field JSON file")
    p_flux.add_argument("--box", required=True, help="box as lower:upper")
    p_flux.add_argument("--k", type=int, help="expected stress order (checked)")
    p_flux.add_argument("--subdiv", type=int, help="midpoint quadrature instead of exact")
    p_flux.add_argument("--float", action="store_true", help="print as floating point")
    p_flux.set_defaults(fn=cmd_flux)

    p_pair = sub.add_parser("pair", help="invariant pairing of two tensor files")
    p_pair.add_argument("cotensor", help="covariant tensor JSON file")
    p_pair.add_argument("tensor", help="contravariant tensor JSON file")
    p_pair.add_argument("--float", action="store_true", help="print as floating point")
    p_pair.set_defaults(fn=cmd_pair)

    p_verify = sub.add_parser("verify", help="randomized self-checks")
    p_verify.add_argument(
        "suite", choices=["epsilon", "duality", "cauchy", "jets"], help="check suite"
    )
    p_verify.add_argument("--n", type=int, default=3)
    p_verify.add_argument("--l", type=int, default=3)
    p_verify.add_argument("--k", type=int, default=2)
    p_verify.add_argument("--m", type=int, default=2)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--cases", type=int, default=25)
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
