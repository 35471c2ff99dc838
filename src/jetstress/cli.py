"""Command line interface.

Every command is deterministic: the same inputs and flags produce byte
identical output.  Scalars print as exact rationals unless ``--float`` asks
for shortest-round-trip floating point.  Commands exit 0 on success and
nonzero with a single ``error:`` line on failure.
"""
from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from typing import NoReturn, Sequence

from . import fileio
from .fileio import _TENSOR_COMPONENTS, _check_slots, format_rational
from .hyperstress import (
    BoxRegion,
    TractionStressField,
    VariationalStressField,
    boundary_power_flux,
    total_power,
)
from .jet import jet_of
from .multiindex import _check_budget, _slot_sizes, enumerate_nondecreasing, multiplicity
from .multiindex import permutations_of, sym_dim
from .polyfield import Point
from .symtensor import DenseTensor, _class_sums, compress, pair

# The most basis pairs `verify duality` checks; each builds two tensors and pairs them.
_DUALITY_PAIRS = 20_000
# The most permutation applications `verify epsilon` makes: l! per case.
_EPSILON_PERMUTATIONS = 1_000_000
# The most index classes `dims` lists over all its degrees.
_DIMS_CLASSES = 10_000
# The most cells per axis `--subdiv` cuts a box into.
_CELLS = 100_000


def _format_scalar(value: Fraction, as_float: bool) -> str:
    if as_float:
        try:
            return f"{float(value):.17g}"
        except OverflowError:
            raise ValueError("value out of range for --float") from None
    return format_rational(value)


def _parse_point(text: str) -> Point:
    try:
        coords = tuple(fileio.parse_rational(part) for part in text.split(","))
    except ValueError:
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
    _check_budget((args.subdiv,), _CELLS, f"--subdiv {args.subdiv}", "cells per axis")
    return BoxRegion(lower, upper, args.subdiv), "midpoint"


def cmd_dims(args: argparse.Namespace) -> int:
    n = args.n
    kmax = args.l
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    if kmax < 0:
        raise ValueError(f"--l must be non-negative, got {kmax}")
    request = f"dims at --n {n} --l {kmax}"
    _check_budget(_slot_sizes(n, 1, kmax), _DIMS_CLASSES, request, "index classes")
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
    # The class averages are the plain components of the symmetrized tensor.
    result = _class_sums(tensor, "plain")
    fileio.save(fileio.tensor_to_obj(result), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_jet(args: argparse.Namespace) -> int:
    field = fileio.field_from_obj(fileio.load(args.field))
    point = _parse_point(args.point)
    request = f"jet at --k {args.k} of a field with n={field.n}, m={field.m}"
    _check_slots(field.n, field.m, args.k, request)
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


def cmd_verify(args: argparse.Namespace) -> int:
    for flag, least in (("n", 1), ("m", 1), ("l", 0), ("k", 0), ("cases", 1)):
        value = getattr(args, flag)
        if value < least:
            raise ValueError(f"--{flag} must be at least {least}, got {value}")
    # The suites and their generators load only here, so other commands never import them.
    import random

    from . import _checks

    rng = random.Random(args.seed)
    if args.suite == "epsilon":
        # permutations_of refuses an --l above the cap before l! is computed.
        permutations_of(args.l)
        request = f"verify epsilon at --n {args.n} --l {args.l} --cases {args.cases}"
        applied = args.cases * math.factorial(args.l)
        _check_budget((applied,), _EPSILON_PERMUTATIONS, request, "permutation applications")
        dense = max(args.cases // 5, 1) * args.n**args.l
        _check_budget((dense,), _TENSOR_COMPONENTS, request, "dense components")
        return _checks.verify_epsilon(rng, args.n, args.l, args.cases)
    if args.suite == "duality":
        pairs = (sym_dim(args.n, degree) ** 2 for degree in range(args.l + 1))
        request = f"verify duality at --n {args.n} --l {args.l}"
        _check_budget(pairs, _DUALITY_PAIRS, request, "basis pairs")
        return _checks.verify_duality(args.n, args.l)
    if args.suite not in ("cauchy", "jets"):
        raise ValueError(f"unknown suite {args.suite!r}")
    # Each case of `jets` draws an m-component k-jet; each case of `cauchy`, n of order k-1.
    jets = args.suite == "jets"
    order, width = (args.k, args.m) if jets else (max(args.k, 1) - 1, args.n * args.m)
    request = f"verify {args.suite} at --n {args.n} --m {args.m} --k {args.k} --cases {args.cases}"
    _check_slots(args.n, args.cases * width, order, request)
    if jets:
        return _checks.verify_jets(rng, args.n, args.m, order, args.cases)
    return _checks.verify_cauchy(rng, args.n, args.m, order + 1, args.cases)


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
