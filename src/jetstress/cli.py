"""Command line interface.

Every command is deterministic: the same inputs and flags produce byte
identical output.  Scalars print as exact rationals unless ``--float`` asks
for shortest-round-trip floating point.  Commands exit 0 on success and
nonzero with a single ``error:`` line on failure.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

from . import fileio
from .fileio import _check_slots, format_rational
from .hyperstress import (
    BoxRegion,
    TractionStressField,
    VariationalStressField,
    boundary_power_flux,
    total_power,
)
from .jet import jet_of
from .multiindex import _check_budget, _slot_sizes, class_multiplicities
from .multiindex import permutations_of, sym_dim
from .polyfield import Point
from .symtensor import DenseTensor, _class_sums, compress, pair

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


def _region(args: SimpleNamespace) -> tuple[BoxRegion, str]:
    """The ``--box`` region and the integration method ``--subdiv`` selects."""
    lower, upper = _parse_box(args.box)
    if args.subdiv is None:
        return BoxRegion(lower, upper), "exact"
    _check_budget((args.subdiv,), "cells per axis", f"--subdiv {args.subdiv}")
    return BoxRegion(lower, upper, args.subdiv), "midpoint"


def cmd_dims(args: SimpleNamespace) -> int:
    n = args.n
    kmax = args.l
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    if kmax < 0:
        raise ValueError(f"--l must be non-negative, got {kmax}")
    request = f"dims at --n {n} --l {kmax}"
    _check_budget(_slot_sizes(n, 1, kmax), "index classes", request)
    print(f"{'l':>3} {'sym_dim':>10} {'dense_dim':>12} {'multiplicity_sum':>18} check")
    for l in range(kmax + 1):
        sym = sym_dim(n, l)
        dense = n**l
        total = sum(class_multiplicities(n, l))
        ok = "ok" if total == dense else "MISMATCH"
        print(f"{l:>3} {sym:>10} {dense:>12} {total:>18} {ok}")
        if total != dense:
            return 1
    return 0


def cmd_symmetrize(args: SimpleNamespace) -> int:
    tensor = fileio.tensor_from_obj(fileio.load(args.input))
    if not isinstance(tensor, DenseTensor):
        raise ValueError("symmetrize expects a dense tensor file")
    # The class averages are the plain components of the symmetrized tensor.
    result = _class_sums(tensor, "plain")
    fileio.save(fileio.tensor_to_obj(result), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_jet(args: SimpleNamespace) -> int:
    field = fileio.field_from_obj(fileio.load(args.field))
    point = _parse_point(args.point)
    request = f"jet at --k {args.k} of a field with n={field.n}, m={field.m}"
    _check_slots(field.n, field.m, args.k, request)
    # A monomial's bits at the point, from its counts and the coordinates' bits, not its value.
    bits = [max(c.numerator.bit_length(), c.denominator.bit_length()) for c in point.coords]
    terms = (card for poly in field.components for card, _ in poly.terms)
    most = max((sum(map(mul, card.counts, bits)) for card in terms), default=0)
    _check_budget((most,), "monomial bits", request)
    jet = jet_of(field, point, args.k)
    obj = fileio.jet_to_obj(jet)
    if args.out:
        fileio.save(obj, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(fileio.dumps(obj))
    return 0


def cmd_power(args: SimpleNamespace) -> int:
    stress = fileio.stress_from_obj(fileio.load(args.stress))
    if not isinstance(stress, VariationalStressField):
        raise ValueError("power expects a variational stress file")
    field = fileio.field_from_obj(fileio.load(args.field))
    region, method = _region(args)
    value = total_power(stress, field, region, method=method)
    print(_format_scalar(value, args.float))
    return 0


def cmd_flux(args: SimpleNamespace) -> int:
    stress = fileio.stress_from_obj(fileio.load(args.stress))
    if not isinstance(stress, TractionStressField):
        raise ValueError("flux expects a traction stress file")
    field = fileio.field_from_obj(fileio.load(args.field))
    region, method = _region(args)
    value = boundary_power_flux(stress, field, region, k=args.k, method=method)
    print(_format_scalar(value, args.float))
    return 0


def cmd_pair(args: SimpleNamespace) -> int:
    left = fileio.tensor_from_obj(fileio.load(args.cotensor))
    right = fileio.tensor_from_obj(fileio.load(args.tensor))
    if isinstance(left, DenseTensor):
        left = compress(left)
    if isinstance(right, DenseTensor):
        right = compress(right)
    print(_format_scalar(pair(left, right), args.float))
    return 0


def cmd_verify(args: SimpleNamespace) -> int:
    for flag, least in (("n", 1), ("m", 1), ("l", 0), ("k", 0), ("cases", 1)):
        value = getattr(args, flag)
        if value < least:
            raise ValueError(f"--{flag} must be at least {least}, got {value}")
    # The suites and their generators load only here, so other commands never import them.
    import random

    from . import _checks

    rng = random.Random(args.seed)
    n, cases = args.n, args.cases
    if args.suite == "epsilon":
        # permutations_of refuses an --l above the cap before l! is computed.
        permutations_of(args.l)
        request = f"verify epsilon at --n {n} --l {args.l} --cases {cases}"
        applied = cases * math.factorial(args.l)
        _check_budget((applied,), "permutation applications", request)
        # The dense draws; apart from them, one n-long count tuple per case and per dense draw.
        rounds = max(cases // 5, 1)
        _check_budget((rounds * n**args.l,), "components", request)
        _check_budget((n * (cases + rounds),), "components", request)
        return _checks.verify_epsilon(rng, n, args.l, cases)
    if args.suite == "duality":
        pairs = (sym_dim(n, degree) ** 2 for degree in range(args.l + 1))
        request = f"verify duality at --n {n} --l {args.l}"
        _check_budget(pairs, "basis pairs", request)
        # One n-long count tuple per index class; at --l 0 this alone bounds n.
        _check_budget((n * sym_dim(n, d) for d in range(args.l + 1)), "components", request)
        return _checks.verify_duality(n, args.l)
    # Each case of `jets` draws an m-component k-jet; each case of `cauchy`, n of order k-1.
    jets = args.suite == "jets"
    order, width = (args.k, args.m) if jets else (max(args.k, 1) - 1, n * args.m)
    request = f"verify {args.suite} at --n {n} --m {args.m} --k {args.k} --cases {cases}"
    _check_slots(n, cases * width, order, request)
    # One n-long point per case, and one n-long count tuple per slot.
    _check_budget((n * (cases + sum(_slot_sizes(n, cases * width, order))),), "components", request)
    if jets:
        return _checks.verify_jets(rng, n, args.m, order, cases)
    # Each case takes n + 1 exact n x n determinants, about n**4 steps of elimination.
    _check_budget((cases * n**4,), "elimination steps", request)
    return _checks.verify_cauchy(rng, n, args.m, order + 1, cases)


# Each command's positional names and its flags.  A flag maps to its type and its default;
# _REQUIRED marks a flag that must be given, and type bool a switch, which takes no value.
_REQUIRED = object()
_SWITCH = (bool, False)
_COMMANDS = {
    "dims": ((), {"--n": (int, _REQUIRED), "--l": (int, 6)}),
    "symmetrize": (("input",), {"--out": (str, _REQUIRED)}),
    "jet": (
        ("field",),
        {"--point": (str, _REQUIRED), "--k": (int, _REQUIRED), "--out": (str, None)},
    ),
    "power": (
        ("stress", "field"),
        {"--box": (str, _REQUIRED), "--subdiv": (int, None), "--float": _SWITCH},
    ),
    "flux": (
        ("stress", "field"),
        {"--box": (str, _REQUIRED), "--k": (int, None), "--subdiv": (int, None),
         "--float": _SWITCH},
    ),
    "pair": (("cotensor", "tensor"), {"--float": _SWITCH}),
    "verify": (
        ("suite",),
        {"--n": (int, 3), "--l": (int, 3), "--k": (int, 2), "--m": (int, 2),
         "--seed": (int, 0), "--cases": (int, 25)},
    ),
}
_CHOICES = {"command": tuple(_COMMANDS), "suite": ("epsilon", "duality", "cauchy", "jets")}
_USAGE = f"""\
usage:
jetstress dims --n 3 --l 4
jetstress symmetrize dense.json --out packed.json
jetstress jet field.json --point 0,1/2 --k 2 [--out jet.json]
jetstress power stress.json field.json --box 0,0:1,1 [--subdiv N] [--float]
jetstress flux stress.json field.json --box 0,0:1,1 [--k K] [--subdiv N] [--float]
jetstress pair cotensor.json tensor.json [--float]
jetstress verify {{{','.join(_CHOICES['suite'])}}} [--n N] [--l L] [--k K] [--m M] [--seed S] [--cases C]
"""


def _usage_error(message: str) -> SystemExit:
    """Print a usage error as one ``error:`` line; the caller raises the exit it returns."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(1)


def _choice(name: str, value: str) -> str:
    """``value``, checked against the choices of ``name`` if it has any."""
    choices = _CHOICES.get(name)
    if choices is not None and value not in choices:
        listed = ", ".join(map(repr, choices))
        raise _usage_error(f"argument {name}: invalid choice: {value!r} (choose from {listed})")
    return value


def _parse(argv: list[str]) -> tuple[str, SimpleNamespace]:
    """The command ``argv`` names and its arguments, read against ``_COMMANDS``.

    A token that starts with ``-`` names a flag unless it is a flag's value;
    ``--name=value`` and ``--name value`` both give one, and the last given counts.
    """
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_USAGE)
        raise SystemExit(0)
    tokens = iter(argv)
    # A token starting with `-` before the command is a flag of no command, so unrecognized.
    extras: list[str] = []
    command = next(tokens, None)
    while command is not None and command.startswith("-"):
        extras.append(command)
        command = next(tokens, None)
    if command is None:
        raise _usage_error("the following arguments are required: command")
    positionals, flags = _COMMANDS[_choice("command", command)]
    given: list[str] = []
    values: dict[str, object] = {}
    for token in tokens:
        name, eq, value = token.partition("=")
        if not token.startswith("-"):
            if len(given) == len(positionals):
                extras.append(token)
            else:
                given.append(_choice(positionals[len(given)], token))
        elif name not in flags:
            extras.append(token)
        elif flags[name][0] is bool:
            if eq:
                raise _usage_error(f"argument {name}: ignored explicit argument {value!r}")
            values[name] = True
        else:
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise _usage_error(f"argument {name}: expected one argument")
            if flags[name][0] is int:
                try:
                    value = int(value)
                except ValueError:
                    raise _usage_error(f"argument {name}: invalid int value: {value!r}") from None
            values[name] = value
    required = [name for name, (_, default) in flags.items() if default is _REQUIRED]
    missing = list(positionals[len(given) :]) + [name for name in required if name not in values]
    if missing:
        raise _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    args = dict(zip(positionals, given))
    for name, (_, default) in flags.items():
        args[name[2:]] = values.get(name, default)
    return command, SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else list(argv))
        # Looked up when the command runs, so a wrapped cmd_* in the module is the one called.
        return globals()[f"cmd_{command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The program's entry: ``main`` on ``sys.argv``, then exit once stdout and stderr are flushed.

    The output is complete by then, so the process ends without the
    interpreter's teardown; ``atexit`` handlers do not run.  A flush that
    fails ends as a failed write in ``main`` does, in one ``error:`` line and
    exit 1.  An exception other than ``_parse``'s exit keeps Python's path.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    try:
        try:
            sys.stdout.flush()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        sys.stderr.flush()
    except OSError:
        # stderr failed too, so the exit code is all that can report it.
        code = 1
    # Imported here: under -S, importing this module loads no module beyond the package.
    import os

    os._exit(code)


if __name__ == "__main__":
    run()
