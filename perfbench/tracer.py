"""Traced runner: ``python tracer.py SPANS_FILE ARGS...`` runs ``jetstress ARGS...``.

It imports ``jetstress.cli``, wraps the public functions and methods of every
module, then calls ``cli.main`` the way ``python -m jetstress.cli`` would:
the exit code, stdout, stderr and ``--out`` files are the command's own, and
an uncaught exception still ends in a traceback.

Each call into a wrapped function is a span (function, start, end, parent).
Spans stay in memory and are written to SPANS_FILE with ``marshal`` at exit,
together with per-layer counters.  Counters are updated after a span's end
time is taken; the span's ``outer`` time marks when that work finished, so
the parent does not absorb it and no span's self time includes it.

What is wrapped:

* module-level functions whose names do not start with ``_``, both in their
  own module and wherever another module bound them with ``from .x import f``;
* public methods, classmethods and the arithmetic dunders of the classes a
  module defines.  Dataclass-generated methods are not wrapped; generators
  are timed only for their creation.

The constructors of ``MultiIndex``, ``CardinalityIndex`` and ``SymTensor``
feed counters only, because they run far more often than anything else.
"""
from __future__ import annotations

import array
import marshal
import os
import sys
import time
from fractions import Fraction

LAYERS = (
    "multiindex",
    "symtensor",
    "polyfield",
    "altforms",
    "_linalg",
    "jet",
    "hyperstress",
    "fileio",
    "cli",
)
DUNDERS = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__call__", "__le__"}
COUNTERS = (
    "fileio.bytes_in",
    "fileio.bytes_out",
    "hyperstress.density_terms",
    "polyfield.mul_term_pairs",
    "polyfield.evals",
    "polyfield.eval_terms",
    "polyfield.max_coeff_bits",
    "jet.slots",
    "symtensor.dense_slots",
    "symtensor.sym_slots",
    "altforms.frame_rank_calls",
    "altforms.distinct_frames",
    "multiindex.objects",
)

now = time.perf_counter_ns
fids = array.array("H")
parents = array.array("q")
starts = array.array("q")
ends = array.array("q")
outers = array.array("q")
stack = [-1]
names: list[tuple[str, str]] = []
counts = dict.fromkeys(COUNTERS, 0)
frames: set = set()


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _poly_bits(poly) -> int:
    return max((_bits(c) for _, c in poly.terms), default=0)


def _note_bits(bits: int) -> None:
    if bits > counts["polyfield.max_coeff_bits"]:
        counts["polyfield.max_coeff_bits"] = bits


def _count(layer: str, name: str, args, result) -> None:
    """Domain counters for one finished call."""
    short = name.rsplit(".", 1)[-1]
    if layer == "fileio":
        if short == "load":
            counts["fileio.bytes_in"] += os.path.getsize(args[0])
        elif short == "dumps":
            counts["fileio.bytes_out"] += len(result)
    elif layer == "hyperstress":
        if short == "density":
            counts["hyperstress.density_terms"] += len(result.terms)
        elif short == "density_coeffs":
            counts["hyperstress.density_terms"] += sum(len(p.terms) for p in result)
    elif layer == "polyfield":
        if short in ("__mul__", "__rmul__") and isinstance(args[1], Polynomial):
            counts["polyfield.mul_term_pairs"] += len(args[0].terms) * len(args[1].terms)
        elif short == "__call__" and isinstance(args[0], Polynomial):
            counts["polyfield.evals"] += 1
            counts["polyfield.eval_terms"] += len(args[0].terms)
        if isinstance(result, Polynomial):
            _note_bits(_poly_bits(result))
        elif isinstance(result, Fraction):
            _note_bits(_bits(result))
    elif layer == "jet":
        if isinstance(result, JetElement):
            counts["jet.slots"] += sum(len(t.components) for block in result.blocks for t in block)
        elif short == "pair_jet":
            counts["jet.slots"] += sum(len(t.components) for block in args[1].blocks for t in block)
    elif layer == "symtensor" and short == "ordered_indices":
        counts["symtensor.dense_slots"] += args[0] ** args[1]
    elif layer == "altforms" and short == "frame_rank":
        counts["altforms.frame_rank_calls"] += 1
        frames.add(tuple(tuple(v.components) for v in args[0]))


def _span(layer: str, name: str, fn):
    fid = len(names)
    names.append((layer, name))

    def wrapper(*args, **kwargs):
        idx = len(fids)
        fids.append(fid)
        parents.append(stack[-1])
        ends.append(0)
        outers.append(0)
        stack.append(idx)
        starts.append(now())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = outers[idx] = now()
            stack.pop()
        _count(layer, name, args, result)
        outers[idx] = now()
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


def _constructor_counter(cls, counter: str, size) -> None:
    original = cls.__post_init__

    def post_init(self) -> None:
        original(self)
        counts[counter] += size(self)

    cls.__post_init__ = post_init


def install() -> None:
    global JetElement, Polynomial
    import jetstress
    import jetstress.cli
    from jetstress.jet import JetElement
    from jetstress.polyfield import Polynomial

    modules = [sys.modules[f"jetstress.{layer}"] for layer in LAYERS]
    every = modules + [jetstress]
    for layer, module in zip(LAYERS, modules):
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                _wrap_class(layer, obj)
            elif callable(obj) and not attr.startswith("_"):
                wrapped = _span(layer, attr, obj)
                for other in every:
                    for other_attr, value in list(vars(other).items()):
                        if value is obj:
                            setattr(other, other_attr, wrapped)
    from jetstress.multiindex import CardinalityIndex, MultiIndex
    from jetstress.symtensor import SymTensor

    _constructor_counter(MultiIndex, "multiindex.objects", lambda self: 1)
    _constructor_counter(CardinalityIndex, "multiindex.objects", lambda self: 1)
    _constructor_counter(SymTensor, "symtensor.sym_slots", lambda self: len(self.components))


def _wrap_class(layer: str, cls: type) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_") and attr not in DUNDERS:
            continue
        name = f"{cls.__name__}.{attr}"
        if isinstance(value, classmethod):
            setattr(cls, attr, classmethod(_span(layer, name, value.__func__)))
        elif isinstance(value, staticmethod):
            setattr(cls, attr, staticmethod(_span(layer, name, value.__func__)))
        elif callable(value) and not isinstance(value, type):
            setattr(cls, attr, _span(layer, name, value))


def write(path: str) -> None:
    counts["altforms.distinct_frames"] = len(frames)
    data = {
        "names": names,
        "fid": fids.tobytes(),
        "parent": parents.tobytes(),
        "start": starts.tobytes(),
        "end": ends.tobytes(),
        "outer": outers.tobytes(),
        "counts": counts,
    }
    with open(path, "wb") as handle:
        marshal.dump(data, handle)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.argv = ["jetstress"] + argv
    import jetstress.cli

    install()
    try:
        return jetstress.cli.main(argv)
    finally:
        write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
