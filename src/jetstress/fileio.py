"""JSON file formats for tensors, polynomial fields, jets, and stresses.

Scalars are exact rationals written as strings, ``"3/2"`` or ``"4"``.
Zero entries are omitted when writing and assumed when reading.

Index keys come in two grammars:

* an axis list names tensor slots by their 1-based axes in order, like
  ``"1,2,2"``; the empty string is the degree-0 slot.  Dense tensor
  components accept any axis order; symmetric components must be written
  non-decreasing and anything else is a load error.
* a counts list gives one occurrence count per axis, like ``"1,1"`` for the
  mixed quadratic monomial in two variables; it labels polynomial
  coefficients and jet slots.  The empty string is accepted for the zero
  index and is how constant polynomial values are written inside stress
  files.

File shapes:

* tensor: ``{"n", "degree", "variance": "co"|"contra", "storage":
  "dense"|"symmetric", "convention": "plain"|"arrow" (symmetric only),
  "components": {axis list: rational}}``
* codimension-one form: ``{"n", "coeffs": [rational, ...]}``
* polynomial field: ``{"n", "m", "components": [{counts: rational}, ...]}``
* jet: ``{"n", "m", "k", "x": [rational, ...], "blocks": {order:
  {"alpha|counts": rational}}}``
* stress: ``{"n", "m", "k", "kind": "variational"|"traction", "blocks":
  {slot: {counts: rational}}}`` where a slot is ``"alpha|axis list"`` for
  variational stresses and ``"alpha|axis list|j"`` for traction stresses,
  and each value is a polynomial in position.
"""
from __future__ import annotations

import itertools
import json
import math
import re
import sys
from fractions import Fraction
from typing import Any, Sequence

from .altforms import CoDimOneForm
from .jet import JetElement, _check_jet_shape, _slot_items, _slot_rows, _tensor_blocks
from .hyperstress import TractionStressField, VariationalStressField, _check_order
from .multiindex import CardinalityIndex, MultiIndex, _canonical_axes, _check_axes
from .multiindex import _check_budget, _check_shape, _class_counts, _slot_sizes
from .polyfield import Point, PolyField, Polynomial
from .symtensor import _CONVENTIONS, _VARIANCES, DenseTensor, SymTensor, _check_choice

# The most jet slots a request may cover: a jet or stress file's header (a traction stress
# of order k counts as n jets of order k-1), `jet`, and `verify jets` or `cauchy` over all cases.
_JET_SLOTS = 10_000
# The most stored components a tensor file's header may declare.
_TENSOR_COMPONENTS = 100_000
# The largest exponent magnitude of a rational literal like "2.5e-3", as Fraction builds
# 10**exponent; Python's int limit of 4,300 digits on a digit string sets the scale.
_EXPONENT = 4_300
_EXPONENT_DIGITS = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\Z")
# The highest total degree of a monomial in a field or stress file: the jet's Taylor shift and
# the density products grow with it, and the bench fields reach degree 12.
_DEGREE = 100


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    try:
        return str(value)
    except ValueError:
        # Python's int-to-string limit, 4,300 digits by default.
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"exact value too long to print: more than {limit} digits") from None


def parse_rational(text: str) -> Fraction:
    text = str(text).strip()
    try:
        exponent = _EXPONENT_DIGITS.search(text)
        if exponent and int(exponent[1]) > _EXPONENT:
            raise ValueError(f"exponent exceeds its budget of {_EXPONENT}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None


def axis_list_key(index: MultiIndex | Sequence[int]) -> str:
    entries = index.entries if isinstance(index, MultiIndex) else index
    return ",".join(map(str, entries))


def _int_list(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated ints of an axis list or a counts list; empty text is ``()``."""
    text = text.strip()
    try:
        return tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None


def parse_axis_list(text: str, n: int) -> MultiIndex:
    return MultiIndex(_int_list(text, "axis list"), n)


def _class_key(text: str, n: int) -> CardinalityIndex:
    """The index class named by a non-decreasing axis list, the key of a symmetric slot."""
    axes = _int_list(text, "axis list")
    _check_axes(axes, n)
    if list(axes) != sorted(axes):
        raise ValueError(f"axis list {text!r} must be non-decreasing")
    return CardinalityIndex(tuple(map(axes.count, range(1, n + 1))))


def counts_key(card: CardinalityIndex) -> str:
    return str(card)


def _counts(text: str, n: int) -> tuple[int, ...]:
    """The n counts of a counts list; empty text is the zero index."""
    counts = _int_list(text, "counts list") or (0,) * n
    if len(counts) != n:
        raise ValueError(f"counts list {text!r} must have {n} entries")
    return counts


def parse_counts(text: str, n: int) -> CardinalityIndex:
    return CardinalityIndex(_counts(text, n))


def _json_object(value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


_JSON_TYPES = {int: "integer", str: "string", list: "list"}


def _header(obj: dict, what: str, name: str, kind: type = int) -> Any:
    """Field ``name`` of a ``what`` object, checked to hold a JSON value of type ``kind``."""
    try:
        value = obj[name]
    except KeyError:
        raise ValueError(f"{what} object missing field {name!r}") from None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(
            f"{what} {name!r} must be a JSON {_JSON_TYPES[kind]}, got {type(value).__name__}"
        )
    return value


def _check_tensor_size(n: int, degree: int, storage: str) -> None:
    """Refuse a tensor header declaring more than ``_TENSOR_COMPONENTS`` stored components.

    With n > 1, ``n**degree`` and ``C(n + degree - 1, steps)`` are at least
    ``2**steps``, so a header far past the budget is refused uncomputed.  At
    n = 1 there is one component, but its index class is degree axes long,
    so the degree is held to the budget too.
    """
    _check_shape(n, degree)
    dense = storage == "dense"
    steps = degree if dense else min(degree, n - 1)
    if n > 1 and steps > _TENSOR_COMPONENTS.bit_length():
        size = _TENSOR_COMPONENTS + 1
    else:
        size = max(n**degree if dense else math.comb(n + degree - 1, steps), degree)
    request = f"{storage} tensor of n={n}, degree={degree}"
    _check_budget((size,), _TENSOR_COMPONENTS, request, "components")


def _check_slots(n: int, m: int, k: int, what: str, traction: bool = False) -> None:
    """Check a jet-shaped header and refuse more than ``_JET_SLOTS`` slots."""
    if traction:
        _check_order(k)
    _check_jet_shape(n, m, k)
    width, order = (n * m, k - 1) if traction else (m, k)
    request = f"{what} of n={n}, m={m}, k={k}"
    _check_budget(_slot_sizes(n, width, order), _JET_SLOTS, request, "jet slots")


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, stable separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def tensor_to_obj(tensor: DenseTensor | SymTensor) -> dict:
    if isinstance(tensor, DenseTensor):
        components = {}
        axes = itertools.product(range(1, tensor.n + 1), repeat=tensor.degree)
        for entries, value in zip(axes, tensor.components):
            if value != 0:
                components[axis_list_key(entries)] = format_rational(value)
        return {
            "n": tensor.n,
            "degree": tensor.degree,
            "variance": tensor.variance,
            "storage": "dense",
            "components": components,
        }
    components = {}
    for counts, value in zip(_class_counts(tensor.n, tensor.degree), tensor.components):
        if value != 0:
            components[axis_list_key(_canonical_axes(counts))] = format_rational(value)
    return {
        "n": tensor.n,
        "degree": tensor.degree,
        "variance": tensor.variance,
        "storage": "symmetric",
        "convention": tensor.convention,
        "components": components,
    }


def tensor_from_obj(obj: dict) -> DenseTensor | SymTensor:
    n = _header(obj, "tensor", "n")
    degree = _header(obj, "tensor", "degree")
    variance = _header(obj, "tensor", "variance", str)
    storage = _header(obj, "tensor", "storage", str)
    components = _json_object(obj.get("components", {}), "tensor components")
    _check_choice("variance", variance, _VARIANCES)
    _check_choice("storage", storage, ("dense", "symmetric"))
    _check_tensor_size(n, degree, storage)
    if storage == "dense":
        entries = {}
        for key, text in components.items():
            axes = _int_list(key, "axis list")
            if len(axes) != degree:
                raise ValueError(f"component key {key!r} has degree {len(axes)}, expected {degree}")
            entries[axes] = parse_rational(text)
        # DenseTensor.from_map range-checks the axes.
        return DenseTensor.from_map(n, degree, variance, entries)
    convention = obj.get("convention", "plain")
    _check_choice("convention", convention, _CONVENTIONS)
    entries = {}
    for key, text in components.items():
        card = _class_key(key, n)
        if card.degree != degree:
            raise ValueError(f"component key {key!r} has degree {card.degree}, expected {degree}")
        entries[card] = parse_rational(text)
    return SymTensor.from_map(n, degree, variance, convention, entries)


def form_to_obj(form: CoDimOneForm) -> dict:
    return {"n": form.n, "coeffs": [format_rational(c) for c in form.coeffs]}


def form_from_obj(obj: dict) -> CoDimOneForm:
    n = _header(obj, "form", "n")
    coeffs = _header(obj, "form", "coeffs", list)
    return CoDimOneForm(n, tuple(parse_rational(c) for c in coeffs))


def polynomial_to_obj(poly: Polynomial) -> dict:
    return {counts_key(card): format_rational(coeff) for card, coeff in poly.terms}


def polynomial_from_obj(obj: dict, n: int) -> Polynomial:
    coeffs = {}
    for key, text in obj.items():
        counts = _counts(key, n)
        _check_budget((sum(counts),), _DEGREE, f"monomial {key!r}", "in total degree")
        coeffs[counts] = parse_rational(text)
    return Polynomial.from_map(n, coeffs)


def field_to_obj(field: PolyField) -> dict:
    return {
        "n": field.n,
        "m": field.m,
        "components": [polynomial_to_obj(poly) for poly in field.components],
    }


def field_from_obj(obj: dict) -> PolyField:
    n = _header(obj, "field", "n")
    m = _header(obj, "field", "m")
    components = _header(obj, "field", "components", list)
    if len(components) != m:
        raise ValueError(f"expected {m} components, got {len(components)}")
    polys = (
        polynomial_from_obj(_json_object(entry, f"field component {alpha}"), n)
        for alpha, entry in enumerate(components, start=1)
    )
    return PolyField(n, m, tuple(polys))


def _parse_jet_slot_key(key: str, n: int) -> tuple[int, CardinalityIndex]:
    parts = key.split("|")
    if len(parts) != 2:
        raise ValueError(f"bad jet slot key {key!r}")
    try:
        alpha = int(parts[0])
    except ValueError:
        raise ValueError(f"bad jet slot key {key!r}") from None
    return alpha, parse_counts(parts[1], n)


def jet_to_obj(jet: JetElement) -> dict:
    blocks: dict[str, dict[str, str]] = {str(l): {} for l in range(jet.k + 1)}
    rows = ((t.components for t in block) for block in jet.blocks)
    for l, alpha, counts, value in _slot_items(jet.n, rows, 0):
        blocks[str(l)][f"{alpha}|{','.join(map(str, counts))}"] = format_rational(value)
    return {
        "n": jet.n,
        "m": jet.m,
        "k": jet.k,
        "x": [format_rational(c) for c in jet.x.coords],
        "blocks": blocks,
    }


def jet_from_obj(obj: dict) -> JetElement:
    n = _header(obj, "jet", "n")
    m = _header(obj, "jet", "m")
    k = _header(obj, "jet", "k")
    x = _header(obj, "jet", "x", list)
    blocks_obj = _json_object(obj.get("blocks", {}), "jet blocks")
    _check_slots(n, m, k, "jet")
    point = Point(tuple(parse_rational(c) for c in x))
    slots = {}
    for order_key, entries in blocks_obj.items():
        try:
            l = int(order_key)
        except ValueError:
            raise ValueError(f"bad block order {order_key!r}") from None
        if not 0 <= l <= k:
            raise ValueError(f"block order {l} out of range 0..{k}")
        for key, text in _json_object(entries, f"jet block {order_key!r}").items():
            alpha, card = _parse_jet_slot_key(key, n)
            if card.degree != l:
                raise ValueError(f"slot {key!r} has degree {card.degree}, expected {l}")
            slots[alpha, card] = parse_rational(text)
    blocks = _tensor_blocks(n, _slot_rows(n, m, k, slots, 0), "co", "plain")
    return JetElement(n, m, k, point, blocks)


def stress_to_obj(stress: VariationalStressField | TractionStressField) -> dict:
    if isinstance(stress, VariationalStressField):
        kind, parts = "variational", [(stress, "")]
    elif isinstance(stress, TractionStressField):
        kind, parts = "traction", [(ax, f"|{j}") for j, ax in enumerate(stress.axes, start=1)]
    else:
        raise ValueError(f"unsupported stress type {type(stress).__name__}")
    blocks, zero = {}, Polynomial.zero(stress.n)
    for part, suffix in parts:
        for _, alpha, counts, poly in _slot_items(stress.n, part.blocks, zero):
            key = f"{alpha}|{axis_list_key(_canonical_axes(counts))}{suffix}"
            blocks[key] = _poly_value_obj(poly)
    return {"n": stress.n, "m": stress.m, "k": stress.k, "kind": kind, "blocks": blocks}


def _poly_value_obj(poly: Polynomial) -> dict[str, str]:
    out = {}
    for card, coeff in poly.terms:
        key = "" if card.degree == 0 else counts_key(card)
        out[key] = format_rational(coeff)
    return out


def _parse_stress_slot_key(key: str, n: int, kind: str) -> tuple:
    """``(alpha, index class)`` from ``"alpha|axis list"``, plus ``j`` from ``"...|j"``."""
    parts = key.split("|")
    if len(parts) != (2 if kind == "variational" else 3):
        raise ValueError(f"bad {kind} slot key {key!r}")
    try:
        return (int(parts[0]), _class_key(parts[1], n), *map(int, parts[2:]))
    except ValueError as exc:
        raise ValueError(f"bad {kind} slot key {key!r}: {exc}") from None


def stress_from_obj(obj: dict) -> VariationalStressField | TractionStressField:
    n = _header(obj, "stress", "n")
    m = _header(obj, "stress", "m")
    k = _header(obj, "stress", "k")
    kind = _header(obj, "stress", "kind", str)
    blocks = obj.get("blocks", {})
    fields = {"variational": VariationalStressField, "traction": TractionStressField}
    _check_choice("kind", kind, tuple(fields))
    _check_slots(n, m, k, f"{kind} stress", kind == "traction")
    entries = {
        _parse_stress_slot_key(key, n, kind): polynomial_from_obj(
            _json_object(value, f"stress slot {key!r}"), n
        )
        for key, value in _json_object(blocks, "stress blocks").items()
    }
    return fields[kind].from_map(n, m, k, entries)


def save(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(obj))


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("top-level JSON value must be an object")
    return data


__all__ = [
    "axis_list_key",
    "counts_key",
    "dumps",
    "field_from_obj",
    "field_to_obj",
    "form_from_obj",
    "form_to_obj",
    "format_rational",
    "jet_from_obj",
    "jet_to_obj",
    "load",
    "parse_axis_list",
    "parse_counts",
    "parse_rational",
    "polynomial_from_obj",
    "polynomial_to_obj",
    "save",
    "stress_from_obj",
    "stress_to_obj",
    "tensor_from_obj",
    "tensor_to_obj",
]
