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
from fractions import Fraction
from typing import Any, Sequence

from .altforms import CoDimOneForm
from .jet import JetElement
from .hyperstress import TractionStressField, VariationalStressField
from .multiindex import CardinalityIndex, MultiIndex, cardinality, enumerate_nondecreasing
from .polyfield import Point, PolyField, Polynomial
from .symtensor import DenseTensor, SymTensor


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None


def axis_list_key(index: MultiIndex | Sequence[int]) -> str:
    entries = index.entries if isinstance(index, MultiIndex) else index
    return ",".join(map(str, entries))


def parse_axis_list(text: str, n: int) -> MultiIndex:
    text = text.strip()
    if not text:
        return MultiIndex((), n)
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad axis list {text!r}") from None
    return MultiIndex(entries, n)


def counts_key(card: CardinalityIndex) -> str:
    return str(card)


def parse_counts(text: str, n: int) -> CardinalityIndex:
    text = text.strip()
    if not text:
        return CardinalityIndex.zero(n)
    try:
        counts = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad counts list {text!r}") from None
    if len(counts) != n:
        raise ValueError(f"counts list {text!r} must have {n} entries")
    return CardinalityIndex(counts)


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
    for card, value in zip(tensor.slots(), tensor.components):
        if value != 0:
            components[axis_list_key(card.canonical())] = format_rational(value)
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
    if variance not in ("co", "contra"):
        raise ValueError(f"variance must be 'co' or 'contra', got {variance!r}")
    if storage == "dense":
        entries = {}
        for key, text in components.items():
            index = parse_axis_list(key, n)
            if index.degree != degree:
                raise ValueError(f"component key {key!r} has degree {index.degree}, expected {degree}")
            entries[index.entries] = parse_rational(text)
        return DenseTensor.from_map(n, degree, variance, entries)
    if storage == "symmetric":
        convention = obj.get("convention", "plain")
        if convention not in ("plain", "arrow"):
            raise ValueError(f"convention must be 'plain' or 'arrow', got {convention!r}")
        entries = {}
        for key, text in components.items():
            index = parse_axis_list(key, n)
            if index.degree != degree:
                raise ValueError(f"component key {key!r} has degree {index.degree}, expected {degree}")
            if not index.is_nondecreasing():
                raise ValueError(f"symmetric storage requires non-decreasing keys, got {key!r}")
            entries[cardinality(index)] = parse_rational(text)
        return SymTensor.from_map(n, degree, variance, convention, entries)
    raise ValueError(f"storage must be 'dense' or 'symmetric', got {storage!r}")


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
        card = parse_counts(key, n)
        coeffs[card] = parse_rational(text)
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


def _jet_slot_key(alpha: int, card: CardinalityIndex) -> str:
    return f"{alpha}|{counts_key(card)}"


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
    blocks: dict[str, dict[str, str]] = {}
    for l in range(jet.k + 1):
        entries = {}
        for alpha in range(1, jet.m + 1):
            tensor = jet.blocks[l][alpha - 1]
            for card, value in zip(tensor.slots(), tensor.components):
                if value != 0:
                    entries[_jet_slot_key(alpha, card)] = format_rational(value)
        blocks[str(l)] = entries
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
    point = Point(tuple(parse_rational(c) for c in x))
    slot_maps: list[list[dict]] = [[{} for _ in range(m)] for _ in range(k + 1)]
    for order_key, entries in blocks_obj.items():
        try:
            l = int(order_key)
        except ValueError:
            raise ValueError(f"bad block order {order_key!r}") from None
        if not 0 <= l <= k:
            raise ValueError(f"block order {l} out of range 0..{k}")
        for key, text in _json_object(entries, f"jet block {order_key!r}").items():
            alpha, card = _parse_jet_slot_key(key, n)
            if not 1 <= alpha <= m:
                raise ValueError(f"component {alpha} out of range 1..{m}")
            if card.degree != l:
                raise ValueError(f"slot {key!r} has degree {card.degree}, expected {l}")
            slot_maps[l][alpha - 1][card] = parse_rational(text)
    blocks = tuple(
        tuple(SymTensor.from_map(n, l, "co", "plain", slot_maps[l][a]) for a in range(m))
        for l in range(k + 1)
    )
    return JetElement(n, m, k, point, blocks)


def stress_to_obj(stress: VariationalStressField | TractionStressField) -> dict:
    if isinstance(stress, VariationalStressField):
        kind, parts = "variational", [(stress, "")]
    elif isinstance(stress, TractionStressField):
        kind, parts = "traction", [(ax, f"|{j}") for j, ax in enumerate(stress.axes, start=1)]
    else:
        raise ValueError(f"unsupported stress type {type(stress).__name__}")
    blocks: dict[str, dict[str, str]] = {}
    for part, suffix in parts:
        for l, block in enumerate(part.blocks):
            cards = enumerate_nondecreasing(stress.n, l)
            for alpha, row in enumerate(block, start=1):
                for card, poly in zip(cards, row):
                    if poly.terms:
                        key = f"{alpha}|{axis_list_key(card.canonical())}{suffix}"
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
        alpha = int(parts[0])
        index = parse_axis_list(parts[1], n)
        axis = [int(j) for j in parts[2:]]
    except ValueError as exc:
        raise ValueError(f"bad {kind} slot key {key!r}: {exc}") from None
    if not index.is_nondecreasing():
        raise ValueError(f"slot key {key!r} must use non-decreasing axes")
    return (alpha, cardinality(index), *axis)


def stress_from_obj(obj: dict) -> VariationalStressField | TractionStressField:
    n = _header(obj, "stress", "n")
    m = _header(obj, "stress", "m")
    k = _header(obj, "stress", "k")
    kind = _header(obj, "stress", "kind", str)
    blocks = obj.get("blocks", {})
    fields = {"variational": VariationalStressField, "traction": TractionStressField}
    if kind not in fields:
        raise ValueError(f"kind must be 'variational' or 'traction', got {kind!r}")
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
