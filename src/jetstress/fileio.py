"""JSON file formats for tensors, polynomial fields, jets, and stresses.

Scalars are exact rationals written as strings, ``"3/2"`` or ``"4"``.
Zero entries are omitted when writing and assumed when reading.

Keys and values are ASCII; any other character, raw or JSON-escaped, is a
load error.  A value or ``--point``/``--box`` coordinate reads as ``Fraction``
reads it and a key's integers as ``int`` does: surrounding whitespace, ``_``
between digits, leading zeros and signs load, though no writer emits them.
A tensor component, monomial, jet block order or slot named twice in
different spellings is a load error that names both keys.  Integer flags are
Python's ``int``.

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
import math
import re
import sys
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from operator import gt

from .altforms import CoDimOneForm
from .jet import JetElement, _check_jet_shape, _jet_of_slots, _slot_items
from .hyperstress import TractionStressField, VariationalStressField, _check_order
from .multiindex import CardinalityIndex, MultiIndex, _axes_counts, _axes_rank, _check_axes
from .multiindex import _check_budget, _check_shape, _class_axes, _dense_offset, _slot_sizes
from .multiindex import _BUDGETS, sym_dim
from .polyfield import Point, PolyField, Polynomial
from .symtensor import _CONVENTIONS, _VARIANCES, _ZERO, DenseTensor, SymTensor, _check_choice

# A pattern, not a compiled one: only literals off the fast path of parse_rational need it.
_EXPONENT_DIGITS = r"[eE][-+]?(\d+(?:_\d+)*)\Z"


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    try:
        return str(value)
    except ValueError:
        # Python's int-to-string limit, sys.set_int_max_str_digits.
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"exact value too long to print: more than {limit} digits") from None


def parse_rational(text: str) -> Fraction:
    text = str(text)
    # The spellings the writers emit, "-p/q" and "p" in ASCII digits, are read from their ints,
    # as Fraction reads them, without its pattern; the ints' digit limit still holds.
    num, slash, den = text.partition("/")
    if (num[1:] if num[:1] == "-" else num).isdigit() and (den.isdigit() or not slash):
        if text.isascii():
            try:
                return Fraction(int(num), int(den) if slash else 1)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad rational {text!r}: {exc}") from None
    try:
        if not text.isascii():
            raise ValueError("not ASCII")
        text = text.strip()
        exponent = re.search(_EXPONENT_DIGITS, text)
        if exponent and int(exponent[1]) > _BUDGETS["in exponent"]:
            raise ValueError(f"exponent exceeds its budget of {_BUDGETS['in exponent']}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None


def axis_list_key(index: MultiIndex | Sequence[int]) -> str:
    entries = index.entries if isinstance(index, MultiIndex) else index
    return ",".join(map(str, entries))


def _int_list(text: str, what: str, size: int | None = None) -> tuple[int, ...]:
    """The comma-separated ints of a key, ``size`` of them if given; empty text is ``()``.

    The one reader of key integers: a slot's component and axis and a block order are lists of 1.
    """
    try:
        ints = tuple(map(int, text.split(","))) if text.strip() else ()
        if text.isascii() and (size is None or len(ints) == size):
            return ints
    except ValueError:
        pass
    raise ValueError(f"bad {what} {text!r}")


def parse_axis_list(text: str, n: int) -> MultiIndex:
    return MultiIndex(_int_list(text, "axis list"), n)


def _nondecreasing(axes: tuple[int, ...]) -> tuple[int, ...]:
    """The axis list of a symmetric slot, checked to be non-decreasing."""
    if any(map(gt, axes, axes[1:])):
        raise ValueError(f"axis list {axis_list_key(axes)!r} must be non-decreasing")
    return axes


def _class_offset(axes: tuple[int, ...], n: int) -> int:
    """The colex rank of a symmetric component's axis list; ``_dense_offset``'s signature."""
    return _axes_rank(_nondecreasing(axes))


def _class_key(text: str, n: int) -> CardinalityIndex:
    """The index class named by a non-decreasing axis list, the key of a symmetric slot."""
    axes = _int_list(text, "axis list")
    _check_axes(axes, n)
    return CardinalityIndex(tuple(map(_nondecreasing(axes).count, range(1, n + 1))))


def counts_key(card: CardinalityIndex) -> str:
    return axis_list_key(card.counts)


def _counts(text: str, n: int) -> tuple[int, ...]:
    """The n counts of a counts list; empty text is the zero index."""
    counts = _int_list(text, "counts list") or (0,) * n
    if len(counts) != n:
        raise ValueError(f"counts list {text!r} must have {n} entries")
    return counts


def parse_counts(text: str, n: int) -> CardinalityIndex:
    return CardinalityIndex(_counts(text, n))


def _once(seen: dict, slot: object, key: str, what: str) -> None:
    """Note ``key`` as the spelling of ``slot``; a second spelling of one slot is an error.

    JSON keeps one value per key, so a second key for a slot is another spelling of it.
    """
    first = seen.setdefault(slot, key)
    if first != key:
        raise ValueError(f"{first!r} and {key!r} name one {what}")


def _json_object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


_JSON_TYPES = {int: "integer", str: "string", list: "list"}


def _header(obj: dict, what: str, name: str, kind: type = int) -> object:
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
    """Refuse a tensor header declaring more stored components than their row of ``_BUDGETS``.

    With n > 1, ``n**degree`` and ``C(n + degree - 1, steps)`` are at least
    ``2**steps``, so a header far past the budget is refused uncomputed.  At
    n = 1 there is one component, but its index class is degree axes long,
    so the degree is held to the budget too.
    """
    _check_shape(n, degree)
    dense = storage == "dense"
    steps = degree if dense else min(degree, n - 1)
    if n > 1 and steps > _BUDGETS["components"].bit_length():
        size = math.inf
    else:
        size = max(n**degree if dense else math.comb(n + degree - 1, steps), degree)
    request = f"{storage} tensor of n={n}, degree={degree}"
    _check_budget((size,), "components", request)


def _check_slots(n: int, width: int, order: int, request: str) -> None:
    """Refuse a request for ``width`` rows of jet slots through ``order`` past their budget."""
    _check_budget(_slot_sizes(n, width, order), "jet slots", request)


def dumps(obj: object) -> str:
    """Canonical JSON text: sorted keys, stable separators, trailing newline."""
    # json loads here and in `load`, so commands that read and write no file never import it.
    import json

    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def tensor_to_obj(tensor: DenseTensor | SymTensor) -> dict:
    n, degree = tensor.n, tensor.degree
    obj = {"n": n, "degree": degree, "variance": tensor.variance}
    if isinstance(tensor, DenseTensor):
        obj["storage"], keys = "dense", itertools.product(range(1, n + 1), repeat=degree)
    else:
        obj["storage"], obj["convention"] = "symmetric", tensor.convention
        keys = _class_axes(n, degree)
    obj["components"] = {
        axis_list_key(axes): format_rational(value)
        for axes, value in zip(keys, tensor.components)
        if value != 0
    }
    return obj


def _offsets(items: Iterator, n: int, degree: int, offset: Callable) -> Iterator:
    """``(key, value, offset(axes, n))`` of each ``(key, value)`` component, its key checked."""
    # The size check holds n to its budget unless the degree, and so every key, is 0.
    in_range = frozenset(range(1, n + 1) if degree else ()).issuperset
    for key, text in items:
        axes = _int_list(key, "axis list")
        if len(axes) != degree:
            raise ValueError(f"component key {key!r} has degree {len(axes)}, expected {degree}")
        if not in_range(axes):
            _check_axes(axes, n)
        yield key, text, offset(axes, n)


def _placed(items: Iterator, n: int, degree: int) -> Iterator:
    """``_offsets`` of a dense tensor's components, reading no key that ``tensor_to_obj`` writes.

    While the keys come spelled as ``axis_list_key`` spells them and in row-major
    order, zeros omitted or not, each is placed by walking on through those
    spellings; the first other key sends itself and the rest to ``_offsets``.
    """
    # At degree 0, which admits an n past every budget, the one spelling is "" and names no axis.
    axes = map(str, range(1, n + 1)) if degree else ()
    spellings = enumerate(map(",".join, itertools.product(axes, repeat=degree)))
    for key, text in items:
        for at, spelling in spellings:
            if spelling == key:
                yield key, text, at
                break
        else:
            yield from _offsets(itertools.chain([(key, text)], items), n, degree, _dense_offset)
            return


def tensor_from_obj(obj: dict) -> DenseTensor | SymTensor:
    n, degree = (_header(obj, "tensor", name) for name in ("n", "degree"))
    variance = _header(obj, "tensor", "variance", str)
    storage = _header(obj, "tensor", "storage", str)
    components = _json_object(obj.get("components", {}), "tensor components")
    _check_choice("variance", variance, _VARIANCES)
    _check_choice("storage", storage, ("dense", "symmetric"))
    _check_tensor_size(n, degree, storage)
    if storage == "dense":
        cls, fields, size, offset = DenseTensor, (n, degree, variance), n**degree, _dense_offset
    else:
        convention = obj.get("convention", "plain")
        _check_choice("convention", convention, _CONVENTIONS)
        cls, fields = SymTensor, (n, degree, variance, convention)
        size, offset = sym_dim(n, degree), _class_offset
    # Each value goes straight to its row-major offset or colex rank, and each distinct literal
    # is parsed once.  The memo is keyed on the literal's text, all that parse_rational reads,
    # so JSON true is not taken for 1.
    comps = [_ZERO] * size
    parsed: dict[str, Fraction] = {}
    held = bytearray(size)
    items = iter(components.items())
    placed = _placed(items, n, degree) if storage == "dense" else _offsets(items, n, degree, offset)
    for key, text, at in placed:
        if held[at]:
            # The first spelling is looked up only on this error path: a key kept per component
            # would cost about 0.5 MB on a 6,561-component tensor.
            first = next(k for k in components if offset(_int_list(k, "axis list"), n) == at)
            raise ValueError(f"{first!r} and {key!r} name one tensor component")
        held[at] = 1
        literal = str(text)
        if literal not in parsed:
            parsed[literal] = parse_rational(literal)
        comps[at] = parsed[literal]
    return cls._trusted(*fields, tuple(comps))


def form_to_obj(form: CoDimOneForm) -> dict:
    return {"n": form.n, "coeffs": [format_rational(c) for c in form.coeffs]}


def form_from_obj(obj: dict) -> CoDimOneForm:
    n = _header(obj, "form", "n")
    coeffs = _header(obj, "form", "coeffs", list)
    return CoDimOneForm(n, tuple(parse_rational(c) for c in coeffs))


def polynomial_to_obj(poly: Polynomial) -> dict:
    return {counts_key(card): format_rational(coeff) for card, coeff in poly.terms}


def polynomial_from_obj(obj: dict, n: int) -> Polynomial:
    return _polynomial_reader(n)(obj)


def _polynomial_reader(n: int) -> Callable[[dict], Polynomial]:
    """The reader of a file's polynomials in n variables: ``polynomial_from_obj`` of each.

    Each distinct key text is parsed into its counts and checked against the
    degree budget once, and each distinct literal text is parsed once.
    """
    monomials: dict[str, tuple[int, ...]] = {}
    literals: dict[str, Fraction] = {}

    def read(obj: dict) -> Polynomial:
        coeffs, seen = {}, {}
        for key, text in obj.items():
            if key not in monomials:
                counts = _counts(key, n)
                _check_budget((sum(counts),), "in total degree", f"monomial {key!r}")
                monomials[key] = counts
            counts = monomials[key]
            _once(seen, counts, key, "monomial")
            # Keyed on the literal's text, all that parse_rational reads, so JSON true is not 1.
            literal = str(text)
            if literal not in literals:
                literals[literal] = parse_rational(literal)
            coeffs[counts] = literals[literal]
        return Polynomial.from_map(n, coeffs)

    return read


def field_to_obj(field: PolyField) -> dict:
    components = [polynomial_to_obj(poly) for poly in field.components]
    return {"n": field.n, "m": field.m, "components": components}


def field_from_obj(obj: dict) -> PolyField:
    n, m = (_header(obj, "field", name) for name in "nm")
    components = _header(obj, "field", "components", list)
    if len(components) != m:
        raise ValueError(f"expected {m} components, got {len(components)}")
    read = _polynomial_reader(n)
    polys = (
        read(_json_object(entry, f"field component {alpha}"))
        for alpha, entry in enumerate(components, start=1)
    )
    return PolyField(n, m, tuple(polys))


def _slot_key(*parts: Sequence[int]) -> str:
    """A jet or stress slot key: its parts, each written as an axis list, joined by ``|``."""
    return "|".join(map(axis_list_key, parts))


def _parse_slot_key(key: str, n: int, kind: str) -> tuple:
    """``(alpha, index class)`` from a jet or stress slot key, plus ``j`` from a traction key."""
    parts = key.split("|")
    if len(parts) != (3 if kind == "traction" else 2):
        raise ValueError(f"bad {kind} slot key {key!r}")
    try:
        (alpha,) = _int_list(parts[0], "component", 1)
        index = parse_counts(parts[1], n) if kind == "jet" else _class_key(parts[1], n)
        j = _int_list(parts[2], "axis", 1) if kind == "traction" else ()
    except ValueError as exc:
        raise ValueError(f"bad {kind} slot key {key!r}: {exc}") from None
    return (alpha, index, *j)


def jet_to_obj(jet: JetElement) -> dict:
    blocks: list[dict[str, str]] = [{} for _ in range(jet.k + 1)]
    rows = ((t.components for t in block) for block in jet.blocks)
    for l, alpha, axes, value in _slot_items(jet.n, rows, 0):
        blocks[l][_slot_key((alpha,), _axes_counts(axes, jet.n))] = format_rational(value)
    x = [format_rational(c) for c in jet.x.coords]
    orders = {axis_list_key((l,)): block for l, block in enumerate(blocks)}
    return {"n": jet.n, "m": jet.m, "k": jet.k, "x": x, "blocks": orders}


def jet_from_obj(obj: dict) -> JetElement:
    n, m, k = (_header(obj, "jet", name) for name in "nmk")
    x = _header(obj, "jet", "x", list)
    blocks_obj = _json_object(obj.get("blocks", {}), "jet blocks")
    _check_jet_shape(n, m, k)
    _check_slots(n, m, k, f"jet of n={n}, m={m}, k={k}")
    point = Point(tuple(parse_rational(c) for c in x))
    slots, orders, seen = {}, {}, {}
    for order_key, entries in blocks_obj.items():
        (l,) = _int_list(order_key, "block order", 1)
        if not 0 <= l <= k:
            raise ValueError(f"block order {l} out of range 0..{k}")
        _once(orders, l, order_key, "jet block order")
        # A slot's degree is its block's order, so two blocks never hold one slot.
        for key, text in _json_object(entries, f"jet block {order_key!r}").items():
            alpha, card = _parse_slot_key(key, n, "jet")
            if card.degree != l:
                raise ValueError(f"slot {key!r} has degree {card.degree}, expected {l}")
            _once(seen, (alpha, card), key, "jet slot")
            slots[alpha, card] = parse_rational(text)
    return _jet_of_slots(n, m, k, point, slots)


def stress_to_obj(stress: VariationalStressField | TractionStressField) -> dict:
    if isinstance(stress, VariationalStressField):
        kind, parts = "variational", [(stress, ())]
    elif isinstance(stress, TractionStressField):
        kind, parts = "traction", [(ax, ((j,),)) for j, ax in enumerate(stress.axes, start=1)]
    else:
        raise ValueError(f"unsupported stress type {type(stress).__name__}")
    blocks, zero = {}, Polynomial.zero(stress.n)
    for part, suffix in parts:
        for _, alpha, axes, poly in _slot_items(stress.n, part.blocks, zero):
            blocks[_slot_key((alpha,), axes, *suffix)] = _poly_value_obj(poly)
    return {"n": stress.n, "m": stress.m, "k": stress.k, "kind": kind, "blocks": blocks}


def _poly_value_obj(poly: Polynomial) -> dict[str, str]:
    return {counts_key(c) if c.degree else "": format_rational(v) for c, v in poly.terms}


def stress_from_obj(obj: dict) -> VariationalStressField | TractionStressField:
    n, m, k = (_header(obj, "stress", name) for name in "nmk")
    kind = _header(obj, "stress", "kind", str)
    blocks = obj.get("blocks", {})
    fields = {"variational": VariationalStressField, "traction": TractionStressField}
    _check_choice("kind", kind, tuple(fields))
    if kind == "traction":
        _check_order(k)
    _check_jet_shape(n, m, k)
    width, order = (n * m, k - 1) if kind == "traction" else (m, k)
    _check_slots(n, width, order, f"{kind} stress of n={n}, m={m}, k={k}")
    entries, seen, read = {}, {}, _polynomial_reader(n)
    for key, value in _json_object(blocks, "stress blocks").items():
        slot = _parse_slot_key(key, n, kind)
        _once(seen, slot, key, "stress slot")
        entries[slot] = read(_json_object(value, f"stress slot {key!r}"))
    return fields[kind].from_map(n, m, k, entries)


def save(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(obj))


def load(path: str) -> dict:
    import json

    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            # RFC 8259 lets a parser limit nesting; Python's json limit is the recursion limit.
            raise ValueError("JSON nested too deeply") from None
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
