"""The value classes are immutable records: equality, hashing, repr, copy and pickle.

One seeded instance per class.  The compared fields of each class are
spelled out here in constructor order, so these checks do not depend on how
a class declares them.  The traction classes also carry ``axes``, their
per-axis parts, which is derived data and not a compared field.

Records the library builds from values it has just checked or computed skip
their constructor's checks; each such path must give the record the checked
constructor gives on the same values, while the public constructors and
builders still refuse bad input.
"""
from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from jetstress import fileio
from jetstress.altforms import CoDimOneForm, TopForm, Vector
from jetstress.hyperstress import (
    BoxRegion,
    HyperTraction,
    TractionHyperStress,
    TractionStressField,
    VariationalHyperStress,
    VariationalStressField,
    cauchy_traction,
)
from jetstress.jet import ChartMap, JetCovector, JetElement, _taylor_of_jet, jet_of, transform_1jet
from jetstress.multiindex import CardinalityIndex, MultiIndex, Permutation, apply_permutation
from jetstress.multiindex import permutations_of
from jetstress.polyfield import Point, PolyField, Polynomial
from jetstress.symtensor import DenseTensor, SymTensor, _class_sums, compress, convert_convention
from jetstress.symtensor import include, ordered_indices

from conftest import (
    rand_chart,
    rand_covector,
    rand_dense,
    rand_field,
    rand_fraction,
    rand_frame,
    rand_jet,
    rand_point,
    rand_poly,
    rand_sym,
    rand_traction,
    rand_traction_field,
    rand_variational_field,
)


def _fractions(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    return tuple(rand_fraction(rng) for _ in range(count))


def _box(rng: random.Random) -> BoxRegion:
    return BoxRegion((-1, rand_fraction(rng) - 10), (1, rand_fraction(rng) + 10), 3)


# Compared fields of each class, in constructor order.
FIELDS = {
    MultiIndex: ("entries", "n"),
    CardinalityIndex: ("counts",),
    Permutation: ("mapping",),
    DenseTensor: ("n", "degree", "variance", "components"),
    SymTensor: ("n", "degree", "variance", "convention", "components"),
    Point: ("coords",),
    Polynomial: ("n", "terms"),
    PolyField: ("n", "m", "components"),
    Vector: ("n", "components"),
    TopForm: ("n", "coeff"),
    CoDimOneForm: ("n", "coeffs"),
    JetElement: ("n", "m", "k", "x", "blocks"),
    JetCovector: ("n", "m", "k", "blocks"),
    ChartMap: ("n", "m", "matrix", "offset", "frame"),
    BoxRegion: ("lower", "upper", "subdivisions"),
    VariationalHyperStress: ("covector",),
    TractionHyperStress: ("n", "m", "k", "blocks"),
    HyperTraction: ("k", "covector"),
    VariationalStressField: ("n", "m", "k", "blocks"),
    TractionStressField: ("n", "m", "k", "blocks"),
}

BUILD = {
    MultiIndex: lambda rng: MultiIndex(tuple(rng.randint(1, 3) for _ in range(4)), 3),
    CardinalityIndex: lambda rng: CardinalityIndex(tuple(rng.randint(0, 3) for _ in range(3))),
    Permutation: lambda rng: Permutation(tuple(rng.sample(range(1, 5), 4))),
    DenseTensor: lambda rng: rand_dense(rng, 2, 2),
    SymTensor: lambda rng: rand_sym(rng, 3, 2),
    Point: lambda rng: rand_point(rng, 3),
    Polynomial: lambda rng: rand_poly(rng, 2, 2),
    PolyField: lambda rng: rand_field(rng, 2, 2, 2),
    Vector: lambda rng: Vector(3, _fractions(rng, 3)),
    TopForm: lambda rng: TopForm(3, rand_fraction(rng)),
    CoDimOneForm: lambda rng: CoDimOneForm(3, _fractions(rng, 3)),
    JetElement: lambda rng: rand_jet(rng, 2, 2, 2),
    JetCovector: lambda rng: rand_covector(rng, 2, 2, 2),
    ChartMap: lambda rng: rand_chart(rng, 2, 2),
    BoxRegion: _box,
    VariationalHyperStress: lambda rng: VariationalHyperStress(rand_covector(rng, 2, 2, 1)),
    TractionHyperStress: lambda rng: rand_traction(rng, 2, 2, 2),
    HyperTraction: lambda rng: HyperTraction(2, rand_covector(rng, 2, 2, 1)),
    VariationalStressField: lambda rng: rand_variational_field(rng, 2, 1, 1, 1),
    TractionStressField: lambda rng: rand_traction_field(rng, 2, 1, 2, 1),
}


@pytest.fixture(params=list(FIELDS), ids=lambda cls: cls.__name__)
def record(request):
    obj = BUILD[request.param](random.Random(11))
    assert type(obj) is request.param
    return obj, FIELDS[request.param]


def values(obj, fields) -> tuple:
    return tuple(getattr(obj, name) for name in fields)


def test_copy_deepcopy_and_pickle_return_equal_records(record):
    obj, fields = record
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is type(obj)
        assert clone == obj and hash(clone) == hash(obj)
        assert values(clone, fields) == values(obj, fields)
        if hasattr(obj, "axes"):
            assert clone.axes == obj.axes


def test_fields_cannot_be_assigned_or_deleted(record):
    obj, fields = record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    if hasattr(obj, "axes"):
        with pytest.raises(AttributeError):
            obj.axes = ()


def test_equality_is_by_fields_within_exactly_one_class(record):
    obj, fields = record
    same = type(obj)(*values(obj, fields))
    assert same is not obj and same == obj and not same != obj

    class Subclass(type(obj)):
        __slots__ = ()

    assert obj.__eq__(values(obj, fields)) is NotImplemented
    assert obj.__eq__(Subclass(*values(obj, fields))) is NotImplemented
    assert obj != Subclass(*values(obj, fields))


def test_hash_is_the_hash_of_the_field_tuple(record):
    obj, fields = record
    assert hash(obj) == hash(values(obj, fields))


def test_repr_names_each_compared_field(record):
    obj, fields = record
    body = ", ".join(f"{name}={getattr(obj, name)!r}" for name in fields)
    assert repr(obj) == f"{type(obj).__qualname__}({body})"


def test_records_are_slotted_and_list_their_fields(record):
    obj, fields = record
    assert not hasattr(obj, "__dict__")
    assert type(obj)._fields == fields



def _polynomials(rng: random.Random) -> list:
    p, q = rand_poly(rng, 2, 3), rand_poly(rng, 2, 3)
    return [p * q, p + q, -p, p * "3/2", p.derive((1, 0)), p.substitute(2, Fraction(1, 3))]


def with_blocks(*records) -> list:
    """The jets or jet covectors and every block tensor they hold."""
    return [*records, *(tensor for r in records for block in r.blocks for tensor in block)]


# Each library path that builds records without checks, and records it built from seeded data.
TRUSTED = {
    "apply_permutation": lambda rng: [
        apply_permutation(p, MultiIndex((1, 3, 2, 3), 3)) for p in permutations_of(4)
    ],
    "permutations_of": lambda rng: list(permutations_of(4)) + list(permutations_of(0)),
    "ordered_indices": lambda rng: list(ordered_indices(3, 2)) + list(ordered_indices(2, 0)),
    "convert_convention": lambda rng: [
        convert_convention(rand_sym(rng, 3, 3, "co", "plain"), "arrow"),
        convert_convention(rand_sym(rng, 3, 3, "contra", "arrow"), "plain"),
    ],
    "class_sums": lambda rng: [_class_sums(rand_dense(rng, 3, 3, "co"), c) for c in ("arrow", "plain")],
    "compress": lambda rng: [compress(include(rand_sym(rng, 2, 4, "co")))],
    "include": lambda rng: [include(rand_sym(rng, 3, 2, "contra", "arrow"))],
    "DenseTensor.from_map": lambda rng: [
        DenseTensor.from_map(2, 2, "co", {(1, 2): "3/4", (2, 1): 2, ("2", 2.0): Fraction(-1, 7)})
    ],
    "DenseTensor.from_function": lambda rng: [
        DenseTensor.from_function(2, 3, "contra", lambda index: sum(index.entries) / 3)
    ],
    "SymTensor.from_map": lambda rng: [
        SymTensor.from_map(3, 2, "contra", "arrow", {(1, 2): "1/3", MultiIndex((3, 3), 3): 5})
    ],
    "dense reader": lambda rng: [fileio.tensor_from_obj(fileio.tensor_to_obj(rand_dense(rng, 3, 2)))],
    "rand_sym": lambda rng: [rand_sym(rng, 3, 3, "co", "plain"), rand_sym(rng, 2, 0, "contra")],
    "taylor of a jet": lambda rng: _taylor_of_jet(rand_jet(rng, 3, 2, 3)),
    "polynomial kernels": _polynomials,
    "traction from_map": lambda rng: [
        fileio.stress_from_obj(fileio.stress_to_obj(rand_traction_field(rng, 2, 1, 2, 1))),
        TractionHyperStress.from_map(2, 1, 2, {(1, (1,), 2): 3, (1, (), 1): "1/2"}),
    ],
    "traction at and constant": lambda rng: [
        rand_traction_field(rng, 2, 2, 2, 1).at(rand_point(rng, 2)),
        TractionStressField.constant(rand_traction(rng, 2, 1, 2)),
    ],
    "jet builder": lambda rng: with_blocks(
        JetElement.zero(2, 2, 1),
        jet_of(rand_field(rng, 3, 2, 3), rand_point(rng, 3), 2),
        fileio.jet_from_obj(fileio.jet_to_obj(rand_jet(rng, 2, 2, 2))),
        transform_1jet(rand_jet(rng, 2, 2, 1), rand_chart(rng, 2, 2)),
    ),
    "covector builder": lambda rng: with_blocks(
        JetCovector.from_map(2, 2, 2, {(1, (1, 2)): "1/3", (2, ()): 4, (2, (2,)): 0.5}),
        VariationalHyperStress.from_map(1, 1, 3, {(1, (1, 1)): Fraction(2, 7)}).covector,
        TractionHyperStress.from_map(2, 1, 2, {(1, (1,), 2): 3, (1, (), 1): "1/2"}).axes[1],
        cauchy_traction(rand_traction(rng, 3, 2, 2), rand_frame(rng, 3)).covector,
        rand_variational_field(rng, 2, 2, 2, 1).at(rand_point(rng, 2)).covector,
    ),
}


@pytest.mark.parametrize("path", list(TRUSTED))
def test_trusted_paths_build_the_checked_records(path):
    built = TRUSTED[path](random.Random(12))
    assert built
    for obj in built:
        fields = FIELDS[type(obj)]
        checked = type(obj)(*values(obj, fields))
        assert checked == obj and hash(checked) == hash(obj) and repr(checked) == repr(obj)
        if hasattr(obj, "axes"):
            assert obj.axes == checked.axes
            assert all(type(ax) is type(obj)._part for ax in obj.axes)
        if isinstance(obj, (DenseTensor, SymTensor)):
            assert all(type(c) is Fraction for c in obj.components)
        if isinstance(obj, Polynomial):
            for card, coeff in obj.terms:
                assert type(card) is CardinalityIndex and type(coeff) is Fraction
                assert card == CardinalityIndex(card.counts)
        if isinstance(obj, MultiIndex):
            assert all(type(e) is int for e in obj.entries)


def test_computed_jet_blocks_skip_the_checked_tensor_constructor(monkeypatch):
    rng = random.Random(13)
    stress, frame = rand_traction(rng, 3, 2, 3), rand_frame(rng, 3)
    field, x = rand_field(rng, 3, 2, 3), rand_point(rng, 3)
    stress_field = rand_variational_field(rng, 2, 2, 2, 1)
    jet_obj = fileio.jet_to_obj(rand_jet(rng, 3, 2, 2))
    calls = []
    checked = SymTensor.__init__

    def counting(self, *args) -> None:
        calls.append(args)
        checked(self, *args)

    monkeypatch.setattr(SymTensor, "__init__", counting)
    built = [
        cauchy_traction(stress, frame).covector,
        jet_of(field, x, 3),
        stress_field.at(rand_point(rng, 2)).covector,
        fileio.jet_from_obj(jet_obj),
    ]
    assert calls == []
    assert all(type(t) is SymTensor for record in built for block in record.blocks for t in block)


def test_checked_builders_still_refuse_bad_input():
    dense_file = {"n": 2, "degree": 2, "variance": "co", "storage": "dense"}
    co_block = SymTensor(1, 0, "co", "arrow", (1,))
    refused = [
        (lambda: DenseTensor(2, 1, "up", (0, 0)), "variance must be 'co' or 'contra', got 'up'"),
        (lambda: DenseTensor.from_map(2, 1, "up", {}), "variance must be"),
        (lambda: DenseTensor.from_function(2, 1, "up", lambda index: 0), "variance must be"),
        (lambda: SymTensor.from_map(2, 1, "up", "plain", {}), "variance must be"),
        (lambda: SymTensor(2, 1, "co", "bent", (0, 0)), "convention must be 'plain' or 'arrow'"),
        (lambda: SymTensor.from_map(2, 1, "co", "bent", {}), "convention must be"),
        (lambda: DenseTensor(2, 2, "co", (0,) * 3), "expected 4 components, got 3"),
        (lambda: SymTensor(2, 2, "co", "plain", (0,) * 4), "expected 3 components, got 4"),
        (lambda: DenseTensor.from_map(2, 2, "co", {(1, 3): 1}), r"axis 3 out of range 1\.\.2"),
        (lambda: SymTensor.from_map(2, 2, "co", "plain", {(3, 3): 1}), r"axis 3 out of range"),
        (lambda: DenseTensor.from_function(0, 0, "co", lambda index: 0), "dimension must be positive"),
        (lambda: list(ordered_indices(0, 0)), "dimension must be positive"),
        (
            lambda: fileio.tensor_from_obj(dense_file | {"components": {"1,3": "1"}}),
            r"axis 3 out of range 1\.\.2",
        ),
        (
            lambda: fileio.tensor_from_obj(dense_file | {"components": {"1,1": "1", "2,0": "1"}}),
            r"axis 0 out of range 1\.\.2",
        ),
        (
            lambda: TractionStressField.from_map(2, 1, 1, {(1, (), 3): Polynomial.zero(2)}),
            r"axis 3 out of range 1\.\.2",
        ),
        (lambda: TractionHyperStress.from_map(0, 1, 1, {}), "n must be at least 1, got 0"),
        (lambda: TractionHyperStress.from_map(2, 0, 1, {}), "m must be at least 1, got 0"),
        (lambda: TractionHyperStress.from_map(2, 1, 0, {}), "order must be at least 1, got 0"),
        (lambda: JetElement.zero(2, 0, 1), "m must be at least 1, got 0"),
        (lambda: JetCovector.zero(0, 1, 1), "n must be at least 1, got 0"),
        (lambda: JetElement.zero(2, 1, 1, Point((0,))), "base point dimension mismatch"),
        (
            lambda: fileio.jet_from_obj({"n": 2, "m": 1, "k": 0, "x": ["1"]}),
            "base point dimension mismatch",
        ),
        (lambda: JetElement(1, 1, 0, Point((0,)), ((co_block,),)), "must be co/plain"),
        (lambda: JetCovector(1, 1, 0, ((co_block.with_convention("plain"),),)), "contra/arrow"),
        (lambda: JetCovector(1, 1, 1, ((co_block,),)), "expected 2 blocks, got 1"),
        (lambda: JetCovector.from_map(2, 1, 1, {(2, ()): 1}), r"component 2 out of range 1\.\.1"),
        (lambda: JetCovector.from_map(2, 1, 1, {(1, (1, 1)): 1}), "order 2 exceeds jet order 1"),
    ]
    for build, message in refused:
        with pytest.raises(ValueError, match=message):
            build()
