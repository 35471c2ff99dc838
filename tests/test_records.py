"""The value classes are immutable records: equality, hashing, repr, copy and pickle.

One seeded instance per class.  The compared fields of each class are
spelled out here in constructor order, so these checks do not depend on how
a class declares them.  The traction classes also carry ``axes``, their
per-axis parts, which is derived data and not a compared field.
"""
from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from jetstress.altforms import CoDimOneForm, TopForm, Vector
from jetstress.hyperstress import (
    BoxRegion,
    HyperTraction,
    TractionHyperStress,
    TractionStressField,
    VariationalHyperStress,
    VariationalStressField,
)
from jetstress.jet import ChartMap, JetCovector, JetElement
from jetstress.multiindex import CardinalityIndex, MultiIndex, Permutation
from jetstress.polyfield import Point, PolyField, Polynomial
from jetstress.symtensor import DenseTensor, SymTensor

from conftest import (
    rand_chart,
    rand_covector,
    rand_dense,
    rand_field,
    rand_fraction,
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

