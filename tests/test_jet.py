from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jetstress import jet as jet_module
from jetstress.jet import (
    ChartMap,
    JetCovector,
    JetElement,
    compose_charts,
    jet_of,
    pair_jet,
    realize,
    source,
    transform_1jet,
    truncate,
)
from jetstress.polyfield import Point, PolyField, Polynomial
from jetstress.symtensor import SymTensor, pair

from conftest import (
    rand_chart,
    rand_covector,
    rand_field,
    rand_jet,
    rand_point,
    transformed_field_oracle,
)


def product_field():
    p = Polynomial.variable(2, 1) * Polynomial.variable(2, 2)
    return PolyField(2, 1, (p,))


def test_jet_of_product_field_at_origin():
    jet = jet_of(product_field(), Point.origin(2), 2)
    assert jet.component(1, ()) == 0
    assert jet.component(1, (1,)) == 0
    assert jet.component(1, (2,)) == 0
    assert jet.component(1, (1, 2)) == 1
    assert jet.component(1, (1, 1)) == 0
    assert jet.component(1, (2, 2)) == 0


def test_jet_of_product_field_off_origin():
    jet = jet_of(product_field(), Point((Fraction(1), Fraction(2))), 1)
    assert jet.component(1, ()) == 2
    assert jet.component(1, (1,)) == 2
    assert jet.component(1, (2,)) == 1


def test_jet_component_validates_ranges():
    jet = jet_of(product_field(), Point.origin(2), 1)
    with pytest.raises(ValueError):
        jet.component(2, ())
    with pytest.raises(ValueError):
        jet.component(1, (1, 2))


def test_jet_blocks_must_be_covariant_plain():
    bad = (
        (SymTensor.zeros(2, 0, "contra", "plain"),),
        (SymTensor.zeros(2, 1, "co", "plain"),),
    )
    with pytest.raises(ValueError):
        JetElement(2, 1, 1, Point.origin(2), bad)
    short = ((SymTensor.zeros(2, 0, "co", "plain"),),)
    with pytest.raises(ValueError):
        JetElement(2, 1, 1, Point.origin(2), short)


def test_covector_blocks_must_be_contravariant_arrow():
    bad = (
        (SymTensor.zeros(2, 0, "co", "arrow"),),
        (SymTensor.zeros(2, 1, "contra", "arrow"),),
    )
    with pytest.raises(ValueError):
        JetCovector(2, 1, 1, bad)


def test_realize_then_jet_is_identity():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        k = rng.randint(0, 3)
        jet = rand_jet(rng, n, m, k)
        assert jet_of(realize(jet), jet.x, k) == jet


def test_jet_then_realize_recovers_low_degree_fields():
    rng = random.Random(62)
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        k = rng.randint(1, 3)
        field = rand_field(rng, n, m, k)
        x = rand_point(rng, n)
        assert realize(jet_of(field, x, k)) == field


def counted_factorials(monkeypatch) -> list:
    """The arguments of every ``mi_factorial`` call the jet layer makes from now on."""
    calls: list = []
    original = jet_module.mi_factorial
    monkeypatch.setattr(jet_module, "mi_factorial", lambda c: calls.append(c) or original(c))
    return calls


def test_taylor_placement_costs_one_factorial_per_nonzero_term(monkeypatch):
    # x1**3 at x1 = 1 is 1 + 3y + 3y**2 + y**3: four terms, whatever the order.
    cube = PolyField(1, 1, (Polynomial.variable(1, 1).power(3),))
    calls = counted_factorials(monkeypatch)
    jet = jet_of(cube, Point((1,)), 200)
    assert len(calls) == 4
    assert [jet.component(1, (1,) * l) for l in range(5)] == [1, 3, 6, 6, 0]
    calls.clear()
    assert realize(jet) == cube
    assert len(calls) == 4


def test_realize_costs_one_factorial_per_nonzero_slot(monkeypatch):
    polys = (Polynomial.from_map(2, {(2, 1): 1}), Polynomial.from_map(2, {(0, 5): 2}))
    field = PolyField(2, 2, polys)
    jet = jet_of(field, Point((0, 1)), 12)
    nonzero = sum(v != 0 for block in jet.blocks for row in block for v in row.components)
    calls = counted_factorials(monkeypatch)
    assert realize(jet) == field
    assert len(calls) == nonzero


def test_truncate_drops_high_blocks():
    rng = random.Random(63)
    jet = rand_jet(rng, 2, 2, 3)
    cut = truncate(jet, 1)
    assert cut.k == 1
    assert cut.blocks == jet.blocks[:2]
    assert cut.x == jet.x
    with pytest.raises(ValueError):
        truncate(jet, 4)


def test_source_is_base_point():
    jet = jet_of(product_field(), Point((Fraction(3), Fraction(1))), 0)
    assert source(jet) == Point((Fraction(3), Fraction(1)))


def test_pair_jet_single_slot():
    jet = jet_of(product_field(), Point.origin(2), 2)
    phi = JetCovector.from_map(2, 1, 2, {(1, (1, 2)): 1})
    assert pair_jet(phi, jet) == 1


def test_pair_jet_equals_blockwise_tensor_pairing():
    rng = random.Random(64)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        k = rng.randint(0, 3)
        jet = rand_jet(rng, n, m, k)
        phi = rand_covector(rng, n, m, k)
        blockwise = sum(
            (
                pair(jet.blocks[l][a], phi.blocks[l][a])
                for l in range(k + 1)
                for a in range(m)
            ),
            Fraction(0),
        )
        assert pair_jet(phi, jet) == blockwise


def test_pair_jet_shape_mismatch():
    rng = random.Random(65)
    jet = rand_jet(rng, 2, 1, 1)
    phi = rand_covector(rng, 2, 1, 2)
    with pytest.raises(ValueError):
        pair_jet(phi, jet)


def test_chart_rejects_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        ChartMap(
            2,
            1,
            ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))),
            (Fraction(0), Fraction(0)),
            ((Polynomial.constant(2, 1),),),
        )


def test_identity_chart_fixes_jets():
    rng = random.Random(66)
    for _ in range(10):
        jet = rand_jet(rng, rng.randint(1, 3), rng.randint(1, 2), 1)
        assert transform_1jet(jet, ChartMap.identity(jet.n, jet.m)) == jet


def test_apply_point_is_affine():
    chart = ChartMap(
        2,
        1,
        ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0))),
        (Fraction(5), Fraction(0)),
        ((Polynomial.constant(2, 1),),),
    )
    assert chart.apply_point(Point((2, 3))) == Point((8, -2))


def test_transform_requires_order_one():
    rng = random.Random(67)
    jet = rand_jet(rng, 2, 1, 2)
    with pytest.raises(ValueError, match="1-jet"):
        transform_1jet(jet, ChartMap.identity(2, 1))


def test_transform_matches_field_transport():
    rng = random.Random(68)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        field = rand_field(rng, n, m, 2)
        x = rand_point(rng, n)
        chart = rand_chart(rng, n, m, frame_degree=2)
        pushed = transform_1jet(jet_of(field, x, 1), chart)
        expected = jet_of(
            transformed_field_oracle(field, chart), chart.apply_point(x), 1
        )
        assert pushed == expected


def test_transform_is_functorial():
    rng = random.Random(69)
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        jet = rand_jet(rng, n, m, 1)
        inner = rand_chart(rng, n, m)
        outer = rand_chart(rng, n, m)
        stepwise = transform_1jet(transform_1jet(jet, inner), outer)
        composed = transform_1jet(jet, compose_charts(outer, inner))
        assert stepwise == composed


def test_compose_charts_matches_sequential_point_maps():
    rng = random.Random(70)
    for _ in range(15):
        n = rng.randint(1, 3)
        inner = rand_chart(rng, n, 1)
        outer = rand_chart(rng, n, 1)
        composed = compose_charts(outer, inner)
        x = rand_point(rng, n)
        assert composed.apply_point(x) == outer.apply_point(inner.apply_point(x))
        pulled = composed.frame[0][0]
        assert pulled(x) == outer.frame[0][0](inner.apply_point(x)) * inner.frame[0][0](x)
