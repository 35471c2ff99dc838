"""Every jet-shaped object addresses, fills and checks its slots the same way.

Jets, jet covectors, hyper-stresses and stress fields all store slot
(alpha, J) in ``blocks[|J|][alpha-1]`` at the colex rank of J; traction
stresses are n such objects, one per contraction axis.
"""
from __future__ import annotations

import random

import pytest

from jetstress import fileio
from jetstress import jet as jet_module
from jetstress.hyperstress import (
    TractionHyperStress,
    TractionStressField,
    VariationalHyperStress,
    VariationalStressField,
)
from jetstress.jet import JetCovector, JetElement, _slot_items, _slot_rows, jet_of, realize
from jetstress.multiindex import MultiIndex, cardinality, enumerate_nondecreasing, rank
from jetstress.polyfield import PolyField, Point, Polynomial

from conftest import (
    rand_covector,
    rand_jet,
    rand_point,
    rand_traction,
    rand_traction_field,
    rand_variational_field,
)


def slots(n, m, k):
    """Every (alpha, l, card) of a jet-shaped object."""
    for l in range(k + 1):
        for card in enumerate_nondecreasing(n, l):
            for alpha in range(1, m + 1):
                yield alpha, l, card


def test_component_reads_the_slot_of_its_block():
    rng = random.Random(701)
    for _ in range(12):
        n, m, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3)
        jet = rand_jet(rng, n, m, k)
        covector = rand_covector(rng, n, m, k)
        stress = VariationalHyperStress(rand_covector(rng, n, m, k))
        objects = ((jet, jet.blocks), (covector, covector.blocks), (stress, stress.covector.blocks))
        for alpha, l, card in slots(n, m, k):
            # A cardinality index, a multi-index and a raw axis tuple name the same slot.
            for index in (card, card.canonical(), card.canonical().entries):
                for obj, blocks in objects:
                    assert obj.component(alpha, index) == blocks[l][alpha - 1].component(card)


def test_stress_field_components_read_the_slot_of_their_block():
    rng = random.Random(702)
    for _ in range(6):
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        x = rand_point(rng, n)
        field = rand_variational_field(rng, n, m, rng.randint(0, 2), 2)
        at = field.at(x)
        for alpha, l, card in slots(n, m, field.k):
            assert at.component(alpha, card) == field.blocks[l][alpha - 1][rank(card)](x)
        traction = rand_traction_field(rng, n, m, rng.randint(1, 3), 2)
        stress = traction.at(x)
        for alpha, l, card in slots(n, m, traction.k - 1):
            for j in range(1, n + 1):
                expected = stress.blocks[l][alpha - 1][j - 1].component(card)
                assert stress.component(alpha, card, j) == expected
                assert expected == traction.blocks[l][alpha - 1][j - 1][rank(card)](x)


# Every entry point that places or reads jet slots, at n = 2, m = 1 and
# slot order 1 (traction stresses of order 2 carry order-1 parts), given an
# out-of-range component and an index of order 2.
SLOT_ENTRY_POINTS = {
    "JetCovector.from_map": lambda alpha, index: JetCovector.from_map(2, 1, 1, {(alpha, index): 1}),
    "JetCovector.component": lambda alpha, index: JetCovector.zero(2, 1, 1).component(alpha, index),
    "JetElement.component": lambda alpha, index: JetElement.zero(2, 1, 1).component(alpha, index),
    "VariationalHyperStress.from_map": lambda alpha, index: VariationalHyperStress.from_map(
        2, 1, 1, {(alpha, index): 1}
    ),
    "VariationalStressField.from_map": lambda alpha, index: VariationalStressField.from_map(
        2, 1, 1, {(alpha, index): Polynomial.zero(2)}
    ),
    "TractionHyperStress.from_map": lambda alpha, index: TractionHyperStress.from_map(
        2, 1, 2, {(alpha, index, 1): 1}
    ),
    "TractionHyperStress.component": lambda alpha, index: TractionHyperStress.zero(
        2, 1, 2
    ).component(alpha, index, 2),
    "TractionStressField.from_map": lambda alpha, index: TractionStressField.from_map(
        2, 1, 2, {(alpha, index, 2): Polynomial.zero(2)}
    ),
}


@pytest.mark.parametrize("entry", sorted(SLOT_ENTRY_POINTS))
def test_slot_entry_points_share_their_range_messages(entry):
    call = SLOT_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=r"^component 2 out of range 1\.\.1$"):
        call(2, (1,))
    with pytest.raises(ValueError, match=r"^component 0 out of range 1\.\.1$"):
        call(0, ())
    with pytest.raises(ValueError, match=r"^order 2 exceeds jet order 1$"):
        call(1, (1, 2))


def test_jet_file_reports_the_slot_component_message():
    # A jet file names its block order, so an index above the jet order is a
    # block-order error there, never an order error from the slot table.
    obj = {"n": 2, "m": 1, "k": 1, "x": ["0", "0"], "blocks": {"1": {"2|0,1": "1"}}}
    with pytest.raises(ValueError, match=r"^component 2 out of range 1\.\.1$"):
        fileio.jet_from_obj(obj)


def as_lists(blocks):
    """The same nesting with every tuple level turned into a list."""
    return [as_lists(part) for part in blocks] if isinstance(blocks, tuple) else blocks


def all_tuples(blocks, depth):
    return depth == 0 or (
        isinstance(blocks, tuple) and all(all_tuples(part, depth - 1) for part in blocks)
    )


def test_traction_blocks_from_lists_and_tuples_agree():
    rng = random.Random(703)
    for _ in range(6):
        n, m, k = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 3)
        stress = rand_traction(rng, n, m, k)
        again = TractionHyperStress(n, m, k, as_lists(stress.blocks))
        assert again == stress and repr(again) == repr(stress)
        assert all_tuples(again.blocks, 3)
        field = rand_traction_field(rng, n, m, k, 1)
        again = TractionStressField(n, m, k, as_lists(field.blocks))
        assert again == field and repr(again) == repr(field)
        assert all_tuples(again.blocks, 4)


def scalar_rows(blocks):
    """Rows ``[l][alpha-1]`` of the stored components of symmetric tensor blocks."""
    return [[list(t.components) for t in block] for block in blocks]


def zero_some_orders(rng, rows, zero):
    """The rows with about half of the orders, and some single values, set to ``zero``."""
    drop = {l for l in range(len(rows)) if rng.random() < 0.5}
    return [
        [[zero if l in drop or rng.random() < 0.2 else v for v in row] for row in block]
        for l, block in enumerate(rows)
    ]


def check_slot_items_invert_slot_rows(n, m, rows, zero):
    items = list(_slot_items(n, rows, zero))
    assert all(value != zero for *_, value in items)
    assert all(list(axes) == sorted(axes) and len(axes) == l for l, _, axes, _ in items)
    places = [(l, alpha, rank(cardinality(MultiIndex(axes, n)))) for l, alpha, axes, _ in items]
    assert places == sorted(places) and len(set(places)) == len(places)
    entries = {(alpha, MultiIndex(axes, n)): value for _, alpha, axes, value in items}
    assert _slot_rows(n, m, len(rows) - 1, entries, zero) == rows


def test_slot_items_invert_slot_rows():
    rng = random.Random(704)
    for _ in range(25):
        n, m, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3)
        for rows in (
            scalar_rows(rand_jet(rng, n, m, k).blocks),
            scalar_rows(rand_covector(rng, n, m, k).blocks),
            scalar_rows(JetElement.zero(n, m, k).blocks),
        ):
            check_slot_items_invert_slot_rows(n, m, zero_some_orders(rng, rows, 0), 0)
            check_slot_items_invert_slot_rows(n, m, rows, 0)
        zero = Polynomial.zero(n)
        traction = rand_traction_field(rng, n, m, k + 1, 1)
        empty = VariationalStressField.from_map(n, m, k, {})
        for field in (rand_variational_field(rng, n, m, k, 2), empty, *traction.axes):
            rows = as_lists(field.blocks)
            check_slot_items_invert_slot_rows(n, m, zero_some_orders(rng, rows, zero), zero)
            check_slot_items_invert_slot_rows(n, m, rows, zero)
    assert list(_slot_items(2, scalar_rows(JetElement.zero(2, 2, 3).blocks), 0)) == []


def test_readers_list_the_classes_of_nonzero_orders_only(monkeypatch):
    # x1**3 at x1 = 1 is 1 + 3y + 3y**2 + y**3, so only orders 0-3 of the 200-jet hold values.
    cube = PolyField(1, 1, (Polynomial.variable(1, 1).power(3),))
    jet = jet_of(cube, Point((1,)), 200)
    calls: list = []
    original = jet_module._class_axes
    monkeypatch.setattr(jet_module, "_class_axes", lambda n, l: calls.append(l) or original(n, l))
    obj = fileio.jet_to_obj(jet)
    assert sorted(calls) == [0, 1, 2, 3]
    assert len(obj["blocks"]) == 201 and obj["blocks"]["200"] == {}
    assert obj["blocks"]["3"] == {"1|3": "6"}
    calls.clear()
    assert realize(jet) == cube
    assert sorted(calls) == [0, 1, 2, 3]
