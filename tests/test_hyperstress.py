from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jetstress import fileio
from jetstress.altforms import CoDimOneForm, Vector, contract, restrict, TopForm
from jetstress.hyperstress import (
    BoxRegion,
    HyperTraction,
    TractionHyperStress,
    TractionStressField,
    VariationalHyperStress,
    VariationalStressField,
    boundary_power_flux,
    box_face_frame,
    cauchy_traction,
    power_density,
    total_power,
    traction_density,
)
from jetstress.jet import JetCovector, jet_of
from jetstress.multiindex import CardinalityIndex, enumerate_nondecreasing
from jetstress.polyfield import Point, PolyField, Polynomial, box_integral, midpoint_integral
from jetstress.symtensor import DenseTensor, cosymmetrize_project, include, ordered_indices

from conftest import (
    induced_variational_field,
    oracle_traction_density,
    rand_field,
    rand_fraction,
    rand_frame,
    rand_jet,
    rand_point,
    rand_traction,
    rand_traction_field,
    rand_variational_field,
)


def const_field(n, values):
    return PolyField(n, len(values), tuple(Polynomial.constant(n, v) for v in values))


def test_power_density_single_slot():
    stress = VariationalHyperStress.from_map(2, 1, 2, {(1, (1, 2)): 1})
    field = PolyField(2, 1, (Polynomial.variable(2, 1) * Polynomial.variable(2, 2),))
    jet = jet_of(field, Point.origin(2), 2)
    assert power_density(stress, jet) == 1


def test_traction_density_order_one():
    stress = TractionHyperStress.from_map(2, 1, 1, {(1, (), 1): 5})
    jet = jet_of(const_field(2, (2,)), Point.origin(2), 0)
    form = traction_density(stress, jet)
    assert form.coeffs == (Fraction(10), Fraction(0))


def test_traction_density_validates_jet_order():
    stress = TractionHyperStress.zero(2, 1, 2)
    jet = jet_of(const_field(2, (1,)), Point.origin(2), 0)
    with pytest.raises(ValueError):
        traction_density(stress, jet)


def test_traction_density_matches_dense_oracle():
    rng = random.Random(71)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        k = rng.randint(1, 3)
        stress = rand_traction(rng, n, m, k)
        jet = rand_jet(rng, n, m, k - 1)
        form = traction_density(stress, jet)
        assert list(form.coeffs) == oracle_traction_density(stress, jet)


def test_traction_component_round_trip():
    stress = TractionHyperStress.from_map(
        3, 2, 2, {(2, (3,), 1): Fraction(7, 2), (1, (), 2): 4}
    )
    assert stress.component(2, (3,), 1) == Fraction(7, 2)
    assert stress.component(1, (), 2) == 4
    assert stress.component(1, (2,), 3) == 0
    with pytest.raises(ValueError):
        stress.component(3, (), 1)
    with pytest.raises(ValueError):
        stress.component(1, (1, 2), 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TractionHyperStress.zero(2, 1, 0),
        lambda: TractionStressField.from_map(2, 1, 0, {}),
        lambda: fileio.stress_from_obj({"n": 2, "m": 1, "k": 0, "kind": "traction", "blocks": {}}),
    ],
    ids=["zero", "field-from-map", "stress-file"],
)
def test_order_zero_traction_names_its_order(build):
    with pytest.raises(ValueError, match=r"^order must be at least 1, got 0$"):
        build()


def test_from_dense_symmetrizes_only_the_symmetric_leg():
    stress = TractionHyperStress.from_dense(2, 1, 3, {(1, (1, 2), 1): 1})
    assert stress.component(1, (1, 2), 1) == 1
    assert stress.component(1, (1, 2), 2) == 0
    assert stress.component(1, (1, 1), 1) == 0
    lopsided = TractionHyperStress.from_dense(
        2, 1, 3, {(1, (1, 2), 1): 1, (1, (2, 1), 1): 3}
    )
    assert lopsided.component(1, (1, 2), 1) == 4


def test_from_dense_is_idempotent():
    rng = random.Random(72)
    for _ in range(10):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        k = rng.randint(1, 3)
        stress = rand_traction(rng, n, m, k)
        entries = {}
        for l in range(k):
            for a in range(1, m + 1):
                for j in range(1, n + 1):
                    dense = include(stress.blocks[l][a - 1][j - 1])
                    for index in ordered_indices(n, l):
                        entries[(a, index.entries, j)] = dense.component(index)
        assert TractionHyperStress.from_dense(n, m, k, entries) == stress


def test_cauchy_traction_restricts_slotwise():
    stress = TractionHyperStress.from_map(2, 1, 1, {(1, (), 1): 1})
    frame, sign = box_face_frame(2, 1, True)
    traction = cauchy_traction(stress, frame)
    assert sign == 1
    assert traction.covector.component(1, ()) == 1
    rng = random.Random(74)
    for _ in range(20):
        n = rng.randint(2, 4)
        m = rng.randint(1, 2)
        k = rng.randint(1, 3)
        stress = rand_traction(rng, n, m, k)
        frame = rand_frame(rng, n)
        traction = cauchy_traction(stress, frame)
        assert (traction.n, traction.m, traction.k) == (n, m, k)
        covector = traction.covector
        for l in range(k):
            for card in enumerate_nondecreasing(n, l):
                for a in range(1, m + 1):
                    form = CoDimOneForm(n, [stress.component(a, card, j) for j in range(1, n + 1)])
                    assert covector.component(a, card) == restrict(form, frame)


def test_cauchy_commutes_with_jet_action():
    rng = random.Random(73)
    for _ in range(30):
        n = rng.randint(2, 3)
        m = rng.randint(1, 2)
        k = rng.randint(1, 3)
        stress = rand_traction(rng, n, m, k)
        jet = rand_jet(rng, n, m, k - 1)
        frame = rand_frame(rng, n)
        direct = cauchy_traction(stress, frame).apply(jet)
        assert direct == restrict(traction_density(stress, jet), frame)


def test_cauchy_rejects_degenerate_frames():
    stress = TractionHyperStress.zero(3, 1, 1)
    with pytest.raises(ValueError, match="degenerate"):
        cauchy_traction(stress, [Vector.basis(3, 1), Vector.basis(3, 1)])


def test_hyper_traction_validates_order():
    with pytest.raises(ValueError):
        HyperTraction(1, JetCovector.zero(2, 1, 1))


def test_box_face_frame_orientation():
    for n in range(1, 5):
        for axis in range(1, n + 1):
            basis_form = contract(Vector.basis(n, axis), TopForm.volume(n))
            frame, sign = box_face_frame(n, axis, True)
            assert sign * restrict(basis_form, frame) == 1
            frame, sign = box_face_frame(n, axis, False)
            assert sign * restrict(basis_form, frame) == -1


def test_box_region_validation():
    with pytest.raises(ValueError):
        BoxRegion((0, 0), (1,))
    with pytest.raises(ValueError):
        BoxRegion((0, 1), (1, 1))
    with pytest.raises(ValueError):
        BoxRegion((0,), (1,), 0)
    region = BoxRegion((0, 0), (1, 2))
    assert region.with_subdivisions(4).subdivisions == 4


def test_total_power_single_slot():
    stress = VariationalHyperStress.from_map(2, 1, 2, {(1, (1, 2)): 1})
    field = PolyField(2, 1, (Polynomial.variable(2, 1) * Polynomial.variable(2, 2),))
    sfield = VariationalStressField.constant(stress)
    region = BoxRegion((0, 0), (1, 1))
    assert total_power(sfield, field, region) == 1
    assert total_power(sfield, field, region.with_subdivisions(3), method="midpoint") == 1


def test_stress_field_at_matches_symbolic_density():
    rng = random.Random(74)
    for _ in range(15):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        k = rng.randint(0, 2)
        sfield = rand_variational_field(rng, n, m, k, 2)
        field = rand_field(rng, n, m, max(k, 2))
        x = rand_point(rng, n)
        symbolic = sfield.density(field)(x)
        pointwise = power_density(sfield.at(x), jet_of(field, x, k))
        assert symbolic == pointwise


def test_density_equals_running_sum_of_slot_products():
    rng = random.Random(76)
    for n in (2, 3):
        for _ in range(3):
            m = rng.randint(1, 2)
            sfield = rand_variational_field(rng, n, m, 3, 2)
            field = rand_field(rng, n, m, 4)
            total = Polynomial.zero(n)
            for l in range(4):
                for a in range(m):
                    w = field.component(a + 1)
                    for card, poly in zip(enumerate_nondecreasing(n, l), sfield.blocks[l][a]):
                        total = total + poly * w.derive(card)
            assert sfield.density(field) == total


def test_traction_field_at_matches_symbolic_density():
    rng = random.Random(75)
    for _ in range(15):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        k = rng.randint(1, 3)
        sfield = rand_traction_field(rng, n, m, k, 2)
        field = rand_field(rng, n, m, max(k, 2))
        x = rand_point(rng, n)
        symbolic = [poly(x) for poly in sfield.density_coeffs(field)]
        pointwise = traction_density(sfield.at(x), jet_of(field, x, k - 1))
        assert symbolic == list(pointwise.coeffs)


def test_midpoint_power_is_second_order_exact_ratio():
    slot = CardinalityIndex.zero(1)
    sfield = VariationalStressField.from_map(
        1, 1, 0, {(1, slot): Polynomial.variable(1, 1).power(2)}
    )
    field = const_field(1, (1,))
    region = BoxRegion((0,), (1,))
    exact = total_power(sfield, field, region)
    assert exact == Fraction(1, 3)
    errors = [
        exact - total_power(sfield, field, region.with_subdivisions(cells), method="midpoint")
        for cells in (1, 2, 4)
    ]
    assert errors[0] == 4 * errors[1]
    assert errors[1] == 4 * errors[2]


def test_flux_of_constant_stress_cancels():
    sfield = TractionStressField.from_map(
        2, 1, 1, {(1, (), 1): Polynomial.constant(2, 3)}
    )
    field = const_field(2, (1,))
    assert boundary_power_flux(sfield, field, BoxRegion((0, 0), (1, 1))) == 0


def test_flux_counts_upper_face_positively():
    sfield = TractionStressField.from_map(
        2, 1, 1, {(1, (), 1): Polynomial.variable(2, 1)}
    )
    field = const_field(2, (1,))
    assert boundary_power_flux(sfield, field, BoxRegion((0, 0), (1, 1))) == 1


def test_flux_matches_divergence_integral():
    rng = random.Random(76)
    for _ in range(15):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        sfield = rand_traction_field(rng, n, m, 1, 3)
        field = rand_field(rng, n, m, 3)
        region = BoxRegion((0,) * n, tuple(rng.randint(1, 2) for _ in range(n)))
        flux = boundary_power_flux(sfield, field, region)
        coeffs = sfield.density_coeffs(field)
        divergence = Polynomial.zero(n)
        for j in range(1, n + 1):
            divergence = divergence + coeffs[j - 1].derive(CardinalityIndex.unit(n, j))
        assert flux == box_integral(divergence, region.lower, region.upper)


def test_flux_equals_the_power_of_the_induced_variational_field():
    rng = random.Random(79)
    for _ in range(40):
        n, m, k = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 3)
        sfield = rand_traction_field(rng, n, m, k, 2)
        field = rand_field(rng, n, m, k + 1)
        lower = tuple(rand_fraction(rng, span=2, den=2) for _ in range(n))
        upper = tuple(lo + Fraction(rng.randint(1, 3), rng.randint(1, 2)) for lo in lower)
        region = BoxRegion(lower, upper)
        induced = induced_variational_field(sfield)
        assert boundary_power_flux(sfield, field, region) == total_power(induced, field, region)
        # The top block of S is the symmetric restriction of tau[j, I] = sigma_j[I].
        x = rand_point(rng, n)
        top, legs = induced.at(x).covector.blocks[k], sfield.at(x).blocks[k - 1]
        for alpha in range(m):
            dense = [c for t in legs[alpha] for c in include(t).components]
            tau = DenseTensor(n, k, "co", tuple(dense))
            assert cosymmetrize_project(tau).components == top[alpha].components


def test_a_traction_stress_is_not_fixed_by_the_variational_field_it_induces():
    # sigma_2[1, e_1] = 1 and sigma_1[1, e_2] = -1 both feed S[1, e_1 + e_2], and cancel.
    e1, e2 = CardinalityIndex.unit(2, 1), CardinalityIndex.unit(2, 2)
    one = Polynomial.constant(2, 1)
    sfield = TractionStressField.from_map(2, 1, 2, {(1, e1, 2): one, (1, e2, 1): -one})
    assert induced_variational_field(sfield) == VariationalStressField.from_map(2, 1, 2, {})
    rng = random.Random(80)
    region = BoxRegion((0, 0), (1, 2))
    for _ in range(5):
        assert boundary_power_flux(sfield, rand_field(rng, 2, 1, 3), region) == 0
    frame, sign = box_face_frame(2, 1, True)
    assert sign == 1
    traction = cauchy_traction(sfield.at(Point.origin(2)), frame)
    assert traction.covector == JetCovector.from_map(2, 1, 1, {(1, e2): -1})
    slots = [c for block in traction.covector.blocks for t in block for c in t.components]
    assert slots == [0, 0, -1]


def face_by_face_flux(sfield, field, region, method):
    """The flux as 2n face integrals of the frozen density coefficients, through public calls."""
    total = Fraction(0)
    for axis, coeff in enumerate(sfield.density_coeffs(field), start=1):
        for sign, bound in ((1, region.upper), (-1, region.lower)):
            face = coeff.substitute(axis, bound[axis - 1])
            if method == "exact":
                value = box_integral(face, region.lower, region.upper, skip_axes=(axis,))
            else:
                cells = region.subdivisions
                value = midpoint_integral(face, region.lower, region.upper, cells, skip_axes=(axis,))
            total += sign * value
    return total


def test_flux_equals_the_sum_of_its_face_integrals():
    rng = random.Random(81)
    for trial in range(36):
        n, k, m = 1 + trial % 3, 1 + trial // 3 % 3, rng.randint(1, 2)
        sfield = rand_traction_field(rng, n, m, k, 2)
        field = rand_field(rng, n, m, k + 1)
        lower = tuple(rand_fraction(rng, span=2, den=3) for _ in range(n))
        upper = tuple(lo + Fraction(rng.randint(1, 3), rng.randint(1, 3)) for lo in lower)
        for method, cells in (("exact", 1), ("midpoint", 1 + trial % 4)):
            region = BoxRegion(lower, upper, cells)
            flux = boundary_power_flux(sfield, field, region, method=method)
            assert flux == face_by_face_flux(sfield, field, region, method)
            assert type(flux) is Fraction


def test_flux_is_additive_over_box_splits():
    rng = random.Random(77)
    for _ in range(10):
        n = rng.randint(2, 3)
        m = rng.randint(1, 2)
        k = rng.randint(1, 2)
        sfield = rand_traction_field(rng, n, m, k, 2)
        field = rand_field(rng, n, m, 2)
        axis = rng.randint(1, n)
        lower = [Fraction(0)] * n
        upper = [Fraction(2)] * n
        mid = Fraction(rng.randint(1, 3), 2)
        upper_left = list(upper)
        upper_left[axis - 1] = mid
        lower_right = list(lower)
        lower_right[axis - 1] = mid
        whole = boundary_power_flux(sfield, field, BoxRegion(tuple(lower), tuple(upper)))
        left = boundary_power_flux(sfield, field, BoxRegion(tuple(lower), tuple(upper_left)))
        right = boundary_power_flux(sfield, field, BoxRegion(tuple(lower_right), tuple(upper)))
        assert left + right == whole


def test_flux_midpoint_agrees_for_low_degree_faces():
    sfield = TractionStressField.from_map(
        2, 1, 1, {(1, (), 1): Polynomial.variable(2, 2), (1, (), 2): Polynomial.variable(2, 1)}
    )
    field = const_field(2, (1,))
    region = BoxRegion((0, 0), (1, 1))
    exact = boundary_power_flux(sfield, field, region)
    mid = boundary_power_flux(sfield, field, region.with_subdivisions(2), method="midpoint")
    assert exact == mid


def test_flux_validates_order_argument():
    sfield = TractionStressField.from_map(
        2, 1, 2, {(1, (1,), 1): Polynomial.constant(2, 1)}
    )
    field = const_field(2, (1,))
    region = BoxRegion((0, 0), (1, 1))
    assert boundary_power_flux(sfield, field, region, k=2) == 0
    with pytest.raises(ValueError):
        boundary_power_flux(sfield, field, region, k=1)


def test_block_diagonal_pairing():
    stress = VariationalHyperStress.from_map(2, 1, 2, {(1, (1,)): 1})
    field = PolyField(2, 1, (Polynomial.variable(2, 1) * Polynomial.variable(2, 2),))
    jet = jet_of(field, Point.origin(2), 2)
    assert jet.component(1, (1,)) == 0
    assert power_density(stress, jet) == 0
    at_point = jet_of(field, Point((1, 1)), 2)
    assert power_density(stress, at_point) == at_point.component(1, (1,))
