from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jetstress.multiindex import (
    PERMUTATION_CAP,
    MultiIndex,
    cardinality,
    class_multiplicities,
    dense_classes,
    enumerate_nondecreasing,
    epsilon_abs,
    multiplicity,
    sym_dim,
)
from jetstress.symtensor import (
    DenseTensor,
    SymTensor,
    compress,
    convert_convention,
    cosymmetrize_extend,
    cosymmetrize_project,
    include,
    inclusion_matrix,
    ordered_indices,
    pair,
    symmetrization_matrix,
    symmetrize_dense,
)

from conftest import (
    oracle_dense_pairing,
    oracle_include,
    oracle_symmetrize,
    rand_dense,
    rand_sym,
)


def test_dense_storage_is_row_major_axis_one_slowest():
    t = DenseTensor(2, 2, "contra", (Fraction(0), Fraction(1), Fraction(2), Fraction(3)))
    assert t.component((1, 1)) == 0
    assert t.component((1, 2)) == 1
    assert t.component((2, 1)) == 2
    assert t.component((2, 2)) == 3
    same = DenseTensor.from_map(2, 2, "contra", {(1, 2): 1, (2, 1): 2, (2, 2): 3})
    assert same == t
    with pytest.raises(ValueError):
        t.component((1, 2, 1))


def test_dense_validates_shape_and_variance():
    with pytest.raises(ValueError):
        DenseTensor(2, 2, "contra", (Fraction(1),) * 3)
    with pytest.raises(ValueError):
        DenseTensor(2, 1, "up", (Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        DenseTensor.from_map(2, 2, "co", {(1,): 1})


def test_dense_from_map_reads_axes_as_ints():
    plain = DenseTensor.from_map(2, 2, "contra", {(1, 2): 5})
    assert DenseTensor.from_map(2, 2, "contra", {(1.0, 2.0): 5}) == plain
    assert DenseTensor.from_map(2, 2, "contra", {("1", "2"): 5}) == plain
    with pytest.raises(ValueError, match=r"^axis 3 out of range 1\.\.2$"):
        DenseTensor.from_map(2, 2, "contra", {(1.0, 3.0): 5})
    with pytest.raises(ValueError, match=r"^axis 3 out of range 1\.\.2$"):
        DenseTensor.from_map(2, 2, "contra", {(3,): 5})


def test_is_symmetric():
    sym = DenseTensor.from_map(2, 2, "contra", {(1, 2): 5, (2, 1): 5, (1, 1): 2})
    asym = DenseTensor.from_map(2, 2, "contra", {(1, 2): 5, (2, 1): 4})
    assert sym.is_symmetric()
    assert not asym.is_symmetric()


def test_symmetrize_dyad():
    dyad = DenseTensor.from_map(2, 2, "contra", {(1, 2): 1})
    s = symmetrize_dense(dyad)
    assert s.component((1, 2)) == Fraction(1, 2)
    assert s.component((2, 1)) == Fraction(1, 2)
    assert s.component((1, 1)) == 0
    packed = compress(s)
    assert packed.component((1, 2)) == Fraction(1, 2)
    assert packed.with_convention("arrow").component((1, 2)) == 1


def test_symmetrize_matches_permutation_average():
    rng = random.Random(21)
    for n in range(1, 4):
        for l in range(0, 4):
            for _ in range(5):
                t = rand_dense(rng, n, l)
                assert symmetrize_dense(t) == oracle_symmetrize(t)


def test_symmetrize_is_idempotent():
    rng = random.Random(22)
    for _ in range(30):
        n = rng.randint(1, 3)
        l = rng.randint(0, 4)
        s = symmetrize_dense(rand_dense(rng, n, l))
        assert symmetrize_dense(s) == s
        assert s.is_symmetric()


@pytest.mark.parametrize("degree", [PERMUTATION_CAP + 1, PERMUTATION_CAP + 2])
def test_class_walks_match_a_sorting_oracle_above_the_permutation_cap(degree):
    # The oracle groups dense indices by their sorted entries; it enumerates no permutation.
    tensor = rand_dense(random.Random(degree), 2, degree)
    groups: dict[tuple[int, ...], list[Fraction]] = {}
    for index, value in zip(ordered_indices(2, degree), tensor.components):
        groups.setdefault(tuple(sorted(index.entries)), []).append(value)
    means = {axes: sum(values) / len(values) for axes, values in groups.items()}
    symmetric = symmetrize_dense(tensor)
    assert symmetric.components == tuple(
        means[tuple(sorted(index.entries))] for index in ordered_indices(2, degree)
    )
    assert symmetric.is_symmetric() and not tensor.is_symmetric()
    assert compress(symmetric) == SymTensor.from_map(2, degree, "contra", "plain", means)
    with pytest.raises(ValueError, match="not symmetric"):
        compress(tensor)


def test_compress_rejects_asymmetric_input():
    asym = DenseTensor.from_map(2, 2, "contra", {(1, 2): 1})
    with pytest.raises(ValueError, match="not symmetric"):
        compress(asym)


def test_compress_after_include_is_identity():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 4)
        l = rng.randint(0, 4)
        s = rand_sym(rng, n, l)
        assert compress(include(s)) == s.with_convention("plain")


def test_include_matches_class_indicator_oracle():
    rng = random.Random(24)
    for _ in range(30):
        n = rng.randint(1, 3)
        l = rng.randint(0, 3)
        s = rand_sym(rng, n, l, convention=rng.choice(["plain", "arrow"]))
        assert include(s) == oracle_include(s)


def test_convention_conversion_scales_by_multiplicity():
    rng = random.Random(25)
    for _ in range(20):
        n = rng.randint(1, 4)
        l = rng.randint(0, 4)
        s = rand_sym(rng, n, l, convention="plain")
        arrow = convert_convention(s, "arrow")
        for card in s.slots():
            assert arrow.component(card) == multiplicity(card) * s.component(card)
        assert arrow.with_convention("plain") == s
        assert s.with_convention("plain") is s


def test_class_sum_of_symmetric_dense_is_arrow_component():
    rng = random.Random(26)
    for _ in range(20):
        n = rng.randint(1, 3)
        l = rng.randint(0, 4)
        s = symmetrize_dense(rand_dense(rng, n, l))
        arrow = compress(s).with_convention("arrow")
        for card in enumerate_nondecreasing(n, l):
            canonical = card.canonical()
            class_sum = sum(
                (s.component(i) for i in ordered_indices(n, l) if epsilon_abs(canonical, i)),
                Fraction(0),
            )
            assert class_sum == arrow.component(card)
            assert class_sum == multiplicity(card) * s.component(canonical)


def test_pairing_of_dual_bases_is_kronecker():
    for n in range(1, 4):
        for l in range(0, 5):
            cards = enumerate_nondecreasing(n, l)
            for a in cards:
                phi = SymTensor.from_map(n, l, "co", "arrow", {a: 1})
                for b in cards:
                    t = SymTensor.from_map(n, l, "contra", "plain", {b: 1})
                    assert pair(phi, t) == int(a == b)


def test_pair_is_convention_independent():
    rng = random.Random(27)
    for _ in range(30):
        n = rng.randint(1, 3)
        l = rng.randint(0, 4)
        phi = rand_sym(rng, n, l, "co", "plain")
        t = rand_sym(rng, n, l, "contra", "plain")
        base = pair(phi, t)
        for pc in ("plain", "arrow"):
            for tc in ("plain", "arrow"):
                assert pair(phi.with_convention(pc), t.with_convention(tc)) == base


def test_pair_equals_dense_contraction():
    rng = random.Random(28)
    for _ in range(30):
        n = rng.randint(1, 3)
        l = rng.randint(0, 3)
        phi = rand_sym(rng, n, l, "co")
        t = rand_sym(rng, n, l, "contra")
        assert pair(phi, t) == oracle_dense_pairing(include(phi), include(t))


def test_pair_validates_variance_and_shape():
    phi = SymTensor.zeros(2, 2, "co")
    t = SymTensor.zeros(2, 2, "contra")
    with pytest.raises(ValueError):
        pair(t, phi)
    with pytest.raises(ValueError):
        pair(phi, SymTensor.zeros(2, 3, "contra"))
    with pytest.raises(ValueError):
        pair(phi, SymTensor.zeros(3, 2, "contra"))


def test_project_is_adjoint_to_inclusion():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 3)
        l = rng.randint(0, 3)
        phi = rand_dense(rng, n, l, "co")
        t = rand_sym(rng, n, l, "contra")
        projected = cosymmetrize_project(phi)
        assert projected.convention == "arrow"
        assert pair(projected, t) == oracle_dense_pairing(phi, include(t))


def test_extend_is_adjoint_to_symmetrization():
    rng = random.Random(30)
    for _ in range(40):
        n = rng.randint(1, 3)
        l = rng.randint(0, 3)
        psi = rand_sym(rng, n, l, "co")
        t = rand_dense(rng, n, l, "contra")
        spread = cosymmetrize_extend(psi)
        sym_t = compress(symmetrize_dense(t))
        assert oracle_dense_pairing(spread, t) == pair(psi, sym_t)


def test_project_then_extend_fixes_symmetric_cotensors():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 3)
        l = rng.randint(0, 3)
        psi = rand_sym(rng, n, l, "co")
        assert cosymmetrize_project(cosymmetrize_extend(psi)) == psi.with_convention("arrow")


def test_symmetrization_matrix_left_inverts_inclusion():
    for n in range(1, 4):
        for l in range(0, 4):
            s = symmetrization_matrix(n, l)
            inc = inclusion_matrix(n, l)
            size = sym_dim(n, l)
            product = [
                [
                    sum((s[i][k] * inc[k][j] for k in range(n**l)), Fraction(0))
                    for j in range(size)
                ]
                for i in range(size)
            ]
            expected = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
            assert product == expected


def test_matrices_realize_the_maps():
    rng = random.Random(32)
    for _ in range(15):
        n = rng.randint(1, 3)
        l = rng.randint(0, 3)
        s_mat = symmetrization_matrix(n, l)
        inc_mat = inclusion_matrix(n, l)
        dense = rand_dense(rng, n, l)
        via_matrix = [
            sum((row[j] * dense.components[j] for j in range(n**l)), Fraction(0))
            for row in s_mat
        ]
        assert tuple(via_matrix) == compress(symmetrize_dense(dense)).components
        sym = rand_sym(rng, n, l, convention="plain")
        spread = [
            sum((row[c] * sym.components[c] for c in range(sym_dim(n, l))), Fraction(0))
            for row in inc_mat
        ]
        assert tuple(spread) == include(sym).components


def test_epsilon_substitution_on_symmetric_tensors():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randint(1, 3)
        l = rng.randint(1, 4)
        t = symmetrize_dense(rand_dense(rng, n, l))
        for card in enumerate_nondecreasing(n, l):
            canonical = card.canonical()
            total = sum(
                (
                    epsilon_abs(canonical, j) * t.component(j)
                    for j in ordered_indices(n, l)
                ),
                Fraction(0),
            )
            assert total == multiplicity(card) * t.component(canonical)


def test_degree_zero_round_trip():
    s = SymTensor(3, 0, "contra", "plain", (Fraction(7, 2),))
    assert include(s).components == (Fraction(7, 2),)
    assert compress(include(s)) == s
    phi = SymTensor(3, 0, "co", "arrow", (Fraction(2),))
    assert pair(phi, s) == 7


def test_symmetric_side_never_builds_the_dense_table():
    rng = random.Random(31)
    n, l = 6, 5
    dense_before = dense_classes.cache_info()
    sym_calls = class_multiplicities.cache_info()
    co = rand_sym(rng, n, l, "co", "plain")
    contra = SymTensor.from_map(n, l, "contra", "arrow", {(1, 2, 2, 6, 6): 3})
    assert contra.component((6, 2, 1, 6, 2)) == 3
    assert convert_convention(co, "arrow").with_convention("plain") == co
    assert pair(co, contra) == co.component((1, 2, 2, 6, 6)) * 3
    assert dense_classes.cache_info() == dense_before
    after = class_multiplicities.cache_info()
    assert after.hits + after.misses > sym_calls.hits + sym_calls.misses


def test_from_map_accepts_axis_tuples_and_counts():
    by_axes = SymTensor.from_map(3, 2, "contra", "plain", {(1, 2): 4, MultiIndex((3, 3), 3): 5})
    assert by_axes.component((2, 1)) == 4
    assert by_axes.component(cardinality(MultiIndex((3, 3), 3))) == 5
    with pytest.raises(ValueError):
        SymTensor.from_map(3, 2, "contra", "plain", {(1,): 1})
