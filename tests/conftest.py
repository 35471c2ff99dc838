"""Shared generators and independent brute-force oracles.

The seeded generators that ``jetstress verify`` also draws from live in
``jetstress._checks`` and are re-exported here.  The oracles stay test-only
and deliberately avoid the library's compressed-storage code paths:
symmetrization averages over explicit permutations of slot tuples, pairing
contracts full dense arrays, and inclusion walks the class-indicator matrix
entry by entry.  Tests compare library results against these.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from jetstress._checks import (
    rand_fraction,
    rand_frame,
    rand_jet,
    rand_point,
    rand_sym,
    rand_traction,
)
from jetstress._linalg import inverse, mat_mul, mat_vec
from jetstress.hyperstress import TractionHyperStress, TractionStressField, VariationalStressField
from jetstress.jet import ChartMap, JetCovector, JetElement
from jetstress.multiindex import CardinalityIndex, enumerate_nondecreasing, epsilon_abs, sym_dim
from jetstress.polyfield import PolyField, Polynomial
from jetstress.symtensor import DenseTensor, SymTensor, ordered_indices


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0)


def built_records(monkeypatch, cls: type) -> list:
    """The instances of record class ``cls`` constructed from now on, caught at ``__post_init__``."""
    built: list = []
    original = cls.__post_init__

    def counting(self) -> None:
        built.append(self)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    return built


def rand_dense(rng: random.Random, n: int, l: int, variance: str = "contra") -> DenseTensor:
    comps = tuple(rand_fraction(rng) for _ in range(n**l))
    return DenseTensor(n, l, variance, comps)


def rand_poly(rng: random.Random, n: int, max_degree: int, density: float = 0.7) -> Polynomial:
    terms = {}
    for l in range(max_degree + 1):
        for card in enumerate_nondecreasing(n, l):
            if rng.random() < density:
                terms[card] = rand_fraction(rng)
    return Polynomial.from_map(n, terms)


def rand_field(rng: random.Random, n: int, m: int, max_degree: int) -> PolyField:
    return PolyField(n, m, tuple(rand_poly(rng, n, max_degree) for _ in range(m)))


def rand_covector(rng: random.Random, n: int, m: int, k: int) -> JetCovector:
    blocks = tuple(
        tuple(rand_sym(rng, n, l, "contra", "arrow") for _ in range(m)) for l in range(k + 1)
    )
    return JetCovector(n, m, k, blocks)


def rand_traction_field(
    rng: random.Random, n: int, m: int, k: int, max_degree: int
) -> TractionStressField:
    blocks = tuple(
        tuple(
            tuple(
                tuple(rand_poly(rng, n, max_degree) for _ in range(sym_dim(n, l)))
                for _ in range(n)
            )
            for _ in range(m)
        )
        for l in range(k)
    )
    return TractionStressField(n, m, k, blocks)


def rand_variational_field(
    rng: random.Random, n: int, m: int, k: int, max_degree: int
) -> VariationalStressField:
    blocks = tuple(
        tuple(
            tuple(rand_poly(rng, n, max_degree) for _ in range(sym_dim(n, l)))
            for _ in range(m)
        )
        for l in range(k + 1)
    )
    return VariationalStressField(n, m, k, blocks)


def induced_variational_field(stress: TractionStressField) -> VariationalStressField:
    """The variational stress field S whose power over any box is the flux of ``stress``.

    Flux density coefficient j is ``sum sigma_j[alpha, I] * d^I w_alpha`` over
    the slots of part j.  Its divergence, which the divergence theorem turns
    into the flux, is the same sum with ``d_j sigma_j[alpha, I] * d^I w_alpha``
    plus ``sigma_j[alpha, I] * d^(I + e_j) w_alpha`` in each slot, so
    ``S[alpha, I]`` collects ``d_j sigma_j[alpha, I]`` and
    ``sigma_j[alpha, I - e_j]`` over j, in arrow convention like the parts.
    """
    n = stress.n
    entries: dict = {}
    for j, part in enumerate(stress.axes, 1):
        unit = CardinalityIndex.unit(n, j)
        for l, block in enumerate(part.blocks):
            for alpha, row in enumerate(block, 1):
                for card, poly in zip(enumerate_nondecreasing(n, l), row):
                    for key, value in ((card, poly.derive(unit)), (card + unit, poly)):
                        entries[alpha, key] = entries.get((alpha, key), Polynomial.zero(n)) + value
    return VariationalStressField.from_map(n, stress.m, stress.k, entries)


def rand_invertible_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-2, 2))
        for j in range(i + 1, n):
            upper[i][j] = Fraction(rng.randint(-2, 2))
    return mat_mul(lower, upper)


def rand_chart(rng: random.Random, n: int, m: int, frame_degree: int = 1) -> ChartMap:
    matrix = tuple(tuple(row) for row in rand_invertible_matrix(rng, n))
    offset = tuple(rand_fraction(rng, span=2, den=2) for _ in range(n))
    frame = tuple(
        tuple(rand_poly(rng, n, frame_degree, density=0.8) for _ in range(m)) for _ in range(m)
    )
    return ChartMap(n, m, matrix, offset, frame)


def transformed_field_oracle(field: PolyField, chart: ChartMap) -> PolyField:
    """Push a field through a chart by explicit polynomial composition.

    New component alpha at new coordinates y is
    sum_beta frame[alpha][beta](x(y)) * w^beta(x(y)) with the affine inverse
    x(y) substituted exactly.  Used to cross-check the jet transformation
    rule through a completely different code path.
    """
    inv = inverse(chart.matrix)
    inv_offset = [-v for v in mat_vec(inv, chart.offset)]
    comps = []
    for a in range(chart.m):
        total = Polynomial.zero(chart.n)
        for b in range(chart.m):
            total = total + chart.frame[a][b] * field.component(b + 1)
        comps.append(total.compose_affine(inv, inv_offset))
    return PolyField(chart.n, chart.m, tuple(comps))


def oracle_symmetrize(tensor: DenseTensor) -> DenseTensor:
    """Literal permutation average over slot rearrangements of each index."""
    l = tensor.degree
    perms = list(itertools.permutations(range(l)))
    comps = []
    for entries in itertools.product(range(1, tensor.n + 1), repeat=l):
        acc = Fraction(0)
        for p in perms:
            image = tuple(entries[p[r]] for r in range(l))
            acc += tensor.component(image)
        comps.append(acc / len(perms))
    return DenseTensor(tensor.n, l, tensor.variance, tuple(comps))


def oracle_dense_pairing(co: DenseTensor, contra: DenseTensor) -> Fraction:
    """Full contraction of two dense arrays in matching storage order."""
    assert co.n == contra.n and co.degree == contra.degree
    return sum((a * b for a, b in zip(co.components, contra.components)), Fraction(0))


def oracle_include(tensor: SymTensor) -> DenseTensor:
    """Dense embedding via the class-indicator matrix, entry by entry."""
    plain = tensor.with_convention("plain")
    comps = []
    for index in ordered_indices(tensor.n, tensor.degree):
        value = Fraction(0)
        for card in tensor.slots():
            if epsilon_abs(index, card.canonical()):
                value += plain.component(card)
        comps.append(value)
    return DenseTensor(tensor.n, tensor.degree, tensor.variance, tuple(comps))


def oracle_traction_density(stress: TractionHyperStress, jet: JetElement) -> list[Fraction]:
    """Flux density coefficients via dense spreads and full contractions.

    Spreading both factors to dense arrays and contracting over all ordered
    indices counts every symmetry class with its own multiplicity, which is
    exactly the weighting the compressed pairing applies.
    """
    coeffs = []
    for j in range(1, stress.n + 1):
        total = Fraction(0)
        for l in range(stress.k):
            for a in range(stress.m):
                sigma_dense = oracle_include(stress.blocks[l][a][j - 1])
                jet_dense = oracle_include(jet.blocks[l][a])
                total += oracle_dense_pairing(jet_dense, sigma_dense)
        coeffs.append(total)
    return coeffs
