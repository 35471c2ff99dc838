"""Seeded random objects and the self-check suites behind ``jetstress verify``.

The generators draw exact rationals from a ``random.Random`` in a fixed
order, so one seed always gives the same objects; the test suite draws from
the same functions.  Each ``verify_*`` suite checks one of the paper's
identities on such objects, prints one fixed ``OK`` line on success or a
``FAIL`` line on the first counterexample, and returns the exit code.

Library functions are called through their modules, so anything that rebinds
a module's functions (such as a call tracer) sees the calls made here too.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

from . import altforms, hyperstress, multiindex, symtensor
from . import jet as jets
from .altforms import Vector
from .hyperstress import TractionHyperStress
from .jet import JetElement
from .multiindex import MultiIndex
from .polyfield import Point
from .symtensor import DenseTensor, SymTensor


# One Fraction per (numerator, denominator) drawn; the suites draw from a few hundred pairs.
_fraction = lru_cache(maxsize=1024)(Fraction)


def rand_fraction(rng: random.Random, span: int = 9, den: int = 7) -> Fraction:
    # randint(a, b) is randrange(a, b + 1), so this is the same stream with one call less per draw.
    return _fraction(rng.randrange(-span, span + 1), rng.randrange(1, den + 1))


def rand_sym(
    rng: random.Random, n: int, l: int, variance: str = "contra", convention: str = "plain"
) -> SymTensor:
    comps = tuple([rand_fraction(rng) for _ in range(multiindex.sym_dim(n, l))])
    return SymTensor._trusted(n, l, variance, convention, comps)


def rand_point(rng: random.Random, n: int) -> Point:
    return Point(tuple(rand_fraction(rng, span=3, den=3) for _ in range(n)))


def rand_multiindex(rng: random.Random, n: int, l: int) -> MultiIndex:
    return MultiIndex(tuple(rng.randint(1, n) for _ in range(l)), n)


def rand_jet(rng: random.Random, n: int, m: int, k: int) -> JetElement:
    blocks = tuple(
        tuple(rand_sym(rng, n, l, "co", "plain") for _ in range(m)) for l in range(k + 1)
    )
    return JetElement(n, m, k, rand_point(rng, n), blocks)


def rand_traction(rng: random.Random, n: int, m: int, k: int) -> TractionHyperStress:
    blocks = tuple(
        tuple(
            tuple(rand_sym(rng, n, l, "contra", "arrow") for _ in range(n)) for _ in range(m)
        )
        for l in range(k)
    )
    return TractionHyperStress(n, m, k, blocks)


def rand_frame(rng: random.Random, n: int) -> list[Vector]:
    while True:
        frame = [
            Vector(n, tuple(rand_fraction(rng, span=4, den=3) for _ in range(n)))
            for _ in range(n - 1)
        ]
        if altforms.frame_rank(frame) == n - 1:
            return frame


def verify_epsilon(rng: random.Random, n: int, l: int, cases: int) -> int:
    perms = list(multiindex.permutations_of(l))
    apply, delta = multiindex.apply_permutation, multiindex.kron_delta
    for _ in range(cases):
        left = rand_multiindex(rng, n, l)
        right = rand_multiindex(rng, n, l)
        delta_sum = sum(map(delta, repeat(left), map(apply, perms, repeat(right))))
        factorial = multiindex.mi_factorial(multiindex.cardinality(left))
        expected = factorial * multiindex.epsilon_abs(left, right)
        if delta_sum != expected:
            print(f"FAIL epsilon: delta sum {delta_sum} != {expected} for {left}, {right}")
            return 1
        p = perms[rng.randrange(len(perms))]
        moved = multiindex.apply_permutation(p, left)
        if multiindex.epsilon_abs(moved, right) != multiindex.epsilon_abs(left, right):
            print(f"FAIL epsilon: permutation changed indicator for {left}, {right}")
            return 1
    for _ in range(max(cases // 5, 1)):
        draws = tuple([rand_fraction(rng) for _ in range(n**l)])
        dense = symtensor.symmetrize_dense(DenseTensor._trusted(n, l, "contra", draws))
        card = multiindex.cardinality(rand_multiindex(rng, n, l).sorted())
        canonical = card.canonical()
        class_sum = sum(
            dense.component(index)
            for index in symtensor.ordered_indices(n, l)
            if multiindex.epsilon_abs(canonical, index)
        )
        if class_sum != multiindex.multiplicity(card) * dense.component(canonical):
            print(f"FAIL epsilon: class sum broken at {card}")
            return 1
    print(f"epsilon: {cases} cases at n={n}, l={l}: OK")
    return 0


def verify_duality(n: int, l: int) -> int:
    for degree in range(l + 1):
        cards = multiindex.enumerate_nondecreasing(n, degree)
        contras = [SymTensor.from_map(n, degree, "contra", "plain", {card: 1}) for card in cards]
        for left in cards:
            co = SymTensor.from_map(n, degree, "co", "arrow", {left: 1})
            for right, contra in zip(cards, contras):
                expected = int(left == right)
                got = symtensor.pair(co, contra)
                if got != expected:
                    print(f"FAIL duality: pair at {left}, {right} gave {got}")
                    return 1
    print(f"duality: all basis pairs up to degree {l} at n={n}: OK")
    return 0


def verify_cauchy(rng: random.Random, n: int, m: int, k: int, cases: int) -> int:
    for _ in range(cases):
        stress = rand_traction(rng, n, m, k)
        jet = rand_jet(rng, n, m, k - 1)
        frame = rand_frame(rng, n)
        traction = hyperstress.cauchy_traction(stress, frame)
        via_slots = traction.apply(jet)
        via_density = altforms.restrict(hyperstress.traction_density(stress, jet), frame)
        if via_slots != via_density:
            print(f"FAIL cauchy: {via_slots} != {via_density}")
            return 1
    print(f"cauchy: {cases} cases at n={n}, m={m}, k={k}: OK")
    return 0


def verify_jets(rng: random.Random, n: int, m: int, k: int, cases: int) -> int:
    for _ in range(cases):
        jet = rand_jet(rng, n, m, k)
        field = jets.realize(jet)
        again = jets.jet_of(field, jet.x, k)
        if again != jet:
            print("FAIL jets: realize round trip changed the jet")
            return 1
        if k > 0:
            direct = jets.jet_of(field, jet.x, k - 1)
            if direct != jets.truncate(again, k - 1):
                print("FAIL jets: truncation disagrees with lower-order jet")
                return 1
    print(f"jets: {cases} cases at n={n}, m={m}, k={k}: OK")
    return 0
