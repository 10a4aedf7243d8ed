"""Property-based checks for the algebraic core.

Example counts are kept modest; everything here is pure and fast but
runs over quadratic or cubic loops in the semigroup order.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feqlab import (
    Character,
    DiracMeasure,
    MorphismKind,
    RootValue,
    character_to_scalar,
    cyclic_group,
    enumerate_all_semigroups,
    enumerate_characters,
    enumerate_involutive_morphisms,
    integrate,
    measure_norm,
    perturb,
    pushforward,
    residual_vanvleck,
    superstability_bound,
    validate_semigroup,
)
from feqlab.errors import NotAssociative

CENSUS3 = list(enumerate_all_semigroups(3))

complex_values = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)


def measures_on(n: int):
    atom = st.tuples(st.integers(min_value=0, max_value=n - 1),
                     complex_values)
    return st.lists(atom, min_size=1, max_size=4).map(DiracMeasure.from_pairs)


def functions_on(n: int):
    return st.lists(complex_values, min_size=n, max_size=n)


def first_bad_triple(table):
    """Reference row-major scan: the lexicographically first (x, y, z)
    with (xy)z != x(yz), or None for an associative table."""
    n = len(table)
    return next(((x, y, z) for x in range(n) for y in range(n) for z in range(n)
                 if table[table[x][y]][z] != table[x][table[y][z]]), None)


@st.composite
def cayley_tables(draw):
    """A random table of order <= 6, or a cyclic group up to C32 with 0-3
    cells overwritten (0 keeps it a group, so associative tables come up)."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=6))
        cell = st.integers(min_value=0, max_value=n - 1)
        return draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    n = draw(st.integers(min_value=1, max_value=32))
    cell = st.integers(min_value=0, max_value=n - 1)
    table = [[(x + y) % n for y in range(n)] for x in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        table[draw(cell)][draw(cell)] = draw(cell)
    return table


class TestAssociativity:
    @given(table=cayley_tables())
    @settings(max_examples=200, deadline=None)
    def test_first_bad_triple_is_row_major_first(self, table):
        expected = first_bad_triple(table)
        if expected is None:
            assert validate_semigroup(table).table == tuple(map(tuple, table))
        else:
            with pytest.raises(NotAssociative) as err:
                validate_semigroup(table)
            assert err.value.triple == expected


class TestIntegrationLaws:
    @given(f=functions_on(4), g=functions_on(4), mu=measures_on(4),
           a=complex_values, b=complex_values)
    @settings(max_examples=60, deadline=None)
    def test_integrate_is_linear(self, f, g, mu, a, b):
        fa, ga = np.array(f), np.array(g)
        lhs = integrate(a * fa + b * ga, mu)
        rhs = a * integrate(fa, mu) + b * integrate(ga, mu)
        scale = 1.0 + abs(a) + abs(b) + measure_norm(mu)
        assert abs(lhs - rhs) <= 1e-9 * scale * scale

    @given(mu=measures_on(4), perm=st.permutations(range(4)))
    @settings(max_examples=60, deadline=None)
    def test_pushforward_preserves_norm(self, mu, perm):
        assert measure_norm(pushforward(mu, tuple(perm))) == pytest.approx(
            measure_norm(mu), abs=1e-12)

    @given(f=functions_on(4), mu=measures_on(4), perm=st.permutations(range(4)))
    @settings(max_examples=60, deadline=None)
    def test_pushforward_change_of_variables(self, f, mu, perm):
        fa = np.array(f)
        lhs = integrate(fa, pushforward(mu, tuple(perm)))
        rhs = integrate(fa[np.array(perm)], mu)
        assert abs(lhs - rhs) <= 1e-9 * (1 + measure_norm(mu)) * (1 + np.max(np.abs(fa)))


class TestMorphismLaws:
    @pytest.mark.parametrize("sg", CENSUS3, ids=lambda s: s.name)
    def test_enumerated_morphisms_satisfy_their_law(self, sg):
        for kind in MorphismKind:
            for sigma in enumerate_involutive_morphisms(sg, kind):
                m = sigma.map
                for x in sg.elements():
                    assert m[m[x]] == x
                    for y in sg.elements():
                        if kind is MorphismKind.AUTOMORPHISM:
                            assert m[sg.mul(x, y)] == sg.mul(m[x], m[y])
                        else:
                            assert m[sg.mul(x, y)] == sg.mul(m[y], m[x])


class TestCharacterLaws:
    @pytest.mark.parametrize("sg", CENSUS3, ids=lambda s: s.name)
    def test_characters_are_multiplicative_roots(self, sg, turns_multiplicative):
        for chi in enumerate_characters(sg):
            assert all(-1 <= k < chi.period for k in chi.turns)
            assert turns_multiplicative(sg, chi)
            vec = character_to_scalar(chi)
            mags = np.abs(vec)
            assert np.all((mags < 1e-12) | (np.abs(mags - 1.0) < 1e-12))
            assert np.max(mags) > 0.5  # all-zero is excluded

    @pytest.mark.parametrize("sg", [cyclic_group(4), cyclic_group(6)],
                             ids=lambda s: s.name)
    def test_compose_sigma_permutes_characters(self, sg):
        chars = set(enumerate_characters(sg))
        for kind in MorphismKind:
            for sigma in enumerate_involutive_morphisms(sg, kind):
                for chi in chars:
                    # chi o sigma: chi's turns permuted by the map
                    moved = Character(chi.period, tuple(chi.turns[y] for y in sigma.map))
                    assert moved in chars
                    assert Character(moved.period, tuple(moved.turns[y] for y in sigma.map)) == chi


class TestRootValueLaws:
    turns = st.one_of(st.none(), st.fractions(min_value=-3, max_value=3, max_denominator=64))

    @given(a=turns, b=turns)
    @settings(max_examples=120, deadline=None)
    def test_multiplication_matches_complex(self, a, b):
        ra = RootValue(turns=a)
        rb = RootValue(turns=b)
        prod = (ra * rb).to_complex()
        assert prod == pytest.approx(ra.to_complex() * rb.to_complex(), abs=1e-12)

    def test_unit_magnitude(self):
        for q in range(12):
            assert abs(abs(RootValue(turns=Fraction(q, 12)).to_complex()) - 1) < 1e-12


class TestResidualInvariance:
    @given(perm=st.permutations(range(4)), f=functions_on(4))
    @settings(max_examples=40, deadline=None)
    def test_vanvleck_residual_is_relabeling_invariant(self, perm, f):
        sg = cyclic_group(4)
        p = list(perm)
        inv = [0] * 4
        for i, v in enumerate(p):
            inv[v] = i
        table = tuple(tuple(p[sg.mul(inv[x], inv[y])] for y in range(4)) for x in range(4))
        from feqlab import FiniteSemigroup, InvolutiveMorphism, validate_semigroup

        relabeled = validate_semigroup(table, name="relabeled")
        sigma = InvolutiveMorphism(map=(0, 3, 2, 1), kind=MorphismKind.AUTOMORPHISM)
        sigma_p = InvolutiveMorphism(
            map=tuple(p[sigma.map[inv[x]]] for x in range(4)),
            kind=MorphismKind.AUTOMORPHISM,
        )
        mu = DiracMeasure.point_mass(1)
        mu_p = pushforward(mu, tuple(p))
        fa = np.array(f)
        f_p = fa[np.array(inv)]
        a = residual_vanvleck(sg, fa, sigma, mu, force=True)
        b = residual_vanvleck(relabeled, f_p, sigma_p, mu_p, force=True)
        assert a.max_abs == pytest.approx(b.max_abs, rel=1e-12, abs=1e-12)


class TestStabilityLaws:
    @given(delta=st.floats(0, 10), m=st.floats(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_bound_satisfies_quadratic(self, delta, m):
        b = superstability_bound(delta, m)
        assert b >= m
        assert abs(2 * b * b - 2 * m * b - delta) <= 1e-9 * (1 + b * b)

    @given(seed=st.integers(0, 2**32 - 1), radius=st.floats(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_perturb_stays_in_disk(self, seed, radius):
        base = np.array([0, 1, 0, -1], dtype=complex)
        out = perturb(base, radius, seed=seed)
        assert np.max(np.abs(out - base)) <= radius + 1e-12
