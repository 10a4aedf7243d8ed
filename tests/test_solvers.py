from __future__ import annotations

import warnings

import numpy as np
import pytest

from feqlab import (
    DiracMeasure,
    InvolutiveMorphism,
    MorphismKind,
    character_to_scalar,
    cyclic_group,
    enumerate_characters,
    integrate,
    left_zero,
    match_solution_sets,
    newton_oracle,
    null_semigroup,
    residual_central_dalembert,
    residual_dalembert,
    residual_integral_dalembert,
    residual_spherical,
    residual_vanvleck,
    solve_central_dalembert,
    solve_dalembert,
    solve_spherical,
    solve_vanvleck,
    solve_vanvleck_point,
    symmetric_group_3,
    symmetrize_spherical,
)
from feqlab.errors import (
    DegenerateMeasureWarning,
    NonCentralSupport,
    NonFiniteResidual,
    NotAMonoid,
    NotCentral,
    NotSigmaInvariant,
    NotSpherical,
    UsageError,
    WrongMorphismKind,
)


def conjugation_by(sg, a):
    """x -> a x a^(-1) as an involutive automorphism when a = a^(-1)."""
    inv = next(y for y in sg.elements() if sg.mul(a, y) == sg.identity)
    m = tuple(sg.mul(sg.mul(a, x), inv) for x in sg.elements())
    return InvolutiveMorphism(map=m, kind=MorphismKind.AUTOMORPHISM)


class TestSolveVanVleck:
    def test_c4_fixture_unique_sine(self, c4, sigma_neg, mu_delta1, sine):
        sols = solve_vanvleck(c4, sigma_neg, mu_delta1)
        assert sols.equation == "vanvleck"
        assert len(sols.solutions) == 1
        assert np.allclose(sols.solutions[0].values, sine, atol=1e-15)
        chi = sols.solutions[0].provenance.chi
        assert np.array_equal(character_to_scalar(chi), np.array([1, 1j, -1, -1j]))

    def test_identity_sigma_empty(self, c4, sigma_id4, mu_delta1):
        assert solve_vanvleck(c4, sigma_id4, mu_delta1).solutions == ()

    def test_null_semigroup_empty(self, null2):
        ident = InvolutiveMorphism(map=(0, 1), kind=MorphismKind.AUTOMORPHISM)
        assert solve_vanvleck(null2, ident, DiracMeasure.point_mass(0)).solutions == ()

    def test_zero_measure_warns_and_empty(self, c4, sigma_neg):
        mu = DiracMeasure.from_pairs([(1, 1.0), (1, -1.0)])
        with pytest.warns(DegenerateMeasureWarning):
            sols = solve_vanvleck(c4, sigma_neg, mu)
        assert sols.solutions == ()

    def test_noncentral_rejected(self, s3):
        sigma = InvolutiveMorphism(map=(0, 1, 2, 3, 4, 5), kind=MorphismKind.AUTOMORPHISM)
        with pytest.raises(NonCentralSupport):
            solve_vanvleck(s3, sigma, DiracMeasure.point_mass(1))

    def test_overflow_fails_self_verification(self, c4, sigma_neg):
        # the self-check grid overflows; a NaN residual must not pass as verified
        with pytest.raises(NonFiniteResidual):
            solve_vanvleck(c4, sigma_neg, DiracMeasure.point_mass(1, 1e308))

    def test_solutions_verify_and_dedup(self, c4, sigma_neg):
        # a scaled measure: solutions rescale but stay closed under the engine
        mu = DiracMeasure.from_pairs([(1, 2.0)])
        sols = solve_vanvleck(c4, sigma_neg, mu)
        assert len(sols.solutions) == 1
        f = sols.solutions[0].values
        assert residual_vanvleck(c4, f, sigma_neg, mu).max_abs <= 1e-12
        # chi and chi o sigma generate the same f; dedup keeps one
        assert np.allclose(f, np.array([0, 2, 0, -2]), atol=1e-12)

    def test_odd_symmetry_of_all_solutions(self, c4, sigma_neg, mu_delta1):
        for sol in solve_vanvleck(c4, sigma_neg, mu_delta1).solutions:
            f = sol.values
            assert np.allclose(f[np.array(sigma_neg.map)], -f, atol=1e-12)

    def test_formula_invariant_under_sigma_composition(self, c4, sigma_neg, mu_delta1):
        # building the solution from chi o sigma gives the identical vector
        from feqlab import compose_sigma

        for chi in enumerate_characters(c4):
            cvec = character_to_scalar(chi)
            mean = integrate(cvec, mu_delta1)
            svec = character_to_scalar(compose_sigma(chi, sigma_neg))
            if abs(mean) <= 1e-9 or abs(integrate(svec, mu_delta1) + mean) > 1e-9:
                continue
            f_chi = (svec - cvec) / 2.0 * mean
            mean_s = integrate(svec, mu_delta1)
            f_schi = (cvec - svec) / 2.0 * mean_s
            assert np.allclose(f_chi, f_schi, atol=1e-12)


class TestSolveVanVleckPoint:
    def test_matches_general_solver(self, c4, sigma_neg, mu_delta1):
        point = solve_vanvleck_point(c4, sigma_neg, 1)
        general = solve_vanvleck(c4, sigma_neg, mu_delta1)
        assert len(point.solutions) == len(general.solutions) == 1
        assert np.array_equal(point.solutions[0].values, general.solutions[0].values)

    def test_fixed_point_z0_empty(self, c4, sigma_neg):
        # sigma(2) = 2 forces chi(2) = -chi(2) but chi(2) = chi(1)^2 != 0
        assert solve_vanvleck_point(c4, sigma_neg, 2).solutions == ()

    def test_identity_sigma_empty(self, c4, sigma_id4):
        assert solve_vanvleck_point(c4, sigma_id4, 1).solutions == ()

    def test_requires_monoid(self):
        sg = left_zero(2)
        sigma = InvolutiveMorphism(map=(0, 1), kind=MorphismKind.AUTOMORPHISM)
        with pytest.raises(NotAMonoid):
            solve_vanvleck_point(sg, sigma, 0)

    def test_requires_central_point(self, s3):
        sigma = InvolutiveMorphism(map=(0, 1, 2, 3, 4, 5), kind=MorphismKind.AUTOMORPHISM)
        with pytest.raises(NotCentral):
            solve_vanvleck_point(s3, sigma, 1)


class TestSolveDalembert:
    def test_c4_negation_three_solutions(self, c4, sigma_neg):
        sols = solve_dalembert(c4, sigma_neg)
        got = sorted(tuple(np.round(s.values, 12)) for s in sols.solutions)
        expected = sorted(
            tuple(np.round(np.array(v, dtype=complex), 12))
            for v in ([1, 1, 1, 1], [1, 0, -1, 0], [1, -1, 1, -1])
        )
        assert got == expected
        for s in sols.solutions:
            assert residual_dalembert(c4, s.values, sigma_neg).max_abs <= 1e-12

    def test_always_contains_constant_one(self, s3, c4):
        from feqlab import s3_inversion

        for sg, sigma in ((s3, s3_inversion()), (c4, InvolutiveMorphism(map=(0, 1, 2, 3), kind=MorphismKind.AUTOMORPHISM))):
            sols = solve_dalembert(sg, sigma)
            assert any(np.allclose(s.values, np.ones(sg.n), atol=1e-12) for s in sols.solutions)

    def test_s3_conjugation(self, s3):
        sigma = conjugation_by(s3, 1)
        assert sigma.map[sigma.map[3]] == 3  # involutive on the 3-cycles
        sols = solve_dalembert(s3, sigma)
        # conjugation preserves parity, so both characters are sigma-even
        sign = np.array([1, -1, -1, 1, 1, -1], dtype=complex)
        got = sorted(tuple(np.round(s.values, 12)) for s in sols.solutions)
        expected = sorted(tuple(np.round(v, 12)) for v in (np.ones(6, dtype=complex), sign))
        assert got == expected


class TestSolveSpherical:
    def test_c4_halfpair_two_solutions(self, c4, upsilon):
        sols = solve_spherical(c4, upsilon)
        got = sorted(tuple(np.round(s.values, 12)) for s in sols.solutions)
        expected = sorted(
            tuple(np.round(np.array(v, dtype=complex), 12))
            for v in ([1, 1, 1, 1], [-1, 1, -1, 1])
        )
        assert got == expected
        for s in sols.solutions:
            assert residual_spherical(c4, s.values, upsilon).max_abs <= 1e-12

    def test_identity_mass_gives_all_characters(self, c4):
        sols = solve_spherical(c4, DiracMeasure.point_mass(0))
        assert len(sols.solutions) == 4

    def test_zero_measure(self, c4):
        with pytest.warns(DegenerateMeasureWarning):
            sols = solve_spherical(c4, DiracMeasure.from_pairs([(0, 0.0)]))
        assert sols.solutions == ()

    def test_provenance_scaling(self, c4, upsilon):
        for sol in solve_spherical(c4, upsilon).solutions:
            chi = character_to_scalar(sol.provenance.chi)
            mean = integrate(chi, upsilon)
            assert np.allclose(sol.values, chi * mean, atol=1e-14)


class TestSolveCentralDalembert:
    def test_c4_fixture(self, c4, sigma_neg, upsilon):
        sols = solve_central_dalembert(c4, sigma_neg, upsilon)
        got = sorted(tuple(np.round(s.values, 12)) for s in sols.solutions)
        expected = sorted(
            tuple(np.round(np.array(v, dtype=complex), 12))
            for v in ([1, 1, 1, 1], [-1, 1, -1, 1])
        )
        assert got == expected
        for s in sols.solutions:
            assert residual_central_dalembert(c4, s.values, sigma_neg, upsilon).max_abs <= 1e-12
            assert residual_integral_dalembert(c4, s.values, sigma_neg, upsilon).max_abs <= 1e-12

    def test_identity_fixture_all_characters(self, c4, sigma_id4):
        sols = solve_central_dalembert(c4, sigma_id4, DiracMeasure.point_mass(0))
        assert len(sols.solutions) == 4

    def test_preconditions(self, c4, s3, sigma_neg, upsilon, mu_delta1):
        anti = InvolutiveMorphism(map=(0, 3, 2, 1), kind=MorphismKind.ANTI_AUTOMORPHISM)
        with pytest.raises(WrongMorphismKind):
            solve_central_dalembert(c4, anti, upsilon)
        with pytest.raises(NotSigmaInvariant):
            solve_central_dalembert(c4, sigma_neg, mu_delta1)
        sigma6 = InvolutiveMorphism(map=(0, 1, 2, 3, 4, 5), kind=MorphismKind.AUTOMORPHISM)
        with pytest.raises(NonCentralSupport):
            solve_central_dalembert(s3, sigma6, DiracMeasure.point_mass(1))

    def test_even_symmetry(self, c4, sigma_neg, upsilon):
        for sol in solve_central_dalembert(c4, sigma_neg, upsilon).solutions:
            f = sol.values
            assert np.allclose(f[np.array(sigma_neg.map)], f, atol=1e-12)


class TestSymmetrizeSpherical:
    def test_spherical_solutions_symmetrize(self, c4, sigma_neg, upsilon):
        central = solve_central_dalembert(c4, sigma_neg, upsilon)
        for sol in solve_spherical(c4, upsilon).solutions:
            f = symmetrize_spherical(c4, sol.values, sigma_neg, upsilon)
            assert any(np.allclose(f, ref.values, atol=1e-12) for ref in central.solutions)

    def test_rejects_non_spherical(self, c4, sigma_neg, upsilon, sine):
        with pytest.raises(NotSpherical):
            symmetrize_spherical(c4, sine, sigma_neg, upsilon)


class TestNewtonOracle:
    def test_vanvleck_c4(self, c4, sigma_neg, mu_delta1, sine, tol):
        roots = newton_oracle(c4, "vanvleck", sigma_neg, mu_delta1, starts=200, seed=0)
        assert len(roots) == 1
        assert np.max(np.abs(roots[0] - sine)) <= 1e-9

    def test_identity_sigma_no_roots(self, c4, sigma_id4, mu_delta1):
        roots = newton_oracle(c4, "vanvleck", sigma_id4, mu_delta1, starts=150, seed=1)
        assert roots == []

    def test_dalembert_three_roots(self, c4, sigma_neg, tol):
        roots = newton_oracle(c4, "dalembert_variant", sigma_neg, None, starts=250, seed=2)
        refs = solve_dalembert(c4, sigma_neg).vectors()
        pairs, extra, missing = match_solution_sets(roots, refs, tol)
        assert len(pairs) == 3 and not extra and not missing

    def test_spherical_roots(self, c4, upsilon, tol):
        roots = newton_oracle(c4, "spherical", None, upsilon, starts=200, seed=3)
        refs = solve_spherical(c4, upsilon).vectors()
        pairs, extra, missing = match_solution_sets(roots, refs, tol)
        assert len(pairs) == 2 and not extra and not missing

    def test_corollary_roots(self, c4, sigma_neg, upsilon, tol):
        roots = newton_oracle(c4, "corollary33", sigma_neg, upsilon, starts=200, seed=4)
        refs = solve_central_dalembert(c4, sigma_neg, upsilon).vectors()
        pairs, extra, missing = match_solution_sets(roots, refs, tol)
        assert len(pairs) == 2 and not extra and not missing

    def test_deterministic(self, c4, sigma_neg, mu_delta1):
        a = newton_oracle(c4, "vanvleck", sigma_neg, mu_delta1, starts=100, seed=9)
        b = newton_oracle(c4, "vanvleck", sigma_neg, mu_delta1, starts=100, seed=9)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_requires_inputs(self, c4, mu_delta1):
        with pytest.raises(UsageError):
            newton_oracle(c4, "vanvleck", None, mu_delta1)
        with pytest.raises(UsageError):
            newton_oracle(c4, "unknown_eq", None, None)
        with pytest.raises(UsageError):
            newton_oracle(c4, "vanvleck", None, None, starts=0)

    def test_small_census_spot_checks(self, tol):
        # order-2 and order-3 semigroups where the closed form is nonempty
        from feqlab import MorphismKind, enumerate_involutive_morphisms, center as center_of

        c2 = cyclic_group(2)
        c3 = cyclic_group(3)
        cases = []
        for sg in (c2, c3, null_semigroup(2)):
            for kind in MorphismKind:
                for sigma in enumerate_involutive_morphisms(sg, kind):
                    for z in center_of(sg):
                        cases.append((sg, sigma, DiracMeasure.point_mass(z)))
        assert cases
        for sg, sigma, mu in cases:
            refs = solve_vanvleck(sg, sigma, mu).vectors()
            roots = newton_oracle(sg, "vanvleck", sigma, mu, starts=80, seed=5)
            pairs, extra, missing = match_solution_sets(roots, refs, tol)
            assert not extra and not missing


class TestMatching:
    def test_match_solution_sets(self, tol):
        a = [np.array([0, 1, 0, -1], dtype=complex)]
        b = [np.array([0, 1, 0, -1], dtype=complex) + 1e-9]
        pairs, ua, ub = match_solution_sets(a, b, tol)
        assert pairs == [(0, 0)] and not ua and not ub

    def test_unmatched_reported(self, tol):
        a = [np.zeros(4, dtype=complex) + 1.0]
        b = [np.zeros(4, dtype=complex) - 1.0]
        pairs, ua, ub = match_solution_sets(a, b, tol)
        assert not pairs and ua == [0] and ub == [0]
