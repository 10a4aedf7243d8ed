from __future__ import annotations

import math

import numpy as np
import pytest

from feqlab import (
    CampaignConfig,
    DiracMeasure,
    Verdict,
    approximate_battery,
    check_dichotomy,
    fuzz_campaign,
    measure_norm,
    measured_delta,
    perturb,
    residual_vanvleck,
    solve_vanvleck,
    superstability_bound,
)
from feqlab.errors import BadParams, DegenerateIntegral, EmptySolutionSet


def brute_bound(delta: float, m: float) -> float:
    """Larger root of 2b^2 - 2mb - delta = 0, straight from the quadratic."""
    return (2 * m + math.sqrt(4 * m * m + 8 * delta)) / 4.0


class TestBound:
    def test_examples(self):
        assert superstability_bound(2.0, 1.0) == pytest.approx((1 + math.sqrt(5)) / 2)
        assert superstability_bound(0.0, 1.0) == 1.0
        assert superstability_bound(0.0, 0.1) == 0.1  # exact, no sqrt detour

    def test_zero_delta_is_exact_norm(self):
        for m in (0.0, 0.3, 1.0, 2.5, 4.0):
            assert superstability_bound(0.0, m) == m

    def test_quadratic_identity_on_grid(self):
        for delta in np.linspace(0.0, 4.0, 10):
            for m in np.linspace(0.0, 4.0, 10):
                b = superstability_bound(float(delta), float(m))
                assert abs(2 * b * b - 2 * m * b - delta) <= 1e-12
                assert b == pytest.approx(brute_bound(float(delta), float(m)), abs=1e-12)

    def test_monotone_in_both_arguments(self):
        assert superstability_bound(1.0, 1.0) < superstability_bound(2.0, 1.0)
        assert superstability_bound(1.0, 1.0) < superstability_bound(1.0, 2.0)

    def test_rejects_negative(self):
        with pytest.raises(BadParams):
            superstability_bound(-0.1, 1.0)
        with pytest.raises(BadParams):
            superstability_bound(0.1, -1.0)


class TestMeasuredDelta:
    def test_exact_solution_zero(self, c4, sigma_neg, mu_delta1, sine):
        assert measured_delta(c4, sine, sigma_neg, mu_delta1) <= 1e-15

    def test_constant_tenth(self, c4, sigma_neg, mu_delta1):
        f = [0.1, 0.1, 0.1, 0.1]
        assert measured_delta(c4, f, sigma_neg, mu_delta1) == pytest.approx(0.02)

    def test_matches_residual_report(self, c4, sigma_neg, mu_delta1, rng_values):
        f = rng_values
        rep = residual_vanvleck(c4, f, sigma_neg, mu_delta1)
        assert measured_delta(c4, f, sigma_neg, mu_delta1) == rep.max_abs


@pytest.fixture
def rng_values():
    rng = np.random.default_rng(7)
    return rng.normal(size=4) + 1j * rng.normal(size=4)


class TestPerturb:
    def test_radius_zero_identity(self, sine):
        out = perturb(np.asarray(sine, dtype=complex), 0.0, seed=3)
        assert np.array_equal(out, np.asarray(sine, dtype=complex))

    def test_bounded_by_radius(self, sine):
        base = np.asarray(sine, dtype=complex)
        for seed in range(20):
            out = perturb(base, 0.25, seed=seed)
            assert np.max(np.abs(out - base)) <= 0.25 + 1e-15

    def test_deterministic_and_tuple_seeds(self, sine):
        base = np.asarray(sine, dtype=complex)
        assert np.array_equal(perturb(base, 0.5, seed=11), perturb(base, 0.5, seed=11))
        assert np.array_equal(perturb(base, 0.5, seed=(4, 2, 1)), perturb(base, 0.5, seed=(4, 2, 1)))
        assert not np.array_equal(perturb(base, 0.5, seed=11), perturb(base, 0.5, seed=12))

    def test_rejects_negative_radius(self, sine):
        with pytest.raises(BadParams):
            perturb(np.asarray(sine, dtype=complex), -0.5, seed=0)


class TestDichotomy:
    def test_exact_branch(self, c4, sigma_neg, mu_delta1, sine):
        trial = check_dichotomy(c4, np.asarray(sine, dtype=complex), sigma_neg, mu_delta1)
        assert trial.verdict is Verdict.EXACT_SOLUTION
        assert trial.sup_f == pytest.approx(1.0)

    def test_within_bound_branch(self, c4, sigma_neg, mu_delta1):
        f = np.asarray([0.1, 0.1, 0.1, 0.1], dtype=complex)
        trial = check_dichotomy(c4, f, sigma_neg, mu_delta1)
        assert trial.verdict is Verdict.WITHIN_BOUND
        assert trial.measured_delta == pytest.approx(0.02)
        assert trial.bound == pytest.approx(superstability_bound(0.02, 1.0))
        assert 0 < trial.ratio <= 1.0

    def test_never_violates_on_samples(self, c4, sigma_neg, mu_delta1):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = rng.normal(size=4) * 2 + 1j * rng.normal(size=4)
            trial = check_dichotomy(c4, f, sigma_neg, mu_delta1)
            assert trial.verdict is not Verdict.VIOLATION

    def test_exact_solutions_within_norm(self, c4, sigma_neg):
        # every exact solution satisfies sup|f| <= ||mu|| (the delta -> 0 bound)
        for w in (1.0, 0.5, 2.0):
            mu = DiracMeasure.from_pairs([(1, w)])
            for sol in solve_vanvleck(c4, sigma_neg, mu).solutions:
                assert np.max(np.abs(sol.values)) <= measure_norm(mu) + 1e-12


class TestApproximateBattery:
    def test_exact_solution_all_hold(self, c4, sigma_neg, mu_delta1, sine):
        items = approximate_battery(c4, np.asarray(sine, dtype=complex), sigma_neg,
                                    mu_delta1, delta=0.0)
        assert all(it.holds for it in items)
        names = [it.name for it in items]
        assert len(names) == len(set(names)) == 8

    def test_holds_flag_is_consistent(self, c4, sigma_neg, mu_delta1, sine, tol):
        # for perturbed inputs the items are evaluations, not theorems;
        # holds must agree with the reported lhs/rhs either way
        base = np.asarray(sine, dtype=complex)
        for seed in range(10):
            f = perturb(base, 0.05, seed=seed)
            delta = measured_delta(c4, f, sigma_neg, mu_delta1)
            items = approximate_battery(c4, f, sigma_neg, mu_delta1, delta=delta)
            assert len(items) == 8
            for it in items:
                if it.flag:
                    assert it.holds == (it.lhs > tol.eq_tol)
                else:
                    assert it.holds == (it.lhs <= it.rhs + tol.eq_tol)

    def test_degenerate_integral_rejected(self, c4, sigma_neg, upsilon, sine):
        # integral of the odd solution against the even half-pair measure is 0
        with pytest.raises(DegenerateIntegral):
            approximate_battery(c4, np.asarray(sine, dtype=complex), sigma_neg,
                                upsilon, delta=0.0)

    def test_delta_loosens_rhs(self, c4, sigma_neg, mu_delta1, sine):
        f = np.asarray(sine, dtype=complex)
        tight = approximate_battery(c4, f, sigma_neg, mu_delta1, delta=0.0)
        loose = approximate_battery(c4, f, sigma_neg, mu_delta1, delta=1.0)
        by_name = {it.name: it for it in loose}
        for it in tight:
            assert by_name[it.name].rhs >= it.rhs


class TestCampaign:
    def test_config_validation(self):
        with pytest.raises(BadParams):
            CampaignConfig(trials=0)
        with pytest.raises(BadParams):
            CampaignConfig(trials=5, radius_min=-1.0)
        with pytest.raises(BadParams):
            CampaignConfig(trials=5, radius_min=2.0, radius_max=1.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(BadParams):
                CampaignConfig(trials=5, radius_max=bad)

    def test_no_violations_and_counts(self, c4, sigma_neg, mu_delta1):
        cfg = CampaignConfig(trials=200, radius_min=0.0, radius_max=1.0, seed=42)
        summary, trials = fuzz_campaign(c4, sigma_neg, mu_delta1, cfg)
        assert summary.trials == 200 == len(trials)
        assert summary.violations == 0
        assert summary.exact + summary.within_bound == 200
        assert 0.0 <= summary.max_ratio <= 1.0

    def test_radius_zero_all_exact_or_zero_base(self, c4, sigma_neg, mu_delta1):
        cfg = CampaignConfig(trials=50, radius_min=0.0, radius_max=0.0, seed=7)
        summary, trials = fuzz_campaign(c4, sigma_neg, mu_delta1, cfg)
        assert summary.violations == 0
        assert all(t.verdict is Verdict.EXACT_SOLUTION for t in trials)

    def test_deterministic(self, c4, sigma_neg, mu_delta1):
        cfg = CampaignConfig(trials=60, seed=5)
        s1, t1 = fuzz_campaign(c4, sigma_neg, mu_delta1, cfg)
        s2, t2 = fuzz_campaign(c4, sigma_neg, mu_delta1, cfg)
        assert s1 == s2
        assert [t.sup_f for t in t1] == [t.sup_f for t in t2]

    def test_empty_solution_set_guard(self, c4, sigma_id4, mu_delta1):
        cfg = CampaignConfig(trials=10, require_solutions=True)
        with pytest.raises(EmptySolutionSet):
            fuzz_campaign(c4, sigma_id4, mu_delta1, cfg)

    def test_without_guard_uses_zero_base(self, c4, sigma_id4, mu_delta1):
        cfg = CampaignConfig(trials=10, seed=1)
        summary, trials = fuzz_campaign(c4, sigma_id4, mu_delta1, cfg)
        assert summary.trials == 10
        assert summary.violations == 0

    def test_lipschitz_envelope_on_fixture(self, c4, sigma_neg, mu_delta1, sine):
        # perturbing an exact solution by r moves the defect by at most
        # (2||mu|| + 2 sup|f| + 2r) r on this fixture
        base = np.asarray(sine, dtype=complex)
        m = measure_norm(mu_delta1)
        sup = float(np.max(np.abs(base)))
        for seed in range(30):
            r = 0.1 * (seed + 1) / 30
            f = perturb(base, r, seed=seed)
            delta = measured_delta(c4, f, sigma_neg, mu_delta1)
            assert delta <= (2 * m + 2 * sup + 2 * r) * r + 1e-12
