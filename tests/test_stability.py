from __future__ import annotations

import json
import math
import re
import warnings

import numpy as np
import pytest

from feqlab import (
    DEFAULT_TOL,
    CampaignConfig,
    DiracMeasure,
    InvolutiveMorphism,
    MorphismKind,
    StabilityTrial,
    ToleranceConfig,
    Verdict,
    approximate_battery,
    cyclic_group,
    fuzz_campaign,
    measure_norm,
    residual_vanvleck,
    solve_vanvleck,
    superstability_bound,
    write_fixtures,
)
from feqlab import stability
from feqlab.cli import main
from feqlab.errors import BadParams, DegenerateIntegral, DegenerateMeasureWarning, NonFiniteResidual
from feqlab.stability import _rounding_slack, _verdict


def classify(sg, f, sigma, mu, tol=DEFAULT_TOL) -> StabilityTrial:
    """The record of an unperturbed f (radius 0, trial 0), classified by
    the campaign's verdict function."""
    arr = np.asarray(f, dtype=complex)
    delta = residual_vanvleck(sg, arr, sigma, mu).max_abs
    sup_f = float(np.max(np.abs(arr)))
    bound, verdict = _verdict(sup_f, delta, measure_norm(mu), len(mu.atoms), tol)
    return StabilityTrial(arr, 0.0, 0, delta, sup_f, bound, verdict)


def offset(base, radius, u, theta) -> np.ndarray:
    """base plus the offsets radius sqrt(u) e^(2 pi i theta), uniform in
    the disk of that radius for u and theta uniform in [0, 1)."""
    return np.asarray(base, dtype=complex) + radius * np.sqrt(u) * np.exp(2j * np.pi * theta)


def perturbed(base, radius, seed) -> np.ndarray:
    """base plus uniform-in-disk offsets of the given radius from the
    PCG64 stream of seed: all of u, then all of theta."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    u = rng.random(len(base))
    theta = rng.random(len(base))
    return offset(base, radius, u, theta)


def block(seed: int, trial: int, n: int) -> np.ndarray:
    """Trial `trial`'s uniforms of a campaign on a table of order n,
    replayed alone: the campaign's Philox stream, keyed by
    SeedSequence(seed), holds K = 2 + 2n uniforms per trial rounded up to
    a multiple of 4 (the pick, the radius, all of u, all of theta, then
    padding), so the block starts at counter trial K / 4."""
    width = (2 + 2 * n + 3) // 4 * 4
    bitgen = np.random.Philox(np.random.SeedSequence(seed)).advance(trial * width // 4)
    return np.random.Generator(bitgen).random(width)


def replayed(bases, cfg: CampaignConfig, trial: int):
    """(base, radius, perturbed function) of a campaign trial, replayed
    from its block: base floor(u0 k) of the k bases, radius u1 radius_max."""
    n = len(bases[0])
    uniforms = block(cfg.seed, trial, n)
    base = bases[int(uniforms[0] * len(bases))]
    radius = float(uniforms[1] * cfg.radius_max)
    return base, radius, offset(base, radius, uniforms[2:2 + n], uniforms[2 + n:2 + 2 * n])


OVERFLOW = "vanvleck residual is not finite (overflow or non-finite input)"


def c4_neg(mu: DiracMeasure):
    return cyclic_group(4), InvolutiveMorphism((0, 3, 2, 1), MorphismKind.AUTOMORPHISM), mu


def c16_odd3():
    """C16 with negation and a 3-atom measure on odd points, where the sine
    variant has nonzero solutions."""
    sigma = InvolutiveMorphism(tuple((-x) % 16 for x in range(16)), MorphismKind.AUTOMORPHISM)
    return cyclic_group(16), sigma, DiracMeasure.from_pairs([(1, 0.75), (5, 0.5 - 0.25j), (11, 0.3)])


def fields(t: StabilityTrial) -> tuple:
    return t.base.tobytes(), t.radius, t.trial, t.measured_delta, t.sup_f, t.bound, t.verdict


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

    def test_arrays_match_the_scalar_formula_bit_for_bit(self):
        # the array bound and verdicts are the scalar float arithmetic, cell
        # by cell, overflow to inf included
        deltas = np.array([0.0, 5e-324, 1e-300, 0.02, 4.0, 1e200, 1.7e308])
        for m in (0.0, 1.0, 2.5, 1e200):
            scalar = [m if d == 0 else (m + math.sqrt(m * m + 2.0 * d)) / 2.0 for d in deltas.tolist()]
            assert superstability_bound(deltas, m).tolist() == scalar
            for scale in (0.5, 1.5):
                sups = np.array(scalar) * scale
                bounds, verdicts = _verdict(sups, deltas, m, 2, DEFAULT_TOL)
                assert bounds.tolist() == scalar
                assert verdicts.tolist() == [_verdict(float(f), float(d), m, 2, DEFAULT_TOL)[1]
                                             for f, d in zip(sups, deltas)]

    def test_rejects_negative(self):
        with pytest.raises(BadParams):
            superstability_bound(-0.1, 1.0)
        with pytest.raises(BadParams):
            superstability_bound(0.1, -1.0)
        for nan in ((float("nan"), 1.0), (0.1, float("nan"))):
            with pytest.raises(BadParams):
                superstability_bound(*nan)


class TestMeasuredDelta:
    """The smallest delta a function meets is the sup of its defect."""

    def test_exact_solution_zero(self, c4, sigma_neg, mu_delta1, sine):
        assert residual_vanvleck(c4, sine, sigma_neg, mu_delta1).max_abs <= 1e-15

    def test_constant_tenth(self, c4, sigma_neg, mu_delta1):
        f = [0.1, 0.1, 0.1, 0.1]
        assert residual_vanvleck(c4, f, sigma_neg, mu_delta1).max_abs == pytest.approx(0.02)

    def test_matches_residual_report(self):
        # every trial's delta, read from the campaign's compiled terms, is
        # bit for bit what residual_vanvleck reports for its function
        cfg = CampaignConfig(trials=80, radius_max=2.0, seed=13)
        for order, mu in ((4, DiracMeasure.point_mass(1)),
                          (4, DiracMeasure.from_pairs([(1, 0.5 - 0.25j), (3, 2.0)])),
                          (16, DiracMeasure.from_pairs([(1, 0.75j), (5, -0.5), (13, 1.25 + 0.5j)]))):
            sg = cyclic_group(order)
            sigma = InvolutiveMorphism(tuple(-x % order for x in range(order)), MorphismKind.AUTOMORPHISM)
            _, trials = fuzz_campaign(sg, sigma, mu, cfg)
            assert any(t.verdict is Verdict.WITHIN_BOUND for t in trials), order
            for t in trials:
                uniforms = block(cfg.seed, t.trial, order)
                f = offset(t.base, t.radius, uniforms[2:2 + order], uniforms[2 + order:2 + 2 * order])
                assert t.measured_delta == residual_vanvleck(sg, f, sigma, mu).max_abs, (order, t.trial)


class TestDichotomy:
    def test_exact_branch(self, c4, sigma_neg, mu_delta1, sine):
        trial = classify(c4, sine, sigma_neg, mu_delta1)
        assert trial.verdict is Verdict.EXACT_SOLUTION
        assert trial.sup_f == pytest.approx(1.0)

    def test_within_bound_branch(self, c4, sigma_neg, mu_delta1):
        f = np.asarray([0.1, 0.1, 0.1, 0.1], dtype=complex)
        trial = classify(c4, f, sigma_neg, mu_delta1)
        assert trial.verdict is Verdict.WITHIN_BOUND
        assert trial.measured_delta == pytest.approx(0.02)
        assert trial.bound == pytest.approx(superstability_bound(0.02, 1.0))
        assert 0 < trial.ratio <= 1.0

    def test_never_violates_on_samples(self, c4, sigma_neg, mu_delta1):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = rng.normal(size=4) * 2 + 1j * rng.normal(size=4)
            trial = classify(c4, f, sigma_neg, mu_delta1)
            assert trial.verdict is not Verdict.VIOLATION

    def test_large_functions_never_violate(self, c4, sigma_neg, mu_delta1):
        # the ulp of 1e16 is 2: the slack must scale with the values, as
        # an absolute one calls 38 of these VIOLATIONs from rounding alone
        rng = np.random.default_rng(0)
        for _ in range(200):
            f = (rng.normal(size=4) + 1j * rng.normal(size=4)) * 1e16
            assert classify(c4, f, sigma_neg, mu_delta1).verdict is not Verdict.VIOLATION

    def test_bound_is_sharp_and_slack_is_tight(self, c4, sigma_neg, mu_delta1, sine):
        # 2 sine has defect 4 (sin x sin y), so sup_f = bound = 2 exactly
        f = 2.0 * np.asarray(sine, dtype=complex)
        trial = classify(c4, f, sigma_neg, mu_delta1)
        assert (trial.measured_delta, trial.sup_f, trial.bound) == (4.0, 2.0, 2.0)
        assert trial.verdict is Verdict.WITHIN_BOUND
        # a defect understated by one part in 1e12 is caught: the slack is
        # a few eps of sup_f + ||mu||, not an absolute tolerance
        assert _verdict(2.0, 4.0 * (1 - 1e-12), 1.0, 1, DEFAULT_TOL)[1] is Verdict.VIOLATION
        assert _rounding_slack(2.0, 1.0, 1) < 1e-14

    def test_underflowed_defect_never_violates(self, c4, sigma_neg):
        # a constant c = 1.5 2^-538 has defect 2 c^2 = 1.125 2^-1074 exactly,
        # so sup_f is on the bound; the float defect underflows to 2^-1074
        # and the float bound falls about 6 % short, which only the
        # underflow part of the slack covers
        f = [1.5 * 2.0 ** -538] * 4
        mu = DiracMeasure.point_mass(1, 2.0 ** -560)
        trial = classify(c4, f, sigma_neg, mu, ToleranceConfig(0.0))
        assert trial.measured_delta == 2.0 ** -1074
        assert trial.sup_f > trial.bound + 15 * 2.0 ** -52 * (trial.sup_f + 2.0 ** -560)
        assert trial.verdict is Verdict.WITHIN_BOUND

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
            f = perturbed(base, 0.05, seed=seed)
            delta = residual_vanvleck(c4, f, sigma_neg, mu_delta1).max_abs
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

    def test_only_an_exact_zero_mean_is_degenerate(self, c4, sigma_neg, mu_delta1, sine):
        # the mean 1e-10 lies below eq_tol, so its flag item fails, but the
        # bounds are defined and the exact solution meets every other item
        f = 1e-10 * np.asarray(sine, dtype=complex)
        holds = {it.name: it.holds for it in approximate_battery(c4, f, sigma_neg, mu_delta1, delta=0.0)}
        assert holds.pop("5_nonzero_mean") is False and all(holds.values())

    @pytest.mark.parametrize("scale, delta, bound", [
        (1e-200, 1.0, math.inf), (1e-200, 0.0, 0.0), (1e-150, 1.0, 3.0 / (1e-150 * 1e-150))])
    def test_squared_mean_underflow(self, c4, sigma_neg, mu_delta1, sine, scale, delta, bound):
        # item 8 divides by |mean|^2, which is 0 in floats at a mean of 1e-200
        f = scale * np.asarray(sine, dtype=complex)
        items = {it.name: it for it in approximate_battery(c4, f, sigma_neg, mu_delta1, delta=delta)}
        assert items["8_companion_cosine_defect"].rhs == bound
        assert items["8_companion_cosine_defect"].holds

    def test_mean_tested_before_any_term(self, c4, sigma_neg):
        # the mean cancels to exactly 0 while the odd term overflows
        mu = DiracMeasure.from_pairs([(1, 1.0), (3, -1.0)])
        with pytest.raises(DegenerateIntegral):
            approximate_battery(c4, [1e308] * 4, sigma_neg, mu, delta=0.0)

    def test_delta_checked_before_length(self, c4, sigma_neg, mu_delta1):
        for bad in (-1, float("nan")):
            with pytest.raises(BadParams):
                approximate_battery(c4, [0.0] * 3, sigma_neg, mu_delta1, delta=bad)

    def test_delta_loosens_rhs(self, c4, sigma_neg, mu_delta1, sine):
        f = np.asarray(sine, dtype=complex)
        tight = approximate_battery(c4, f, sigma_neg, mu_delta1, delta=0.0)
        loose = approximate_battery(c4, f, sigma_neg, mu_delta1, delta=1.0)
        by_name = {it.name: it for it in loose}
        for it in tight:
            assert by_name[it.name].rhs >= it.rhs


class TestStream:
    """The campaign draws trial t's uniforms from its block of one Philox
    stream, and a block replays alone (block above)."""

    @pytest.mark.parametrize("case, trials, picked", [
        # 256 trials a chunk at n = 4, 16 at n = 16
        (c4_neg(DiracMeasure.point_mass(1)), 300, (0, 7, 255, 256, 299)),
        (c16_odd3(), 40, (0, 15, 16, 39)),
    ], ids=["n4", "n16"])
    def test_replay_is_the_chunks_block(self, case, trials, picked, monkeypatch):
        # the radii, u and theta each chunk hands to _disk are the replayed
        # blocks' bit for bit, and each record's base is the replayed pick
        sg, sigma, mu = case
        n, disk, seen = sg.n, stability._disk, []

        def spy(radius, u, theta):
            seen.append((radius[:, 0].copy(), u.copy(), theta.copy()))
            return disk(radius, u, theta)

        monkeypatch.setattr(stability, "_disk", spy)
        cfg = CampaignConfig(trials=trials, radius_max=1.5, seed=11)
        _, records = fuzz_campaign(sg, sigma, mu, cfg)
        assert len(seen) == (2 if n == 4 else 3)
        radii, us, thetas = (np.concatenate(parts) for parts in zip(*seen))
        bases = solve_vanvleck(sg, sigma, mu).vectors() + [np.zeros(n, dtype=complex)]
        for t in picked:
            uniforms = block(cfg.seed, t, n)
            assert len(uniforms) == {4: 12, 16: 36}[n]
            assert np.array_equal(records[t].base, bases[int(uniforms[0] * len(bases))])
            assert radii[t] == records[t].radius == uniforms[1] * cfg.radius_max
            assert np.array_equal(us[t], uniforms[2:2 + n])
            assert np.array_equal(thetas[t], uniforms[2 + n:2 + 2 * n])

    def test_one_seed_sequence_per_campaign(self, c4, sigma_neg, mu_delta1, monkeypatch):
        built = []
        monkeypatch.setattr(np.random, "SeedSequence",
                            lambda *args, cls=np.random.SeedSequence: built.append(args) or cls(*args))
        fuzz_campaign(c4, sigma_neg, mu_delta1, CampaignConfig(trials=600, seed=9))
        assert built == [(9,)]

    def test_seed_of_2_to_the_128_runs(self, tmp_path, capsys):
        # a Philox key must be below 2^128; SeedSequence takes any seed >= 0
        write_fixtures(tmp_path)
        sg, sigma, mu = (str(tmp_path / name) for name in
                         ("c4.sg.json", "c4_negation.sigma.json", "c4_delta1.mu.json"))
        code = main(["stability", "--trials", "20", "--seed", str(2 ** 128),
                     "--sg", sg, "--sigma", sigma, "--mu", mu])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["seed"] == 2 ** 128 and out["trials"] == 20 and out["violations"] == 0

    def test_zero_norm_measure_at_radius_zero_warns_only_of_the_measure(self, c4, sigma_neg):
        # every trial is the zero function, with sup 0 and delta 0 at norm 0:
        # a slack taken over all trials would divide 0 by 0 (an error under
        # the suite's filter)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary, _ = fuzz_campaign(c4, sigma_neg, DiracMeasure(()), CampaignConfig(trials=300, radius_max=0.0))
        assert [w.category for w in caught] == [DegenerateMeasureWarning]
        assert summary.exact == 300 and summary.max_ratio == 0.0

    def test_pick_of_the_largest_uniform_is_the_last_base(self):
        # floor(u0 k) < k for every u0 < 1 and k < 2^53: no clamp
        k = np.arange(1, 66)
        picks = np.empty(len(k), dtype=np.intp)
        picks[:] = (1 - 2.0 ** -53) * k  # as the campaign truncates
        assert picks.tolist() == [math.floor((1 - 2.0 ** -53) * j) for j in k.tolist()] == (k - 1).tolist()


class TestCampaign:
    def test_config_validation(self):
        with pytest.raises(BadParams):
            CampaignConfig(trials=0)
        with pytest.raises(BadParams):
            CampaignConfig(trials=5, radius_max=-1.0)
        with pytest.raises(BadParams):
            CampaignConfig(trials=5, seed=-1)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(BadParams):
                CampaignConfig(trials=5, radius_max=bad)

    @pytest.mark.parametrize("kwargs", [
        {"trials": True}, {"trials": 2.5}, {"trials": "3"}, {"trials": np.float64(3.0)},
        {"seed": True}, {"seed": 1.5}, {"seed": "1"}, {"seed": np.bool_(True)},
        {"radius_max": True}, {"radius_max": "1"}, {"radius_max": 1j}, {"radius_max": None},
    ], ids=repr)
    def test_config_refuses_wrong_types(self, kwargs):
        # bools were read as 1, and the others raised a bare TypeError
        with pytest.raises(BadParams):
            CampaignConfig(**{"trials": 5, **kwargs})

    def test_config_takes_numpy_numbers(self, c4, sigma_neg, mu_delta1):
        cfg = CampaignConfig(trials=np.int64(3), radius_max=np.float32(0.5), seed=np.uint8(2))
        want = fuzz_campaign(c4, sigma_neg, mu_delta1, CampaignConfig(trials=3, radius_max=0.5, seed=2))
        got = fuzz_campaign(c4, sigma_neg, mu_delta1, cfg)
        assert got[0] == want[0] and list(map(fields, got[1])) == list(map(fields, want[1]))

    def test_no_violations_and_counts(self, c4, sigma_neg, mu_delta1):
        cfg = CampaignConfig(trials=200, radius_max=1.0, seed=42)
        summary, trials = fuzz_campaign(c4, sigma_neg, mu_delta1, cfg)
        assert summary.trials == 200 == len(trials)
        assert summary.violations == 0
        assert summary.exact + summary.within_bound == 200
        assert 0.0 <= summary.max_ratio <= 1.0

    def test_radius_zero_all_exact_or_zero_base(self, c4, sigma_neg, mu_delta1):
        cfg = CampaignConfig(trials=50, radius_max=0.0, seed=7)
        summary, trials = fuzz_campaign(c4, sigma_neg, mu_delta1, cfg)
        assert summary.violations == 0
        assert all(t.verdict is Verdict.EXACT_SOLUTION for t in trials)

    def test_deterministic(self, c4, sigma_neg, mu_delta1):
        cfg = CampaignConfig(trials=60, seed=5)
        s1, t1 = fuzz_campaign(c4, sigma_neg, mu_delta1, cfg)
        s2, t2 = fuzz_campaign(c4, sigma_neg, mu_delta1, cfg)
        assert s1 == s2
        assert [t.sup_f for t in t1] == [t.sup_f for t in t2]

    @pytest.mark.parametrize("case, count", [
        (c4_neg(DiracMeasure.point_mass(1)), 120),
        (c4_neg(DiracMeasure.from_pairs([(1, 0.5 - 0.25j), (3, 2.0)])), 120),
        # 16 trials a chunk at n = 16: two full chunks and a partial one
        (c16_odd3(), 40),
    ], ids=["delta1", "two_atoms", "c16_odd3"])
    def test_records_equal_reference_per_trial(self, case, count):
        # the campaign's hoisted hypotheses, terms and norm, and its chunks,
        # change no record; the reference verdict is written out here, not
        # read from _verdict
        sg, sigma, mu = case
        cfg = CampaignConfig(trials=count, radius_max=1.5, seed=11)
        summary, trials = fuzz_campaign(sg, sigma, mu, cfg)
        bases = solve_vanvleck(sg, sigma, mu).vectors() + [np.zeros(sg.n, dtype=complex)]
        assert len(bases) > 1
        m = measure_norm(mu)
        for k, got in enumerate(trials):
            base, radius, f = replayed(bases, cfg, k)
            delta = residual_vanvleck(sg, f, sigma, mu).max_abs
            sup_f = float(np.max(np.abs(f)))
            bound = superstability_bound(delta, m)
            if delta <= DEFAULT_TOL.eq_tol:
                verdict = Verdict.EXACT_SOLUTION
            elif sup_f <= bound + _rounding_slack(sup_f, m, len(mu.atoms)):
                verdict = Verdict.WITHIN_BOUND
            else:
                verdict = Verdict.VIOLATION
            assert np.array_equal(got.base, base)
            assert (got.radius, got.trial, got.measured_delta, got.sup_f, got.bound, got.verdict) == \
                (radius, k, delta, sup_f, bound, verdict)
        assert summary.exact == sum(t.verdict is Verdict.EXACT_SOLUTION for t in trials)
        assert summary.max_ratio == max(t.ratio for t in trials)

    @pytest.mark.parametrize("case, trials", [(c4_neg(DiracMeasure.point_mass(1)), 600), (c16_odd3(), 40)],
                             ids=["c4", "c16_odd3"])
    def test_chunk_size_changes_no_bit(self, case, trials, monkeypatch):
        # one trial a chunk, the default, and the whole campaign in one chunk
        cfg = CampaignConfig(trials=trials, radius_max=2.0, seed=3)
        runs = []
        for cells in (1, stability._CHUNK_CELLS, trials * case[0].n ** 2):
            monkeypatch.setattr(stability, "_CHUNK_CELLS", cells)
            summary, records = fuzz_campaign(*case, cfg)
            runs.append((summary, list(map(fields, records))))
        assert runs[0] == runs[1] == runs[2]
        assert len(runs[0][1]) == trials

    def test_overflow_past_the_first_chunk_raises_in_trial_order(self, c4, sigma_neg, mu_delta1, monkeypatch):
        # with seed 8 and radii up to 9.6e153, trial 643 (the third chunk
        # at n = 4) is the first whose defect 2 f(x) f(y) overflows
        cfg = CampaignConfig(trials=643, radius_max=9.6e153, seed=8)
        bases = solve_vanvleck(c4, sigma_neg, mu_delta1).vectors() + [np.zeros(4, dtype=complex)]
        _, _, f = replayed(bases, cfg, 643)
        with pytest.raises(NonFiniteResidual):
            residual_vanvleck(c4, f, sigma_neg, mu_delta1)
        for cells in (1, stability._CHUNK_CELLS):
            monkeypatch.setattr(stability, "_CHUNK_CELLS", cells)
            summary, _ = fuzz_campaign(c4, sigma_neg, mu_delta1, cfg)
            assert summary.trials == 643 and summary.violations == 0
            with pytest.raises(NonFiniteResidual, match=f"^{re.escape(OVERFLOW)}$"):
                fuzz_campaign(c4, sigma_neg, mu_delta1, CampaignConfig(trials=700, radius_max=9.6e153, seed=8))

    def test_overflowing_radius_exits_2_without_warning(self, c4, sigma_neg, mu_delta1, tmp_path, capsys):
        # more trials than a chunk holds at n = 4; a warning from the chunk's
        # arithmetic would be an error under the suite's filter (exit 70)
        with pytest.raises(NonFiniteResidual, match=f"^{re.escape(OVERFLOW)}$"):
            fuzz_campaign(c4, sigma_neg, mu_delta1, CampaignConfig(trials=600, radius_max=1e200))
        write_fixtures(tmp_path)
        sg, sigma, mu = (str(tmp_path / name) for name in
                         ("c4.sg.json", "c4_negation.sigma.json", "c4_delta1.mu.json"))
        argv = ["stability", "--trials", "600", "--radius", "1e200", "--sg", sg, "--sigma", sigma, "--mu", mu]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"structural error: {OVERFLOW}\n")
        assert caught == []

    def test_violations_are_counted_and_exit_1(self, c4, sigma_neg, mu_delta1, monkeypatch,
                                               capsys, tmp_path):
        # no rounding can make a VIOLATION, so a negative slack forces one
        # on every trial that is not exact; radii below 1e-9 leave some exact
        monkeypatch.setattr(stability, "_rounding_slack", lambda *args: -math.inf)
        write_fixtures(tmp_path)
        sg, sigma, mu = (str(tmp_path / name) for name in
                         ("c4.sg.json", "c4_negation.sigma.json", "c4_delta1.mu.json"))
        argv = ["stability", "--trials", "300", "--seed", "5", "--radius", "1e-9",
                "--sg", sg, "--sigma", sigma, "--mu", mu]
        code = main(argv)
        out = capsys.readouterr().out
        # the same campaign as the bundled fixtures describe
        summary, trials = fuzz_campaign(c4, sigma_neg, mu_delta1,
                                        CampaignConfig(trials=300, radius_max=1e-9, seed=5))
        assert summary.violations == sum(t.verdict is not Verdict.EXACT_SOLUTION for t in trials) > 0
        assert summary.exact > 0
        assert summary.exact + summary.within_bound + summary.violations == summary.trials == 300
        assert summary.max_ratio == max(t.ratio for t in trials)
        assert code == 1 and json.loads(out) == summary.to_json()

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
            f = perturbed(base, r, seed=seed)
            delta = residual_vanvleck(c4, f, sigma_neg, mu_delta1).max_abs
            assert delta <= (2 * m + 2 * sup + 2 * r) * r + 1e-12
