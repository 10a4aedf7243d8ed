from __future__ import annotations

import argparse
import dataclasses
import warnings

import numpy as np
import pytest

from feqlab import (
    DiracMeasure,
    InvolutiveMorphism,
    MorphismKind,
    approximate_battery,
    battery_report,
    center,
    companion_cosine,
    identity_battery,
    integrate,
    left_zero,
    residual_central_dalembert,
    residual_dalembert,
    residual_integral_dalembert,
    residual_sine_addition,
    residual_spherical,
    residual_vanvleck,
    residual_wilson,
    cyclic_group,
    direct_product,
    enumerate_involutive_morphisms,
    s3_inversion,
    symmetric_group_3,
    validate_semigroup,
)
from feqlab import cli
from feqlab.equations import (
    EQUATIONS,
    SPHERICAL_RIGHT,
    Equation,
    Term,
    _defect,
    compile_terms,
    residual,
)
from feqlab.errors import (
    DegenerateIntegral,
    LengthMismatch,
    NonCentralSupport,
    NonFiniteResidual,
    NotSigmaInvariant,
    PointOutOfRange,
    UsageError,
    WrongMorphismKind,
)
from feqlab.solvers import _defect_operator, closed_form

# integral f(x t y) dmu = integral f(y t x) dmu: the engine's signed
# middle-t case with no products, which holds on abelian semigroups and
# for class functions
MIDDLE_COMMUTATION = Equation("middle_commutation", (Term(1, "xty"), Term(-1, "ytx")), ())


def brute_sup(grid):
    """Independent sup + first argmax over a dict {(x, y): value}."""
    best, arg = -1.0, None
    for (x, y) in sorted(grid):
        v = abs(grid[(x, y)])
        if v > best:
            best, arg = v, (x, y)
    return best, arg


class TestVanVleck:
    def test_sine_is_exact(self, c4, sine, sigma_neg, mu_delta1):
        rep = residual_vanvleck(c4, sine, sigma_neg, mu_delta1)
        assert rep.equation == "vanvleck"
        assert rep.max_abs == 0.0

    def test_zero_function_is_solution(self, c4, sigma_neg, mu_delta1):
        rep = residual_vanvleck(c4, np.zeros(4, dtype=complex), sigma_neg, mu_delta1)
        assert rep.max_abs == 0.0

    def test_constant_tenth(self, c4, sigma_neg, mu_delta1):
        # integrals cancel, residual = |2*(0.1)^2| = 0.02 everywhere
        f = np.full(4, 0.1, dtype=complex)
        rep = residual_vanvleck(c4, f, sigma_neg, mu_delta1)
        assert rep.max_abs == pytest.approx(0.02, abs=1e-15)
        assert rep.argmax == (0, 0)

    def test_matches_brute_force(self, c4, sigma_neg, mu_delta1):
        rng = np.random.default_rng(5)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        rep = residual_vanvleck(c4, f, sigma_neg, mu_delta1)
        grid = {}
        for x in range(4):
            for y in range(4):
                lhs = sum(
                    w * (f[c4.mul(c4.mul(sigma_neg.map[y], x), p)]
                         - f[c4.mul(c4.mul(x, y), p)])
                    for p, w in mu_delta1.atoms
                )
                grid[(x, y)] = lhs - 2 * f[x] * f[y]
        best, arg = brute_sup(grid)
        assert rep.max_abs == pytest.approx(best, rel=1e-15)
        assert rep.argmax == arg

    def test_noncentral_rejected_unless_forced(self, s3):
        mu = DiracMeasure.point_mass(1)
        sigma = InvolutiveMorphism(map=(0, 1, 2, 3, 4, 5), kind=MorphismKind.AUTOMORPHISM)
        f = np.zeros(6, dtype=complex)
        with pytest.raises(NonCentralSupport):
            residual_vanvleck(s3, f, sigma, mu)
        rep = residual_vanvleck(s3, f, sigma, mu, force=True)
        assert rep.out_of_hypothesis
        assert rep.max_abs == 0.0

    def test_negative_first_term(self, c4, s3, sigma_neg):
        # the terms in the other order: the first is negated in place in the
        # grid and enters the oracle's L as -weight, and -a + b rounds as b - a
        vanvleck = EQUATIONS["vanvleck"]
        flipped = dataclasses.replace(vanvleck, terms=(Term(-1, "xyt"), Term(1, "sxt")))
        rng = np.random.default_rng(24)
        for sg, sigma, (p, q) in ((c4, sigma_neg, (1, 3)), (s3, s3_inversion(), (1, 4))):
            for mu in (DiracMeasure.point_mass(p), DiracMeasure.from_pairs([(p, 0.5 - 0.25j), (q, -1.5 + 2j)])):
                f = rng.normal(size=sg.n) + 1j * rng.normal(size=sg.n)
                grid, flipped_grid = (_defect(eq, compile_terms(eq, sg, sigma, mu), f, None)
                                      for eq in (vanvleck, flipped))
                assert np.abs(grid).max() > 0.0
                assert np.array_equal(flipped_grid, grid), (sg.name, mu)
                L, flipped_L = (_defect_operator(eq, sg, sigma, mu, 1).L for eq in (vanvleck, flipped))
                assert np.array_equal(flipped_L, L), (sg.name, mu)


class TestDalembert:
    def test_cosine_solves(self, c4, cosine, sigma_neg):
        assert residual_dalembert(c4, cosine, sigma_neg).max_abs == 0.0

    def test_constant_one_solves(self, c4, sigma_neg):
        assert residual_dalembert(c4, np.ones(4, dtype=complex), sigma_neg).max_abs == 0.0

    def test_sine_fails_with_witness_at_1_1(self, c4, sine, sigma_neg):
        rep = residual_dalembert(c4, sine, sigma_neg)
        # witness: g(1+1) + g(sigma(1)+1) - 2 g(1)^2 = 0 + 0 - 2
        g = sine
        witness = g[2] + g[(3 + 1) % 4] - 2 * g[1] * g[1]
        assert abs(witness) == 2.0
        assert rep.max_abs == 2.0

    def test_works_for_anti_kind(self, s3):
        # inversion is an anti-automorphism; constant 1 still solves
        from feqlab import s3_inversion

        assert residual_dalembert(s3, np.ones(6, dtype=complex), s3_inversion()).max_abs == 0.0


class TestIntegralDalembert:
    def test_constant_one(self, c4, sigma_neg, upsilon):
        f = np.ones(4, dtype=complex)
        assert residual_integral_dalembert(c4, f, sigma_neg, upsilon).max_abs == 0.0

    def test_alternating(self, c4, sigma_neg, upsilon):
        f = np.array([-1, 1, -1, 1], dtype=complex)
        assert residual_integral_dalembert(c4, f, sigma_neg, upsilon).max_abs == pytest.approx(0.0, abs=1e-15)

    def test_cosine_fails_at_origin(self, c4, cosine, sigma_neg, upsilon):
        rep = residual_integral_dalembert(c4, cosine, sigma_neg, upsilon)
        # at (0,0): both integrals vanish on the odd-shifted cosine, so
        # the defect is -2 f(0)^2
        assert rep.max_abs == 2.0
        assert rep.argmax == (0, 0)

    def test_requires_automorphism(self, c4, cosine, upsilon):
        anti = InvolutiveMorphism(map=(0, 3, 2, 1), kind=MorphismKind.ANTI_AUTOMORPHISM)
        with pytest.raises(WrongMorphismKind):
            residual_integral_dalembert(c4, cosine, anti, upsilon)

    def test_requires_invariance(self, c4, cosine, sigma_neg, mu_delta1):
        with pytest.raises(NotSigmaInvariant):
            residual_integral_dalembert(c4, cosine, sigma_neg, mu_delta1)

    def test_central_form_agrees(self, c4, sigma_neg, upsilon):
        rng = np.random.default_rng(11)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        mid = residual_integral_dalembert(c4, f, sigma_neg, upsilon)
        tail = residual_central_dalembert(c4, f, sigma_neg, upsilon)
        assert mid.max_abs == pytest.approx(tail.max_abs, rel=1e-12)
        assert mid.argmax == tail.argmax


class TestSpherical:
    def test_constant_one(self, c4, upsilon):
        assert residual_spherical(c4, np.ones(4, dtype=complex), upsilon).max_abs == 0.0

    def test_scaled_alternating(self, c4, upsilon):
        psi = np.array([-1, 1, -1, 1], dtype=complex)
        assert residual_spherical(c4, psi, upsilon).max_abs == pytest.approx(0.0, abs=1e-15)

    def test_unscaled_character_fails(self, c4, upsilon):
        # chi = i^x integrates to zero against upsilon, so chi itself
        # misses the normalization: defect at (0,0) is |0 - 1| = 1
        chi = np.array([1, 1j, -1, -1j])
        rep = residual_spherical(c4, chi, upsilon)
        assert rep.max_abs >= 1.0
        grid0 = sum(w * chi[(0 + p + 0) % 4] for p, w in upsilon.atoms) - chi[0] * chi[0]
        assert abs(grid0) == 1.0

    def test_right_form_agrees_on_central_support(self, c4, upsilon):
        rng = np.random.default_rng(13)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        mid = residual_spherical(c4, psi, upsilon)
        right = residual(SPHERICAL_RIGHT, c4, psi, mu=upsilon)
        assert mid.max_abs == pytest.approx(right.max_abs, rel=1e-12)


class TestSineAdditionAndWilson:
    def test_sine_cosine_pair(self, c4, sine, cosine):
        assert residual_sine_addition(c4, sine, cosine).max_abs == 0.0

    def test_zero_sine(self, c4, cosine):
        z = np.zeros(4, dtype=complex)
        assert residual_sine_addition(c4, z, cosine).max_abs == 0.0

    def test_ones_fail(self, c4):
        ones = np.ones(4, dtype=complex)
        rep = residual_sine_addition(c4, ones, ones)
        assert rep.max_abs == 1.0  # 1 - 1 - 1

    def test_wilson_pair(self, c4, sine, cosine, sigma_neg):
        assert residual_wilson(c4, sine, cosine, sigma_neg).max_abs == 0.0

    def test_wilson_zero(self, c4, cosine, sigma_neg):
        z = np.zeros(4, dtype=complex)
        assert residual_wilson(c4, z, cosine, sigma_neg).max_abs == 0.0

    def test_wilson_constant_g_witness(self, c4, sine, sigma_id4):
        rep = residual_wilson(c4, sine, np.ones(4, dtype=complex), sigma_id4)
        # witness at (0,1): f(1) + f(1) - 2 f(0) = 2
        assert abs(sine[1] + sine[1] - 2 * sine[0]) == 2.0
        # independent brute sup: the defect 2 f(x+y) - 2 f(x) peaks at 4
        grid = {
            (x, y): sine[(x + y) % 4] + sine[(y + x) % 4] - 2 * sine[x]
            for x in range(4)
            for y in range(4)
        }
        best, arg = brute_sup(grid)
        assert best == 4.0
        assert rep.max_abs == best
        assert rep.argmax == arg


class TestMiddleCommutation:
    def test_abelian_always_zero(self, c4, upsilon):
        rng = np.random.default_rng(17)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert residual(MIDDLE_COMMUTATION, c4, f, mu=upsilon).max_abs == 0.0

    def test_class_function_on_s3(self, s3):
        # normalized character of the 2-dim representation is a class
        # function: f(xy) = f(yx)
        f = np.array([1, 0, 0, -0.5, -0.5, 0], dtype=complex)
        ups = DiracMeasure.point_mass(0)
        assert residual(MIDDLE_COMMUTATION, s3, f, mu=ups).max_abs == 0.0

    def test_indicator_detects_noncommutativity(self, s3):
        f = np.zeros(6, dtype=complex)
        f[1] = 1.0
        ups = DiracMeasure.point_mass(0)
        rep = residual(MIDDLE_COMMUTATION, s3, f, mu=ups)
        assert rep.max_abs >= 1.0


class TestCompanion:
    def test_sine_gives_cosine(self, c4, sine, cosine, mu_delta1):
        g = companion_cosine(c4, sine, mu_delta1)
        assert np.array_equal(g, cosine)

    def test_constant_one(self, c4, mu_delta1):
        g = companion_cosine(c4, np.ones(4, dtype=complex), mu_delta1)
        assert np.array_equal(g, np.ones(4, dtype=complex))

    def test_degenerate_mean(self, c4, sine, upsilon):
        with pytest.raises(DegenerateIntegral):
            companion_cosine(c4, sine, upsilon)

    def test_only_an_exact_zero_mean_is_degenerate(self, c4, sine, cosine, mu_delta1):
        # the mean 1e-10 lies below the default eq_tol, once taken for zero
        g = companion_cosine(c4, 1e-10 * np.asarray(sine), mu_delta1)
        assert np.array_equal(g, cosine)


class TestIdentityBattery:
    def test_sine_passes_everything(self, c4, sine, sigma_neg, mu_delta1):
        items = identity_battery(c4, sine, sigma_neg, mu_delta1)
        assert [it.name for it in items] == [
            "1_sigma_odd",
            "2_nonzero_mean",
            "3_cross_antisym",
            "4_twisted_double_mean",
            "5_double_mean",
            "6_sigma_right_mean",
            "7_sigma_twist_mean",
            "8_vanishing_double_mean",
        ]
        assert all(it.ok for it in items)
        flags = [it for it in items if it.flag]
        assert [f.name for f in flags] == ["2_nonzero_mean"]
        assert flags[0].value == 1.0
        assert all(it.value == 0.0 for it in items if not it.flag)

    def test_double_mean_identity_by_hand(self, c4, sine, mu_delta1):
        # items 4 and 5 on this fixture reduce to f(x+2) = -f(x)
        for x in range(4):
            assert sine[(x + 2) % 4] == -sine[x]

    def test_zero_function_fails_only_the_flag(self, c4, sigma_neg, mu_delta1):
        items = identity_battery(c4, np.zeros(4, dtype=complex), sigma_neg, mu_delta1)
        bad = [it.name for it in items if not it.ok]
        assert bad == ["2_nonzero_mean"]

    def test_random_non_solution_reports_names(self, c4, sigma_neg, mu_delta1):
        rng = np.random.default_rng(23)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        items = identity_battery(c4, f, sigma_neg, mu_delta1)
        assert len(items) == 8
        assert any(not it.ok for it in items)
        assert all(isinstance(it.value, float) for it in items)

    def test_battery_report_merges(self, c4, sine, sigma_neg, mu_delta1, tol):
        rep = battery_report(c4, sine, sigma_neg, mu_delta1)
        assert rep.max_abs == 0.0
        assert rep.per_item is not None and len(rep.per_item) == 8
        assert rep.passed(tol)

    def test_noncentral_battery_rejected(self, s3):
        sigma = InvolutiveMorphism(map=(0, 1, 2, 3, 4, 5), kind=MorphismKind.AUTOMORPHISM)
        with pytest.raises(NonCentralSupport):
            identity_battery(s3, np.zeros(6, dtype=complex), sigma, DiracMeasure.point_mass(2))


class TestReportShape:
    def test_argmax_is_first_lexicographic(self, c4, cosine, sigma_neg, upsilon):
        rep = residual_central_dalembert(c4, cosine, sigma_neg, upsilon)
        # residual grid is -2 cos(x) cos(y); ties at magnitude 2 start at (0,0)
        assert rep.max_abs == 2.0
        assert rep.argmax == (0, 0)

    def test_json_shape(self, c4, sine, sigma_neg, mu_delta1):
        rep = residual_vanvleck(c4, sine, sigma_neg, mu_delta1)
        obj = rep.to_json()
        assert list(obj) == ["equation", "max_abs", "argmax"]
        assert obj["argmax"] == [0, 0]
        obj = battery_report(c4, sine, sigma_neg, mu_delta1).to_json()
        assert list(obj) == ["equation", "max_abs", "argmax", "per_item"]


def _pointwise(sg, sigma, mu, f, g):
    """Every law's defect grid evaluated cell by cell with scalar
    arithmetic: the rounding the grids must reproduce. A trailing word
    a b t reads the right transform rt at a b, and a middle word a t b
    reads H at (a, b), H(a, b) the mean of f(a t b); each value of rt
    and H is accumulated over the atoms in order."""
    t, s = sg.mul, sigma.map

    def avg(term):
        acc = 0j
        for p, w in mu.atoms:
            acc += w * term(p)
        return acc

    rt = [avg(lambda p: f[t(a, p)]) for a in range(sg.n)]
    H = [[avg(lambda p: f[t(t(a, p), b)]) for b in range(sg.n)] for a in range(sg.n)]
    laws = {
        "vanvleck": lambda x, y: rt[t(s[y], x)] - rt[t(x, y)] - 2.0 * f[x] * f[y],
        "dalembert_variant": lambda x, y: f[t(x, y)] + f[t(s[y], x)] - 2.0 * f[x] * f[y],
        "integral_dalembert": lambda x, y: H[x][y] + H[s[y]][x] - 2.0 * f[x] * f[y],
        "corollary33": lambda x, y: rt[t(x, y)] + rt[t(s[y], x)] - 2.0 * f[x] * f[y],
        "spherical": lambda x, y: H[x][y] - f[x] * f[y],
        "spherical_right": lambda x, y: rt[t(x, y)] - f[x] * f[y],
        "sine_addition": lambda x, y: f[t(x, y)] - f[x] * g[y] - f[y] * g[x],
        "wilson_variant": lambda x, y: f[t(x, y)] + f[t(s[y], x)] - 2.0 * f[x] * g[y],
        "middle_commutation": lambda x, y: H[x][y] - H[y][x],
    }
    return {name: np.array([[law(x, y) for y in range(sg.n)] for x in range(sg.n)])
            for name, law in laws.items()}


class TestRegistryGrids:
    """The vectorized grids against cell-by-cell scalar evaluation, to the bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_equal_to_pointwise(self, s3, seed):
        rng = np.random.default_rng(seed)
        autos = enumerate_involutive_morphisms(s3, MorphismKind.AUTOMORPHISM)
        sigma = autos[1 + seed % (len(autos) - 1)]  # not the identity
        points = rng.choice(6, size=2, replace=False)
        weights = rng.normal(size=2) + 1j * rng.normal(size=2)
        mu = DiracMeasure.from_pairs([(int(p), complex(w) / 2) for p, w in zip(points, weights)]
                                     + [(sigma.map[p], complex(w) / 2) for p, w in zip(points, weights)])
        f = rng.normal(size=6) + 1j * rng.normal(size=6)
        g = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert_registry_is_pointwise(s3, sigma, mu, f, g)

    @pytest.mark.parametrize("case", ["S3-real", "S3-mixed", "LZ3", "C4xLZ2", "C16"])
    def test_more_tables_and_weights(self, s3, case):
        # real weights (negative ones, and one with imaginary part -0.0)
        # take the one-pass scaling, complex ones the split product; C4xLZ2
        # has an empty center, so vanvleck runs with force=True
        rng = np.random.default_rng(len(case))
        auto = MorphismKind.AUTOMORPHISM
        if case.startswith("S3"):
            sg, sigma = s3, enumerate_involutive_morphisms(s3, auto)[1]
        elif case == "LZ3":
            sg, sigma = left_zero(3), InvolutiveMorphism((2, 1, 0), auto)
        elif case == "C4xLZ2":
            sg = direct_product(cyclic_group(4), left_zero(2))  # (a, b) at 2a + b
            sigma = InvolutiveMorphism(tuple(2 * (-a % 4) + 1 - b for a in range(4) for b in range(2)), auto)
            assert center(sg) == []
        else:
            sg = cyclic_group(16)
            sigma = InvolutiveMorphism(tuple(-x % 16 for x in range(16)), auto)
        points = rng.choice(sg.n, size=3, replace=False).tolist()
        weights = [-rng.uniform(0.5, 2.0), complex(rng.normal(), -0.0), rng.normal()]
        if case != "S3-real":
            weights[2] = complex(rng.normal(), rng.normal())
        mu = DiracMeasure.from_pairs([(p, w / 2) for p, w in zip(points, weights)]
                                     + [(sigma.map[p], w / 2) for p, w in zip(points, weights)])
        f = rng.normal(size=sg.n) + 1j * rng.normal(size=sg.n)
        g = rng.normal(size=sg.n) + 1j * rng.normal(size=sg.n)
        assert_registry_is_pointwise(sg, sigma, mu, f, g)

    def test_measure_without_atoms(self, c4, sigma_neg):
        # every averaged term is 0, so each grid is its products alone
        rng = np.random.default_rng(5)
        f, g = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(2))
        assert_registry_is_pointwise(c4, sigma_neg, DiracMeasure(()), f, g)


# The laws of _pointwise by name.
REGISTRY_LAWS = {**EQUATIONS, "spherical_right": SPHERICAL_RIGHT, "middle_commutation": MIDDLE_COMMUTATION}


def assert_registry_is_pointwise(sg, sigma, mu, f, g):
    """Every registry law against _pointwise, to the bit: its whole
    defect grid, and the sup and argmax of its report through the public
    residual functions. vanvleck runs with force=True, so mu need not be
    central."""
    reports = {
        "vanvleck": residual_vanvleck(sg, f, sigma, mu, force=True),
        "dalembert_variant": residual_dalembert(sg, f, sigma),
        "integral_dalembert": residual_integral_dalembert(sg, f, sigma, mu),
        "corollary33": residual_central_dalembert(sg, f, sigma, mu),
        "spherical": residual_spherical(sg, f, mu),
        "spherical_right": residual(SPHERICAL_RIGHT, sg, f, mu=mu),
        "sine_addition": residual_sine_addition(sg, f, g),
        "wilson_variant": residual_wilson(sg, f, g, sigma),
        "middle_commutation": residual(MIDDLE_COMMUTATION, sg, f, mu=mu),
    }
    for name, want in _pointwise(sg, sigma, mu, f, g).items():
        eq = REGISTRY_LAWS[name]
        grid = _defect(eq, compile_terms(eq, sg, sigma, mu), f, g if eq.uses_g else None)
        assert np.array_equal(grid, want), name
        mags = np.abs(want)
        flat = int(np.argmax(mags))
        assert reports[name].max_abs == mags.flat[flat], name
        assert reports[name].argmax == divmod(flat, sg.n), name


class TestStackedDefect:
    """_defect on a (k, n) stack of functions against k single-function calls."""

    @pytest.mark.parametrize("name", ["c4", "s3", "c4xc4"])
    def test_stack_equals_the_rows_to_the_bit(self, name):
        if name == "c4":
            sg, sigma = cyclic_group(4), InvolutiveMorphism((0, 3, 2, 1), MorphismKind.AUTOMORPHISM)
        elif name == "s3":
            sg, sigma = symmetric_group_3(), s3_inversion()
        else:
            sg = direct_product(cyclic_group(4), cyclic_group(4))  # (x, y) at 4x + y
            neg = tuple((-x % 4) * 4 + (-y % 4) for x in range(4) for y in range(4))
            sigma = InvolutiveMorphism(neg, MorphismKind.AUTOMORPHISM)
        rng = np.random.default_rng(len(name))
        for atoms in (1, 2, 3):
            points = rng.choice(sg.n, size=atoms, replace=False)
            weights = rng.normal(size=atoms) + 1j * rng.normal(size=atoms)
            mu = DiracMeasure.from_pairs(list(zip(points.tolist(), weights.tolist())))
            F = rng.normal(size=(4, sg.n)) + 1j * rng.normal(size=(4, sg.n))
            G = rng.normal(size=(4, sg.n)) + 1j * rng.normal(size=(4, sg.n))
            F[2, 1] = G[2, 1] = 1e300  # this row's products overflow
            for eq in EQUATIONS.values():
                terms = compile_terms(eq, sg, sigma, mu)
                g = G if eq.uses_g else None
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    stacked = _defect(eq, terms, F, g)
                    rows = [_defect(eq, terms, F[k], None if g is None else g[k]) for k in range(4)]
                assert stacked.shape == (4, sg.n, sg.n)
                assert stacked.tobytes() == np.stack(rows).tobytes(), (eq.tag, atoms)
                finite = np.isfinite(stacked).all(axis=(1, 2))
                assert finite.tolist() == [True, True, False, True], (eq.tag, atoms)


class TestResidualEvaluator:
    """residual, the one path from an equation, its inputs and the
    functions to a report."""

    def test_carries_out_of_hypothesis_mark(self, s3):
        # force marks a report only where it let a non-central support through
        sigma = enumerate_involutive_morphisms(s3, MorphismKind.AUTOMORPHISM)[1]
        vanvleck = EQUATIONS["vanvleck"]
        for f in (np.zeros(6), np.ones(6)):
            assert residual(vanvleck, s3, f, sigma=sigma, mu=DiracMeasure.point_mass(1), force=True).out_of_hypothesis
            assert not residual(vanvleck, s3, f, sigma=sigma, mu=DiracMeasure.point_mass(0),
                                force=True).out_of_hypothesis

    @pytest.mark.parametrize("eq", [EQUATIONS["spherical"], SPHERICAL_RIGHT, MIDDLE_COMMUTATION,
                                    EQUATIONS["vanvleck"], EQUATIONS["corollary33"]],
                             ids=["spherical", "spherical_right", "middle_commutation", "vanvleck", "corollary33"])
    def test_atom_points_before_function_length(self, c4, sigma_neg, eq):
        # the atoms are checked with the inputs, before any function
        with pytest.raises(PointOutOfRange):
            residual(eq, c4, [1, 2], sigma=sigma_neg, mu=DiracMeasure.point_mass(7))
        with pytest.raises(LengthMismatch):
            residual(eq, c4, [1, 2], sigma=sigma_neg, mu=DiracMeasure.point_mass(0))

    @pytest.mark.parametrize("word", ["xs", "xx", "sy", "txy", "xtty", "xyx"])
    def test_words_outside_the_grammar_are_refused(self, c4, sigma_neg, word):
        with pytest.raises(ValueError, match=f"^cannot compile the word '{word}'$"):
            compile_terms(Equation("bad", (Term(1, word),), ()), c4, sigma_neg, DiracMeasure.point_mass(1))


# The inputs each CLI tag loads, in load order, pinned apart from the words
# and the companion g that decide them.
CLI_INPUTS = {
    "vanvleck": ("sigma", "mu"),
    "dalembert_variant": ("sigma",),
    "integral_dalembert": ("sigma", "mu"),
    "corollary33": ("sigma", "mu"),
    "spherical": ("mu",),
    "sine_addition": ("mu",),
    "wilson_variant": ("sigma", "mu"),
}
# the inputs each hypothesis reads (see Equation)
HYPOTHESIS_READS = {"automorphism": {"sigma"}, "invariant": {"sigma", "mu"}, "central": {"mu"}}

_C4 = cyclic_group(4)
_NEG = InvolutiveMorphism((0, 3, 2, 1), MorphismKind.AUTOMORPHISM)
_SINE = [0, 1, 0, -1]
# (missing input, call): library calls that leave out an input they read
MISSING_INPUT_CALLS = {
    "residual-dalembert_variant": ("sigma", lambda: residual(EQUATIONS["dalembert_variant"], _C4, _SINE)),
    "residual-vanvleck": ("mu", lambda: residual(EQUATIONS["vanvleck"], _C4, _SINE, sigma=_NEG)),
    "residual-spherical": ("mu", lambda: residual(EQUATIONS["spherical"], _C4, _SINE)),
    "identity_battery": ("mu", lambda: identity_battery(_C4, _SINE, _NEG, None)),
    "battery_report": ("mu", lambda: battery_report(_C4, _SINE, _NEG, None)),
    "approximate_battery": ("mu", lambda: approximate_battery(_C4, _SINE, _NEG, None, 0.0)),
    "residual-sine_addition": ("g", lambda: residual(EQUATIONS["sine_addition"], _C4, _SINE)),
    "residual-wilson_variant": ("g", lambda: residual(EQUATIONS["wilson_variant"], _C4, _SINE, sigma=_NEG)),
    "companion_cosine": ("mu", lambda: companion_cosine(_C4, _SINE, None)),
}


class TestInputGate:
    @pytest.mark.parametrize("case", MISSING_INPUT_CALLS)
    def test_missing_input_is_a_usage_error(self, case):
        name, call = MISSING_INPUT_CALLS[case]
        with pytest.raises(UsageError, match=rf" needs {name}$"):
            call()

    def test_words_and_companion_give_the_cli_inputs(self, monkeypatch):
        assert set(EQUATIONS) == set(CLI_INPUTS)
        for tag, eq in EQUATIONS.items():
            assert eq.reads + ("mu",) * (eq.uses_g and "mu" not in eq.reads) == CLI_INPUTS[tag], tag
            loaded = []
            monkeypatch.setattr(cli, "load_morphism", lambda path, sg: loaded.append(path))
            monkeypatch.setattr(cli, "load_measure", lambda path: loaded.append(path))
            assert cli._load_inputs(argparse.Namespace(eq=tag, sigma="sigma", mu="mu"), _C4, eq) == (None, None)
            assert tuple(loaded) == CLI_INPUTS[tag], tag

    def test_spherical_right_reads_mu(self):
        assert SPHERICAL_RIGHT.reads == ("mu",)
        assert SPHERICAL_RIGHT.reads is SPHERICAL_RIGHT.reads  # cached per entry

    @pytest.mark.parametrize("tag", EQUATIONS)
    def test_hypotheses_and_checks_read_only_what_the_words_read(self, tag):
        eq = EQUATIONS[tag]
        form = eq.closed_form
        for hypothesis in eq.hypotheses + (form.hypotheses if form else ()):
            assert HYPOTHESIS_READS[hypothesis] <= set(eq.reads), hypothesis
        if form:
            # closed_form compiles every law sharing the form and its checks on eq's inputs
            laws = [law for law in EQUATIONS.values() if law.closed_form is form] + list(form.checks)
            assert all(law.reads == eq.reads for law in laws)
            for law in form.checks:
                assert set(law.hypotheses) <= set(form.hypotheses)

    def test_unread_measure_is_dropped_unchecked(self, c4, cosine, sigma_neg):
        far = DiracMeasure.point_mass(9, 1e300)
        rep = residual(EQUATIONS["dalembert_variant"], c4, cosine, sigma=sigma_neg, mu=far)
        assert rep == residual_dalembert(c4, cosine, sigma_neg)
        got, want = (closed_form("dalembert_variant", c4, sigma_neg, mu) for mu in (far, None))
        assert got.to_json() == want.to_json()

    # a sigma of the wrong length, and one with an entry outside 0..n-1
    UNREAD_SIGMAS = {"short": (0, 2, 1), "out_of_range": (0, 3, 9, 1)}

    @pytest.mark.parametrize("bad", UNREAD_SIGMAS)
    def test_unread_sigma_is_dropped_unchecked(self, c4, sine, cosine, bad):
        far = InvolutiveMorphism(self.UNREAD_SIGMAS[bad], MorphismKind.AUTOMORPHISM)
        delta1 = DiracMeasure.point_mass(1)
        rep = residual(EQUATIONS["spherical"], c4, cosine, sigma=far, mu=delta1)
        assert rep == residual(EQUATIONS["spherical"], c4, cosine, mu=delta1)
        got, want = (closed_form("spherical", c4, sigma, delta1) for sigma in (far, None))
        assert got.to_json() == want.to_json()
        rep = residual(EQUATIONS["sine_addition"], c4, sine, g=cosine, sigma=far)
        assert rep == residual_sine_addition(c4, sine, cosine)

    def test_approximate_battery_checks_atoms_before_length(self, c4, sigma_neg):
        with pytest.raises(PointOutOfRange):
            approximate_battery(c4, [1, 2], sigma_neg, DiracMeasure.point_mass(7), 0.0)
        with pytest.raises(LengthMismatch):
            approximate_battery(c4, [1, 2], sigma_neg, DiracMeasure.point_mass(0), 0.0)


class TestNonFinite:
    def test_overflow_raises(self, c4, sigma_neg, mu_delta1):
        f = np.array([1e300, 1, 0, -1], dtype=complex)
        with pytest.raises(NonFiniteResidual):
            residual_vanvleck(c4, f, sigma_neg, mu_delta1)

    def test_nan_raises(self, c4, sigma_neg, upsilon):
        f = np.array([0, np.nan, 0, 0], dtype=complex)
        with pytest.raises(NonFiniteResidual):
            residual_central_dalembert(c4, f, sigma_neg, upsilon)
        with pytest.raises(NonFiniteResidual):
            identity_battery(c4, f, sigma_neg, DiracMeasure.point_mass(1))

    def test_battery_pair_overflow_raises_without_warning(self):
        # item 8's double mean f(1 1) = 1e160 * 5e153 overflows; no other term does
        sg = validate_semigroup([[0, 0, 0], [0, 2, 0], [0, 0, 0]])
        sigma = InvolutiveMorphism(map=(0, 1, 2), kind=MorphismKind.AUTOMORPHISM)
        mu = DiracMeasure.point_mass(1, 1e80)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResidual):
                identity_battery(sg, [0, 0, 5e153], sigma, mu)

    def test_companion_overflow_raises_without_warning(self, c4, sigma_neg, mu_delta1):
        # every battery term is finite, but the companion 1e305 / 1e-6 overflows
        f = [1e-6, 1e-6, 1e305, 1e305]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.all(np.isfinite(companion_cosine(c4, f, mu_delta1)))
            with pytest.raises(NonFiniteResidual, match="dalembert_variant"):
                approximate_battery(c4, f, sigma_neg, mu_delta1, delta=1.0)

    def test_mean_modulus_overflow_raises_without_warning(self, c4, sigma_neg, mu_delta1):
        # abs of the mean z = 1.3e308 (1 + i) raised a bare OverflowError;
        # its modulus reads inf, and the twisted double mean's f(1) z = z^2
        # overflows
        z = 1.3e308 * (1 + 1j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResidual, match="^battery term is not finite"):
                approximate_battery(c4, [0, z, 0, -z], sigma_neg, mu_delta1, 0.5)

    @pytest.mark.parametrize("seed", range(3))
    def test_battery_bit_equal_to_pointwise(self, s3, seed):
        rng = np.random.default_rng(10 + seed)
        sigma = enumerate_involutive_morphisms(s3, MorphismKind.AUTOMORPHISM)[1 + seed]
        points = rng.choice(6, size=2, replace=False)
        weights = rng.normal(size=2) + 1j * rng.normal(size=2)
        mu = DiracMeasure.from_pairs(list(zip(points.tolist(), weights.tolist())))
        f = rng.normal(size=6) + 1j * rng.normal(size=6)
        t, s, n = s3.mul, sigma.map, 6
        mean = integrate(f, mu)

        # the atoms of the pushforward of mu under sigma, in point order
        smu = sorted((s[p], w) for p, w in mu.atoms)

        def sup(vals):
            return float(max(abs(v) for v in vals))

        def right(x, atoms=mu.atoms):
            return sum(w * f[t(x, p)] for p, w in atoms)

        def double(x, atoms):  # sum_a w_a sum_b w_b f(x a b), a over atoms, b over mu
            return sum(w * right(t(x, p)) for p, w in atoms)

        def twist(x):
            return right(x, smu)

        want = {
            "1_sigma_odd": sup(f[s[x]] + f[x] for x in range(n)),
            "3_cross_antisym": sup(f[t(s[y], x)] + f[t(s[x], y)] for x in range(n) for y in range(n)),
            "4_twisted_double_mean": sup(double(x, smu) - f[x] * mean for x in range(n)),
            "5_double_mean": sup(double(x, mu.atoms) + f[x] * mean for x in range(n)),
            "6_sigma_right_mean": sup(right(s[x]) - right(x) for x in range(n)),
            "7_sigma_twist_mean": sup(twist(x) - twist(s[x]) for x in range(n)),
            "2_nonzero_mean": abs(mean),
            "8_vanishing_double_mean": max(abs(sum(w * right(p) for p, w in mu.atoms)),
                                           abs(sum(w * twist(p) for p, w in mu.atoms))),
        }
        got = {it.name: it.value for it in identity_battery(s3, f, sigma, mu, force=True)}
        assert got == want

        companion = [right(x) / mean for x in range(n)]
        approx = {
            "1_sigma_odd": want["1_sigma_odd"],
            "2_cross_sum": want["3_cross_antisym"],
            "3_twisted_double_mean": want["4_twisted_double_mean"],
            "4_double_mean": want["5_double_mean"],
            "5_nonzero_mean": want["2_nonzero_mean"],
            "6_sigma_twist_mean": want["7_sigma_twist_mean"],
            "7_sigma_right_mean": want["6_sigma_right_mean"],
            "8_companion_cosine_defect": residual_dalembert(s3, companion, sigma).max_abs,
        }
        got = {it.name: it.lhs for it in approximate_battery(s3, f, sigma, mu, delta=1.0)}
        assert got == approx
