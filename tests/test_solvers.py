from __future__ import annotations

import dataclasses
import hashlib
import itertools
import warnings

import numpy as np
import pytest

from feqlab import (
    DEFAULT_TOL,
    DiracMeasure,
    InvolutiveMorphism,
    MorphismKind,
    ToleranceConfig,
    canonical_json,
    center,
    character_to_scalar,
    cyclic_group,
    direct_product,
    enumerate_all_semigroups,
    enumerate_characters,
    enumerate_involutive_morphisms,
    integrate,
    left_zero,
    match_solution_sets,
    measure_norm,
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
    symmetric_group_3,
    validate_morphism,
    validate_semigroup,
)
from feqlab.characters import characters_cached
from feqlab.equations import (
    EQUATIONS,
    _defect,
    approximate_battery,
    bind_inputs,
    compile_terms,
    identity_battery,
    residual,
)
from feqlab.errors import (
    DegenerateMeasureWarning,
    FeqlabError,
    LengthMismatch,
    NonCentralSupport,
    NonFiniteResidual,
    NotMorphism,
    NotSigmaInvariant,
    UsageError,
    WrongMorphismKind,
)
from feqlab.solvers import (
    DEDUP_TOL,
    ORACLE_TOL,
    ZERO_ROOT_CUTOFF,
    ZERO_VALLEY,
    _QuadraticDefect,
    _cluster_heads,
    _defect_operator,
    _gauss_jordan,
    _polydisk,
    _reported_roots,
    _unit_scale,
    closed_form,
    closed_form_equation,
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
        for chi in enumerate_characters(c4):
            cvec = character_to_scalar(chi)
            mean = integrate(cvec, mu_delta1)
            svec = cvec[list(sigma_neg.map)]
            if abs(mean) <= 1e-9 or abs(integrate(svec, mu_delta1) + mean) > 1e-9:
                continue
            f_chi = (svec - cvec) / 2.0 * mean
            mean_s = integrate(svec, mu_delta1)
            f_schi = (cvec - svec) / 2.0 * mean_s
            assert np.allclose(f_chi, f_schi, atol=1e-12)


def abelian_characters(factors):
    """Every character of C_n1 x C_n2 x ..., as a vector over the
    row-major index direct_product gives: x -> exp(2 pi i sum k_j x_j / n_j),
    one per k."""
    coords = np.array(list(itertools.product(*map(range, factors))))
    return [np.exp(2j * np.pi * sum(kj * coords[:, j] / n for j, (kj, n) in enumerate(zip(k, factors))))
            for k in itertools.product(*map(range, factors))]


def same_set(got, want, atol=1e-12):
    """Equal as sets of vectors, each element within atol of one in the other."""
    return (len(got) == len(want)
            and all(any(np.allclose(g, w, atol=atol) for w in want) for g in got)
            and all(any(np.allclose(g, w, atol=atol) for g in got) for w in want))


class TestSolveVanVleckPoint:
    """The point-mass corollary: on a monoid with z0 central and mu the unit
    mass at z0, the nonzero solutions of the sine variant are
    chi(z0)(chi o sigma - chi)/2 for the characters chi with
    chi(sigma(z0)) = -chi(z0) != 0."""

    @pytest.mark.parametrize("factors", [(4,), (8,), (2, 4)], ids=["C4", "C8", "C2xC4"])
    def test_point_mass_corollary(self, factors):
        sg = cyclic_group(factors[0])
        for n in factors[1:]:
            sg = direct_product(sg, cyclic_group(n))
        chars = abelian_characters(factors)
        nonempty = 0
        for sigma in enumerate_involutive_morphisms(sg, MorphismKind.AUTOMORPHISM):
            s = np.array(sigma.map)
            for z0 in sg.elements():  # an abelian group is its own center
                want = []
                for chi in chars:
                    f = chi[z0] * (chi[s] - chi) / 2
                    if (abs(chi[s[z0]] + chi[z0]) <= 1e-12 and np.max(np.abs(f)) > 1e-12
                            and not any(np.allclose(f, w, atol=1e-12) for w in want)):
                        want.append(f)
                got = solve_vanvleck(sg, sigma, DiracMeasure.point_mass(z0)).vectors()
                assert same_set(got, want), (sigma.map, z0)
                nonempty += bool(want)
        assert nonempty > 0

    def test_fixed_point_z0_empty(self, c4, sigma_neg):
        # sigma(2) = 2 forces chi(2) = -chi(2) but chi(2) = chi(1)^2 != 0
        assert solve_vanvleck(c4, sigma_neg, DiracMeasure.point_mass(2)).solutions == ()

    def test_identity_sigma_empty(self, c4, sigma_id4):
        assert solve_vanvleck(c4, sigma_id4, DiracMeasure.point_mass(1)).solutions == ()

    def test_requires_central_point(self, s3):
        sigma = InvolutiveMorphism(map=(0, 1, 2, 3, 4, 5), kind=MorphismKind.AUTOMORPHISM)
        with pytest.raises(NonCentralSupport):
            solve_vanvleck(s3, sigma, DiracMeasure.point_mass(1))  # a transposition


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

    def test_sigma_of_wrong_length(self, c4):
        short = InvolutiveMorphism(map=(0, 1, 2), kind=MorphismKind.AUTOMORPHISM)
        with pytest.raises(LengthMismatch):
            solve_dalembert(c4, short)

    @pytest.mark.parametrize("entry", [5, -1])
    def test_sigma_entry_out_of_range(self, c4, mu_delta1, entry):
        # a library caller's unvalidated map is refused before any character reads it
        bad = InvolutiveMorphism(map=(0, entry, 2, 1), kind=MorphismKind.AUTOMORPHISM)
        message = rf"sigma\[1\] = {entry} is outside 0\.\.3"
        with pytest.raises(NotMorphism, match=message):
            solve_dalembert(c4, bad)
        with pytest.raises(NotMorphism, match=message):
            solve_vanvleck(c4, bad, mu_delta1)


_POINT1, _POINT2 = DiracMeasure.point_mass(1), DiracMeasure.point_mass(2)
_SINE = np.array([0, 1, 0, -1], dtype=complex)
SIGMA_ENTRIES = {
    "solve_central_dalembert@1": lambda c4, s: solve_central_dalembert(c4, s, _POINT1),
    "solve_central_dalembert@2": lambda c4, s: solve_central_dalembert(c4, s, _POINT2),
    "solve_vanvleck": lambda c4, s: solve_vanvleck(c4, s, _POINT1),
    "solve_dalembert": solve_dalembert,
    "closed_form": lambda c4, s: closed_form("integral_dalembert", c4, s, _POINT2),
    "residual_vanvleck": lambda c4, s: residual_vanvleck(c4, _SINE, s, _POINT1),
    "residual_integral_dalembert@2": lambda c4, s: residual_integral_dalembert(c4, _SINE, s, _POINT2),
    "residual_wilson": lambda c4, s: residual(EQUATIONS["wilson_variant"], c4, _SINE, g=_SINE, sigma=s),
    "residual_dalembert": lambda c4, s: residual_dalembert(c4, _SINE, s),
    "identity_battery": lambda c4, s: identity_battery(c4, _SINE, s, _POINT1),
    "approximate_battery": lambda c4, s: approximate_battery(c4, _SINE, s, _POINT1, 0.1),
    "newton_oracle": lambda c4, s: newton_oracle(c4, "vanvleck", s, _POINT1, starts=4),
    "newton_oracle@2": lambda c4, s: newton_oracle(c4, "corollary33", s, _POINT2, starts=4),
}


@pytest.mark.parametrize("entry", SIGMA_ENTRIES.values(), ids=SIGMA_ENTRIES.keys())
@pytest.mark.parametrize("sigma_map, error, message", [
    ((0, 5, 2, 1), NotMorphism, r"sigma\[1\] = 5 is outside 0\.\.3"),
    ((0, 3, 2), LengthMismatch, "^sigma has 3 entries, semigroup has 4 elements$"),
], ids=["out_of_range", "short"])
def test_malformed_sigma_is_refused_first(c4, entry, sigma_map, error, message):
    # every library path that reads sigma.map checks its shape before the
    # hypotheses, so the error never depends on the measure
    sigma = InvolutiveMorphism(map=sigma_map, kind=MorphismKind.AUTOMORPHISM)
    with pytest.raises(error, match=message):
        entry(c4, sigma)


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
        # the symmetrization step of part (2): (psi + psi o sigma)/2 of a
        # spherical psi solves the middle-integral cosine variant
        central = solve_central_dalembert(c4, sigma_neg, upsilon)
        spherical = solve_spherical(c4, upsilon).vectors()
        assert spherical
        for psi in spherical:
            f = (psi + psi[np.array(sigma_neg.map)]) / 2
            rep = residual(EQUATIONS["integral_dalembert"], c4, f, sigma=sigma_neg, mu=upsilon)
            assert rep.max_abs == 0.0
            assert any(np.allclose(f, ref, atol=1e-12) for ref in central.vectors())


def greedy_closed_form(tag, sg, sigma, mu, tol=DEFAULT_TOL):
    """The closed form as built before characters decided which candidates
    coincide: every candidate went through a greedy sup-norm dedup at
    1e-7, which also dropped any vector with sup <= 1e-7. Returns the
    (vector, character) pairs it kept."""
    eq = EQUATIONS[tag]
    form = eq.closed_form
    if "mu" not in eq.reads:
        mu = None
    out = []
    for chi in characters_cached(sg):
        c = character_to_scalar(chi)
        if mu is not None:
            mean = integrate(c, mu)
            if abs(mean) <= tol.eq_tol:
                continue
        if form.sigma_sign:
            s = c[list(sigma.map)]  # the values of chi o sigma
        if form.sigma_sign < 0:
            if abs(integrate(s, mu) + mean) > tol.eq_tol:
                continue
            f = (s - c) / 2.0
        elif form.sigma_sign > 0:
            f = (c + s) / 2.0
        else:
            f = c
        v = f if mu is None else f * mean
        if np.max(np.abs(v)) <= 1e-7 or any(np.max(np.abs(w - v)) <= 1e-7 for w, _ in out):
            continue
        out.append((v, chi))
    return out


def pairing_corpus():
    """(tag, sg, sigma, mu) over the order <= 3 census plus C4, Klein and
    S3: every involutive morphism of both kinds and every unit central
    point mass; the cosine forms take the mass sigma-symmetrized, and
    only automorphisms where they require one. spherical takes every
    measure the others take on that table, once."""
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    sgs = [sg for n in (1, 2, 3) for sg in enumerate_all_semigroups(n)]
    sgs += [cyclic_group(4), klein, symmetric_group_3()]
    for sg in sgs:
        masses = {}
        for kind in MorphismKind:
            for sigma in enumerate_involutive_morphisms(sg, kind):
                yield "dalembert_variant", sg, sigma, None
                for z in center(sg):
                    point = DiracMeasure.point_mass(z)
                    even = DiracMeasure.from_pairs([(z, 0.5), (sigma.map[z], 0.5)])
                    yield "vanvleck", sg, sigma, point
                    if kind is MorphismKind.AUTOMORPHISM:
                        yield "integral_dalembert", sg, sigma, even
                        yield "corollary33", sg, sigma, even
                    masses.setdefault(point.atoms, point)
                    masses.setdefault(even.atoms, even)
        for mu in masses.values():
            yield "spherical", sg, None, mu


# sha256 of the canonical JSON lines of each tag's solution sets over
# pairing_corpus(), as the greedy dedup built them; any change to the
# bytes of a closed-form solution on this corpus shows here
PAIRING_SHA256 = {
    "vanvleck": "c95a9389f95e13d6d449eca6df16f92f8ad875cc93b5c3ba15b4542dbed406be",
    "dalembert_variant": "102abaf672274cd37ea7ecc4bde5bfad227f4d98acc27c7e438f024d854f5d5e",
    "integral_dalembert": "6563c561fe6c6f0fb887363ea483c832905659132c02596bf28dba685498e5e5",
    "corollary33": "6563c561fe6c6f0fb887363ea483c832905659132c02596bf28dba685498e5e5",
    "spherical": "c8e9ef9239caf6da6aa6132f0b400d73a55942dd5d7a12d9a07694cfdf05206a",
}


class TestCharacterPairing:
    def test_small_sine_measure_keeps_its_solution(self, c4, sigma_neg):
        # sup 1e-8 is below the oracle's DEDUP_TOL, and the mean 1e-10 below
        # the default eq_tol, which dropped it; no tolerance may drop either
        for weight in (1e-8, 1e-10):
            mu = DiracMeasure.point_mass(1, weight)
            sols = solve_vanvleck(c4, sigma_neg, mu)
            assert len(sols.solutions) == 1
            assert np.array_equal(sols.solutions[0].values, np.array([0, weight, 0, -weight]))
            assert np.array_equal(character_to_scalar(sols.solutions[0].provenance.chi),
                                  np.array([1, 1j, -1, -1j]))
            assert residual_vanvleck(c4, sols.solutions[0].values, sigma_neg, mu).max_abs == 0.0

    def test_small_even_measure_keeps_its_solutions(self, c4, sigma_neg):
        mu = DiracMeasure.from_pairs([(1, 0.5e-8), (3, 0.5e-8)])
        central = solve_central_dalembert(c4, sigma_neg, mu).vectors()
        spherical = solve_spherical(c4, mu).vectors()
        assert central and spherical
        assert all(residual_central_dalembert(c4, f, sigma_neg, mu).passed() for f in central)
        assert all(residual_spherical(c4, f, mu).passed() for f in spherical)

    def test_subnormal_mean_reports_no_zero_function(self):
        # on the semilattice {0, a, b} with ab = 0, the indicator of a has
        # (chi + chi o sigma)/2 = 1/2 at a and b and mean 5e-324, whose
        # half rounds to zero; a mean below 2^-1022 is not told from zero,
        # so neither that character nor the constant one (mean 1e-323) is kept
        sg = validate_semigroup([[0, 0, 0], [0, 1, 0], [0, 0, 2]])
        swap = InvolutiveMorphism(map=(0, 2, 1), kind=MorphismKind.AUTOMORPHISM)
        mu = DiracMeasure.from_pairs([(1, 5e-324), (2, 5e-324)])
        assert solve_central_dalembert(sg, swap, mu).solutions == ()
        mu = DiracMeasure.from_pairs([(1, 2.0 ** -1021), (2, 2.0 ** -1021)])
        sols = solve_central_dalembert(sg, swap, mu).vectors()
        assert [f.tolist() for f in sols] == [[0, 2.0 ** -1022, 2.0 ** -1022], [2.0 ** -1020] * 3]

    def test_rounded_zero_mean_is_skipped(self):
        # on C8 with sigma x -> 5x and mu = delta_1 + delta_5, the
        # characters x -> w^(jx) with odd j have mean w^j + w^(5j) = 0,
        # which rounds to about 1e-16; the rounding bound alone skips them
        # (the greedy reference at eq_tol 0 drops their tiny vectors)
        c8 = cyclic_group(8)
        sigma = InvolutiveMorphism(map=tuple(5 * x % 8 for x in range(8)),
                                   kind=MorphismKind.AUTOMORPHISM)
        mu = DiracMeasure.from_pairs([(1, 1.0), (5, 1.0)])
        for tag, count in (("vanvleck", 0), ("integral_dalembert", 4), ("corollary33", 4),
                           ("spherical", 4)):
            got = closed_form(tag, c8, sigma, mu).solutions
            want = greedy_closed_form(tag, c8, sigma, mu, ToleranceConfig(0.0))
            assert [(s.values.tobytes(), s.provenance.chi) for s in got] == \
                [(v.tobytes(), chi) for v, chi in want]
            assert len(got) == count

    @pytest.mark.parametrize("weight", [1.0, 1e150])
    def test_rounded_zero_sum_is_zero(self, weight):
        # on C8 with sigma x -> 5x and mu = delta_1, chi(x) = w^(jx) for
        # j = 2, 6 has mean(chi o sigma) + mean(chi) = w^(5j) + w^j = 0,
        # about 1e-16 ||mu|| in floats; twice the rounding bound of one
        # mean keeps the sine solution, with no tolerance
        c8 = cyclic_group(8)
        sigma = InvolutiveMorphism(map=tuple(5 * x % 8 for x in range(8)),
                                   kind=MorphismKind.AUTOMORPHISM)
        got = solve_vanvleck(c8, sigma, DiracMeasure.point_mass(1, weight)).solutions
        want = greedy_closed_form("vanvleck", c8, sigma, DiracMeasure.point_mass(1))
        assert len(got) == len(want) == 2
        for sol, (v, chi) in zip(got, want):
            assert sol.provenance.chi == chi
            assert np.max(np.abs(sol.values - weight * v)) <= 1e-15 * weight

    def test_rounding_allowances_stay_small(self, c4, sigma_neg):
        # a mean of 2^-40 with ||mu|| about 2 is no rounding: chi = 1 and
        # chi = (-1)^x keep their solutions
        mu = DiracMeasure.from_pairs([(0, 1.0), (2, -(1 - 2.0 ** -40))])
        sups = sorted(float(np.max(np.abs(f))) for f in solve_spherical(c4, mu).vectors())
        assert sups == [2.0 ** -40, 2.0 ** -40, 2 - 2.0 ** -40, 2 - 2.0 ** -40]
        # nor is mean(chi o sigma) + mean(chi) = -2e-12: i^x gives no sine
        # solution, where eq_tol 1e-9 let through [0, 1+1e-12i, 0, -1-1e-12i],
        # whose residual is 2e-12
        mu = DiracMeasure.from_pairs([(1, 1.0), (2, 1e-12)])
        assert solve_vanvleck(c4, sigma_neg, mu).solutions == ()
        leaked = np.array([0, 1 + 1e-12j, 0, -1 - 1e-12j])
        assert residual_vanvleck(c4, leaked, sigma_neg, mu).max_abs >= 1e-12

    def test_same_as_greedy_dedup_and_pinned_bytes(self):
        lines = {tag: [] for tag in EQUATIONS if EQUATIONS[tag].closed_form}
        for tag, sg, sigma, mu in pairing_corpus():
            got = closed_form(tag, sg, sigma, mu)
            want = greedy_closed_form(tag, sg, sigma, mu)
            assert [(s.values.tobytes(), s.provenance.chi) for s in got.solutions] == \
                [(v.tobytes(), chi) for v, chi in want]
            assert all(s.provenance.formula == EQUATIONS[tag].closed_form.formula
                       for s in got.solutions)
            lines[tag].append(canonical_json(got.to_json()))
        digests = {tag: hashlib.sha256("\n".join(out).encode()).hexdigest()
                   for tag, out in lines.items()}
        assert digests == PAIRING_SHA256


class TestColdCache:
    def test_fresh_characters_give_the_same_bytes(self):
        # solve_ladder clears characters_cached before each group; the
        # memos on the characters must go with it and change no bit
        sg = direct_product(cyclic_group(4), cyclic_group(4))  # (x, y) at 4x + y
        neg = validate_morphism(sg, [(-x % 4) * 4 + (-y % 4) for x in range(4) for y in range(4)],
                                MorphismKind.AUTOMORPHISM)
        w = 0.75 * np.exp(0.3j)
        point = DiracMeasure.point_mass(1, w)
        even = DiracMeasure.from_pairs([(1, w / 2), (neg.map[1], w / 2)])
        cases = {"vanvleck": (neg, point), "dalembert_variant": (neg, None),
                 "integral_dalembert": (neg, even), "corollary33": (neg, even),
                 "spherical": (None, even)}
        assert set(cases) == {tag for tag in EQUATIONS if EQUATIONS[tag].closed_form}
        first = {tag: closed_form(tag, sg, *inputs) for tag, inputs in cases.items()}
        characters_cached.cache_clear()
        second = {tag: closed_form(tag, sg, *inputs) for tag, inputs in cases.items()}
        for tag in cases:
            old, new = first[tag].solutions, second[tag].solutions
            assert old and len(old) == len(new)
            assert [s.values.tobytes() for s in old] == [s.values.tobytes() for s in new]
            for a, b in zip(old, new):
                assert a.provenance == b.provenance
                assert a.provenance.chi is not b.provenance.chi
                assert character_to_scalar(a.provenance.chi) is not character_to_scalar(b.provenance.chi)


class TestNewtonOracle:
    def test_vanvleck_c4(self, c4, sigma_neg, mu_delta1, sine):
        roots = newton_oracle(c4, "vanvleck", sigma_neg, mu_delta1, starts=200, seed=0)
        assert len(roots) == 1
        assert np.max(np.abs(roots[0] - sine)) <= 1e-9

    def test_identity_sigma_no_roots(self, c4, sigma_id4, mu_delta1):
        roots = newton_oracle(c4, "vanvleck", sigma_id4, mu_delta1, starts=150, seed=1)
        assert roots == []

    def test_dalembert_three_roots(self, c4, sigma_neg):
        roots = newton_oracle(c4, "dalembert_variant", sigma_neg, None, starts=250, seed=2)
        refs = solve_dalembert(c4, sigma_neg).vectors()
        pairs, extra, missing = match_solution_sets(roots, refs)
        assert len(pairs) == 3 and not extra and not missing

    def test_spherical_roots(self, c4, upsilon):
        roots = newton_oracle(c4, "spherical", None, upsilon, starts=200, seed=3)
        refs = solve_spherical(c4, upsilon).vectors()
        pairs, extra, missing = match_solution_sets(roots, refs)
        assert len(pairs) == 2 and not extra and not missing

    def test_corollary_roots(self, c4, sigma_neg, upsilon):
        roots = newton_oracle(c4, "corollary33", sigma_neg, upsilon, starts=200, seed=4)
        refs = solve_central_dalembert(c4, sigma_neg, upsilon).vectors()
        pairs, extra, missing = match_solution_sets(roots, refs)
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
        with pytest.raises(UsageError, match="seed"):
            newton_oracle(c4, "spherical", None, mu_delta1, seed=-1)

    @pytest.mark.parametrize("weight", [1e-8, 1e-3, 1e8])
    def test_scale_free(self, c4, sigma_neg, weight):
        # the defect is homogeneous in (f, mu), so the oracle solves at unit
        # norm: its roots are weight times the unit-weight roots, bit for bit.
        # Absolute cutoffs found no root at 1e-8 and 1e-3, and 3 of the 4
        # spherical roots at 1e8.
        for tag, sigma, atoms, count in (("vanvleck", sigma_neg, [(1, 1.0)], 1),
                                         ("corollary33", sigma_neg, [(1, 0.5), (3, 0.5)], 2),
                                         ("spherical", None, [(1, 1.0)], 4)):
            unit = DiracMeasure.from_pairs(atoms)
            mu = DiracMeasure.from_pairs([(p, weight * w) for p, w in atoms])
            got = newton_oracle(c4, tag, sigma, mu, starts=200, seed=0)
            want = newton_oracle(c4, tag, sigma, unit, starts=200, seed=0)
            assert len(got) == len(want) == count, tag
            assert sorted(v.tobytes() for v in got) == sorted((v * weight).tobytes() for v in want)
            refs = closed_form(tag, c4, sigma, mu).vectors()
            pairs, extra, missing = match_solution_sets(got, refs, mu)
            assert len(pairs) == count and not extra and not missing, tag

    @pytest.mark.parametrize("weight", [1e-310, 5e-324])
    def test_subnormal_scale_matches_without_overflow(self, weight):
        # the gate is scaled, not the vectors: divided by a subnormal norm
        # they overflowed, with RuntimeWarnings
        mu = DiracMeasure.point_mass(1, weight)
        root = np.array([0, 1, 0, -1], dtype=complex)
        assert match_solution_sets([root], [], mu) == ([], [0], [])
        assert match_solution_sets([root, root * weight], [root * weight], mu) == ([(1, 0)], [0], [])

    def test_overflowing_norm_raises_at_the_starts(self, c4, sigma_neg):
        # ||mu|| = inf is not scaled to unit norm, so the starts and their
        # defect are not finite; the CLI's closed form refuses this norm first
        mu = DiracMeasure.from_pairs([(1, 1e308), (3, 1e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResidual, match="^vanvleck oracle defect is not finite at the starts"):
                newton_oracle(c4, "vanvleck", sigma_neg, mu, starts=8)

    def test_unneeded_measure_scales_nothing(self, c4, sigma_neg):
        got = newton_oracle(c4, "dalembert_variant", sigma_neg, DiracMeasure.point_mass(1, 1e-3),
                            starts=100, seed=2)
        want = newton_oracle(c4, "dalembert_variant", sigma_neg, None, starts=100, seed=2)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want] and len(want) == 3

    def test_small_census_spot_checks(self):
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
            pairs, extra, missing = match_solution_sets(roots, refs)
            assert not extra and not missing


def greedy_cluster_heads(rows, dedup_tol):
    """The oracle's clustering as a scalar loop: each row joins the first
    cluster with any member within dedup_tol, else opens a new one."""
    heads, members = [], []
    for vec in rows:
        for group in members:
            if any(float(np.max(np.abs(vec - m))) <= dedup_tol for m in group):
                group.append(vec)
                break
        else:
            heads.append(vec)
            members.append([vec])
    return heads


class TestClusterHeads:
    TOL = 1e-7

    def check(self, rows):
        rows = np.asarray(rows, dtype=complex)
        got = _cluster_heads(rows, self.TOL)
        want = greedy_cluster_heads(rows, self.TOL)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        return got

    def test_chain_is_one_cluster(self):
        # a ~ b and b ~ c, but a and c are 1.6 tol apart: single linkage joins all three
        a, b, c = [0.0, 1.0], [0.8e-7, 1.0], [1.6e-7, 1.0]
        heads = self.check([a, b, c])
        assert len(heads) == 1 and np.array_equal(heads[0], np.array(a, dtype=complex))
        # in the order a, c, b the chain closes only at b, which joins a's cluster
        assert len(self.check([a, c, b])) == 2

    def test_bound_is_inclusive(self):
        assert len(self.check([[0.0], [self.TOL], [2 * self.TOL + 1e-9]])) == 2

    def test_row_near_two_clusters(self):
        # x is within tol of both heads and joins the first one opened; the
        # last row is near x and the second head, in different clusters
        first, second, x = [0.0, 0.0], [1.8e-7, 0.0], [0.9e-7, 0.0]
        heads = self.check([first, second, x, [1.85e-7, 0.0]])
        assert [h[0].real for h in heads] == [0.0, 1.8e-7]

    def test_empty(self):
        assert _cluster_heads(np.zeros((0, 3), dtype=complex), self.TOL) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3
        centres = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        picks = rng.integers(0, 4, 120)
        scale = self.TOL * rng.uniform(0.2, 2.0)
        rows = centres[picks] + scale * (rng.standard_normal((120, n)) + 1j * rng.standard_normal((120, n)))
        self.check(rows)

    def test_3000_rows_match_one_distance_row_per_row(self):
        # chains and near-ties around 40 centres, and 200 scattered singletons
        rng = np.random.default_rng(2024)
        centres = rng.standard_normal((40, 4)) + 1j * rng.standard_normal((40, 4))
        noise = rng.standard_normal((2800, 4)) + 1j * rng.standard_normal((2800, 4))
        rows = np.concatenate([centres[rng.integers(0, 40, 2800)] + 0.6 * self.TOL * noise,
                               rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4))])
        rows = rows[rng.permutation(len(rows))]
        got = _cluster_heads(rows, self.TOL)
        want = one_row_per_k_heads(rows, self.TOL)
        assert 240 <= len(want) < len(rows)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def one_row_per_k_heads(V, dedup_tol):
    """The oracle's clustering with one distance row per row: the
    quadratic reference _cluster_heads must agree with."""
    return [V[k] for k in range(len(V))
            if not np.any(np.max(np.abs(V[:k] - V[k]), axis=1) <= dedup_tol)]


CLOSED_FORM_TAGS = [tag for tag, eq in EQUATIONS.items() if eq.closed_form is not None]


def explicit_normal_equations(L, c, F, r, lam):
    """J^H J + lam I and J^H r from the Jacobian of r(f) = L f - c f(x) f(y),
    written out entry by entry."""
    starts, n = F.shape
    J = np.broadcast_to(L, (starts, n * n, n)).copy()
    for s in range(starts):
        for x in range(n):
            for y in range(n):
                J[s, x * n + y, x] -= c * F[s, y]
                J[s, x * n + y, y] -= c * F[s, x]
    JH = np.conj(np.transpose(J, (0, 2, 1)))
    return JH @ J + lam[:, None, None] * np.eye(n), (JH @ r[:, :, None])[:, :, 0]


def word_at(sg, word, letters):
    """The product of word's letters, left to right, with sg.mul."""
    value = letters[word[0]]
    for letter in word[1:]:
        value = sg.mul(value, letters[letter])
    return value


def words_operator(eq, sg, sigma, mu):
    """The linear part L (n^2 x n) of eq's defect, built cell by cell from
    its words with sg.mul: per cell, each atom in order adds its weight
    times the signs of the middle words (a t b) at the elements they
    evaluate to; then the plain (a b) and trailing (a b t) words add
    their signs left to right, a trailing word the sum, atom by atom, of
    the weights at the elements it evaluates to. The order in which the
    oracle's operator must add them, so the two agree bit for bit."""
    n = sg.n
    L = np.zeros((n * n, n), dtype=complex)
    middle = [term for term in eq.terms if term.word[1:2] == "t"]
    rest = [term for term in eq.terms if term.word[1:2] != "t"]
    for x in range(n):
        for y in range(n):
            letters = {"x": x, "y": y, "s": None if sigma is None else sigma.map[y]}
            for p, w in mu.atoms if middle else ():
                signs = np.zeros(n)
                for term in middle:
                    signs[word_at(sg, term.word, {**letters, "t": p})] += term.sign
                L[x * n + y] += signs * w
            for term in rest:
                values = np.zeros(n, dtype=complex)
                if "t" in term.word:
                    for p, w in mu.atoms:
                        values[word_at(sg, term.word, {**letters, "t": p})] += w
                else:
                    values[word_at(sg, term.word, letters)] = 1.0
                L[x * n + y] += term.sign * values
    return L


def operator_cases(s3):
    """(name, sg, involutive sigma, atoms) on C4, the Klein group, S3 and
    the left-zero semigroup LZ3; the oracle's operator checks no
    hypothesis, so the atoms need not be central or invariant."""
    auto = MorphismKind.AUTOMORPHISM
    return [
        ("C4", cyclic_group(4), InvolutiveMorphism((0, 3, 2, 1), auto), (1, 2, 3)),
        ("Klein", direct_product(cyclic_group(2), cyclic_group(2)), InvolutiveMorphism((0, 2, 1, 3), auto),
         (0, 1, 2)),
        ("S3", s3, conjugation_by(s3, 1), (0, 1, 4)),
        ("LZ3", left_zero(3), InvolutiveMorphism((1, 0, 2), auto), (0, 2, 1)),
    ]


class TestDefectOperator:
    """The oracle's L against one built from the words, to the bit."""

    @pytest.mark.parametrize("weights", ["real", "complex"])
    @pytest.mark.parametrize("tag", CLOSED_FORM_TAGS)
    def test_equals_words_cell_by_cell(self, tag, weights, s3):
        eq = EQUATIONS[tag]
        rng = np.random.default_rng(len(tag))
        for name, sg, sigma, points in operator_cases(s3):
            w = rng.normal(size=3) * 10.0 ** rng.integers(-3, 4, 3)
            if weights == "complex":
                w = w + 1j * rng.normal(size=3)
            mu = DiracMeasure.from_pairs(list(zip(points, w.tolist())))
            L = _defect_operator(eq, sg, sigma, mu, 1).L
            assert L.tobytes() == words_operator(eq, sg, sigma, mu).tobytes(), name


class TestNormalEquations:
    @pytest.mark.parametrize("tag", CLOSED_FORM_TAGS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_form_equals_explicit_jacobian(self, tag, n):
        eq = EQUATIONS[tag]
        sg = cyclic_group(n)
        sigma = InvolutiveMorphism(map=tuple((-x) % n for x in range(n)), kind=MorphismKind.AUTOMORPHISM)
        mu = DiracMeasure.from_pairs([(n - 1, 0.7 - 0.4j), (0, -0.3 + 1.1j)])
        defect = _defect_operator(eq, sg, sigma, mu, 7)
        rng = np.random.default_rng(n)
        F = rng.standard_normal((7, n)) + 1j * rng.standard_normal((7, n))
        # the oracle holds starts on the last axis
        r = defect.residuals(F.T, np.empty((n * n, 7), dtype=complex)).T
        for f, row in zip(F, r):
            grid = _defect(eq, compile_terms(eq, sg, sigma, mu), f, None)
            assert np.max(np.abs(row.reshape(n, n) - grid)) <= 1e-12 * np.max(np.abs(grid))
        lam = 10.0 ** rng.uniform(-12, 2, 7)
        M = defect.augmented(F.T, r.T, lam)
        assert M.shape == (n, n + 1, 7)
        A, g = M[:, :n].transpose(2, 0, 1), -M[:, n].T
        A_ref, g_ref = explicit_normal_equations(defect.L, defect.c, F, r, lam)
        assert np.max(np.abs(A - A_ref)) <= 1e-12 * np.max(np.abs(A_ref))
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))


# the floating-point state newton_oracle runs _gauss_jordan under
ORACLE_ERRSTATE = dict(over="ignore", invalid="ignore", divide="ignore")


def hpd_batch(rng, n, starts):
    """starts systems J^H J + lam I, x = b, stacked on the last axis of an
    n x (n+1) x starts array as the oracle builds them, with J of O(1)
    entries and often fewer rows than columns (so lam is the smallest
    eigenvalue) and lam from 1e-12 to 1e14; also A and b start-first."""
    rows = rng.integers(1, n * n + 1)
    J = rng.standard_normal((starts, rows, n)) + 1j * rng.standard_normal((starts, rows, n))
    J *= 10.0 ** rng.uniform(-1, 1, (starts, 1, 1))
    lam = 10.0 ** rng.uniform(-12, 14, starts)
    lam[:2] = 1e-12, 1e14
    A = np.conj(J.transpose(0, 2, 1)) @ J + lam[:, None, None] * np.eye(n)
    b = rng.standard_normal((starts, n)) + 1j * rng.standard_normal((starts, n))
    b *= 10.0 ** rng.uniform(-6, 6, (starts, 1))
    M = np.ascontiguousarray(np.concatenate([A, b[:, :, None]], axis=2).transpose(1, 2, 0))
    return M, A, b


class TestGaussJordan:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_backward_error_and_lapack(self, n, seed):
        M, A, b = hpd_batch(np.random.default_rng((n, seed)), n, 50)
        x = _gauss_jordan(M).T
        norm_A = np.linalg.norm(A, 2, axis=(1, 2))
        norm_x = np.linalg.norm(x, axis=1)
        assert np.all(np.linalg.norm((A @ x[:, :, None])[:, :, 0] - b, axis=1) <= 1e-12 * norm_A * norm_x)
        # forward error within the usual bound for a backward-stable solve
        ref = np.linalg.solve(A, b[:, :, None])[:, :, 0]
        assert np.all(np.linalg.norm(x - ref, axis=1)
                      <= 1e-12 * np.linalg.cond(A) * np.linalg.norm(ref, axis=1))

    @pytest.mark.parametrize("bad", ["nan", "inf", "zero_pivot"])
    def test_non_finite_start_leaves_the_others_alone(self, bad):
        n, starts, hit = 3, 8, 5
        M, _, _ = hpd_batch(np.random.default_rng(11), n, starts)
        alone = [_gauss_jordan(M[:, :, [s]].copy())[:, 0] for s in range(starts)]
        if bad == "zero_pivot":
            M[:, :n, hit] = 0.0
        else:
            M[1, :, hit] = float(bad)
        with np.errstate(**ORACLE_ERRSTATE), warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _gauss_jordan(M)
        assert not np.any(np.isfinite(x[:, hit]))
        for s in range(starts):
            if s != hit:
                assert np.array_equal(x[:, s], alone[s])

    def test_oracle_rejects_a_singular_step(self, c4, sigma_neg, mu_delta1, monkeypatch):
        # one start's matrix is zeroed at every step: its step divides by a
        # zero pivot, is rejected, and no warning or error escapes
        want = newton_oracle(c4, "vanvleck", sigma_neg, mu_delta1, starts=60, seed=3)
        calls = []

        def singular_start(M):
            calls.append(M.shape)
            M[:, :-1, 7] = 0.0
            return _gauss_jordan(M)

        monkeypatch.setattr("feqlab.solvers._gauss_jordan", singular_start)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = newton_oracle(c4, "vanvleck", sigma_neg, mu_delta1, starts=60, seed=3)
        # the oracle solved its steps through the patched elimination
        assert calls and set(calls) == {(4, 5, 60)}
        assert len(got) == len(want) > 0
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def jacobian_oracle(sg, eq, sigma, mu, starts, seed):
    """newton_oracle with an explicit (starts, n^2, n) Jacobian, the
    residual recomputed at the top of each iteration and every converged
    row clustered: the reference for the closed-form normal equations
    and the cutoff filter. Like the oracle it solves for mu / ||mu|| and
    scales the roots back (every witness measure has a positive norm).
    It keeps the oracle's first stop rule on purpose: it runs until every
    start has converged or stalled, also those in the zero valley, so
    matching its roots shows that stopping once the rest sit at or below
    ZERO_VALLEY loses no root."""
    n = sg.n
    scale = measure_norm(mu) if mu is not None else 1.0
    if mu is not None:
        mu = DiracMeasure.from_pairs([(p, w / scale) for p, w in mu.atoms])
    rows = np.arange(n * n)
    L = words_operator(eq, sg, sigma, mu)
    c = eq.products[0].coef
    xs, ys = rows // n, rows % n

    def residuals(F):
        return F @ L.T - c * F[:, xs] * F[:, ys]

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    radius = (measure_norm(mu) if mu is not None else 1.0) + 1.0
    u = rng.random((starts, n))
    theta = rng.random((starts, n))
    F = radius * np.sqrt(u) * np.exp(2j * np.pi * theta)
    lam = np.full(starts, 1e-3)
    cost = np.sum(np.abs(residuals(F)) ** 2, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(80):
            r = residuals(F)
            J = np.broadcast_to(L, (starts, n * n, n)).copy()
            J[:, rows, xs] -= c * F[:, ys]
            J[:, rows, ys] -= c * F[:, xs]
            JH = np.conj(np.transpose(J, (0, 2, 1)))
            step = np.linalg.solve(JH @ J + lam[:, None, None] * np.eye(n), -(JH @ r[:, :, None]))[:, :, 0]
            F_try = F + step
            cost_try = np.sum(np.abs(residuals(F_try)) ** 2, axis=1)
            better = cost_try < cost
            F = np.where(better[:, None], F_try, F)
            cost = np.where(better, cost_try, cost)
            lam = np.where(better, np.maximum(lam * 0.4, 1e-12), np.minimum(lam * 10.0, 1e14))
            if np.all((cost <= 1e-26) | (lam >= 1e13)):
                break
    return unfiltered_roots(F, np.max(np.abs(residuals(F)), axis=1), scale)


def unfiltered_roots(F, res_inf, scale=1.0):
    """Every converged row clustered one distance row per row, then the
    cutoff applied and the roots scaled and sorted canonically."""
    order = sorted((i for i in range(len(F)) if res_inf[i] <= ORACLE_TOL),
                   key=lambda i: (float(res_inf[i]), i))
    roots = [v * scale for v in one_row_per_k_heads(F[order], DEDUP_TOL)
             if float(np.max(np.abs(v))) > ZERO_ROOT_CUTOFF]
    roots.sort(key=lambda v: tuple((round(z.real, 8), round(z.imag, 8)) for z in v))
    return roots


def oracle_witnesses(s3):
    """(name, sg, automorphism, measure for the sine variant, sigma-invariant
    measure for the cosine family) on C4, the Klein group and S3."""
    c4 = cyclic_group(4)
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    auto = MorphismKind.AUTOMORPHISM
    return [
        ("C4", c4, InvolutiveMorphism(map=(0, 3, 2, 1), kind=auto), DiracMeasure.point_mass(1),
         DiracMeasure.from_pairs([(1, 0.5), (3, 0.5)])),
        ("Klein", klein, InvolutiveMorphism(map=(0, 2, 1, 3), kind=auto), DiracMeasure.point_mass(1),
         DiracMeasure.from_pairs([(1, 0.5), (2, 0.5)])),
        ("S3", s3, conjugation_by(s3, 1), DiracMeasure.point_mass(0), DiracMeasure.point_mass(0, 0.75)),
    ]


class TestOracleAgainstJacobian:
    @pytest.mark.parametrize("tag", CLOSED_FORM_TAGS)
    def test_same_roots_as_explicit_jacobian(self, tag, s3):
        eq = EQUATIONS[tag]
        found = 0
        for name, sg, sigma, sine_mu, cosine_mu in oracle_witnesses(s3):
            sigma = sigma if "sigma" in eq.reads else None
            mu = (sine_mu if tag == "vanvleck" else cosine_mu) if "mu" in eq.reads else None
            for seed in range(3):
                got = newton_oracle(sg, tag, sigma, mu, starts=40, seed=seed)
                want = jacobian_oracle(sg, eq, sigma, mu, 40, seed)
                assert len(got) == len(want), (name, seed)
                for a, b in zip(got, want):
                    assert np.max(np.abs(a - b)) <= 1e-12, (name, seed)
                found += len(want)
        assert found > 0


def fresh_residuals(defect, F):
    """The defect at each column of F, in fresh arrays."""
    return defect.L @ F - defect.c * F[defect.xs] * F[defect.ys]


def fresh_augmented(defect, F, r, lam):
    """[J^H J + lam I | -J^H r] built in fresh arrays, as the oracle's loop
    built it before it worked in place."""
    n, starts = F.shape
    cF = defect.c * F
    cF_bar = np.conj(cF)
    M = np.empty((n, n + 1, starts), dtype=complex)
    H = cF[:, None] * cF_bar - (defect.cPT @ F).reshape(n, n, starts)
    A = M[:, :n]
    np.add(H, np.conj(H.transpose(1, 0, 2)), out=A)
    A += defect.LhL
    M.reshape(n * (n + 1), starts)[::n + 2] += 2.0 * np.sum(np.abs(cF) ** 2, axis=0) + lam
    R = r.reshape(n, n, starts)
    M[:, n] = np.sum((R + R.transpose(1, 0, 2)) * cF_bar, axis=1) - defect.L_H @ r
    return M


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fresh_oracle_state(sg, tag, sigma, mu, starts, seed):
    """The final (F, res_inf) that newton_oracle hands to _reported_roots,
    from its loop as it stood with starts on the last axis and fresh
    arrays at every step (three np.where per step), started from a
    C-ordered copy of the polydisk points, and stopped once every start
    has converged, stalled or come to sup |f| <= ZERO_VALLEY: the bit
    reference for the loop that works in place."""
    eq = closed_form_equation(tag)
    mu, _ = bind_inputs(eq, sg, sigma, mu, hypotheses=())
    norm = 1.0 if mu is None else measure_norm(mu)
    scale = _unit_scale(mu)
    mu = None if mu is None else DiracMeasure(tuple((p, w / scale) for p, w in mu.atoms))
    defect = _defect_operator(eq, sg, sigma, mu, starts)
    F = np.ascontiguousarray(_polydisk(seed, norm / scale + 1.0, (starts, sg.n)).T)
    lam = np.full(starts, 1e-3)
    r = fresh_residuals(defect, F)
    cost = np.sum(np.abs(r) ** 2, axis=0)
    for _ in range(80):
        F_try = F + _gauss_jordan(fresh_augmented(defect, F, r, lam))
        r_try = fresh_residuals(defect, F_try)
        cost_try = np.sum(np.abs(r_try) ** 2, axis=0)
        better = cost_try < cost
        F = np.where(better, F_try, F)
        r = np.where(better, r_try, r)
        cost = np.where(better, cost_try, cost)
        lam = np.where(better, np.maximum(lam * 0.4, 1e-12), np.minimum(lam * 10.0, 1e14))
        if np.all((cost <= 1e-26) | (lam >= 1e13) | (np.max(np.abs(F), axis=0) <= ZERO_VALLEY)):
            break
    return F.T, np.max(np.abs(r), axis=0)


def bit_reference_cases(s3):
    """(name, sg, sigma, measure, starts, seeds) for every closed-form tag:
    the C4 fixtures at 200 starts; the Klein group and S3 (oracle_witnesses);
    one order-3 census table, swept as the census is, with every
    involutive morphism and a unit mass at each central point; C2xC4,
    of order 8; and the trivial group at one start, whose arrays hold a
    single element."""
    auto = MorphismKind.AUTOMORPHISM
    cases = [("C4", cyclic_group(4), InvolutiveMorphism((0, 3, 2, 1), auto), DiracMeasure.point_mass(1),
              DiracMeasure.from_pairs([(1, 0.5), (3, 0.5)]), 200, (0, 1))]
    cases += [(name, sg, sigma, sine_mu, cosine_mu, 60, (0, 1))
              for name, sg, sigma, sine_mu, cosine_mu in oracle_witnesses(s3)[1:]]
    census = next(sg for sg in enumerate_all_semigroups(3) if sg.table == ((0, 1, 1), (1, 1, 1), (1, 1, 2)))
    cases += [(f"census-{kind.value}{sigma.map}-{z}", census, sigma, DiracMeasure.point_mass(z),
               DiracMeasure.point_mass(z), 120, (0,))
              for kind in MorphismKind for sigma in enumerate_involutive_morphisms(census, kind)
              for z in center(census)]
    c2xc4 = direct_product(cyclic_group(2), cyclic_group(4))
    negation = InvolutiveMorphism((0, 3, 2, 1, 4, 7, 6, 5), auto)  # x -> -x
    cases.append(("C2xC4", c2xc4, negation, DiracMeasure.point_mass(5), DiracMeasure.point_mass(0, 0.75),
                  30, (0,)))
    trivial = cyclic_group(1)
    cases.append(("C1", trivial, InvolutiveMorphism((0,), auto), DiracMeasure.point_mass(0, 0.3 - 0.8j),
                  DiracMeasure.point_mass(0, 1.7), 1, range(8)))
    return cases


class TestOracleBits:
    """The loop that works in place against its fresh-array reference,
    bit for bit, at the state newton_oracle hands to _reported_roots."""

    @pytest.mark.parametrize("tag", CLOSED_FORM_TAGS)
    def test_final_state_equals_fresh_loop(self, tag, s3, monkeypatch):
        eq = EQUATIONS[tag]
        seen = []

        def record(F, res_inf, scale=1.0):
            seen.append((F.copy(), res_inf.copy()))
            return _reported_roots(F, res_inf, scale)

        monkeypatch.setattr("feqlab.solvers._reported_roots", record)
        for name, sg, sigma, sine_mu, cosine_mu, starts, seeds in bit_reference_cases(s3):
            sigma = sigma if "sigma" in eq.reads else None
            mu = (sine_mu if tag == "vanvleck" else cosine_mu) if "mu" in eq.reads else None
            for seed in seeds:
                seen.clear()
                newton_oracle(sg, tag, sigma, mu, starts=starts, seed=seed)
                F, res_inf = seen[0]
                F_ref, res_ref = fresh_oracle_state(sg, tag, sigma, mu, starts, seed)
                assert np.array_equal(F, F_ref) and np.array_equal(res_inf, res_ref), (name, seed)


class TestOracleStop:
    def test_zero_valley_starts_settle_the_census_loop(self, monkeypatch):
        """On an order-3 census table, swept as the census is, every call
        stops within 13 steps (25 when the valley starts had to reach cost
        1e-26), and every start it hands to _reported_roots has converged
        or lies at or below ZERO_VALLEY. None can have stalled: lam grows
        from 1e-3 by at most 10 a step, so 13 steps leave it below 1e13."""
        census = next(sg for sg in enumerate_all_semigroups(3) if sg.table == ((0, 1, 1), (1, 1, 1), (1, 1, 2)))
        steps, seen = [], []

        def count(M):
            steps[-1] += 1
            return _gauss_jordan(M)

        def record(F, res_inf, scale=1.0):
            seen.append(F.copy())
            return _reported_roots(F, res_inf, scale)

        monkeypatch.setattr("feqlab.solvers._gauss_jordan", count)
        monkeypatch.setattr("feqlab.solvers._reported_roots", record)
        eq = EQUATIONS["vanvleck"]
        for kind in MorphismKind:
            for sigma in enumerate_involutive_morphisms(census, kind):
                for z in center(census):
                    mu = DiracMeasure.point_mass(z)
                    steps.append(0)
                    seen.clear()
                    newton_oracle(census, "vanvleck", sigma, mu, starts=120, seed=0)
                    assert 0 < steps[-1] <= 13, (sigma.map, z, steps[-1])
                    F = seen[0].T
                    r = _defect_operator(eq, census, sigma, mu, 120).residuals(F, np.empty((9, 120), complex))
                    converged = np.sum(np.abs(r) ** 2, axis=0) <= 1e-26
                    assert (converged | (np.max(np.abs(F), axis=0) <= ZERO_VALLEY)).all(), (sigma.map, z)
        assert len(steps) == 12


class TestOracleWorkspace:
    def test_steps_write_to_arrays_allocated_once(self, c4, sigma_neg, mu_delta1, monkeypatch):
        """Every system a call builds is its defect's own M, and every
        defect is written to the out it was given."""
        augmented, residuals = _QuadraticDefect.augmented, _QuadraticDefect.residuals
        systems, defects = [], []

        def record_augmented(self, F, r, lam):
            systems.append((self, augmented(self, F, r, lam)))
            return systems[-1][1]

        def record_residuals(self, F, out):
            defects.append((self, out, residuals(self, F, out)))
            return defects[-1][2]

        monkeypatch.setattr(_QuadraticDefect, "augmented", record_augmented)
        monkeypatch.setattr(_QuadraticDefect, "residuals", record_residuals)
        newton_oracle(c4, "vanvleck", sigma_neg, mu_delta1, starts=50, seed=0)
        defect = systems[0][0]
        assert len(systems) > 1 and len(defects) == len(systems) + 1
        assert all(owner is defect and M is defect.M for owner, M in systems)
        assert all(owner is defect and got is out for owner, out, got in defects)


class TestReportedRoots:
    @pytest.mark.parametrize("below_first", [True, False])
    def test_row_at_cutoff_near_a_row_below_it(self, below_first):
        eps = DEDUP_TOL
        below = [ZERO_ROOT_CUTOFF - 0.4 * eps, 0.0]
        above = [ZERO_ROOT_CUTOFF + 0.4 * eps, 0.0]
        rng = np.random.default_rng(7)
        valley = 1e-4 * (rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2)))
        F = np.concatenate([np.array([below, above, [1.0, -1.0], [1.0 + 0.5 * eps, -1.0]], dtype=complex),
                            valley, [[ZERO_ROOT_CUTOFF - 2 * eps, 0.0]], [[0.5, 0.5]]])
        res_inf = np.concatenate([[1e-9, 2e-9] if below_first else [2e-9, 1e-9], [3e-10, 1e-10],
                                  rng.uniform(0.0, 1e-8, 50), [0.0], [1.0]])
        got = _reported_roots(F, res_inf, 1.0)
        want = unfiltered_roots(F, res_inf)
        # the pair at 1 is one root; the row above the cutoff is one only when it comes first
        assert len(got) == len(want) == (1 if below_first else 2)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestOracleStarts:
    @pytest.mark.parametrize("seed", [0, 42, (42, 7), (0, 999, 1)])
    def test_stream_is_explicit_pcg64(self, seed):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        u = rng.random((50, 4))
        theta = rng.random((50, 4))
        want = 2.0 * np.sqrt(u) * np.exp(2j * np.pi * theta)
        assert np.array_equal(_polydisk(seed, 2.0, (50, 4)), want)

    def test_oracle_starts_from_polydisk(self, c4, sigma_neg, mu_delta1, monkeypatch):
        seen = []

        def record(seed, radius, shape):
            seen.append((seed, radius, shape))
            return _polydisk(seed, radius, shape)

        monkeypatch.setattr("feqlab.solvers._polydisk", record)
        newton_oracle(c4, "vanvleck", sigma_neg, mu_delta1, starts=30, seed=4)
        newton_oracle(c4, "dalembert_variant", sigma_neg, None, starts=20, seed=5)
        # radius 1 + ||mu||, and 2 without a measure
        assert seen == [(4, 2.0, (30, 4)), (5, 2.0, (20, 4))]


class TestSelfCheck:
    def test_laws_need_no_hypothesis_beyond_the_form(self):
        # closed_form checks the form's hypotheses once and none of the laws
        # it verifies against; a law needing more would skip it silently
        for tag, eq in EQUATIONS.items():
            form = eq.closed_form
            if form is None:
                continue
            laws = [law for law in EQUATIONS.values() if law.closed_form is form] + list(form.checks)
            for law in laws:
                assert set(law.hypotheses) <= set(form.hypotheses), (tag, law.tag)

    def test_wrong_form_fails_verification(self, c4, sigma_neg, mu_delta1, monkeypatch):
        # the even form is no sine-variant solution; closed_form must refuse it
        eq = EQUATIONS["vanvleck"]
        monkeypatch.setitem(EQUATIONS, "vanvleck",
                            dataclasses.replace(eq, closed_form=eq.closed_form._replace(sigma_sign=1)))
        with pytest.raises(FeqlabError, match="closed form failed verification for vanvleck"):
            solve_vanvleck(c4, sigma_neg, mu_delta1)

    @pytest.mark.parametrize("weight", [1.0, 1e-8, 1e150])
    def test_wrong_form_fails_at_every_scale(self, c4, sigma_neg, monkeypatch, weight):
        # the rounding allowance scales with ||mu||^2 and stays far below
        # the residual of a wrong form
        eq = EQUATIONS["vanvleck"]
        monkeypatch.setitem(EQUATIONS, "vanvleck",
                            dataclasses.replace(eq, closed_form=eq.closed_form._replace(sigma_sign=1)))
        with pytest.raises(FeqlabError, match="closed form failed verification for vanvleck"):
            solve_vanvleck(c4, sigma_neg, DiracMeasure.point_mass(1, weight))

    @pytest.mark.parametrize("tag, point, law", [
        ("vanvleck", 1, "vanvleck"),
        ("integral_dalembert", 2, "integral_dalembert"),
        ("corollary33", 2, "integral_dalembert"),
        ("spherical", 1, "spherical"),
    ])
    def test_overflow_names_the_first_law(self, c4, sigma_neg, tag, point, law):
        # solutions of size 1e160 square to inf; the first solution's first
        # law raises, corollary33's being the middle form it shares
        mu = DiracMeasure.point_mass(point, 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResidual,
                               match=rf"^{law} residual is not finite \(overflow or non-finite input\)$"):
                closed_form(tag, c4, sigma_neg, mu)

    def test_overflow_measure_unused_by_dalembert(self, c4, sigma_neg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = closed_form("dalembert_variant", c4, sigma_neg, DiracMeasure.point_mass(1, 1e160))
        assert [s.values.tobytes() for s in got.solutions] == \
            [s.values.tobytes() for s in solve_dalembert(c4, sigma_neg).solutions]
        assert len(got.solutions) == 3

    def test_rounding_alone_passes(self):
        # C3's characters take values cos/sin leave inexact, so their
        # residuals are rounding, which eq_tol alone refused at --tol 0
        # and at weights from about 1e3; the gate is the derived bound
        c3 = cyclic_group(3)
        neg = InvolutiveMorphism(map=(0, 2, 1), kind=MorphismKind.AUTOMORPHISM)
        for weight in (1e3, 1.0, 1e150):
            mu = DiracMeasure.point_mass(1, weight)
            got = solve_spherical(c3, mu).solutions
            assert [(s.values.tobytes(), s.provenance.chi) for s in got] == \
                [(v.tobytes(), chi) for v, chi in greedy_closed_form("spherical", c3, None, mu)]
            assert len(got) == 3
        assert len(solve_dalembert(c3, neg).solutions) == 2
        # where products underflow, the residual is 2^-1074, not zero
        tiny = DiracMeasure.point_mass(1, 2.0 ** -537)
        assert len(solve_spherical(c3, tiny).solutions) == 3
        mu = DiracMeasure.from_pairs([(1, 0.5e-8), (2, 0.5e-8)])
        central = solve_central_dalembert(c3, neg, mu).vectors()
        assert len(central) == 2
        assert all(residual_central_dalembert(c3, f, neg, mu).max_abs <= 1e-30 for f in central)


class TestMatching:
    def test_match_solution_sets(self):
        a = [np.array([0, 1, 0, -1], dtype=complex)]
        b = [np.array([0, 1, 0, -1], dtype=complex) + 1e-9]
        pairs, ua, ub = match_solution_sets(a, b)
        assert pairs == [(0, 0)] and not ua and not ub

    def test_unmatched_reported(self):
        a = [np.zeros(4, dtype=complex) + 1.0]
        b = [np.zeros(4, dtype=complex) - 1.0]
        pairs, ua, ub = match_solution_sets(a, b)
        assert not pairs and ua == [0] and ub == [0]
