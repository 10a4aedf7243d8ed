from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
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
    approximate_battery,
    bind_inputs,
    closed_form_slack,
    identity_battery,
    residual,
)
from feqlab.errors import (
    BadParams,
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
from feqlab import solvers
from feqlab.measures import _ldexp_measure
from feqlab.solvers import (
    _defect_operator,
    _joint_eigenvalues,
    closed_form,
    spectral_oracle,
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

    def test_huge_measure_is_solved_at_unit_scale(self, c4, sigma_neg):
        # the self-check runs at mu / 2^1023, where nothing overflows; at mu
        # itself its grid overflowed and the call raised NonFiniteResidual
        sols = solve_vanvleck(c4, sigma_neg, DiracMeasure.point_mass(1, 1e308))
        assert [s.values.tolist() for s in sols.solutions] == [[0, 1e308, 0, -1e308]]

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
    "spectral_oracle": lambda c4, s: spectral_oracle(c4, "vanvleck", s, _POINT1),
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
        # half rounds to zero: the means are decided at mu / 2^-1073, where
        # both characters are kept, and scaled back that solution is 0, so
        # the call is refused rather than report it
        sg = validate_semigroup([[0, 0, 0], [0, 1, 0], [0, 0, 2]])
        swap = InvolutiveMorphism(map=(0, 2, 1), kind=MorphismKind.AUTOMORPHISM)
        mu = DiracMeasure.from_pairs([(1, 5e-324), (2, 5e-324)])
        with pytest.raises(BadParams, match=r"^a solution rounds to 0 at the measure's scale \(underflow\)$"):
            solve_central_dalembert(sg, swap, mu)
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
    """The oracle under newton_oracle, the name and signature it keeps
    from the multistart oracle it replaced; starts changes nothing."""

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


CLOSED_FORM_TAGS = [tag for tag, eq in EQUATIONS.items() if eq.closed_form is not None]


def word_at(sg, word, letters):
    """The product of word's letters, left to right, with sg.mul."""
    value = letters[word[0]]
    for letter in word[1:]:
        value = sg.mul(value, letters[letter])
    return value


def words_operator(eq, sg, sigma, mu):
    """The linear part L (n^2 x n) of eq's defect, built cell by cell from
    its words with sg.mul: per cell, the words add their signs left to
    right, a plain word (a b) at the element it evaluates to, an averaged
    one (a b t or a t b) the sum, atom by atom, of the weights at the
    elements it evaluates to. The order in which the oracle's operator
    must add them, so the two agree bit for bit."""
    n = sg.n
    L = np.zeros((n * n, n), dtype=complex)
    for x in range(n):
        for y in range(n):
            letters = {"x": x, "y": y, "s": None if sigma is None else sigma.map[y]}
            for term in eq.terms:
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
            L = _defect_operator(eq, sg, sigma, mu)
            assert L.tobytes() == words_operator(eq, sg, sigma, mu).tobytes(), name


class TestJointEigenvalues:
    """_joint_eigenvalues on hand-built blocks, whose joint eigenspaces
    are known."""

    @staticmethod
    def tuples(*blocks):
        found = _joint_eigenvalues(np.array(blocks, dtype=complex), np.random.default_rng(0))
        assert all(np.abs(lam.imag).max() <= 1e-12 for lam in found)
        return sorted(tuple(np.round(lam.real, 9).tolist()) for lam in found)

    def test_last_block_splits_a_shared_eigenvalue(self):
        assert self.tuples(np.diag([1, 2, 2]), np.diag([3, 4, 4]), np.diag([0, 0, 1])) == \
            [(1, 3, 0), (2, 4, 0), (2, 4, 1)]

    def test_a_joint_eigenspace_gives_one_tuple(self):
        assert self.tuples(np.diag([1, 2, 2]), np.diag([3, 4, 4]), np.diag([5, 6, 6])) == [(1, 3, 5), (2, 4, 6)]

    def test_defective_block_keeps_only_its_eigenvector(self):
        # e_1 ends a Jordan chain of the first block and is no eigenvector
        jordan = [[1, 1, 0], [0, 1, 0], [0, 0, 2]]
        assert self.tuples(jordan, np.diag([0, 0, 1]), np.zeros((3, 3))) == [(1, 0, 0), (2, 1, 0)]

    def test_blocks_without_a_common_eigenvector(self):
        assert self.tuples([[1, 0], [0, 2]], [[0, 1], [1, 0]]) == []

    def test_eigenspace_without_its_root_is_no_root(self):
        # C3, negation, mu = delta_2: the sine functions chi - chi o sigma
        # span two joint eigenspaces with lambda != 0, but lambda / c lies
        # in neither (wilson_variant branches); the closed form is empty too
        c3 = cyclic_group(3)
        neg = InvolutiveMorphism((0, 2, 1), MorphismKind.AUTOMORPHISM)
        mu = DiracMeasure.point_mass(2)
        L = _defect_operator(EQUATIONS["vanvleck"], c3, neg, mu)
        found = _joint_eigenvalues(np.ascontiguousarray(L.reshape(3, 3, 3).transpose(1, 0, 2)),
                                   np.random.default_rng(0))
        assert sum(np.abs(lam).max() > solvers.CLUSTER_TOL for lam in found) == 2
        assert spectral_oracle(c3, "vanvleck", neg, mu) == []
        assert solve_vanvleck(c3, neg, mu).solutions == ()

    def test_open_cluster_is_an_internal_error(self, c4, sigma_neg, mu_delta1, monkeypatch):
        # with no combination to draw, the first subspace that is no joint
        # eigenspace stays open: it raises, it is never dropped
        monkeypatch.setattr(solvers, "_TRIES", 0)
        with pytest.raises(FeqlabError, match="^internal: spectral oracle left a cluster of dimension 4 open$"):
            spectral_oracle(c4, "vanvleck", sigma_neg, mu_delta1)


def negation(sg):
    """x -> x^(-1) on an abelian group, an involutive automorphism."""
    inverse = tuple(next(y for y in sg.elements() if sg.mul(x, y) == sg.identity) for x in sg.elements())
    return InvolutiveMorphism(inverse, MorphismKind.AUTOMORPHISM)


def sweep_cases(tables, tags, masses):
    """(tag, sg, sigma, mu) for each table, tag, involutive morphism the
    tag reads (every one of either kind) and measure masses(sg, sigma, tag)
    gives, kept where the closed form's hypotheses hold; an input the tag
    does not read is None."""
    for sg, morphisms in tables:
        for tag in tags:
            eq = EQUATIONS[tag]
            for sigma in morphisms if "sigma" in eq.reads else [None]:
                for mu in masses(sg, sigma, tag) if "mu" in eq.reads else [None]:
                    try:
                        bind_inputs(eq, sg, sigma, mu, hypotheses=eq.closed_form.hypotheses)
                    except FeqlabError:
                        continue
                    yield tag, sg, sigma, mu


def sweep(cases):
    """(cases, closed-form solutions, missed, extra) of spectral_oracle
    against closed_form over the cases."""
    count = solutions = missed = extra = 0
    for tag, sg, sigma, mu in cases:
        closed = closed_form(tag, sg, sigma, mu).vectors()
        _, oracle_only, closed_only = match_solution_sets(spectral_oracle(sg, tag, sigma, mu), closed, mu)
        count += 1
        solutions += len(closed)
        missed += len(closed_only)
        extra += len(oracle_only)
    return count, solutions, missed, extra


def unit_masses(sg, sigma, tag):
    """A unit mass at each point, made a sigma-symmetric pair of halves
    for the cosine forms where sigma moves the point."""
    for p in range(sg.n):
        q = p if sigma is None or tag == "vanvleck" else sigma.map[p]
        yield DiracMeasure.point_mass(p) if q == p else DiracMeasure.from_pairs([(p, 0.5), (q, 0.5)])


class TestSpectralOracle:
    def test_order_3_census_every_closed_form(self):
        # every labeled table of order <= 3, every involutive (anti-)
        # automorphism, the five closed-form tags
        tables = [(sg, [m for kind in MorphismKind for m in enumerate_involutive_morphisms(sg, kind)])
                  for n in (1, 2, 3) for sg in enumerate_all_semigroups(n)]
        assert sweep(sweep_cases(tables, CLOSED_FORM_TAGS, unit_masses)) == (1610, 1904, 0, 0)

    def test_ladder_past_the_cli_cap(self):
        # orders 8 and 16, where multistart Gauss-Newton found no vanvleck
        # root at C16 in 200 starts, with negation, delta_1 and the
        # sigma-symmetric pair (delta_1 + delta_-1)/2
        tables = [(sg, [negation(sg)]) for sg in (cyclic_group(8), cyclic_group(16),
                                                 direct_product(cyclic_group(2), cyclic_group(4)))]

        def masses(sg, sigma, tag):
            return [DiracMeasure.point_mass(1), DiracMeasure.from_pairs([(1, 0.5), (negation(sg).map[1], 0.5)])]

        assert sweep(sweep_cases(tables, ["vanvleck", "spherical", "corollary33"], masses)) == (15, 76, 0, 0)

    def test_noncentral_spherical_root_outside_the_form(self, s3):
        # mu = delta_e + delta_tau is not central in S3: the law is solved
        # exactly by (2, 2, -1, -1, -1, -1), a function no character
        # gives, beside chi * mean(chi) = 2 for the trivial character. The
        # oracle finds both; the closed form stops at the characters
        mu = DiracMeasure.from_pairs([(0, 1.0), (1, 1.0)])
        outside = np.array([2, 2, -1, -1, -1, -1], dtype=complex)
        assert residual(EQUATIONS["spherical"], s3, outside, mu=mu).max_abs == 0.0
        closed = closed_form("spherical", s3, None, mu).vectors()
        roots = spectral_oracle(s3, "spherical", None, mu)
        pairs, extra, missing = match_solution_sets(roots, closed, mu)
        assert len(closed) == len(pairs) == 1 and not missing
        assert len(extra) == 1 and np.max(np.abs(roots[extra[0]] - outside)) <= 1e-12

    def test_seed_moves_no_root(self, c4, sigma_neg, upsilon):
        for tag, sigma, mu in (("vanvleck", sigma_neg, DiracMeasure.point_mass(1)),
                               ("corollary33", sigma_neg, upsilon), ("spherical", None, upsilon)):
            want = spectral_oracle(c4, tag, sigma, mu, seed=0)
            assert [v.tobytes() for v in spectral_oracle(c4, tag, sigma, mu, seed=0)] == [v.tobytes() for v in want]
            for seed in (1, 2, 3):
                got = spectral_oracle(c4, tag, sigma, mu, seed=seed)
                pairs, extra, missing = match_solution_sets(got, want, mu)
                assert len(pairs) == len(want) > 0 and not extra and not missing, (tag, seed)

    def test_generator_is_built_at_the_first_draw(self, monkeypatch):
        # the census case C2, identity, delta_1 draws no combination, so it
        # builds no generator
        c2 = validate_semigroup([[0, 1], [1, 0]])
        ident = InvolutiveMorphism((0, 1), MorphismKind.AUTOMORPHISM)

        def refuse(seed):
            raise AssertionError("built a generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert spectral_oracle(c2, "vanvleck", ident, DiracMeasure.point_mass(1)) == []

    def test_a_drawing_case_keeps_its_stream(self, c4, sigma_neg, mu_delta1):
        # C4, negation, delta_1 draws: each seed reads its roots from the
        # same stream as a generator built before the search
        want = {0: [[0j, complex(1, 5.994593421002071e-34), 0j, complex(-1, -5.994593421002071e-34)]],
                1: [[0j, complex(0.9999999999999998, 3.2877680681536806e-34), 0j,
                     complex(-0.9999999999999998, -3.2877680681536806e-34)]]}
        for seed, roots in want.items():
            assert [v.tolist() for v in spectral_oracle(c4, "vanvleck", sigma_neg, mu_delta1, seed)] == roots

    def test_overflowing_norm_raises(self, c4, sigma_neg):
        # ||mu|| = inf cannot be brought to unit norm; no LinAlgError escapes
        mu = DiracMeasure.from_pairs([(1, 1e308), (3, 1e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tag in ("vanvleck", "spherical"):
                with pytest.raises(NonFiniteResidual, match=f"^{tag} oracle operator is not finite \\(overflow\\)$"):
                    spectral_oracle(c4, tag, sigma_neg, mu)


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

    @pytest.mark.parametrize("shift", [1e-6, 1e-9])
    def test_shifted_solution_fails_verification(self, c4, shift, monkeypatch):
        # chi(2) off by shift moves chi * mean(chi) at 2 and no mean test
        # (delta_1 reads chi(1)): a defect of order shift, far above the
        # derived gate and below a constant gate of 1e-3
        real = solvers.character_to_scalar

        def shifted(chi):
            c = real(chi).copy()
            c[2] += shift
            return c

        monkeypatch.setattr(solvers, "character_to_scalar", shifted)
        with pytest.raises(FeqlabError, match="^internal: closed form failed verification for spherical"):
            solve_spherical(c4, DiracMeasure.point_mass(1))

    def test_slack_is_its_derived_bound(self):
        # (300 + 11k) eps ||mu||^2 + 2^-1022, as closed_form_slack derives it
        eps, tiny = 2.0 ** -52, 2.0 ** -1022
        assert closed_form_slack(None) == 300 * eps * 1.0 * 1.0 + tiny
        assert closed_form_slack(DiracMeasure.point_mass(1)) == 311 * eps * 1.0 * 1.0 + tiny
        mu = DiracMeasure.from_pairs([(0, 3.0), (2, -4j), (5, 0.5)])  # ||mu|| = 7.5
        assert closed_form_slack(mu) == 333 * eps * 7.5 * 7.5 + tiny
        assert closed_form_slack(DiracMeasure.point_mass(0, 1e150)) == 311 * eps * 1e150 * 1e150 + tiny

    @pytest.mark.parametrize("tag, point, law", [
        ("vanvleck", 1, "vanvleck"),
        ("integral_dalembert", 2, "integral_dalembert"),
        ("corollary33", 2, "integral_dalembert"),
        ("spherical", 1, "spherical"),
    ])
    def test_overflow_names_the_first_law(self, c4, sigma_neg, tag, point, law, monkeypatch):
        # the self-check runs at unit scale, where no input overflows its
        # grids, so every sup is made inf, as an overflowing grid gives it;
        # the first solution's first law raises, corollary33's being the
        # middle form it shares
        monkeypatch.setattr("feqlab.solvers._row_sups", lambda law, terms, F: np.full(len(F), np.inf))
        mu = DiracMeasure.point_mass(point)
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


def scaled_by(mu, k):
    """mu times 2^k, each weight part scaled with ldexp."""
    return DiracMeasure(tuple((p, complex(math.ldexp(w.real, k), math.ldexp(w.imag, k))) for p, w in mu.atoms))


def normal_range(mu):
    """(kmin, kmax), the k for which each weight part of mu 2^k is zero or
    normal: a part m 2^e (frexp, 1/2 <= |m| < 1) times 2^k is normal for
    -1021 <= e + k <= 1024."""
    exponents = [math.frexp(x)[1] for _, w in mu.atoms for x in (w.real, w.imag) if x]
    return -1021 - min(exponents), 1024 - max(exponents)


def assert_scales_by_powers_of_two(tag, sg, sigma, mu, ks):
    """closed_form at mu 2^k, for each k in ks, has the provenances of the
    one at mu and its values are ldexp(values at mu, k), bit for bit (the
    values at mu where the form reads no measure); where the norm or a
    value overflows there, the call is refused (BadParams)."""
    base = closed_form(tag, sg, sigma, mu).solutions
    reads_mu = "mu" in EQUATIONS[tag].reads
    for k in ks:
        mu_k = scaled_by(mu, k)
        with np.errstate(over="ignore"):
            want = [np.ldexp(s.values.view(float), k if reads_mu else 0).view(complex) for s in base]
        if not (math.isfinite(measure_norm(mu_k)) and all(np.isfinite(v).all() for v in want)):
            with pytest.raises(BadParams):
                closed_form(tag, sg, sigma, mu_k)
            continue
        got = closed_form(tag, sg, sigma, mu_k).solutions
        assert [s.provenance for s in got] == [s.provenance for s in base], (tag, mu.atoms, k)
        assert [s.values.tobytes() for s in got] == [v.tobytes() for v in want], (tag, mu.atoms, k)


class TestPowerOfTwoScale:
    """closed_form decides and verifies at mu / 2^e with ||mu / 2^e|| in
    [1, 2), so multiplying mu by 2^k moves no decision and no byte where
    the weights stay normal, from subnormal solutions to overflow."""

    @staticmethod
    def cases(s3):
        """(tag, table, sigma, mu) for every closed-form tag over the order
        <= 3 census, C4, S3 and the Klein group, with every involutive
        morphism (spherical reads none) and a unit mass at each point or
        at the first and the last; the hypotheses of each form filter them."""
        tables = [sg for n in (1, 2, 3) for sg in enumerate_all_semigroups(n)]
        tables += [cyclic_group(4), s3, direct_product(cyclic_group(2), cyclic_group(2))]
        for sg in tables:
            morphisms = [m for kind in MorphismKind for m in enumerate_involutive_morphisms(sg, kind)]
            masses = [DiracMeasure.point_mass(p) for p in range(sg.n)]
            masses += [DiracMeasure.from_pairs([(0, 1.0), (sg.n - 1, 1.0)])] if sg.n > 1 else []
            for tag, eq in EQUATIONS.items():
                if eq.closed_form is None:
                    continue
                for sigma in morphisms if "sigma" in eq.reads else morphisms[:1]:
                    for mu in masses if "mu" in eq.reads else masses[:1]:
                        try:
                            bind_inputs(eq, sg, sigma, mu, hypotheses=eq.closed_form.hypotheses)
                        except FeqlabError:
                            continue
                        yield tag, sg, sigma, mu

    def test_census_and_named_tables(self, s3):
        # both ends of the normal range (test_every_k_on_c4 walks all of
        # it): a mean test taken at mu itself drops every mean at or below
        # its 2^-1022 floor, so a unit mass times 2^-1022 kept nothing
        count = 0
        for tag, sg, sigma, mu in self.cases(s3):
            assert_scales_by_powers_of_two(tag, sg, sigma, mu, normal_range(mu))
            count += 1
        assert count == 2146

    def test_every_k_on_c4(self, c4):
        # the four characters times delta_1's means 1, i, -1, -i: the values
        # at kmin are 2^-1022 i^j, and every k up to 2^1023 i^j is exact
        mu = DiracMeasure.point_mass(1)
        kmin, kmax = normal_range(mu)
        assert (kmin, kmax) == (-1022, 1023)
        assert_scales_by_powers_of_two("spherical", c4, None, mu, range(kmin, kmax + 1))

    def test_scaled_measure_is_the_constructors(self):
        # mu / 2^e built without the constructor's checks has its atoms, bit
        # for bit: a weight that underflows to -0.0 reads +0.0, as its merge
        # makes it
        mu = DiracMeasure.from_pairs([(7, -2.5), (0, 3.0 - 1e-320j), (2, -5e-324 + 0.25j)])
        for e in (-3, 1, 2, 60):
            want = DiracMeasure(tuple((p, complex(math.ldexp(w.real, -e), math.ldexp(w.imag, -e)))
                                      for p, w in mu.atoms))
            got = _ldexp_measure(mu, e)
            assert [(p, w.real.hex(), w.imag.hex()) for p, w in got.atoms] == \
                [(p, w.real.hex(), w.imag.hex()) for p, w in want.atoms], e

    def test_overflow_at_the_measures_scale_is_refused(self):
        # ||mu|| is finite, but chi * mean(chi) rounds above the largest
        # float at one point when scaled back (at mu itself its self-check
        # overflowed)
        mu = DiracMeasure.point_mass(5, -1.619665548552851e+308 - 7.799898191400271e+307j)
        with pytest.raises(BadParams, match=r"^a solution is not finite at the measure's scale \(overflow\)$"):
            solve_spherical(cyclic_group(7), mu)


class TestMatching:
    def test_match_solution_sets(self):
        a = [np.array([0, 1, 0, -1], dtype=complex)]
        b = [np.array([0, 1, 0, -1], dtype=complex) + 1e-9]
        pairs, ua, ub = match_solution_sets(a, b)
        assert pairs == [(0, 0)] and not ua and not ub

    def test_overflowing_distance_is_no_match(self):
        # closed forms at unit scale now reach roots near the float limit,
        # where a difference overflows: numpy warned, as oracle on the
        # table [[2, 0, 1], [0, 1, 2], [1, 2, 0]] with mu = -1.3e308 delta_2
        # (corollary33) showed in tools/cli_fuzz.py
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = match_solution_sets([np.array([1.3e308, 0j]), np.array([np.inf, 0j])],
                                      [np.array([-1.3e308, 0j])])
        assert got == ([], [0, 1], [0])

    @pytest.mark.parametrize("tag, table, sigma, atoms", [
        ("integral_dalembert", None, (0, 2, 1), [(1, 5e-324), (2, 5e-324)]),
        # C3 relabeled so that 1 is the identity
        ("spherical", [[2, 0, 1], [0, 1, 2], [1, 2, 0]], None, [(1, 5e-324)]),
    ], ids=["integral_dalembert", "spherical"])
    def test_subnormal_roots_one_rounding_apart_match(self, tag, table, sigma, atoms):
        # at a subnormal norm ORACLE_TOL * ||mu|| underflows to 0, and each
        # scaled value rounds to a multiple of 2^-1074: the oracle's
        # [-5e-324, 0, 0] and the closed form's [-5e-324, 5e-324, 5e-324]
        # (integral_dalembert) are one step apart and were reported as one
        # oracle_only and one closed_only
        sg = cyclic_group(3) if table is None else validate_semigroup(table, name="relabeled")
        sigma = None if sigma is None else InvolutiveMorphism(sigma, MorphismKind.AUTOMORPHISM)
        mu = DiracMeasure.from_pairs(atoms)
        roots, closed = spectral_oracle(sg, tag, sigma, mu), closed_form(tag, sg, sigma, mu).vectors()
        pairs, oracle_only, closed_only = match_solution_sets(roots, closed, mu)
        assert len(pairs) == len(roots) == len(closed) and not oracle_only and not closed_only
        assert 0 < max(float(np.max(np.abs(roots[i] - closed[j]))) for i, j in pairs) <= 3 * 5e-324

    def test_subnormal_allowance_is_three_steps(self):
        # ORACLE_TOL * 5e-324 is 0: three steps of 2^-1074 match, four do not
        mu = DiracMeasure.point_mass(1, 5e-324)
        root = np.zeros(3, dtype=complex)
        assert match_solution_sets([root], [root + 3 * 5e-324], mu) == ([(0, 0)], [], [])
        assert match_solution_sets([root], [root + 4 * 5e-324], mu) == ([], [0], [0])

    def test_unmatched_reported(self):
        a = [np.zeros(4, dtype=complex) + 1.0]
        b = [np.zeros(4, dtype=complex) - 1.0]
        pairs, ua, ub = match_solution_sets(a, b)
        assert not pairs and ua == [0] and ub == [0]
