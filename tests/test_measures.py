from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from feqlab import (
    DEFAULT_TOL,
    DiracMeasure,
    InvolutiveMorphism,
    MorphismKind,
    ToleranceConfig,
    cyclic_group,
    direct_product,
    enumerate_all_semigroups,
    integrate,
    is_sigma_invariant,
    measure_norm,
    pushforward,
    residual_central_dalembert,
    residual_integral_dalembert,
    residual_vanvleck,
    right_transform,
    solve_central_dalembert,
    solve_dalembert,
    solve_spherical,
    solve_vanvleck,
    support_in_center,
)
from feqlab.equations import (
    Equation,
    Term,
    _defect,
    bind_inputs,
    check_function,
    companion_cosine,
    compile_terms,
    residual,
)
from feqlab.errors import BadParams, LengthMismatch, PointOutOfRange
from feqlab.solvers import (
    CLUSTER_TOL,
    KERNEL_TOL,
    ORACLE_TOL,
    closed_form,
    match_solution_sets,
    newton_oracle,
    spectral_oracle,
)


class TestDiracMeasure:
    def test_atoms_merge_and_sort(self):
        mu = DiracMeasure.from_pairs([(3, 1.0), (1, 2.0), (3, 0.5)])
        assert mu.atoms == ((1, 2 + 0j), (3, 1.5 + 0j))

    def test_norm(self):
        assert measure_norm(DiracMeasure.point_mass(1)) == 1.0
        mu = DiracMeasure.from_pairs([(0, 3 + 4j)])
        assert measure_norm(mu) == 5.0
        assert measure_norm(DiracMeasure.from_pairs([(0, 1.0), (0, -1.0)])) == 0.0

    def test_rejects_bad_atoms(self):
        with pytest.raises(BadParams):
            DiracMeasure.from_pairs([(-1, 1.0)])
        with pytest.raises(BadParams):
            DiracMeasure.from_pairs([(0, complex(float("nan"), 0))])
        # finite weights whose merged sum overflows
        with pytest.raises(BadParams, match="finite"):
            DiracMeasure.from_pairs([(1, 1e308), (1, 1e308)])

    def test_points_are_integers(self):
        # int() moved 1.7 to 1, "3" to 3 and True to 1
        for build in (lambda: DiracMeasure.point_mass(1.7), lambda: DiracMeasure.point_mass(True),
                      lambda: DiracMeasure.point_mass(np.float64(2.0)), lambda: DiracMeasure.from_pairs([("3", 1)]),
                      lambda: DiracMeasure(((np.bool_(True), 1.0),))):
            with pytest.raises(BadParams, match="is not an integer$"):
                build()
        # numpy's integers are integers, stored as ints
        mu = DiracMeasure.from_pairs([(np.int64(3), 1.0), (np.uint8(1), 2.0), (3, 0.5)])
        assert mu.atoms == ((1, 2 + 0j), (3, 1.5 + 0j)) and all(type(p) is int for p, _ in mu.atoms)
        assert DiracMeasure.point_mass(np.intp(2)).atoms == ((2, 1 + 0j),)

    @pytest.mark.parametrize("weight", ["0.5", True, np.bool_(True), None, [1.0]],
                             ids=["str", "bool", "numpy_bool", "none", "list"])
    def test_weights_are_numbers(self, weight):
        # complex() read "0.5" as 0.5 and True as 1, and raised a bare TypeError on None
        with pytest.raises(BadParams, match="is not a number$"):
            DiracMeasure.from_pairs([(1, weight), (3, 1.0)])

    def test_numpy_weights_are_numbers(self):
        mu = DiracMeasure.from_pairs([(1, np.float32(0.5)), (2, np.complex128(1j)), (3, np.int8(-2))])
        assert mu.atoms == ((1, 0.5 + 0j), (2, 1j), (3, -2 + 0j))


class TestIntegration:
    def test_integrate_examples(self, sine, mu_delta1):
        assert integrate(sine, mu_delta1) == 1 + 0j
        mu = DiracMeasure.from_pairs([(1, 0.5), (3, 0.5)])
        assert integrate(sine, mu) == 0j
        mu = DiracMeasure.from_pairs([(0, 2.0), (2, 1j)])
        f = np.array([1, 2, 3, 4], dtype=complex)
        assert integrate(f, mu) == 2 + 3j

    def test_integrate_out_of_range(self, sine):
        with pytest.raises(PointOutOfRange):
            integrate(sine, DiracMeasure.point_mass(4))

    def test_right_transform_is_shift(self, c4, sine, mu_delta1):
        # oracle: direct definition sum_p w f(x*p)
        got = right_transform(c4, sine, mu_delta1)
        expected = [sum(w * sine[c4.mul(x, p)] for p, w in mu_delta1.atoms)
                    for x in c4.elements()]
        assert np.allclose(got, expected, atol=0)
        assert np.array_equal(got, np.array([1, 0, -1, 0], dtype=complex))

    def test_right_transform_identity_atom(self, c4, sine):
        got = right_transform(c4, sine, DiracMeasure.point_mass(0))
        assert np.array_equal(got, sine)

    def test_right_transform_shift_two_negates(self, c4, sine):
        got = right_transform(c4, sine, DiracMeasure.point_mass(2))
        assert np.array_equal(got, -sine)

    def test_right_transform_bit_equal_to_pointwise(self, c4, s3):
        # the column gathers round as the scalar loop sum_p w f(x*p) does
        rng = np.random.default_rng(11)
        for sg in (c4, s3, direct_product(c4, cyclic_group(16)), cyclic_group(128)):
            for k in (1, 2, 4):
                points = rng.choice(sg.n, size=k, replace=False)
                scales = 10.0 ** rng.uniform(-5, 5, size=(2, k))
                weights = scales[0] * rng.standard_normal(k) + 1j * scales[1] * rng.standard_normal(k)
                mu = DiracMeasure.from_pairs(list(zip(points.tolist(), weights.tolist())))
                f = rng.standard_normal(sg.n) + 1j * rng.standard_normal(sg.n)
                want = np.zeros(sg.n, dtype=complex)
                for p, w in mu.atoms:
                    for x in sg.elements():
                        want[x] += w * f[sg.mul(x, p)]
                assert right_transform(sg, f, mu).tobytes() == want.tobytes()

    @pytest.mark.parametrize("weights", [(2.0,), (2.0, 0.5), (2.0 + 1j, -0.5)])
    def test_right_transform_zeros_are_positive(self, c4, weights):
        # as in the scalar sum from 0j, a zero value is +0 in both parts,
        # also where every product is -0
        f = np.full(4, complex(-0.0, -0.0))
        mu = DiracMeasure.from_pairs(list(enumerate(weights)))
        assert right_transform(c4, f, mu).tobytes() == np.zeros(4, dtype=complex).tobytes()

    def test_right_transform_length_check(self, c4):
        with pytest.raises(LengthMismatch, match="^function has 2 values, semigroup has 4 elements$"):
            right_transform(c4, [1, 2], DiracMeasure.point_mass(0))

    @pytest.mark.parametrize("f", [
        ["0", "1", "0", "-1"], [0, 1, False, -1], [None, 1, 0, -1], [0, 1, 0, [-1]],
        np.array([False, True, False, True]), np.array(["0", "1", "0", "-1"]),
        np.array([0, 1, 0, -1], dtype=object),
    ], ids=["strings", "bool", "none", "list", "bool_array", "string_array", "object_array"])
    def test_function_values_are_numbers(self, c4, sigma_neg, mu_delta1, f):
        # the strings and bools were read as numbers, None as NaN
        for evaluate in (lambda: check_function(c4, f), lambda: right_transform(c4, f, mu_delta1),
                         lambda: residual_vanvleck(c4, f, sigma_neg, mu_delta1)):
            with pytest.raises(BadParams, match="^function values must be numbers$"):
                evaluate()

    @pytest.mark.parametrize("f", [
        [np.float64(0), np.int32(1), np.complex64(2), np.uint8(3)], np.arange(4),
        np.arange(4, dtype=np.float32), np.arange(4, dtype=np.complex64), np.arange(4, dtype=np.uint8),
    ], ids=["numpy_scalars", "int_array", "float32_array", "complex64_array", "uint8_array"])
    def test_numpy_function_values_are_numbers(self, c4, f):
        got = check_function(c4, f)
        assert got.dtype == complex and got.tolist() == [0, 1, 2, 3]

    def test_middle_transform(self, c4, sine, mu_delta1):
        got = middle_transform(c4, sine, mu_delta1)
        for x in c4.elements():
            for y in c4.elements():
                assert got[x, y] == sine[(x + 1 + y) % 4]

    def test_middle_transform_noncommutative(self, s3):
        f = np.arange(6, dtype=complex)
        mu = DiracMeasure.point_mass(3)
        x, y = 1, 2
        expected = f[s3.mul(s3.mul(x, 3), y)]
        assert middle_transform(s3, f, mu)[x, y] == expected


def middle_transform(sg, f, mu):
    """integral of f(x * t * y) dmu(t) at every pair (x, y): the grid of a
    law whose one term is the word "xty", as the registry compiles it."""
    eq = Equation("middle", (Term(1, "xty"),), ())
    return _defect(eq, compile_terms(eq, sg, None, mu), np.asarray(f, dtype=complex), None)


class TestPushforward:
    def test_swap(self, sigma_neg):
        mu = DiracMeasure.from_pairs([(1, 0.5), (3, 0.25)])
        pushed = pushforward(mu, sigma_neg)
        assert pushed.atoms == ((1, 0.25 + 0j), (3, 0.5 + 0j))

    def test_merge_on_collision(self):
        m = InvolutiveMorphism(map=(0, 1), kind=MorphismKind.AUTOMORPHISM)
        mu = DiracMeasure.from_pairs([(0, 1.0), (1, 2.0)])
        assert pushforward(mu, m) == mu

    def test_invariance(self, sigma_neg, upsilon, mu_delta1):
        assert is_sigma_invariant(upsilon, sigma_neg)
        assert not is_sigma_invariant(mu_delta1, sigma_neg)
        ident = InvolutiveMorphism(map=(0, 1, 2, 3), kind=MorphismKind.AUTOMORPHISM)
        assert is_sigma_invariant(mu_delta1, ident)

    def test_invariance_is_exact(self, sigma_neg):
        # weights are compared bit for bit: no tolerance passes a near-invariant measure
        near = DiracMeasure.from_pairs([(1, 1.0), (3, 1.0 + 2.0 ** -52)])
        assert not is_sigma_invariant(near, sigma_neg)
        tiny = DiracMeasure.from_pairs([(1, 1e-300), (3, 0.0)])
        assert not is_sigma_invariant(tiny, sigma_neg)

    def test_zero_weight_atom_is_an_absent_point(self, sigma_neg):
        # a zero-weight atom at 1 faces no atom at sigma(1) = 3
        for atoms in ([(1, 0.0)], [(1, 0j), (3, 0.0)], [(1, 0.5), (3, 0.5), (2, 0.0)]):
            assert is_sigma_invariant(DiracMeasure.from_pairs(atoms), sigma_neg), atoms
        assert not is_sigma_invariant(DiracMeasure.from_pairs([(1, 0.5), (3, 0.0)]), sigma_neg)

    def test_pushforward_norm_preserved_for_permutation(self, sigma_neg):
        mu = DiracMeasure.from_pairs([(0, 1j), (1, -2.0), (2, 0.5)])
        assert measure_norm(pushforward(mu, sigma_neg)) == pytest.approx(measure_norm(mu))


class TestSupport:
    def test_central_on_abelian(self, c4, mu_delta1):
        assert support_in_center(mu_delta1, c4)

    def test_noncentral_on_s3(self, s3):
        assert not support_in_center(DiracMeasure.point_mass(1), s3)
        assert support_in_center(DiracMeasure.point_mass(0), s3)

    def test_every_point_of_the_census(self):
        # a unit mass is central exactly when its point commutes with every
        # element, on every table of order <= 3
        for n in (1, 2, 3):
            for sg in enumerate_all_semigroups(n):
                for p in range(n):
                    commutes = all(sg.mul(p, y) == sg.mul(y, p) for y in range(n))
                    assert support_in_center(DiracMeasure.point_mass(p), sg) == commutes, (sg.table, p)

    def test_zero_weight_atom_is_an_absent_point(self, s3):
        # 1 is not central in S3, but an atom there of weight 0 is no support;
        # every atom is still range-checked
        for atoms in ([(1, 0.0)], [(1, 1.0), (1, -1.0)], [(0, 2.0), (1, -0.0j)]):
            assert support_in_center(DiracMeasure.from_pairs(atoms), s3), atoms
        assert not support_in_center(DiracMeasure.from_pairs([(0, 1.0), (1, 1e-300)]), s3)
        with pytest.raises(PointOutOfRange):
            support_in_center(DiracMeasure.point_mass(9, 0.0), s3)


class TestToleranceConfig:
    def test_defaults(self, tol):
        assert tol.eq_tol == 1e-9

    def test_eq_tol_is_the_only_setting(self):
        # the oracle's gates are constants of solvers
        assert [field.name for field in dataclasses.fields(ToleranceConfig)] == ["eq_tol"]
        assert (CLUSTER_TOL, KERNEL_TOL, ORACLE_TOL) == (1e-5, 1e-6, 1e-6)
        for fn in (spectral_oracle, newton_oracle, match_solution_sets):
            assert "tol" not in inspect.signature(fn).parameters

    def test_no_hypothesis_or_residual_takes_tol(self, c4, sigma_neg, mu_delta1, sine):
        # eq_tol judges verdicts; a hypothesis check, a residual report, a
        # solution set or a companion function never reads it
        for fn in (is_sigma_invariant, bind_inputs, residual,
                   residual_vanvleck, residual_integral_dalembert, residual_central_dalembert,
                   closed_form, solve_vanvleck, solve_dalembert, solve_spherical,
                   solve_central_dalembert, companion_cosine):
            assert "tol" not in inspect.signature(fn).parameters, fn.__name__
        for fn in (bind_inputs, residual, residual_vanvleck):
            assert inspect.signature(fn).parameters["force"].kind is inspect.Parameter.KEYWORD_ONLY
        # a stale positional tol must not land in force, nor pass unseen
        for call in (lambda: residual_vanvleck(c4, sine, sigma_neg, mu_delta1, DEFAULT_TOL),
                     lambda: solve_vanvleck(c4, sigma_neg, mu_delta1, DEFAULT_TOL),
                     lambda: companion_cosine(c4, sine, mu_delta1, DEFAULT_TOL)):
            with pytest.raises(TypeError):
                call()

    def test_rejects_negative(self):
        with pytest.raises(BadParams):
            ToleranceConfig(eq_tol=-1.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(BadParams):
                ToleranceConfig(eq_tol=bad)
