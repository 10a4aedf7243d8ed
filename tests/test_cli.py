"""End-to-end command tests, run in process through main()."""

from __future__ import annotations

import json

import pytest

from feqlab import cyclic_group, semigroup_to_json, write_fixtures
from feqlab.cli import main


@pytest.fixture(scope="module")
def fxdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    write_fixtures(d)
    return d


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


class TestValidate:
    def test_good_table(self, capsys, fxdir):
        code, payload = run_json(capsys, "validate", "--sg", str(fxdir / "c4.sg.json"))
        assert code == 0
        assert payload == {"valid": True, "n": 4, "identity": 0, "name": "C4"}

    def test_structural_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.sg.json"
        bad.write_text(json.dumps({"n": 2, "table": [[0, 1], [1, 2]]}))
        code, out, err = run(capsys, "validate", "--sg", str(bad))
        assert code == 2 and out == ""
        assert "structural error" in err

    def test_nonassociative_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.sg.json"
        bad.write_text(json.dumps({"n": 2, "table": [[0, 1], [0, 0]]}))
        code, _, err = run(capsys, "validate", "--sg", str(bad))
        assert code == 2 and "associat" in err

    def test_parse_error_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "validate", "--sg", str(bad))
        assert code == 3 and "parse error" in err

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", "--sg", str(tmp_path / "nope.json"))
        assert code == 3 and "parse error" in err


class TestAnalyze:
    def test_c4(self, capsys, fxdir):
        code, payload = run_json(capsys, "analyze", "--sg", str(fxdir / "c4.sg.json"))
        assert code == 0
        assert payload["n"] == 4
        assert payload["center"] == [0, 1, 2, 3]
        assert payload["character_count"] == 4
        maps = [m["map"] for m in payload["automorphisms"]]
        assert maps == [[0, 1, 2, 3], [0, 3, 2, 1]]

    def test_s3(self, capsys, fxdir):
        code, payload = run_json(capsys, "analyze", "--sg", str(fxdir / "s3.sg.json"))
        assert code == 0
        assert payload["center"] == [0]
        assert payload["character_count"] == 2
        assert len(payload["anti_automorphisms"]) == 4
        assert [0, 1, 2, 4, 3, 5] in [m["map"] for m in payload["anti_automorphisms"]]

    def test_null2(self, capsys, fxdir):
        code, payload = run_json(capsys, "analyze", "--sg", str(fxdir / "null2.sg.json"))
        assert code == 0
        assert payload["identity"] is None
        assert payload["character_count"] == 1


class TestSolve:
    def test_vanvleck_fixture(self, capsys, fxdir):
        code, payload = run_json(
            capsys, "solve", "--eq", "vanvleck",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"))
        assert code == 0
        assert payload["equation"] == "vanvleck"
        assert len(payload["solutions"]) == 1
        values = payload["solutions"][0]["values"]
        assert values == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]

    def test_empty_set_still_exit_0(self, capsys, fxdir):
        code, payload = run_json(
            capsys, "solve", "--eq", "vanvleck",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_identity.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"))
        assert code == 0
        assert payload["solutions"] == []

    def test_noncentral_exit_4(self, capsys, fxdir):
        code, _, err = run(
            capsys, "solve", "--eq", "vanvleck",
            "--sg", str(fxdir / "s3.sg.json"),
            "--sigma", str(fxdir / "s3_inversion.sigma.json"),
            "--mu", str(fxdir / "s3_transposition.mu.json"))
        assert code == 4
        assert "hypothesis violation" in err and "center" in err

    def test_corollary_two_solutions(self, capsys, fxdir):
        code, payload = run_json(
            capsys, "solve", "--eq", "corollary33",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_halfpair.mu.json"))
        assert code == 0
        assert len(payload["solutions"]) == 2

    def test_dalembert_needs_no_measure(self, capsys, fxdir):
        code, payload = run_json(
            capsys, "solve", "--eq", "dalembert_variant",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"))
        assert code == 0
        assert len(payload["solutions"]) == 3

    def test_vanvleck_requires_measure(self, capsys, fxdir):
        code, _, err = run(
            capsys, "solve", "--eq", "vanvleck",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"))
        assert code == 64 and "usage error" in err


class TestVerify:
    def test_exact_solution_passes(self, capsys, fxdir):
        code, payload = run_json(
            capsys, "verify", "--eq", "vanvleck",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"),
            "--f", str(fxdir / "c4_sine.fn.json"))
        assert code == 0
        assert payload["max_abs"] == 0.0

    def test_bad_candidate_exit_1(self, capsys, fxdir, tmp_path):
        fn = tmp_path / "const.fn.json"
        fn.write_text(json.dumps({"values": [[0.1, 0.0]] * 4}))
        code, payload = run_json(
            capsys, "verify", "--eq", "vanvleck",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"),
            "--f", str(fn))
        assert code == 1
        assert payload["max_abs"] == pytest.approx(0.02)

    def test_battery_attached(self, capsys, fxdir):
        code, payload = run_json(
            capsys, "verify", "--eq", "vanvleck", "--battery",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"),
            "--f", str(fxdir / "c4_sine.fn.json"))
        assert code == 0
        names = [item["name"] for item in payload["per_item"]]
        assert len(names) == 8 and names == sorted(names)

    def test_wilson_pair(self, capsys, fxdir):
        code, payload = run_json(
            capsys, "verify", "--eq", "wilson_variant",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"),
            "--f", str(fxdir / "c4_sine.fn.json"))
        assert code == 0 and payload["max_abs"] <= 1e-12

    def test_tolerance_override(self, capsys, fxdir, tmp_path):
        fn = tmp_path / "const.fn.json"
        fn.write_text(json.dumps({"values": [[0.1, 0.0]] * 4}))
        code, _ = run_json(
            capsys, "verify", "--eq", "vanvleck", "--tol", "0.5",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"),
            "--f", str(fn))
        assert code == 0  # 0.02 <= 0.5


class TestStability:
    def test_small_campaign(self, capsys, fxdir):
        code, payload = run_json(
            capsys, "stability", "--trials", "25", "--seed", "3",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"))
        assert code == 0
        assert payload["trials"] == 25 and payload["violations"] == 0
        assert list(payload) == ["trials", "violations", "exact", "within_bound",
                                 "max_ratio", "seed"]

    def test_byte_identical_reruns(self, capsys, fxdir):
        argv = ("stability", "--trials", "40", "--seed", "11",
                "--sg", str(fxdir / "c4.sg.json"),
                "--sigma", str(fxdir / "c4_negation.sigma.json"),
                "--mu", str(fxdir / "c4_delta1.mu.json"))
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_zero_trials_usage_error(self, capsys, fxdir):
        code, _, err = run(
            capsys, "stability", "--trials", "0",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"))
        assert code == 64 and "usage error" in err
        for radius in ("inf", "nan", "-1"):
            code, out, err = run(
                capsys, "stability", "--trials", "5", "--radius", radius,
                "--sg", str(fxdir / "c4.sg.json"),
                "--sigma", str(fxdir / "c4_negation.sigma.json"),
                "--mu", str(fxdir / "c4_delta1.mu.json"))
            assert code == 64 and out == "" and "--radius" in err


class TestOracle:
    def test_vanvleck_cross_check(self, capsys, fxdir):
        code, payload = run_json(
            capsys, "oracle", "--eq", "vanvleck", "--starts", "120",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"))
        assert code == 0
        assert payload["matched"] == 1
        assert payload["oracle_only"] == [] and payload["closed_only"] == []

    def test_order_cap(self, capsys, tmp_path):
        big = tmp_path / "c5.sg.json"
        big.write_text(json.dumps(semigroup_to_json(cyclic_group(5))))
        code, _, err = run(capsys, "oracle", "--eq", "vanvleck",
                           "--sg", str(big))
        assert code == 64 and "order" in err

    def test_missing_sigma(self, capsys, fxdir):
        code, _, err = run(
            capsys, "oracle", "--eq", "vanvleck",
            "--sg", str(fxdir / "c4.sg.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"))
        assert code == 64 and "sigma" in err

    def test_unneeded_sigma_is_not_loaded(self, capsys, fxdir, tmp_path):
        # spherical takes no sigma, so a non-permutation one is ignored as in solve
        bad = tmp_path / "const.sigma.json"
        bad.write_text(json.dumps({"map": [0, 0, 0, 0], "kind": "auto"}))
        code, out, err = run(capsys, "oracle", "--eq", "spherical",
                             "--sg", str(fxdir / "c4.sg.json"), "--sigma", str(bad),
                             "--mu", str(fxdir / "c4_halfpair.mu.json"))
        assert code == 0, err
        assert json.loads(out)["matched"] >= 1


class TestUsageAndFormats:
    def test_unknown_equation_tag(self, capsys, fxdir):
        code, _, err = run(capsys, "solve", "--eq", "heat",
                           "--sg", str(fxdir / "c4.sg.json"))
        assert code == 64 and "usage error" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "validate")
        assert code == 64

    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 64

    def test_table_format_smoke(self, capsys, fxdir):
        code, out, _ = run(capsys, "validate", "--format", "table",
                           "--sg", str(fxdir / "c4.sg.json"))
        assert code == 0
        assert "valid" in out and "{" not in out.splitlines()[0]

    def test_negative_tol(self, capsys, fxdir):
        code, _, err = run(
            capsys, "solve", "--eq", "vanvleck", "--tol", "-1",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"))
        assert code == 64
        # NaN fails every comparison, so it would fake a verdict either way
        inputs = ("--sg", str(fxdir / "c4.sg.json"),
                  "--sigma", str(fxdir / "c4_negation.sigma.json"),
                  "--mu", str(fxdir / "c4_delta1.mu.json"))
        for argv in (("verify", "--eq", "vanvleck", "--tol", "nan",
                      "--f", str(fxdir / "c4_sine.fn.json")),
                     ("solve", "--eq", "vanvleck", "--tol", "inf"),
                     ("stability", "--trials", "20", "--tol", "nan")):
            code, out, err = run(capsys, *argv, *inputs)
            assert code == 64 and out == "" and "--tol" in err


class TestFixturesCommand:
    def test_writes_bundle(self, capsys, tmp_path):
        out = tmp_path / "bundle"
        code, payload = run_json(capsys, "fixtures", "--out", str(out))
        assert code == 0
        assert sorted(payload["written"]) == payload["written"]
        for name in payload["written"]:
            assert (out / name).exists()
        assert "c4.sg.json" in payload["written"]


# The C4 fixture inputs of each tag: its measure flag (if any) and a
# function file holding one of its exact solutions. alt is -chi_2, which
# solves the half-pair cosine and spherical laws.
TAG_INPUTS = {
    "vanvleck": ("c4_delta1.mu.json", "c4_sine.fn.json"),
    "dalembert_variant": (None, "c4_cosine.fn.json"),
    "integral_dalembert": ("c4_halfpair.mu.json", "alt.fn.json"),
    "corollary33": ("c4_halfpair.mu.json", "alt.fn.json"),
    "spherical": ("c4_halfpair.mu.json", "alt.fn.json"),
    "sine_addition": ("c4_delta1.mu.json", "c4_sine.fn.json"),
    "wilson_variant": ("c4_delta1.mu.json", "c4_sine.fn.json"),
}
NO_CLOSED_FORM = ("sine_addition", "wilson_variant")


class TestEquationMatrix:
    @pytest.fixture(scope="class")
    def matrix_dir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("matrix")
        write_fixtures(d)
        (d / "alt.fn.json").write_text(json.dumps({"values": [[-1, 0], [1, 0], [-1, 0], [1, 0]]}))
        return d

    @pytest.mark.parametrize("command", ["solve", "oracle", "verify"])
    @pytest.mark.parametrize("eq", list(TAG_INPUTS))
    def test_exit_code(self, capsys, matrix_dir, eq, command):
        mu, fn = TAG_INPUTS[eq]
        argv = [command, "--eq", eq, "--sg", str(matrix_dir / "c4.sg.json"),
                "--sigma", str(matrix_dir / "c4_negation.sigma.json")]
        if mu is not None:
            argv += ["--mu", str(matrix_dir / mu)]
        if command == "verify":
            argv += ["--f", str(matrix_dir / fn)]
        code, out, err = run(capsys, *argv)
        if command != "verify" and eq in NO_CLOSED_FORM:
            assert code == 64 and out == "" and "usage error" in err
        else:
            assert code == 0, err
            payload = json.loads(out)
            if command == "solve":
                assert payload["solutions"]
            elif command == "oracle":
                assert payload["matched"] >= 1


README_STABILITY = ('{"trials": 1000, "violations": 0, "exact": 0, "within_bound": 1000, '
                    '"max_ratio": 0.99631781186880175, "seed": 42}\n')


class TestPinnedOutput:
    def test_readme_stability_campaign(self, capsys, fxdir):
        # any change to the bits of the residual grids moves max_ratio
        code, out, _ = run(
            capsys, "stability", "--trials", "1000", "--seed", "42",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"))
        assert code == 0
        assert out == README_STABILITY


class TestNonFiniteInputs:
    def verify(self, capsys, fxdir, fn):
        return run(capsys, "verify", "--eq", "vanvleck",
                   "--sg", str(fxdir / "c4.sg.json"),
                   "--sigma", str(fxdir / "c4_negation.sigma.json"),
                   "--mu", str(fxdir / "c4_delta1.mu.json"),
                   "--f", str(fn))

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400])
    def test_non_finite_function_value_exit_3(self, capsys, fxdir, tmp_path, value):
        fn = tmp_path / "bad.fn.json"
        fn.write_text('{"values": [[%s, 0], [1, 0], [0, 0], [-1, 0]]}' % value)
        code, out, err = self.verify(capsys, fxdir, fn)
        assert code == 3 and out == ""
        assert "parse error" in err and "finite" in err

    def test_non_finite_measure_weight_stays_exit_2(self, capsys, fxdir, tmp_path):
        mu = tmp_path / "nan.mu.json"
        mu.write_text('{"atoms": [{"point": 1, "w": [NaN, 0]}]}')
        code, out, err = run(capsys, "solve", "--eq", "vanvleck",
                             "--sg", str(fxdir / "c4.sg.json"),
                             "--sigma", str(fxdir / "c4_negation.sigma.json"),
                             "--mu", str(mu))
        assert code == 2 and out == "" and "finite" in err

    def test_overflowing_residual_exit_2(self, capsys, fxdir, tmp_path):
        fn = tmp_path / "huge.fn.json"
        fn.write_text(json.dumps({"values": [[1e300, 0], [1, 0], [0, 0], [-1, 0]]}))
        code, out, err = self.verify(capsys, fxdir, fn)
        assert code == 2 and out == ""
        assert "structural error" in err and "not finite" in err

    def test_overflowing_campaign_is_no_violation(self, capsys, fxdir, tmp_path):
        mu = tmp_path / "heavy.mu.json"
        mu.write_text(json.dumps({"atoms": [{"point": 1, "w": [1e308, 0]}]}))
        code, out, err = run(capsys, "stability", "--trials", "50", "--seed", "1",
                             "--sg", str(fxdir / "c4.sg.json"),
                             "--sigma", str(fxdir / "c4_negation.sigma.json"),
                             "--mu", str(mu))
        assert code == 2 and out == ""
        assert "not finite" in err

    def test_stability_missing_sigma_is_usage_error(self, capsys, fxdir):
        code, out, err = run(capsys, "stability", "--trials", "5",
                             "--sg", str(fxdir / "c4.sg.json"),
                             "--mu", str(fxdir / "c4_delta1.mu.json"))
        assert code == 64 and out == "" and "--sigma" in err


class TestAtomRange:
    @pytest.mark.parametrize("eq", ["spherical", "vanvleck"])
    def test_out_of_range_atom_exit_2(self, capsys, fxdir, tmp_path, eq):
        mu = tmp_path / "far.mu.json"
        mu.write_text(json.dumps({"atoms": [{"point": 7, "w": [1, 0]}]}))
        code, out, err = run(capsys, "verify", "--eq", eq,
                             "--sg", str(fxdir / "c4.sg.json"),
                             "--sigma", str(fxdir / "c4_negation.sigma.json"),
                             "--mu", str(mu), "--f", str(fxdir / "c4_sine.fn.json"))
        assert code == 2 and out == "" and "outside" in err
