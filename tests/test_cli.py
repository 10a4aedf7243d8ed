"""End-to-end command tests, run in process through main()."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import json
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feqlab import canonical_json, cyclic_group, render_table, semigroup_to_json, symmetric_group_3, write_fixtures
from feqlab.cli import EQUATION_TAGS, build_parser, main
from feqlab.equations import EQUATIONS
from feqlab.errors import DegenerateMeasureWarning, FeqlabError


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
        # the message names the row-major first failing triple; neither
        # table fails at (0, 0, 0); the second is C4 with table[3][2] = 3
        bad = tmp_path / "bad.sg.json"
        for table, triple in (([[0, 1], [0, 0]], "(1, 0, 1)"),
                              ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 3, 2]], "(1, 2, 2)")):
            bad.write_text(json.dumps({"n": len(table), "table": table}))
            code, out, err = run(capsys, "validate", "--sg", str(bad))
            assert (code, out) == (2, "")
            assert err == f"structural error: associativity fails at triple {triple}\n"

    def test_parse_error_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "validate", "--sg", str(bad))
        assert code == 3 and "parse error" in err

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", "--sg", str(tmp_path / "nope.json"))
        assert code == 3 and "parse error" in err

    def test_invalid_utf8_exit_3(self, capsys, tmp_path):
        # input files are read as UTF-8 (RFC 8259), whatever the locale
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, "validate", "--sg", str(bad))
        assert code == 3 and out == ""
        assert "parse error" in err and "not valid UTF-8" in err


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

    @pytest.mark.parametrize("weight", [1000, 1])
    def test_rounding_passes_self_check(self, capsys, tmp_path, weight):
        # C3's characters are inexact in floats; their residuals are
        # rounding, which ended in exit 70 at --tol 0 or weights from 1e3
        (tmp_path / "c3.sg.json").write_text(json.dumps(
            {"n": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
        (tmp_path / "mu.json").write_text(json.dumps({"atoms": [{"point": 1, "w": [weight, 0]}]}))
        code, payload = run_json(capsys, "solve", "--eq", "spherical", "--sg", str(tmp_path / "c3.sg.json"),
                                 "--mu", str(tmp_path / "mu.json"))
        assert code == 0 and len(payload["solutions"]) == 3

    def test_solution_set_ignores_the_verdict_tolerance(self, capsys, fxdir, tmp_path):
        # eq_tol once decided the means: at 1e-9 it reported the non-solution
        # [0, 1+1e-12i, 0, -1-1e-12i] for delta_1 + 1e-12 delta_2 and dropped
        # the exact solution [0, 1e-10, 0, -1e-10] of 1e-10 delta_1
        inputs = ["--sg", str(fxdir / "c4.sg.json"), "--sigma", str(fxdir / "c4_negation.sigma.json")]
        mu = tmp_path / "mu.json"
        for atoms, want in (([(1, 1.0), (2, 1e-12)], []),
                            ([(1, 1e-10)], [[[0, 0], [1e-10, 0], [0, 0], [-1e-10, 0]]])):
            mu.write_text(json.dumps({"atoms": [{"point": p, "w": [w, 0]} for p, w in atoms]}))
            code, payload = run_json(capsys, "solve", "--eq", "vanvleck", *inputs, "--mu", str(mu))
            assert code == 0
            assert [s["values"] for s in payload["solutions"]] == want
            code, out, err = run(capsys, "solve", "--eq", "vanvleck", *inputs, "--mu", str(mu), "--tol", "0")
            assert code == 64 and out == "" and "unrecognized arguments: --tol" in err

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

    @pytest.mark.parametrize("sg, sigma", [("s3", "s3_inversion"), ("c4", "c4_negation")])
    @pytest.mark.parametrize("weights", [[[0.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]],
                             ids=["zero", "merged_to_zero"])
    def test_zero_weight_atom_is_no_support(self, capsys, fxdir, tmp_path, sg, sigma, weights):
        # an atom of weight 0 at the non-central point 1 of S3 is no
        # support, so S3 gives the zero-norm answer that C4 gives
        mu = tmp_path / "zero.mu.json"
        mu.write_text(json.dumps({"atoms": [{"point": 1, "w": w} for w in weights]}))
        with pytest.warns(DegenerateMeasureWarning):
            code, out, _ = run(capsys, "solve", "--eq", "vanvleck",
                               "--sg", str(fxdir / f"{sg}.sg.json"),
                               "--sigma", str(fxdir / f"{sigma}.sigma.json"), "--mu", str(mu))
        assert code == 0
        assert json.loads(out) == {"equation": "vanvleck", "solutions": []}

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

    @pytest.mark.parametrize("flag, name, obj", [
        ("--sg", "c2.sg.json", {"n": True, "table": [[0]]}),
        ("--sg", "c2.sg.json", {"n": 2, "table": [[False, 1], [1, 0]]}),
        ("--sigma", "bool.sigma.json", {"map": [False, True], "kind": "auto"}),
        ("--mu", "bool.mu.json", {"atoms": [{"point": True, "w": [1, 0]}]}),
    ])
    def test_boolean_integers_exit_3(self, capsys, tmp_path, flag, name, obj):
        # JSON true and false are not integers, though Python counts them as ints
        (tmp_path / "c2.sg.json").write_text(json.dumps({"n": 2, "table": [[0, 1], [1, 0]]}))
        (tmp_path / "id.sigma.json").write_text(json.dumps({"map": [0, 1], "kind": "auto"}))
        (tmp_path / "delta1.mu.json").write_text(json.dumps({"atoms": [{"point": 1, "w": [1, 0]}]}))
        (tmp_path / name).write_text(json.dumps(obj))
        inputs = {"--sg": "c2.sg.json", "--sigma": "id.sigma.json", "--mu": "delta1.mu.json",
                  flag: name}
        argv = [arg for key, file in inputs.items() for arg in (key, str(tmp_path / file))]
        code, out, err = run(capsys, "solve", "--eq", "vanvleck", *argv)
        assert code == 3 and out == "" and "parse error" in err


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

    def test_battery_ignored_off_vanvleck(self, capsys, fxdir):
        argv = ["verify", "--eq", "spherical",
                "--sg", str(fxdir / "c4.sg.json"),
                "--mu", str(fxdir / "c4_delta1.mu.json"),
                "--f", str(fxdir / "c4_cosine.fn.json")]
        plain = run(capsys, *argv)
        assert "per_item" not in plain[1]
        assert run(capsys, *argv, "--battery") == plain

    def test_wilson_pair(self, capsys, fxdir):
        code, payload = run_json(
            capsys, "verify", "--eq", "wilson_variant",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"),
            "--f", str(fxdir / "c4_sine.fn.json"))
        assert code == 0 and payload["max_abs"] <= 1e-12

    @pytest.mark.parametrize("eq", ["sine_addition", "wilson_variant"])
    def test_small_mean_has_a_companion(self, capsys, fxdir, tmp_path, eq):
        # the mean 1e-10 of f = 1e-10 sine was taken for zero below eq_tol
        # (exit 4); its companion is the cosine exactly, and both residuals are 0
        fn = tmp_path / "small.fn.json"
        fn.write_text(json.dumps({"values": [[0, 0], [1e-10, 0], [0, 0], [-1e-10, 0]]}))
        code, payload = run_json(
            capsys, "verify", "--eq", eq,
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"),
            "--f", str(fn))
        assert code == 0 and payload["max_abs"] == 0.0

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

    @pytest.mark.parametrize("battery", [[], ["--battery"]], ids=["plain", "battery"])
    def test_forced_noncentral_support_is_marked(self, capsys, fxdir, tmp_path, battery):
        # a transposition is not central in S3: refused (exit 4) unless
        # forced, and a forced report fails (exit 1) and carries the marker
        fn = tmp_path / "s3.fn.json"
        fn.write_text(json.dumps({"values": [[v, 0] for v in (0, 1, -1, 0.5, -0.5, 2)]}))
        argv = ["verify", "--eq", "vanvleck", *battery, "--sg", str(fxdir / "s3.sg.json"),
                "--sigma", str(fxdir / "s3_inversion.sigma.json"),
                "--mu", str(fxdir / "s3_transposition.mu.json"), "--f", str(fn)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "") and err.startswith("hypothesis violation: ")
        code, out, err = run(capsys, *argv, "--force")
        assert (code, err) == (1, "")
        assert ("per_item" in json.loads(out)) == bool(battery)
        assert out.endswith(', "out_of_hypothesis": true}\n')


class TestSchemaErrors:
    """Each schema check of jsonio, through the verify call that loads it."""

    @pytest.mark.parametrize("flag, obj, message", [
        ("sg", {"n": 1, "table": [[0]], "name": 5}, "'name' must be a string"),
        ("sigma", {"map": [0, 3, 2, 1]}, "morphism JSON needs 'map' and 'kind'"),
        ("sigma", {"kind": "auto"}, "morphism JSON needs 'map' and 'kind'"),
        ("sigma", {"map": [0, 3, 2, 1], "kind": "inner"}, "kind must be 'auto' or 'anti'"),
        ("f", {"values": [[0, 0], [1, 0], [0, 0], [-1]]}, "function value must be a [re, im] pair"),
        ("mu", {"atoms": [{"point": 1, "w": ["1", 0]}]}, "atom weight must be a [re, im] pair"),
        ("mu", {"atoms": {"point": 1, "w": [1, 0]}}, "measure JSON needs an 'atoms' list"),
        ("mu", [], "measure JSON needs an 'atoms' list"),
        ("mu", {"atoms": [{"point": 1}]}, "each atom needs 'point' and 'w'"),
        ("mu", {"atoms": [[1, [1, 0]]]}, "each atom needs 'point' and 'w'"),
    ])
    def test_exit_3(self, capsys, fxdir, tmp_path, flag, obj, message):
        bad = tmp_path / f"bad.{flag}.json"
        bad.write_text(json.dumps(obj))
        inputs = {"sg": fxdir / "c4.sg.json", "sigma": fxdir / "c4_negation.sigma.json",
                  "mu": fxdir / "c4_delta1.mu.json", "f": fxdir / "c4_sine.fn.json", flag: bad}
        argv = ["verify", "--eq", "vanvleck"] + [a for k, path in inputs.items() for a in (f"--{k}", str(path))]
        assert run(capsys, *argv) == (3, "", f"parse error: {bad}: {message}\n")


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

    @pytest.mark.parametrize("radius", ["1e16", "1e17", "1e100"])
    def test_huge_radius_no_false_violations(self, capsys, fxdir, radius):
        # the bound holds for every f, so any violation here is rounding:
        # an absolute slack reports 59 (1e16) and 194 (1e100)
        code, payload = run_json(
            capsys, "stability", "--trials", "1000", "--seed", "0", "--radius", radius,
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"))
        assert code == 0
        assert payload["violations"] == 0 and payload["within_bound"] == 1000

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
        # the cap is checked before any input is read, so nothing is allocated
        for trials in ("100001", "1000000000000"):
            code, out, err = run(capsys, "stability", "--trials", trials, "--sg", str(fxdir / "missing.json"))
            assert (code, out) == (64, "") and err.startswith("usage error: --trials") and err.count("\n") == 1
        for radius in ("inf", "nan", "-1"):
            code, out, err = run(
                capsys, "stability", "--trials", "5", "--radius", radius,
                "--sg", str(fxdir / "c4.sg.json"),
                "--sigma", str(fxdir / "c4_negation.sigma.json"),
                "--mu", str(fxdir / "c4_delta1.mu.json"))
            assert code == 64 and out == "" and "--radius" in err
        inputs = ("--sg", str(fxdir / "c4.sg.json"),
                  "--sigma", str(fxdir / "c4_negation.sigma.json"),
                  "--mu", str(fxdir / "c4_delta1.mu.json"))
        for argv in (("stability", "--seed", "-1"), ("oracle", "--eq", "vanvleck", "--seed", "-1")):
            code, out, err = run(capsys, *argv, *inputs)
            assert code == 64 and out == "" and "seed" in err
        # --starts keeps its range, checked first, though the oracle has no starts
        for starts in ("0", "10001", "100000000"):
            code, out, err = run(capsys, "oracle", "--eq", "vanvleck", "--starts", starts, *inputs)
            assert code == 64 and out == "" and "--starts" in err


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

    def test_singular_root_is_one_root(self, capsys, tmp_path):
        # a census table with sigma the identity as an anti-automorphism:
        # multistart Gauss-Newton split a singular root in two here and
        # reported 5 roots, 3 of them oracle_only (exit 1)
        (tmp_path / "sg.json").write_text(json.dumps({"n": 3, "table": [[0, 0, 0], [0, 0, 1], [0, 1, 2]]}))
        (tmp_path / "sigma.json").write_text(json.dumps({"map": [0, 1, 2], "kind": "anti"}))
        code, payload = run_json(capsys, "oracle", "--eq", "dalembert_variant", "--sg", str(tmp_path / "sg.json"),
                                 "--sigma", str(tmp_path / "sigma.json"), "--starts", "200", "--seed", "0")
        assert code == 0
        assert payload["matched"] == 2 and len(payload["oracle_roots"]) == 2

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

    @pytest.mark.parametrize("weight", [1e-3, 1e100])
    def test_scaled_measure_matches(self, capsys, fxdir, tmp_path, weight):
        # absolute cutoffs found no root at 1e-3 (exit 1), and at 1e100 the
        # defect overflowed at the starts (exit 2)
        mu = tmp_path / "scaled.mu.json"
        mu.write_text(json.dumps({"atoms": [{"point": 1, "w": [weight, 0]}]}))
        code, payload = run_json(capsys, "oracle", "--eq", "vanvleck",
                                 "--sg", str(fxdir / "c4.sg.json"),
                                 "--sigma", str(fxdir / "c4_negation.sigma.json"),
                                 "--mu", str(mu))
        assert code == 0
        assert payload["matched"] == 1
        assert payload["closed_form"] == [[[0, 0], [weight, 0], [0, 0], [-weight, 0]]]

    @pytest.mark.parametrize("weight", [1e8, 1e10, 1e15])
    def test_matched_at_unit_norm(self, capsys, tmp_path, weight):
        # C3's characters are inexact, so the roots and the closed form
        # differ by rounding of order eps * weight: compared at the absolute
        # ORACLE_TOL, 1 of 3 matched at 1e10 and 1e15 (exit 1)
        (tmp_path / "c3.sg.json").write_text(json.dumps(semigroup_to_json(cyclic_group(3))))
        (tmp_path / "mu.json").write_text(json.dumps({"atoms": [{"point": 1, "w": [weight, 0]}]}))
        code, payload = run_json(capsys, "oracle", "--eq", "spherical", "--sg", str(tmp_path / "c3.sg.json"),
                                 "--mu", str(tmp_path / "mu.json"))
        assert code == 0
        assert payload["matched"] == 3 and len(payload["oracle_roots"]) == 3

    @pytest.mark.parametrize("weight", [1e-310, 5e-324])
    def test_subnormal_norm_prints_no_warning(self, capsys, fxdir, tmp_path, weight):
        # matching divided the roots by the subnormal norm, which overflowed
        # them with RuntimeWarnings; the closed form decides its means at
        # mu / 2^e, so it finds the one solution and the root matches it
        # (exit 1 with an empty closed form before)
        mu = tmp_path / "tiny.mu.json"
        mu.write_text(json.dumps({"atoms": [{"point": 1, "w": [weight, 0]}]}))
        code, out, err = run(capsys, "oracle", "--eq", "vanvleck",
                             "--sg", str(fxdir / "c4.sg.json"),
                             "--sigma", str(fxdir / "c4_negation.sigma.json"),
                             "--mu", str(mu))
        payload = json.loads(out)
        assert (code, err) == (0, "")
        assert payload["closed_form"] == [[[0, 0], [weight, 0], [0, 0], [-weight, 0]]]
        assert payload["matched"] == 1 and len(payload["oracle_roots"]) == 1

    def test_subnormal_norm_matches_every_spherical_root(self, capsys, fxdir, tmp_path):
        # the four characters of C4 times mean(chi) = chi(1) 5e-324: at the
        # subnormal norm the closed form kept none of them (exit 1, four
        # oracle_only roots)
        mu = tmp_path / "tiny.mu.json"
        mu.write_text(json.dumps({"atoms": [{"point": 1, "w": [5e-324, 0]}]}))
        code, out, err = run(capsys, "oracle", "--eq", "spherical",
                             "--sg", str(fxdir / "c4.sg.json"), "--mu", str(mu))
        payload = json.loads(out)
        assert (code, err) == (0, "")
        assert payload["matched"] == 4 and len(payload["closed_form"]) == 4
        assert payload["oracle_only"] == [] and payload["closed_only"] == []

    def test_unneeded_sigma_is_not_loaded(self, capsys, fxdir, tmp_path):
        # spherical takes no sigma, so a non-permutation one is ignored as in solve
        bad = tmp_path / "const.sigma.json"
        bad.write_text(json.dumps({"map": [0, 0, 0, 0], "kind": "auto"}))
        code, out, err = run(capsys, "oracle", "--eq", "spherical",
                             "--sg", str(fxdir / "c4.sg.json"), "--sigma", str(bad),
                             "--mu", str(fxdir / "c4_halfpair.mu.json"))
        assert code == 0, err
        assert json.loads(out)["matched"] >= 1


class TestExactInvariance:
    """sigma-invariance is decided bit for bit: a measure that is only
    nearly invariant is a hypothesis violation (exit 4), where a tolerance
    let it through to a closed form that failed its own check (exit 70) or
    to a verdict on a non-solution."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("invariance")
        for n, pair in ((3, (1, 2)), (8, (1, 7))):
            (d / f"c{n}.sg.json").write_text(json.dumps(semigroup_to_json(cyclic_group(n))))
            (d / f"c{n}.sigma.json").write_text(json.dumps({"map": [-x % n for x in range(n)],
                                                            "kind": "auto"}))
            for name, second in (("near", 1.0000000009), ("far", 1.0001), ("exact", 1.0)):
                (d / f"c{n}_{name}.mu.json").write_text(json.dumps(
                    {"atoms": [{"point": pair[0], "w": [1, 0]}, {"point": pair[1], "w": [second, 0]}]}))
        return d

    def argv(self, inputs, command, eq, n, mu):
        return [command, "--eq", eq, "--sg", str(inputs / f"c{n}.sg.json"),
                "--sigma", str(inputs / f"c{n}.sigma.json"), "--mu", str(inputs / f"c{n}_{mu}.mu.json")]

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("eq", ["corollary33", "integral_dalembert"])
    def test_near_invariant_exit_4(self, capsys, inputs, command, eq):
        code, out, err = run(capsys, *self.argv(inputs, command, eq, 3, "near"))
        assert code == 4 and out == ""
        assert "hypothesis violation" in err and "pushforward" in err
        code, payload = run_json(capsys, *self.argv(inputs, command, eq, 3, "exact"))
        assert code == 0
        assert payload["solutions" if command == "solve" else "closed_form"]

    def test_tol_never_loosens_invariance(self, capsys, inputs, tmp_path):
        # weights 1 and 1.0001 differ by far less than --tol 1e-3, and the
        # zero function's residual is 0; only the hypothesis can fail here
        f = tmp_path / "zero.fn.json"
        f.write_text(json.dumps({"values": [[0, 0]] * 3}))
        code, out, err = run(capsys, *self.argv(inputs, "verify", "corollary33", 3, "far"),
                             "--f", str(f), "--tol", "1e-3")
        assert code == 4 and out == "" and "pushforward" in err

    def test_verify_gate(self, capsys, inputs, tmp_path):
        code, payload = run_json(capsys, *self.argv(inputs, "solve", "integral_dalembert", 8, "exact"))
        assert code == 0
        solution = tmp_path / "solution.fn.json"
        solution.write_text(json.dumps({"values": payload["solutions"][0]["values"]}))
        other = tmp_path / "other.fn.json"
        other.write_text(json.dumps({"values": [[1, 0]] * 8}))
        for f, exact_code in ((solution, 0), (other, 1)):
            code, out, err = run(capsys, *self.argv(inputs, "verify", "integral_dalembert", 8, "near"),
                                 "--f", str(f))
            assert code == 4 and out == "" and "pushforward" in err
            code, out, err = run(capsys, *self.argv(inputs, "verify", "integral_dalembert", 8, "exact"),
                                 "--f", str(f))
            assert code == exact_code and json.loads(out)["equation"] == "integral_dalembert"


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
        # NaN fails every comparison, so it would fake a verdict either way
        inputs = ("--sg", str(fxdir / "c4.sg.json"),
                  "--sigma", str(fxdir / "c4_negation.sigma.json"),
                  "--mu", str(fxdir / "c4_delta1.mu.json"))
        verify = ("verify", "--eq", "vanvleck", "--f", str(fxdir / "c4_sine.fn.json"))
        for argv in (verify + ("--tol", "-1"), verify + ("--tol", "nan"), verify + ("--tol", "inf"),
                     ("stability", "--trials", "20", "--tol", "nan")):
            code, out, err = run(capsys, *argv, *inputs)
            assert code == 64 and out == "" and "--tol must be finite and nonnegative" in err

    def test_only_verdicts_take_tol(self):
        # eq_tol judges verify's and stability's verdicts; no solution set reads it
        commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        takes = {name for name, sub in commands.choices.items()
                 if any("--tol" in a.option_strings for a in sub._actions)}
        assert takes == {"verify", "stability"}


class TestFixturesCommand:
    def test_writes_bundle(self, capsys, tmp_path):
        out = tmp_path / "bundle"
        code, payload = run_json(capsys, "fixtures", "--out", str(out))
        assert code == 0
        assert sorted(payload["written"]) == payload["written"]
        for name in payload["written"]:
            assert (out / name).exists()
        assert "c4.sg.json" in payload["written"]

    def test_out_is_a_file_exit_3(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.write_text("")
        code, out, err = run(capsys, "fixtures", "--out", str(target))
        assert code == 3 and out == ""
        assert "cannot write" in err

    def test_out_below_a_file_exit_3(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.write_text("")
        code, out, err = run(capsys, "fixtures", "--out", str(target / "sub"))
        assert code == 3 and out == ""
        assert "cannot write" in err


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
# The solution-set label and provenance formula solve prints for each tag.
CLOSED_FORMS = {
    "vanvleck": ("vanvleck", "(chi o sigma - chi)/2 * mean(chi)"),
    "dalembert_variant": ("dalembert_variant", "(chi + chi o sigma)/2"),
    "integral_dalembert": ("corollary33", "(chi + chi o sigma)/2 * mean(chi)"),
    "corollary33": ("corollary33", "(chi + chi o sigma)/2 * mean(chi)"),
    "spherical": ("spherical", "chi * mean(chi)"),
}


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
            assert code == 64 and out == "" and "no closed form" in err
            # said before any input is required (no --mu) or loaded (a sigma not fitting C4)
            code, out, err = run(capsys, command, "--eq", eq, "--sg", str(matrix_dir / "c4.sg.json"),
                                 "--sigma", str(matrix_dir / "s3_inversion.sigma.json"))
            assert code == 64 and out == "" and "no closed form" in err
        else:
            assert code == 0, err
            payload = json.loads(out)
            if command == "solve":
                label, formula = CLOSED_FORMS[eq]
                assert payload["equation"] == label
                assert payload["solutions"]
                assert all(s["provenance"]["formula"] == formula for s in payload["solutions"])
            elif command == "oracle":
                assert payload["matched"] >= 1


README_SOLVE = ('{"equation": "vanvleck", "solutions": [{"values": [[0, 0], [1, 0], [0, 0], [-1, 0]], '
                '"provenance": {"chi": {"values": [{"q": 0, "m": 1}, {"q": 1, "m": 4}, {"q": 1, "m": 2}, '
                '{"q": 3, "m": 4}]}, "formula": "(chi o sigma - chi)/2 * mean(chi)"}}]}\n')
README_ORACLE = ('{"equation": "vanvleck", "oracle_roots": [[[0, 0], [1, 5.9945934210020707e-34], [0, 0], '
                 '[-1, -5.9945934210020707e-34]]], "closed_form": [[[0, 0], [1, 0], [0, 0], [-1, 0]]], '
                 '"matched": 1, "oracle_only": [], "closed_only": []}\n')
README_STABILITY = ('{"trials": 1000, "violations": 0, "exact": 0, "within_bound": 1000, '
                    '"max_ratio": 0.99998952101432848, "seed": 42}\n')
README_BATTERY = ('{"equation": "vanvleck", "max_abs": 0, "argmax": [0, 0], "per_item": ['
                  '{"name": "1_sigma_odd", "value": 0, "ok": true}, '
                  '{"name": "2_nonzero_mean", "value": 1, "flag": true, "ok": true}, '
                  '{"name": "3_cross_antisym", "value": 0, "ok": true}, '
                  '{"name": "4_twisted_double_mean", "value": 0, "ok": true}, '
                  '{"name": "5_double_mean", "value": 0, "ok": true}, '
                  '{"name": "6_sigma_right_mean", "value": 0, "ok": true}, '
                  '{"name": "7_sigma_twist_mean", "value": 0, "ok": true}, '
                  '{"name": "8_vanishing_double_mean", "value": 0, "ok": true}]}\n')


class TestPinnedOutput:
    def test_readme_solve(self, capsys, fxdir):
        code, out, _ = run(
            capsys, "solve", "--eq", "vanvleck",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"))
        assert code == 0
        assert out == README_SOLVE

    def test_readme_oracle(self, capsys, fxdir):
        # the root's last bits pin the oracle's eigenvalue reads; --starts changes nothing
        code, out, _ = run(
            capsys, "oracle", "--eq", "vanvleck", "--starts", "200", "--seed", "0",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"))
        assert code == 0
        assert out == README_ORACLE

    def test_readme_verify_battery(self, capsys, fxdir):
        code, out, _ = run(
            capsys, "verify", "--eq", "vanvleck", "--battery",
            "--sg", str(fxdir / "c4.sg.json"),
            "--sigma", str(fxdir / "c4_negation.sigma.json"),
            "--mu", str(fxdir / "c4_delta1.mu.json"),
            "--f", str(fxdir / "c4_sine.fn.json"))
        assert code == 0
        assert out == README_BATTERY

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

    def test_overflowing_companion_exit_2(self, capsys, fxdir, tmp_path):
        # the mean is 1e-6, so the companion g = 1e305 / 1e-6 overflows; under
        # the suite's error::RuntimeWarning filter a warning would escape (exit 70)
        fn = tmp_path / "huge.fn.json"
        fn.write_text(json.dumps({"values": [[1e-6, 0], [1e-6, 0], [1e305, 0], [1e305, 0]]}))
        code, out, err = run(capsys, "verify", "--eq", "sine_addition",
                             "--sg", str(fxdir / "c4.sg.json"),
                             "--mu", str(fxdir / "c4_delta1.mu.json"),
                             "--f", str(fn))
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

    def test_overflowing_oracle_exit_2(self, capsys, fxdir, tmp_path):
        # the oracle solves at unit norm, so only a norm that overflows (two
        # masses of 1e308) leaves its operator non-finite; it must exit 2,
        # not report a mismatch. solve, whose mean tests read a
        # rounding bound of ||mu|| = inf, printed an empty set with exit 0
        mu = tmp_path / "heavy.mu.json"
        mu.write_text(json.dumps({"atoms": [{"point": 1, "w": [1e308, 0]},
                                            {"point": 3, "w": [1e308, 0]}]}))
        for eq in ("vanvleck", "spherical"):
            argv = ["--eq", eq, "--sg", str(fxdir / "c4.sg.json"),
                    "--sigma", str(fxdir / "c4_negation.sigma.json"), "--mu", str(mu)]
            code, out, err = run(capsys, "oracle", *argv)
            assert code == 2 and out == ""
            assert "structural error" in err and "not finite" in err
            assert run(capsys, "solve", *argv) == (code, out, err)

    def test_merged_weights_overflow_exit_2(self, capsys, fxdir, tmp_path):
        # each weight is finite, but merged at point 1 they sum to inf
        mu = tmp_path / "twice.mu.json"
        mu.write_text(json.dumps({"atoms": [{"point": 1, "w": [1e308, 0]},
                                            {"point": 1, "w": [1e308, 0]}]}))
        code, out, err = run(capsys, "solve", "--eq", "vanvleck",
                             "--sg", str(fxdir / "c4.sg.json"),
                             "--sigma", str(fxdir / "c4_negation.sigma.json"),
                             "--mu", str(mu))
        assert code == 2 and out == ""
        assert "structural error" in err and "atom weights must be finite" in err

    def test_overflowing_battery_pair_exit_2(self, capsys, tmp_path):
        # every term but item 8's double mean f(1 1) = 1e160 * 5e153 is finite
        paths = {}
        for flag, obj in (("sg", {"n": 3, "table": [[0, 0, 0], [0, 2, 0], [0, 0, 0]]}),
                          ("sigma", {"map": [0, 1, 2], "kind": "auto"}),
                          ("mu", {"atoms": [{"point": 1, "w": [1e80, 0]}]}),
                          ("f", {"values": [[0, 0], [0, 0], [5e153, 0]]})):
            paths[flag] = tmp_path / f"{flag}.json"
            paths[flag].write_text(json.dumps(obj))
        argv = ["verify", "--eq", "vanvleck"] + [a for flag, path in paths.items()
                                                 for a in (f"--{flag}", str(path))]
        assert run(capsys, *argv)[0] == 1
        code, out, err = run(capsys, *argv, "--battery")
        assert code == 2 and out == ""
        assert "structural error" in err and "not finite" in err

    def test_overflowing_battery_mean_exit_2(self, capsys, tmp_path):
        # every battery term is 0 on the null semigroup, but the modulus of
        # the mean (M + Mi) 0.8 exceeds the largest float M (exit 70 before)
        top = sys.float_info.max
        paths = {}
        for flag, obj in (("sg", {"n": 2, "table": [[0, 0], [0, 0]]}),
                          ("sigma", {"map": [0, 1], "kind": "auto"}),
                          ("mu", {"atoms": [{"point": 1, "w": [top, top]}]}),
                          ("f", {"values": [[0, 0], [0.8, 0]]})):
            paths[flag] = tmp_path / f"{flag}.json"
            paths[flag].write_text(json.dumps(obj))
        argv = ["verify", "--eq", "vanvleck"] + [a for flag, path in paths.items()
                                                 for a in (f"--{flag}", str(path))]
        assert run(capsys, *argv)[0] == 1
        code, out, err = run(capsys, *argv, "--battery")
        assert code == 2 and out == ""
        assert err == "structural error: battery mean is not finite (overflow or non-finite input)\n"

    @pytest.mark.parametrize("argv, n, weight, expected", [
        # ||mu|| = |w| exceeds the largest float, though both parts are finite
        (("solve", "--eq", "spherical"), 1, [1.5e308, 1.5e308], 2),
        (("stability",), 1, [1.5e308, 1.5e308], 2),
        # the odd form's mean test sums 2 mean(chi), whose modulus overflows
        (("solve", "--eq", "vanvleck"), 5, [1e308, 0], 0),
        (("stability",), 5, [1e308, 0], 0),
        # solved at mu / 2^1023 and scaled back, psi = w (its self-check
        # overflowed at mu itself, exit 2)
        (("solve", "--eq", "spherical"), 1, [1e308, 1e308], 0),
    ], ids=["solve_norm", "stability_norm", "solve_odd_form", "stability_odd_form", "solve_product"])
    def test_overflowing_modulus_no_traceback(self, capsys, tmp_path, argv, n, weight, expected):
        # complex abs raises OverflowError where the modulus of finite parts
        # overflows (exit 70), and numpy warned on stderr. The warnings are
        # recorded, since the suite's filter cannot see what reaches stderr
        paths = {}
        for flag, obj in (("sg", semigroup_to_json(cyclic_group(n))),
                          ("sigma", {"map": list(range(n)), "kind": "auto"}),
                          ("mu", {"atoms": [{"point": min(n - 1, 1), "w": weight}]})):
            paths[flag] = tmp_path / f"{flag}.json"
            paths[flag].write_text(json.dumps(obj))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv, *[a for flag, path in paths.items()
                                                  for a in (f"--{flag}", str(path))])
        assert code == expected, err
        assert "Traceback" not in err and not caught
        if expected == 2:
            assert out == "" and err.startswith("structural error: ") and err.count("\n") == 1
        elif argv[0] == "solve":
            payload = json.loads(out)
            assert payload["equation"] == argv[2]
            assert [s["values"] for s in payload["solutions"]] == ([] if argv[2] == "vanvleck" else [[weight]])

    def test_solution_near_the_float_limit_is_verified_at_unit_scale(self, capsys, tmp_path):
        """solve decides and verifies at mu / 2^1023, so it prints psi = w
        for mu = (1e308 + 1e308i) delta_0 on the one-element table; verify
        of that psi at mu itself overflows its residual (exit 2)."""
        paths = {}
        for flag, obj in (("sg", semigroup_to_json(cyclic_group(1))),
                          ("mu", {"atoms": [{"point": 0, "w": [1e308, 1e308]}]})):
            paths[flag] = tmp_path / f"{flag}.json"
            paths[flag].write_text(json.dumps(obj))
        inputs = [a for flag, path in paths.items() for a in (f"--{flag}", str(path))]
        code, payload = run_json(capsys, "solve", "--eq", "spherical", *inputs)
        assert code == 0 and [s["values"] for s in payload["solutions"]] == [[[1e308, 1e308]]]
        fn = tmp_path / "psi.fn.json"
        fn.write_text(json.dumps({"values": [[1e308, 1e308]]}))
        code, out, err = run(capsys, "verify", "--eq", "spherical", *inputs, "--f", str(fn))
        assert code == 2 and out == "" and "not finite" in err

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

    @pytest.mark.parametrize("argv", [
        ("solve", "--eq", "spherical"),
        ("solve", "--eq", "vanvleck", "--sigma", "c4_negation.sigma.json"),
        ("verify", "--eq", "spherical", "--f", "c4_sine.fn.json"),
        ("oracle", "--eq", "spherical"),
    ], ids=["solve_spherical", "solve_vanvleck", "verify", "oracle"])
    def test_zero_norm_atom_out_of_range_exit_2(self, capsys, fxdir, tmp_path, argv):
        # the atom points are range-checked before the zero-norm answer
        mu = tmp_path / "far.mu.json"
        mu.write_text(json.dumps({"atoms": [{"point": 9, "w": [0, 0]}]}))
        argv = [str(fxdir / a) if a.endswith(".json") else a for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, "--sg", str(fxdir / "c4.sg.json"), "--mu", str(mu))
        assert code == 2 and out == ""
        assert "atom point 9 is outside 0..3" in err


class TestDeepJson:
    """The JSON decoder raises RecursionError past its depth; that is a
    parse error, not a traceback."""

    def test_deep_semigroup_exit_3(self, capsys, tmp_path):
        deep = tmp_path / "deep.sg.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "validate", "--sg", str(deep))
        assert code == 3 and out == ""
        assert "parse error" in err and "nested too deeply" in err

    def test_deep_measure_exit_3(self, capsys, fxdir, tmp_path):
        deep = tmp_path / "deep.mu.json"
        deep.write_text("[" * 50_000 + "]" * 50_000)
        code, out, err = run(capsys, "solve", "--eq", "vanvleck",
                             "--sg", str(fxdir / "c4.sg.json"),
                             "--sigma", str(fxdir / "c4_negation.sigma.json"),
                             "--mu", str(deep))
        assert code == 3 and out == ""
        assert "nested too deeply" in err


class TestInternalError:
    def solve(self, capsys, fxdir):
        return run(capsys, "solve", "--eq", "vanvleck",
                   "--sg", str(fxdir / "c4.sg.json"),
                   "--sigma", str(fxdir / "c4_negation.sigma.json"),
                   "--mu", str(fxdir / "c4_delta1.mu.json"))

    @pytest.mark.parametrize("error", [FeqlabError("internal: closed form failed verification"),
                                       RuntimeError("boom"), ZeroDivisionError("division by zero")],
                             ids=["feqlab_error", "runtime_error", "zero_division"])
    def test_escaped_exception_exit_70(self, capsys, fxdir, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr("feqlab.cli.closed_form", fail)
        code, out, err = self.solve(capsys, fxdir)
        assert code == 70 and out == ""
        assert f"internal error: {error}" in err

    def test_interrupt_is_not_mapped(self, capsys, fxdir, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("feqlab.cli.closed_form", interrupt)
        with pytest.raises(KeyboardInterrupt):
            self.solve(capsys, fxdir)

    def test_failed_self_check_exit_70(self, capsys, fxdir, monkeypatch):
        # the even form is no sine-variant solution, so the closed form's
        # own verification must refuse it
        eq = EQUATIONS["vanvleck"]
        monkeypatch.setitem(EQUATIONS, "vanvleck",
                            dataclasses.replace(eq, closed_form=eq.closed_form._replace(sigma_sign=1)))
        code, out, err = self.solve(capsys, fxdir)
        assert code == 70 and out == ""
        assert "closed form failed verification for vanvleck" in err


# Exit codes the README documents; stdout stays empty for all but 0 and 1.
DOCUMENTED_CODES = {0, 1, 2, 3, 4, 64, 70}
FILE_FLAGS = {"validate": ("sg",), "analyze": ("sg",), "solve": ("sg", "sigma", "mu"),
              "stability": ("sg", "sigma", "mu"), "oracle": ("sg", "sigma", "mu"),
              "verify": ("sg", "sigma", "mu", "f")}

_small = st.integers(-1, 5)
_number = st.one_of(_small, st.integers(), st.floats(), st.sampled_from([1e308, -1e308, 5e-324, 10 ** 400]))
_pair = st.lists(_number, min_size=2, max_size=2)
_any_json = st.recursive(
    st.none() | st.booleans() | _number | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=12)
_tables = st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries(
    {"n": st.just(n), "table": st.lists(st.lists(st.integers(0, n - 1) | _small, min_size=n, max_size=n),
                                         min_size=n, max_size=n)}))
# each file is a valid document, one of its schema with random values, or any JSON
_documents = {
    "sg": st.sampled_from([semigroup_to_json(cyclic_group(4)), semigroup_to_json(symmetric_group_3())]) | _tables,
    "sigma": st.sampled_from([{"map": [0, 3, 2, 1], "kind": "auto"}, {"map": [0, 1, 2, 3], "kind": "anti"}])
    | st.fixed_dictionaries({"map": st.lists(_small, max_size=6), "kind": st.sampled_from(["auto", "anti", "x"])}),
    "mu": st.fixed_dictionaries({"atoms": st.lists(st.fixed_dictionaries({"point": _small, "w": _pair}),
                                                   max_size=3)}),
    "f": st.fixed_dictionaries({"values": st.lists(_pair, max_size=6)}),
}
_texts = {flag: (docs | _any_json).map(json.dumps) for flag, docs in _documents.items()}
_argvs = st.one_of(
    st.just(["validate"]), st.just(["analyze"]),
    st.tuples(st.sampled_from(["solve", "verify"]), st.sampled_from(EQUATION_TAGS)).map(lambda c: [c[0], "--eq", c[1]]),
    st.sampled_from(EQUATION_TAGS).map(lambda eq: ["oracle", "--eq", eq, "--starts", "20"]),
    st.just(["stability", "--trials", "5"]),
    st.sampled_from(EQUATION_TAGS).map(lambda eq: ["verify", "--eq", eq, "--battery", "--force"]),
)


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestFuzz:
    @given(argv=_argvs, sg=_texts["sg"], sigma=_texts["sigma"], mu=_texts["mu"], f=_texts["f"])
    @example(argv=["validate"], sg="[" * 100_000, sigma="", mu="", f="")
    @settings(max_examples=30, deadline=None, database=None)
    def test_exit_code_is_documented(self, fuzzdir, argv, sg, sigma, mu, f):
        texts = {"sg": sg, "sigma": sigma, "mu": mu, "f": f}
        for flag in FILE_FLAGS[argv[0]]:
            path = fuzzdir / f"{flag}.json"
            path.write_text(texts[flag])
            argv = argv + [f"--{flag}", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
        assert code in DOCUMENTED_CODES, err.getvalue()
        if code in (0, 1):
            json.loads(out.getvalue())
        else:
            assert out.getvalue() == ""


def load_cli_fuzz():
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_fuzz.py"
    spec = importlib.util.spec_from_file_location("cli_fuzz", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


class TestSeededFuzz:
    def test_every_command_keeps_the_exit_code_contract(self):
        """150 seeded calls of tools/cli_fuzz.py, with extreme weights and
        values, keep its rules: a documented exit code other than 70, no
        VIOLATION, and only the one-line message on stderr. Longer runs:
        python3 tools/cli_fuzz.py --seed S --calls N."""
        exits, failures, _ = load_cli_fuzz().fuzz(0, 150)
        assert failures == []
        assert sum(exits.values()) == 150
        assert {code for _, code in exits} <= DOCUMENTED_CODES - {70}
        assert {command for command, _ in exits} == {*FILE_FLAGS, "fixtures"}
        # the oracle and the campaign ran to a report, not only to an error
        assert exits["oracle", 0] and exits["stability", 0]

    @pytest.mark.parametrize("kinds", [set(), {"oracle_only"}, {"closed_only"}, {"oracle_only", "closed_only"}],
                             ids=["none", "oracle_only", "closed_only", "both"])
    def test_mismatch_kinds_read_alike_from_json_and_table(self, kinds):
        """The fuzzer's count of oracle_only and closed_only roots reads
        an oracle report alike in either format, as main prints it. The
        reports are canned, so the test does not rest on the inputs where
        the oracle and a closed form disagree."""
        tool = load_cli_fuzz()
        one, two = [[0, 0], [1, 0.5]], [[1, 0], [-1, 0]]
        payload = {"equation": "spherical", "oracle_roots": [one], "closed_form": [two], "matched": 0,
                   "oracle_only": [one] if "oracle_only" in kinds else [],
                   "closed_only": [two] if "closed_only" in kinds else []}
        for fmt, text in (([], canonical_json(payload)), (["--format", "table"], render_table(payload))):
            assert tool.mismatch_kinds(["oracle", "--eq", "spherical", *fmt], text + "\n") == kinds
