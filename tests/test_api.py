"""The public surface: what `feqlab.__all__` exports, and the names the
benchmark harness and the README library example import from it.

The benchmark lives outside `tests/`, so a library name it imports can
vanish with no other failing test. These checks read its sources with
`ast` and never import or run them. The README library example is also
run, and each value it states in a trailing comment is checked. A fresh
interpreter checks what the CLI's cold start imports.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import io
import os
import re
import subprocess
import sys
import tokenize
import types
from collections import Counter
from pathlib import Path

import pytest

import feqlab

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def feqlab_imports(source: str) -> list[tuple[str, str | None]]:
    """(module, name) for each `from feqlab... import name`, and
    (module, None) for each `import feqlab...`."""
    out: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "feqlab":
            out += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names
                    if alias.name.split(".")[0] == "feqlab"]
    return out


def readme_library_example() -> str:
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    return next(b for b in blocks if "from feqlab import" in b)


# The exported names, so that any addition or removal is a deliberate edit here.
PUBLIC_NAMES = [
    "BatteryItem", "COSINE_C4", "CampaignConfig", "CampaignSummary", "Character",
    "DEFAULT_TOL", "DiracMeasure", "FiniteSemigroup", "InequalityItem",
    "InvolutiveMorphism", "MorphismKind", "Provenance", "ResidualReport",
    "SINE_C4", "Solution", "SolutionSet", "StabilityTrial", "ToleranceConfig",
    "Verdict", "approximate_battery", "battery_report", "canonical_json", "center",
    "character_to_scalar", "check_function", "companion_cosine",
    "cyclic_group", "direct_product", "enumerate_all_semigroups",
    "enumerate_characters", "enumerate_involutive_morphisms", "fixture_bundle",
    "function_to_json", "fuzz_campaign", "identity_battery", "index_period",
    "integrate", "is_sigma_invariant", "left_zero", "load_function", "load_measure",
    "load_morphism", "load_semigroup", "match_solution_sets", "measure_norm",
    "morphism_to_json", "newton_oracle", "null_semigroup", "pushforward",
    "render_table", "residual_central_dalembert", "residual_dalembert",
    "residual_integral_dalembert", "residual_sine_addition", "residual_spherical",
    "residual_vanvleck", "residual_wilson", "right_transform", "s3_inversion",
    "semigroup_to_json", "solve_central_dalembert", "solve_dalembert",
    "solve_spherical", "solve_vanvleck", "spectral_oracle", "superstability_bound", "support_in_center",
    "symmetric_group_3", "validate_morphism", "validate_semigroup", "write_fixtures"
]


def test_all_is_pinned():
    assert sorted(feqlab.__all__) == PUBLIC_NAMES


def test_all_holds_no_modules():
    modules = [name for name in feqlab.__all__ if isinstance(getattr(feqlab, name), types.ModuleType)]
    assert modules == []


def test_cli_cold_start_loads_no_exact_arithmetic():
    # fractions and decimal cost milliseconds and sympy about 0.4 s of every
    # CLI call; exact work must import them where it runs
    code = ("import sys, feqlab.cli; print(sorted(m for m in ('fractions', 'decimal', "
            "'sympy', 'scipy') if m in sys.modules))")
    path = os.pathsep.join(filter(None, [str(Path(feqlab.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_perfbench_is_present():
    assert len(PERFBENCH) >= 4
    assert any(feqlab_imports(p.read_text()) for p in PERFBENCH)


@pytest.mark.parametrize("path", PERFBENCH, ids=lambda p: p.name)
def test_perfbench_imports_resolve(path):
    for module, name in feqlab_imports(path.read_text()):
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: from {module} import {name}"


def test_readme_example_imports_are_exported():
    names = [name for _, name in feqlab_imports(readme_library_example())]
    assert names
    missing = [name for name in names if name not in feqlab.__all__]
    assert missing == []


def test_readme_example_runs_as_documented():
    # statement by statement; an expression line's "# value" comment is its repr
    source = readme_library_example()
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr) and node.end_lineno in comments:
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert repr(value) == comments[node.end_lineno], ast.unparse(node)
            checked.append(ast.unparse(node))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert len(checked) == 3, checked


def test_cli_digest_matrix_and_its_calls(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    argvs = tool.calls()
    assert len(argvs) == 5548
    assert Counter(argv[0] for argv in argvs) == {"solve": 896, "oracle": 896, "verify": 3612, "stability": 128,
                                                  "validate": 8, "analyze": 8}
    # --force on S3 with the inversion, once per measure with and without
    # --battery; a transposition mass is not central, so its report is marked
    forced = [argv for argv in argvs if "--force" in argv]
    assert len(forced) == 14 and Counter(argv[argv.index("--mu") + 1] for argv in forced) == \
        dict.fromkeys(tool.MEASURES, 2)
    tool.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = tool.run(next(argv for argv in forced if "s3_transposition.mu.json" in argv))
    assert (code, err) == (1, "") and out.endswith(', "out_of_hypothesis": true}\n')
    # every command on the C4 desk case, and one call that exits 64 for a missing --mu
    desk = ["--sg", "c4.sg.json", "--sigma", "c4_negation.sigma.json", "--mu", "c4_delta1.mu.json"]
    picked = [argv for argv in argvs if argv[0] == "stability" and argv[1:7] == desk]
    picked += [argv for argv in argvs if argv[1:3] == ["--eq", "vanvleck"]
               and (argv[3:9] == desk or argv[3:7] == desk[:4] and "--mu" not in argv)]
    assert len(picked) == 13
    results = tool.digests(picked)
    count, sha, exits = results[None]
    assert (count, exits) == (13, {0: 5, 1: 2, 64: 6})
    assert tool.digests(picked)[None][1] == sha and len(sha) == 64
    # one line per command, each hashing that command's calls alone, then the total line
    alone = tool.digests([argv for argv in picked if argv[0] == "stability"])[None]
    assert results["stability"] == alone and alone[0] == 1 and alone[1] != sha
    assert sum(results[command][0] for command in tool.COMMANDS if command in results) == 13
    printed = tool.lines(results)
    assert [line.split(" ", 1)[0] for line in printed] == ["solve", "oracle", "verify", "stability", "13"]
    assert printed[3] == f"stability 1 calls sha256 {alone[1]} exits 0x1"
    assert printed[-1] == f"13 calls sha256 {sha} exits 0x5 1x2 64x6"


def test_oracle_digest_matrix_and_its_calls():
    spec = importlib.util.spec_from_file_location("oracle_digest", ROOT / "tools" / "oracle_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    matrix = tool.calls()
    assert len(matrix) == 539
    assert sum(label.startswith("census ") for label, _, _ in matrix) == 494
    picked = [call for call in matrix if call[0].startswith("C4 vanvleck ")] + matrix[:2]
    count, sha, roots, counts = tool.digest(picked)
    assert count == 5 and tool.digest(picked) == (count, sha, roots, counts) and len(sha) == len(counts) == 64
    assert roots == 3  # C4's sine solution at each of the three seeds
    # a call that raises is hashed with its error, in both lines
    label, args, _ = picked[0]
    failed, alone = tool.digest([(label, args, {"seed": -1})]), tool.digest(picked[:1])
    assert (failed[0], failed[2], alone[2]) == (1, 0, 1)
    assert failed[1] != alone[1] and failed[3] != alone[3]


def test_census_count_tool_at_order_three(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("census_count", ROOT / "tools" / "census_count.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.CENSUS_COUNTS == (1, 8, 113, 3492) and tool.CYCLIC_MAX == 64
    monkeypatch.setattr(tool, "CENSUS_COUNTS", tool.CENSUS_COUNTS[:3])
    monkeypatch.setattr(tool, "CYCLIC_MAX", 12)
    assert tool.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [f"census n={n} tables {c} reference {c}" for n, c in ((1, 1), (2, 8), (3, 113))]
    assert len(lines) == 15 and lines[-1] == "C12 involutive automorphisms 4 reference 4"
    # a count that misses its reference is printed as such and fails the run
    monkeypatch.setattr(tool, "CENSUS_COUNTS", (1, 9))
    monkeypatch.setattr(tool, "CYCLIC_MAX", 0)
    assert tool.main() == 1
    assert capsys.readouterr().out.splitlines() == ["census n=1 tables 1 reference 1",
                                                    "census n=2 tables 8 reference 9 MISMATCH"]
