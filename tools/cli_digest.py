"""One sha256 over a fixed matrix of feqlab CLI calls, to show that a
change keeps every CLI answer byte for byte.

Run `python3 tools/cli_digest.py` in each of two checkouts (it imports
feqlab from the checkout's own src/) and compare the printed lines: the
call count, the sha256 and the exit codes are equal when every call
gives the same exit code, stdout and stderr. One line per command
(solve, oracle, verify, stability, validate, analyze) hashes that
command's calls alone, so a change to one command's bytes moves only its
line; the last line hashes the whole matrix.

The fixtures are the bundle of `feqlab fixtures` plus four measures: a
complex pair, a pair on 0 and 1 whose complex weights are not dyadic
(so a change in the order in which a mean is rounded shows), 0 delta_9
(out of range on every bundled table) and one without atoms; and a
function of six values. The calls run in process,
from the fixture directory, so argv holds only file names. They are
`solve`, `oracle --starts 30` and `verify` (both function fixtures, with
and without `--battery`) for every tag x table x (no sigma or each
sigma) x (no mu or each mu); `verify --eq vanvleck` of the six values on
S3 with the inversion for each mu, with and without `--battery` and
`--force` (most of these measures are not central in S3, so the forced
reports are marked out of hypothesis); `stability --trials 50 --seed 3`
for every table, sigma and mu; and `validate` and `analyze` for every
table with `--format json` and `--format table`.

Warnings are caught per call, all of them, and hashed as "Category:
message" lines after stderr, so neither a moved source line nor the
order of the calls changes the digest. For exit 70 only the last line of
stderr is kept: the traceback above it names source lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from feqlab.cli import EQUATION_TAGS, main  # noqa: E402
from feqlab.fixtures import write_fixtures  # noqa: E402

TABLES = ("c4.sg.json", "s3.sg.json", "null2.sg.json", "leftzero2.sg.json")
SIGMAS = ("c4_negation.sigma.json", "c4_identity.sigma.json", "s3_inversion.sigma.json")
EXTRA_MEASURES = {
    "complex_pair.mu.json": {"atoms": [{"point": 1, "w": [0.5, -0.25]}, {"point": 3, "w": [0.5, 0.25]}]},
    "nondyadic_pair.mu.json": {"atoms": [{"point": 0, "w": [-0.56, -0.76]}, {"point": 1, "w": [0.78, -0.76]}]},
    "zero_at_9.mu.json": {"atoms": [{"point": 9, "w": [0.0, 0.0]}]},
    "no_atoms.mu.json": {"atoms": []},
}
MEASURES = ("c4_delta1.mu.json", "c4_halfpair.mu.json", "s3_transposition.mu.json", *EXTRA_MEASURES)
FUNCTIONS = ("c4_sine.fn.json", "c4_cosine.fn.json")
S3_FUNCTION = "s3_values.fn.json"
EXTRA_INPUTS = {**EXTRA_MEASURES,
                S3_FUNCTION: {"values": [[0, 0], [1, -0.5], [-1, 0.25], [0.5, 0], [-0.5, 1], [2, 0]]}}


def write_inputs(outdir: str | Path) -> None:
    """The bundle and the extra inputs, written to outdir."""
    write_fixtures(outdir)
    for name, obj in EXTRA_INPUTS.items():
        (Path(outdir) / name).write_text(json.dumps(obj) + "\n")


def calls() -> list[list[str]]:
    """The argv of every call, in order."""
    def optional(flag: str, name: str | None) -> list[str]:
        return [] if name is None else [flag, name]

    out = []
    for tag, table, sigma, mu in itertools.product(EQUATION_TAGS, TABLES, (None, *SIGMAS), (None, *MEASURES)):
        inputs = ["--eq", tag, "--sg", table, *optional("--sigma", sigma), *optional("--mu", mu)]
        out += [["solve", *inputs], ["oracle", *inputs, "--starts", "30"]]
        for fn in FUNCTIONS:
            out += [["verify", *inputs, "--f", fn], ["verify", *inputs, "--f", fn, "--battery"]]
    for mu, battery, force in itertools.product(MEASURES, ([], ["--battery"]), ([], ["--force"])):
        out.append(["verify", "--eq", "vanvleck", "--sg", "s3.sg.json", "--sigma", "s3_inversion.sigma.json",
                    "--mu", mu, "--f", S3_FUNCTION, *battery, *force])
    for table, sigma, mu in itertools.product(TABLES, (None, *SIGMAS), (None, *MEASURES)):
        out.append(["stability", "--sg", table, *optional("--sigma", sigma), *optional("--mu", mu),
                    "--trials", "50", "--seed", "3"])
    for command, table, fmt in itertools.product(("validate", "analyze"), TABLES, ("json", "table")):
        out.append([command, "--sg", table, "--format", fmt])
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process call, stderr as the
    module docstring says."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    stderr = err.getvalue()
    if code == 70:
        stderr = stderr.rstrip("\n").rsplit("\n", 1)[-1] + "\n"
    stderr += "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), stderr


COMMANDS = ("solve", "oracle", "verify", "stability", "validate", "analyze")


def digests(argvs: list[list[str]]) -> dict[str | None, tuple[int, str, Counter]]:
    """(call count, sha256 hex, exit code counts) of the calls, run in a
    fresh fixture directory: under None for all of them, and under each
    command for its calls alone."""
    shas, exits = {None: hashlib.sha256()}, {None: Counter()}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        os.chdir(tmp)
        try:
            for argv in argvs:
                code, stdout, stderr = run(argv)
                line = json.dumps([argv, code, stdout, stderr]).encode() + b"\n"
                for key in (None, argv[0]):
                    shas.setdefault(key, hashlib.sha256()).update(line)
                    exits.setdefault(key, Counter())[code] += 1
        finally:
            os.chdir(home)
    return {key: (exits[key].total(), sha.hexdigest(), exits[key]) for key, sha in shas.items()}


def lines(results: dict[str | None, tuple[int, str, Counter]]) -> list[str]:
    """The printed lines: one per command of COMMANDS that ran, then the
    whole matrix's."""
    def line(count: int, hexdigest: str, exits: Counter) -> str:
        return f"{count} calls sha256 {hexdigest} exits " + " ".join(
            f"{code}x{n}" for code, n in sorted(exits.items()))

    return [f"{command} {line(*results[command])}" for command in COMMANDS if command in results] \
        + [line(*results[None])]


if __name__ == "__main__":
    print("\n".join(lines(digests(calls()))))
