"""Seeded random calls of the feqlab CLI, in process, each checked
against the exit-code contract of the README.

Run `python3 tools/cli_fuzz.py --seed S --calls N` (it imports feqlab
from the checkout's own src/). It prints the call count, the exit code
counts, the number of rule breaks, and how many `oracle` reports (exit 0
or 1) it saw and how many of them list `oracle_only` roots and
`closed_only` roots; then every call that breaks a rule: its argv and
the contents of its input files, enough to replay it. It exits 1 when
any call breaks a rule, else 0; a mismatch between the oracle and the
closed form is counted, not a rule. A seed and a call count fix every
call.

Each call picks a command (every one of `validate`, `analyze`, `solve`,
`verify`, `stability --trials 20` or, on one call in ten, 600, `oracle
--starts 20` and `fixtures`) and writes the inputs it reads. Tables are
mostly valid ones, from the order <= 3 census or among C4, C5, S3, the
Klein group, left-zero and null semigroups, else a random, ragged or
mislabeled table. A morphism is mostly an involutive (anti-)automorphism
of the table, else a random map. Measure weights and function values
draw their parts partly from extremes: +-1e308 to 1.7e308 (one pair in
ten has both parts there, so its modulus may overflow), 1e+-154, 1e+-20,
1e-308 and 5e-324, and rarely infinity or NaN; a few are not numbers at
all, and a quarter of the candidate functions are 0. Flags take valid
values mostly, and sometimes invalid ones (`--tol nan`, `--starts 0`,
`--seed -1`).

The rules, for every call:
- the exit code is in the README's table and is not 70 (an internal
  error is a fault of feqlab, whatever the input);
- neither stdout nor stderr says VIOLATION: that verdict claims the
  paper's dichotomy is false, and no input may fake one;
- exit 0 and 1 print canonical JSON (or `--format table`) on stdout and
  nothing on stderr; every other code prints nothing on stdout and one
  line on stderr, the message of its code;
- the only warning is DegenerateMeasureWarning.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from feqlab import (  # noqa: E402
    MorphismKind,
    center,
    cyclic_group,
    direct_product,
    enumerate_all_semigroups,
    enumerate_involutive_morphisms,
    left_zero,
    null_semigroup,
    semigroup_to_json,
    symmetric_group_3,
)
from feqlab.cli import EQUATION_TAGS, main  # noqa: E402
from feqlab.errors import DegenerateMeasureWarning  # noqa: E402

# the one stderr line of each error exit code
MESSAGES = {2: "structural error: ", 3: "parse error: ", 4: "hypothesis violation: ", 64: "usage error: "}
HUGE = (1e308, 1.3e308, 1.5e308, 1.7e308)
EXTREMES = (*HUGE, 1e154, 1e-154, 1e20, 1e-20, 1e-308, 5e-324)
NON_FINITE = (float("inf"), float("nan"))
PLAIN = (0.0, 1.0, 0.5, 0.25, 2.0)
NOT_NUMBERS = ("1", True, None, [1.0])
COMMANDS = ("validate", "analyze", "fixtures", *("solve", "verify", "stability", "oracle") * 2)


def semigroups() -> tuple[list, list]:
    """The valid tables the calls draw from: the census and the named ones."""
    census = [sg for n in (1, 2, 3) for sg in enumerate_all_semigroups(n)]
    return census, [cyclic_group(4), cyclic_group(5), symmetric_group_3(),
                    direct_product(cyclic_group(2), cyclic_group(2)), left_zero(3), null_semigroup(4)]


def _part(rng: random.Random) -> float:
    x = rng.random()
    if x < 0.55:
        value = rng.choice(PLAIN)
    elif x < 0.65:
        value = rng.gauss(0.0, 1.0)
    elif x < 0.98:
        value = rng.choice(EXTREMES)
    else:
        value = rng.choice(NON_FINITE)
    return -value if rng.random() < 0.5 else value


def _pair(rng: random.Random):
    x = rng.random()
    if x < 0.02:
        return rng.choice(NOT_NUMBERS)
    if x < 0.12:  # both parts huge, so the modulus may overflow
        return [rng.choice((-1, 1)) * rng.choice(HUGE) for _ in range(2)]
    return [_part(rng), _part(rng) if rng.random() < 0.6 else 0.0]


def _table(rng: random.Random, pool: tuple[list, list]) -> tuple[dict, object]:
    """(table JSON, its semigroup or None when it is not a valid one)."""
    x = rng.random()
    if x < 0.85:
        sg = rng.choice(pool[x < 0.4])
        return semigroup_to_json(sg), sg
    n = rng.randint(1, 3)
    table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    how = rng.randrange(4)
    if how == 1:
        table[0][0] = rng.choice((n, -1, 0.5, "0"))
    elif how == 2:
        table[-1].pop()
    return {"n": n + (how == 3), "table": table}, None


def _sigma(rng: random.Random, sg, n: int) -> dict:
    morphisms = [] if sg is None else [m for kind in MorphismKind for m in enumerate_involutive_morphisms(sg, kind)]
    if morphisms and rng.random() < 0.9:
        m = rng.choice(morphisms)
        return {"map": list(m.map), "kind": m.kind.value}
    return {"map": [rng.randrange(n + 1) for _ in range(n + rng.choice((0, 0, 0, 1, -1)))],
            "kind": rng.choice(list(MorphismKind)).value}


def _mu(rng: random.Random, sg, n: int) -> dict:
    central = center(sg) if sg is not None else []
    atoms = []
    for _ in range(rng.choice((0, 1, 1, 1, 2, 2, 3))):
        point = rng.choice(central) if central and rng.random() < 0.6 else rng.randrange(n + 1)
        atoms.append({"point": point, "w": _pair(rng)})
    return {"atoms": atoms}


def call(rng: random.Random, pool: tuple[list, list], stem: str) -> tuple[list[str], dict[str, object]]:
    """(argv, {file name: JSON object}) of one random call; its files
    are named after stem."""
    command = rng.choice(COMMANDS)
    if command == "fixtures":
        return ["fixtures", "--out", f"{stem}.fixtures"], {}
    table, sg = _table(rng, pool)
    n = table["n"]
    files = {f"{stem}.sg.json": table}
    argv = [command, "--sg", f"{stem}.sg.json"]
    if command in ("solve", "verify", "oracle"):
        argv += ["--eq", rng.choice(EQUATION_TAGS)]
    if command in ("solve", "verify", "oracle", "stability"):
        for flag, make in (("sigma", _sigma), ("mu", _mu)):
            if rng.random() < 0.9:
                files[f"{stem}.{flag}.json"] = make(rng, sg, n)
                argv += [f"--{flag}", f"{stem}.{flag}.json"]
    if command == "verify":
        length = n + (rng.choice((1, -1)) if rng.random() < 0.1 else 0)
        zero = rng.random() < 0.25  # the zero function solves every equation
        files[f"{stem}.f.json"] = {"values": [[0.0, 0.0] if zero else _pair(rng) for _ in range(length)]}
        argv += ["--f", f"{stem}.f.json"]
        argv += [flag for flag in ("--battery", "--force") if rng.random() < 0.4]
    if command == "oracle":
        argv += ["--starts", "20" if rng.random() < 0.95 else rng.choice(("0", "10001")),
                 "--seed", str(rng.randrange(-1, 1000) if rng.random() < 0.05 else rng.randrange(1000))]
    if command == "stability":
        x = rng.random()  # 600 trials fill more than one chunk of the campaign at n >= 3
        argv += ["--trials", "20" if x < 0.85 else "600" if x < 0.95 else "0",
                 "--seed", str(rng.randrange(1000)),
                 "--radius", str(rng.choice((1.0, 1.0, 1.0, 0.0, 1e-3, 10.0, 1e308, float("nan"))))]
    if command in ("verify", "stability") and rng.random() < 0.3:
        argv += ["--tol", str(rng.choice((0.0, 1e-9, 1e-9, 1e-3, 1.0, float("inf"), -1.0, float("nan"))))]
    if rng.random() < 0.2:
        argv += ["--format", "table"]
    return argv, files


def run(argv: list[str]) -> tuple[int, str, str, list[type]]:
    """(exit code, stdout, stderr, warning categories) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [w.category for w in caught]


def broken_rule(argv: list[str], code: int, stdout: str, stderr: str, categories: list[type]) -> str | None:
    """The first rule of the module docstring the call breaks, or None."""
    if code not in (0, 1, *MESSAGES):
        return f"exit {code}"
    if "VIOLATION" in stdout + stderr:
        return "VIOLATION"
    if any(c is not DegenerateMeasureWarning for c in categories):
        return f"warnings {sorted({c.__name__ for c in categories})}"
    if code in (0, 1):
        if stderr or not stdout.endswith("\n"):
            return "exit 0 or 1 with stderr or without a report"
        if "table" not in argv:
            try:
                json.loads(stdout)
            except ValueError:
                return "a report that is not JSON"
        return None
    if stdout or not stderr.startswith(MESSAGES[code]) or stderr.count("\n") != 1 or not stderr.endswith("\n"):
        return f"exit {code} without exactly its one-line message"
    return None


def mismatch_kinds(argv: list[str], stdout: str) -> set[str]:
    """Which of oracle_only and closed_only an oracle report (exit 0 or 1)
    lists roots under, read from its JSON or its table (where a key with
    roots is followed by a line [0])."""
    if "table" in argv:
        return {key for key in ("oracle_only", "closed_only") if f"\n{key}:\n  [0]" in stdout}
    payload = json.loads(stdout)
    return {key for key in ("oracle_only", "closed_only") if payload[key]}


def fuzz(seed: int, calls: int) -> tuple[Counter, list[tuple[list[str], dict, str, str, str]], Counter]:
    """(counts of each (command, exit code), failures, oracle counts) of
    calls random calls from seed, run in a fresh directory; a failure is
    (argv, input files, rule, stdout, stderr), and the oracle counts are
    of the oracle reports ("reports") and of those with oracle_only and
    with closed_only roots."""
    rng = random.Random(seed)
    pool = semigroups()
    exits: Counter = Counter()
    oracle: Counter = Counter()
    failures = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for i in range(calls):
                argv, files = call(rng, pool, f"c{i}")
                for name, obj in files.items():
                    Path(name).write_text(json.dumps(obj))
                code, stdout, stderr, categories = run(argv)
                exits[argv[0], code] += 1
                rule = broken_rule(argv, code, stdout, stderr, categories)
                if rule is not None:
                    failures.append((argv, files, rule, stdout, stderr))
                elif argv[0] == "oracle" and code in (0, 1):
                    oracle["reports"] += 1
                    oracle.update(mismatch_kinds(argv, stdout))
        finally:
            os.chdir(home)
    return exits, failures, oracle


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--calls", type=int, default=1000)
    args = parser.parse_args()
    exits, failures, oracle = fuzz(args.seed, args.calls)
    codes = Counter()
    for (_, code), n in exits.items():
        codes[code] += n
    print(f"{args.calls} calls seed {args.seed} exits "
          + " ".join(f"{code}x{n}" for code, n in sorted(codes.items())) + f" failures {len(failures)}"
          + f" oracle {oracle['reports']} oracle_only {oracle['oracle_only']} closed_only {oracle['closed_only']}")
    for argv, files, rule, stdout, stderr in failures:
        print(json.dumps({"rule": rule, "argv": argv, "files": files, "stderr": stderr[-2000:]}))
    sys.exit(1 if failures else 0)
