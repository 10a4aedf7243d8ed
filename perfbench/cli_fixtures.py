"""cli_fixtures: the feqlab CLI, one fresh interpreter per call.

One operation is one `feqlab` invocation on the bundled fixtures that
`feqlab fixtures` writes: validate and analyze on C4 and S3, solve for
the four closed-form tags, verify for all seven tags (vanvleck with
--battery), oracle with 200 starts and stability with 1000 trials.
Interpreter start and `import feqlab` are most of each call, and every
compute layer does little work, so import and jsonio changes show here.

The verify inputs are written here: for each tag a seeded pick among
the fixture's exact solutions, perturbed on a seeded coin, so both exit
codes 0 and 1 occur. Each exit code and report is checked against the
reference residual.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from feqlab import (
    canonical_json,
    function_to_json,
    load_function,
    load_measure,
    load_morphism,
    load_semigroup,
    write_fixtures,
)
from feqlab.cli import main as cli_main

import reference
from common import Op, rng
from spans import Tracer, median_ms

NAME = "cli_fixtures"
CLI = "import sys; from feqlab.cli import main; sys.exit(main())"
IMPORT_PROBE = "import time; t = time.perf_counter(); import feqlab; print(time.perf_counter() - t)"
ORACLE_STARTS = 200
TRIALS = 1000
PROBE_REPEATS = 5
COMMANDS = ("validate", "analyze", "solve", "verify", "oracle", "stability")
C4_CHARS = reference.abelian_characters((4,))


@dataclass(frozen=True)
class Call:
    label: str
    argv: tuple[str, ...]
    expect: dict   # what the check needs: tables, maps, atoms, functions


@dataclass(frozen=True)
class State:
    fixtures: Path
    calls: tuple[Call, ...]


def _load_bundle(fx: Path) -> dict:
    """Every fixture through the typed loaders, as the CLI reads them."""
    c4 = load_semigroup(fx / "c4.sg.json")
    s3 = load_semigroup(fx / "s3.sg.json")
    return {
        "c4": c4,
        "s3": s3,
        "null2": load_semigroup(fx / "null2.sg.json"),
        "leftzero2": load_semigroup(fx / "leftzero2.sg.json"),
        "neg": load_morphism(fx / "c4_negation.sigma.json", c4),
        "id": load_morphism(fx / "c4_identity.sigma.json", c4),
        "inv": load_morphism(fx / "s3_inversion.sigma.json", s3),
        "delta1": load_measure(fx / "c4_delta1.mu.json"),
        "half": load_measure(fx / "c4_halfpair.mu.json"),
        "s3mu": load_measure(fx / "s3_transposition.mu.json"),
        "sine": load_function(fx / "c4_sine.fn.json"),
        "cosine": load_function(fx / "c4_cosine.fn.json"),
    }


def setup(seed: int, tracer: Tracer, workdir: Path) -> State:
    fx = Path(workdir) / "fixtures"
    with tracer.span("fixtures.write_fixtures"):
        write_fixtures(fx)
    with tracer.span("jsonio.load_fixtures"):
        b = _load_bundle(fx)
    gen = rng(seed, NAME)
    c4 = b["c4"].table
    neg, delta1, half = b["neg"].map, b["delta1"].atoms, b["half"].atoms
    sg = ("--sg", str(fx / "c4.sg.json"))
    sig = ("--sigma", str(fx / "c4_negation.sigma.json"))
    d1 = ("--mu", str(fx / "c4_delta1.mu.json"))
    hp = ("--mu", str(fx / "c4_halfpair.mu.json"))
    calls = []
    for name in ("c4", "s3"):
        path = str(fx / f"{name}.sg.json")
        calls.append(Call(f"validate {name}", ("validate", "--sg", path), {"table": b[name].table}))
        calls.append(Call(f"analyze {name}", ("analyze", "--sg", path), {"table": b[name].table}))
    solve_args = {
        "vanvleck": (sig + d1, neg, delta1),
        "dalembert_variant": (sig, neg, ()),
        "corollary33": (sig + hp, neg, half),
        "spherical": (hp, None, half),
    }
    for eq, (args, smap, atoms) in solve_args.items():
        calls.append(Call(f"solve {eq}", ("solve", "--eq", eq) + sg + args,
                          {"want": reference.closed_form_set(eq, C4_CHARS, smap, atoms)}))
    sine_family = reference.closed_form_set("vanvleck", C4_CHARS, neg, delta1)
    families = {
        "vanvleck": (sine_family, sig + d1 + ("--battery",), delta1),
        "dalembert_variant": (reference.closed_form_set("dalembert_variant", C4_CHARS, neg, ()), sig, ()),
        "integral_dalembert": (reference.closed_form_set("corollary33", C4_CHARS, neg, half), sig + hp, half),
        "corollary33": (reference.closed_form_set("corollary33", C4_CHARS, neg, half), sig + hp, half),
        "spherical": (reference.closed_form_set("spherical", C4_CHARS, None, half), hp, half),
        "sine_addition": (sine_family, d1, delta1),
        "wilson_variant": (sine_family, sig + d1, delta1),
    }
    for eq, (family, args, atoms) in families.items():
        f = family[int(gen.integers(len(family)))]
        if gen.random() < 0.5:
            f = f + 0.01 * np.exp(2j * np.pi * gen.random(len(f)))
        path = Path(workdir) / f"{eq}.fn.json"
        path.write_text(canonical_json(function_to_json(f)) + "\n")
        with tracer.span("jsonio.load_function"):
            f = load_function(path)
        calls.append(Call(f"verify {eq}", ("verify", "--eq", eq) + sg + args + ("--f", str(path)),
                          {"eq": eq, "table": c4, "f": f, "sigma": neg, "atoms": atoms}))
    seed_arg = ("--seed", str(seed))
    calls.append(Call("oracle vanvleck",
                      ("oracle", "--eq", "vanvleck", "--starts", str(ORACLE_STARTS)) + seed_arg + sg + sig + d1,
                      {"want": sine_family}))
    calls.append(Call("stability", ("stability", "--trials", str(TRIALS)) + seed_arg + sg + sig + d1,
                      {"seed": seed}))
    return State(fx, tuple(calls))


def _spawn(args: list[str], stderr_path: Path):
    """Run a child interpreter; returns (exit code, stdout, stderr, peak RSS in KiB)."""
    with open(stderr_path, "w+b") as err:
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, stderr=err,
                                env=os.environ)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out.decode(), err.read().decode(), usage.ru_maxrss


def _invoke(call: Call, stderr_path: Path, tracer: Tracer):
    with tracer.span("cli.process", command=call.argv[0]):
        code, out, err, rss = _spawn(["-c", CLI, *call.argv], stderr_path)
    if err:
        sys.stderr.write(f"{call.label}: {err}")
    # No JSON on stdout means the process died: the operation failed.
    return code, json.loads(out), rss


def _vectors(pairs) -> list[np.ndarray]:
    return [np.array([complex(re, im) for re, im in v]) for v in pairs]


def _check(call: Call, result) -> None:
    code, payload, _ = result
    cmd, what, want = call.argv[0], call.label, call.expect
    if cmd == "verify":
        f = want["f"]
        g = reference.companion(want["table"], f, want["atoms"]) \
            if want["eq"] in ("sine_addition", "wilson_variant") else None
        grid = reference.residual_grid(want["eq"], want["table"], f, want["sigma"], want["atoms"], g)
        reference.check_report(payload["max_abs"], payload["argmax"], grid, what)
        expected = 0 if float(np.max(np.abs(grid))) <= reference.TOL else 1
        reference.check_exit_code(code, expected, what)
        return
    reference.check_exit_code(code, 0, what)
    if cmd == "validate":
        table = want["table"]
        reference.require(payload["valid"] is True and payload["n"] == len(table)
                          and payload["identity"] == reference.identity(table), f"{what}: {payload}")
    elif cmd == "analyze":
        table = want["table"]
        reference.check_character_count(payload["character_count"], table, what)
        reference.require(payload["center"] == reference.center(table), f"{what}: center {payload['center']}")
        for key, kind in (("automorphisms", "auto"), ("anti_automorphisms", "anti")):
            count = reference.involutive_morphism_count(table, kind)
            reference.require(len(payload[key]) == count, f"{what}: {len(payload[key])} {key}, reference {count}")
    elif cmd == "solve":
        reference.check_same_set(_vectors(s["values"] for s in payload["solutions"]), want["want"], what)
    elif cmd == "oracle":
        reference.check_oracle_match(payload["oracle_only"], payload["closed_only"], what)
        reference.check_same_set(_vectors(payload["closed_form"]), want["want"], what)
        reference.require(payload["matched"] == len(want["want"]), f"{what}: matched {payload['matched']}")
    else:
        reference.require(payload["trials"] == TRIALS and payload["seed"] == want["seed"], f"{what}: {payload}")
        reference.check_campaign(payload["trials"], payload["violations"], payload["exact"],
                                 payload["within_bound"], what)


def operations(state: State) -> list[Op]:
    err = state.fixtures.parent / "stderr.txt"
    return [Op(call.label, lambda tr, c=call: _invoke(c, err, tr), lambda res, c=call: _check(c, res))
            for call in state.calls]


def peak_rss_mb(results) -> float:
    """The largest child process of the run, in MiB."""
    return max(res[2] for res in results) / 1024.0


def probes(state: State, tracer: Tracer) -> list[str]:
    """Layer probes: bare interpreter, import, in-process commands, jsonio."""
    err = state.fixtures.parent / "stderr.txt"
    for _ in range(PROBE_REPEATS):
        with tracer.span("cli.interpreter"):
            _spawn(["-c", "pass"], err)
        with tracer.span("cli.import") as attrs:
            attrs["import_s"] = float(_spawn(["-c", IMPORT_PROBE], err)[1])
    payloads = []
    for call in state.calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli_main(list(call.argv))   # warm-up
        payloads.append(json.loads(buf.getvalue()))
        for _ in range(3):
            with contextlib.redirect_stdout(io.StringIO()), \
                    tracer.span("cli.main", command=call.argv[0]):
                cli_main(list(call.argv))
    for _ in range(PROBE_REPEATS):
        with tracer.span("jsonio.load_fixtures"):
            _load_bundle(state.fixtures)
        with tracer.span("jsonio.canonical_json"):
            for p in payloads:
                canonical_json(p)
    return []


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    out = {
        "cli.interpreter_ms": (median_ms(spans, "cli.interpreter"), "ms"),
        "cli.import_ms": (1e3 * statistics.median(
            s["attrs"]["import_s"] for s in spans if s["name"] == "cli.import"), "ms"),
    }
    for cmd in COMMANDS:
        out[f"cli.command_ms.{cmd}"] = (median_ms(spans, "cli.main", command=cmd), "ms")
    out["jsonio.load_ms"] = (median_ms(spans, "jsonio.load_fixtures"), "ms")
    out["jsonio.emit_ms"] = (median_ms(spans, "jsonio.canonical_json"), "ms")
    return out
