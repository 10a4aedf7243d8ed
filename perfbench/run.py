"""Layered benchmark for feqlab.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve_ladder --seed 1 --seconds 15 --trace 0

Runs one workload against the package in ./src (never an installed copy)
and prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones listed
in BENCHMARK.json, plus the tracing overhead. See perfbench/README.md.

The timed phase is a closed loop with one client: whole rounds of the
workload's operations, one after another, until --seconds have passed
(at least one round). Every operation counts at its median latency over
its repetitions. Times are in reference seconds (see calibrate.py). Program outputs are checked after each round, outside
the timed region.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("cli_fixtures", "solve_ladder", "verify_large", "census_crosscheck")
# Set-up runs in this many fresh interpreters; setup_s is their median.
SETUP_SAMPLES = 5
# Calibration samples taken after each set-up probe.
SETUP_CALIBRATION = 15
TIME_UNITS = {"s", "ms", "us", "ns"}


def _environment() -> None:
    """Pin BLAS to one thread and point this process and its children at ./src.
    Runs before anything imports numpy."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def _setup_probe(workload: str, seed: int) -> float:
    """Reference seconds to import feqlab and build and validate the
    workload's inputs, in this (fresh) interpreter."""
    t0 = time.perf_counter()
    import feqlab  # noqa: F401  (timed: the import is part of set-up)
    imported = time.perf_counter() - t0
    import calibrate
    from spans import Tracer
    module = importlib.import_module(workload)
    workdir = Path(tempfile.mkdtemp(prefix=f"probe-{workload}-", dir=OUT))
    try:
        t1 = time.perf_counter()
        module.setup(seed, Tracer(False), workdir)
        seconds = imported + time.perf_counter() - t1
    finally:
        shutil.rmtree(workdir)
    return seconds * calibrate.scale([calibrate.sample() for _ in range(SETUP_CALIBRATION)])


def _setup_samples(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


_FAILED = object()


class Round:
    """One pass over a workload's operations.

    Each operation is bracketed by calibration samples and its latency
    kept in reference seconds. With several tracers, each operation runs
    once under each, back to back and in alternating order, so their
    latencies are paired in time.
    """

    def __init__(self, module, state, tracers):
        import calibrate
        from reference import CheckError

        ops = module.operations(state)
        runs = []
        self.latencies: list[list[float]] = [[] for _ in tracers]
        self.calibration = [calibrate.sample()]
        with tracers[-1].span("round", workload=module.NAME):
            for i, op in enumerate(ops):
                order = range(len(tracers)) if i % 2 == 0 else reversed(range(len(tracers)))
                for k in order:
                    with tracers[k].span("op", workload=module.NAME, label=op.label):
                        t0 = time.perf_counter()
                        try:
                            result = op.run(tracers[k])
                        except Exception:  # a failed operation is counted, not fatal
                            sys.stderr.write(f"{module.NAME} {op.label} failed:\n{traceback.format_exc()}")
                            result = _FAILED
                        seconds = time.perf_counter() - t0
                    self.calibration.append(calibrate.sample())
                    bracket = self.calibration[-2:]
                    self.latencies[k].append(seconds * calibrate.scale(bracket))
                    runs.append((op, result))
        self.attempted = len(runs)
        self.failed = sum(res is _FAILED for _, res in runs)
        self.errors: list[str] = []
        done = []
        for op, res in runs:
            if res is _FAILED:
                continue
            done.append(res)
            try:
                op.check(res)
            except CheckError as exc:
                self.errors.append(f"{module.NAME}: {exc}")
        peak = getattr(module, "peak_rss_mb", None)
        self.child_rss_mb = peak(done) if peak and done else 0.0


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _setup(module, seed: int, tracer, workdirs: list[Path]):
    workdir = Path(tempfile.mkdtemp(prefix=f"{module.NAME}-", dir=OUT))
    workdirs.append(workdir)
    state = module.setup(seed, tracer, workdir)
    errors = []
    if hasattr(module, "check_setup"):
        from reference import CheckError
        try:
            module.check_setup(state)
        except CheckError as exc:
            errors.append(f"{module.NAME}: {exc}")
    return state, errors


def _op_latencies(rounds: list[Round], tracer: int = 0) -> list[float]:
    """Each operation's median latency over its repetitions in the run,
    in reference seconds. wall_s is one round at these latencies,
    op_p50_ms their median."""
    return [statistics.median(ts) for ts in zip(*(r.latencies[tracer] for r in rounds))]


def _untraced(name: str, seed: int, seconds: float, workdirs: list[Path]):
    from spans import Tracer

    setup_s = statistics.median(_setup_samples(name, seed))
    module = importlib.import_module(name)
    off = Tracer(False)
    state, errors = _setup(module, seed, off, workdirs)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(Round(module, state, [off]))
    if hasattr(module, "peak_rss_mb"):
        rss = max(r.child_rss_mb for r in rounds)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = _op_latencies(rounds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(latencies), "s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return rounds, errors, metrics


def _traced(name: str, seed: int, seconds: float, workdirs: list[Path]):
    """Rounds of the workload with every operation run untraced and traced
    in turn (the overhead is the difference of the two), then one traced
    round of every other workload and the layer probes, so that the trace
    covers every layer. Span times are scaled to reference seconds by the
    run's calibration samples."""
    import calibrate
    from spans import Tracer

    off, on = Tracer(False), Tracer(True)
    modules = {w: importlib.import_module(w) for w in WORKLOADS}
    state, errors = _setup(modules[name], seed, on, workdirs)
    states = {name: state}
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(Round(modules[name], state, [off, on]))
    overhead = sum(_op_latencies(rounds, 1)) - sum(_op_latencies(rounds, 0))
    for other in WORKLOADS:
        if other != name:
            states[other], more = _setup(modules[other], seed, on, workdirs)
            errors += more
            rounds.append(Round(modules[other], states[other], [on]))
    metrics = {}
    for w, m in modules.items():
        if hasattr(m, "probes"):
            errors += m.probes(states[w], on)
        metrics.update(m.layer_metrics(on.spans))
    factor = calibrate.scale([c for r in rounds for c in r.calibration])
    metrics = {n: (v * factor if unit in TIME_UNITS else v, unit) for n, (v, unit) in metrics.items()}
    metrics["trace.overhead_s"] = (overhead, "s")
    on.write(OUT / f"trace-{name}-seed{seed}.json")
    return rounds, errors, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one set-up in this interpreter and print it")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not (SRC / "feqlab" / "__init__.py").is_file():
        print(f"perfbench: no feqlab sources under {SRC}", file=sys.stderr)
        return 2
    _environment()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        print(_setup_probe(args.workload, args.seed))
        return 0

    declared = _declared()
    kind = "per_layer" if args.trace else "end_to_end"
    workdirs: list[Path] = []
    try:
        run = _traced if args.trace else _untraced
        rounds, errors, metrics = run(args.workload, args.seed, args.seconds, workdirs)
    finally:
        for w in workdirs:
            shutil.rmtree(w, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if units != {n: unit for n, (_, unit) in metrics.items()}:
        raise RuntimeError("measured metrics and units differ from those in BENCHMARK.json")
    errors += [e for r in rounds for e in r.errors]
    for e in errors:
        print(e, file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {n: {"value": float(metrics[n][0]), "unit": units[n]} for n in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
