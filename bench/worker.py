"""Benchmark worker: set up one workload, print ``ready``, run timed passes.

Started by ``run.py``, which times spawn-to-``ready`` as the set-up time.
After ``ready`` the worker replays the seeded job set in passes until the
time budget is spent and prints one JSON line with the raw measurements.
With ``--trace 1`` passes alternate between plain and traced, so the
tracing overhead is measured on the same job set in the same process.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, merge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MIN_JOBS = 100  # so that the 90th percentile has ten samples beyond it
STARTUP_REPEATS = 5
_RAISED = object()


def fingerprint(obj):
    """Hashable digest of a result, compared between passes of one run."""
    terms = getattr(obj, "_terms", None)
    if terms is not None:
        return hash(frozenset(terms.items()))
    if hasattr(obj, "num") and hasattr(obj, "den"):
        return (fingerprint(obj.num), fingerprint(obj.den))
    if dataclasses.is_dataclass(obj):
        return tuple(fingerprint(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return tuple(fingerprint(x) for x in obj)
    return obj


class Outcomes:
    """Attempted/failed counts with the failing job names."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, dict] = {}

    def record(self, name: str, problem: tuple[str, str] | None) -> None:
        self.attempted += 1
        if problem is None:
            return
        kind, message = problem
        self.failed += 1
        if kind == "wrong":
            self.wrong += 1
        entry = self.failures.setdefault(name, {"kind": kind, "count": 0, "message": message})
        entry["count"] += 1


class InProcessRunner:
    def __init__(self, workload: str, seed: int):
        import graphpick

        src = (ROOT / "src").resolve()
        if src not in Path(graphpick.__file__).resolve().parents:
            raise SystemExit(f"graphpick was imported from {graphpick.__file__}, not {src}")
        build = workloads.elim_random if workload == "elim-random" else workloads.boundary_mix
        self.jobs = build(seed)
        self.first: list | None = None
        self.tracer = Tracer()
        # warm-up: first calls through the exact core and the linear algebra
        graphpick.representing_function(
            graphpick.ColoredGraph.build(["z", "w", "z"], [(1, 2), (2, 3)])
        )
        graphpick.inverse_entry(graphpick.SymMatrix.from_rows([[1, 2], [2, 1]]), 1)

    def run_pass(self, outcomes: Outcomes, traced: bool):
        if traced:
            self.tracer.reset()
            self.tracer.install()
        clock = time.perf_counter
        latencies = []
        results = []
        try:
            for job in self.jobs:
                t0 = clock()
                try:
                    result = job.run()
                except Exception as exc:  # a job that raises counts as failed
                    result = _RAISED
                    outcomes.record(job.name, ("error", f"{type(exc).__name__}: {exc}"))
                latencies.append(clock() - t0)
                results.append(result)
        finally:
            if traced:
                self.tracer.uninstall()
        # checks run after the pass, so every pass times the jobs back to back
        prints = []
        for idx, (job, result) in enumerate(zip(self.jobs, results)):
            if result is _RAISED:
                prints.append(None)
                continue
            fp = fingerprint(result)
            prints.append(fp)
            if self.first is None or self.first[idx] is None:
                message = job.check(result)
                problem = None if message is None else ("wrong", message)
            elif fp != self.first[idx]:
                problem = ("wrong", "result differs from the first pass")
            else:
                problem = None
            outcomes.record(job.name, problem)
        if self.first is None:
            self.first = prints
        return latencies, (self.tracer.snapshot() if traced else None)

    def children_maxrss_kb(self) -> int | None:
        return None


class CliRunner:
    def __init__(self, seed: int):
        self.jobs = workloads.cli_small(seed)
        self.env = workloads.cli_env(ROOT)
        self.tmp = OUT_DIR / f"tmp-{seed}-{time.monotonic_ns()}"
        code, out, err = workloads.run_cli(["sticks", "--max", "3"], ROOT, self.env)
        if code != 0:
            raise SystemExit(f"warm-up CLI call failed ({code}): {err.decode()[-400:]}")

    def run_pass(self, outcomes: Outcomes, traced: bool):
        clock = time.perf_counter
        latencies = []
        layers: dict[str, float] = {}
        if traced:
            self.tmp.mkdir(parents=True, exist_ok=True)
        try:
            for idx, job in enumerate(self.jobs):
                trace_out = self.tmp / f"{idx}.json" if traced else None
                t0 = clock()
                result = workloads.run_cli(job.argv, ROOT, self.env, trace_out)
                latencies.append(clock() - t0)
                outcomes.record(job.name, job.check(result))
                if traced:
                    with open(trace_out, encoding="utf-8") as handle:
                        merge(layers, json.load(handle))
        finally:
            if traced:
                shutil.rmtree(self.tmp, ignore_errors=True)
        return latencies, (layers if traced else None)

    def children_maxrss_kb(self) -> int | None:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def startup_profile() -> dict:
    """Bare interpreter, ``import graphpick`` and its numpy share."""
    env = workloads.cli_env(ROOT)

    def timed(code: str, *flags: str) -> tuple[float, str]:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        return time.perf_counter() - t0, proc.stderr

    bare, full, numpy_s = [], [], []
    for _ in range(STARTUP_REPEATS):
        bare.append(timed("pass")[0])
        full.append(timed("import graphpick")[0])
        report = timed("import graphpick", "-X", "importtime")[1]
        cumulative = [
            int(line.split("|")[1]) for line in report.splitlines()
            if line.startswith("import time:") and line.split("|")[-1].strip() == "numpy"
        ]
        numpy_s.append(cumulative[0] / 1e6 if cumulative else 0.0)
    interp = statistics.median(bare)
    return {
        "repeats": STARTUP_REPEATS,
        "metrics": {
            "cli.interp_s": interp,
            "cli.import_s": statistics.median(full) - interp,
            "cli.import.numpy_s": statistics.median(numpy_s),
        },
    }


def measure(runner, seconds: float, trace: bool) -> dict:
    outcomes = Outcomes()
    plain_walls, traced_walls, latencies, layers = [], [], [], []
    last_pass = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    while True:
        traced = trace and len(traced_walls) < len(plain_walls)
        t0 = time.perf_counter()
        lat, snapshot = runner.run_pass(outcomes, traced)
        last_pass[traced] = time.perf_counter() - t0
        if traced:
            traced_walls.append(sum(lat))
            layers.append(snapshot)
        else:
            plain_walls.append(sum(lat))
            latencies += [1000 * x for x in lat]
        next_traced = trace and len(traced_walls) < len(plain_walls)
        fits = time.perf_counter() - start + last_pass[next_traced] <= seconds
        if trace:
            if traced_walls and not fits:
                break
        elif not fits and len(latencies) >= MIN_JOBS:
            break
    result = {
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "wrong": outcomes.wrong,
        "failures": outcomes.failures,
        "pass_walls_s": plain_walls,
        "traced_walls_s": traced_walls,
        "latencies_ms": latencies,
        "layers": layers,
        "children_maxrss_kb": runner.children_maxrss_kb(),
    }
    if trace:
        result["startup"] = startup_profile()
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "cli-small":
        runner = CliRunner(args.seed)
    else:
        runner = InProcessRunner(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return
    print(json.dumps(measure(runner, args.seconds, bool(args.trace))), flush=True)


if __name__ == "__main__":
    main()
