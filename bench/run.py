"""graphpick benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py --workload elim-random --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

Run from the repository root.  Each run spawns the worker several times
to time set-up (spawn to ready), then lets one worker replay the seeded
job set for ``--seconds`` and checks every result against the oracles in
``oracle.py``.  It prints a table of every metric with units and sample
counts, writes the record of the run to ``bench/out/``, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  The metrics
in that line are the ``end_to_end`` ones of ``BENCHMARK.json`` with
``--trace 0`` and the ``per_layer`` ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("elim-random", "boundary-mix", "cli-small")
SETUP_REPEATS = 5

# Layer groups whose calls a workload must reach.  A zero count here means
# a wrapper missed a binding, so the traced run refuses to report.
EXPECT_CALLS = {
    "elim-random": (
        "ratfun.mul", "ratfun.exact_div", "ratfun.gcd", "ratfun.field",
        "nevanlinna.representing_function",
    ),
    "boundary-mix": (
        "ratfun.mul", "ratfun.exact_div", "ratfun.gcd", "ratfun.field",
        "nevanlinna.representing_function", "nevanlinna.verify",
        "linalg.determinant", "linalg.inverse_entry", "linalg.schur_reduce",
        "laurent.expand_at_infinity", "laurent.walk_generating_series",
        "laurent.contact_order", "graphs.products", "sticks.stick_determinants",
        "numcheck.pick_property_sample", "numcheck.eval_complex",
    ),
    "cli-small": (
        "ratfun.mul", "ratfun.exact_div", "ratfun.gcd", "ratfun.field",
        "ratfun.parse", "ratfun.render", "nevanlinna.representing_function",
        "nevanlinna.verify", "linalg.determinant", "linalg.inverse_entry",
        "linalg.schur_reduce", "laurent.expand_at_infinity",
        "laurent.walk_generating_series", "laurent.contact_order",
        "graphs.graph_from_json", "graphs.products", "sticks.stick_determinants",
        "numcheck.pick_property_sample", "numcheck.eval_complex",
    ),
}


def spawn_worker(args, setup_only: bool):
    """Start a worker and wait for ``ready``; returns (process, set-up seconds)."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker failed during set-up: {line.strip()!r}")
    return proc, setup_s


def finish_worker(proc) -> tuple[str, int]:
    """Read the worker's output, reap it; returns (stdout, peak RSS in KiB)."""
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with status {proc.returncode}")
    return out, usage.ru_maxrss


def end_to_end(result: dict, setups: list[float], worker_rss_kb: int) -> dict:
    lat = result["latencies_ms"]
    rss_kb = result["children_maxrss_kb"] or worker_rss_kb
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(result["pass_walls_s"]), len(result["pass_walls_s"])),
        "job_p50_ms": (statistics.median(lat), len(lat)),
        "job_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8], len(lat)),
        "peak_rss_mb": (rss_kb / 1024, 1),
        "fail_frac": (result["failed"] / result["attempted"], result["attempted"]),
    }


def per_layer(workload: str, result: dict) -> dict:
    layers = result["layers"]
    first = layers[0]
    for other in layers[1:]:
        if any(other[k] != first[k] for k in first if not k.endswith("self_s")):
            print("warning: traced passes disagree on counts", file=sys.stderr)
            break
    missing = [g for g in EXPECT_CALLS[workload] if first[f"{g}.calls"] == 0]
    if missing:
        raise SystemExit(f"traced run reached none of: {', '.join(missing)}")
    out = {}
    for key, value in first.items():
        if key.endswith("self_s"):
            out[key] = (statistics.median(s[key] for s in layers), len(layers))
        else:
            out[key] = (value, 1)
    startup = result["startup"]
    for key, value in startup["metrics"].items():
        out[key] = (value, startup["repeats"])
    overhead = (
        statistics.median(result["traced_walls_s"]) / statistics.median(result["pass_walls_s"])
        - 1
    )
    out["trace.overhead_frac"] = (overhead, len(result["traced_walls_s"]))
    return out


def environment() -> dict:
    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or sha
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "machine": f"{platform.machine()} {cpu}",
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_sha": sha,
    }


def run_workload(args, manifest: dict) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        proc, setup_s = spawn_worker(args, setup_only=True)
        finish_worker(proc)
        setups.append(setup_s)
    proc, setup_s = spawn_worker(args, setup_only=False)
    setups.append(setup_s)
    out, rss_kb = finish_worker(proc)
    result = json.loads(out.strip().splitlines()[-1])

    metrics = end_to_end(result, setups, rss_kb)
    if args.trace:
        metrics.update(per_layer(args.workload, result))
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    units["fail_frac"] = "ratio"
    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, samples) in metrics.items():
        print(f"{name:40s} {value:16.6f} {units.get(name, ''):6s} n={samples}")
    for name, info in sorted(result["failures"].items()):
        print(f"FAILED {name} x{info['count']} ({info['kind']}): {info['message']}")

    report_keys = manifest["per_layer" if args.trace else "end_to_end"]
    record = {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in report_keys
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as handle:
        json.dump(
            {
                **record,
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "environment": environment(),
                "samples": {k: n for k, (_, n) in metrics.items()},
                "all_metrics": {k: v for k, (v, _) in metrics.items()},
                "failures": result["failures"],
            },
            handle,
            indent=1,
        )
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "graphpick" / "__init__.py").is_file():
        print(f"error: no graphpick sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        manifest = json.load(handle)

    if args.workload != "all":
        print(json.dumps(run_workload(args, manifest)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        record = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}), manifest)
        combined["correct"] &= record["correct"]
        combined["attempted"] += record["attempted"]
        combined["failed"] += record["failed"]
        for key, value in record["metrics"].items():
            combined["metrics"][f"{workload}.{key}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
