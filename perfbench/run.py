"""cfckit benchmark: one workload, closed loop, checked answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classify_mix --seed 1 --seconds 25 --trace 0

The workload runs in a child process (worker.py) whose address space is
capped with resource.setrlimit; the cap applies to that child only.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
wraps cfckit's public functions, prints the per-layer metrics and writes
the spans under .perfbench_out/.  Reported times are scaled by processor
speed measured alongside them (speed.py); the unscaled figures are printed
too.  Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  The program is taken from src/ of the checkout and nowhere
else: without it, the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from spans import metric_specs  # noqa: E402
from workloads import TAIL_PERCENTILE, WORKLOADS  # noqa: E402

MEMORY_CAP_BYTES = 2 << 30
SETUP_REPEATS = 21
# The whole run, set-up included, must end within this many seconds.
RUN_BUDGET_S = 170.0
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Run in a fresh interpreter: time the import, then probe processor speed.
IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cfckit, cfckit.cli
took = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import statistics, speed
probe = statistics.median(speed.probe() for _ in range(5))
print(took, took * speed.REFERENCE_S / probe)
"""


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def setup_seconds() -> tuple[float, float]:
    """Median, over fresh interpreters, of the time to import cfckit and
    cfckit.cli, after which a request can be sent: (speed-scaled,
    unscaled).  Interpreter start-up itself is left out; no change to
    cfckit can move it.  One unmeasured start first writes the bytecode
    cache."""
    raw, scaled = [], []
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, SRC, HERE],
            capture_output=True, text=True, timeout=60, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"importing cfckit from src/ failed: {done.stderr.strip()[-200:]}")
        took, took_scaled = map(float, done.stdout.split())
        if attempt:
            raw.append(took)
            scaled.append(took_scaled)
    return statistics.median(scaled), statistics.median(raw)


def tail(latencies: list[float], percentile: float) -> tuple[float, float]:
    """The workload's tail percentile by nearest rank, or the next lower
    ladder percentile while fewer than ten samples lie beyond it; returns
    (percentile used, value)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in [p for p in TAIL_LADDER if p <= percentile]:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def run_worker(args, deadline: float) -> dict:
    cmd = [
        sys.executable, "-I", os.path.join(HERE, "worker.py"),
        "--root", ROOT,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--deadline", str(max(deadline - time.monotonic() - 15.0, 5.0)),
    ]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv.gz")]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, preexec_fn=_cap_memory) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("workload process overran the run budget") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def timing_metrics(requests, latencies, percentile, setup, peak_rss_mb) -> dict[str, float]:
    good = sum(1 for r in requests if r[2] is None)
    return {
        "throughput_rps": good / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail(latencies, percentile)[1] * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup,
    }


def end_to_end(raw: dict, workload: str, setup: tuple[float, float]) -> tuple[dict, list[str]]:
    """Metrics from speed-scaled times, and notes giving the unscaled ones."""
    requests = raw["requests"]
    unscaled = [r[1] for r in requests]
    scaled = [r[1] * r[3] for r in requests]
    percentile = TAIL_PERCENTILE[workload]
    values = timing_metrics(requests, scaled, percentile, setup[0], raw["peak_rss_mb"])
    plain = timing_metrics(requests, unscaled, percentile, setup[1], raw["peak_rss_mb"])
    pct = tail(scaled, percentile)[0]
    notes = [
        f"latency_tail_ms is p{pct:g} of {len(scaled)} samples",
        f"busy_s {sum(unscaled):.3f} over {len(scaled)} requests; per-request limit {raw['limit_s']:g} s",
        "unscaled: " + ", ".join(f"{name} {plain[name]:.6g}" for name, _ in END_TO_END),
        f"speed scale: median {statistics.median(r[3] for r in requests):.4f}, "
        f"range {min(r[3] for r in requests):.4f}-{max(r[3] for r in requests):.4f}",
    ]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, notes


def per_layer(raw: dict) -> tuple[dict, list[str]]:
    values = raw["per_layer"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in metric_specs()}
    notes = [f"spans written {raw.get('spans_written', 0)}, dropped {raw.get('spans_dropped', 0)}"]
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="summed request time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join(SRC, "cfckit", "__init__.py")):
        print(f"no cfckit sources under {SRC}", file=sys.stderr)
        return 2
    try:
        setup = None if args.trace else setup_seconds()
        raw = run_worker(args, deadline)
    except (RuntimeError, OSError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    requests = raw["requests"]
    failures = Counter(r[0] for r in requests if r[2] is not None)
    reasons = Counter(r[2] for r in requests if r[2] is not None)
    if args.trace:
        metrics, notes = per_layer(raw)
    else:
        metrics, notes = end_to_end(raw, args.workload, setup)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for note in notes:
        print(f"  {note}")
    failed = sum(failures.values())
    print(f"  error_rate = {failed / len(requests):.6g} ({failed} of {len(requests)})")
    for label, count in sorted(failures.items()):
        print(f"    failed {label}: {count}")
    for reason, count in sorted(reasons.items()):
        print(f"    reason {reason}: {count}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(requests),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
