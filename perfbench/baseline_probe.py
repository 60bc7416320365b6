"""Re-measure the single-call Baseline rows of ROADMAP.md, once.

Not a workload and not part of run.py.  Each row is one call timed with
perf_counter in a fresh child process whose address space is capped with
resource.setrlimit and whose wall time is limited, so a row that blows up
reports "timeout" or "memory" instead of hanging.  Run from the root of a
checkout:

    python3 perfbench/baseline_probe.py

It prints one line per row and writes .perfbench_out/baseline_probe.json.
Processor speed on shared machines drifts by tens of percent (see speed.py),
so a row is judged against the others: it is flagged when its ratio to the
ROADMAP figure is off the median ratio of all rows by more than NOISE.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MEMORY_CAP_BYTES = 2 << 30
ROW_TIMEOUT_S = 120.0
NOISE = 0.3

# name -> (ROADMAP figure in seconds, call description)
ROWS = {
    "witness_r14": (0.049, "conjugacy_witness(random Coxeter, 1..14)"),
    "witness_r16": (0.239, "conjugacy_witness(random Coxeter, 1..16)"),
    "witness_r18": (1.07, "conjugacy_witness(random Coxeter, 1..18)"),
    "class_table_r6": (0.20, "class_table(6)"),
    "class_table_r7": (2.7, "class_table(7)"),
    "enumerate_fc_r8": (0.81, "enumerate_fc(8)"),
    "enumerate_fc_r9": (7.5, "enumerate_fc(9, max_rank=9)"),
    "check_conjecture_r6": (0.19, "check_conjecture(6)"),
    "check_conjecture_r7": (1.7, "check_conjecture(7)"),
    "cyclically_reduced_bipartite_sq_r6": (None, "is_cyclically_reduced(c*c), c = 135246"),
}


def call(name: str):
    """Build the row's arguments, then return a thunk for the timed call."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cfckit

    if name.startswith("witness_r"):
        rank = int(name.rsplit("r", 1)[1])
        order = list(range(1, rank + 1))
        random.Random(rank).shuffle(order)
        return lambda: cfckit.conjugacy_witness(tuple(order), tuple(range(1, rank + 1)), rank)
    if name.startswith("class_table_r"):
        return lambda: cfckit.class_table(int(name[-1]))
    if name.startswith("enumerate_fc_r"):
        return lambda: cfckit.enumerate_fc(int(name[-1]), max_rank=9)
    if name.startswith("check_conjecture_r"):
        return lambda: cfckit.check_conjecture(int(name[-1]))
    c = (1, 3, 5, 2, 4, 6)
    return lambda: cfckit.is_cyclically_reduced(c + c, 6)


def child(name: str) -> None:
    thunk = call(name)
    start = time.perf_counter()
    thunk()
    print(json.dumps({"seconds": time.perf_counter() - start}))


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def main() -> int:
    results = {}
    for name, (roadmap, what) in ROWS.items():
        cmd = [sys.executable, "-I", os.path.abspath(__file__), name]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              preexec_fn=_cap_memory) as proc:
            try:
                out, err = proc.communicate(timeout=ROW_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                out, err = "", "timeout"
        if proc.returncode == 0 and out.strip():
            seconds = json.loads(out.strip().splitlines()[-1])["seconds"]
            outcome = f"{seconds:.3f} s"
        else:
            seconds = None
            outcome = "memory" if "MemoryError" in err else ("timeout" if err == "timeout" else "error")
        ratio = seconds / roadmap if seconds and roadmap else None
        results[name] = {"call": what, "seconds": seconds, "outcome": outcome,
                         "roadmap_s": roadmap, "ratio": ratio}
    typical = statistics.median(r["ratio"] for r in results.values() if r["ratio"])
    for name, row in results.items():
        if row["ratio"] is None:
            verdict = "no ROADMAP figure"
        else:
            off = abs(row["ratio"] / typical - 1) > NOISE
            verdict = f"{row['ratio']:.2f}x ROADMAP" + (" OFF" if off else "")
            row["off"] = off
        print(f"{name:36s} {row['outcome']:>10s}  {verdict:20s} {row['call']}")
    print(f"median ratio to ROADMAP {typical:.2f}; OFF marks rows more than {NOISE:.0%} away from it")
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "baseline_probe.json"), "w") as handle:
        json.dump(results, handle, indent=1)
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 2:
        child(sys.argv[1])
    else:
        sys.exit(main())
