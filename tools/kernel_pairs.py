"""Paired kernel timings of two checkouts of cfckit, such as a parent commit
and a change, in two long-lived interpreters called alternately.

Usage, from the root of a checkout:

    python3 tools/kernel_pairs.py --parent PARENT_DIR --change . [--rounds 21] [KERNEL ...]

Each side imports cfckit from the src/ directory of its checkout.  A kernel
is a call on cfckit's public names, such as ``"enumerate_fc(8)"``; without
any, the default list below runs.  Both interpreters first make one
untimed call of every kernel.  Then each round times one call per side,
the parent first in even rounds and the change first in odd ones, so a
slow stretch of a shared machine falls on both sides.  The result is one
JSON object on stdout: per kernel, each side's median and quartiles in
milliseconds and the parent-to-change speed-up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

DEFAULT_KERNELS = (
    "enumerate_fc(7)",
    "enumerate_fc(8)",
    "enumerate_fc(9)",
    "check_conjecture(6)",
    "check_conjecture(7)",
    "check_conjecture(8)",
    "check_conjecture(9, max_rank=9)",
    "check_conjecture(10, max_rank=10)",
    "enumerate_cfc(9)",
    "class_table(7)",
)

# One side: read a kernel per line, run it, answer with the seconds it took.
CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import cfckit
names = vars(cfckit)
for line in sys.stdin:
    call = compile(line, "<kernel>", "eval")
    start = time.perf_counter()
    eval(call, names)
    print(time.perf_counter() - start, flush=True)
"""


class Side:
    def __init__(self, checkout: str):
        src = os.path.join(os.path.abspath(checkout), "src")
        if not os.path.isfile(os.path.join(src, "cfckit", "__init__.py")):
            raise SystemExit(f"no cfckit sources under {src}")
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-c", CHILD, src],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def time(self, kernel: str) -> float:
        self.proc.stdin.write(kernel + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise SystemExit(f"{kernel} failed in the child interpreter")
        return float(answer)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def _quartiles(seconds: list[float]) -> list[float]:
    low, _, high = statistics.quantiles(seconds, n=4, method="inclusive")
    return [round(low * 1e3, 3), round(high * 1e3, 3)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout timed as the parent")
    parser.add_argument("--change", required=True, help="checkout timed as the change")
    parser.add_argument("--rounds", type=int, default=21, help="timed calls per side, at least 2")
    parser.add_argument("kernels", nargs="*", default=DEFAULT_KERNELS)
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")

    parent, change = Side(args.parent), Side(args.change)
    try:
        for kernel in args.kernels:
            parent.time(kernel)
            change.time(kernel)
        medians = {}
        for kernel in args.kernels:
            before, after = [], []
            for round_ in range(args.rounds):
                pairs = [(parent, before), (change, after)]
                for side, samples in pairs if round_ % 2 == 0 else reversed(pairs):
                    samples.append(side.time(kernel))
            before_ms = statistics.median(before) * 1e3
            after_ms = statistics.median(after) * 1e3
            medians[kernel] = {
                "before_ms": round(before_ms, 3),
                "after_ms": round(after_ms, 3),
                "speedup": round(before_ms / after_ms, 2),
                "before_quartiles_ms": _quartiles(before),
                "after_quartiles_ms": _quartiles(after),
            }
            print(f"{kernel}: {before_ms:.3f} -> {after_ms:.3f} ms", file=sys.stderr)
    finally:
        parent.close()
        change.close()
    print(json.dumps({"rounds": args.rounds, "medians_ms": medians}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
