"""One workload run, in its own process: a closed loop over cfckit.cli.run.

Started by run.py with its address space capped.  One client sends each
request only after the previous one has returned.  Every response is checked
against check.py, outside the timed region.  A per-request limit, set with
signal.setitimer, turns a runaway request into a counted failure.  The last
line of stdout is one JSON object with the raw results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedTrack  # noqa: E402

# Per-request limits, about ten times the slowest request each workload has
# at the seed (rank-9 bipartite Coxeter classify ~1 s, rank-16 witness
# ~0.6 s, rank-7 class table ~2.7 s).
REQUEST_LIMIT_S = {"classify_mix": 10.0, "conjugacy_mix": 10.0, "tables_sweep": 30.0}
WARMUP_S = 0.5
# Request time between two speed probes (a probe takes about 5 ms).
PROBE_EVERY_S = 0.1


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout()


def load_cli(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from cfckit import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"cfckit was imported from {cli.__file__}, not {src}")
    return cli


def send(cli, req: dict, limit: float):
    """Run one request; returns (seconds, exit code, stdout, failure kind)."""
    out = io.StringIO()
    failure = None
    code = None
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(req["argv"])
    except RequestTimeout:
        failure = "timeout"
    except MemoryError:
        failure = "memory"
    except Exception as exc:  # a traceback out of the CLI is a failed request
        failure = f"exception:{type(exc).__name__}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, code, out.getvalue(), failure


def verify(req: dict, code, text: str, failure):
    """None when the response is right, else a one-line reason."""
    if failure:
        return failure
    if code != 0:
        try:
            return f"exit {code}: {json.loads(text).get('code')}"
        except ValueError:
            return f"exit {code}"
    payload = text
    if req["kind"] != "render":
        try:
            payload = json.loads(text)
        except ValueError:
            return "output is not JSON"
    problems = check.CHECKS[req["kind"]](req, payload)
    return "wrong: " + "; ".join(problems) if problems else None


def run_loop(cli, blocks, seconds: float, limit: float, deadline: float, tracer=None):
    """Send whole blocks until the summed request time reaches ``seconds``,
    probing the processor's speed between requests.  Returns the requests
    sent and one (label, seconds, failure, speed scale) per request."""
    sent, timed = [], []
    track = SpeedTrack()
    track.sample()
    busy = since_probe = 0.0
    for block in blocks:
        for req in block:
            if tracer is not None:
                tracer.request = len(sent)
            start = time.perf_counter()
            elapsed, code, text, failure = send(cli, req, limit)
            sent.append(req)
            timed.append((req["label"], elapsed, verify(req, code, text, failure), start + elapsed / 2))
            busy += elapsed
            since_probe += elapsed
            if since_probe >= PROBE_EVERY_S:
                track.sample()
                since_probe = 0.0
            if time.monotonic() > deadline:
                break
        if busy >= seconds or time.monotonic() > deadline:
            break
    track.sample()
    return sent, [(label, t, failure, track.scale(mid)) for label, t, failure, mid in timed]


def block_stream(name: str, seed: int):
    make = workloads.WORKLOADS[name]
    rng = random.Random(seed)
    while True:
        yield make(rng)


def warm_up(cli, name: str, seed: int, limit: float) -> None:
    """Run requests from a throwaway block until WARMUP_S of request time."""
    busy = 0.0
    for req in workloads.WORKLOADS[name](random.Random(f"warm-up {seed}")):
        busy += send(cli, req, limit)[0]
        if busy >= WARMUP_S:
            break


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline", type=float, required=True, help="wall seconds allowed")
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args()

    cli = load_cli(args.root)
    signal.signal(signal.SIGALRM, _on_alarm)
    limit = REQUEST_LIMIT_S[args.workload]
    deadline = time.monotonic() + args.deadline
    warm_up(cli, args.workload, args.seed, limit)
    blocks = block_stream(args.workload, args.seed)

    result = {"limit_s": limit}
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            sent, results = run_loop(cli, blocks, args.seconds, limit, deadline, tracer)
        finally:
            tracer.uninstall()
        # the same requests again without spans, for the tracing overhead;
        # both passes speed-scaled, as they run tens of seconds apart
        replay = run_loop(cli, [sent], 0.0, limit, deadline)[1]
        overhead = sum(r[1] * r[3] for r in results) / sum(r[1] * r[3] for r in replay)
        result["per_layer"] = tracer.metrics(len(sent), overhead)
        if args.spans:
            os.makedirs(os.path.dirname(args.spans), exist_ok=True)
            result["spans_written"] = tracer.write_spans(args.spans)
            result["spans_dropped"] = tracer.dropped
    else:
        sent, results = run_loop(cli, blocks, args.seconds, limit, deadline)
    result["requests"] = results
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
