"""Byte-identity check of the CLI between two checkouts of cfckit, such as a
parent commit and a change.

Usage, from the root of a checkout:

    python3 tools/stdout_pairs.py --parent PARENT_DIR --change .

Each side runs ``cfckit.cli.run`` in one long-lived interpreter that imports
cfckit from the src/ directory of its checkout, and both answer the same
requests:

- the benchmark's request blocks, from perfbench/workloads.py next to this
  tool, imported unchanged: classify_mix seeds 0-1, conjugacy_mix seeds
  0-4 and tables_sweep seed 0, each the first block of its seed;
- enumerate and counts of every kind, classtable, and conjecture-check
  with --max-rank 9, at ranks 1-9;
- errors: rank 0, past a rank cap, past the closure cap and a malformed
  closure cap (``CFC_MAX_CLOSURE`` set for that request only), not_reduced,
  not_cfc, invalid_generator, and counts past the printable size;
- each of these as JSON and with ``--format text``.

Every request whose stdout, stderr or exit code differs is printed as one
JSON line on stdout, with an excerpt of each side from the first differing
character; a summary goes to stderr.  The exit code is 0 when no request
differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXCERPT = 200

# One side: read a request per line, answer with its exit code, stdout and
# stderr, or with the exception that escaped cli.run.
CHILD = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
from cfckit import cli
for line in sys.stdin:
    request = json.loads(line)
    saved = {name: os.environ.get(name) for name in request["env"]}
    os.environ.update(request["env"])
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(request["argv"])
    except BaseException as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    for name, value in saved.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    print(json.dumps({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}), flush=True)
"""

WORKLOAD_SEEDS = {"classify_mix": (0, 1), "conjugacy_mix": (0, 1, 2, 3, 4), "tables_sweep": (0,)}
KINDS = ("fc", "cfc", "coxeter")


def requests() -> list[tuple[list[str], dict]]:
    """(argv, environment overrides) for every request, JSON form first."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    argvs = [
        req["argv"]
        for name, seeds in WORKLOAD_SEEDS.items()
        for seed in seeds
        for req in workloads.WORKLOADS[name](random.Random(seed))
    ]
    for rank in map(str, range(1, 10)):
        for kind in KINDS:
            argvs.append(["enumerate", "--kind", kind, "--rank", rank])
            argvs.append(["counts", "--kind", kind, "--rank", rank])
        argvs.append(["classtable", "--rank", rank])
        argvs.append(["conjecture-check", "--rank", rank, "--max-rank", "9"])
    argvs += [
        ["counts", "--kind", "cfc", "--rank", "0"],
        ["classify", "--rank", "0", "--word", "1"],
        ["enumerate", "--kind", "fc", "--rank", "10"],
        ["counts", "--kind", "coxeter", "--rank", "10"],
        ["classtable", "--rank", "10"],
        ["conjecture-check", "--rank", "9"],
        ["classify", "--rank", "3", "--word", "11"],
        ["render", "--rank", "3", "--word", "1221"],
        ["conj", "--rank", "3", "--w", "2132", "--y", "123"],
        ["witness", "--rank", "4", "--w", "1234", "--y", "21324"],
        ["classify", "--rank", "3", "--word", "14"],
        ["conj", "--rank", "2", "--w", "3", "--y", "1"],
    ]
    argvs += [["counts", "--kind", kind, "--rank", "20000", "--max-rank", "20000"] for kind in KINDS]
    out = [(argv, {}) for argv in argvs]
    for cap in ("1", "x"):
        out.append((["classify", "--rank", "3", "--word", "13"], {"CFC_MAX_CLOSURE": cap}))
        out.append((["classtable", "--rank", "4"], {"CFC_MAX_CLOSURE": cap}))
    return out + [(["--format", "text", *argv], env) for argv, env in out]


class Side:
    def __init__(self, checkout: str):
        src = os.path.join(os.path.abspath(checkout), "src")
        if not os.path.isfile(os.path.join(src, "cfckit", "__init__.py")):
            raise SystemExit(f"no cfckit sources under {src}")
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-c", CHILD, src],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def send(self, argv: list[str], env: dict) -> None:
        self.proc.stdin.write(json.dumps({"argv": argv, "env": env}) + "\n")
        self.proc.stdin.flush()

    def answer(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("a child interpreter stopped")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def _excerpts(before, after) -> dict:
    """Both sides of a differing field, from the first differing character."""
    if not (isinstance(before, str) and isinstance(after, str)):
        return {"parent": before, "change": after}
    at = next((i for i, (a, b) in enumerate(zip(before, after)) if a != b), min(len(before), len(after)))
    return {
        "at": at,
        "parent": before[at : at + EXCERPT],
        "change": after[at : at + EXCERPT],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout taken as the reference")
    parser.add_argument("--change", required=True, help="checkout compared with it")
    args = parser.parse_args()

    todo = requests()
    parent, change = Side(args.parent), Side(args.change)
    differing = 0
    try:
        for argv, env in todo:
            parent.send(argv, env)
            change.send(argv, env)
            before, after = parent.answer(), change.answer()
            fields = {key: _excerpts(before[key], after[key]) for key in before if before[key] != after[key]}
            if fields:
                differing += 1
                print(json.dumps({"argv": argv, "env": env, "differs": fields}))
    finally:
        parent.close()
        change.close()
    print(f"{differing} of {len(todo)} requests differ", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
