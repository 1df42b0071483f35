#!/usr/bin/env python3
"""Build and run the levee benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload spec-run|build-corpus|campaigns \
        --seed N --seconds S --trace 0|1 [--size full|small]

Builds perfbench/levee_bench.exe from the source tree this directory sits
in, then:

  --trace 0  times the set-up by starting the program SETUP_REPEATS times
             with --setup-only (median: setup_s), then runs the workload
             untraced for --seconds and prints the end-to-end metrics;
  --trace 1  runs it with spans on alternate rounds and prints the
             per-layer metrics; the spans are written to perfbench/out/.

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it carry
the host and model fingerprints. Exit code 0 only when every output
check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "levee_bench.exe")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("spec-run", "build-corpus", "campaigns")
SETUP_REPEATS = 9
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found next to perfbench/: the benchmark builds "
                 "the levee sources it sits in")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # The shared dune cache lives outside the tree; keep the build local.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/levee_bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def source_id():
    """The git commit when the tree is a checkout, else a digest of the
    sources, so results from different trees never share a key."""
    head = os.path.join(ROOT, ".git")
    if os.path.isdir(head):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if x != "out")
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def setup_seconds(args):
    """Median wall time of a cold start that prepares the workload."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        r = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size, "--setup-only"],
            cwd=ROOT, stdout=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if r.returncode != 0:
            fail("set-up failed")
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    args = ap.parse_args()

    build()
    setup_s = setup_seconds(args) if args.trace == 0 else None
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--commit", source_id()]
    if args.trace == 1:
        cmd += ["--spans", spans]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = r.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"benchmark exited {r.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    if setup_s is not None:
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"},
                             **result["metrics"]}
    print(json.dumps(result), flush=True)
    sys.exit(0 if r.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
