#!/usr/bin/env python3
"""Layered benchmark for the NN-cell index, its shards and its server.

Run from the root of a checkout:

    python3 perfbench/run.py --workload read-d4 --seed 1 --seconds 15 --trace 0

Builds the library, the server daemon and the benchmark binary from source
into .bench_build/ (first run only; later runs rebuild incrementally), runs
one workload and prints, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end metrics BENCHMARK.json names; with --trace 1 they are its
per-layer metrics, taken from a traced run that follows an untraced one
with the same seed, plus the tracing overhead on every end-to-end metric.
The exit code is 0 only when every answer and check passed.

RATIONALE.md explains the workloads and what each metric should move.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SERVER = os.path.join(BUILD_DIR, "nncell_server")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark binary and the server."""
    cmds = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + gen)
    cmds.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                 "perfbench", "nncell_server"])
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def wait_group_gone(pgid, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_pass(args, trace, workdir, spans_out=None):
    """Runs one pass of the binary; returns (exit code, result or None)."""
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % trace,
           "--workdir=" + workdir, "--server-bin=" + SERVER,
           "--open-rate=%s" % args.open_rate,
           "--wal-group-sync=%d" % args.wal_group_sync]
    if spans_out:
        cmd.append("--spans-out=" + spans_out)
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_wrong_answer:
        cmd.append("--inject-wrong-answer")
    # Own process group, so a timeout also takes down the server the
    # binary started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=os.setpgrp)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        wait_group_gone(proc.pid)
        log("perfbench: run timed out after %d s" % RUN_TIMEOUT_S)
        return 1, None
    wait_group_gone(proc.pid)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def pick(result, names):
    """The named metrics of a pass's result, or None if one is missing."""
    out = {}
    for name in names:
        m = result["metrics"].get(name)
        if m is None:
            log("perfbench: the run did not report " + name)
            return None
        out[name] = {"value": m["value"], "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # serve-d4's open-loop aggregate rate (ops/s) and WAL flush policy
    # (fsync every N-th append); BENCHMARK.json fixes both.
    ap.add_argument("--open-rate", type=float, default=100.0)
    ap.add_argument("--wal-group-sync", type=int, default=1)
    # Self-test hooks: tiny inputs, and one corrupted answer.
    ap.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--inject-wrong-answer", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    bench = spec()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log("perfbench: unknown workload " + args.workload)
        return 2
    if not build():
        return 1

    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    work_root = os.path.join(ROOT, ".bench_build", "work")
    workdir = os.path.join(work_root, "%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
    try:
        rc, base = run_pass(args, 0, workdir)
        if base is None:
            return 1
        runs = [base]
        if args.trace == 0:
            metrics = pick(base, e2e)
        else:
            traces = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            spans = os.path.join(traces, "%s-seed%d.spans.jsonl" %
                                 (args.workload, args.seed))
            rc2, traced = run_pass(args, 1, workdir, spans)
            if traced is None:
                return 1
            rc = rc or rc2
            runs.append(traced)
            # Tracing overhead: traced / untraced - 1, per end-to-end metric.
            for name in e2e:
                b = base["metrics"][name]["value"]
                t = traced["metrics"][name]["value"]
                traced["metrics"]["overhead." + name] = {
                    "value": (t / b - 1.0) if b else 0.0, "unit": "ratio"}
                print("overhead %-24s untraced %.6g traced %.6g" %
                      (name, b, t))
            metrics = pick(traced, layer)
        if metrics is None:
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": all(r["correct"] for r in runs) and rc == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
