#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic. Run from the checkout root:

    python3 perfbench/selftest.py

1. `perfbench --selftest`: the percentile rule (highest percentile
   with at least 10 samples beyond it; refusal of a metric its sample count
   cannot support), the answer oracle (passes real answers, trips on
   injected wrong ones, accepts exact ties) and the seeded generator.
2. Every workload on tiny inputs with two seeds, untraced and traced: the
   seed changes the inputs, never the set of metric names, which must be
   exactly the names BENCHMARK.json lists.
3. An injected wrong answer makes the run report correct=false, count the
   failure and exit non-zero.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402


def bench_run(workload, seed, trace, extra=()):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "2",
           "--trace", str(trace), "--open-rate", "2000", "--smoke"]
    proc = subprocess.run(cmd + list(extra), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main():
    failures = []

    def expect(ok, what):
        print("%s %s" % ("PASS" if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    if not run.build():
        print("FAIL build")
        return 1
    expect(subprocess.run([run.BINARY, "--selftest"]).returncode == 0,
           "unit self-test")

    bench = run.spec()
    names = {0: {m["name"] for m in bench["end_to_end"]},
             1: {m["name"] for m in bench["per_layer"]}}
    for w in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            values = []
            for seed in (1, 2):
                rc, res = bench_run(w, seed, trace)
                ok = rc == 0 and res is not None and res["correct"]
                expect(ok, "%s seed %d trace %d runs correct" %
                       (w, seed, trace))
                if not ok:
                    continue
                expect(set(res["metrics"]) == names[trace],
                       "%s seed %d trace %d reports exactly the %s metrics" %
                       (w, seed, trace, "end-to-end" if trace == 0
                        else "per-layer"))
                values.append(res["metrics"])
            if len(values) == 2 and trace == 0:
                expect(values[0]["setup_s"]["value"] !=
                       values[1]["setup_s"]["value"],
                       "%s: two seeds give two measurements" % w)

    rc, res = bench_run("read-d4", 1, 0, ["--inject-wrong-answer"])
    expect(rc != 0 and res is not None and not res["correct"] and
           res["failed"] >= 1,
           "an injected wrong answer fails the run and counts in failed")

    print("selftest: %d failure(s)" % len(failures))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
