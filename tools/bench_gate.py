#!/usr/bin/env python3
"""One driver for the committed bench gates.

  tools/bench_gate.py run <suite...|all> [--quick] [--build-dir DIR]
  tools/bench_gate.py update <suite> [--build-dir DIR]

`run` builds the suite's targets, runs its binary or server scenario,
writes the result to <build>/bench_<suite>_current.json and gates it
against the committed BENCH_<suite>.json. `update` does a full run, gates
that run against itself (a baseline that breaks its own invariants is
never written), then copies it over the committed baseline. --quick runs
the CI subset; `update` refuses it because a baseline carries every
config. The build directory defaults to the first of build-dev/ and
build/ under the repository root.

Every gate compares deterministic integers only: wall-clock numbers are
recorded for the reader and never gated.

  lp      bench/bench_regress: optimized lp_iterations <= committed x1.20,
          optimized <= the run's own cold pipeline x1.05, and at least one
          config compared.
  simd    bench/bench_simd: checksum and evals bit-equal per config. The
          binary itself fails when a dispatched kernel diverges from
          scalar, which fails the gate.
  recall  bench/bench_recall: exact_match == queries and equal to the
          baseline, the exact checksum matches, recall@1/@10 hit counts
          match at every epsilon and budget point, and recall@10 at the
          default epsilon is >= 0.95 in the current run.
  serve   nncell_server + loadgen, one server. det (1 connection, fixed
          seed): checksum and per-type op counts exact, ok == sent,
          errors == rejected == 0. load (4 connections, full runs only):
          no errors, completed > 0. The server's DRAINED counters
          conserve (accepted == completed + rejected), malformed == 0.
  shard   the det workload at d=16 against one fresh server per shard
          count K (full 0 1 2 4 8, quick 0 4; K=0 is unsharded): checksum,
          id_checksum and op counts exact per K, ok == sent,
          errors == rejected == 0, id_checksum identical across every K,
          conservation per K. A K absent from a quick run is skipped; an
          unknown label fails.

Exits 0 when every gate passes, 1 on a gate failure, 2 on a usage error.
"""

import argparse
import json
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITES = ("lp", "simd", "recall", "serve", "shard")
BINARY = {"lp": "bench_regress", "simd": "bench_simd",
          "recall": "bench_recall"}
SERVER_TARGETS = ("nncell_server", "loadgen")

LP_MAX_REGRESSION = 0.20
LP_COLD_SLOP = 1.05
RECALL_FLOOR = 0.95
SHARD_EXACT_KEYS = ("checksum", "id_checksum", "queries", "inserts",
                    "deletes", "sent")
# The det workload: identical in quick and full mode, so its checksum
# gates against the committed one either way.
DET_FLAGS = ("--connections=1", "--ops=400", "--mix=90:8:2", "--zipf=0.99",
             "--seed=7")
READY_TIMEOUT_S = 10.0
DRAIN_TIMEOUT_S = 60.0


class GateError(Exception):
    """A run that could not produce a result to gate."""


# --- gates: (baseline doc, current doc) -> list of failures --------------

def by_name(doc):
    return {c["name"]: c for c in doc["configs"]}


def paired(baseline, current):
    """Yields (name, committed, current) per config of the current run."""
    committed = by_name(baseline)
    for name, cur in sorted(by_name(current).items()):
        ref = committed.get(name)
        if ref is None:
            print(f"  {name}: not in committed baseline, skipped")
            continue
        yield name, ref, cur


def gate_lp(baseline, current):
    failures, compared = [], 0
    for name, ref, cur in paired(baseline, current):
        compared += 1
        ref_it = ref["optimized"]["lp_iterations"]
        cur_it = cur["optimized"]["lp_iterations"]
        cold_it = cur["baseline"]["lp_iterations"]
        limit = ref_it * (1.0 + LP_MAX_REGRESSION)
        if cur_it > limit:
            failures.append(
                f"{name}: optimized lp_iterations {cur_it} > {limit:.0f} "
                f"(committed {ref_it} +{LP_MAX_REGRESSION:.0%})")
        if cur_it > cold_it * LP_COLD_SLOP:
            failures.append(
                f"{name}: optimized lp_iterations {cur_it} exceeds its own "
                f"cold baseline {cold_it}")
        print(f"  {name}: iters {cur_it} (committed {ref_it}, "
              f"cold {cold_it})")
    if compared == 0:
        failures.append("no overlapping configs between baseline and run")
    return failures


def gate_simd(baseline, current):
    print(f"  dispatch: {current.get('dispatch')} "
          f"({current.get('dispatch_reason')}), "
          f"baseline recorded {baseline.get('dispatch')}")
    failures, compared = [], 0
    for name, ref, cur in paired(baseline, current):
        compared += 1
        for key in ("checksum", "evals"):
            if cur[key] != ref[key]:
                failures.append(
                    f"{name}: {key} {cur[key]} != committed {ref[key]}")
        print(f"  {name}: checksum {cur['checksum']} evals {cur['evals']} "
              f"speedup {cur.get('wall_speedup', 0):.2f}x")
    if compared == 0:
        failures.append("no overlapping configs between baseline and run")
    return failures


def sweep_points(cfg):
    for p in cfg.get("epsilon_sweep", []):
        yield f"eps={p['epsilon']}", p
    for p in cfg.get("budget_sweep", []):
        yield f"budget={p['max_leaf_visits']}", p


def gate_recall(baseline, current):
    queries = current["queries"]
    default_eps = current["default_epsilon"]
    failures, compared = [], 0
    # Invariants of the run itself: exact-mode bit-identity and the floor.
    for name, cur in sorted(by_name(current).items()):
        if cur["exact_match"] != queries:
            failures.append(
                f"{name}: exact_match {cur['exact_match']} != {queries} "
                f"(approximate entry points diverged from the exact tier)")
        for p in cur.get("epsilon_sweep", []):
            if p["epsilon"] != default_eps:
                continue
            recall10 = p["recall10_hits"] / (queries * current["recall_k"])
            print(f"  {name}: recall@10 at eps={default_eps} is "
                  f"{recall10:.4f} (floor {RECALL_FLOOR})")
            if recall10 < RECALL_FLOOR:
                failures.append(
                    f"{name}: recall@10 {recall10:.4f} at default epsilon "
                    f"{default_eps} below floor {RECALL_FLOOR}")
    for name, ref, cur in paired(baseline, current):
        compared += 1
        for key in ("exact_match", "exact_checksum"):
            if cur[key] != ref[key]:
                failures.append(
                    f"{name}: {key} {cur[key]} != committed {ref[key]}")
        ref_points = dict(sweep_points(ref))
        for label, p in sweep_points(cur):
            rp = ref_points.get(label)
            if rp is None:
                print(f"  {name} {label}: not in baseline, skipped")
                continue
            for field in ("recall1_hits", "recall10_hits"):
                if p[field] != rp[field]:
                    failures.append(f"{name} {label}: {field} {p[field]} "
                                    f"!= committed {rp[field]}")
    if compared == 0:
        failures.append("no overlapping configs between baseline and run")
    return failures


def gate_exact_run(label, res, ref_res, keys):
    """det-style exactness: `keys` equal the baseline, every op succeeded."""
    failures = [f"{label}: {key} = {res[key]}, baseline {ref_res[key]}"
                for key in keys if res[key] != ref_res[key]]
    if res["ok"] != res["sent"]:
        failures.append(f"{label}: ok {res['ok']} != sent {res['sent']}")
    failures += [f"{label}: {key} = {res[key]}, want 0"
                 for key in ("errors", "rejected") if res[key] != 0]
    return failures


def gate_server(label, srv):
    failures = []
    if srv["completed"] + srv["rejected"] != srv["accepted"]:
        failures.append(
            f"{label}: conservation violated: accepted {srv['accepted']} "
            f"!= completed {srv['completed']} + rejected {srv['rejected']}")
    if srv["malformed"] != 0:
        failures.append(f"{label}: malformed = {srv['malformed']}, want 0")
    return failures


def scenarios(doc):
    return {s["label"]: s for s in doc["scenarios"]}


def gate_serve(baseline, current):
    ref, cur = scenarios(baseline), scenarios(current)
    failures = []
    # A scenario is only comparable with the baseline run of the same
    # loadgen configuration (every field loadgen prints, shards included).
    for label, scen in sorted(cur.items()):
        want = ref.get(label, {}).get("config")
        if scen.get("config") != want:
            failures.append(f"{label}: config {scen.get('config')} differs "
                            f"from the baseline's {want}")
    det = cur.get("det")
    if det is None:
        failures.append("det scenario missing from current run")
    else:
        res = det["results"]
        failures += gate_exact_run(
            "det", res, ref["det"]["results"],
            ("checksum", "queries", "inserts", "deletes", "sent"))
        print(f"  det: checksum {res['checksum']}, "
              f"{res['ok']}/{res['sent']} ops, "
              f"p99 {res['latency_us']['p99']}us (not gated)")
    load = cur.get("load")
    if load is None:
        print("  load: not in current run, skipped (quick mode)")
    else:
        res = load["results"]
        if res["errors"] != 0:
            failures.append(f"load: errors = {res['errors']}, want 0")
        if res["ok"] == 0:
            failures.append("load: no ops completed")
        print(f"  load: {res['ok']}/{res['sent']} ops, "
              f"{res['rejected']} rejected (backpressure), "
              f"{res['throughput_ops_s']:.0f} ops/s, "
              f"p99 {res['latency_us']['p99']}us (not gated)")
    srv = current["server"]
    failures += gate_server("server", srv)
    print(f"  server: accepted {srv['accepted']} = completed "
          f"{srv['completed']} + rejected {srv['rejected']}, "
          f"malformed {srv['malformed']}")
    return failures


def gate_shard(baseline, current):
    committed = scenarios(baseline)
    failures, id_checksums = [], {}
    for label, scen in sorted(scenarios(current).items()):
        ref = committed.get(label)
        if ref is None:
            failures.append(f"{label}: not in committed baseline")
            continue
        res = scen["results"]
        failures += gate_exact_run(label, res, ref["results"],
                                   SHARD_EXACT_KEYS)
        failures += gate_server(label, scen["server"])
        id_checksums[label] = res["id_checksum"]
        sm = scen.get("shard_metrics", {})
        print(f"  {label}: checksum {res['checksum']}, "
              f"{res['ok']}/{res['sent']} ops, "
              f"probes {sm.get('probes', 0)} / pruned {sm.get('pruned', 0)}, "
              f"p99 {res['latency_us']['p99']}us (not gated)")
    # The scatter-gather merge contract (docs/SHARDING.md): the shard
    # count changes fan-out, never which point is the answer.
    if len(set(id_checksums.values())) > 1:
        failures.append("cross-K bit-identity violated: id_checksum "
                        f"differs across the sweep: {id_checksums}")
    elif id_checksums:
        print(f"  cross-K: id_checksum {next(iter(id_checksums.values()))} "
              f"identical across {sorted(id_checksums)}")
    return failures


GATES = {"lp": gate_lp, "simd": gate_simd, "recall": gate_recall,
         "serve": gate_serve, "shard": gate_shard}


# --- runners: produce <build>/bench_<suite>_current.json -----------------

class Server:
    """One nncell_server on a fresh durable index under `scratch`.

    Entering waits for READY; drain() sends SIGTERM and returns the parsed
    DRAINED counters. Any failure inside the block prints the server log.
    """

    def __init__(self, build, scratch, name, flags):
        self.sock = scratch / f"{name}.sock"
        self.log = scratch / f"{name}.log"
        self.cmd = [str(build / "tools" / "nncell_server"),
                    str(scratch / name), f"--socket={self.sock}", *flags]
        self.proc = None

    def __enter__(self):
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(self.cmd, stdout=log,
                                         stderr=subprocess.STDOUT)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not (self.sock.exists() and "READY" in self.log.read_text()):
            error = None
            if self.proc.poll() is not None:
                error = f"server exited {self.proc.returncode} before READY"
            elif time.monotonic() > deadline:
                error = f"server not READY after {READY_TIMEOUT_S}s"
            if error:
                self.__exit__(GateError, None, None)
                raise GateError(error)
            time.sleep(0.1)
        return self

    def drain(self):
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise GateError(f"server not drained after {DRAIN_TIMEOUT_S}s")
        if code != 0:
            raise GateError(f"server exited {code} on drain")
        m = re.search(r"DRAINED accepted=(\d+) completed=(\d+) "
                      r"rejected=(\d+) malformed=(\d+)", self.log.read_text())
        if m is None:
            raise GateError("server printed no DRAINED line")
        accepted, completed, rejected, malformed = map(int, m.groups())
        return {"accepted": accepted, "completed": completed,
                "conservation_ok": completed + rejected == accepted,
                "malformed": malformed, "rejected": rejected}

    def __exit__(self, exc_type, exc, tb):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if exc_type is not None:
            print(f"--- server log ({' '.join(self.cmd)}) ---\n"
                  f"{self.log.read_text()}---", file=sys.stderr)


def loadgen(build, sock, *flags):
    proc = subprocess.run(
        [str(build / "bench" / "loadgen"), f"--socket={sock}", *flags],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise GateError(f"loadgen {' '.join(flags)} exited "
                        f"{proc.returncode}")
    return json.loads(proc.stdout)


def run_serve(build, quick, scratch):
    with Server(build, scratch, "index", ["--dim=4"]) as srv:
        runs = [loadgen(build, srv.sock, *DET_FLAGS, "--preload=100",
                        "--label=det")]
        if not quick:
            runs.append(loadgen(
                build, srv.sock, "--connections=4", "--ops=2000",
                "--preload=100", "--mix=80:15:5", "--zipf=0.99",
                "--seed=11", "--label=load"))
        return {"scenarios": runs, "server": srv.drain()}


def run_shard(build, quick, scratch):
    rows = []
    for k in (0, 4) if quick else (0, 1, 2, 4, 8):
        flags = ["--dim=16"] + ([f"--shards={k}"] if k else [])
        with Server(build, scratch, f"index{k}", flags) as srv:
            row = loadgen(build, srv.sock, *DET_FLAGS, "--preload=128",
                          "--dim=16", f"--label=shard{k}", f"--shards={k}")
            # Fan-out off the live server: reported, never gated.
            metrics = loadgen(build, srv.sock, "--stats")["metrics"]
            row["server"] = srv.drain()
        row["shard_metrics"] = {
            "probes": int(metrics.get("shard.query.probes", 0)),
            "pruned": int(metrics.get("shard.query.pruned", 0))}
        rows.append(row)
    return {"scenarios": rows}


def run_suite(suite, build, quick):
    """Runs one suite and returns the path of its current-run JSON."""
    out = build / f"bench_{suite}_current.json"
    if suite in BINARY:
        cmd = [str(build / "bench" / BINARY[suite]), f"--out={out}"]
        if quick:
            cmd.append("--quick")
        code = subprocess.run(cmd).returncode
        if code != 0:
            raise GateError(f"{BINARY[suite]} exited {code}")
        return out
    runner = run_serve if suite == "serve" else run_shard
    with tempfile.TemporaryDirectory(prefix=f"bench_{suite}_") as scratch:
        doc = runner(build, quick, Path(scratch))
    out.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return out


def gate_files(suite, baseline_path, current_path):
    """Gates one run; prints the verdict and returns True on a pass."""
    baseline = json.loads(Path(baseline_path).read_text())
    current = json.loads(Path(current_path).read_text())
    failures = GATES[suite](baseline, current)
    for f in failures:
        print(f"  FAIL {f}")
    print(f"{suite}: {'FAIL' if failures else 'PASS'}")
    return not failures


def find_build_dir(arg):
    candidates = [Path(arg)] if arg else [ROOT / "build-dev", ROOT / "build"]
    for d in candidates:
        if d.is_dir():
            return d.resolve()
    sys.exit("no build directory found (configure with: cmake --preset dev)")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=("run", "update"))
    ap.add_argument("suites", nargs="+", metavar="suite",
                    choices=SUITES + ("all",))
    ap.add_argument("--quick", action="store_true",
                    help="run the CI subset (refused by update)")
    ap.add_argument("--build-dir", help="configured CMake build tree")
    args = ap.parse_args(argv)

    suites = SUITES if "all" in args.suites else tuple(
        dict.fromkeys(args.suites))
    if args.command == "update":
        if args.quick:
            print("update requires a full run (a baseline carries every "
                  "config)", file=sys.stderr)
            return 2
        if len(suites) != 1:
            print("update takes exactly one suite", file=sys.stderr)
            return 2

    build = find_build_dir(args.build_dir)
    targets = sorted({t for s in suites for t in (
        (BINARY[s],) if s in BINARY else SERVER_TARGETS)})
    if subprocess.run(["cmake", "--build", str(build), "--target",
                       *targets]).returncode != 0:
        print(f"build of {' '.join(targets)} in {build} failed")
        return 1

    failed = []
    for suite in suites:
        print(f"== {suite}")
        try:
            current = run_suite(suite, build, args.quick)
        except GateError as e:
            print(f"  FAIL {e}\n{suite}: FAIL")
            failed.append(suite)
            continue
        baseline = ROOT / f"BENCH_{suite}.json"
        if args.command == "update":
            # Gate the run against itself before it becomes the baseline.
            if not gate_files(suite, current, current):
                failed.append(suite)
                continue
            baseline.write_bytes(current.read_bytes())
            print(f"{baseline.name} updated")
        elif not gate_files(suite, baseline, current):
            failed.append(suite)
    if failed:
        print(f"FAILED: {' '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.stdout.reconfigure(line_buffering=True)  # interleave with children
    sys.exit(main())
