#!/usr/bin/env python3
"""Repository benchmark: times the three canonical wsel campaigns.

    python3 perfbench/run.py --workload population-4c --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  The first call configures and
builds perfbench/ (the wsel library, wsel_worker and the perfbench
driver) into $CARGO_TARGET_DIR/perfbench, default .bench_build.

Untraced (--trace 0): repeats the workload in a fresh process and a
fresh directory per campaign until --seconds have passed (at least
three campaigns), checks each campaign's output digest against the
reference for the workload and seed, and reports cells_per_sec pooled
over the campaigns and the medians of setup_s and peak_rss_mib.
Traced (--trace 1): repeats
the traced run (see src/layers.cc) and reports the median of every
per-layer metric.  The last line of stdout is the JSON result; the
line before it records the host facts.

--smoke shrinks every workload to a few seconds (used by
test_smoke.py).  --record SEEDS writes reference digests for a
comma-separated seed list into reference.json from the serial
reference configuration.  See README.md for the workloads and
metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("population-4c", "hybrid-4c", "distributed-4c")
# Documented in README.md; never used while tuning the benchmark.
HELD_OUT_SEED = 20131
MIN_REPS = 3
TMP_DIR = None  # set in main(): <build dir>/tmp
END_TO_END = {
    "cells_per_sec": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "exec.busy_fraction": "ratio",
    "exec.shards": "count",
    "sim.badco.cell_us_p50": "us",
    "sim.badco.cell_us_p90": "us",
    "sim.detailed.cell_ms_p50": "ms",
    "sim.detailed.cell_ms_p90": "ms",
    "badco.walk_us_per_cell": "us",
    "badco.requests_per_cell": "count",
    "mem.uncore_us_per_cell": "us",
    "mem.accesses_per_cell": "count",
    "mem.llc_hit_ratio": "ratio",
    "badco.model_build_s": "s",
    "trace.chunk_build_ms": "ms",
    "trace.cursor_ns_per_uop": "ns",
    "stats.shard_write_ms": "ms",
    "stats.shard_read_ms": "ms",
    "stats.fold_ns_per_row": "ns",
    "fidelity.oracle_ms": "ms",
    "fidelity.escalated_rows": "count",
    "serve.efficiency": "ratio",
    "serve.status_rtt_us": "us",
    "serve.leases_granted": "count",
    "serve.leases_expired": "count",
    "serve.dedup_hits": "count",
    "core.workload.rank_ns": "ns",
    "obs.trace_overhead": "ratio",
    "trace.coverage": "ratio",
}
# Share of the untraced wall time the traced run attributes to each
# layer (tracer.hh); the shares sum to trace.coverage.
for _layer in ("sim.badco", "sim.detailed", "stats.write", "stats.read",
               "stats.fold", "fidelity", "trace", "serve", "exec"):
    PER_LAYER[_layer + ".share"] = "ratio"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, base, "perfbench")


def clean_env():
    """The parent's environment without inherited WSEL_* knobs, with
    temporary files kept inside the build dir."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("WSEL_")}
    env["TMPDIR"] = TMP_DIR
    return env


def build(root, bdir):
    """Configure once, then build incrementally; True on success."""
    os.makedirs(TMP_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, env=clean_env(),
                          stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return True


class Bench:
    def __init__(self, root, workload, smoke):
        self.root = root
        self.workload = workload
        self.smoke = smoke
        self.bdir = build_dir(root)
        self.exe = os.path.join(self.bdir, "perfbench")
        self.runs = os.path.join(self.bdir, "runs")
        self.profile = os.path.join(
            self.bdir, "profile-%s.bin" % ("smoke" if smoke else "full"))
        self.counter = 0

    def fresh_dir(self):
        self.counter += 1
        d = os.path.join(self.runs, "%s-%d-%d" % (
            self.workload, os.getpid(), self.counter))
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        return d

    def call(self, cmd, seed, *extra):
        """One fresh process in a fresh dir; parsed JSON or None."""
        d = self.fresh_dir()
        env = clean_env()
        env["WSEL_CACHE_DIR"] = os.path.join(d, "models")
        args = [self.exe, cmd, "--workload", self.workload,
                "--seed", str(seed), "--dir", ".",
                "--profile", self.profile,
                "--smoke", "1" if self.smoke else "0"] + list(extra)
        try:
            p = subprocess.run(args, cwd=d, env=env,
                               stdout=subprocess.PIPE, text=True,
                               timeout=170)
        except subprocess.TimeoutExpired:
            log("perfbench %s timed out" % cmd)
            return None
        finally:
            shutil.rmtree(d, ignore_errors=True)
        # rc 1 still prints the result, whose checks then fail it.
        lines = p.stdout.strip().splitlines()
        if p.returncode not in (0, 1) or not lines:
            log("perfbench %s failed (rc %d)" % (cmd, p.returncode))
            return None
        return json.loads(lines[-1])

    def ensure_profile(self):
        """Calibrate the frozen hybrid profile once per build."""
        if self.workload != "hybrid-4c" or os.path.exists(self.profile):
            return True
        tmp = self.profile + ".tmp"
        d = self.fresh_dir()
        try:
            rc = subprocess.run(
                [self.exe, "calibrate", "--workload", self.workload,
                 "--dir", ".", "--profile", tmp,
                 "--smoke", "1" if self.smoke else "0"],
                cwd=d, env=clean_env(), stdout=sys.stderr).returncode
        finally:
            shutil.rmtree(d, ignore_errors=True)
        if rc != 0:
            return False
        os.replace(tmp, self.profile)
        return True

    def reference(self, seed):
        """Committed digest for (workload, seed), else computed."""
        with open(os.path.join(HERE, "reference.json")) as f:
            table = json.load(f)
        size = "smoke" if self.smoke else "full"
        ref = table.get(size, {}).get(self.workload, {}).get(str(seed))
        if ref is not None:
            return ref
        out = self.call("rep", seed, "--serial", "1")
        return out["digest"] if out else None


def rep_ok(out, ref):
    return (out is not None and out["digest"] == ref
            and out["resumed"] == 0 and out["dedup_hits"] == 0
            and out["quarantined"] == 0)


def measure(bench, seed, seconds, trace):
    ref = bench.reference(seed)
    results, failed = [], 0
    t0 = time.monotonic()
    while len(results) + failed < (1 if trace else MIN_REPS) or \
            time.monotonic() - t0 < seconds:
        out = bench.call("trace" if trace else "rep", seed)
        ok = out is not None and (
            out.get("self_checks_ok", False) if trace
            else rep_ok(out, ref))
        if trace and ok and out["digest"] != ref:
            ok = False
        if ok:
            results.append(out)
        else:
            failed += 1
            if out is not None:
                log("failed check: %s" % json.dumps(out))
        if failed > 2 and not results:
            break
    return ref, results, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", default="",
                    help="comma-separated seeds to record references for")
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    bench = Bench(root, args.workload, args.smoke)
    global TMP_DIR
    TMP_DIR = os.path.join(bench.bdir, "tmp")
    if not build(root, bench.bdir):
        log("build failed")
        return 1
    if not bench.ensure_profile():
        log("hybrid profile calibration failed")
        return 1

    if args.record:
        path = os.path.join(HERE, "reference.json")
        with open(path) as f:
            table = json.load(f)
        size = "smoke" if args.smoke else "full"
        entry = table.setdefault(size, {}).setdefault(args.workload, {})
        for seed in [int(x) for x in args.record.split(",")]:
            out = bench.call("rep", seed, "--serial", "1")
            if out is None:
                return 1
            entry[str(seed)] = out["digest"]
            log("%s seed %d: %s" % (args.workload, seed, out["digest"]))
        with open(path, "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)
            f.write("\n")
        return 0

    ref, results, failed = measure(bench, args.seed, args.seconds,
                                   args.trace == 1)
    if not results:
        log("no campaign passed its checks")
        return 1
    host = {k: results[0][k] for k in
            ("nproc", "tagscan", "build_type", "uops", "jobs",
             "first_rank", "rows")}
    host.update(workload=args.workload, seed=args.seed,
                reference=ref, runs=len(results))
    print("host: " + json.dumps(host, sort_keys=True))

    if not args.trace:
        log("per campaign: " + " ".join(
            "%.1f cells/s" % (r["cells"] / r["campaign_s"])
            for r in results))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in units.items():
        if name == "cells_per_sec":
            # Pooled over the campaigns: per-campaign rates on a
            # shared host are bimodal, and a median of them jumps
            # between the modes as their mix changes.
            value = (sum(r["cells"] for r in results)
                     / sum(r["campaign_s"] for r in results))
        else:
            value = statistics.median(r[name] for r in results)
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0,
                      "attempted": len(results) + failed,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
