#!/usr/bin/env python3
"""Builds and runs dashbench, the end-to-end benchmark of the deployed system.

Run from the root of the repository:

  python3 dashbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. Builds the Release binary first if needed
      (into .bench_build/, or $CARGO_TARGET_DIR), then prints the run's
      output; the last line is its JSON result.

  python3 dashbench/run.py --all [--seed N] [--seconds S] [--runs K] [--out F]
      Every workload untraced K times, then traced once, one process each.
      Prints every metric by name with its unit and writes one result JSON
      (default dashbench-result.json) recording host_cores, the git sha,
      the build type and the seed.

  python3 dashbench/run.py --compare BASE.json NEW.json
      Applies the bounds in BENCHMARK.json to the medians of two --all
      results. Exits 1 on a regression, a higher error ratio, or a result
      that is not correct or whose final-state digest differs; else 2 when
      a metric is unresolved (its base runs spread wider than its bound);
      else 0.

  python3 dashbench/run.py --smoke --binary PATH
      Every workload at 10% data for half a second, untraced and traced;
      checks exit codes, correctness and trace coverage (the ctest
      dashbench_smoke).
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["star_analytics", "dashboard_concurrent", "etl_mixed", "mpp_rollup"]
BUILD_TYPE = "Release"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out, "-j", jobs, "--target", "dashbench"])
        for cmd in steps:
            # Build output goes to stderr: stdout ends with the run's result.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                log("dashbench: build failed: " + " ".join(cmd))
                return None
    return os.path.join(out, "dashbench")


def run_once(binary, workload, seed, seconds, trace, scale=None):
    """Runs one process; returns (exit code, parsed JSON or None, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, result, p.stdout


def digest_of(stdout):
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == "final_state_digest":
            return parts[1]
    return None


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        print("  %-34s %16.6f %s" % (name, m["value"], m["unit"]))


def run_all(args, binary):
    report = {
        "host_cores": os.cpu_count(),
        "git_sha": git_sha(),
        "build_type": BUILD_TYPE,
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
        "workloads": {},
    }
    ok = True
    for w in WORKLOADS:
        entry = {"untraced": [], "traced": None, "digests": []}
        for _ in range(args.runs):
            code, result, out = run_once(binary, w, args.seed, args.seconds, False)
            if result is None or code != 0:
                log("dashbench: %s untraced run failed (exit %d)" % (w, code))
                ok = False
            if result is not None:
                entry["untraced"].append(result)
                print_metrics("%s (untraced)" % w, result["metrics"])
            if digest_of(out):
                entry["digests"].append(digest_of(out))
        code, result, out = run_once(binary, w, args.seed, args.seconds, True)
        if result is None or code != 0:
            log("dashbench: %s traced run failed (exit %d)" % (w, code))
            ok = False
        if result is not None:
            entry["traced"] = result
            print_metrics("%s (traced)" % w, result["metrics"])
        if digest_of(out):
            entry["digests"].append(digest_of(out))
        if len(set(entry["digests"])) > 1:
            log("dashbench: %s final-state digest differs between runs" % w)
            ok = False
        report["workloads"][w] = entry
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print("wrote " + args.out)
    return 0 if ok else 1


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def spread(vals):
    """Interquartile range over median; None below two runs."""
    if len(vals) < 2 or statistics.median(vals) == 0:
        return None
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)


def error_ratio(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def judge(base_vals, new_vals, better, bound):
    """One metric's verdict: 'regression', 'unresolved' or 'ok'.

    Unresolved: the base runs spread wider than the bound (or there are too
    few to tell), so no median difference within it means anything, unless
    every new run reads better than every base run.
    """
    sign = 1 if better == "lower" else -1
    b, n = statistics.median(base_vals), statistics.median(new_vals)
    if sign * (n - b) / b > bound:
        return "regression"
    s = spread(base_vals)
    if s is None or s > bound:
        all_better = (max(new_vals) < min(base_vals) if sign > 0
                      else min(new_vals) > max(base_vals))
        return "ok" if all_better else "unresolved"
    return "ok"


def compare(base_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    bad, unresolved = [], []
    for w in WORKLOADS:
        b = base["workloads"].get(w)
        n = new["workloads"].get(w)
        if not b or not n or not b["untraced"] or not n["untraced"]:
            bad.append("%s: missing from a result" % w)
            continue
        traced = [n["traced"]] if n["traced"] else []
        if not all(r["correct"] for r in n["untraced"] + traced):
            bad.append("%s: a result is not correct" % w)
        if b["digests"] and n["digests"] and b["digests"][0] != n["digests"][0]:
            bad.append("%s: final-state digest %s != %s" %
                       (w, n["digests"][0], b["digests"][0]))
        if error_ratio(n["untraced"]) > error_ratio(b["untraced"]):
            bad.append("%s: error ratio %.6f > %.6f" %
                       (w, error_ratio(n["untraced"]), error_ratio(b["untraced"])))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            bv, nv = values(b["untraced"], name), values(n["untraced"], name)
            if not bv or not nv or statistics.median(bv) == 0:
                bad.append("%s: %s missing" % (w, name))
                continue
            verdict = judge(bv, nv, m["better"], bound)
            bm, nm = statistics.median(bv), statistics.median(nv)
            s = spread(bv)
            print("%-22s %-16s base %14.6f new %14.6f %+7.2f%% (bound %.0f%%, "
                  "base spread %s) %s" %
                  (w, name, bm, nm, 100 * (nm - bm) / bm, 100 * bound,
                   "n/a" if s is None else "%.0f%%" % (100 * s), verdict.upper()))
            if verdict == "regression":
                bad.append("%s: %s regressed %+.2f%%" % (w, name, 100 * (nm - bm) / bm))
            elif verdict == "unresolved":
                unresolved.append("%s: %s" % (w, name))
    for line in bad:
        log("dashbench: " + line)
    for line in unresolved:
        log("dashbench: unresolved (base spread wider than the bound): " + line)
    return 1 if bad else (2 if unresolved else 0)


def smoke(binary):
    """Tiny-scale pass over every workload; must stay well under 15 s."""
    start = time.time()
    failures = []
    for w in WORKLOADS:
        for trace in (False, True):
            code, result, _ = run_once(binary, w, 1, 0.5, trace, scale=0.1)
            tag = "%s trace=%d" % (w, trace)
            if code != 0 or result is None:
                failures.append("%s: exit %d" % (tag, code))
                continue
            if not result["correct"] or result["failed"]:
                failures.append("%s: correct=%s failed=%d" %
                                (tag, result["correct"], result["failed"]))
            if trace:
                cov = result["metrics"]["trace.coverage"]["value"]
                if not 0.9 <= cov <= 1.1:
                    failures.append("%s: trace.coverage %.3f" % (tag, cov))
    for f in failures:
        log("dashbench smoke: " + f)
    print("dashbench smoke: %d failures in %.1fs" % (len(failures), time.time() - start))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out", default="dashbench-result.json")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary")
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    binary = args.binary or build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)
    if args.all:
        return run_all(args, binary)
    if not args.workload:
        ap.error("one of --workload, --all, --compare or --smoke is required")
    sys.stdout.flush()
    os.execv(binary, [binary, "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)])


if __name__ == "__main__":
    sys.exit(main())
