#!/usr/bin/env python3
"""The repository benchmark: host time per simulated experiment.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the per-repetition runner (perfbench_rep) into
.bench_build, then runs repetitions of the workload, each in a process of
its own, until --seconds of host time are used. Every repetition's simulated
outputs are checked: against the values stored in expected_outputs.json for
the seed when the seed is stored there, and always against each other
(rep = rep, and traced = untraced).

--trace 0 reports the end-to-end metrics: events_per_s, setup_s and
peak_rss_mb, each the median over the repetitions, the two times expressed
at the reference host speed (REFERENCE_OPS_PER_S). --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics: counts
read from the library's own counters come from the untraced repetitions,
wrapper timings from the traced ones. Lines before the last one give every
metric's median and quartiles, the build type and nproc; the last line is
one JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --record-seeds 0-63

re-records expected_outputs.json, for a change that alters simulated results
on purpose.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"
EXPECTED = os.path.join(HERE, "expected_outputs.json")

WORKLOADS = ("pipe_wfq", "dispersive_shinjuku", "mt256_cfs")
# The host speed the time metrics of single-threaded runs are expressed at:
# each repetition measures the host's momentary speed on a fixed
# single-threaded reference kernel (perfbench_rep) and its times are scaled
# from that speed to this one. Shared hosts drift by 25 % over minutes; the
# reference moves with them, the library cannot move it. It does not track
# a run spread over several host threads, so those stay unscaled.
REFERENCE_OPS_PER_S = 1e7
REP_TIMEOUT_S = 120


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench_rep; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/CMakeLists.txt next to perfbench/; "
                 "run from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench_rep"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench_rep")


def run_rep(binary, workload, seed, traced):
    """Runs one repetition; returns (result dict or None, failure reason)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if p.returncode != 0:
        tail = p.stderr.strip().splitlines()[-1:] or [""]
        return None, "exit code %d: %s" % (p.returncode, tail[0])
    return json.loads(p.stdout.strip().splitlines()[-1]), None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(args, spec):
    binary = build()
    with open(EXPECTED) as f:
        expected = json.load(f).get(args.workload, {}).get(str(args.seed))
    deadline = time.monotonic() + args.seconds
    reps = []  # (traced, result)
    failures = []
    attempted = 0
    rep_s = {False: [], True: []}
    while True:
        traced = args.trace == 1 and len(rep_s[False]) > len(rep_s[True])
        done = {k: len(v) for k, v in rep_s.items()}
        enough = done[False] >= (1 if args.trace else 3) and (not args.trace or done[True] >= 1)
        if enough:
            # Start a repetition only if it fits in the remaining time.
            est = statistics.median(rep_s[traced]) if rep_s[traced] else 0
            if time.monotonic() + est > deadline:
                break
        attempted += 1
        t0 = time.monotonic()
        result, reason = run_rep(binary, args.workload, args.seed, traced)
        rep_s[traced].append(time.monotonic() - t0)
        if result is None:
            failures.append(reason)
            continue
        if result["failures"]:
            failures.append("; ".join(result["failures"]))
            continue
        reference = expected if expected is not None else (reps[0][1]["outputs"] if reps else None)
        if reference is not None and result["outputs"] != reference:
            kind = "stored outputs" if expected is not None else "repetition 1"
            failures.append("DETERMINISM VIOLATION: %s outputs differ from %s: %s" % (
                "traced" if traced else "untraced", kind, json.dumps(result["outputs"])))
            continue
        reps.append((traced, result))
    for f in failures:
        log("perfbench: failed repetition:", f)

    untraced = [r for t, r in reps if not t]
    traced_reps = [r for t, r in reps if t]
    samples = {}
    if args.trace == 0:
        speed = [r["ref_ops_per_s"] / REFERENCE_OPS_PER_S if r["host_threads"] == 1 else 1.0
                 for r in untraced]
        samples["events_per_s"] = [r["events"] / r["run_s"] / k for r, k in zip(untraced, speed)]
        samples["setup_s"] = [r["setup_s"] * k for r, k in zip(untraced, speed)]
        samples["peak_rss_mb"] = [r["peak_rss_kb"] / 1024.0 for r in untraced]
        # Unscaled figures, for the summary lines only.
        samples["raw.events_per_s"] = [r["events"] / r["run_s"] for r in untraced]
        samples["raw.setup_s"] = [r["setup_s"] for r in untraced]
        samples["raw.ref_ops_per_s"] = [r["ref_ops_per_s"] for r in untraced]
        wanted = spec["end_to_end"] + [
            {"name": "raw.events_per_s", "unit": "1/s"}, {"name": "raw.setup_s", "unit": "s"},
            {"name": "raw.ref_ops_per_s", "unit": "1/s"}]
    else:
        for r in untraced + traced_reps:
            for name, value in r["layer"].items():
                samples.setdefault(name, []).append(value)
        if untraced and traced_reps:
            samples["trace.overhead_ratio"] = [
                statistics.median(r["run_s"] for r in traced_reps) /
                statistics.median(r["run_s"] for r in untraced)]
        wanted = spec["per_layer"]
        if traced_reps:
            trace_path = os.path.join(BUILD, "perfbench-trace-%s-seed%d.json" % (
                args.workload, args.seed))
            with open(trace_path, "w") as f:
                json.dump(traced_reps[-1]["histograms"], f, indent=1, sort_keys=True)

    metrics = {}
    summary = {}
    for m in wanted:
        values = samples.get(m["name"])
        if not values:
            failures.append("metric %s not measured" % m["name"])
            continue
        q1, med, q3 = quartiles(values)
        if not m["name"].startswith("raw."):
            metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": m["unit"]}

    nproc = os.cpu_count()
    print("# perfbench %s seed=%d trace=%d build=%s nproc=%d reps=%d traced_reps=%d "
          "stored_seed=%s" % (args.workload, args.seed, args.trace, BUILD_TYPE, nproc,
                              len(untraced), len(traced_reps), expected is not None))
    for name, s in summary.items():
        print("#   %-34s %.6g %s [q1 %.6g, q3 %.6g, n=%d]" % (
            name, s["median"], s["unit"], s["q1"], s["q3"], s["n"]))
    with open(os.path.join(BUILD, "perfbench-result-%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "build_type": BUILD_TYPE, "nproc": nproc, "summary": summary,
                   "failures": failures}, f, indent=1)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": attempted - len(reps), "metrics": metrics}))
    return 0


def record(seeds_arg):
    first, last = (int(x) for x in seeds_arg.split("-"))
    binary = build()
    table = {}
    for workload in WORKLOADS:
        for seed in range(first, last + 1):
            result, reason = run_rep(binary, workload, seed, False)
            if result is None or result["failures"]:
                sys.exit("perfbench: %s seed %d failed: %s" % (
                    workload, seed, reason or result["failures"]))
            table.setdefault(workload, {})[str(seed)] = result["outputs"]
            log("recorded", workload, seed)
    with open(EXPECTED, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-seeds", metavar="FIRST-LAST")
    args = parser.parse_args()
    if args.record_seeds:
        return record(args.record_seeds)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
