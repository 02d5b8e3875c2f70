#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run one workload.

    python3 perfbench/run.py --workload live_zap --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (the p2pdrm libraries plus perfbench/*.cpp) into .bench_build/;
later runs rebuild incrementally. With --workload all (the default) every
workload runs in turn.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the workload twice, untraced and then traced, and reports the per-layer
metrics. Per-layer metrics a workload does not exercise read 0. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is nonzero when the build fails or a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("live_zap", "live_broadcast", "macro_day")

# End-to-end metrics, and which measured figure of each workload they
# carry. The bounded ones are CPU cost and memory: on a shared host, stolen
# CPU time moves every wall-clock figure by more than any useful bound.
E2E = {
    "cpu_us_per_op": {w: "cpu_us_per_op" for w in WORKLOADS},
    "setup_s": {w: "setup_cpu_s" for w in WORKLOADS},
    "peak_rss_mb": {w: "peak_rss_mb" for w in WORKLOADS},
}
# Wall-clock figures of the untraced run, reported with the per-layer
# metrics. The primary op: a channel switch (live_zap), one packet reaching
# one viewer (live_broadcast), one simulated day (macro_day).
WALL = {
    "wall.setup_s": {w: "setup_s" for w in WORKLOADS},
    "wall.ops_per_s": {"live_zap": "ops_per_s",
                       "live_broadcast": "deliveries_per_s",
                       "macro_day": "sim_events_per_s"},
    "wall.latency_ms_p50": {"live_zap": "switch_ms_p50",
                            "live_broadcast": "pkt_delivery_ms_p50",
                            "macro_day": "day_ms_p50"},
    "wall.latency_ms_p99": {"live_zap": "switch_ms_p99",
                            "live_broadcast": "pkt_delivery_ms_p99",
                            "macro_day": "day_ms_p99"},
    "zap.login_ms_p50": {"live_zap": "login_ms_p50"},
    "zap.login_ms_p99": {"live_zap": "login_ms_p99"},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return False
    make = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j",
            str(min(4, os.cpu_count() or 1))]
    return subprocess.run(make, stdout=sys.stderr).returncode == 0


def run_binary(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        if line:
            print(line)
    if not lines:
        raise RuntimeError(f"perfbench {workload} printed nothing "
                           f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def run_workload(workload, seed, seconds, trace):
    plain = run_binary(workload, seed, seconds, False)
    measured = plain["metrics"]
    ok = plain["correct"] and plain["exit"] == 0
    attempted, failed = plain["attempted"], plain["failed"]
    metrics = {}
    if not trace:
        for name, source in E2E.items():
            metrics[name] = measured[source[workload]]
    else:
        traced = run_binary(workload, seed, seconds, True)
        ok = ok and traced["correct"] and traced["exit"] == 0
        attempted += traced["attempted"]
        failed += traced["failed"]
        layers = traced["metrics"]
        # Tracing cost: the share of CPU per op the traced run adds.
        key = E2E["cpu_us_per_op"][workload]
        layers["obs.trace_overhead_frac"] = {
            "value": layers[key]["value"] / measured[key]["value"] - 1.0,
            "unit": "ratio"}
        for name, source in WALL.items():
            if workload in source:
                layers[name] = measured[source[workload]]
        for name, unit in layer_names():
            metrics[name] = layers.get(name, {"value": 0, "unit": unit})
    return ok, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        w_ok, w_attempted, w_failed, w_metrics = run_workload(
            workload, args.seed, args.seconds, args.trace == 1)
        print(f"# {workload}: {'PASS' if w_ok else 'FAIL'}")
        ok = ok and w_ok
        attempted += w_attempted
        failed += w_failed
        if len(workloads) == 1:
            metrics = w_metrics
        else:
            metrics.update({f"{workload}.{k}": v for k, v in w_metrics.items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
