#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload overload --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the library, `cr` and the harness from
source into .bench_build/perfbench, runs the workload in a fresh harness process
(so peak RSS is the workload's own), checks its outputs, and prints one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, measured untraced; with --trace 1 the
per-layer ones, from a traced run. Diagnostics and the result's fingerprint go
to stderr; the full record is kept under .bench_build/results/ for compare.py.
See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys

import stats

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RESULTS_DIR = os.path.join(".bench_build", "results")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
CR = os.path.join(BUILD_DIR, "src", "cr")
REQUIRED = ("BENCHMARK.json", "perfbench/CMakeLists.txt", "src/CMakeLists.txt", "suites/quick.json")
HARNESS_TIMEOUT_S = 170

# Every workload runs at one fixed thread count, capped by the host.
THREADS = min(2, os.cpu_count() or 1)

SWEEPS = {
    # The paper's hardest regime: 40% jamming, arrivals at twice capacity.
    "overload": dict(scenario="worst_case", jam=0.4, margin=0.5, n=256, horizon=1 << 17,
                     seeds=4, generic_seeds=2, generic_horizon=1 << 12),
    # 256 nodes drain in a few thousand slots; the rest of 2^20 is quiet.
    "quiet_tail": dict(scenario="batch", jam=0.25, margin=4, n=256, horizon=1 << 20,
                       seeds=16, generic_seeds=2, generic_horizon=1 << 20),
}
STREAM_EVENTS = 5_000_000
WORKLOADS = ("evidence", "overload", "quiet_tail", "stream")

# Layers each workload exercises; per-layer metrics of the others are 0.
LAYERS = {
    "evidence": ("suite", "dist", "verify"),
    "overload": ("exp", "engine", "adversary"),
    "quiet_tail": ("exp", "engine", "adversary"),
    "stream": ("stream", "metrics"),
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def fingerprint(args, threads):
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    build_type = "unknown"
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    version = subprocess.run([CR, "version"], capture_output=True, text=True, check=True).stdout
    digest = next((l.split(":", 1)[1].split()[0] for l in version.splitlines()
                   if l.strip().startswith("source_digest:")), "unknown")
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "build_type": build_type,
            "threads": threads, "source_digest": digest, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def harness_args(args, work):
    common = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.workload == "evidence":
        # The claims are calibrated on the manifest's canonical seeds, so the
        # seed argument does not apply.
        return ["evidence", "--root", ".", "--work", work, "--threads", str(THREADS)] + common
    if args.workload == "stream":
        return ["stream", "--cr", CR, "--work", work, "--seed", str(args.seed),
                "--events", str(STREAM_EVENTS)] + common
    sweep = SWEEPS[args.workload]
    out = ["sweep", "--threads", str(THREADS), "--base_seed", str(args.seed * 1000)]
    for key, value in sweep.items():
        out += ["--" + key, str(value)]
    return out + common


def run_harness(argv):
    """Run the harness in its own process group and stop the whole group when
    it ends, so no forked cell or `cr stream` outlives it."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if stdout is None:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S}s", 1)
    return proc.returncode, stdout


def end_to_end(raw):
    s = raw["series"]
    return {
        "setup_s": stats.median(s["setup_s"]),
        "pass_s": stats.median(s["pass_s"]),
        "peak_rss_mb": stats.median(s["peak_rss_kb"]) / 1024,
    }


def per_layer(workload, raw):
    v, s = raw["values"], raw["series"]
    self_ns = stats.self_times(raw["spans"])
    out = {f"{layer}.self_ms": self_ns.get(layer, 0) / 1e6 for layer in LAYERS[workload]}
    if workload in SWEEPS:
        untraced = stats.median(s["pass_1_s"])
        runs = s["engine.run_ms"]
        engine_s = sum(runs) / 1e3
        tail_pct, tail_ms = stats.tail(runs)
        slots_per_run = stats.ratio(v["engine.slots"], len(runs))
        out.update({
            "engine.run_ms_p50": stats.median(runs),
            "engine.run_ms_tail": tail_ms,
            "engine.run_ms_tail_pct": tail_pct,
            "engine.runs": len(runs),
            "engine.slots_per_s": stats.ratio(v["engine.slots"], engine_s),
            "engine.sends_per_slot": stats.ratio(v["engine.sends"], v["engine.slots"]),
            "engine.success_per_send": stats.ratio(v["engine.successes"], v["engine.sends"]),
            "engine.active_slot_frac": stats.ratio(v["engine.active_slots"], v["engine.slots"]),
            "adversary.ns_per_slot": stats.median(s["adversary.ns_per_slot"]),
            "adversary.share": stats.ratio(
                stats.median(s["adversary.ns_per_slot"]) * slots_per_run / 1e6,
                stats.ratio(sum(runs), len(runs))),
            "exp.build_us": stats.median(s["exp.build_us"]),
            "exp.overhead_frac": 1 - stats.ratio(engine_s, sum(s["pass_traced_s"])),
            "exp.parallel_eff": stats.ratio(untraced, v["threads"] * v["pass_n_s"]),
        })
        out.update({k: x for k, x in v.items() if k.startswith("engine.") and k.endswith(".slots_per_s")})
    elif workload == "evidence":
        untraced = stats.median(s["pass_untraced_s"])
        out.update({k: x for k, x in v.items() if k.startswith("suite.")})
        out.update({
            "suite.warm_pass_s": stats.median(s["suite.warm_pass_s"]),
            "dist.hit_ratio": stats.ratio(v["dist.hits"], v["dist.cells"]),
            "dist.lookup_ms_p50": stats.median(s["dist.lookup_ms"]),
            "dist.store_ms_p50": stats.median(s["dist.store_ms"]),
            "dist.total_bytes": v["dist.total_bytes"],
            "verify.evaluate_ms": stats.median(s["verify.evaluate_ms"]),
            "verify.claims_passed": v["verify.claims_passed"],
        })
    else:
        untraced = stats.median(s["pass_untraced_s"])
        windows = s["metrics.window_us"]
        out.update({
            "stream.parse_ns_per_event": v["stream.parse_ns_per_event"],
            "stream.ring_full_frac": stats.ratio(v["stream.push_full"], v["stream.push_attempts"]),
            "stream.snapshot_us": stats.median(s["stream.snapshot_us"]),
            "stream.snapshot_bytes": v["stream.snapshot_bytes"],
            "stream.restore_us": stats.median(s["stream.restore_us"]),
            "stream.peak_live_nodes": v["stream.peak_live_nodes"],
            "metrics.bytes_per_window": stats.ratio(v["metrics.window_bytes"], v["metrics.windows"]),
            "metrics.window_us_p50": stats.median(windows),
            "metrics.window_us_p99": stats.percentile(windows, 99),
            "metrics.windows": v["metrics.windows"],
            "metrics.fold_ns_per_slot": v["metrics.fold_ns_per_slot"],
        })
    out["trace.overhead_frac"] = stats.ratio(stats.median(s["pass_traced_s"]) - untraced, untraced)
    return out


def report(declared, computed, workload):
    """Every declared metric, in declared order; 0 for layers the workload does not exercise."""
    metrics = {}
    for m in declared:
        name = stats.check_name(m["name"])
        if name in computed:
            value = computed[name]
        elif name.split(".")[0] not in LAYERS[workload]:
            value = 0.0
        elif re.fullmatch(r"(engine\.[^.]+\.slots_per_s|suite\.[^.]+_s)", name):
            log(f"{name}: no such engine or bench in this run, reported as 0")
            value = 0.0
        else:
            raise RuntimeError(f"{workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    for name in sorted(set(computed) - set(metrics)):
        log(f"measured but not declared in BENCHMARK.json, not reported: {name} = {computed[name]:.6g}")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        fail(f"run from the repository root; missing {', '.join(missing)}")
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    try:
        build()
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}", 1)

    work = os.path.join(".bench_build", f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        returncode, stdout = run_harness([HARNESS] + harness_args(args, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if returncode != 0:
        fail(f"harness exited {returncode}", 1)
    raw = json.loads(stdout.strip().splitlines()[-1])

    threads = int(raw["values"]["threads"])
    fp = fingerprint(args, threads)
    log("fingerprint " + json.dumps(fp, sort_keys=True))
    computed = per_layer(args.workload, raw) if args.trace else end_to_end(raw)
    metrics = report(declared, computed, args.workload)
    for name in ("pass_s", "setup_s"):
        if name in metrics:
            log(f"{name}: median of {len(raw['series'][name])} samples")
    failures = raw["failures"]
    for f in failures:
        log(f"check failed: {f}")
    result = {"correct": not failures, "attempted": raw["attempted"], "failed": len(failures),
              "metrics": metrics}

    os.makedirs(RESULTS_DIR, exist_ok=True)
    record = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        samples = {k: v for k, v in raw["series"].items() if len(v) <= 1000}
        json.dump({"fingerprint": fp, "result": result, "samples": samples}, f, indent=1, sort_keys=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
