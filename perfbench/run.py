#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from this source tree, runs one
workload, checks every answer, and prints the metrics BENCHMARK.json names.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics.
The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Everything else (build output, the human-readable report) goes before it or
to standard error. Build tree, store files, full reports and Chrome traces
live under $CARGO_TARGET_DIR (default .bench_build) of the current directory.
See perfbench/README.md for the workloads and the metric -> layer map.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KEY_BYTES = 8
VALUE_BYTES = 256
RUN_TIMEOUT_S = 170
STALL_REASONS = ["memtable_full", "l0_stop", "l0_slowdown", "rate_limited"]


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(targets):
    """Configures (once) and builds the benchmark in Release mode."""
    bdir = build_root() / "perfbench"
    cache = bdir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(bdir)  # a build tree of another checkout
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target", *targets])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                die(f"build failed (log: {log})")
    return bdir


def host_facts(build_facts):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "kernel": platform.release(),
        **build_facts,
    }
    flags = []
    if not build_facts.get("optimized"):
        flags.append("unoptimized build")
    if build_facts.get("assertions"):
        flags.append("assertions enabled")
    if build_facts.get("sanitizer", "none") != "none":
        flags.append(f"{build_facts['sanitizer']} sanitizer build")
    facts["flags"] = flags
    return facts


def engine_doc(stats):
    """The engine-wide block of clsm.stats.json (the rollup when sharded)."""
    return stats.get("rollup", stats)


def table_bytes_written(stats):
    doc = engine_doc(stats)
    return doc["flush"]["bytes_written"] + sum(l["bytes_written"] for l in doc["levels"])


def counter_delta(phase, name):
    a = engine_doc(phase["stats_begin"])["counters"][name]
    b = engine_doc(phase["stats_end"])["counters"][name]
    return b - a


def ratio(num, den):
    return num / den if den else 0.0


def ops_per_s(phase):
    return phase["all"]["count"] / phase["elapsed_s"]


def end_to_end(raw):
    """Metrics of the untraced phase, as a user of the store sees them."""
    phase = raw["phases"][0]
    user_bytes = phase["user_writes"] * (KEY_BYTES + VALUE_BYTES)
    rewritten = (table_bytes_written(phase["stats_end"]) - table_bytes_written(phase["stats_begin"])
                 + table_bytes_written(phase["stats_reopen"]))
    samples = phase["samples"]
    space = [ratio(t, n * (KEY_BYTES + VALUE_BYTES))
             for t, n in zip(samples["table_bytes"], samples["live_keys"])]
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "ops_per_s": (ops_per_s(phase), "1/s"),
        "op_p50_us": (phase["all"]["p50_us"], "us"),
        "write_amp": (ratio(rewritten, user_bytes), "ratio"),
        "space_amp": (statistics.mean(space), "ratio"),
        "rss_mb": (statistics.mean(samples["rss_kib"]) / 1024.0, "MB"),
    }


def per_layer(raw):
    """Metrics of single layers, from the traced phase's spans, PerfContext
    sums, listener totals and stats surfaces."""
    plain, traced = raw["phases"][0], raw["phases"][1]
    p, bg, spans = traced["perf"], traced["background"], traced["spans"]
    ops = traced["ops"]
    puts, gets = p["puts"], p["gets"]
    members = traced["stats_end"].get("shard_count", 1)  # one flusher and compactor each
    busy_us = traced["elapsed_s"] * 1e6 * members
    stall = {r: bg["stall_micros"][r] / 1000.0 for r in STALL_REASONS}

    def span_mean(name):
        s = spans.get(name)
        return ratio(s["sum_ns"], s["count"]) if s else 0.0

    def op_mean_us(name):
        return ops[name]["mean_us"] if name in ops else 0.0

    rpc = traced["stats_end"].get("rpc")
    rpc_get_us = rpc["latency_us"]["get"]["avg"] if rpc else 0.0
    engine_get_us = engine_doc(traced["stats_end"])["latency_us"]["get"].get("avg", 0.0)
    phase_sum = (p["put_throttle_ns"] + p["put_lock_getts_ns"] + p["put_mem_insert_ns"]
                 + p["put_wal_append_ns"])
    m = {
        "core.put.span_ns": (ratio(p["put_span_ns"], puts), "ns"),
        "core.put.phase_coverage": (ratio(phase_sum, p["put_span_ns"]), "ratio"),
        "core.put.throttle_ns": (ratio(p["put_throttle_ns"], puts), "ns"),
        "sync.put.lock_getts_ns": (ratio(p["put_lock_getts_ns"], puts), "ns"),
        "sync.put.shared_lock_wait_ns": (ratio(p["put_shared_lock_wait_ns"], puts), "ns"),
        "sync.getts_rollbacks_per_write": (ratio(counter_delta(traced, "getts_rollbacks"),
                                                 counter_delta(traced, "puts_total")
                                                 + counter_delta(traced, "rmw_total")), "ratio"),
        "skiplist.put.mem_insert_ns": (ratio(p["put_mem_insert_ns"], puts), "ns"),
        "wal.put.append_ns": (ratio(p["put_wal_append_ns"], puts), "ns"),
        "lsm.stall_ms": (sum(stall.values()), "ms"),
        **{f"lsm.stall_ms.{r}": (stall[r], "ms") for r in STALL_REASONS},
        "lsm.flush_mb_per_s": (ratio(bg["flush_bytes"], bg["flush_micros"]), "MB/s"),
        "lsm.flush_busy_frac": (ratio(bg["flush_micros"], busy_us), "ratio"),
        "lsm.compaction_mb_per_s": (ratio(bg["compaction_bytes"], bg["compaction_micros"]), "MB/s"),
        "lsm.compaction_busy_frac": (ratio(bg["compaction_micros"], busy_us), "ratio"),
        "lsm.get.disk_search_ns": (ratio(p["get_disk_search_ns"], gets), "ns"),
        "lsm.gets_from_disk_ratio": (ratio(counter_delta(traced, "gets_from_disk"),
                                           counter_delta(traced, "gets_total")), "ratio"),
        "lsm.table_probes_per_get": (ratio(p["get_table_probes"], gets), "count"),
        "table.block_reads_per_get": (ratio(p["get_block_reads"], gets), "count"),
        "table.block_cache_hit_ratio": (ratio(p["get_cache_hits"],
                                              p["get_cache_hits"] + p["get_block_reads"]), "ratio"),
        "table.bloom_skips_per_get": (ratio(p["get_bloom_skips"], gets), "count"),
        "skiplist.get.mem_search_ns": (ratio(p["get_mem_search_ns"], gets), "ns"),
        "skiplist.nodes_per_get": (ratio(p["get_skiplist_nodes"], gets), "count"),
        "skiplist.rmw_conflicts_per_rmw": (ratio(counter_delta(traced, "rmw_conflicts"),
                                                 counter_delta(traced, "rmw_total")), "ratio"),
        "core.scan.open_us": (span_mean("scan.open") / 1000.0, "us"),
        "core.scan.next_ns": (span_mean("scan.next"), "ns"),
        "server.ping_rtt_us": (op_mean_us("ping"), "us"),
        "server.client_minus_rpc_us": (op_mean_us("get") - rpc_get_us if rpc else 0.0, "us"),
        "shard.rpc_minus_engine_us": (rpc_get_us - engine_get_us if rpc else 0.0, "us"),
        "server.codec_ns_per_frame": (traced.get("extras", {}).get("codec_ns_per_frame", 0.0), "ns"),
        "obs.trace_overhead_frac": (1.0 - ratio(ops_per_s(traced), ops_per_s(plain)), "ratio"),
    }
    return m


def outcome(raw):
    attempted = failed = 0
    for phase in raw["phases"]:
        attempted += phase["attempted"] + phase["audit"]["checked"]
        failed += (phase["failed"] + phase["wrong"] + phase["audit"]["failed"]
                   + phase["audit"]["wrong"])
    return attempted, failed


def print_report(raw, facts, metrics):
    print(f"workload {raw['workload']}  seed {raw['seed']}  seconds {raw['seconds']}  "
          f"trace {int(raw['trace'])}")
    print("host " + json.dumps(facts))
    for flag in facts["flags"]:
        print(f"WARNING: result from a build with {flag}; not comparable")
    for phase in raw["phases"]:
        kind = "traced" if phase["traced"] else "untraced"
        print(f"{kind} phase: {phase['attempted']} ops in {phase['elapsed_s']:.2f} s, "
              f"{phase['failed']} failed, {phase['wrong']} wrong; closing checks "
              f"(audit after reopen, codec frames): {phase['audit']['checked']}, "
              f"{phase['audit']['failed'] + phase['audit']['wrong']} wrong")
        for op, h in sorted(phase["ops"].items()):
            print(f"  {op:6s} n={h['count']:<9d} p50={h['p50_us']:.2f} us  "
                  f"p99={h['p99_us']:.1f} us  p999={h['p999_us']:.1f} us  "
                  f"mean={h['mean_us']:.2f} us")
        for err in phase["errors"]:
            print(f"  error: {err}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")


def run_once(workload, seed, seconds, trace):
    bdir = build(["perfbench"])
    root = build_root()
    data = root / "data" / workload
    results = root / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    cmd = [str(bdir / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--dir", str(data)]
    if trace:
        cmd += ["--trace-file", str(results / f"trace-{tag}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"perfbench exited with {proc.returncode}")
    raw = json.loads(proc.stdout)
    facts = host_facts(raw["build"])
    metrics = per_layer(raw) if trace else end_to_end(raw)
    attempted, failed = outcome(raw)
    (results / f"{tag}.json").write_text(json.dumps(
        {"host": facts, "metrics": metrics, "attempted": attempted, "failed": failed,
         "raw": raw}, indent=1))
    return raw, facts, metrics, attempted, failed


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(metrics, attempted, failed, trace):
    declared = declared_metrics(trace)
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        die(f"metrics do not match BENCHMARK.json: {sorted(set(produced) ^ set(declared))} "
            "or units differ")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def selftest():
    """The checkers flag every kind of wrong answer, and a short run of every
    workload prints every declared metric with its unit and fails nothing."""
    bdir = build(["perfbench_checks_test"])
    if subprocess.run([str(bdir / "perfbench_checks_test")]).returncode != 0:
        die("checker self-test failed")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            _, _, metrics, attempted, failed = run_once(w["name"], 1, 1, trace)
            line = result_line(metrics, attempted, failed, trace)
            if not line["correct"]:
                die(f"{w['name']} trace {trace}: {failed} of {attempted} operations failed")
            print(f"{w['name']} trace {trace}: {len(metrics)} metrics, {attempted} ops checked")
    print("perfbench self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        die(f"no engine sources next to the benchmark ({ROOT / 'src'} is missing)", 2)
    if args.selftest:
        selftest()
        return
    if not args.workload:
        die("--workload is required", 2)
    started = time.monotonic()
    raw, facts, metrics, attempted, failed = run_once(args.workload, args.seed, args.seconds,
                                                      args.trace)
    print_report(raw, facts, metrics)
    print(f"wall {time.monotonic() - started:.1f} s")
    print(json.dumps(result_line(metrics, attempted, failed, args.trace)))


if __name__ == "__main__":
    main()
