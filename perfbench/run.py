#!/usr/bin/env python3
"""Aurora benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload write_cached --seed 1 --seconds 20 --trace 0

Run from the repository root. The script builds perfbench/ together with the
repository's src/ library (Release) into .bench_build/, then runs trials of
the workload, each in its own process, until --seconds have passed (at
least three trials). Every trial with one seed must give byte-identical
virtual-time results; every trial must pass its correctness checks.

Output: a table of every metric with its unit and sample count, then, as the
last line, one JSON object {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics (virtual-time ones from the
simulation, wall-clock ones as medians over the trials). --trace 1 alternates
untraced and traced trials and reports the per-layer metrics. NOTES.md
explains the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRIAL = BUILD / "perfbench_trial"

MIN_TRIALS = 3
# A run must end within 180 s; no trial starts past this point.
HARD_STOP_S = 140
TRIAL_TIMEOUT_S = 170

# End-to-end metrics (BENCHMARK.json "end_to_end"): name -> unit.
E2E_VIRTUAL = {
    "tps": "1/s",
    "txn_p50_us": "us",
    "txn_p99_us": "us",
    "recovery_ms": "ms",
}
E2E_WALL = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-statement latencies printed with the end-to-end table but reported in
# JSON only as per-layer metrics (NOTES.md says why): trial key -> (per-layer
# name, unit, sample family).
CLIENT = {
    "read_p50_us": ("client.read_us.p50", "us", "read"),
    "read_p99_us": ("client.read_us.p99", "us", "read"),
    "commit_p50_us": ("client.commit_us.p50", "us", "commit"),
    "commit_p99_us": ("client.commit_us.p99", "us", "commit"),
    "replica_lag_p99_us": ("replica.lag_us.p99", "us", "replica_lag"),
}
SAMPLES = {"txn_p50_us": "txn", "txn_p99_us": "txn"}

# Per-layer metrics (BENCHMARK.json "per_layer"): name -> unit.
LAYER_UNITS = {
    "engine.bufpool.hit_ratio": "ratio",
    "engine.bufpool.evictions": "count",
    "engine.stage.page_fetch_us.p50": "us",
    "engine.stage.page_fetch_us.p99": "us",
    "engine.stage.append_to_flush_us.p50": "us",
    "engine.stage.flush_to_first_ack_us.p50": "us",
    "engine.stage.first_ack_to_quorum_us.p50": "us",
    "engine.stage.first_ack_to_quorum_us.p99": "us",
    "engine.log.records_per_txn": "count/txn",
    "engine.log.bytes_per_txn": "B/txn",
    "engine.log.records_per_batch": "count/batch",
    "engine.lock.waits_per_ktxn": "1/ktxn",
    "engine.lock.deadlocks_per_ktxn": "1/ktxn",
    "engine.lock.timeouts_per_ktxn": "1/ktxn",
    "engine.cpu_util": "ratio",
    "engine.call_ns.get": "ns",
    "engine.call_ns.put": "ns",
    "engine.call_ns.commit": "ns",
    "client.read_us.p50": "us",
    "client.read_us.p99": "us",
    "client.commit_us.p50": "us",
    "client.commit_us.p99": "us",
    "replica.lag_us.p99": "us",
    "replica.mtrs_applied_per_s": "1/s",
    "replica.records_discarded_ratio": "ratio",
    "storage.hot_log_records": "count",
    "storage.coalesce_ratio": "ratio",
    "storage.page_cache.hit_ratio": "ratio",
    "storage.page_cache.partial_hit_ratio": "ratio",
    "storage.disk.bytes_per_user_byte": "B/B",
    "storage.disk.backlog_us.max": "us",
    "storage.gossip.fill_ratio": "ratio",
    "storage.segment.add_record_ns": "ns",
    "storage.segment.get_page_ns": "ns",
    "storage.wire.batch_encode_ns": "ns",
    "storage.wire.batch_decode_ns": "ns",
    "common.crc32c_ns_per_kb": "ns/KiB",
    "sim.events_per_txn": "count/txn",
    "sim.event_ns": "ns",
    "sim.loop.tombstones": "count",
    "sim.loop.heap_peak": "count",
    "net.msgs_per_txn": "count/txn",
    "net.bytes_per_txn": "B/txn",
    "metrics.snapshot_ns": "ns",
    "harness.unattributed_s": "s",
    "harness.trace_overhead_s": "s",
}
# Replayed per-call costs (ns) and the window counts they multiply.
ATTRIBUTED = {
    "storage.segment.add_record_ns": "records_ingested",
    "storage.wire.batch_encode_ns": "batches_encoded",
    "storage.wire.batch_decode_ns": "batches_decoded",
    "common.crc32c_ns_per_kb": "net_kb_checksummed",
    "storage.segment.get_page_ns": "page_reads_served",
}


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no Aurora sources in %s (run from the repository root)" % ROOT, 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log, "w") as out:
        for cmd in (configure, ["cmake", "--build", str(BUILD), "-j", jobs,
                                "--target", "perfbench_trial"]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed: " + " ".join(cmd))


def trial(workload, seed, traced, spans=None):
    cmd = [str(TRIAL), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", str(spans)]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=TRIAL_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        fail("trial %s crashed (exit %d): %s" % (" ".join(cmd), p.returncode,
                                                 p.stderr[-2000:]))
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values)


def spread(values):
    """Interquartile range over the median."""
    if len(values) < 2 or median(values) == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / median(values)


def repeatable(trial_result, keys):
    return json.dumps({k: trial_result[k] for k in keys}, sort_keys=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    traced = args.trace == 1
    spans = BUILD / "traces" / ("%s-seed%d.jsonl" % (args.workload, args.seed))
    if traced:
        spans.parent.mkdir(exist_ok=True)

    start = time.monotonic()
    plain, trace = [], []
    while True:
        t0 = time.monotonic()
        plain.append(trial(args.workload, args.seed, False))
        if traced:
            trace.append(trial(args.workload, args.seed, True,
                               spans if not trace else None))
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if len(plain) >= MIN_TRIALS and elapsed + took > args.seconds:
            break
        if elapsed + took > HARD_STOP_S:
            break

    # Correctness: every trial passed its checks, and every trial of this
    # seed reproduced the first one's virtual-time results exactly.
    problems = [t["error"] for t in plain + trace if not t["ok"]]
    same = ["attempted", "failed", "virt", "samples"]
    if len({repeatable(t, same) for t in plain + trace}) != 1:
        problems.append("virtual-time results differ between trials of one seed")
    if traced and len({repeatable(t, ["layer_virt", "counts"]) for t in trace}) != 1:
        problems.append("per-layer virtual results differ between traced trials")
    correct = not problems
    for t in plain + trace:
        if not t["ok"] and "recovery_ms" not in t["virt"]:
            fail("trial stopped before its results: " + t["error"])

    first = plain[0]
    wall = {k: [t["wall"][k] for t in plain] for k in E2E_WALL}
    print("workload %s  seed %d  trials %d%s" % (
        args.workload, args.seed, len(plain),
        "  (+%d traced)" % len(trace) if traced else ""))
    for problem in problems:
        print("INCORRECT: " + problem)
    for name, unit in E2E_VIRTUAL.items():
        n = first["samples"].get(SAMPLES.get(name, ""), None)
        print("  %-22s %14.4f %-6s%s" % (name, first["virt"][name], unit,
                                         "  n=%d" % n if n is not None else ""))
    for name, (_, unit, family) in CLIENT.items():
        print("  %-22s %14.4f %-6s  n=%d" % (name, first["virt"][name], unit,
                                             first["samples"][family]))
    for name, unit in E2E_WALL.items():
        v = wall[name]
        print("  %-22s %14.4f %-6s  median of %d, spread %.3f, min %.4f, max %.4f"
              % (name, median(v), unit, len(v), spread(v), min(v), max(v)))
    print("  %-22s %14.4f %-6s  (not gated: failed or still open at the close)"
          % ("error_rate", first["virt"]["error_rate"], "ratio"))
    print("  transactions begun in the window %d, failed %d, still open when"
          " it closed %d" % (first["attempted"], first["failed"],
                             first["virt"]["unfinished_at_close"]))

    if not traced:
        values = {k: first["virt"][k] for k in E2E_VIRTUAL}
        values.update({k: median(v) for k, v in wall.items()})
        units = dict(E2E_VIRTUAL, **E2E_WALL)
    else:
        values = dict(trace[0]["layer_virt"])
        for key, (name, _, _) in CLIENT.items():
            values[name] = first["virt"][key]
        for name in trace[0]["layer_wall"]:
            values[name] = median([t["layer_wall"][name] for t in trace])
        counts = trace[0]["counts"]
        plain_wall = median(wall["wall_s"])
        attributed = median([t["wall"]["engine_call_s"] for t in plain])
        attributed += sum(values[cost] * counts[n] for cost, n in ATTRIBUTED.items()) / 1e9
        values["harness.unattributed_s"] = plain_wall - attributed
        values["sim.event_ns"] = (plain_wall * 1e9 / counts["events"]
                                  if counts["events"] else 0)
        values["harness.trace_overhead_s"] = (
            median([t["wall"]["wall_s"] for t in trace]) - plain_wall)
        units = LAYER_UNITS

    missing = set(units) - set(values)
    if missing:
        fail("trial did not report " + ", ".join(sorted(missing)))
    if traced:
        for name, unit in units.items():
            print("  %-42s %16.4f %s" % (name, values[name], unit))
        print("  spans: %s" % spans.relative_to(ROOT))

    attempted = sum(t["attempted"] for t in plain)
    failed = sum(t["failed"] for t in plain)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    main()
