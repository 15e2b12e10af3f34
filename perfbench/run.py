#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result line.

    python3 perfbench/run.py --workload paper_batch --seed 0 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
driver (perfbench/driver.cc plus the engine library from src/) under
.bench_build/; later runs reuse that build. The driver writes its raw
measurements to .bench_build/perfbench-out/; this script reduces them to
the metrics named in BENCHMARK.json. Human-readable output goes to stderr;
the last line on stdout is the JSON result:

    {"correct": true, "attempted": 45, "failed": 0,
     "metrics": {"cpu_s": {"value": 1.84, "unit": "s"}, ...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
and writes a Chrome trace-event file (see perfbench/README.md).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_batch", "paper_stream", "fleet_small")
DRIVER_TIMEOUT_S = 170
# The clock each workload's sessions_per_s divides by. The single-threaded
# workloads use CPU time, which the host's other load leaves alone; the
# fleet's throughput is what its workers achieve in elapsed time.
THROUGHPUT_CLOCK = {"paper_batch": "cpu_s", "paper_stream": "cpu_s",
                    "fleet_small": "wall_s"}
MAX_BUILD_JOBS = 4


def nearest_rank(samples, p):
    """Nearest-rank percentile (p in (0, 100]) of a non-empty sample."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def supports(n, p, beyond=10):
    """A percentile is reported only with at least `beyond` samples past it."""
    return n > 0 and samples_beyond(n, p) >= beyond


def self_times(events):
    """Self seconds per span name from Chrome trace "X" events.

    Each event carries args.id and args.parent; a span's self time is its
    duration minus the part of it its children cover.
    """
    by_id = {e["args"]["id"]: e for e in events}
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    totals = {}
    for span_id, e in by_id.items():
        start, end = e["ts"], e["ts"] + e["dur"]
        covered = 0.0
        cursor = start
        for c in sorted(children.get(span_id, []), key=lambda c: c["ts"]):
            lo = max(c["ts"], cursor)
            hi = min(c["ts"] + c["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[e["name"]] = totals.get(e["name"], 0.0) + (e["dur"] - covered) * 1e-6
    return totals


def ratio_minus_one(num, den):
    return num / den - 1.0 if den > 0 else 0.0


def median_of(rounds, kind, key):
    values = [r[key] for r in rounds if r["kind"] == kind]
    return statistics.median(values) if values else 0.0


def round_percentile(rounds, p):
    """Median over rounds of each round's nearest-rank percentile.

    A run repeats its timed phase; taking the percentile per round and the
    median across rounds keeps one slow round from setting the result.
    """
    return statistics.median(nearest_rank(r["event_ms"], p) for r in rounds)


def event_samples(raw):
    return sum(len(r["event_ms"]) for r in raw["rounds"])


def end_to_end(raw, workload):
    """The end-to-end metrics of an untraced run, by name."""
    plain = [r for r in raw["rounds"] if r["kind"] == "plain"]
    clock = THROUGHPUT_CLOCK[workload]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "event_p50_ms": round_percentile(plain, 50),
        "event_p99_ms": round_percentile(plain, 99),
        "sessions_per_s": statistics.median(r["sessions"] / r[clock] for r in plain),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, names):
    """The per-layer metrics of a traced run, by name.

    A layer the workload never calls reads 0.
    """
    layers = dict(raw["layers"])
    unknown = sorted(set(layers) - set(names))
    if unknown:
        raise ValueError("driver emitted undeclared metrics: %s" % unknown)
    samples = raw["layer_samples_ms"]
    for name in ("streaming.advance", "streaming.slide"):
        values = samples.get(name + "_ms", [])
        layers[name + "_p99_ms"] = nearest_rank(values, 99) if values else 0.0
    rounds = raw["rounds"]
    layers["trace.overhead_frac"] = ratio_minus_one(
        median_of(rounds, "traced", "cpu_s"), median_of(rounds, "plain", "cpu_s"))
    layers["common.guard_overhead_frac"] = ratio_minus_one(
        median_of(rounds, "guarded", "chase_s"), median_of(rounds, "plain", "chase_s"))
    return {name: float(layers.get(name, 0.0)) for name in names}


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver.

    Returns (driver path, output directory), or None when the build fails.
    """
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    # Keep the compiler's temporary files inside the checkout too.
    tmp = target / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(MAX_BUILD_JOBS, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            return None
    return build_dir / "perfbench_driver", target / "perfbench-out"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    built = build()
    if built is None:
        return 1
    driver, out_dir = built
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = "%s-seed%d" % (args.workload, args.seed)
    raw_path = out_dir / ("raw-%s-trace%d.json" % (tag, args.trace))
    trace_path = out_dir / ("trace-%s.json" % tag)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path)]
    if args.trace:
        cmd += ["--trace-file", str(trace_path)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out after %ds" % DRIVER_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log("perfbench: driver exited with code %d" % proc.returncode)
        return 1
    with open(raw_path) as f:
        raw = json.load(f)

    attempted, failed = raw["attempted"], raw["failed"]
    for error in raw["errors"]:
        log("FAILED:", error)
    n_events = event_samples(raw)
    correct = failed == 0 and attempted > 0 and supports(n_events, 99)
    if not supports(n_events, 99):
        log("perfbench: %d event samples do not support a p99" % n_events)

    if args.trace:
        section = "per_layer"
        values = per_layer(raw, [m["name"] for m in spec[section]])
        with open(trace_path) as f:
            selfs = self_times(json.load(f)["traceEvents"])
        summary = out_dir / ("trace-%s.self.json" % tag)
        with open(summary, "w") as f:
            json.dump(selfs, f, indent=1, sort_keys=True)
        log("trace: %s (self times: %s)" % (trace_path, summary))
        for name, s in sorted(selfs.items(), key=lambda kv: -kv[1])[:12]:
            log("  self %-22s %10.4f s" % (name, s))
        log("trace overhead: %+.2f%%" % (100 * values["trace.overhead_frac"]))
    else:
        section = "end_to_end"
        values = end_to_end(raw, args.workload)
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(units):
        log("perfbench: metric names differ from BENCHMARK.json %s" % section)
        return 1

    log("%s seed=%d rounds=%d event_samples=%d attempted=%d failed=%d "
        "failed_frac=%.4g" % (args.workload, args.seed, len(raw["rounds"]),
                              n_events, attempted, failed, failed / max(attempted, 1)))
    log("  %-32s %14.6g s (elapsed, not a metric)" % (
        "wall_s", median_of(raw["rounds"], "plain", "wall_s")))
    for name, value in values.items():
        log("  %-32s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
