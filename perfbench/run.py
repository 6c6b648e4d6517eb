#!/usr/bin/env python3
"""Repo benchmark: host time, allocations and memory of the gtw simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the driver (perfbench/CMakeLists.txt, which compiles ../src) under
.bench_build/perfbench, or under $CARGO_TARGET_DIR/perfbench when that is
set, then runs the driver once per repetition, each in its own process,
until --seconds have been spent.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones; see README.md.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("national_hybrid", "wan_transport", "wan_traced", "fmri_pipeline")
MIN_REPS = 3           # per kind (untraced, traced) in a run
REP_TIMEOUT_S = 150    # one driver process; a run must end within 180 s
BUILD_TIMEOUT_S = 850  # first run in a fresh checkout

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "heap_allocs": "count",
}
COUNTS = {  # per-layer counts and ratios read from getters -> unit
    "des.events": "count",
    "des.pool_high_water": "count",
    "des.overflow_high_water": "count",
    "net.link.frames": "count",
    "net.link.bursts": "count",
    "net.link.drops": "count",
    "net.tcp.segments": "count",
    "net.tcp.retransmits": "count",
    "net.tcp.timeouts": "count",
    "net.tcp.goodput_ratio": "ratio",
    "meta.path.chunks": "count",
    "meta.path.chunk_resends": "count",
    "meta.path.stream_resets": "count",
    "meta.path.duplicate_chunks": "count",
    "meta.path.useful_ratio": "ratio",
    "flow.admitted": "count",
    "flow.dropped": "count",
    "fire.scans": "count",
    "obs.spans": "count",
    "obs.span_bytes": "B",
}
SELF_TIMES = (  # per-layer self times from the traced repetitions
    "des.step_self_s",
    "net.link.submit_s",
    "net.host.receive_s",
    "net.host.send_s",
    "scanner.acquire_s",
    "fire.process_scan_s",
    "testbed.build_s",
    "meta.wan_send_s",
    "obs.write_s",
)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    src = ROOT / "src" / "CMakeLists.txt"
    if not src.is_file():
        fail(f"simulator sources not found ({src}); run from a checkout")
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bdir = (base if base.is_absolute() else ROOT / base) / "perfbench"
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return bdir / "gtw_perfbench", bdir


def run_rep(binary, workload, seed, traced, spans_path):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--trace", str(spans_path)]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"driver exited with {done.returncode}: {' '.join(cmd)}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"driver printed nothing: {' '.join(cmd)}")
    return json.loads(lines[-1])


def median_rep(reps, key):
    """The repetition holding the (lower) median of `key`."""
    ordered = sorted(reps, key=lambda r: r[key])
    return ordered[(len(ordered) - 1) // 2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    seed = args.seed % (1 << 64)

    binary, bdir = build()
    spans_path = bdir / f"spans-{args.workload}.bin"

    # Untraced and traced repetitions alternate under --trace 1; a run
    # stops before a repetition that would overrun --seconds.
    kinds = (False, True) if args.trace else (False,)
    reps = {k: [] for k in kinds}
    start = time.monotonic()
    while True:
        for traced in kinds:
            reps[traced].append(run_rep(binary, args.workload, seed, traced,
                                        spans_path))
        elapsed = time.monotonic() - start
        n = len(reps[False])
        if n >= MIN_REPS and elapsed + elapsed / n > args.seconds:
            break

    every = [r for k in kinds for r in reps[k]]
    problems = [f for r in every for f in r["failures"]]
    # Exact figures must repeat bit for bit, traced or not: the span
    # recorder allocates outside operator new and schedules nothing.
    for key in ("stream_hash", "events", "heap_allocs"):
        if len({r[key] for r in every}) != 1:
            problems.append(f"{key} differs between repetitions of one seed")

    untraced = reps[False]
    first = untraced[0]
    for i, r in enumerate(every):
        print(f"rep {i}: traced={r['traced']} wall_s={r['wall_s']:.4f} "
              f"setup_s={r['setup_s']:.4f} heap_allocs={r['heap_allocs']:.0f} "
              f"failed_ops={r['failed_ops']:.0f}")
    print(f"{args.workload} seed {seed}: stream_hash {first['stream_hash']}, "
          f"{first['events']:.0f} events, figures {json.dumps(first['figures'])}")

    metrics = {}
    if not args.trace:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(r[name] for r in untraced),
                             "unit": unit}
    else:
        wall = statistics.median(r["wall_s"] for r in untraced)
        t = median_rep(reps[True], "wall_s")
        layer = t["layer"]
        for name, unit in COUNTS.items():
            metrics[name] = {"value": first["layer"].get(name, 0.0), "unit": unit}
        metrics["des.events_per_s"] = {"value": first["events"] / wall,
                                       "unit": "1/s"}
        metrics["des.allocs_per_event"] = {
            "value": first["heap_allocs"] / first["events"], "unit": "count"}
        metrics["obs.allocs_per_event"] = {
            "value": layer.get("obs.allocs_per_event", 0.0), "unit": "count"}
        for name in SELF_TIMES:
            metrics[name] = {"value": layer[name], "unit": "s"}
        metrics["bench.unattributed_s"] = {"value": layer["bench.unattributed_s"],
                                           "unit": "s"}
        metrics["bench.trace_overhead_pct"] = {
            "value": 100.0 * (t["wall_s"] / wall - 1.0), "unit": "%"}
        # Timed-phase self times plus the unattributed rest must add up to
        # the traced wall time (integer nanoseconds inside the driver).
        gap = abs(layer["bench.timed_self_sum_s"] + layer["bench.unattributed_s"]
                  - layer["bench.traced_wall_s"])
        print(f"attribution: timed self {layer['bench.timed_self_sum_s']:.6f} s"
              f" + unattributed {layer['bench.unattributed_s']:.6f} s"
              f" = traced wall {layer['bench.traced_wall_s']:.6f} s"
              f" ({layer['bench.spans']:.0f} spans)")
        if gap > 1e-6:
            problems.append(f"self times miss the traced wall by {gap} s")

    for p in problems:
        print(f"FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(sum(r["ops"] for r in every)),
        "failed": int(sum(r["failed_ops"] for r in every)),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
