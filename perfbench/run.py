#!/usr/bin/env python3
"""End-to-end benchmark of the DLB simulator, one workload per invocation.

    python3 perfbench/run.py --workload paper_sweep --seed 1000 --seconds 10 --trace 0

Builds perfbench_driver (perfbench/CMakeLists.txt) from the checkout's own
sources into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the workload in one driver process, checks its CSV, and prints every
metric by name and unit.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced driver with --trace 1.

--seed is the grids' seed0.  At the default seed (1000, dlb_sweep's default)
the CSV must match the committed golden digests line for line; at any other
seed it must match itself across pool widths 1 and 4.  Every run also checks
that each repetition reproduces the first byte for byte and that each batch
loop executed every iteration.  --write-golden records the golden of a
workload from a width-1 run at the default seed.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

DEFAULT_SEED = 1000
BUILD_TIMEOUT_S = 850
DRIVER_TIMEOUT_S = 170
# Self times must add up to the traced wall time within this share of it.
SELF_TIME_TOLERANCE = 0.005
# Seconds of one full speed probe on the reference host (README.md).
# setup_s is expressed at this probe speed.
REFERENCE_PROBE_S = 0.125

# Each workload: the pool width it is measured at and its grids as dlb_sweep
# flags (the seed0 flag is appended per run).  README.md says why each was
# chosen and which layers it stresses.
WORKLOADS = {
    "paper_sweep": {
        "width": 1,
        "grids": [["--figure=%d" % f, "--seeds=5"] for f in (5, 6, 7, 8)],
    },
    "fault_obs": {
        "width": 1,
        "grids": [["--figure=%d" % f, "--seeds=10", "--faults=crash-loss", "--metrics"]
                  for f in (5, 7)],
    },
    "switched_scale": {
        "width": 4,
        "grids": [
            ["--figure=scale", "--topology=switched", "--strategies=nodlb",
             "--procs=16384,65536", "--shards=4"],
            ["--figure=scale", "--topology=switched", "--strategies=lc", "--procs=256"],
        ],
    },
    "service_stream": {
        "width": 1,
        "grids": [
            ["--figure=service", "--arrivals=poisson,bursty", "--rate=0.5,0.9",
             "--strategies=gc,gd,lc,ld,online", "--jobs=250000"],
            ["--figure=service", "--arrivals=poisson", "--rate=0.9", "--strategies=gd,online",
             "--jobs=500", "--service-backend=sim"],
        ],
    },
}

END_TO_END = [
    ("wall_probe", "probe"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("exp.parse_s", "s"),
    ("exp.pool.speedup", "ratio"),
    ("exp.report.write_s", "s"),
    ("exp.report.bytes", "bytes"),
    ("exp.self_s", "s"),
    ("cluster.build_s", "s"),
    ("cluster.build_us_per_proc", "us"),
    ("cluster.self_s", "s"),
    ("core.run_s", "s"),
    ("core.syncs", "count"),
    ("core.redistributions", "count"),
    ("core.redistribute_ratio", "ratio"),
    ("core.self_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.peak_queue_depth", "count"),
    ("sim.shard.speedup_bound", "ratio"),
    ("sim.arena.slabs", "count"),
    ("sim.arena.reuse_ratio", "ratio"),
    ("net.messages", "count"),
    ("net.bytes", "bytes"),
    ("net.characterize_s", "s"),
    ("net.self_s", "s"),
    ("fault.retries", "count"),
    ("fault.dropped_frames", "count"),
    ("fault.recoveries", "count"),
    ("fault.retry_ratio", "ratio"),
    ("obs.phases", "count"),
    ("obs.frames_recorded", "count"),
    ("obs.overhead_ratio", "ratio"),
    ("model.table_s", "s"),
    ("model.table_entries", "count"),
    ("model.self_s", "s"),
    ("decision.switches", "count"),
    ("decision.switch_rate", "ratio"),
    ("svc.model.ns_per_job", "ns"),
    ("svc.sim.us_per_job", "us"),
    ("svc.sim.messages", "count"),
    ("svc.self_s", "s"),
    ("driver.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_coverage", "ratio"),
]

# Counters that depend on the driver thread's allocation history rather
# than on the workload; every other counter must repeat exactly.
HISTORY_COUNTERS = {"sim.arena.fresh", "sim.arena.reused", "sim.arena.slabs"}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(bdir):
    if not (ROOT / "src" / "exp" / "grid.hpp").is_file():
        raise BenchError("no simulator sources under %s" % (ROOT / "src"))
    bdir.mkdir(parents=True, exist_ok=True)
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "--target", "perfbench_driver", "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return bdir / "perfbench_driver"


def run_driver(exe, workload, seed, seconds, trace, rundir, width, check_width=0):
    spec = WORKLOADS[workload]
    stem = "%s-%d-%s" % (workload, seed, "trace" if trace else "measure")
    paths = {k: rundir / ("%s.%s" % (stem, k)) for k in ("json", "csv", "spans")}
    cmd = [str(exe), "--mode=" + ("trace" if trace else "measure"),
           "--width=%d" % width, "--seconds=%s" % seconds,
           "--out=%s" % paths["json"], "--csv=%s" % paths["csv"]]
    if trace:
        cmd.append("--spans=%s" % paths["spans"])
    if check_width:
        cmd.append("--check-width=%d" % check_width)
    for grid in spec["grids"]:
        cmd += ["--grid", *grid, "--seed0=%d" % seed]
    subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=DRIVER_TIMEOUT_S)
    with open(paths["json"], encoding="utf-8") as f:
        result = json.load(f)
    result["csv_text"] = paths["csv"].read_text(encoding="utf-8")
    if trace:
        with open(paths["spans"], encoding="utf-8") as f:
            result["spans"] = json.load(f)["spans"]
    return result


def golden_path(workload):
    return HERE / "golden" / ("%s.txt" % workload)


def golden_mismatches(workload, seed, csv_text):
    """Failed lines of the first repetition against the golden digests; 0
    (nothing to compare) at a non-default seed."""
    if seed != DEFAULT_SEED:
        return 0
    path = golden_path(workload)
    if not path.is_file():
        raise BenchError("missing golden %s" % path)
    return benchlib.mismatched_digests(benchlib.csv_digests(csv_text), benchlib.read_golden(path))


def all_reps(result):
    reps = [result["warmup"]] + result["reps"] + result.get("traced", [])
    return reps + ([result["check"]] if "check" in result else [])


def end_to_end_metrics(result):
    reps = result["reps"]
    metrics = {
        "wall_probe": statistics.median(r["wall_s"] / r["probe_s"] for r in reps),
        "setup_s": REFERENCE_PROBE_S * statistics.median(
            s / p for s, p in zip(result["setup_s"], result["setup_probe_s"])),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    cell_ms = [s * 1e3 for r in reps for s in r["cell_s"]]
    p50 = benchlib.percentile_nearest_rank(cell_ms, 0.50)
    p90 = benchlib.percentile_nearest_rank(cell_ms, 0.90)
    notes = [
        "repetitions: %d timed + 1 warm-up" % len(reps),
        "wall_s: %.6f s (median repetition; probe median %.6f s)"
        % (statistics.median(r["wall_s"] for r in reps),
           statistics.median(r["probe_s"] for r in reps)),
        "setup raw: %.6f s (median pass; probe median %.6f s)"
        % (statistics.median(result["setup_s"]), statistics.median(result["setup_probe_s"])),
    ]
    # A percentile is reported only with at least ten samples beyond it.
    if p90[2] >= 10:
        notes.append("cell_p50_ms: %.4f ms, cell_p90_ms: %.4f ms (%d cells, %d beyond p90)"
                     % (p50[0], p90[0], p90[1], p90[2]))
    else:
        notes.append("cell_p50_ms: %.4f ms (%d cells); cell_p90_ms: n/a, %d beyond p90"
                     % (p50[0], p50[1], p90[2]))
    notes.append("exp.pool.speedup: %.3f" % statistics.median(
        benchlib.safe_ratio(r["cell_wall_sum"], r["pool_wall"]) for r in reps))
    model_s = sum(r["model_s"] for r in reps)
    sim_s = sum(r["sim_s"] for r in reps)
    if model_s:
        notes.append("model_jobs_per_s: %.1f jobs/s"
                     % (sum(r["model_jobs"] for r in reps) / model_s))
    if sim_s:
        notes.append("sim_jobs_per_s: %.1f jobs/s" % (sum(r["sim_jobs"] for r in reps) / sim_s))
    return metrics, notes


def per_layer_metrics(result):
    """Per-layer metrics of a traced run: span timings as medians over the
    traced repetitions, counters from the last one (they must repeat), and
    the self-time check.  Returns (metrics, notes, problems)."""
    spans = result["spans"]
    selfs = benchlib.self_times(spans)
    trees = benchlib.split_roots(spans)
    traced = result["traced"]
    if len(trees) != len(traced):
        raise BenchError("%d span trees for %d traced repetitions" % (len(trees), len(traced)))
    problems = []
    totals, layers = [], []
    for tree, rep in zip(trees, traced):
        layer = benchlib.layer_self_times(spans, tree, selfs)
        # The repetition's wall time is timed apart from its spans, so a
        # span tree that misses part of the repetition fails the check.
        wall_s = rep["wall_s"]
        if abs(sum(layer.values()) - wall_s) > SELF_TIME_TOLERANCE * wall_s:
            problems.append("self-time check FAILED: self times sum to %.6f s, traced wall %.6f s"
                            % (sum(layer.values()), wall_s))
        totals.append(benchlib.span_totals(spans, tree))
        layers.append(layer)
    self_ok = not problems

    def med(get):
        return statistics.median(get(i) for i in range(len(traced)))

    def span_s(name):
        return med(lambda i: totals[i].get(name, 0.0))

    def self_s(layer):
        return med(lambda i: layers[i].get(layer, 0.0))

    counters = result["counters"]
    k = counters[-1]
    for other in counters[:-1]:
        moved = sorted(n for n in set(k) | set(other)
                       if n not in HISTORY_COUNTERS and k.get(n) != other.get(n))
        if moved:
            problems.append("counters differ between traced repetitions: " + ", ".join(moved))
            break
    c = lambda name: k.get(name, 0.0)  # noqa: E731
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in result["reps"])
    core_run_s = span_s("core.run")
    values = {
        "exp.parse_s": span_s("exp.parse"),
        "exp.pool.speedup": statistics.median(
            benchlib.safe_ratio(r["cell_wall_sum"], r["pool_wall"]) for r in result["reps"]),
        "exp.report.write_s": span_s("exp.report.write"),
        "exp.report.bytes": c("exp.report.bytes"),
        "cluster.build_s": span_s("cluster.build"),
        "cluster.build_us_per_proc": benchlib.safe_ratio(span_s("cluster.build") * 1e6,
                                                         c("cluster.procs")),
        "core.run_s": core_run_s,
        "core.syncs": c("core.syncs"),
        "core.redistributions": c("core.redistributions"),
        "core.redistribute_ratio": benchlib.safe_ratio(c("core.redistributions"),
                                                       c("core.syncs")),
        "sim.events": c("sim.events"),
        "sim.ns_per_event": benchlib.safe_ratio(core_run_s * 1e9, c("sim.events")),
        "sim.peak_queue_depth": c("sim.peak_queue_depth"),
        # 1 when no cell shards: an unsharded engine has no parallel slack.
        "sim.shard.speedup_bound": benchlib.safe_ratio(c("sim.shard.events"),
                                                       c("sim.shard.busiest_events")) or 1.0,
        "sim.arena.slabs": c("sim.arena.slabs"),
        "sim.arena.reuse_ratio": benchlib.safe_ratio(
            c("sim.arena.reused"), c("sim.arena.reused") + c("sim.arena.fresh")),
        "net.messages": c("net.messages"),
        "net.bytes": c("net.bytes"),
        "net.characterize_s": span_s("net.characterize"),
        "fault.retries": c("fault.retries"),
        "fault.dropped_frames": c("fault.dropped_frames"),
        "fault.recoveries": c("fault.recoveries"),
        "fault.retry_ratio": benchlib.safe_ratio(c("fault.retries"), c("net.messages")),
        "obs.phases": c("obs.phases"),
        "obs.frames_recorded": c("obs.frames_recorded"),
        "obs.overhead_ratio": benchlib.safe_ratio(result["obs_armed_s"],
                                                  result["obs_disarmed_s"]),
        "model.table_s": span_s("model.table"),
        "model.table_entries": c("model.table_entries"),
        "decision.switches": c("decision.switches"),
        "decision.switch_rate": benchlib.safe_ratio(c("decision.switches"),
                                                    c("decision.online_jobs")),
        "svc.model.ns_per_job": benchlib.safe_ratio(span_s("svc.model.run") * 1e9,
                                                    c("svc.model.jobs")),
        "svc.sim.us_per_job": benchlib.safe_ratio(span_s("svc.sim.run") * 1e6,
                                                  c("svc.sim.jobs")),
        "svc.sim.messages": c("svc.sim.messages"),
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": benchlib.safe_ratio(traced_wall, untraced_wall),
        "trace.self_coverage": benchlib.safe_ratio(traced_wall - self_s("driver"), traced_wall),
    }
    for layer in ("exp", "cluster", "core", "net", "model", "svc", "driver"):
        values[layer + ".self_s"] = self_s(layer)
    notes = [
        "traced repetitions: %d, untraced: %d (untraced wall_s %.6f s)"
        % (len(traced), len(result["reps"]), untraced_wall),
        "self-time check: layer self times sum to the traced wall within %.1f%%: %s"
        % (SELF_TIME_TOLERANCE * 100, "ok" if self_ok else "FAILED"),
    ]
    return {name: values[name] for name, _ in PER_LAYER}, notes, problems


def write_golden(exe, workload, rundir):
    width = 1
    result = run_driver(exe, workload, DEFAULT_SEED, 0, False, rundir, width)
    failed = sum(r["failed"] for r in all_reps(result))
    if failed:
        raise BenchError("refusing to record a golden from a run with %d failed cells" % failed)
    path = golden_path(workload)
    path.parent.mkdir(exist_ok=True)
    benchlib.write_golden(path, result["csv_text"],
                          "perfbench golden: workload=%s seed=%d width=%d lines=%d"
                          % (workload, DEFAULT_SEED, width,
                             len(benchlib.csv_digests(result["csv_text"]))))
    log("wrote %s" % path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    bdir = build_dir()
    exe = build(bdir)
    rundir = bdir / "runs"
    rundir.mkdir(exist_ok=True)
    if args.write_golden:
        write_golden(exe, args.workload, rundir)
        return 0

    width = WORKLOADS[args.workload]["width"]
    check_width = 0 if args.seed == DEFAULT_SEED or args.trace else (4 if width == 1 else 1)
    before = benchlib.cpu_times()
    result = run_driver(exe, args.workload, args.seed, args.seconds, args.trace, rundir, width,
                        check_width)
    host = benchlib.host_context(before, benchlib.cpu_times())

    reps = all_reps(result)
    golden_bad = golden_mismatches(args.workload, args.seed, result["csv_text"])
    attempted = sum(r["cells"] for r in reps)
    # Every repetition is compared with the first, so a golden mismatch of
    # the first is a failed cell of every repetition.
    failed = sum(r["failed"] for r in reps) + golden_bad * len(reps)
    if args.trace:
        metrics, notes, problems = per_layer_metrics(result)
        units = dict(PER_LAYER)
    else:
        metrics, notes = end_to_end_metrics(result)
        problems = []
        units = dict(END_TO_END)
    if args.seed == DEFAULT_SEED:
        check = "golden digests (%d lines mismatched)" % golden_bad
    elif check_width:
        check = "width %d vs %d byte-identity (%s)" % (
            width, check_width, "failed" if result["check"]["failed"] else "ok")
    else:
        check = "repetitions byte-identical to the first"
    notes += [
        "failed_frac: %.6f (%d of %d cells)" % (benchlib.safe_ratio(failed, attempted), failed,
                                                attempted),
        "output check: " + check,
        "host: nproc=%s cpu=%r loadavg=%s steal=%.3f s (%.2f%% of ticks)"
        % (host["nproc"], host["cpu_model"], ",".join("%.2f" % x for x in host["loadavg"]),
           host["steal_s"], host["steal_frac"] * 100),
    ]
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for name, value in metrics.items():
        print("  %-28s %.6g %s" % (name, value, units[name]))
    for line in notes + problems:
        print("  " + line)
    out = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(rundir / ("%s-%d-%d.summary.json" % (args.workload, args.seed, args.trace)), "w",
              encoding="utf-8") as f:
        json.dump(dict(out, host=host, notes=notes + problems), f, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
