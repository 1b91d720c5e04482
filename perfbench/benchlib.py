"""Pure helpers of the benchmark: percentiles, span self times, CSV digests,
run-to-run spread and host context.  run.py and spread.py import this; the
tests in tests/test_benchlib.py cover it."""

import hashlib
import math
import os
import statistics
from collections import defaultdict


def percentile_nearest_rank(values, q):
    """Nearest-rank percentile: the sample at ascending rank ceil(q * n).

    Returns (value, n, beyond): the percentile, the sample count, and how many
    samples lie above the percentile's rank.  q is in (0, 1]."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    n = len(values)
    # round() first so 0.9 * 100 cannot become rank 91 through float error.
    rank = max(1, math.ceil(round(q * n, 9)))
    return sorted(values)[rank - 1], n, n - rank


def layer_of(span_name):
    """Layer a span belongs to: its name up to the first dot."""
    return span_name.split(".", 1)[0]


def _covered(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover.  Spans are dicts with name, start, end and
    parent (an index into `spans`, -1 for a root)."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        clipped = [(max(spans[c]["start"], span["start"]), min(spans[c]["end"], span["end"]))
                   for c in children[i]]
        clipped = [(a, b) for a, b in clipped if b > a]
        out.append(span["end"] - span["start"] - _covered(clipped))
    return out


def split_roots(spans):
    """Index lists of each root span's subtree, in recording order.  Spans of
    one root are contiguous because the driver records them depth-first."""
    trees = []
    for i, span in enumerate(spans):
        if span["parent"] < 0:
            trees.append([])
        if not trees:
            raise ValueError("span %d precedes every root" % i)
        trees[-1].append(i)
    return trees


def layer_self_times(spans, indexes, selfs):
    """Self time summed per layer over the spans at `indexes`."""
    out = defaultdict(float)
    for i in indexes:
        out[layer_of(spans[i]["name"])] += selfs[i]
    return dict(out)


def span_totals(spans, indexes):
    """Duration summed per span name over the spans at `indexes`."""
    out = defaultdict(float)
    for i in indexes:
        out[spans[i]["name"]] += spans[i]["end"] - spans[i]["start"]
    return dict(out)


def line_digest(line):
    """Digest of one CSV line (without its newline)."""
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def csv_digests(text):
    return [line_digest(line) for line in text.split("\n")[:-1]] if text else []


def mismatched_digests(digests, golden):
    """Lines whose digest differs from the golden's, plus surplus or missing
    lines; each one is one failed cell."""
    bad = sum(1 for a, b in zip(digests, golden) if a != b)
    return bad + abs(len(digests) - len(golden))


def read_golden(path):
    with open(path, encoding="utf-8") as f:
        return [line.strip() for line in f if line.strip() and not line.startswith("#")]


def write_golden(path, text, header):
    with open(path, "w", encoding="utf-8") as f:
        f.write("# %s\n" % header)
        for digest in csv_digests(text):
            f.write(digest + "\n")


def spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else math.inf


def safe_ratio(num, den):
    return num / den if den else 0.0


# ── Host context ─────────────────────────────────────────────────────────


def cpu_times():
    """Aggregate CPU tick counters from /proc/stat (empty when unreadable)."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
    except OSError:
        return {}
    names = ["user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal"]
    return {n: int(v) for n, v in zip(names, fields[1:])}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_context(before, after):
    """nproc, CPU model, load average and the steal-time delta between two
    cpu_times() readings (seconds summed over CPUs, and as a share of all
    ticks)."""
    tick = os.sysconf("SC_CLK_TCK")
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    ticks = sum(delta.values())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg": list(os.getloadavg()),
        "steal_s": delta.get("steal", 0) / tick,
        "steal_frac": safe_ratio(delta.get("steal", 0), ticks),
    }
