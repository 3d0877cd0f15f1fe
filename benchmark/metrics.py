"""Statistics, naming rules and metric derivation for the benchmark.

Everything here is pure: run.py feeds it the records dlxbench and
the serve clients produced, and test_benchmark.py checks it without
building anything.
"""

import hashlib
import json
import math
import os
import re
import statistics

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "BENCHMARK.json")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Percentiles a latency may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def load_spec(path=SPEC_PATH):
    """BENCHMARK.json as a dict."""
    with open(path) as handle:
        return json.load(handle)


def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between
    closest ranks, as numpy's default; a single value is returned as
    is. Raises ValueError on an empty list."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def samples_beyond(n, p):
    """How many of n samples lie above the p-th percentile."""
    return int(math.floor(n * (100.0 - p) / 100.0 + 1e-9))


def supported_percentile(n):
    """The highest listed percentile with at least ten samples beyond
    it, or None when even the median has fewer (n < 20)."""
    best = None
    for p in PERCENTILES:
        if samples_beyond(n, p) >= 10:
            best = p
    return best


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles of
    statistics.quantiles(values, n=4): the steadiness measure the
    benchmark is tuned against."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def normalized(report):
    """A report minus its execution facets, for byte-identity checks.

    Thread count, scan mode, barrier flavor, the rebalance knob and the
    stats.engine counters describe how the simulator ran, not what it
    simulated; everything else must match exactly between two runs of
    one scenario. Returns canonical JSON text.
    """
    clone = json.loads(json.dumps(report))
    machine = clone["machine"]
    for knob in ("engine_threads", "engine_scan", "engine_barrier",
                 "engine_rebalance"):
        if knob in machine:
            machine[knob] = None
    clone["stats"]["engine"] = None
    return json.dumps(clone, sort_keys=True, separators=(",", ":"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def report_ok(report):
    """A report counts as a success only completed and validated."""
    return (report.get("status") == "completed" and
            report.get("validated") is True)


# --- end-to-end metrics ----------------------------------------------

def _tile_cycles(report):
    return report["stats"]["cycles"] * report["machine"]["tiles"]


def engine_end_to_end(points, peak_rss_kb):
    """End-to-end metrics of an engine workload.

    points: one dict per scenario with wall_s, setup_s, run_s and the
    parsed report. A scenario is the workload's request, so the
    request metrics describe the per-scenario wall time.
    """
    walls = [p["wall_s"] for p in points]
    reports = [p["report"] for p in points]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(p["setup_s"] for p in points),
        "tile_cycles_per_s":
            sum(_tile_cycles(r) for r in reports) /
            sum(p["run_s"] for p in points),
        "req_per_s": len(points) / sum(walls),
        "req_p50_ms": 1e3 * percentile(walls, 50),
        "req_p90_ms": 1e3 * percentile(walls, 90),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "sim_cycles": statistics.mean(r["stats"]["cycles"]
                                      for r in reports),
        "sim_energy_uj": 1e6 * statistics.mean(r["energy"]["total_j"]
                                               for r in reports),
    }


def serve_end_to_end(requests, pass_walls_s, setups_s, peak_rss_kb):
    """End-to-end metrics of the serve workload.

    requests: one dict per request of every pass, with latency_s and
    the parsed report; every pass sends the same pool, so a pass's
    share of the simulated results is the sum over all passes divided
    by their number. pass_walls_s: the wall time of each pass, from
    its first send to its last answer. Throughput is per pass at the
    median pass wall; latency percentiles pool every request.
    """
    passes = len(pass_walls_s)
    latencies = [r["latency_s"] for r in requests]
    reports = [r["report"] for r in requests]
    wall = statistics.median(pass_walls_s)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups_s),
        "tile_cycles_per_s":
            sum(_tile_cycles(r) for r in reports) / passes / wall,
        "req_per_s": len(requests) / passes / wall,
        "req_p50_ms": 1e3 * percentile(latencies, 50),
        "req_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "sim_cycles": sum(r["stats"]["cycles"] for r in reports) / passes,
        "sim_energy_uj": 1e6 * sum(r["energy"]["total_j"]
                                   for r in reports) / passes,
    }


# --- per-layer metrics -----------------------------------------------

def span_durations(spans, name):
    """Durations in seconds of every span called `name`."""
    return [(s["end_ns"] - s["start_ns"]) * 1e-9 for s in spans
            if s["name"] == name]


def self_times(spans):
    """name -> list of self times (s): each span's duration minus the
    part of it its direct children cover."""
    covered = [0] * len(spans)
    for span in spans:
        parent = span["parent"]
        if parent >= 0:
            covered[parent] += span["end_ns"] - span["start_ns"]
    out = {}
    for i, span in enumerate(spans):
        own = span["end_ns"] - span["start_ns"] - covered[i]
        out.setdefault(span["name"], []).append(own * 1e-9)
    return out


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def counter_metrics(reports, aggregate):
    """Model and simulator counters of a set of reports, combined by
    `aggregate` (sum for a served stream, mean per engine scenario);
    occupancies and utilization are ratios of sums."""
    stats = [r["stats"] for r in reports]
    engine = [s["engine"] for s in stats]

    def ratio(num, den):
        den_total = sum(den)
        return sum(num) / den_total if den_total else 0.0

    tile_scans = [e["tile_scans"] for e in engine]
    router_scans = [e["router_scans"] for e in engine]
    return {
        "apps.invocations": aggregate(
            [s["invocations"] for s in stats]),
        "sim.stepped_cycles": aggregate(
            [e["stepped_cycles"] for e in engine]),
        "sim.noc_stepped_cycles": aggregate(
            [e["noc_stepped_cycles"] for e in engine]),
        "sim.rebalances": aggregate([e["rebalances"] for e in engine]),
        "tile.scans": aggregate(tile_scans),
        "tile.scan_occupancy": ratio(
            tile_scans, [e["tile_scans"] + e["active_tile_cycles_saved"]
                         for e in engine]),
        "tile.pu_utilization": ratio(
            [s["pu_busy_cycles"] for s in stats],
            [s["cycles"] * r["machine"]["tiles"]
             for s, r in zip(stats, reports)]),
        "noc.router_scans": aggregate(router_scans),
        "noc.router_scan_occupancy": ratio(
            router_scans,
            [e["router_scans"] + e["active_router_cycles_saved"]
             for e in engine]),
        "noc.messages": aggregate(
            [s["noc"]["messages_delivered"] for s in stats]),
        "noc.flit_hops": aggregate([s["noc"]["flit_hops"]
                                    for s in stats]),
        "noc.delivery_stalls": aggregate(
            [s["noc"]["delivery_stalls"] for s in stats]),
    }


def stage_metrics(spans, reports):
    """Per-call timings of the traced scenarios: medians per scenario,
    and host time per unit of engine work over all of them."""
    run = span_durations(spans, "sim.run")
    stepped = sum(r["stats"]["engine"]["stepped_cycles"]
                  for r in reports)
    visits = sum(r["stats"]["engine"]["tile_scans"] +
                 r["stats"]["engine"]["router_scans"] for r in reports)
    kernel = [a + b + c for a, b, c in zip(
        span_durations(spans, "apps.make_kernel_setup"),
        span_durations(spans, "apps.param_overrides"),
        span_durations(spans, "apps.make_app"))]
    return {
        "apps.kernel_setup_ms": 1e3 * _median_or_zero(kernel),
        "apps.validate_ms":
            1e3 * _median_or_zero(span_durations(spans,
                                                 "apps.validate")),
        "sim.machine_build_ms":
            1e3 * _median_or_zero(span_durations(spans,
                                                 "sim.machine_build")),
        "sim.run_s": _median_or_zero(run),
        "sim.ns_per_stepped_cycle":
            1e9 * sum(run) / stepped if stepped else 0.0,
        "sim.ns_per_visit": 1e9 * sum(run) / visits if visits else 0.0,
        "cli.render_us":
            1e6 * _median_or_zero(span_durations(spans, "cli.render")),
    }
