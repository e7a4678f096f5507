"""Arithmetic and output checks of the campaign benchmark.

Pure functions over the raw document campaign_bench writes for one
invocation: the build's environment, the process's peak RSS and set-up-only
timings, and one entry per pass with its timings, per-run records, JSONL
and, for a traced pass, spans. run.py
calls them; test_benchlib.py checks them on synthetic inputs, including
every planted output defect the checks exist to catch.

Any failed check raises BenchError. run.py then exits non-zero without
printing a result, so a breach can never surface as a zero metric.
"""

import hashlib
import json
import math
import re
import statistics

CLASSES = (
    "m_masked",
    "m_crc_dropped",
    "m_marker_error",
    "m_payload_corrupted_delivered",
    "m_misrouted",
    "m_dropped_other",
    "m_timeout",
    "m_mapping_disruption",
)

# Per-layer metrics that count simulated work. They must repeat exactly on
# any change that only speeds the simulator up, across passes, and between
# traced and plain passes where a plain pass can see them.
COUNT_METRICS = (
    "sim.events",
    "sim.events_per_symbol",
    "link.symbols",
    "core.injector_chars",
    "core.injector_fires",
    "myrinet.packets_routed",
    "myrinet.flow_symbols",
    "fc.frames_received",
    "host.messages_sent",
    "host.messages_received",
    "analysis.injections_recorded",
    "analysis.observations_recorded",
    "adaptive.rounds",
    "nftape.fabric_builds",
    "orchestrator.retries",
)


class BenchError(Exception):
    """A check failed; the benchmark must not report."""


# --- statistics ---------------------------------------------------------


def percentile(values, p):
    """The p-th percentile, interpolating linearly between closest ranks."""
    if not values:
        raise BenchError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        raise BenchError("quartiles need at least two samples")
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def tail_percentile(n, candidates=(50, 90, 99, 99.9)):
    """Highest candidate percentile with at least ten of n samples beyond it,
    or None when not even the median has."""
    ok = [p for p in candidates if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9]
    return max(ok) if ok else None


def ratio(num, den, what):
    if den == 0:
        raise BenchError(f"{what}: denominator is zero")
    return num / den


def busy_frac(intervals, workers, wall):
    """Share of `workers` x `wall` that the (t0, t1) intervals cover."""
    busy = sum(t1 - t0 for t0, t1 in intervals)
    return ratio(busy, workers * wall, "worker busy fraction")


def barrier_idle_frac(batches, workers):
    """Share of worker time inside batches spent waiting for the batch's
    barrier: per batch, `workers` x (last end - first start) minus the time
    its runs were executing."""
    capacity = idle = 0
    for intervals in batches:
        if not intervals:
            continue
        span = max(t1 for _, t1 in intervals) - min(t0 for t0, _ in intervals)
        busy = sum(t1 - t0 for t0, t1 in intervals)
        capacity += workers * span
        idle += workers * span - busy
    return ratio(idle, capacity, "barrier idle fraction")


def self_time(span, children):
    return (span["t1"] - span["t0"]) - sum(c["t1"] - c["t0"] for c in children)


# --- output checks ------------------------------------------------------


def strip_events(jsonl):
    """The JSONL without the `events` field: what a change that only moves
    work between kernel events must leave byte-identical."""
    return re.sub(r',"events":\d+', "", jsonl)


def digest(jsonl):
    return hashlib.sha256(strip_events(jsonl).encode()).hexdigest()


def check_records(jsonl):
    """Every record finished ok and its 8 classes sum to its injections."""
    lines = jsonl.splitlines()
    if not lines:
        raise BenchError("campaign produced no records")
    for n, line in enumerate(lines):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise BenchError(f"record {n}: not JSON ({e})") from None
        if rec.get("outcome") != "ok":
            raise BenchError(
                f"run {rec.get('name')}: outcome {rec.get('outcome')}"
                f" ({rec.get('error', '')})")
        classes = sum(rec[k] for k in CLASSES)
        if classes != rec["injections"]:
            raise BenchError(
                f"run {rec['name']}: 8 classes sum to {classes},"
                f" injections {rec['injections']}")


def check_identical(passes):
    """JSONL is byte-identical across every pass, traced or not."""
    first = passes[0]["jsonl"]
    for i, p in enumerate(passes[1:], start=1):
        if p["jsonl"] != first:
            kind = "traced" if p["traced"] else "plain"
            raise BenchError(f"JSONL of pass {i} ({kind}) differs from pass 0")


def check_digest(jsonl, pinned):
    got = digest(jsonl)
    if got != pinned:
        raise BenchError(f"JSONL digest {got} does not match pinned {pinned}")


def check_env(env):
    flags = env.get("cxx_flags", "")
    if not env.get("optimized") or re.search(r"(^|\s)-O0(\s|$)", flags):
        raise BenchError(
            "refusing to report from a build without optimisation")
    if env.get("sanitizers") or "-fsanitize" in flags:
        raise BenchError("refusing to report from a sanitizer build")


# --- metrics ------------------------------------------------------------


def end_to_end(plain, setup_only, peak_rss_kb):
    """End-to-end metrics from the plain passes of one invocation, its
    set-up-only passes and its peak RSS: name -> (value, unit).

    Throughputs and latencies pool every plain pass: runs (and simulated
    seconds) over the passes' summed wall time, percentiles over all their
    runs. On a shared host, speed drifts by tens of percent over seconds;
    pooling the whole measured window weighs every stretch of it by its
    length, where a median over a handful of passes follows whichever
    stretches those passes happened to fall in."""
    walls = [r["wall_ms"] for p in plain for r in p["runs"]]
    wall_s = sum(p["wall_s"] for p in plain)
    m = {
        "runs_per_s": (len(walls) / wall_s, "1/s"),
        "sim_s_per_wall_s": (sum(p["sim_span_s"] for p in plain) / wall_s,
                             "s/s"),
        "run_wall_ms_p50": (percentile(walls, 50), "ms"),
        "run_wall_ms_p90": (percentile(walls, 90), "ms"),
        "setup_s": (median([p["setup_s"] for p in plain] + setup_only), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    for name, (value, _) in m.items():
        if not value > 0:
            raise BenchError(f"{name} measured {value}")
    return m


def _dur(s):
    return s["t1"] - s["t0"]


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(traced, workers):
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    spans = traced["spans"]
    by = {}
    for s in spans:
        by.setdefault((s["layer"], s["name"]), []).append(s)
    runs = by.get(("orchestrator", "run"), [])
    campaigns = by.get(("nftape", "campaign"), [])
    if not runs or len(campaigns) != len(runs):
        raise BenchError(
            f"trace has {len(runs)} run spans, "
            f"{len(campaigns)} campaign spans")
    settles = by.get(("sim", "settle"), [])
    traffic = [s for s in settles if s["phase"] == "traffic"]
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def count(key):
        return sum(c["counts"][key] for c in campaigns)

    events = sum(c.get("events", 0) for c in campaigns)
    symbols = sum(c.get("symbols", 0) for c in campaigns)
    traffic_ns = sum(_dur(s) for s in traffic)
    busy_ns = sum(_dur(r) for r in runs)
    program_ns = sum(
        _dur(s) for s in spans
        if s["name"] in ("program_fault", "disarm_faults")
        or (s["name"] == "settle" and s.get("phase") in ("program", "disarm")))
    rounds = {}
    for r in runs:
        rounds.setdefault(r["round"], []).append((r["t0"], r["t1"]))
    wall_ns = traced["wall_s"] * 1e9

    m = {
        "sim.events": (events, "count"),
        "sim.events_per_symbol": (ratio(events, symbols, "events/symbol"),
                                  "events/symbol"),
        "sim.ns_per_event": (
            ratio(traffic_ns, sum(s.get("events", 0) for s in traffic),
                  "traffic events"), "ns"),
        "link.symbols": (symbols, "count"),
        "link.ns_per_symbol": (
            ratio(traffic_ns, sum(s.get("symbols", 0) for s in traffic),
                  "traffic symbols"), "ns"),
        "core.injector_chars": (count("injector_chars"), "count"),
        "core.injector_fires": (count("injector_fires"), "count"),
        "myrinet.packets_routed": (count("packets_routed"), "count"),
        "myrinet.flow_symbols": (count("flow_symbols"), "count"),
        "fc.frames_received": (count("fc_frames_received"), "count"),
        "host.messages_sent": (count("messages_sent"), "count"),
        "host.messages_received": (count("messages_received"), "count"),
        "analysis.injections_recorded": (count("analysis_injections"),
                                         "count"),
        "analysis.observations_recorded": (count("analysis_observations"),
                                           "count"),
        "nftape.traffic_frac": (ratio(traffic_ns, busy_ns, "run time"),
                                "ratio"),
        "nftape.boot_ms": (
            _mean([_dur(s) for s in by.get(("nftape", "boot"), [])]) / 1e6,
            "ms"),
        "nftape.fabric_builds": (len(by.get(("nftape", "make_fabric"), [])),
                                 "count"),
        "nftape.capture_us": (_mean(
            [_dur(s) for s in by.get(("nftape", "capture_snapshot"), [])])
                              / 1e3, "us"),
        "nftape.restore_us": (_mean(
            [_dur(s) for s in by.get(("nftape", "restore_snapshot"), [])])
                              / 1e3, "us"),
        "nftape.program_ms": (program_ns / len(campaigns) / 1e6, "ms"),
        "nftape.runner_self_ms": (_mean(
            [self_time(c, children.get(c["id"], [])) for c in campaigns])
                                  / 1e6, "ms"),
        "orchestrator.worker_busy_frac": (busy_frac(
            [(r["t0"], r["t1"]) for r in runs], workers, wall_ns), "ratio"),
        "orchestrator.retries": (traced["retries"], "count"),
        "orchestrator.jsonl_us": (_mean(
            [s["cpu"] for s in by.get(("orchestrator", "jsonl"), [])]) / 1e3,
                                  "us"),
        "monitor.on_record_us": (_mean(
            [s["cpu"] for s in by.get(("monitor", "on_record"), [])]) / 1e3,
                                 "us"),
        "adaptive.rounds": (len(by.get(("adaptive", "round"), [])), "count"),
        "adaptive.barrier_idle_frac": (barrier_idle_frac(
            [rounds[k] for k in sorted(rounds)], workers), "ratio"),
        "adaptive.plan_ms": (sum(
            _dur(s) for s in by.get(("adaptive", "next_round"), []) +
            by.get(("adaptive", "observe"), [])) / 1e6, "ms"),
        "trace.overhead_frac": (ratio(traced["overhead_ns"], busy_ns,
                                      "run time"), "ratio"),
    }
    return m


def check_counts_against_plain(layer, plain):
    """Counts a plain pass can see must equal the traced pass's."""
    records = [json.loads(line) for line in plain["jsonl"].splitlines()]
    expect = {
        "sim.events": sum(r["events"] for r in records),
        "link.symbols": sum(r["symbols"] for r in plain["runs"]),
        "host.messages_sent": sum(r["sent"] for r in records),
        "host.messages_received": sum(r["received"] for r in records),
        "adaptive.rounds": plain["rounds"],
    }
    for name, want in expect.items():
        if layer[name][0] != want:
            raise BenchError(
                f"{name}: traced pass counted {layer[name][0]},"
                f" plain pass {want}")


def combine_layers(per_pass):
    """Median over traced passes; count metrics must agree exactly."""
    out = {}
    for name, (value, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if name in COUNT_METRICS:
            if any(v != value for v in values):
                raise BenchError(
                    f"{name} differs between traced passes: {values}")
            out[name] = (value, unit)
        else:
            out[name] = (median(values), unit)
    return out


# --- result schema ------------------------------------------------------


def result_line(attempted, failed, metrics):
    return json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })


def check_result(line, expected):
    """The printed result: exactly the four keys, whole-number counts and
    exactly the `expected` metrics (name -> unit), each a finite number."""
    doc = json.loads(line)
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"result keys {sorted(doc)}")
    if doc["correct"] is not True:
        raise BenchError("result not marked correct")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            raise BenchError(f"{key} is not a whole number")
    if doc["attempted"] < 1 or not 0 <= doc["failed"] <= doc["attempted"]:
        raise BenchError("attempted/failed out of range")
    metrics = doc["metrics"]
    if set(metrics) != set(expected):
        raise BenchError(
            f"metrics {sorted(set(metrics) ^ set(expected))} missing or extra")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected[name]:
            raise BenchError(f"metric {name}: {m}")
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            raise BenchError(f"metric {name} value {v!r}")
    return doc
