#!/usr/bin/env python3
"""Validates the BENCH JSON schema emitted by the slimfast_cli benches.

The bench trajectory is only comparable across commits if every emitter
keeps the shared BenchReporter schema (bench/bench_common.h). CI runs this
after `slimfast_cli bench --quick` and `slimfast_cli loadgen --quick` and
fails the job on any drift: missing or mistyped top-level keys, malformed
phase/speedup entries, a required phase disappearing from a scenario, or
malformed latency percentiles (each of p50/p95/p99 must be a positive
number and the percentile order p50 <= p95 <= p99 must hold).

Speedup entries name the phase and the thread counts compared and carry
the measured ratio as "speedup" (a number).

The runtime scenario must also carry a non-empty top-level "scaling"
array — the per-core scaling curve of the SIMD EM phase, one
{"phase", "threads", "seconds"} point per thread count from 1 up to the
box's core count, threads strictly ascending from 1.

The required phases depend on the emitter, keyed by the top-level "bench"
name: "serve" is the loadgen scenario (serve_qps + query_latency plus
the Zipfian scheduler gate's flat/sched hot-shard staleness phases, all
latency phases with percentiles), "storage" is the durability scenario (wal_append /
wal_replay / snapshot_load plus the snapshot_load_vs_wal_replay speedup);
anything else is held to the runtime scenario's phase list.

Benches may also carry an optional top-level "metrics" object — the
observability layer's counters and gauges ({"counters": {...},
"gauges": {...}}). Counter values must be non-negative integers, gauge
values finite numbers; the serve scenario must carry its lifetime
counters (queries_total / relearns_total / publishes_total /
sheds_total / events_dropped_total) and the slo_breached_rules gauge so
the trajectory records work done — and load shed, event-ring overflow,
and SLO health — not just latency.

Usage: check_bench_schema.py BENCH_runtime.json
"""

import json
import sys

# Every phase the runtime scenario must record. `slimfast_cli bench` emits
# these in both full and --quick mode; renaming one is a schema change and
# must update this list, the README, and the bench doc comment together.
RUNTIME_REQUIRED_PHASES = [
    "generate_replicas",
    "compile",
    "learn_erm_batch",
    "learn_em",
    "learn_em_simd",
    "learn_erm_simd",
    "eval_grid",
    "ingest_delta",
    "relearn_warm",
]

# Speedup entries the runtime scenario must measure: the SIMD kernel
# tables over both learners, and the incremental engine (delta-compile
# ingest, warm relearning).
RUNTIME_REQUIRED_SPEEDUPS = [
    "learn_em_simd_vs_scalar",
    "learn_erm_simd_vs_scalar",
    "ingest_delta_vs_recompile",
    "relearn_warm_vs_cold",
]

# The serving scenario (`slimfast_cli loadgen`): throughput, the query
# latency distribution, and the skewed-scenario hot-shard staleness of
# both relearn policies (the scheduler's perf gate). Every latency phase
# must carry the percentile keys.
SERVE_REQUIRED_PHASES = [
    "serve_qps",
    "query_latency",
    "flat_hot_staleness_p99",
    "sched_hot_staleness_p99",
]
SERVE_REQUIRED_SPEEDUPS = []

# The durability scenario (`slimfast_cli storagebench`): WAL append and
# replay rates plus the snapshot bulk-load path, with the snapshot's
# advantage over record-at-a-time replay as the tracked speedup.
STORAGE_REQUIRED_PHASES = [
    "wal_append",
    "wal_replay",
    "snapshot_load",
]
STORAGE_REQUIRED_SPEEDUPS = [
    "snapshot_load_vs_wal_replay",
]

# Phases that must carry p50/p95/p99, per bench name.
PERCENTILE_PHASES = {
    "serve": [
        "query_latency",
        "flat_hot_staleness_p99",
        "sched_hot_staleness_p99",
    ]
}

TOP_LEVEL = {
    "bench": str,
    "threads": int,
    "cores": int,
    "git": str,
    "phases": list,
    "speedups": list,
}

# Optional top-level keys: the observability metrics object, emitted only
# when the bench recorded counters or gauges (bench/bench_common.h
# AddCounter/AddGauge), and the per-core scaling curve (AddScalingPoint;
# required non-empty for the runtime scenario, see check_scaling).
OPTIONAL_TOP_LEVEL = {
    "metrics": dict,
    "scaling": list,
}

# Counters the serve scenario must record under metrics.counters: the
# loadgen derives them from its own report (not the obs registry), so
# they are present even in SLIMFAST_OBS=0 builds. events_dropped_total
# is the flight recorder's event-ring overflow count (0 in OBS-off
# builds — the EventLog stub drops nothing because it records nothing).
SERVE_REQUIRED_COUNTERS = [
    "queries_total",
    "relearns_total",
    "publishes_total",
    "sheds_total",
    "events_dropped_total",
]

# Gauges the serve scenario must record under metrics.gauges:
# slo_breached_rules is the number of SLO watchdog rules latched at the
# end of the run (the loadgen configures no ceilings, so a healthy run
# records 0; the key existing proves the HEALTH plumbing is wired).
SERVE_REQUIRED_GAUGES = [
    "slo_breached_rules",
]


def fail(message):
    print(f"check_bench_schema: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def type_name(expected):
    if isinstance(expected, tuple):
        return " or ".join(t.__name__ for t in expected)
    return expected.__name__


def type_mismatch(value, expected):
    # bool is an int subclass in Python; no schema field is a bool.
    return isinstance(value, bool) or not isinstance(value, expected)


def check_entry(kind, index, entry, fields, optional=None):
    if not isinstance(entry, dict):
        fail(f"{kind}[{index}] is not an object: {entry!r}")
    for name, expected in fields.items():
        if name not in entry:
            fail(f"{kind}[{index}] is missing key '{name}': {entry!r}")
        value = entry[name]
        if type_mismatch(value, expected):
            fail(
                f"{kind}[{index}].{name} should be {type_name(expected)}, "
                f"got {type(value).__name__}: {entry!r}"
            )
    optional = optional or {}
    for name, expected in optional.items():
        if name not in entry:
            continue
        value = entry[name]
        if type_mismatch(value, expected):
            fail(
                f"{kind}[{index}].{name} should be {type_name(expected)}, "
                f"got {type(value).__name__}: {entry!r}"
            )
    extra = set(entry) - set(fields) - set(optional)
    if extra:
        fail(f"{kind}[{index}] has unexpected keys {sorted(extra)}")


def check_metrics(metrics, bench_name):
    """Validates the optional top-level observability "metrics" object."""
    extra = set(metrics) - {"counters", "gauges"}
    if extra:
        fail(f"metrics has unexpected keys {sorted(extra)}")
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    if not isinstance(counters, dict):
        fail(f"metrics.counters is not an object: {counters!r}")
    if not isinstance(gauges, dict):
        fail(f"metrics.gauges is not an object: {gauges!r}")
    for name, value in counters.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            fail(
                f"metrics.counters['{name}'] must be a non-negative "
                f"integer: {value!r}"
            )
    for name, value in gauges.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail(f"metrics.gauges['{name}'] must be a number: {value!r}")
        if value != value or value in (float("inf"), float("-inf")):
            fail(f"metrics.gauges['{name}'] must be finite: {value!r}")
    if bench_name == "serve":
        missing = [n for n in SERVE_REQUIRED_COUNTERS if n not in counters]
        if missing:
            fail(
                f"serve metrics.counters missing required keys {missing} "
                f"(have {sorted(counters)})"
            )
        missing = [n for n in SERVE_REQUIRED_GAUGES if n not in gauges]
        if missing:
            fail(
                f"serve metrics.gauges missing required keys {missing} "
                f"(have {sorted(gauges)})"
            )


def check_speedup(index, entry):
    """Validates one speedups[] entry: a phase name, the thread counts it
    compared, and the measured "speedup" ratio."""
    check_entry(
        "speedups", index, entry,
        {
            "phase": str,
            "baseline_threads": int,
            "threads": int,
            "speedup": (int, float),
        },
    )


def check_scaling(scaling):
    """Validates the top-level per-core scaling curve."""
    prev_threads = 0
    for i, point in enumerate(scaling):
        check_entry(
            "scaling", i, point,
            {"phase": str, "threads": int, "seconds": (int, float)},
        )
        if point["seconds"] <= 0:
            fail(
                f"scaling[{i}] ('{point['phase']}') has seconds <= 0: "
                f"{point['seconds']}"
            )
        if i == 0 and point["threads"] != 1:
            fail(
                f"scaling[0] must start the curve at threads=1, got "
                f"{point['threads']}"
            )
        if point["threads"] <= prev_threads:
            fail(
                f"scaling[{i}].threads must be strictly ascending: "
                f"{point['threads']} after {prev_threads}"
            )
        prev_threads = point["threads"]


def check_percentiles(index, phase):
    """Type- and order-checks a phase's p50/p95/p99 latency percentiles."""
    present = [key for key in ("p50", "p95", "p99") if key in phase]
    if not present:
        return False
    if len(present) != 3:
        fail(
            f"phases[{index}] ('{phase['name']}') has a partial percentile "
            f"set {present}; latency phases carry all of p50/p95/p99"
        )
    p50, p95, p99 = phase["p50"], phase["p95"], phase["p99"]
    for key, value in (("p50", p50), ("p95", p95), ("p99", p99)):
        if value <= 0:
            fail(
                f"phases[{index}] ('{phase['name']}').{key} is a latency "
                f"percentile and must be > 0: {value}"
            )
    if not p50 <= p95 <= p99:
        fail(
            f"phases[{index}] ('{phase['name']}') has misordered latency "
            f"percentiles (need p50 <= p95 <= p99): p50={p50} p95={p95} "
            f"p99={p99}"
        )
    return True


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = argv[1]
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot parse {path}: {err}")

    if not isinstance(data, dict):
        fail(f"top level is not an object: {type(data).__name__}")
    for name, expected in TOP_LEVEL.items():
        if name not in data:
            fail(f"missing top-level key '{name}'")
        value = data[name]
        if isinstance(value, bool) or not isinstance(value, expected):
            fail(
                f"top-level '{name}' should be {type_name(expected)}, "
                f"got {type(value).__name__}"
            )
    for name, expected in OPTIONAL_TOP_LEVEL.items():
        if name not in data:
            continue
        value = data[name]
        if isinstance(value, bool) or not isinstance(value, expected):
            fail(
                f"top-level '{name}' should be {type_name(expected)}, "
                f"got {type(value).__name__}"
            )
    extra = set(data) - set(TOP_LEVEL) - set(OPTIONAL_TOP_LEVEL)
    if extra:
        fail(f"unexpected top-level keys {sorted(extra)}")

    if data["threads"] < 1:
        fail(f"threads must be >= 1, got {data['threads']}")
    if data["cores"] < 1:
        fail(f"cores must be >= 1, got {data['cores']}")
    if not data["git"]:
        fail("git describe is empty")

    bench_name = data["bench"]
    if bench_name == "serve":
        required_phases = SERVE_REQUIRED_PHASES
        required_speedups = SERVE_REQUIRED_SPEEDUPS
    elif bench_name == "storage":
        required_phases = STORAGE_REQUIRED_PHASES
        required_speedups = STORAGE_REQUIRED_SPEEDUPS
    else:
        required_phases = RUNTIME_REQUIRED_PHASES
        required_speedups = RUNTIME_REQUIRED_SPEEDUPS
    percentile_phases = PERCENTILE_PHASES.get(bench_name, [])

    if "metrics" in data:
        check_metrics(data["metrics"], bench_name)
    elif bench_name == "serve":
        fail(
            "serve bench is missing the top-level 'metrics' object "
            "(the loadgen always records its lifetime counters)"
        )

    with_percentiles = set()
    for i, phase in enumerate(data["phases"]):
        check_entry(
            "phases", i, phase,
            {"name": str, "seconds": (int, float), "threads": int},
            optional={
                "p50": (int, float),
                "p95": (int, float),
                "p99": (int, float),
                "qps": (int, float),
            },
        )
        if phase["seconds"] < 0:
            fail(f"phases[{i}].seconds is negative: {phase['seconds']}")
        # A required phase recording 0 seconds means its timer never ran
        # (a broken stopwatch or a stubbed-out phase), not that the work
        # was free: BenchReporter emits 9 decimal places, so even a
        # cache-served microsecond lookup records a positive value. Fail
        # loudly instead of letting a dead phase pass as "fast".
        if phase["name"] in required_phases and phase["seconds"] <= 0:
            fail(
                f"phases[{i}] ('{phase['name']}') is a required phase with "
                f"seconds <= 0: {phase['seconds']}"
            )
        if phase["threads"] < 1:
            fail(f"phases[{i}].threads must be >= 1: {phase['threads']}")
        if check_percentiles(i, phase):
            with_percentiles.add(phase["name"])
        if "qps" in phase and phase["qps"] <= 0:
            fail(f"phases[{i}].qps must be > 0: {phase['qps']}")

    for i, speedup in enumerate(data["speedups"]):
        check_speedup(i, speedup)

    if "scaling" in data:
        check_scaling(data["scaling"])
    is_runtime = bench_name not in ("serve", "storage")
    if is_runtime and not data.get("scaling"):
        fail(
            "runtime bench must carry a non-empty top-level 'scaling' "
            "array (the per-core learn_em_simd scaling curve)"
        )

    phase_names = {phase["name"] for phase in data["phases"]}
    missing = [name for name in required_phases if name not in phase_names]
    if missing:
        fail(f"required phases missing: {missing} (have {sorted(phase_names)})")

    missing = [
        name for name in percentile_phases if name not in with_percentiles
    ]
    if missing:
        fail(
            f"phases {missing} must carry the p50/p95/p99 latency "
            f"percentiles in the '{bench_name}' scenario"
        )

    speedup_names = {entry["phase"] for entry in data["speedups"]}
    missing = [
        name for name in required_speedups if name not in speedup_names
    ]
    if missing:
        fail(
            f"required speedups missing: {missing} "
            f"(have {sorted(speedup_names)})"
        )

    num_metrics = sum(
        len(data.get("metrics", {}).get(k, {})) for k in ("counters", "gauges")
    )
    print(
        f"check_bench_schema: OK: {path} ('{bench_name}', "
        f"{num_metrics} metrics, "
        f"{len(data['phases'])} phases, "
        f"{len(data['speedups'])} speedups, "
        f"{len(data.get('scaling', []))} scaling points, "
        f"threads={data['threads']}, "
        f"cores={data['cores']}, git={data['git']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
