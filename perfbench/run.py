#!/usr/bin/env python3
"""The slimfast benchmark of record: offline fusion and the serve path,
end to end and layer by layer. See perfbench/README.md.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py selftest
  python3 perfbench/run.py compare RESULT_A.json RESULT_B.json

A run builds the driver and `slimfast_cli` from this checkout (Release,
under .bench_build/), generates the workload's inputs from the seed,
measures for the given seconds, checks every output, prints a
human-readable report, saves the full record under .bench_build/results/,
and prints one JSON result as its last line. It exits 1 when any check
failed and 2 when it could not build or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
WORKLOADS = ["fuse_em", "fuse_erm", "serve_read", "serve_ingest"]
# A comparison across records that differ in any of these is flagged.
ENV_KEYS = ["nproc", "build_type", "simd_wide", "SLIMFAST_OBS", "obs_enabled",
            "workload", "seconds", "trace", "tiny"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """Configures (once) and builds the driver and the CLI; returns their paths."""
    OUT.mkdir(exist_ok=True)
    log = OUT / "build.log"
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_driver", "slimfast_cli"])
    with open(log, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-15:]
                fail("build failed:\n" + "\n".join(tail))
    return BUILD / "perfbench_driver", BUILD / "slimfast" / "tools" / "slimfast_cli"


def source_digest():
    """Content hash of the sources the benchmark builds (the checkout it
    runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "tools", "perfbench"]:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except OSError:
        return None


def environment(args, notes):
    cache = (BUILD / "CMakeCache.txt").read_text().splitlines()
    build_type = next((l.split("=", 1)[1] for l in cache
                       if l.startswith("CMAKE_BUILD_TYPE:")), "")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "build_type": build_type,
        "simd_wide": notes.get("simd_wide"),
        "SLIMFAST_OBS": os.environ.get("SLIMFAST_OBS", "unset"),
        "obs_enabled": notes.get("obs_enabled"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "inputs": {k[len("input."):]: v for k, v in notes.items()
                   if k.startswith("input.")},
    }


def span_totals(path):
    """Total seconds per span name of a chrome://tracing file."""
    totals = {}
    try:
        events = json.loads(Path(path).read_text()).get("traceEvents", [])
    except (OSError, ValueError):
        return totals
    for e in events:
        totals[e["name"]] = totals.get(e["name"], 0.0) + e.get("dur", 0) * 1e-6
    return totals


def merge_traces(record, dest):
    """One trace file with the driver's spans and the library's and the
    server's own trace spans; returns the per-source span totals."""
    notes = record["notes"]
    merged = {"driver_spans": [], "library": {}, "server": {}}
    if "driver_spans" in notes:
        merged["driver_spans"] = json.loads(Path(notes["driver_spans"]).read_text())
    for key, name in [("library_trace", "library"), ("server_trace", "server")]:
        if key in notes:
            merged[name] = span_totals(notes[key])
    dest.write_text(json.dumps(merged, indent=1))
    return merged


def fmt(value):
    return f"{value:.6g}"


TRACE_NOTES = {"driver_spans", "library_trace", "server_trace"}


def report(record, env, names, per_layer):
    print(f"perfbench {env['workload']} seed={env['seed']} trace={env['trace']} "
          f"seconds={env['seconds']}")
    print("  env: " + " ".join(f"{k}={env[k]}" for k in
                               ["nproc", "build_type", "simd_wide", "SLIMFAST_OBS",
                                "git_commit", "source_digest"]))
    print("  inputs: " + " ".join(f"{k}={v}" for k, v in env["inputs"].items()))
    metrics = record["metrics"]
    e2e = [n for n in names["end_to_end"] if n in metrics]
    layers = [n for n in names["per_layer"] if n in metrics] if per_layer else []
    left = [f"{n:<18} {fmt(metrics[n]['value']):>12} {metrics[n]['unit']}" for n in e2e]
    right = [f"{n:<30} {fmt(metrics[n]['value']):>12} {metrics[n]['unit']}" for n in layers]
    width = max(len(x) for x in left + ["end-to-end"]) + 3
    print(f"  {'end-to-end':<{width}}" + ("per-layer (traced run)" if layers else ""))
    for i in range(max(len(left), len(right))):
        l = left[i] if i < len(left) else ""
        r = right[i] if i < len(right) else ""
        print(f"    {l:<{width - 2}}{r}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  failed_frac {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    for message in record["failures"]:
        print(f"  FAILED: {message}")
    print("  notes: " + " ".join(f"{k}={v}" for k, v in sorted(record["notes"].items())
                                 if not k.startswith("input.") and k not in TRACE_NOTES))


def run(args):
    names = {"end_to_end": [m["name"] for m in spec()["end_to_end"]],
             "per_layer": [m["name"] for m in spec()["per_layer"]]}
    driver, cli = build()
    work = OUT / "work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(driver), "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(work), "--cli", str(cli)]
    cmd += ["--tiny"] if args.tiny else []
    cmd += ["--corrupt"] if args.corrupt else []
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    env = environment(args, record["notes"])
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    merged = merge_traces(record, results / f"{stem}-trace.json") if args.trace else None
    (results / f"{stem}.json").write_text(json.dumps({"env": env, **record}, indent=1))
    report(record, env, names, args.trace)
    if merged:
        for source in ["library", "server"]:
            top = sorted(merged[source].items(), key=lambda kv: -kv[1])[:8]
            if top:
                print(f"  {source} spans (total s): " +
                      " ".join(f"{k}={fmt(v)}" for k, v in top))
        print(f"  spans written to {results / (stem + '-trace.json')}")
    wanted = names["per_layer" if args.trace else "end_to_end"]
    missing = [n for n in wanted if n not in record["metrics"]]
    correct = record["failed"] == 0 and not missing
    if missing:
        print(f"  MISSING: {' '.join(missing)}")
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"] + len(missing),
        "metrics": {n: record["metrics"][n] for n in wanted if n in record["metrics"]},
    }))
    return 0 if correct else 1


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    differ = [k for k in ENV_KEYS if a["env"].get(k) != b["env"].get(k)]
    if differ:
        print("FLAGGED: environments differ, not comparing: " + ", ".join(
            f"{k} {a['env'].get(k)!r} vs {b['env'].get(k)!r}" for k in differ))
        return 3
    print(f"{'metric':<32} {'A':>12} {'B':>12} {'B/A':>8}")
    for name, m in a["metrics"].items():
        if name in b["metrics"]:
            va, vb = m["value"], b["metrics"][name]["value"]
            ratio = f"{vb / va:.3f}" if va else "-"
            print(f"{name:<32} {fmt(va):>12} {fmt(vb):>12} {ratio:>8}  {m['unit']}")
    return 0


def selftest():
    """Tiny-size run of every workload: every metric of BENCHMARK.json is
    emitted with its unit, outputs check clean, and a deliberately
    corrupted reply is counted as a failure."""
    s = spec()
    problems = []
    for workload in WORKLOADS:
        for trace, kind in [(0, "end_to_end"), (1, "per_layer")]:
            for corrupt in ([False, True] if trace == 0 else [False]):
                cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
                       "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
                cmd += ["--corrupt"] if corrupt else []
                started = time.time()
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
                label = f"{workload} trace={trace}{' corrupt' if corrupt else ''}"
                try:
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                except (ValueError, IndexError):
                    problems.append(f"{label}: no result line ({proc.stderr.strip()[-500:]})")
                    continue
                if corrupt:
                    if result["failed"] < 1 or proc.returncode == 0:
                        problems.append(f"{label}: corrupted reply not counted as failed")
                else:
                    if not result["correct"] or proc.returncode != 0:
                        problems.append(f"{label}: run not correct: {proc.stdout[-1500:]}")
                    for m in s[kind]:
                        got = result["metrics"].get(m["name"])
                        if got is None or got.get("unit") != m["unit"]:
                            problems.append(f"{label}: metric {m['name']} missing or "
                                            f"without unit {m['unit']}")
                print(f"selftest {label}: {time.time() - started:.1f}s")
    for p in problems:
        print(f"SELFTEST FAILED: {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "selftest":
        return selftest()
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        return compare(sys.argv[2], sys.argv[3])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="self-test input sizes")
    p.add_argument("--corrupt", action="store_true",
                   help="corrupt one received reply (self-test of the checks)")
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
