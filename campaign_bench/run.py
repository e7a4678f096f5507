#!/usr/bin/env python3
"""Campaign benchmark: whole fault-injection campaigns through the public
orchestrator and adaptive APIs, end to end and layer by layer.

    python3 campaign_bench/run.py --workload fc_grid --seed 1 --seconds 30 --trace 0
    python3 campaign_bench/run.py --workload all --seconds 30 --trace 1
    python3 campaign_bench/run.py --selftest

Builds campaign_bench from source into .bench_build/, runs the workload's
campaign pass after pass for --seconds, checks every output, and prints
the metrics as one JSON line (the last line of stdout): the end-to-end
metrics with --trace 0, the per-layer metrics of a separate traced pass
with --trace 1. Any failed check exits non-zero without printing a result.
See README.md for the workloads, the metrics and how to read them.
"""

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "campaign_bench"
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402
from benchlib import BenchError  # noqa: E402

# Worker threads in the campaign pool: a closed loop in which each worker
# takes the next run when its last one finishes. Fixed, so results compare
# across hosts with different core counts.
WORKERS = 2
DEFAULT_SEED = 1

# Each workload is a set of run_sweep flags; the benchmark builds the
# campaign exactly as run_sweep does for them, so
#     run_sweep <flags> --workers 2 --seed S
# writes the same JSONL bytes (check with --run-sweep). `digest` is the
# SHA-256 of that JSONL without its `events` fields at DEFAULT_SEED.
WORKLOADS = {
    "myrinet_grid": {
        "flags": ["--replicates", "1", "--duration-ms", "2"],
        "digest": "d1f95c6efd7a6e7bf41b278f8a13dae486f24517708d959a9b417c604b05ee35",
    },
    "fc_grid": {
        "flags": ["--medium", "fc", "--replicates", "6", "--duration-ms", "5",
                  "--snapshots", "on", "--monitor"],
        "digest": "a11360eb008b4abd92cc27b3e5016b6e3247939d3e90d3ec342ba7e6cefca2b7",
    },
    "myrinet_coverage": {
        "flags": ["--strategy", "coverage", "--faults", "gap-go,seu-00FF",
                  "--replicates", "2", "--duration-ms", "2"],
        "digest": "662bf0b26cdfbff0207cb87f741091018fcc2bbc2d030d1831408768ead0d961",
    },
}

# Wall-clock cap on the measuring process (the build is not counted).
MEASURE_TIMEOUT_S = 170


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


def selftest(verbose=False):
    import test_benchlib
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_benchlib)
    stream = sys.stderr if verbose else io.StringIO()
    result = unittest.TextTestRunner(stream=stream,
                                     verbosity=2 if verbose else 0).run(suite)
    if not result.wasSuccessful():
        if not verbose:
            log(stream.getvalue())
        raise BenchError("benchmark self-tests failed")


def declared_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path.name}: {e}") from None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def build():
    """Configures (once) and builds campaign_bench; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"hsfi sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", *gen, "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(os.cpu_count() or 1)])
    with open(BUILD / "build.log", "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = (BUILD / "build.log").read_text()[-4000:]
                log(tail)
                raise BenchError("build failed: " + " ".join(cmd))
    return BUILD / "campaign_bench"


def measure(binary, workload, seed, seconds, trace):
    """Runs campaign_bench once for `seconds`: passes back to back, plain
    with trace 0, one plain and then traced with trace 1 (see main.cpp).
    One process: host speed drifts alike within a process and across
    processes, so starting several buys nothing. Returns its raw
    document."""
    out_dir = BUILD / "runs" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    out = out_dir / "raw.json"
    cmd = [str(binary), *WORKLOADS[workload]["flags"],
           "--workers", str(WORKERS), "--seed", str(seed),
           "--trace", str(trace), "--seconds", str(seconds),
           "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"measurement ran past {MEASURE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"campaign_bench exited {proc.returncode}")
    return json.loads(out.read_text())


def evaluate(doc, workload, seed, trace):
    """Checks the raw document of one invocation and derives its metrics.
    Returns (attempted, failed, metrics, notes)."""
    benchlib.check_env(doc["env"])
    passes = doc["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if len(plain) < (1 if trace else 2) or len(traced) < trace:
        raise BenchError(f"too few passes: {len(plain)} plain, "
                         f"{len(traced)} traced")
    attempted = sum(len(p["runs"]) for p in passes)
    failed = sum(r["outcome"] != "ok" for p in passes for r in p["runs"])
    if failed:
        raise BenchError(f"{failed} of {attempted} runs did not finish ok")
    benchlib.check_identical(passes)
    benchlib.check_records(passes[0]["jsonl"])
    if seed == DEFAULT_SEED:
        benchlib.check_digest(passes[0]["jsonl"],
                              WORKLOADS[workload]["digest"])

    setup_only = doc["setup_only_s"]
    walls = [r["wall_ms"] for p in plain for r in p["runs"]]
    notes = {
        "plain_passes": len(plain),
        "traced_passes": len(traced),
        "runs_per_pass": len(passes[0]["runs"]),
        "run_wall_samples": len(walls),
        "setup_samples": len(plain) + len(setup_only),
        "tail_percentile_supported": benchlib.tail_percentile(len(walls)),
        "jsonl_sha256_without_events": benchlib.digest(passes[0]["jsonl"]),
    }
    if trace:
        workers = doc["workers"]
        per_pass = [benchlib.layer_metrics(p, workers) for p in traced]
        for layer in per_pass:
            benchlib.check_counts_against_plain(layer, plain[0])
        metrics = benchlib.combine_layers(per_pass)
        notes["traced_wall_over_plain"] = benchlib.median(
            [p["wall_s"] for p in traced]) / benchlib.median(
            [p["wall_s"] for p in plain])
    else:
        metrics = benchlib.end_to_end(plain, setup_only, doc["peak_rss_kb"])
    return attempted, failed, metrics, notes


def tree_digest(*dirs):
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(p for p in d.rglob("*")
                           if p.is_file() and "__pycache__" not in p.parts):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def stamp(env):
    """Where a result came from: commit, compiler, build, host."""
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": tree_digest(ROOT / "src", HERE),
        "compiler": env["compiler"],
        "build_type": env["build_type"],
        "cxx_flags": env["cxx_flags"].strip(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workers": WORKERS,
    }


def check_run_sweep(run_sweep, workload, seed, jsonl):
    """run_sweep with the workload's flags must write the same JSONL."""
    out = BUILD / "runs" / f"{workload}-seed{seed}-run_sweep.jsonl"
    cmd = [run_sweep, *WORKLOADS[workload]["flags"], "--workers",
           str(WORKERS), "--seed", str(seed), "--out", str(out)]
    log("checking against: " + " ".join(cmd))
    proc = subprocess.run(cmd, cwd=ROOT, stderr=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise BenchError(f"run_sweep exited {proc.returncode}")
    if out.read_text() != jsonl:
        raise BenchError("run_sweep's JSONL differs from the benchmark's")
    log("run_sweep JSONL is byte-identical")


def run_workload(binary, workload, args):
    t0 = time.monotonic()
    doc = measure(binary, workload, args.seed, args.seconds, args.trace)
    attempted, failed, metrics, notes = evaluate(doc, workload, args.seed,
                                                 args.trace)
    if args.run_sweep:
        check_run_sweep(args.run_sweep, workload, args.seed,
                        doc["passes"][0]["jsonl"])
    line = benchlib.result_line(attempted, failed, metrics)
    benchlib.check_result(line, declared_metrics(args.trace))

    record = {"workload": workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "stamp": stamp(doc["env"]), "notes": notes,
              "result": json.loads(line)}
    out = BUILD / "results" / \
        f"{workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    log(f"== {workload} (seed {args.seed}, trace {args.trace}, "
        f"{time.monotonic() - t0:.1f} s)")
    for key, value in record["stamp"].items():
        log(f"  {key:28} {value}")
    for key, value in notes.items():
        log(f"  {key:28} {value}")
    for name, (value, unit) in metrics.items():
        log(f"  {name:34} {value:>16.6g} {unit}")
    return line


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-sweep", metavar="BIN",
                        help="also check that this run_sweep binary writes "
                             "the same JSONL for the workload's flags")
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's self-tests verbosely")
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            selftest(verbose=True)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
        selftest()
        binary = build()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        lines = [run_workload(binary, w, args) for w in names]
    except BenchError as e:
        log(f"campaign_bench: FAILED: {e}")
        return 1
    for line in lines:
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
