#!/usr/bin/env python3
"""Run-to-run spread of the campaign benchmark's end-to-end metrics.

    python3 campaign_bench/spread.py --workload myrinet_grid --seeds 1-10

Runs run.py once per seed (--trace 0, BENCHMARK.json's run_seconds) and
prints, per metric, the median, the quartiles (statistics.quantiles, n=4)
and the interquartile distance as a share of the median, next to the
metric's bound. A benchmark is steady when every spread but setup_s's
stays under a third of its bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: run.py exited {proc.returncode}")
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        for name in values:
            values[name].append(metrics[name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in metrics.items()), flush=True)

    print(f"\n{args.workload}: {len(args.seeds)} seeds")
    print(f"{'metric':20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, q3 = benchlib.quartiles(v)
        print(f"{m['name']:20} {benchlib.median(v):12.6g} {q1:12.6g} "
              f"{q3:12.6g} {benchlib.spread(v):8.4f} {m['bound']:6.3f}")


if __name__ == "__main__":
    main()
