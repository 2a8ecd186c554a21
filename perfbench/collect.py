#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise the spread of each metric.

Run from the root of a checkout, one benchmark process at a time:

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

For every workload in ``BENCHMARK.json`` it runs ``perfbench/run.py`` for
``run_seconds`` once per seed untraced, then twice traced on the first seed
(checking that the exact counts repeat), and writes the medians, quartiles and
interquartile spread (as a share of the median) of every metric, next to the
bound ``BENCHMARK.json`` sets for it. It first checks that the ``per_layer``
section of ``BENCHMARK.json`` lists the metrics the traced run emits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import trace  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        for key in ("environment", "counts", "unscaled", "samples"):
            if line.startswith(key + " "):
                result[key] = json.loads(line[len(key) + 1:])
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args()
    if config["per_layer"] != trace.per_layer_spec():
        print("BENCHMARK.json per_layer does not match trace.per_layer_spec()", file=sys.stderr)
        return 1

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    seconds = config["run_seconds"]
    summary = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {
            "environment": runs[0]["environment"],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "counts_by_seed": {str(seed): r["counts"] for seed, r in zip(seeds, runs)},
            "unscaled_by_seed": {str(seed): r["unscaled"] for seed, r in zip(seeds, runs)},
            "samples_by_seed": {str(seed): r["samples"] for seed, r in zip(seeds, runs)},
        }
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            print(f"{workload:<12} {name:<18} median {stats['median']:>10.4f} "
                  f"iqr/median {stats['iqr_share']:.3f} (bound {bound}, aim < {bound / 3:.3f})",
                  flush=True)
        # twice on one seed: the exact counts must repeat across processes
        traced, again = (run_once(workload, seeds[0], seconds, 1) for _ in range(2))
        repeat = traced["counts"] == again["counts"]
        print(f"{workload:<12} traced counts repeat across processes: {repeat}", flush=True)
        entry["per_layer"] = {"seed": seeds[0],
                              "correct": traced["correct"] and again["correct"],
                              "counts_repeat": repeat, "metrics": traced["metrics"],
                              "counts": traced["counts"]}
        print(f"{workload:<12} attempted {entry['attempted']} failed {entry['failed']}", flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
