"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --seeds 1-10 [--workloads mc_coded train] [--out FILE]

Each run is a separate untraced ``bench/run.py`` process with the
``run_seconds`` of ``BENCHMARK.json``, run one after another.
For every workload and metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
and compares the spread with the metric's bound in ``BENCHMARK.json``.
The summary is printed, and written as JSON to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])["provenance"]
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": parse_seeds(args.seeds), "seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, spec["run_seconds"]) for seed in summary["seeds"]]
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = first["unit"]
            metrics[name] = stats
            mark = "" if stats["spread"] < bounds[name] / 3 else "  <-- spread >= bound/3"
            print(f"{workload:10s} {name:34s} median {stats['median']:<14.6g} "
                  f"spread {stats['spread']:.4f}{mark}", flush=True)
        summary["workloads"][workload] = {
            "metrics": metrics,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "provenance": [r["provenance"] for r in runs],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
