"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 50 --out perfbench/baseline.json

For each workload: the end-to-end metrics of one untraced run per seed, as
median, quartiles and spread (interquartile range / median), and the
per-layer metrics of one traced run on the first seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The run's result file: every reported metric, not only the listed ones."""
    subprocess.run([sys.executable, str(Path(run.__file__)), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=run.ROOT, capture_output=True, text=True, check=True)
    path = run.OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json"
    result = json.loads(path.read_text(encoding="utf-8"))
    return {**result, "metrics": result["reported"]}


def summarise(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "n": len(values),
                     "median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values), "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--workloads", default=",".join(sorted(workloads.SETUP_KS)))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    report = {"meta": {**run.machine_meta(), "seeds": seeds, "seconds": args.seconds},
              "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        traced = run_once(workload, seeds[0], args.seconds, 1)
        report["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": summarise(results),
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()}}
        summary = report["workloads"][workload]
        for name, s in summary["end_to_end"].items():
            print(f"{workload:10s} {name:14s} median {s['median']:10.4f} {s['unit']:5s} "
                  f"spread {s['spread']:.4f}", flush=True)
        print(f"{workload:10s} {'fail_rate':14s} {summary['failed'] / summary['attempted']:17.4f}"
              f" ratio ({summary['failed']} failed / {summary['attempted']} attempted)",
              flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
