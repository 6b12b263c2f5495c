"""Benchmark of the trinolab command line.

    python3 perfbench/run.py --workload lemma --seed 0 --seconds 50 --trace 0

One client runs the workload's jobs one at a time (a closed loop), each a
fresh `python -m trinolab` process that pays its own interpreter start and
field build, as a user's command does.  Each job is timed, its peak RSS read
from os.wait4 and its output checked (checks.py).  The job list is repeated,
with fresh seeded draws, for as long as --seconds allows.

--trace 0 prints the end-to-end metrics.  Each job of the list is timed at
its median over the run: wall_s is the sum of those medians (the whole job
list) and slowest_job_s their maximum (the longest wait for one verdict).
setup_s is the median of fresh processes that import trinolab and build
each field the workload uses; peak_rss_mb the largest peak RSS of any job in
the run; fail_rate is failed / attempted.  Times are medians because on a
shared machine other tenants can slow whole stretches of a run.

--trace 1 runs the first job list in this process through
trinolab.cli.main(argv), once plainly and once with spans around every call
into the library's layers (tracer.py), and prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics that BENCHMARK.json lists.  Runs also leave a result file with
every reported metric (and the spans) in .perfbench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = (3, 15, 4.0)  # at least 3, then until 4 s have passed, at most 15
SETUP_CODE = ("import sys\nfrom trinolab import ctx_create\n"
              "for k in sys.argv[1:]:\n    ctx_create(int(k))\n")


@dataclass
class JobResult:
    argv: list
    wall_s: float
    rss_mb: float
    problem: Optional[str]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_job(argv: list) -> JobResult:
    """Run one `trinolab` command in a fresh process and check its output."""
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, \
            tempfile.TemporaryFile(dir=OUT_DIR) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "trinolab", *argv],
                                stdout=out, stderr=err, cwd=ROOT, env=_child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        problem = checks.check_output(argv, proc.returncode, out.read())
        if problem is not None:
            err.seek(0)
            tail = err.read().decode("utf-8", "replace").strip()[-300:]
            problem += f" ({tail})" if tail else ""
    return JobResult(argv, wall, usage.ru_maxrss / 1024, problem)


def setup_probe(ks) -> float:
    """Wall time of a fresh process that imports trinolab and builds each field."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, *map(str, ks)],
                   cwd=ROOT, env=_child_env(), check=True)
    return time.perf_counter() - t0


def machine_meta() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a plain checkout is not a git repository
    digest = hashlib.sha256()
    for path in sorted((SRC / "trinolab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def run_slots(next_jobs, seconds: float) -> list:
    """Run job lists back to back, a fresh draw each time, and stop at the
    first job boundary after one whole list where the next job would overrun
    the time.  Slot i holds every run of the lists' i-th job."""
    job_list = next_jobs()
    slots = [[] for _ in job_list]
    start = time.perf_counter()
    while True:
        for i, argv in enumerate(job_list):
            slots[i].append(run_job(argv))
            upcoming = slots[(i + 1) % len(slots)]
            if upcoming and time.perf_counter() - start + statistics.median(
                    r.wall_s for r in upcoming) > seconds:
                return slots
        job_list = next_jobs()


def measure(workload: str, seed: int, seconds: float) -> dict:
    next_jobs = workloads.job_source(workload, seed)
    setups, start = [], time.perf_counter()
    while len(setups) < SETUP_PROBES[0] or (
            len(setups) < SETUP_PROBES[1] and time.perf_counter() - start < SETUP_PROBES[2]):
        setups.append(setup_probe(workloads.SETUP_KS[workload]))
    slots = run_slots(next_jobs, seconds)
    jobs = [r for slot in slots for r in slot]
    medians = [statistics.median(r.wall_s for r in slot) for slot in slots]
    failed = [r for r in jobs if r.problem]
    for r in failed:
        print(f"FAILED {' '.join(r.argv)}: {r.problem}")
    metrics = {
        "wall_s": (sum(medians), "s"),
        "slowest_job_s": (max(medians), "s"),  # printed, not in BENCHMARK.json: see README
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in jobs), "MB"),
    }
    per_job = min(len(slot) for slot in slots)
    samples = {"wall_s": per_job, "slowest_job_s": per_job,
               "setup_s": len(setups), "peak_rss_mb": len(jobs)}
    for name, (value, unit) in metrics.items():
        print(f"{name:14s} {value:12.4f} {unit:5s} ({samples[name]} samples)")
    print(f"{'fail_rate':14s} {len(failed) / len(jobs):12.4f} ratio "
          f"({len(failed)} failed / {len(jobs)} attempted)")
    return {"attempted": len(jobs), "failed": len(failed), "samples": samples,
            "metrics": metrics,
            "jobs": [[" ".join(r.argv), r.wall_s, r.rss_mb, r.problem] for r in jobs]}


def measure_traced(workload: str, seed: int) -> dict:
    field = tracer.field_probe(seed)
    job_list = workloads.job_source(workload, seed)()
    spans = tracer.Tracer()
    failed = 0
    untraced_s = traced_s = 0.0
    for job, argv in enumerate(job_list):  # back to back: both runs see the same load
        code, out, err, wall = tracer.run_inprocess(argv)
        untraced_s += wall
        failed += _report_inprocess(argv, code, out, err) is not None
        spans.job = job
        with spans.installed():
            code, out, err, wall = tracer.run_inprocess(argv)
        traced_s += wall
        spans.counts["cli.report_write.bytes"] += len(out)
        failed += _report_inprocess(argv, code, out, err) is not None
    span_file = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    spans.write(span_file)
    metrics = {**field, **tracer.layer_metrics(spans, untraced_s, traced_s)}
    stats = spans.summary()
    print(f"{len(spans.spans)} spans of {len(job_list)} jobs written to "
          f"{span_file.relative_to(ROOT)}")
    print("Not wrapped: scalar field ops, Poly methods, the evaluator that "
          "trinomial_map returns and gf3_is_irreducible. Their time counts in the "
          "calling layer's self time: mostly polyring, permtest and gf3m.")
    print(f"untraced {untraced_s:.4f} s, traced {traced_s:.4f} s")
    for name in tracer.REPORTED_SPANS:
        calls, total_ns, _ = stats.get(name, (0, 0, 0))
        print(f"{name + '.calls':40s} {calls:12d} count")
        print(f"{name + '.s':40s} {total_ns / 1e9:12.4f} s")
    units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    result = {name: (metrics[name], units[name]) for name in units}
    for name, (value, unit) in result.items():
        print(f"{name:40s} {value:12.4f} {unit}")
    return {"attempted": 2 * len(job_list), "failed": failed,
            "samples": {"jobs": len(job_list)}, "metrics": result}


def _report_inprocess(argv, code, out, err) -> Optional[str]:
    problem = checks.check_output(argv, code, out)
    if problem is not None:
        print(f"FAILED {' '.join(argv)}: {problem} {err.strip()[-300:]}")
    return problem


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def write_golden(workload: str):
    """Capture the default seed's first job list as goldens (at a trusted commit)."""
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    for argv in workloads.job_source(workload, workloads.DEFAULT_SEED)():
        proc = subprocess.run([sys.executable, "-m", "trinolab", *argv], cwd=ROOT,
                              env=_child_env(), capture_output=True, check=True)
        (checks.GOLDEN_DIR / checks.golden_name(argv)).write_bytes(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SETUP_KS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="capture goldens for the default seed instead of measuring")
    args = parser.parse_args(argv)
    if not (SRC / "trinolab" / "cli.py").is_file():
        print(f"error: no trinolab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    if args.write_golden:
        write_golden(args.workload)
        return 0
    print(f"workload {args.workload}, seed {args.seed}: closed loop, one client, "
          f"one job at a time")
    if args.trace:
        run = measure_traced(args.workload, args.seed)
    else:
        run = measure(args.workload, args.seed, args.seconds)
    meta = {**machine_meta(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "samples": run["samples"]}
    print("meta " + json.dumps(meta, sort_keys=True))
    reported = {name: {"value": value, "unit": unit}
                for name, (value, unit) in run["metrics"].items()}
    listed = {m["name"] for m in _benchmark_spec()["per_layer" if args.trace else "end_to_end"]}
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"],
              "metrics": {name: m for name, m in reported.items() if name in listed}}
    record = {"meta": meta, **result, "reported": reported, "jobs": run.get("jobs", [])}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
