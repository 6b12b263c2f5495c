"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

The traced-workload tests run each workload's default job list in-process,
so the whole file takes about a minute.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from trinolab import cli, conjlab, ctx_create, mu_enumerate, polyring  # noqa: E402

CHEAP = ["check-trinomial", "--k", "1", "--family", "2", "--l", "2", "--format", "json"]


@pytest.fixture(autouse=True)
def out_dir():
    run.OUT_DIR.mkdir(exist_ok=True)  # run_job keeps its temporary files there


def test_corrupted_golden_and_nonzero_exit_count_toward_fail_rate(tmp_path, monkeypatch):
    code, out, _, _ = tracer.run_inprocess(CHEAP)
    assert code == 0 and checks.check_output(CHEAP, code, out) is None
    corrupted = out[:-2] + bytes([out[-2] ^ 1]) + out[-1:]
    (tmp_path / checks.golden_name(CHEAP)).write_bytes(corrupted)
    monkeypatch.setattr(checks, "GOLDEN_DIR", tmp_path)
    l_too_small = ["check-trinomial", "--k", "1", "--family", "2", "--l", "0",
                   "--format", "json"]
    passing = ["check-trinomial", "--k", "1", "--family", "1", "--l", "2",
               "--format", "json"]
    monkeypatch.setattr(workloads, "job_source",
                        lambda workload, seed: lambda: [CHEAP, l_too_small, passing])
    result = run.measure("sweep-grid", 0, seconds=0)
    assert (result["attempted"], result["failed"]) == (3, 2)
    problems = [job[3] for job in result["jobs"]]
    assert problems[0] == "output differs from the golden"
    assert problems[1].startswith("exit code 1")
    assert problems[2] is None


def test_claim_checks_reject_false_claims():
    report = json.loads(tracer.run_inprocess(CHEAP)[1])
    report["routes_agree"] = False
    assert checks.check_output(CHEAP, 0, json.dumps(report).encode()) == "routes disagree"
    argv = ["count-roots", "--k", "1", "--family", "2", "--t", "1", "--format", "csv"]
    two_roots = 'count,family,k,roots,t\r\n2,2,1,"[1,2]",1\r\n'
    assert checks.check_output(argv, 0, two_roots.encode()) == "claimed fiber t=1 has 2 roots"


def test_generated_argv_is_valid():
    ctx5, ctx6 = ctx_create(5), ctx_create(6)
    mu5 = set(mu_enumerate(ctx5, ctx5.q + 1))
    assert set(map(int, json.loads(workloads.COST_FILE.read_text())["gcd_calls"])) == mu5
    parser = cli.build_parser()
    for workload in workloads.SETUP_KS:
        for seed in range(10):
            next_jobs = workloads.job_source(workload, seed)
            for _ in range(3):
                for argv in next_jobs():
                    args = parser.parse_args(argv)
                    if args.command == "factors":
                        assert int(args.t) in mu5
                    elif args.command == "check-trinomial":
                        assert args.l >= 2
                        conjlab.trinomial_family(args.family, args.l, ctx6)  # raises on a bad l
                    elif args.command == "sweep":
                        ls = [int(v) for v in args.l.split(",")]
                        assert len(set(ls)) == 6 and ls == sorted(ls)
                        assert all(1 <= v <= 8 for v in ls)


def test_meant_for_names_every_wrapped_function():
    assert set(tracer.MEANT_FOR) == tracer.wrapped_names()
    assert set(tracer.REPORTED_SPANS) <= set(tracer.MEANT_FOR)


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    t.spans[:] = [["a.f", 0, None, 0, 100], ["b.g", 0, 0, 10, 40],
                  ["b.g", 0, 1, 15, 25], ["a.f", 0, 0, 50, 60]]
    stats = t.summary()
    assert stats["a.f"] == [2, 100, 60 + 10]
    assert stats["b.g"] == [2, 30, 20 + 10]


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    metrics = {**tracer.field_probe(0, k=1, batch=10, repeats=1),
               **tracer.layer_metrics(tracer.Tracer(), 1.0, 1.0)}
    assert set(metrics) == names


@pytest.mark.parametrize("workload", sorted(workloads.SETUP_KS))
def test_wrapped_functions_are_called_on_their_workload(workload):
    spans = tracer.Tracer()
    with spans.installed():
        assert hasattr(cli.roots_in_set, "__wrapped__")
        assert cli.roots_in_set is conjlab.roots_in_set is polyring.roots_in_set
        for job, argv in enumerate(workloads.job_source(workload, workloads.DEFAULT_SEED)()):
            spans.job = job
            code, out, err, _ = tracer.run_inprocess(argv)
            assert checks.check_output(argv, code, out) is None, err
    assert not hasattr(cli.roots_in_set, "__wrapped__")
    called = spans.summary()
    meant = {name for name, w in tracer.MEANT_FOR.items() if w == workload}
    assert sorted(meant - set(called)) == []
