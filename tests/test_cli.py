"""Command-line behavior: payloads, formats, determinism, exit codes."""

import hashlib
import json
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from trinolab import cli, conjlab, gf3m
from trinolab.cli import main, parse_sweep_csv
from trinolab.gf3m import ctx_create
from trinolab.permtest import mu_enumerate
from trinolab.polyring import Poly

from conftest import vanishing_denominator_map


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths per command

def test_field_info_json(capsys):
    code, out, _ = run(capsys, "field-info", "--k", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"k": 1, "m": 2, "q": 3, "order": 9,
                       "modulus": "1,0,1", "alpha": 4, "epsilon": 3,
                       "theta": None, "sqrt_eps_minus_1": None}


def test_field_info_k3_has_theta(capsys):
    code, out, _ = run(capsys, "field-info", "--k", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["theta"] == 327


def test_mu_lists_subgroup(capsys):
    code, out, _ = run(capsys, "mu", "--k", "1", "--d", "4",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["elements"] == [1, 2, 3, 6]


def test_mu_rejects_non_divisor(capsys):
    code, _, err = run(capsys, "mu", "--k", "1", "--d", "3")
    assert code == 1
    assert "not a subgroup order" in err


def test_check_trinomial_reports_agreement(capsys):
    code, out, _ = run(capsys, "check-trinomial", "--k", "1", "--family", "2",
                       "--l", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exponents"] == [5, 13, 1]
    assert payload["r"] == 1 and payload["h"] == "1,0,1,0,0,0,2"
    assert payload["direct_bijection"] and payload["g_bijection"]
    assert payload["routes_agree"]


def test_check_trinomial_gcd_failure_is_not_an_error(capsys):
    # gcd(1 + 2*6, 27 - 1) = 13: the map cannot permute, and the report
    # says so without tripping the verification exit code
    code, out, _ = run(capsys, "check-trinomial", "--k", "3", "--family", "2",
                       "--l", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert not payload["gcd_ok"]
    assert not payload["direct_bijection"]
    assert not payload["zieve_cond1"]
    assert payload["g_bijection"]  # the subgroup map still permutes
    assert payload["routes_agree"]


def _check_trinomial(capsys, k, family, l):
    code, out, _ = run(capsys, "check-trinomial", "--k", str(k), "--family",
                       str(family), "--l", str(l), "--format", "json")
    return code, json.loads(out)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_check_trinomial_cost_does_not_grow_with_l(capsys, k):
    # x^e depends only on e mod n = q^2 - 1 for x != 0, and 0^e = 0 for
    # e > 0, so l -> l + (q-1)M shifts every exponent and r by nM and
    # leaves every verdict and h unchanged.  The traced M puts a dense
    # trinomial near degree 2^21 (tens of MB); M = 10^12 runs only once the
    # traced run has shown that nothing grows with l.
    q = 3 ** k
    n = q * q - 1
    traced_m = 2 ** 21 // (q * (q - 1))
    for family in (1, 2, 3):
        for l in range(2, q + 1):
            code, base = _check_trinomial(capsys, k, family, l)
            tracemalloc.start()
            try:
                traced = _check_trinomial(capsys, k, family,
                                          l + (q - 1) * traced_m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20, (family, l, peak)
            huge = _check_trinomial(capsys, k, family, l + (q - 1) * 10 ** 12)
            for m, (got_code, report) in ((traced_m, traced), (10 ** 12, huge)):
                assert got_code == code
                assert report.pop("l") == l + (q - 1) * m
                assert report.pop("r") == base["r"] + n * m
                assert report.pop("exponents") == [e + n * m
                                                   for e in base["exponents"]]
                assert report == {key: value for key, value in base.items()
                                  if key not in ("l", "r", "exponents")}


def test_check_trinomial_outside_claims_exits_zero(capsys):
    # family 3 at k = 2 is outside every claim: report only
    code, out, _ = run(capsys, "check-g", "--k", "2", "--family", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert not payload["g_bijection"]
    assert payload["max_fiber_size"] > 1


def test_check_g_family2(capsys):
    code, out, _ = run(capsys, "check-g", "--k", "2", "--family", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["g_bijection"] and payload["max_fiber_size"] == 1
    assert payload["denominator_nonvanishing"]


def test_count_roots_all(capsys):
    code, out, _ = run(capsys, "count-roots", "--k", "1", "--family", "3",
                       "--t", "all", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["t"] for r in rows] == [1, 2, 3, 6]
    assert all(r["count"] == 1 and len(r["roots"]) == 1 for r in rows)


def test_count_roots_single_t(capsys):
    code, out, _ = run(capsys, "count-roots", "--k", "1", "--family", "2",
                       "--t", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["t"] == 2


def test_factors_explicit_polynomial(capsys):
    code, out, _ = run(capsys, "factors", "--k", "1",
                       "--poly", "0,0,0,0,0,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["quadratic_factors"] == [{"a": 0, "b": 0}]


def test_factors_fiber_polynomial(capsys):
    code, out, _ = run(capsys, "factors", "--k", "1", "--family", "3",
                       "--t", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # matches the harvest for t=1
    w = [x for x in conjlab.harvest_witnesses(3, ctx_create(1))
         if x.t == 1]
    got = {(f["a"], f["b"]) for f in payload["quadratic_factors"]}
    assert {(x.a, x.b) for x in w} <= got


def test_factors_requires_poly_or_family_t(capsys):
    code, _, err = run(capsys, "factors", "--k", "1")
    assert code == 1 and "factors needs" in err


def test_factors_validates_its_source_before_building_the_field(capsys, monkeypatch):
    # a missing source or --t all is a usage error found before the field
    # is built, as in count-roots
    def no_field(*args):
        raise AssertionError("field built before the source was validated")

    monkeypatch.setattr(cli, "_FACTORS_CTX", no_field)
    for argv, message in (
            (("--k", "2"), "factors needs --poly or both --family and --t"),
            (("--k", "2", "--family", "3", "--t", "all"),
             "factors needs a single --t, not 'all'")):
        code, out, err = run(capsys, "factors", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# factors runs on the table-free context

def _factors_both_ways(capsys, monkeypatch, ctx_for, argv):
    """(exit, stdout, stderr) of factors on the table-free context and on
    the memoised table context, swapped in through cli._FACTORS_CTX."""
    monkeypatch.setattr(cli, "_FACTORS_CTX", gf3m._TableFreeCtx)
    free = run(capsys, *argv)
    monkeypatch.setattr(cli, "_FACTORS_CTX", ctx_for)
    return free, run(capsys, *argv)


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6))
def test_factors_matches_the_table_path(capsys, monkeypatch, ctx_for, k):
    # every fiber of every family up to k = 4, twelve sampled ones above
    ctx = ctx_for(k)
    mu = sorted(mu_enumerate(ctx, ctx.q + 1))
    if k >= 5:
        mu = sorted(random.Random(k).sample(mu, 12))
    for family in (1, 2, 3):
        for t in mu:
            free, tables = _factors_both_ways(
                capsys, monkeypatch, ctx_for,
                ["factors", "--k", str(k), "--family", str(family), "--t", str(t),
                 "--format", "json"])
            assert free == tables and free[0] == 0, (family, t)
    poly = ",".join(str(random.Random(k).randrange(ctx.order)) for _ in range(9))
    free, tables = _factors_both_ways(capsys, monkeypatch, ctx_for,
                                      ["factors", "--k", str(k), "--poly", poly + ",1"])
    assert free == tables and free[0] == 0


# sha1 of the stdout of each command, as the table path printed it
FACTORS_SHA1 = {
    "factors --k 6 --max-k 8 --family 2 --t 188086 --format json":
        "37bcc6b93b4437ce81a80b77925674e2a3df5c88",
    "factors --k 6 --max-k 8 --family 3 --t 188590 --format json":
        "45b21710ce3e4676eb1ef39649901666cda3bff5",
    "factors --k 7 --max-k 8 --family 2 --t 2341032 --format json":
        "eac9f7f3f6022e347c9b4447110bff29f3dc1d15",
    "factors --k 7 --max-k 8 --family 3 --t 1587648 --format json":
        "dbea3b452ed8ad6791c53c9ee612bcc922c23728",
    "factors --k 8 --max-k 8 --family 2 --t 21250000 --format json":
        "1bb50e2035561aacc2a0ad0940144ea074be6c30",
    "factors --k 8 --max-k 8 --family 3 --t 14221417 --format json":
        "d9b9062ce28f26862243b95188bcef35396bc047",
}


@pytest.mark.parametrize("argv", sorted(FACTORS_SHA1))
def test_factors_reports_are_unchanged_at_k6_to_k8(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == FACTORS_SHA1[argv]


@pytest.mark.parametrize("source", (("--family", "3", "--t", "188590"),
                                    ("--poly", "369863,2,188590,2,188590,1")))
def test_factors_builds_no_field_tables(capsys, monkeypatch, source):
    def no_tables(self, *args):
        raise AssertionError("factors built a FieldCtx")

    monkeypatch.setattr(gf3m.FieldCtx, "__init__", no_tables)
    code, out, err = run(capsys, "factors", "--k", "6", *source, "--format", "json")
    assert code == 0, err
    assert json.loads(out)["quadratic_factors"]


@pytest.mark.parametrize(("argv", "stderr"), (
    ("--k 0 --family 3 --t 1", "unsupported degree: k=0 outside 1..6"),
    ("--k 7 --family 3 --t 1", "unsupported degree: k=7 outside 1..6"),
    ("--k 2 --modulus 1,0,0,0,1 --family 3 --t 1", "reducible modulus: 1,0,0,0,1"),
    ("--k 2 --modulus 1,0,1,1,2 --family 3 --t 1",
     "modulus must be monic of degree 4, got 1,0,1,1,2"),
    ("--k 2 --modulus 1,0,1 --family 3 --t 1",
     "modulus must be monic of degree 4, got 1,0,1"),
    ("--k 2 --family 3 --t soon", "--t expects an element encoding or 'all', got 'soon'"),
    ("--k 2 --family 3 --t 4", "t=4 not in mu_(q+1)"),
    ("--k 2 --family 3 --t -1", "t=-1 not in mu_(q+1)"),
    ("--k 2 --family 3 --t 81", "t=81 not in mu_(q+1)"),
    ("--k 2 --family 3 --t all", "factors needs a single --t, not 'all'"),
    ("--k 2 --poly 1,x,2", "malformed polynomial '1,x,2'"),
    ("--k 2 --poly 1,81,1", "bad coefficient 81"),
    ("--k 2 --poly 1,1", "degree must be at least 2"),
    ("--k 2 --poly 1,0,1 --family 3 --t 1",
     "factors takes --poly or --family and --t, not both"),
    ("--k 2 --poly 1,0,1 --t 1", "factors takes --poly or --family and --t, not both"),
))
def test_factors_usage_errors_are_unchanged(capsys, argv, stderr):
    # the exit codes and messages the table path gave; --poly mixed with
    # --family or --t, once silently ignored, is refused too
    code, out, err = run(capsys, "factors", *argv.split())
    assert (code, out, err) == (1, "", f"error: {stderr}\n")


@pytest.mark.parametrize(("k", "family", "t"), ((9, 2, 342420908), (10, 3, 78105026)))
def test_factors_runs_past_the_table_wall(capsys, k, family, t):
    # t = 4^(q-1) and 5^(q-1): x^(q-1) lies in mu_(q+1) for every x != 0
    code, out, err = run(capsys, "factors", "--k", str(k), "--max-k", str(k),
                         "--family", str(family), "--t", str(t), "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    ctx = gf3m._TableFreeCtx(k, max_k=k)
    fiber = conjlab.fiber_polynomial(family, t, ctx)
    assert payload["poly"] == fiber.to_text()
    assert payload["quadratic_factors"]
    for pair in payload["quadratic_factors"]:
        assert (fiber % Poly(ctx, (pair["b"], pair["a"], 1))).is_zero, pair


def test_factors_past_the_table_free_bound_exits_one_at_once(capsys):
    k = str(gf3m._TABLE_FREE_MAX_K + 1)
    start = time.perf_counter()
    code, _, err = run(capsys, "factors", "--k", k, "--max-k", k, "--family", "3",
                       "--t", "1")
    assert code == 1 and "too large" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv", (("field-info",), ("lemma-verify", "--family", "3"),
                                  ("uv-scan",), ("check-g", "--family", "2"),
                                  ("count-roots", "--family", "2", "--t", "1")))
def test_only_factors_runs_at_k9(capsys, argv):
    code, _, err = run(capsys, argv[0], "--k", "9", "--max-k", "9", *argv[1:])
    assert code == 1 and "too large" in err


def test_lemma_verify_single_t_factors_one_fiber(capsys, monkeypatch):
    # --t 1 searches the fiber at t = 1 only, not all q + 1 = 10 fibers
    calls = []
    plain = conjlab.quadratic_factors

    def counted(poly):
        calls.append(poly)
        return plain(poly)
    monkeypatch.setattr(conjlab, "quadratic_factors", counted)
    code, _, _ = run(capsys, "lemma-verify", "--k", "2", "--family", "3",
                     "--t", "1", "--format", "json")
    assert code == 0 and len(calls) == 1


def test_lemma_verify_all_searches_one_fiber_per_orbit(capsys, monkeypatch):
    # the q + 1 = 82 fibers at k = 4 fall into 6 orbits under Frobenius and
    # negation, and each orbit is searched once
    calls = []
    plain = conjlab.quadratic_factors

    def counted(poly):
        calls.append(poly)
        return plain(poly)
    monkeypatch.setattr(conjlab, "quadratic_factors", counted)
    code, _, _ = run(capsys, "lemma-verify", "--k", "4", "--family", "3",
                     "--format", "json")
    assert code == 0 and len(calls) == 6


@pytest.mark.parametrize("family", (2, 3))
def test_lemma_verify_builds_each_fiber_polynomial_once_for_its_witnesses(
        capsys, monkeypatch, family):
    # at most one build for the orbit search and one for the derivation
    # checks of every witness at t, each of which still divides it exactly
    built = []
    plain = conjlab.fiber_polynomial

    def counted(family, t, ctx):
        built.append(t)
        return plain(family, t, ctx)
    monkeypatch.setattr(conjlab, "fiber_polynomial", counted)
    code, out, _ = run(capsys, "lemma-verify", "--k", "3", "--family", str(family),
                       "--format", "json")
    rows = json.loads(out)
    assert code == 0 and len(rows) > len({r["t"] for r in rows})
    assert max(built.count(t) for t in built) <= 2


def test_lemma_verify_family3(capsys):
    code, out, _ = run(capsys, "lemma-verify", "--k", "1", "--family", "3",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert all(r["relation_ok"] and r["derivation_ok"] for r in rows)
    assert {r["lemma_case"] for r in rows} == {"FifthDegreeRelation"}


def test_lemma_verify_family2_at_k3(capsys):
    code, out, _ = run(capsys, "lemma-verify", "--k", "3", "--family", "2",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    cases = {r["lemma_case"] for r in rows}
    assert cases == {"EpsilonCase", "ThetaCase"}
    assert all(r["relation_ok"] and r["derivation_ok"] for r in rows)


def test_lemma_verify_rejects_family1(capsys):
    code, _, err = run(capsys, "lemma-verify", "--k", "1", "--family", "1")
    assert code == 1


def test_uv_scan(capsys):
    code, out, _ = run(capsys, "uv-scan", "--k", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_identities_hold"]
    assert payload["witness_count"] == 12
    assert payload["failures"] == []


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "2", "--k", "1,2",
                       "--l", "1,2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    by_key = {(r["family"], r["k"], r["l"]): r for r in rows}
    assert by_key[(2, 1, 1)]["direct_bijection"] is True
    assert "l too small" in by_key[(2, 2, 1)]["error"]


def test_sweep_honours_modulus(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "2", "--k", "1", "--l", "1",
                       "--modulus", "2,1,1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["modulus"] for r in rows] == ["2,1,1"]
    assert rows[0]["error"] is None and rows[0]["direct_bijection"]


def test_sweep_error_rows_label_the_parsed_modulus(capsys):
    # the k = 1 modulus is the wrong degree at k = 2; both rows carry the
    # canonical spelling, not the argument text
    code, out, _ = run(capsys, "sweep", "--family", "2", "--k", "1,2",
                       "--l", "2", "--modulus", " 1,0,1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["modulus"] for r in rows] == ["1,0,1", "1,0,1"]
    assert rows[0]["error"] is None and "degree 4" in rows[1]["error"]


def test_sweep_rejects_malformed_modulus(capsys):
    code, out, err = run(capsys, "sweep", "--family", "2", "--k", "1",
                         "--l", "1", "--modulus", "9,9")
    assert code == 1 and out == ""
    assert "malformed modulus" in err


def test_sweep_repeated_k_and_l_give_one_row(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "2", "--k", "1,1",
                       "--l", "1,1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [(r["k"], r["l"]) for r in rows] == [(1, 1)]


# ---------------------------------------------------------------------------
# output formats

def test_sweep_json_runs_are_byte_identical(capsys):
    args = ("sweep", "--family", "2", "--k", "1,2", "--l", "1,2,3",
            "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_csv_round_trip(capsys):
    argv = ("sweep", "--family", "3", "--k", "1,2", "--l", "2,3")
    _, json_out, _ = run(capsys, *argv, "--format", "json")
    _, csv_out, _ = run(capsys, *argv, "--format", "csv")
    assert csv_out.splitlines()[0] == ",".join(cli.SWEEP_COLUMNS)
    assert parse_sweep_csv(csv_out) == json.loads(json_out)


def test_text_format_is_key_value(capsys):
    code, out, _ = run(capsys, "field-info", "--k", "1", "--format", "text")
    assert code == 0
    assert "alpha: 4" in out.splitlines()
    assert "theta: " in out  # None renders as empty


def test_output_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "field-info", "--k", "1", "--format", "json",
                       "--output", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["q"] == 3


def test_output_failure_exits_one(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code, _, err = run(capsys, "field-info", "--k", "1",
                       "--output", str(path))
    assert code == 1
    assert "cannot write report" in err


# ---------------------------------------------------------------------------
# usage errors and exit codes

@pytest.mark.parametrize("argv", (
    ("unknown-command",),
    ("field-info",),                        # missing --k
    ("field-info", "--k", "zap"),
    ("check-trinomial", "--k", "1", "--family", "9", "--l", "1"),
    ("field-info", "--k", "1", "--format", "yaml"),
    ("sweep", "--family", "2", "--k", "1;2", "--l", "1"),
    ("sweep", "--family", "2", "--k", "1", "--l", "1", "--parallelism", "2"),
    ("factors", "--k", "1", "--family", "3", "--t", "all"),
))
def test_usage_errors_exit_one(capsys, argv):
    code = main(list(argv))
    capsys.readouterr()
    assert code == 1


def test_bad_modulus_exits_one(capsys):
    code, _, err = run(capsys, "field-info", "--k", "1", "--modulus", "1,0,3")
    assert code == 1 and "malformed modulus" in err
    code, _, err = run(capsys, "field-info", "--k", "1", "--modulus", "2,0,1")
    assert code == 1 and "reducible" in err


def test_k_out_of_range_exits_one(capsys):
    code, _, err = run(capsys, "field-info", "--k", "9")
    assert code == 1 and "unsupported degree" in err


def test_field_too_large_for_int32_tables_exits_one_at_once(capsys):
    # k = 10 overflows the int32 tables; k = 9 fits them but would take
    # about 13 GB
    for k in ("10", "9"):
        start = time.perf_counter()
        code, _, err = run(capsys, "check-trinomial", "--k", k, "--max-k", k,
                           "--family", "2", "--l", "2")
        assert code == 1 and "too large" in err
        assert time.perf_counter() - start < 1


def test_t_outside_mu_exits_one(capsys):
    code, _, err = run(capsys, "count-roots", "--k", "1", "--family", "2",
                       "--t", "4")
    assert code == 1 and "not in mu" in err
    code, _, err = run(capsys, "count-roots", "--k", "1", "--family", "2",
                       "--t", "soon")
    assert code == 1 and "--t expects" in err


def test_count_roots_validates_t_before_building_the_fibers(capsys, monkeypatch):
    # a bad --t is a usage error found before any fiber work, as in factors
    # and lemma-verify
    def no_fibers(family, ctx):
        raise AssertionError("fibers built before --t was validated")

    monkeypatch.setattr(conjlab, "_fiber_roots", no_fibers)
    for t, message in (("4", "not in mu"), ("soon", "--t expects")):
        code, _, err = run(capsys, "count-roots", "--k", "1", "--family", "2",
                           "--t", t)
        assert code == 1 and message in err


def test_verification_errors_exit_two(capsys, monkeypatch):
    # g(x) = x + 1 sends x = -1 to 0, outside mu_{q+1}
    monkeypatch.setattr(conjlab, "fractional_map",
                        lambda family, ctx: conjlab.FractionalMap(
                            family, Poly(ctx, (1, 1)), Poly(ctx, (1,))))
    code = main(["check-g", "--k", "1", "--family", "2"])
    _, err = capsys.readouterr()
    assert code == 2
    assert "verification failed" in err and "escapes mu_{q+1}" in err


def test_vanishing_denominator_is_reported(capsys, monkeypatch):
    # g = (x - 1)^q / (x - 1) = -1/x on mu_{q+1} \ {1}; D vanishes at x = 1
    monkeypatch.setattr(conjlab, "fractional_map", vanishing_denominator_map)
    ctx = ctx_create(1)
    assert conjlab._g_table(2, ctx)[1] is None
    with pytest.raises(ValueError, match="denominator vanishes at x=1"):
        conjlab.g_permutes_mu(2, ctx)
    code, out, _ = run(capsys, "check-g", "--k", "1", "--family", "2",
                       "--format", "json")
    payload = json.loads(out)
    assert code == 2 and not payload["denominator_nonvanishing"]
    assert not payload["g_bijection"] and payload["max_fiber_size"] == 1
    # x = 1 is in no fiber, so the family-2 fiber at t = 1/g(1) = -1 is empty
    code, out, _ = run(capsys, "count-roots", "--k", "1", "--family", "2",
                       "--t", "all", "--format", "json")
    assert code == 2
    assert [r["t"] for r in json.loads(out) if r["count"] == 0] == [2]


@pytest.mark.parametrize("vanishing", (False, True), ids=("g", "vanishing-D"))
def test_check_g_and_count_roots_agree_on_every_claim(capsys, monkeypatch,
                                                       vanishing):
    # one rule per claim: every fiber holds exactly one root
    if vanishing:
        monkeypatch.setattr(conjlab, "fractional_map", vanishing_denominator_map)
    for k in (1, 2, 3, 4):
        for family in ("1", "2", "3"):
            code_g, _, _ = run(capsys, "check-g", "--k", str(k),
                               "--family", family)
            code_c, _, _ = run(capsys, "count-roots", "--k", str(k),
                               "--family", family, "--t", "all")
            assert code_g == code_c, (k, family, vanishing)
            claimed = cli.claimed_permutation(int(family), k)
            assert code_g == (2 if vanishing and claimed else 0), (k, family)


def test_commands_build_fields_through_the_current_ctx_create(capsys, monkeypatch):
    # a wrapper installed after import (a tracer, a test double) sees every
    # field a command builds
    calls = []
    plain = gf3m.ctx_create

    def counted(*args):
        calls.append(args)
        return plain(*args)
    monkeypatch.setattr(gf3m, "ctx_create", counted)
    code, _, _ = run(capsys, "field-info", "--k", "1")
    assert code == 0 and calls == [(1, None, 6)]


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    # in-process callers pay for the nine subparsers once, not per main call
    calls = []
    plain_build = cli.build_parser

    def counted():
        calls.append(1)
        return plain_build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (["field-info", "--k", "1"], ["mu", "--k", "1", "--d", "2"],
                 ["field-info", "--k", "0"]):
        main(argv)
    capsys.readouterr()
    assert len(calls) == 1


def test_assertion_errors_are_internal_bugs_not_exit_two(capsys, monkeypatch):
    # only UsageError (exit 1) and VerificationError (exit 2) are caught
    for exc_type in (AssertionError, ValueError, ZeroDivisionError):
        def boom(args):
            raise exc_type("internal check tripped")
        monkeypatch.setattr(cli, "_cmd_field_info", boom)
        with pytest.raises(exc_type, match="internal check tripped"):
            main(["field-info", "--k", "1"])
        _, err = capsys.readouterr()
        assert "verification failed" not in err and "error:" not in err


@pytest.mark.parametrize("argv,evals", (
    (("check-g", "--k", "2", "--family", "2"), 20),
    (("count-roots", "--k", "2", "--family", "2", "--t", "all"), 20),
    (("check-trinomial", "--k", "2", "--family", "2", "--l", "2"), 30),
    # 10 per l for the index form, 20 for one g table
    (("sweep", "--k", "2", "--family", "2", "--l", "2,3,4"), 50),
), ids=("check-g", "count-roots", "check-trinomial", "sweep"))
def test_g_is_evaluated_once_per_x(capsys, monkeypatch, argv, evals):
    # q + 1 = 10 at k = 2: N and D are evaluated once per x of mu_{q+1} in
    # every command, and once per (family, k) in a sweep
    calls = []
    plain_eval = Poly.eval

    def counted(self, x):
        calls.append(x)
        return plain_eval(self, x)
    monkeypatch.setattr(Poly, "eval", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0 and len(calls) == evals


def test_sweep_claim_violation_exits_two(capsys, monkeypatch):
    # a fabricated row where the two routes disagree must flip the exit code
    bad = conjlab.SweepRow(family=2, k=1, l=1, modulus="1,0,1", gcd_ok=True,
                           direct_bijection=True, zieve_cond1=False,
                           zieve_cond2=True, g_bijection=True,
                           max_fiber_size=1, witness_count=0,
                           lemma_case_histogram={"EpsilonCase": 0,
                                                 "ThetaCase": 0,
                                                 "FifthDegreeRelation": 0,
                                                 "NoMatch": 0},
                           error=None)
    monkeypatch.setattr(conjlab, "sweep",
                        lambda *a, **kw: conjlab.SweepReport([bad]))
    code = main(["sweep", "--family", "2", "--k", "1", "--l", "1",
                 "--format", "json"])
    capsys.readouterr()
    assert code == 2


def test_row_violation_predicate():
    base = dict(family=2, k=1, l=1, modulus="1,0,1", gcd_ok=True,
                direct_bijection=True, zieve_cond1=True, zieve_cond2=True,
                g_bijection=True, max_fiber_size=1, witness_count=2,
                lemma_case_histogram={"EpsilonCase": 2, "ThetaCase": 0,
                                      "FifthDegreeRelation": 0, "NoMatch": 0},
                error=None)
    ok = conjlab.SweepRow(**base)
    assert not cli._row_violates_claims(ok)
    assert not cli._row_violates_claims(
        conjlab.SweepRow(**{**base, "error": "l too small",
                            "direct_bijection": None, "zieve_cond1": None,
                            "zieve_cond2": None, "g_bijection": None,
                            "max_fiber_size": None, "witness_count": None,
                            "lemma_case_histogram": None}))
    assert cli._row_violates_claims(
        conjlab.SweepRow(**{**base, "zieve_cond2": False}))
    assert cli._row_violates_claims(
        conjlab.SweepRow(**{**base, "g_bijection": False}))
    assert cli._row_violates_claims(
        conjlab.SweepRow(**{**base, "max_fiber_size": 2}))
    assert cli._row_violates_claims(
        conjlab.SweepRow(**{**base,
                            "lemma_case_histogram": {"EpsilonCase": 1,
                                                     "ThetaCase": 0,
                                                     "FifthDegreeRelation": 0,
                                                     "NoMatch": 1}}))
    # a degree-5 factor off the quintic relation is flagged as well; the
    # family-1 histogram is exploratory and never flagged
    family3 = {**base, "family": 3,
               "lemma_case_histogram": {"EpsilonCase": 0, "ThetaCase": 0,
                                        "FifthDegreeRelation": 1,
                                        "NoMatch": 1}}
    assert cli._row_violates_claims(conjlab.SweepRow(**family3))
    assert not cli._row_violates_claims(
        conjlab.SweepRow(**{**family3, "family": 1, "k": 2}))
    # outside the claims nothing is enforced beyond route agreement
    outside = conjlab.SweepRow(**{**base, "family": 3, "k": 2,
                                  "direct_bijection": False,
                                  "zieve_cond1": True, "zieve_cond2": False,
                                  "g_bijection": False, "max_fiber_size": 2,
                                  "lemma_case_histogram": {
                                      "EpsilonCase": 0, "ThetaCase": 0,
                                      "FifthDegreeRelation": 0, "NoMatch": 0}})
    assert not cli._row_violates_claims(outside)


def test_claimed_permutation_matrix():
    assert cli.claimed_permutation(2, 1)
    assert cli.claimed_permutation(2, 5)
    assert cli.claimed_permutation(3, 1)
    assert not cli.claimed_permutation(3, 2)
    assert cli.claimed_permutation(3, 4)
    assert not cli.claimed_permutation(3, 6)
    assert not cli.claimed_permutation(1, 1)
    assert cli.claimed_permutation(1, 2)
    assert not cli.claimed_permutation(2, 1, gcd_ok=False)


# ---------------------------------------------------------------------------
# numpy is imported only by the commands that vectorise over the field

NUMPY_PROBE = """
import contextlib, io, json, sys
dataclasses_preloaded = "dataclasses" in sys.modules
import trinolab
from trinolab import cli
for argv in (["factors", "--k", "5", "--family", "3", "--t", "1"],
             ["factors", "--k", "6", "--family", "3", "--t", "188590"],
             ["lemma-verify", "--k", "4", "--family", "2"], ["uv-scan", "--k", "4"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
before = "numpy" in sys.modules
dataclasses_loaded = "dataclasses" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[1:])
print(json.dumps([before, "numpy" in sys.modules, code, out.getvalue(),
                  dataclasses_preloaded, dataclasses_loaded]))
"""


def test_factor_search_commands_do_not_import_numpy():
    argv = ["check-trinomial", "--k", "2", "--family", "2", "--l", "2", "--format", "json"]
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (before, after, code, out,
     dataclasses_preloaded, dataclasses_loaded) = json.loads(proc.stdout)
    golden = json.loads((pathlib.Path(__file__).with_name("golden")
                         / "cli_grid.json").read_text())[" ".join(argv)]
    assert not before
    assert after  # check-trinomial's direct route still runs on numpy
    assert {"exit": code, "stdout": out} == golden
    # the records are NamedTuples: the package and its factor search never
    # import dataclasses themselves
    assert dataclasses_preloaded or not dataclasses_loaded
