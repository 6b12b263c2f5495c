"""Command-line front end.

Commands: field-info, mu, check-trinomial, check-g, count-roots, factors,
lemma-verify, uv-scan, sweep.  Reports are emitted as json, csv or text and
are byte-identical across runs with the same arguments: JSON keys are sorted,
CSV columns are fixed, and nothing time- or host-dependent enters the payload.

Exit codes: 0 success, 1 usage or input error, 2 when a property the analysis
asserts fails (a fiber without exactly one root inside the claimed range, an
unclassified quadratic factor, disagreeing permutation routes, a
VerificationError).
Every other exception (AssertionError, ValueError, ZeroDivisionError, ...)
is an internal bug and is not caught: inputs are validated up front and
turned into UsageError.
"""

import argparse
import csv
import io
import json
import sys
from typing import Optional

from . import conjlab, gf3m, permtest
from .polyring import Poly, quadratic_factors

SWEEP_COLUMNS = conjlab.SweepRow._fields
_SWEEP_INT_COLUMNS = {name for name, kind
                      in conjlab.SweepRow.__annotations__.items()
                      if kind in (int, Optional[int])}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> list:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}")


def claimed_permutation(family: int, k: int, gcd_ok: bool = True) -> bool:
    """Whether the analysis asserts this family permutes at this k (given the
    gcd side condition): family 2 for every k, family 3 for k != 2 (mod 4),
    family 1 for even k."""
    if not gcd_ok:
        return False
    if family == 2:
        return True
    if family == 3:
        return k % 4 != 2
    return k % 2 == 0


# ---------------------------------------------------------------------------
# report writing

def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def _columns_for(rows: list) -> list:
    keys = rows[0].keys()
    if set(keys) == set(SWEEP_COLUMNS):
        return list(SWEEP_COLUMNS)
    return sorted(keys)


def report_write(report, fmt: str, path: Optional[str] = None):
    """Serialize a report (dict or list of dicts) deterministically."""
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        rows = report if isinstance(report, list) else [report]
        buf = io.StringIO()
        writer = csv.writer(buf)
        if rows:
            columns = _columns_for(rows)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_csv_cell(row.get(c)) for c in columns])
        text = buf.getvalue()
    elif fmt == "text":
        rows = report if isinstance(report, list) else [report]
        lines = []
        for row in rows:
            for key in _columns_for([row]):
                lines.append(f"{key}: {_csv_cell(row[key])}")
            lines.append("")
        text = "\n".join(lines)
    else:
        raise UsageError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write report to {path}: {exc}") from exc


def parse_sweep_csv(text: str) -> list:
    """Inverse of the csv writer for sweep reports (used for round trips)."""
    rows = []
    for record in csv.DictReader(io.StringIO(text)):
        row = {}
        for key, raw in record.items():
            if raw == "":
                row[key] = None
            elif key in _SWEEP_INT_COLUMNS:
                row[key] = int(raw)
            elif key == "lemma_case_histogram":
                row[key] = json.loads(raw)
            elif raw in ("true", "false"):
                row[key] = raw == "true"
            else:
                row[key] = raw
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# command handlers; each returns (exit_code, report)

def _make_ctx(args):
    """The field of args, a gf3m.FieldCtx, which refuses a k past --max-k or
    past its own set-up bound before any work."""
    modulus = parse_modulus_arg(args.modulus)
    try:
        # looked up per call, as the handlers are in main
        return gf3m.FieldCtx(args.k, modulus, args.max_k)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def parse_modulus_arg(text: Optional[str]):
    if text is None:
        return None
    try:
        return gf3m.parse_modulus(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _t_values(args, ctx) -> list:
    if args.t == "all":
        return sorted(permtest.mu_enumerate(ctx, ctx.q + 1))
    try:
        t = int(args.t)
    except ValueError:
        raise UsageError(f"--t expects an element encoding or 'all', got {args.t!r}")
    try:
        conjlab._require_in_mu(t, ctx)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return [t]


def _cmd_field_info(args):
    ctx = _make_ctx(args)
    sc = ctx.special_constants()
    return 0, {
        "k": ctx.k, "m": ctx.m, "q": ctx.q, "order": ctx.order,
        "modulus": gf3m.format_modulus(ctx.modulus),
        "alpha": ctx.alpha, "epsilon": sc.epsilon, "theta": sc.theta,
        "sqrt_eps_minus_1": sc.sqrt_eps_minus_1,
    }


def _cmd_mu(args):
    # the element list is bounded before the field is built
    size = args.d * gf3m._MU_BYTES_PER_ELEMENT
    if size > gf3m.TABLE_BYTES_CEILING:
        raise UsageError(f"mu_{args.d} too large: its element list would take about "
                         f"{size / 2 ** 30:.1f} GiB, above the "
                         f"{gf3m.TABLE_BYTES_CEILING // 2 ** 30} GiB ceiling")
    ctx = _make_ctx(args)
    try:
        mu = permtest.mu_enumerate(ctx, args.d)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return 0, {"k": ctx.k, "d": args.d, "elements": sorted(mu)}


def _cmd_check_trinomial(args):
    ctx = _make_ctx(args)
    try:
        spec = conjlab.trinomial_family(args.family, args.l, ctx)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    r, h, direct, cond1, cond2 = conjlab._routes(spec, ctx)
    g_bij = conjlab._g_bijection(conjlab._fiber_roots(args.family, ctx))
    report = {
        "family": args.family, "k": ctx.k, "l": args.l,
        "modulus": gf3m.format_modulus(ctx.modulus),
        "exponents": list(spec.exponents), "gcd_ok": spec.gcd_ok,
        "r": r, "h": h.to_text(),
        "direct_bijection": direct, "zieve_cond1": cond1, "zieve_cond2": cond2,
        "g_bijection": g_bij,
    }
    report["routes_agree"] = _routes_agree(report)
    return (2 if _routes_violate_claims(report) else 0), report


def _cmd_check_g(args):
    ctx = _make_ctx(args)
    fibers = conjlab._fiber_roots(args.family, ctx)
    sizes = [len(roots) for roots in fibers.values()]
    g_bij = conjlab._g_bijection(fibers)
    report = {
        "family": args.family, "k": ctx.k,
        "modulus": gf3m.format_modulus(ctx.modulus), "mu_size": ctx.q + 1,
        "denominator_nonvanishing": sum(sizes) == ctx.q + 1,
        "g_bijection": g_bij, "max_fiber_size": max(sizes),
    }
    failed = claimed_permutation(args.family, ctx.k) and not g_bij
    return (2 if failed else 0), report


def _cmd_count_roots(args):
    ctx = _make_ctx(args)
    rows = []
    violation = False
    claimed = claimed_permutation(args.family, ctx.k)
    t_values = _t_values(args, ctx)  # a bad --t exits before the fibers are built
    fibers = conjlab._fiber_roots(args.family, ctx)
    for t in t_values:
        roots = fibers[t]
        if claimed and len(roots) != 1:
            violation = True
        rows.append({"family": args.family, "k": ctx.k, "t": t,
                     "count": len(roots), "roots": roots})
    return (2 if violation else 0), rows


def _cmd_factors(args):
    # the source is checked before the field is built
    if args.poly is not None and (args.family is not None or args.t is not None):
        raise UsageError("factors takes --poly or --family and --t, not both")
    if args.poly is None and (args.family is None or args.t is None):
        raise UsageError("factors needs --poly or both --family and --t")
    if args.t == "all":
        raise UsageError("factors needs a single --t, not 'all'")
    ctx = _make_ctx(args)
    if args.poly is not None:
        try:
            poly = Poly.from_text(ctx, args.poly)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    else:
        poly = conjlab.fiber_polynomial(args.family, _t_values(args, ctx)[0], ctx)
    try:
        pairs = quadratic_factors(poly)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = [{"a": a, "b": b} for a, b in pairs]
    return 0, {"k": ctx.k, "modulus": gf3m.format_modulus(ctx.modulus),
               "poly": poly.to_text(), "quadratic_factors": rows}


def _cmd_lemma_verify(args):
    ctx = _make_ctx(args)
    # conjlab's walker raises unless every searched fiber's factors divide,
    # and carries that replay along each orbit, so derivation_ok reads true
    rows = [{"family": args.family, "k": ctx.k, "t": w.t, "a": w.a, "b": w.b,
             "lemma_case": w.lemma_case.value,
             "relation_ok": w.lemma_case is not conjlab.LemmaCase.NO_MATCH,
             "derivation_ok": True}
            for _, witnesses in conjlab._fiber_witnesses(
                args.family, _t_values(args, ctx), ctx)
            for w in witnesses]
    failed = not all(row["relation_ok"] for row in rows)
    return (2 if failed else 0), rows


def _cmd_uv_scan(args):
    ctx = _make_ctx(args)
    report = conjlab.uv_identity_check(ctx)
    rows = [w._asdict() for w in report.witnesses]
    payload = {"k": ctx.k, "modulus": gf3m.format_modulus(ctx.modulus),
               "witness_count": len(rows), "all_identities_hold": report.ok,
               "witnesses": rows,
               "failures": [list(f) for f in report.failures]}
    return (0 if report.ok else 2), payload


def _routes_agree(report: dict) -> bool:
    # the subgroup route carries the full criterion only when gcd_ok holds
    direct = report["direct_bijection"]
    return (direct == (report["zieve_cond1"] and report["zieve_cond2"])
            and (not report["gcd_ok"] or report["g_bijection"] == direct))


def _routes_violate_claims(report: dict) -> bool:
    return not _routes_agree(report) or (
        claimed_permutation(report["family"], report["k"], report["gcd_ok"])
        and not report["direct_bijection"])


def _row_violates_claims(row: conjlab.SweepRow) -> bool:
    if row.error is not None:
        return False
    if _routes_violate_claims(row._asdict()):
        return True
    if (claimed_permutation(row.family, row.k, row.gcd_ok)
            and row.max_fiber_size != 1):
        return True
    return row.family in (2, 3) and row.lemma_case_histogram["NoMatch"] > 0


def _cmd_sweep(args):
    modulus = parse_modulus_arg(args.modulus)
    report = conjlab.sweep(args.family, _int_list(args.k), _int_list(args.l),
                           modulus, args.max_k)
    rows = [row._asdict() for row in report.rows]
    failed = any(_row_violates_claims(row) for row in report.rows)
    return (2 if failed else 0), rows


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="trinolab",
                     description="Exact permutation-trinomial checks over GF(3^2k)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k="single"):
        if k == "single":
            p.add_argument("--k", type=int, required=True)
        else:
            p.add_argument("--k", required=True, help="comma-separated list")
        p.add_argument("--modulus", default=None,
                       help='trit list low degree first, e.g. "1,0,1"')
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--output", default=None)
        p.add_argument("--max-k", dest="max_k", type=int,
                       default=gf3m.DEFAULT_MAX_K)

    common(sub.add_parser("field-info"))

    p = sub.add_parser("mu");  common(p)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("check-trinomial");  common(p)
    p.add_argument("--family", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--l", type=int, required=True)

    p = sub.add_parser("check-g");  common(p)
    p.add_argument("--family", type=int, choices=(1, 2, 3), required=True)

    p = sub.add_parser("count-roots");  common(p)
    p.add_argument("--family", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--t", required=True, help="element encoding or 'all'")

    p = sub.add_parser("factors");  common(p)
    p.add_argument("--poly", default=None, help='coefficients "c0,c1,...,cn"')
    p.add_argument("--family", type=int, choices=(1, 2, 3), default=None)
    p.add_argument("--t", default=None)

    p = sub.add_parser("lemma-verify");  common(p)
    p.add_argument("--family", type=int, choices=(2, 3), required=True)
    p.add_argument("--t", default="all")

    common(sub.add_parser("uv-scan"))

    p = sub.add_parser("sweep");  common(p, k="list")
    p.add_argument("--family", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--l", required=True, help="comma-separated list")

    return parser


_PARSER: Optional[_Parser] = None  # built by the first main call


def main(argv=None) -> int:
    global _PARSER
    try:
        if _PARSER is None:
            _PARSER = build_parser()
        args = _PARSER.parse_args(argv)
        # looked up per call, not bound into the parser, so that a handler
        # replaced after the first call (a test double, a tracing wrapper)
        # is the one that runs
        code, report = globals()["_cmd_" + args.command.replace("-", "_")](args)
        report_write(report, args.format, args.output)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except conjlab.VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
