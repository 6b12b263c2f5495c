"""Output checks for benchmark jobs.

A job passes when it exits 0, its stdout is byte-identical to the golden
captured for the same argv (goldens exist for the default seed's first job
list), and the report's own claims hold: the permutation routes agree, no
fiber the analysis claims has more than one root, and every relation and
derivation check is true.  The claim rules are restated here from the paper,
not imported from the program under test.
"""

import csv
import io
import json
from pathlib import Path
from typing import Optional

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_name(argv: list) -> str:
    return "_".join(a.lstrip("-").replace(",", "-") for a in argv) + ".out"


def claimed_permutation(family: int, k: int, gcd_ok: bool = True) -> bool:
    """Family 2 permutes for every k, family 3 for k != 2 (mod 4), family 1
    for even k; each only under the gcd side condition."""
    if not gcd_ok:
        return False
    if family == 2:
        return True
    if family == 3:
        return k % 4 != 2
    return k % 2 == 0


def _option(argv: list, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _csv_bool(text: str) -> Optional[bool]:
    return {"true": True, "false": False, "": None}[text]


def _check_trinomial(argv, text):
    r = json.loads(text)
    if not r["routes_agree"]:
        return "routes disagree"
    if claimed_permutation(r["family"], r["k"], r["gcd_ok"]) and not r["direct_bijection"]:
        return "claimed permutation is not a bijection"
    return None


def _count_roots(argv, text):
    rows = list(csv.DictReader(io.StringIO(text)))
    k, family = int(_option(argv, "--k")), int(_option(argv, "--family"))
    if _option(argv, "--t") == "all" and len(rows) != 3 ** k + 1:
        return f"{len(rows)} fibers, expected {3 ** k + 1}"
    claimed = claimed_permutation(family, k)
    for row in rows:
        count = int(row["count"])
        if count != len(json.loads(row["roots"])):
            return f"fiber t={row['t']}: count does not match its roots"
        if claimed and count > 1:
            return f"claimed fiber t={row['t']} has {count} roots"
    return None


def _lemma_verify(argv, text):
    for row in json.loads(text):
        if not (row["relation_ok"] and row["derivation_ok"]):
            return f"lemma check fails at t={row['t']}"
    return None


def _uv_scan(argv, text):
    r = json.loads(text)
    if not r["all_identities_hold"] or r["failures"]:
        return "uv identities fail"
    if r["witness_count"] != len(r["witnesses"]):
        return "witness count does not match the witnesses"
    return None


def _factors(argv, text):
    r = json.loads(text)
    order = 3 ** (2 * int(_option(argv, "--k")))
    pairs = [(f["a"], f["b"]) for f in r["quadratic_factors"]]
    if pairs != sorted(set(pairs)):
        return "quadratic factors are not sorted and distinct"
    if not all(0 <= c < order for pair in pairs for c in pair):
        return "quadratic factor coefficient out of range"
    return None


def _sweep(argv, text):
    rows = list(csv.DictReader(io.StringIO(text)))
    expected = (len(_option(argv, "--k").split(","))
                * len(_option(argv, "--l").split(",")))
    if len(rows) != expected:
        return f"{len(rows)} sweep rows, expected {expected}"
    for row in rows:
        if row["error"]:
            continue
        where = f"family {row['family']} k={row['k']} l={row['l']}"
        direct = _csv_bool(row["direct_bijection"])
        gcd_ok = _csv_bool(row["gcd_ok"])
        zieve = _csv_bool(row["zieve_cond1"]) and _csv_bool(row["zieve_cond2"])
        if direct != zieve or (gcd_ok and _csv_bool(row["g_bijection"]) != direct):
            return f"routes disagree at {where}"
        if claimed_permutation(int(row["family"]), int(row["k"]), gcd_ok) \
                and not (direct and int(row["max_fiber_size"]) == 1):
            return f"claimed permutation fails at {where}"
    return None


CLAIMS = {"check-trinomial": _check_trinomial, "count-roots": _count_roots,
          "lemma-verify": _lemma_verify, "uv-scan": _uv_scan,
          "factors": _factors, "sweep": _sweep}


def check_output(argv: list, code: int, out: bytes) -> Optional[str]:
    """None when the job passed, else why it failed."""
    if code != 0:
        return f"exit code {code}"
    golden = GOLDEN_DIR / golden_name(argv)
    if golden.is_file() and golden.read_bytes() != out:
        return "output differs from the golden"
    try:
        return CLAIMS[argv[0]](argv, out.decode("utf-8"))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report: {exc!r}"
