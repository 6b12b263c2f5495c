"""Shared fixtures plus a tiny independent reference implementation.

The ``ref_*`` helpers recompute GF(3^m) arithmetic straight from polynomial
remainders, with no tables and no shared code, so the fast engine is checked
against something that cannot inherit its bugs.
"""

import itertools
import os
import pathlib

import pytest

from trinolab import conjlab, ctx_create, gf3m
from trinolab.polyring import Poly

# pytest finds the package through its pythonpath setting; child processes
# (the demos, acceptance criterion 10) find it through PYTHONPATH
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

_CTX_CACHE = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "::test_criterion" in nodeid:
                rows.append((nodeid.split("::")[-1], status == "passed"))
    if rows:
        terminalreporter.section("acceptance criteria")
        for name, passed in sorted(set(rows)):
            terminalreporter.write_line(
                ("PASS  " if passed else "FAIL  ") + name)


# block lengths for gf3m's numpy passes: the module's own, and a few indices,
# which split every field into many blocks with a short last one
BLOCK_LENS = (gf3m._BLOCK_LEN, 7)


def vanishing_denominator_map(family, ctx):
    """A stand-in for conjlab.fractional_map whose denominator vanishes on
    mu_{q+1}: (x^q - 1) / (x - 1) = (x - 1)^(q-1), which is -1/x on mu_{q+1}
    minus {1}; D vanishes at x = 1."""
    return conjlab.FractionalMap(
        family, Poly(ctx, (2,) + (0,) * (ctx.q - 1) + (1,)), Poly(ctx, (2, 1)))


@pytest.fixture(scope="session")
def ctx_for():
    """Memoized field contexts; table construction is the expensive part."""
    def get(k, modulus=None, max_k=6):
        key = (k, modulus, max_k)
        if key not in _CTX_CACHE:
            _CTX_CACHE[key] = ctx_create(k, modulus, max_k)
        return _CTX_CACHE[key]
    return get


@pytest.fixture(scope="session")
def both_for(ctx_for):
    """(table context, table-free core) of one field, both memoized: the
    helpers gf3m._Field derives from the scalar ops run on each."""
    cores = {}

    def get(k, modulus=None):
        if (k, modulus) not in cores:
            cores[k, modulus] = gf3m._TableFreeCtx(k, modulus)
        return ctx_for(k, modulus), cores[k, modulus]
    return get


# ---------------------------------------------------------------------------
# reference arithmetic on trit vectors

def enc_to_trits(enc, m):
    out = []
    for _ in range(m):
        out.append(enc % 3)
        enc //= 3
    return out


def trits_to_enc(trits):
    enc = 0
    for t in reversed(trits):
        enc = enc * 3 + t
    return enc


def ref_add(a, b, m):
    ta, tb = enc_to_trits(a, m), enc_to_trits(b, m)
    return trits_to_enc([(x + y) % 3 for x, y in zip(ta, tb)])


def ref_neg(a, m):
    return trits_to_enc([(-t) % 3 for t in enc_to_trits(a, m)])


def ref_mul(a, b, modulus):
    """Schoolbook product reduced by the monic modulus (low degree first)."""
    m = len(modulus) - 1
    ta, tb = enc_to_trits(a, m), enc_to_trits(b, m)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(ta):
        for j, y in enumerate(tb):
            prod[i + j] = (prod[i + j] + x * y) % 3
    for top in range(len(prod) - 1, m - 1, -1):
        c = prod[top]
        if c:
            for j, mc in enumerate(modulus):
                prod[top - m + j] = (prod[top - m + j] - c * mc) % 3
    return trits_to_enc(prod[:m])


def ref_pow(a, e, modulus):
    result, base = 1, a
    while e:
        if e & 1:
            result = ref_mul(result, base, modulus)
        base = ref_mul(base, base, modulus)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# reference irreducibility by trial division over GF(3)

def _poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_rem(num, den):
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, 3)
    while len(_poly_trim(num)) - 1 >= dd:
        num = _poly_trim(num)
        shift = len(num) - 1 - dd
        factor = (num[-1] * inv_lead) % 3
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % 3
    return _poly_trim(num)


def ref_irreducible(coeffs):
    coeffs = _poly_trim(list(coeffs))
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for low in itertools.product(range(3), repeat=d):
            div = list(low) + [1]
            if not _poly_rem(coeffs, div):
                return False
    return True


def ref_default_modulus(m):
    """First monic irreducible of degree m in itertools.product order."""
    for low in itertools.product(range(3), repeat=m):
        cand = tuple(low) + (1,)
        if ref_irreducible(cand):
            return cand
    raise AssertionError("no irreducible of degree %d" % m)


# ---------------------------------------------------------------------------
# reference vector evaluation: one log-domain Zech step per term and per x

def zech_power_sum_images(ctx, terms):
    """sum(c * x^e for c, e in terms) at every x = alpha^i, i < n, as one
    list, with the Zech work done at every i and no period: c * x^e has log
    (i * e + log c) mod n, and each term joins the partial sum as
    acc * (1 + c x^e / acc), with 1 + c x^e / acc read off _exp and stepped
    in its constant trit; a mask marks the x where the partial sum is 0.
    The reference for FieldCtx.power_sum_images, which runs these steps on
    one period of i only."""
    import numpy as np
    n = ctx.order - 1
    exp, log_arr = ctx._tables()
    terms = [(e % n, int(log_arr[c])) for c, e in terms]
    i = np.arange(n, dtype=np.int64)
    acc = None  # log of the partial sum, valid where it is nonzero
    zero = np.zeros(n, dtype=bool)
    for e, log_c in terms:
        term = i * e % n
        term = (term + log_c) % n
        if acc is None:
            acc = term
            continue
        s = exp[(term - acc) % n]  # c x^e / acc
        s = s - s % 3 + (s % 3 + 1) % 3  # 1 + c x^e / acc: step the constant trit
        acc = (acc + log_arr.take(s)) % n
        acc = np.where(zero, term, acc)
        zero = ~zero & (s == 0)
    images = exp.take(acc)
    images[zero] = 0
    return images.tolist()
