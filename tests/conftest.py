"""Shared fixtures plus a tiny independent reference implementation.

The ``ref_*`` helpers recompute GF(3^m) arithmetic straight from polynomial
remainders, with no tables and no shared code, so the fast engine is checked
against something that cannot inherit its bugs.
"""

import itertools
import math
import os
import pathlib

import pytest

from trinolab import conjlab, ctx_create, gf3m, permtest
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


# irreducible moduli other than the defaults, as (k, modulus)
OTHER_MODULI = [(1, (2, 1, 1)), (2, (1, 2, 0, 1, 1)), (2, (1, 0, 1, 2, 1)),
                (3, (1, 0, 0, 1, 0, 2, 1)), (4, (1, 0, 0, 0, 0, 2, 1, 0, 1))]


def vanishing_denominator_map(family, ctx):
    """A stand-in for conjlab.fractional_map whose denominator vanishes on
    mu_{q+1}: (x^q - 1) / (x - 1) = (x - 1)^(q-1), which is -1/x on mu_{q+1}
    minus {1}; D vanishes at x = 1."""
    return conjlab.FractionalMap(
        family, Poly(ctx, (2,) + (0,) * (ctx.q - 1) + (1,)), Poly(ctx, (2, 1)))


@pytest.fixture(scope="session")
def ctx_for():
    """Memoized field contexts; the field set-up is the expensive part."""
    def get(k, modulus=None, max_k=6):
        key = (k, modulus, max_k)
        if key not in _CTX_CACHE:
            _CTX_CACHE[key] = ctx_create(k, modulus, max_k)
        return _CTX_CACHE[key]
    return get


class LogTableCtx(gf3m.FieldCtx):
    """The scalar ops read off exp and log lists of alpha: an oracle for
    FieldCtx's own packed-int ops, whose derived helpers (div, sqrt,
    special_constants, ...) it runs on these ops.  The lists are
    filled here (exp_log_lists), by numpy doubling of trit rows with the
    matrices of y -> alpha^h y read off ref_mul, so the ops below share no
    code with the packed-int products.  A log sum or difference shifted
    into (-n, 0) indexes _exps from its end, where Python wraps it to the
    same power of alpha; a + b = a (1 + b/a), where 1 + alpha^d is alpha^d
    with its constant trit stepped.
    """

    def __init__(self, k, modulus=None):
        field = gf3m.FieldCtx(k, modulus)
        for name in ("k", "m", "q", "order", "modulus", "alpha"):
            setattr(self, name, getattr(field, name))
        self._n = field.order - 1
        self._exps, self._logs = exp_log_lists(self.alpha, self.modulus)

    def add(self, a, b):
        if a == 0:
            return b
        if b == 0:
            return a
        la = self._logs[a]
        s = self._exps[self._logs[b] - la]  # b / a
        s += (1, 1, -2)[s % 3]  # 1 + b / a: the constant trit steps by one
        if s == 0:
            return 0
        return self._exps[la + self._logs[s] - self._n]

    def neg(self, a):
        if a == 0:
            return 0
        return self._exps[self._logs[a] - self._n // 2]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exps[self._logs[a] + self._logs[b] - self._n]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero")
        return self._exps[-self._logs[a]]

    def pow(self, a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("division by zero")
            return 0 if e else 1
        return self._exps[self._logs[a] * e % self._n]

    def frobenius(self, a, e=1):
        if a == 0:
            return 0
        return self._exps[self._logs[a] * pow(3, e, self._n) % self._n]

    def conjugate_q(self, a):
        return self.frobenius(a, self.k)


@pytest.fixture(scope="session")
def tables_for():
    """Memoized LogTableCtx fields."""
    fields = {}

    def get(k, modulus=None):
        if (k, modulus) not in fields:
            fields[k, modulus] = LogTableCtx(k, modulus)
        return fields[k, modulus]
    return get


@pytest.fixture(scope="session")
def both_for(tables_for):
    """(log-table oracle, FieldCtx) of one field, both memoized: the
    helpers FieldCtx derives from its scalar ops run on each."""
    cores = {}

    def get(k, modulus=None):
        if (k, modulus) not in cores:
            cores[k, modulus] = gf3m.FieldCtx(k, modulus)
        return tables_for(k, modulus), cores[k, modulus]
    return get


def per_point_zieve(ctx, r, d, h):
    """permtest.zieve_criterion with x^r h(x)^((order-1)/d) evaluated at
    every x of mu_d: the oracle for its walk over the orbits of the cube."""
    mu = permtest.mu_enumerate(ctx, d)
    e = (ctx.order - 1) // d
    cond1 = math.gcd(r, e) == 1
    images = {}
    for x in mu:
        hx = h.eval(x)
        if hx == 0:
            return cond1, False
        images[x] = ctx.mul(ctx.pow(x, r), ctx.pow(hx, e))
    return cond1, permtest.is_bijection_on(images.__getitem__, mu).is_bijection


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


def exp_log_lists(alpha, modulus):
    """([alpha^i for i < n], log of each encoding, with 0 at 0) for n = 3^m - 1.

    The trit rows of alpha^i double: rows h..2h-1 are rows 0..h-1 times the
    matrix of y -> alpha^h y, whose row j is the trits of ref_mul(alpha^h,
    x^j).  Asserts that the n powers are the n nonzero encodings."""
    import numpy as np
    m = len(modulus) - 1
    n = 3 ** m - 1
    rows = np.zeros((n, m), dtype=np.int8)
    rows[0, 0] = 1
    a, h = alpha, 1
    while h < n:
        matrix = np.array([enc_to_trits(ref_mul(a, 3 ** j, modulus), m)
                           for j in range(m)], dtype=np.int64)
        width = min(h, n - h)
        rows[h:h + width] = rows[:width] @ matrix % 3
        a, h = ref_mul(a, a, modulus), 2 * h
    exps = rows @ 3 ** np.arange(m, dtype=np.int64)
    logs = np.zeros(n + 1, dtype=np.int64)
    logs[exps] = np.arange(n)
    assert np.array_equal(np.sort(exps), np.arange(1, n + 1)), "alpha is not primitive"
    return exps.tolist(), logs.tolist()


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
