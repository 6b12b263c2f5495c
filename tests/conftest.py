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


class LogTableCtx(gf3m.FieldCtx):
    """The scalar ops read off a FieldCtx's exp and log tables: an oracle
    for FieldCtx's own packed-int ops, whose derived helpers (div, sqrt,
    special_constants, ...) it runs on these ops.  The tables are filled
    explicitly here, by numpy doubling of bitsliced trit vectors, and read
    as lists of ints, so the ops below share no code with the packed-int
    products.  A log sum or difference shifted into (-n, 0) indexes _exp from
    its end, where Python wraps it to the same power of alpha; a + b =
    a (1 + b/a), where 1 + alpha^d is alpha^d with its constant trit stepped.
    """

    def __init__(self, k, modulus=None):
        field = gf3m.FieldCtx(k, modulus)
        for name in ("k", "m", "q", "order", "modulus", "alpha"):
            setattr(self, name, getattr(field, name))
        self._n = field.order - 1
        self._exp, self._log = (t.tolist() for t in field._tables())

    def add(self, a, b):
        if a == 0:
            return b
        if b == 0:
            return a
        la = self._log[a]
        s = self._exp[self._log[b] - la]  # b / a
        s += (1, 1, -2)[s % 3]  # 1 + b / a: the constant trit steps by one
        if s == 0:
            return 0
        return self._exp[la + self._log[s] - self._n]

    def neg(self, a):
        if a == 0:
            return 0
        return self._exp[self._log[a] - self._n // 2]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b] - self._n]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero")
        return self._exp[-self._log[a]]

    def pow(self, a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("division by zero")
            return 0 if e else 1
        return self._exp[self._log[a] * e % self._n]

    def frobenius(self, a, e=1):
        if a == 0:
            return 0
        return self._exp[self._log[a] * pow(3, e, self._n) % self._n]

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
