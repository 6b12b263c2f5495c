"""Dense univariate polynomial layer over the field engine."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trinolab.conjlab import FAMILIES, fiber_polynomial
from trinolab.gf3m import ctx_create
from trinolab.permtest import mu_enumerate
from trinolab import gf3m, polyring
from trinolab.polyring import (Poly, _frobenius_chain, _trace_split,
                               _trace_tries, poly_gcd, pow_mod,
                               quadratic_factors, roots_in_set)

CTX9 = ctx_create(1)
CTX81 = ctx_create(2)

coeff_lists = st.lists(st.integers(0, 8), min_size=0, max_size=7)


@st.composite
def planted_products(draw):
    """A product of monic linear and quadratic factors over GF(9), each with
    multiplicity 1..3, kept to degree <= 8."""
    p = Poly(CTX9, (1,))
    factors = draw(st.lists(
        st.tuples(st.lists(st.integers(0, 8), min_size=1, max_size=2),
                  st.integers(1, 3)),
        min_size=1, max_size=4))
    for low, mult in factors:
        f = Poly(CTX9, low + [1])
        for _ in range(mult):
            if p.degree + f.degree <= 8:
                p = p * f
    return p


def brute_quadratic_factors(p):
    """Every monic quadratic divisor, found by scanning all (a, b)."""
    order = p.ctx.order
    out = []
    for a in range(order):
        for b in range(order):
            if (p % Poly(p.ctx, (b, a, 1))).is_zero:
                out.append((a, b))
    return out


def _split_equal_degree(w, d):
    """Reference splitter: w, a squarefree product of monic degree-d
    irreducibles, split into them by Cantor-Zassenhaus.

    The shifts c are tried in encoding order: x + c is a square modulo some
    factors of w and a non-square modulo others, and
    gcd(w, (x + c)^((order^d - 1)/2) - 1) collects the first kind.  The first
    proper split is recursed on.
    """
    if w.degree <= d:
        return [w.monic()] if w.degree == d else []
    ctx = w.ctx
    half = (ctx.order ** d - 1) // 2
    for c in range(ctx.order):
        g = poly_gcd(w, pow_mod(Poly(ctx, (c, 1)), half, w) - Poly(ctx, (1,)))
        if 0 < g.degree < w.degree:
            return _split_equal_degree(g, d) + _split_equal_degree(w // g, d)
    raise AssertionError("equal-degree splitting failed")


def cz_quadratic_factors(p):
    """Reference quadratic_factors: x^order and x^(order^2) by pow_mod, the
    linear and quadratic parts split by Cantor-Zassenhaus."""
    ctx = p.ctx
    x = Poly.monomial(ctx, 1)
    xq = pow_mod(x, ctx.order, p)
    linear = poly_gcd(p, xq - x)
    roots = sorted(ctx.neg(f.coeffs[0]) for f in _split_equal_degree(linear, 1))
    found = set()
    for i, r in enumerate(roots):
        for s in roots[i:]:
            a, b = ctx.neg(ctx.add(r, s)), ctx.mul(r, s)
            if (p % Poly(ctx, (b, a, 1))).is_zero:
                found.add((a, b))
    xqq = pow_mod(xq, ctx.order, p)
    for q in _split_equal_degree(poly_gcd(p, xqq - x) // linear, 2):
        found.add((q.coeffs[1], q.coeffs[0]))
    return sorted(found)


def monic_irreducible_quadratics(ctx):
    """Every x^2 + a x + b over the field with non-square discriminant
    a^2 - 4b = a^2 - b, as Polys."""
    return [Poly(ctx, (b, a, 1)) for a in range(ctx.order)
            for b in range(ctx.order)
            if ctx.sqrt(ctx.sub(ctx.mul(a, a), b)) is None]


# ---------------------------------------------------------------------------
# construction and representation

def test_trailing_zeros_are_trimmed():
    p = Poly(CTX9, (1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Poly(CTX9).degree == -1
    assert Poly(CTX9, (0, 0)).is_zero


def test_monomial():
    p = Poly.monomial(CTX9, 3)
    assert p.coeffs == (0, 0, 0, 1)
    assert Poly.monomial(CTX9, 0, 5).coeffs == (5,)
    assert Poly.monomial(CTX9, 2, 0).is_zero


def test_text_roundtrip_examples():
    p = Poly.from_text(CTX9, "1,0,2")
    assert p.coeffs == (1, 0, 2)
    assert p.to_text() == "1,0,2"
    assert Poly(CTX9).to_text() == "0"
    assert Poly.from_text(CTX9, "0").is_zero
    with pytest.raises(ValueError):
        Poly.from_text(CTX9, "1,q")
    with pytest.raises(ValueError):
        Poly.from_text(CTX9, "1,9")  # encoding out of range for GF(9)


@given(coeff_lists)
def test_text_roundtrip_property(coeffs):
    p = Poly(CTX9, coeffs)
    assert Poly.from_text(CTX9, p.to_text()) == p


def test_constructor_rejects_bad_coefficients():
    for bad in (CTX9.order, -1, 1.0, None):
        with pytest.raises(ValueError, match="bad coefficient"):
            Poly(CTX9, [bad])
    with pytest.raises(ValueError, match="bad coefficient"):
        Poly(CTX9, (1, 2, CTX9.order, 0))


@given(coeff_lists, coeff_lists, st.integers(0, 8))
def test_arithmetic_results_are_trimmed_encodings(a, b, s):
    # results skip the constructor's check, so rebuild them through it
    p, q = Poly(CTX9, a), Poly(CTX9, b)
    results = [p + q, p - q, -p, p * q, p * s, s * p]
    if not q.is_zero:
        results += divmod(p, q)
    for r in results:
        assert type(r.coeffs) is tuple
        assert not r.coeffs or r.coeffs[-1] != 0
        assert Poly(CTX9, r.coeffs) == r


def test_cross_ctx_operations_rejected():
    with pytest.raises(ValueError, match="different ctxs"):
        Poly(CTX9, (1,)) + Poly(CTX81, (1,))


# ---------------------------------------------------------------------------
# ring operations

def test_mul_matches_naive_convolution():
    rng = random.Random(31)
    ctx = CTX9
    for _ in range(60):
        a = [rng.randrange(9) for _ in range(rng.randrange(6))]
        b = [rng.randrange(9) for _ in range(rng.randrange(6))]
        conv = [0] * (max(len(a) + len(b) - 1, 0))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] = ctx.add(conv[i + j], ctx.mul(x, y))
        assert (Poly(ctx, a) * Poly(ctx, b)).coeffs == Poly(ctx, conv).coeffs


def test_add_sub_neg():
    p = Poly(CTX9, (1, 2, 3))
    q = Poly(CTX9, (2, 1))
    assert (p + q).coeffs == (0, 0, 3)
    assert (p - p).is_zero
    assert (-p + p).is_zero
    assert (p - q) + q == p


def test_scalar_multiplication_uses_encodings():
    p = Poly(CTX9, (1, 2, 3))
    assert (p * 2).coeffs == (2, 1, 6)  # 2 is -1; 3*2 = neg(3) = 6
    assert (p * 0).is_zero


@settings(max_examples=80)
@given(coeff_lists, coeff_lists)
def test_divmod_identity(num, den):
    p, d = Poly(CTX81, num), Poly(CTX81, den)
    if d.is_zero:
        with pytest.raises(ZeroDivisionError, match="zero polynomial"):
            divmod(p, d)
        return
    q, r = divmod(p, d)
    assert q * d + r == p
    assert r.degree < d.degree


def test_divmod_example():
    # (x^2 + 1)(x^2 + 2) = x^4 + 2
    q, r = divmod(Poly(CTX9, (2, 0, 0, 0, 1)), Poly(CTX9, (1, 0, 1)))
    assert q.coeffs == (2, 0, 1) and r.is_zero
    q, r = divmod(Poly(CTX9, (1, 1, 1)), Poly(CTX9, (0, 1)))
    assert q.coeffs == (1, 1) and r.coeffs == (1,)


def test_divmod_by_a_monic_divisor_takes_no_inverse(monkeypatch):
    ctx = gf3m.FieldCtx(2)
    calls = []
    plain = ctx.inv

    def counted(a):
        calls.append(a)
        return plain(a)
    monkeypatch.setattr(ctx, "inv", counted)
    p, monic = Poly(ctx, (2, 0, 0, 0, 1)), Poly(ctx, (1, 0, 1))
    q, r = divmod(p, monic)
    assert q * monic + r == p and calls == []
    q, r = divmod(p, monic * 2)
    assert q * (monic * 2) + r == p and calls == [2]


def test_floordiv_mod_operators():
    p = Poly(CTX9, (1, 0, 0, 1))
    d = Poly(CTX9, (1, 1))
    assert (p // d) * d + (p % d) == p


def test_monic_normalizes_leading_coefficient():
    p = Poly(CTX9, (0, 0, 2))
    assert p.monic().coeffs == (0, 0, 1)
    assert Poly(CTX9, (4, 0, 4)).monic().leading == 1
    assert Poly(CTX9).monic().is_zero  # zero is left alone


# ---------------------------------------------------------------------------
# evaluation

def test_eval_matches_power_sum():
    rng = random.Random(5)
    ctx = CTX81
    for _ in range(40):
        coeffs = [rng.randrange(81) for _ in range(rng.randrange(7))]
        p = Poly(ctx, coeffs)
        x = rng.randrange(81)
        expect = 0
        for i, c in enumerate(coeffs):
            expect = ctx.add(expect, ctx.mul(c, ctx.pow(x, i)))
        assert p.eval(x) == expect == p(x)


# ---------------------------------------------------------------------------
# gcd and modular powers

def test_gcd_of_coprime_pair_is_one():
    # x^4 + x^2 - 1 = x^2 (x^2 + 1) - 1, so any common divisor divides 1
    a = Poly(CTX9, (1, 0, 1))
    b = Poly(CTX9, (2, 0, 1, 0, 1))
    assert poly_gcd(a, b).coeffs == (1,)


def test_gcd_recovers_common_factor():
    common = Poly(CTX9, (2, 1, 1))
    a = common * Poly(CTX9, (1, 1))
    b = common * Poly(CTX9, (5, 0, 1))
    g = poly_gcd(a, b)
    assert g == common.monic()


def test_gcd_edge_cases():
    z = Poly(CTX9)
    p = Poly(CTX9, (0, 2))
    assert poly_gcd(p, z) == p.monic()
    assert poly_gcd(z, p) == p.monic()
    with pytest.raises(ValueError, match="gcd of two zero polynomials"):
        poly_gcd(z, z)


@settings(max_examples=50)
@given(coeff_lists, coeff_lists)
def test_gcd_divides_both(a, b):
    p, q = Poly(CTX9, a), Poly(CTX9, b)
    if p.is_zero and q.is_zero:
        return
    g = poly_gcd(p, q)
    assert (p % g).is_zero and (q % g).is_zero
    assert g.leading == 1


def test_pow_mod_matches_naive():
    base = Poly(CTX9, (1, 1))
    mod = Poly(CTX9, (1, 0, 0, 1))
    for e in (0, 1, 2, 7, 19):
        naive = Poly(CTX9, (1,))
        for _ in range(e):
            naive = (naive * base) % mod
        assert pow_mod(base, e, mod) == naive


# ---------------------------------------------------------------------------
# root finding over explicit candidate sets

def test_roots_in_set():
    # (x - 3)(x - 4) has roots {3, 4}
    p = Poly(CTX9, (CTX9.mul(3, 4), CTX9.neg(CTX9.add(3, 4)), 1))
    assert roots_in_set(p, range(9)) == [3, 4]
    assert roots_in_set(p, [4]) == [4]
    assert roots_in_set(p, [0, 1]) == []
    with pytest.raises(ValueError, match="zero polynomial"):
        roots_in_set(Poly(CTX9), range(9))


def test_roots_in_set_returns_sorted_encodings():
    p = Poly.monomial(CTX9, 3) - Poly.monomial(CTX9, 1)  # x^3 - x
    assert roots_in_set(p, range(8, -1, -1)) == [0, 1, 2]


# ---------------------------------------------------------------------------
# monic quadratic divisors

def test_quadratic_factors_pure_power():
    p = Poly.monomial(CTX9, 5)  # x^5 = (x^2)^2 x
    assert quadratic_factors(p) == [(0, 0)]


def test_quadratic_factors_of_split_quintic():
    # (x^2 + 1)(x + 1)(x^2 - x - 1) has five distinct roots in GF(9),
    # so every pair of roots gives a monic quadratic divisor
    p = (Poly(CTX9, (1, 0, 1)) * Poly(CTX9, (1, 1))) * Poly(CTX9, (2, 2, 1))
    pairs = quadratic_factors(p)
    assert (0, 1) in pairs
    assert len(pairs) == 10
    assert pairs == brute_quadratic_factors(p)


def test_quadratic_factors_with_repeated_roots():
    lin1, lin2 = Poly(CTX9, (CTX9.neg(2), 1)), Poly(CTX9, (CTX9.neg(5), 1))
    p = lin1 * lin1 * lin2 * lin2
    pairs = quadratic_factors(p)
    assert len(pairs) == 3  # (x-2)^2, (x-2)(x-5), (x-5)^2
    assert pairs == brute_quadratic_factors(p)


def test_quadratic_factors_with_zero_derivative():
    # (x - 1)^6 = (x^3 - 1)^2 has derivative 0; its only quadratic
    # divisor is (x - 1)^2 = x^2 + x + 1
    p = Poly(CTX9, (2, 0, 0, 1)) * Poly(CTX9, (2, 0, 0, 1))
    assert quadratic_factors(p) == [(1, 1)]


def test_quadratic_factors_degree_too_small():
    with pytest.raises(ValueError, match="degree must be at least 2"):
        quadratic_factors(Poly(CTX9, (1, 1)))
    with pytest.raises(ValueError, match="degree must be at least 2"):
        quadratic_factors(Poly(CTX9))


@pytest.mark.parametrize("seed", range(6))
def test_quadratic_factors_random_vs_brute_force(seed):
    rng = random.Random(seed)
    ctx = CTX81
    while True:
        coeffs = [rng.randrange(81) for _ in range(6)] + [1]
        p = Poly(ctx, coeffs)
        if p.degree == 6:
            break
    assert quadratic_factors(p) == brute_quadratic_factors(p)


def test_quadratic_factors_finds_planted_divisors_in_large_field():
    ctx = ctx_create(3)
    rng = random.Random(11)
    q1 = Poly(ctx, (rng.randrange(729), rng.randrange(729), 1))
    q2 = Poly(ctx, (rng.randrange(729), rng.randrange(729), 1))
    lin = Poly(ctx, (rng.randrange(729), 1))
    p = q1 * q2 * lin
    pairs = quadratic_factors(p)
    assert (q1.coeffs[1], q1.coeffs[0]) in pairs
    assert (q2.coeffs[1], q2.coeffs[0]) in pairs
    for a, b in pairs:
        assert (p % Poly(ctx, (b, a, 1))).is_zero


@settings(max_examples=150, deadline=None)
@given(planted_products())
def test_quadratic_factors_of_planted_products_vs_brute_force(p):
    assume(p.degree >= 2)
    assert (quadratic_factors(p) == brute_quadratic_factors(p)
            == cz_quadratic_factors(p))


@pytest.mark.parametrize("k", (1, 2, 3))
def test_split_roots_of_fiber_polynomials_match_the_field_scan(k):
    ctx = ctx_create(k)
    for family in FAMILIES:
        for t in sorted(mu_enumerate(ctx, ctx.q + 1)):
            p = fiber_polynomial(family, t, ctx)
            chain = _frobenius_chain(p, 2 * ctx.m)
            linear = poly_gcd(p, chain[ctx.m] - chain[0])
            roots = sorted(ctx.neg(f.coeffs[0])
                           for f in _trace_split(linear, 1, chain))
            cz_roots = sorted(ctx.neg(f.coeffs[0])
                              for f in _split_equal_degree(linear, 1))
            assert roots == cz_roots == roots_in_set(p, range(ctx.order)), (
                family, t)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_quadratic_factors_of_every_fiber_match_cantor_zassenhaus(k):
    ctx = ctx_create(k)
    for family in FAMILIES:
        for t in sorted(mu_enumerate(ctx, ctx.q + 1)):
            p = fiber_polynomial(family, t, ctx)
            assert quadratic_factors(p) == cz_quadratic_factors(p), (family, t)


def test_frobenius_chain_matches_pow_mod():
    ctx = ctx_create(2)
    p = Poly(ctx, (5, 0, 17, 3, 0, 1, 40, 2))
    chain = _frobenius_chain(p, 2 * ctx.m)
    x = Poly.monomial(ctx, 1)
    assert len(chain) == 2 * ctx.m + 1
    for i, xi in enumerate(chain):
        assert xi == pow_mod(x, 3 ** i, p), i


@pytest.mark.parametrize("k", (1, 2))
def test_trace_splitting_separates_every_pair_of_linear_factors(k):
    ctx = ctx_create(k)
    for r in range(ctx.order):
        for s in range(r + 1, ctx.order):
            lin = sorted([Poly(ctx, (ctx.neg(r), 1)), Poly(ctx, (ctx.neg(s), 1))],
                         key=lambda f: f.coeffs)
            w = lin[0] * lin[1]
            split = _trace_split(w, 1, _frobenius_chain(w, ctx.m))
            assert sorted(split, key=lambda f: f.coeffs) == lin, (r, s)


def test_trace_splitting_separates_every_pair_of_quadratics_k1():
    ctx = ctx_create(1)
    quads = monic_irreducible_quadratics(ctx)
    assert len(quads) == (ctx.order ** 2 - ctx.order) // 2
    for i, q1 in enumerate(quads):
        for q2 in quads[i + 1:]:
            w = q1 * q2
            split = _trace_split(w, 2, _frobenius_chain(w, 2 * ctx.m))
            assert sorted(split, key=lambda f: f.coeffs) == sorted(
                [q1, q2], key=lambda f: f.coeffs), (q1, q2)


@pytest.mark.parametrize("k", (1, 2))
def test_trace_tries_give_every_irreducible_quadratic_its_own_signature(k):
    # _trace_split splits q1 * q2 at the first try whose trace takes different
    # GF(3) values on q1 and q2, so distinct signatures (the values of all
    # 4k tries) on every irreducible quadratic mean that every pair is
    # separated within the try list; at k = 2 this covers all 5,247,180 pairs
    # without splitting each product
    ctx = ctx_create(k)
    signatures = set()
    for q in monic_irreducible_quadratics(ctx):
        traces = list(_trace_tries(q, 2, _frobenius_chain(q, 2 * ctx.m)))
        assert len(traces) == 4 * k
        assert all(t.coeffs in ((), (1,), (2,)) for t in traces), q
        signatures.add(tuple(t.coeffs for t in traces))
    assert len(signatures) == (ctx.order ** 2 - ctx.order) // 2


def test_quadratic_factors_make_no_pow_mod_calls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return pow_mod(*args)

    monkeypatch.setattr(polyring, "pow_mod", counted)
    ctx = ctx_create(3)
    for family in (2, 3):
        pairs = max((quadratic_factors(fiber_polynomial(family, t, ctx))
                     for t in sorted(mu_enumerate(ctx, ctx.q + 1))), key=len)
        assert pairs
    assert calls == []


def test_split_quadratics_are_read_off_the_roots_without_dividing_p(monkeypatch):
    # five distinct roots, the first one doubled, and one irreducible
    # quadratic: only the two gcds with p, p // linear and the irreducible's
    # division check may divide p itself, not each of the 15 root pairs,
    # self-pairs included
    ctx = CTX81
    c = next(c for c in range(1, ctx.order) if ctx.sqrt(c) is None)
    p = Poly(ctx, (ctx.neg(c), 0, 1))  # x^2 - c, irreducible
    for r in (1, 1, 2, 3, 4, 5):
        p = p * Poly(ctx, (ctx.neg(r), 1))
    plain = Poly.__divmod__
    calls = []

    def counted(self, other):
        if self == p:
            calls.append(other)
        return plain(self, other)

    monkeypatch.setattr(Poly, "__divmod__", counted)
    pairs = quadratic_factors(p)
    monkeypatch.undo()
    assert pairs == brute_quadratic_factors(p)
    assert (1, 1) in pairs  # (x - 1)^2 = x^2 + x + 1
    assert (0, ctx.neg(c)) in pairs  # x^2 - c
    assert len(pairs) == 10 + 1 + 1
    assert len(calls) <= 3 + 1
