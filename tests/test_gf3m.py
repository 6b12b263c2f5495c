"""Field engine checks against an independent reference implementation."""

import gc
import math
import random
import time
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinolab import gf3m
from trinolab.gf3m import ctx_create, default_modulus

from conftest import (BLOCK_LENS, enc_to_trits, ref_add,
                      ref_default_modulus, ref_irreducible, ref_mul, ref_neg,
                      ref_pow, trits_to_enc, zech_power_sum_images)

# first monic irreducible per degree, in itertools.product order over the
# low coefficients; re-derived by ref_default_modulus below
KNOWN_MODULI = {
    1: (0, 1),  # x itself: the constant-term-0 skip starts at degree 2
    2: (1, 0, 1),
    4: (1, 0, 1, 1, 1),
    6: (1, 0, 0, 0, 1, 1, 1),
    8: (1, 0, 0, 0, 0, 1, 1, 0, 1),
    10: (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
    12: (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1),
    14: (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1),
}

# irreducible moduli other than the defaults, as (k, modulus)
OTHER_MODULI = [(1, (2, 1, 1)), (2, (1, 2, 0, 1, 1)), (2, (1, 0, 1, 2, 1)),
                (3, (1, 0, 0, 1, 0, 2, 1)), (4, (1, 0, 0, 0, 0, 2, 1, 0, 1))]


# ---------------------------------------------------------------------------
# modulus selection

@pytest.mark.parametrize("m", sorted(KNOWN_MODULI))
def test_default_modulus_known_values(m):
    assert default_modulus(m) == KNOWN_MODULI[m]


@pytest.mark.parametrize("m", (1, 2, 3, 4, 5, 6, 7, 8))
def test_default_modulus_matches_reference_sieve(m):
    assert default_modulus(m) == ref_default_modulus(m)


@pytest.mark.parametrize("m", (10, 12, 14))
def test_default_modulus_is_irreducible_per_reference(m):
    assert ref_irreducible(default_modulus(m))


def test_default_modulus_skips_candidates_divisible_by_x(monkeypatch):
    calls = 0
    original = gf3m.gf3_is_irreducible

    def counting(f):
        nonlocal calls
        calls += 1
        return original(f)

    monkeypatch.setattr(gf3m, "gf3_is_irreducible", counting)
    assert default_modulus(12) == KNOWN_MODULI[12]
    assert calls < 100  # 177,176 when constant term 0 is tried first


def test_gf3_is_irreducible_agrees_with_reference():
    # leading coefficient 2 too: the division by a non-monic f goes through
    # GF(3)'s inv(2)
    import itertools
    for deg in range(8):
        for low in itertools.product(range(3), repeat=deg):
            for lead in (1, 2):
                cand = tuple(low) + (lead,)
                assert gf3m.gf3_is_irreducible(cand) == ref_irreducible(cand), cand


# ---------------------------------------------------------------------------
# context construction and validation

def test_ctx_basic_shape(ctx_for):
    ctx = ctx_for(2)
    assert (ctx.k, ctx.m, ctx.q, ctx.order) == (2, 4, 9, 81)
    assert ctx.modulus == KNOWN_MODULI[4]


@pytest.mark.parametrize("k", (0, -1, 7))
def test_ctx_rejects_degree_outside_range(k):
    with pytest.raises(ValueError, match="unsupported degree"):
        ctx_create(k)


@pytest.mark.parametrize(("k", "modulus"),
                         ((10, None), (10, (2,) + (0,) * 19 + (1,)), (9, None)),
                         ids=("None", "modulus1", "k9"))
def test_ctx_refuses_int32_overflow_before_any_work(monkeypatch, k, modulus):
    # 3^20 - 1 >= 2^31, and the k = 9 tables would take about 3.1 GB: refused
    # before the modulus search, the irreducibility test of a given modulus,
    # or any table allocation
    def forbidden(*args):
        raise AssertionError("field construction started")

    for name in ("default_modulus", "gf3_is_irreducible", "_factorize"):
        monkeypatch.setattr(gf3m, name, forbidden)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        ctx_create(k, modulus, max_k=k)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("k", (7, 8))
def test_ctx_memory_guard_lets_k7_and_k8_through(monkeypatch, k):
    # about 38 MB and 0.34 GB of tables: both reach the modulus search,
    # stopped here before any allocation
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(gf3m, "default_modulus", reached)
    with pytest.raises(Reached):
        ctx_create(k, max_k=k)


@pytest.mark.parametrize(("k", "modulus"), [(k, None) for k in (1, 2, 6)] + OTHER_MODULI[:2])
def test_ctx_build_runs_rabins_test_once_per_modulus(monkeypatch, k, modulus):
    calls = 0
    original = gf3m.gf3_is_irreducible

    def counting(f):
        nonlocal calls
        calls += 1
        return original(f)

    monkeypatch.setattr(gf3m, "gf3_is_irreducible", counting)
    if modulus is None:
        default_modulus(2 * k)
        search, calls = calls, 0
    ctx_create(k, modulus)
    # a given modulus is tested once, and the default one only by its search
    assert calls == (search if modulus is None else 1)


def test_ctx_max_k_is_adjustable():
    assert ctx_create(3, max_k=3).k == 3
    with pytest.raises(ValueError, match="unsupported degree"):
        ctx_create(4, max_k=3)


def test_ctx_rejects_reducible_modulus():
    # x^2 + 2 = (x-1)(x+1)
    with pytest.raises(ValueError, match="reducible modulus: 2,0,1"):
        ctx_create(1, (2, 0, 1))


def test_ctx_rejects_wrong_degree_or_nonmonic_modulus():
    with pytest.raises(ValueError, match="monic of degree 2"):
        ctx_create(1, (1, 0, 0, 1))
    with pytest.raises(ValueError, match="monic of degree 2"):
        ctx_create(1, (1, 0, 2))


def test_ctx_accepts_alternative_irreducible_modulus():
    # x^2 + x + 2 is irreducible: 0^2+0+2=2, 1^2+1+2=1, 2^2+2+2=2
    ctx = ctx_create(1, (2, 1, 1))
    assert ctx.modulus == (2, 1, 1)
    for a in range(9):
        for b in range(9):
            assert ctx.mul(a, b) == ref_mul(a, b, (2, 1, 1))


# ---------------------------------------------------------------------------
# arithmetic versus the reference, exhaustive at k=1, sampled above

def test_mul_add_exhaustive_k1(ctx_for):
    ctx = ctx_for(1)
    for a in range(9):
        for b in range(9):
            assert ctx.mul(a, b) == ref_mul(a, b, ctx.modulus)
            assert ctx.add(a, b) == ref_add(a, b, ctx.m)
        assert ctx.neg(a) == ref_neg(a, ctx.m)


def test_scalar_ops_exhaustive_k2(ctx_for):
    # every pair of GF(81): every log sum and difference that wraps past n,
    # every a + (-a) = 0 and every 1 + b/a = 0 of the constant-trit step
    ctx = ctx_for(2)
    m, modulus = ctx.m, ctx.modulus
    inverse = {b: ref_pow(b, ctx.order - 2, modulus) for b in range(1, ctx.order)}
    for a in range(ctx.order):
        assert ctx.neg(a) == ref_neg(a, m)
        if a:
            assert ctx.inv(a) == inverse[a]
        for b in range(ctx.order):
            assert ctx.add(a, b) == ref_add(a, b, m), (a, b)
            assert ctx.sub(a, b) == ref_add(a, ref_neg(b, m), m), (a, b)
            assert ctx.mul(a, b) == ref_mul(a, b, modulus), (a, b)
            if b:
                assert ctx.div(a, b) == ref_mul(a, inverse[b], modulus), (a, b)


@pytest.mark.parametrize("k", (2, 3, 4, 5, 6))
def test_mul_add_sampled(ctx_for, k):
    ctx = ctx_for(k)
    rng = random.Random(20260815 + k)
    for _ in range(400):
        a = rng.randrange(ctx.order)
        b = rng.randrange(ctx.order)
        assert ctx.mul(a, b) == ref_mul(a, b, ctx.modulus)
        assert ctx.add(a, b) == ref_add(a, b, ctx.m)
        assert ctx.sub(a, b) == ref_add(a, ref_neg(b, ctx.m), ctx.m)


def test_pow_against_reference(ctx_for):
    ctx = ctx_for(2)
    rng = random.Random(7)
    for _ in range(100):
        a = rng.randrange(1, ctx.order)
        e = rng.randrange(-10, 200)
        if e < 0:
            expect = ref_pow(ctx.inv(a), -e, ctx.modulus)
        else:
            expect = ref_pow(a, e, ctx.modulus)
        assert ctx.pow(a, e) == expect


def test_pow_zero_base():
    ctx = ctx_create(1)
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        ctx.pow(0, -1)


def test_inv_div(ctx_for):
    ctx = ctx_for(2)
    for a in range(1, ctx.order):
        assert ctx.mul(a, ctx.inv(a)) == 1
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        ctx.inv(0)
    with pytest.raises(ZeroDivisionError):
        ctx.div(5, 0)
    assert ctx.div(0, 5) == 0


def test_prime_subfield_encodings(ctx_for):
    # 0, 1, 2 encode the prime subfield; 2 is -1
    for k in (1, 2, 3):
        ctx = ctx_for(k)
        assert ctx.add(1, 1) == 2
        assert ctx.add(1, 2) == 0
        assert ctx.neg(1) == 2
        assert ctx.mul(2, 2) == 1


def test_known_gf9_facts(ctx_for):
    ctx = ctx_for(1)
    assert ctx.alpha == 4          # x + 1 generates GF(9)*
    assert ctx.mul(3, 3) == 2      # x * x = x^2 = -1 mod x^2 + 1
    assert ctx.pow(ctx.alpha, 8) == 1
    assert ctx.pow(ctx.alpha, 4) == 2  # alpha^(n/2) = -1


def test_alpha_is_primitive(ctx_for):
    for k in (1, 2, 3, 4):
        ctx = ctx_for(k)
        seen = set()
        x = 1
        for _ in range(ctx.order - 1):
            seen.add(x)
            x = ctx.mul(x, ctx.alpha)
        assert x == 1 and len(seen) == ctx.order - 1


def _prime_divisors(n):
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % d for d in range(2, p))]


def _has_full_order(c, n, modulus):
    return (ref_pow(c, n, modulus) == 1
            and all(ref_pow(c, n // p, modulus) != 1 for p in _prime_divisors(n)))


def test_alpha_is_the_smallest_primitive_element(ctx_for):
    for k, modulus in [(k, None) for k in (1, 2, 3)] + OTHER_MODULI[:4]:
        ctx = ctx_for(k, modulus)
        n = ctx.order - 1
        assert _has_full_order(ctx.alpha, n, ctx.modulus)
        for c in range(2, ctx.alpha):
            assert not _has_full_order(c, n, ctx.modulus), c
    # pinned: another alpha would change every table and every report
    assert [ctx_for(k).alpha for k in (4, 5, 6)] == [4, 34, 4]
    assert ctx_create(1, (2, 1, 1)).alpha == 3
    # FieldCtx takes alpha from this search; k = 7 without the table fill
    assert gf3m._TableFreeCtx(7, max_k=7)._smallest_primitive() == 4


@pytest.mark.parametrize("modulus", (KNOWN_MODULI[2], (2, 1, 1), KNOWN_MODULI[4],
                                     (1, 0, 1, 2, 1)))
def test_table_free_mul_matches_reference(modulus):
    # the multiply and power FieldCtx finds alpha and fills its tables with
    field = gf3m._TableFreeCtx((len(modulus) - 1) // 2, modulus)
    m = len(modulus) - 1

    def enc(bits):  # the fills' bitsliced rows
        return sum((bits[0] >> i & 1) * 3 ** i + (bits[1] >> i & 1) * 2 * 3 ** i
                   for i in range(m))

    rng = random.Random(len(modulus))
    for _ in range(200):
        a, b = rng.randrange(3 ** m), rng.randrange(3 ** m)
        assert enc(gf3m._bits(a)) == a
        assert field.mul(a, b) == ref_mul(a, b, modulus)
        if a:
            e = rng.randrange(1, 3 ** m)
            assert field.pow(a, e) == ref_pow(a, e, modulus)


@pytest.mark.parametrize(("k", "modulus"),
                         [(k, None) for k in (1, 2, 3, 4, 5, 6)] + OTHER_MODULI)
def test_table_free_ctx_agrees_with_the_tables(ctx_for, k, modulus):
    tables = ctx_for(k, modulus)
    free = gf3m._TableFreeCtx(k, modulus)
    assert ((free.k, free.m, free.q, free.order, free.modulus)
            == (tables.k, tables.m, tables.q, tables.order, tables.modulus))
    rng = random.Random(f"table-free:{k}:{modulus}")
    operands = [0, 1, 2] + [rng.randrange(tables.order) for _ in range(60)]
    for a in operands:
        assert free.neg(a) == tables.neg(a)
        for e in range(-tables.m, 2 * tables.m + 1):
            assert free.frobenius(a, e) == tables.frobenius(a, e), (a, e)
        assert free.frobenius(a) == tables.frobenius(a)
        for e in (0, 1, 2, 3, tables.q + 1, rng.randrange(tables.order ** 2)):
            assert free.pow(a, e) == tables.pow(a, e), (a, e)
        if a:
            assert free.inv(a) == tables.inv(a)
            for e in (-1, -2, -tables.q, -rng.randrange(tables.order ** 2)):
                assert free.pow(a, e) == tables.pow(a, e), (a, e)
        for b in operands:
            assert free.add(a, b) == tables.add(a, b), (a, b)
            assert free.sub(a, b) == tables.sub(a, b), (a, b)
            assert free.mul(a, b) == tables.mul(a, b), (a, b)
            if b:
                assert free.div(a, b) == tables.div(a, b), (a, b)
    for ctx in (free, tables):
        with pytest.raises(ZeroDivisionError):
            ctx.inv(0)
        with pytest.raises(ZeroDivisionError):
            ctx.pow(0, -1)


@pytest.mark.parametrize(("k", "modulus", "max_k", "message"), (
    (0, None, 6, "unsupported degree: k=0 outside 1..6"),
    (7, None, 6, "unsupported degree: k=7 outside 1..6"),
    (2, (1, 0, 0, 0, 1), 6, "reducible modulus: 1,0,0,0,1"),
    (2, (1, 0, 1, 1, 2), 6, "modulus must be monic of degree 4, got 1,0,1,1,2"),
    (2, (1, 0, 1), 6, "modulus must be monic of degree 4, got 1,0,1"),
    (1, (2, -1, 1), 6, "modulus trits must be 0, 1 or 2, got 2,-1,1"),
    (1, (1, 5, 1), 6, "modulus trits must be 0, 1 or 2, got 1,5,1"),
))
def test_both_contexts_validate_alike(k, modulus, max_k, message):
    for make in (gf3m.FieldCtx, gf3m._TableFreeCtx):
        with pytest.raises(ValueError) as info:
            make(k, modulus, max_k)
        assert str(info.value) == message


def test_table_free_ctx_refuses_k_past_its_bound_before_any_work(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    for name in ("default_modulus", "gf3_is_irreducible", "_digit_sums"):
        monkeypatch.setattr(gf3m, name, reached)
    k = gf3m._TABLE_FREE_MAX_K
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        gf3m._TableFreeCtx(k + 1, max_k=k + 1)
    assert time.perf_counter() - start < 1
    with pytest.raises(Reached):  # k = 10 reaches the modulus search
        gf3m._TableFreeCtx(k, max_k=k)


@pytest.fixture(scope="module")
def traced_k5_build():
    """One ctx_create(5) under tracemalloc, shared by the memory tests below:
    (ctx, retained, peak, kept), where kept is the traced size after a
    gc.collect has cleared the interpreter's free lists."""
    gc.collect()
    tracemalloc.start()
    try:
        ctx = ctx_create(5)
        retained, peak = tracemalloc.get_traced_memory()
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return ctx, retained, peak, kept


def test_ctx_build_transient_memory_is_below_one_int64_trit_matrix(traced_k5_build):
    # the table build must not hold an int64 n x m trit matrix (4.7 MB at
    # k = 5) on top of the tables it keeps
    ctx, retained, peak, _ = traced_k5_build
    n, m = ctx.order - 1, ctx.m
    assert ctx.alpha == 34
    assert peak - retained < n * m * 8


@pytest.mark.parametrize("k", (1, 2))
def test_ctx_build_rejects_a_non_primitive_alpha(monkeypatch, k):
    square = ctx_create(k).alpha_pow(2)  # order n / 2: no permutation
    monkeypatch.setattr(gf3m._TableFreeCtx, "_smallest_primitive", lambda self: square)
    for fill in ("pure", "numpy"):
        _use_fill(monkeypatch, fill)
        with pytest.raises(ValueError, match="not a permutation"):
            ctx_create(k)


def _use_fill(monkeypatch, fill):
    """Route every table build through one fill, whatever the field size."""
    monkeypatch.setattr(gf3m, "_PURE_FILL_MAX_N", 3 ** 14 if fill == "pure" else 0)


# k = 6 comes last so that the ids of the other moduli stay as they were;
# it is the first field the numpy fill builds by default
@pytest.mark.parametrize(("k", "modulus"),
                         [(k, None) for k in (1, 2, 3, 4, 5)] + OTHER_MODULI + [(6, None)])
def test_pure_and_numpy_fills_agree(monkeypatch, k, modulus):
    def tables():
        ctx = ctx_create(k, modulus)
        return [t.tobytes() for t in (ctx._exp, ctx._log)]

    _use_fill(monkeypatch, "pure")
    pure = tables()
    _use_fill(monkeypatch, "numpy")
    for block in BLOCK_LENS:
        monkeypatch.setattr(gf3m, "_BLOCK_LEN", block)
        assert tables() == pure, block


def test_numpy_fill_transient_memory_is_below_the_trit_planes(monkeypatch):
    # the numpy fill keeps its bitsliced columns in the _log buffer until it
    # scatters _log, so beyond the tables it holds only per-block buffers:
    # less than the
    # uint8 m x n trit planes it used to build (0.59 MB at k = 5)
    import numpy  # noqa: F401  (imported before the trace)
    k = 5
    n, m = 3 ** (2 * k) - 1, 2 * k
    _use_fill(monkeypatch, "numpy")
    gc.collect()
    tracemalloc.start()
    try:
        ctx = ctx_create(k)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.alpha == 34
    assert peak - retained < n * m


def test_ctx_tables_are_int32_buffers(traced_k5_build):
    # exactly two int32 tables, _exp of n and _log of n + 1 entries: 0.47 MB
    # at k = 5, where Python lists of ints once took 7.5 MB; the build peaks
    # below one int64 n x m trit matrix.  Once a collect has cleared the
    # interpreter's free lists (about 150 KB of tuples left by the pure
    # fill), the ctx keeps 8n bytes and a few small objects
    ctx, retained, peak, kept = traced_k5_build
    n, m = ctx.order - 1, ctx.m
    assert peak < n * m * 8
    assert retained < 2 * 2 ** 20
    assert kept <= 8 * n + 2 ** 12
    tables = {name: t for name, t in vars(ctx).items() if isinstance(t, array)}
    assert sorted(tables) == ["_exp", "_log"]
    assert [t.typecode for t in tables.values()] == ["i"] * 2
    assert (len(ctx._exp), len(ctx._log)) == (n, n + 1)
    assert isinstance(ctx.mul(ctx.alpha, ctx.alpha), int)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_zero_is_handled_before_the_log_table(ctx_for, k):
    # _log[0] is an int like any other entry, so every op must branch on 0
    ctx = ctx_for(k)
    for e in range(2 * ctx.m + 1):
        assert ctx.frobenius(0, e) == 0
    assert ctx.sqrt(0) == 0
    assert ctx.is_square(0)
    assert ctx.neg(0) == 0 and ctx.mul(0, ctx.alpha) == 0
    assert ctx.add(0, ctx.alpha) == ctx.alpha == ctx.add(ctx.alpha, 0)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_power_sum_images_match_scalar_evaluation(ctx_for, monkeypatch, k):
    ctx = ctx_for(k)
    n = ctx.order - 1
    rng = random.Random(k)
    for _ in range(30):
        terms = [(rng.randrange(1, ctx.order), rng.randrange(3 * n))
                 for _ in range(rng.randrange(1, 5))]
        if rng.random() < 0.5:  # c x^e - c x^e: partial sums vanish everywhere
            c, e = terms[0]
            terms.insert(1, (ctx.neg(c), e + n * rng.randrange(2)))
        expected = []
        for i in range(n):
            x, value = ctx.alpha_pow(i), 0
            for c, e in terms:
                value = ctx.add(value, ctx.mul(c, ctx.pow(x, e)))
            expected.append(value)
        for block in BLOCK_LENS:
            monkeypatch.setattr(gf3m, "_BLOCK_LEN", block)
            images = [v for part in ctx.power_sum_images(terms) for v in part.tolist()]
            assert images == expected


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5))
def test_power_sum_images_match_the_per_term_zech_oracle(ctx_for, monkeypatch, k):
    # power_sum_images runs the Zech steps on one period P = n / gcd(n, gaps)
    # of the index; the oracle runs them at every index
    ctx = ctx_for(k)
    n = ctx.order - 1
    rng = random.Random(100 + k)

    def coeff():
        return rng.randrange(1, ctx.order)

    cases = [
        [(coeff(), 0), (coeff(), 1)],  # gap 1, prime to n: P = n
        [(coeff(), rng.randrange(3 * n))],  # one term: P = 1
        [(coeff(), 0), (coeff(), n), (coeff(), 2 * n + 2)],  # x^0, x^n, x^(2n + 2)
        [(1, 5), (2, 5 + 2 * (ctx.q - 1))],  # x^5 - x^(5 + 2(q - 1)) vanishes at 1
    ]
    for _ in range(4):  # gaps that are multiples of a random divisor of n
        step, r = rng.choice(_divisors(n)), rng.randrange(2 * n)
        cases.append([(coeff(), r + step * rng.randrange(3 * n // step))
                      for _ in range(rng.randrange(2, 5))])
    periods = set()
    for terms in cases:
        exps = [e % n for _, e in terms]
        periods.add(n // math.gcd(n, *(e - min(exps) for e in exps)))
        expected = zech_power_sum_images(ctx, terms)
        for block in BLOCK_LENS:
            monkeypatch.setattr(gf3m, "_BLOCK_LEN", block)
            images = [v for part in ctx.power_sum_images(terms) for v in part.tolist()]
            assert images == expected, (terms, block)
    assert {1, n} <= periods
    assert zech_power_sum_images(ctx, cases[3])[0] == 0


def test_alpha_pow_matches_pow(ctx_for):
    ctx = ctx_for(2)
    n = ctx.order - 1
    for i in (-3, 0, 1, 7, n - 1, n, n + 5):
        assert ctx.alpha_pow(i) == ctx.pow(ctx.alpha, i)


# ---------------------------------------------------------------------------
# frobenius and conjugation

@pytest.mark.parametrize("k", (1, 2, 3))
def test_frobenius_is_cube(ctx_for, k):
    ctx = ctx_for(k)
    rng = random.Random(k)
    for _ in range(200):
        a = rng.randrange(ctx.order)
        assert ctx.frobenius(a) == ctx.pow(a, 3)
        assert ctx.frobenius(a, 2) == ctx.pow(a, 9)
    # order of frobenius is m
    a = ctx.alpha
    assert ctx.frobenius(a, ctx.m) == a


@given(st.integers(0, 80), st.integers(0, 80))
def test_frobenius_additive_and_multiplicative(a, b):
    ctx = ctx_create(2)
    fa, fb = ctx.frobenius(a), ctx.frobenius(b)
    assert ctx.frobenius(ctx.add(a, b)) == ctx.add(fa, fb)
    assert ctx.frobenius(ctx.mul(a, b)) == ctx.mul(fa, fb)


def test_conjugate_q_fixes_exactly_the_subfield(ctx_for):
    ctx = ctx_for(2)
    fixed = [a for a in range(ctx.order) if ctx.conjugate_q(a) == a]
    assert len(fixed) == ctx.q
    for a in fixed:
        for b in fixed:
            assert ctx.mul(a, b) in fixed  # closed, i.e. a copy of GF(q)


# ---------------------------------------------------------------------------
# squares and square roots, against the exhaustive square table

@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_sqrt_matches_exhaustive_table(ctx_for, k):
    ctx = ctx_for(k)
    squares = {}
    for x in range(ctx.order):
        squares.setdefault(ctx.mul(x, x), []).append(x)
    for a in range(ctx.order):
        if a in squares:
            assert ctx.is_square(a)
            r = ctx.sqrt(a)
            assert r == min(squares[a])
            assert ctx.mul(r, r) == a
        else:
            assert not ctx.is_square(a)
            assert ctx.sqrt(a) is None


def test_known_gf9_sqrt(ctx_for):
    ctx = ctx_for(1)
    assert ctx.sqrt(2) == 3
    assert ctx.sqrt(4) is None  # alpha itself is a non-square


def test_sqrt_normalization_picks_smaller_root(ctx_for):
    ctx = ctx_for(3)
    rng = random.Random(99)
    for _ in range(50):
        x = rng.randrange(1, ctx.order)
        a = ctx.mul(x, x)
        r = ctx.sqrt(a)
        assert r == min(x, ctx.neg(x))
        assert ctx.mul(r, r) == a


# ---------------------------------------------------------------------------
# distinguished constants

@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6))
def test_epsilon_squares_to_minus_one(ctx_for, k):
    ctx = ctx_for(k)
    eps = ctx.special_constants().epsilon
    assert ctx.mul(eps, eps) == 2
    assert eps == min(eps, ctx.neg(eps))


def test_epsilon_known_values(ctx_for):
    assert ctx_for(1).special_constants().epsilon == 3
    assert ctx_for(2).special_constants().epsilon == 15


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6))
def test_theta_exists_exactly_when_k_divisible_by_3(ctx_for, k):
    ctx = ctx_for(k)
    theta = ctx.special_constants().theta
    if k % 3 == 0:
        assert theta is not None
        # theta^3 = theta + 1
        assert ctx.pow(theta, 3) == ctx.add(theta, 1)
        assert ctx.pow(theta, 13) == 1
    else:
        assert theta is None
        assert gf3m.solve_theta(ctx) is None


def test_theta_known_value_and_conjugates(ctx_for):
    ctx = ctx_for(3)
    sc = ctx.special_constants()
    assert sc.theta == 327
    roots = ctx.theta_roots()
    assert roots[0] == sc.theta
    assert sorted(roots) == [327, 328, 329]
    for th in roots:
        assert ctx.sub(ctx.pow(th, 3), ctx.add(th, 1)) == 0
    # conjugates under the cube map
    assert roots[1] == ctx.frobenius(roots[0])
    assert roots[2] == ctx.frobenius(roots[1])


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6))
def test_sqrt_eps_minus_1_presence(ctx_for, k):
    ctx = ctx_for(k)
    sc = ctx.special_constants()
    eps_minus_1 = ctx.sub(sc.epsilon, 1)
    if k % 2 == 0:
        assert sc.sqrt_eps_minus_1 is not None
        s = sc.sqrt_eps_minus_1
        assert ctx.mul(s, s) == eps_minus_1
        # s^(q-1) = 1 exactly when k is 0 mod 4
        assert (ctx.pow(s, ctx.q - 1) == 1) == (k % 4 == 0)
    else:
        assert sc.sqrt_eps_minus_1 is None
        assert not ctx.is_square(eps_minus_1)


def test_sqrt_eps_minus_1_known_value(ctx_for):
    assert ctx_for(2).special_constants().sqrt_eps_minus_1 == 32


# ---------------------------------------------------------------------------
# parsing and the element wrapper

def test_parse_element_roundtrip(ctx_for):
    ctx = ctx_for(2)
    assert gf3m.parse_element(ctx, "12") == 12
    assert gf3m.parse_element(ctx, "1,2") == trits_to_enc([1, 2, 0, 0])
    with pytest.raises(ValueError, match="malformed element"):
        gf3m.parse_element(ctx, "x+1")
    with pytest.raises(ValueError, match="out of range"):
        gf3m.parse_element(ctx, "81")


def test_parse_format_modulus_roundtrip():
    assert gf3m.parse_modulus("1,0,1") == (1, 0, 1)
    assert gf3m.format_modulus((1, 0, 1)) == "1,0,1"
    with pytest.raises(ValueError, match="malformed modulus"):
        gf3m.parse_modulus("1,0,3")
    with pytest.raises(ValueError, match="malformed modulus"):
        gf3m.parse_modulus("")


def test_encode_decode_roundtrip(ctx_for):
    ctx = ctx_for(2)
    for enc in (0, 1, 2, 17, 80):
        assert ctx.encode(ctx.decode(enc)) == enc
    assert ctx.decode(5) == (2, 1, 0, 0)
    with pytest.raises(ValueError, match="bad trit vector"):
        ctx.encode([3, 0, 0, 0])


# ---------------------------------------------------------------------------
# axioms, property-based

@settings(max_examples=60)
@given(st.integers(0, 728), st.integers(0, 728), st.integers(0, 728))
def test_field_axioms_hold(a, b, c):
    ctx = ctx_create(3)
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.add(a, 0) == a and ctx.mul(a, 1) == a
    assert ctx.add(a, ctx.neg(a)) == 0
    if a:
        assert ctx.mul(a, ctx.inv(a)) == 1
