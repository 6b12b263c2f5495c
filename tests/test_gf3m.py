"""Field engine checks against an independent reference implementation."""

import gc
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinolab import gf3m
from trinolab.gf3m import ctx_create, default_modulus

from conftest import (OTHER_MODULI, enc_to_trits, ref_add,
                      ref_default_modulus, ref_irreducible, ref_mul, ref_neg,
                      ref_pow, trits_to_enc)

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


@pytest.mark.parametrize("modulus", (None, (2,) + (0,) * 21 + (1,)), ids=("None", "modulus1"))
def test_ctx_refuses_int32_overflow_before_any_work(monkeypatch, modulus):
    # past _SETUP_MAX_K = 10 (3^22 - 1 >= 2^31, and the set-up would triple
    # per k): refused before the modulus search, the irreducibility test of
    # a given modulus, or any set-up
    def forbidden(*args):
        raise AssertionError("field construction started")

    for name in ("default_modulus", "gf3_is_irreducible", "_factorize", "_digit_sums"):
        monkeypatch.setattr(gf3m, name, forbidden)
    k = gf3m._SETUP_MAX_K + 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        ctx_create(k, modulus, max_k=k)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("k", (7, 8))
def test_ctx_memory_guard_lets_k7_and_k8_through(monkeypatch, k):
    # both reach the modulus search, stopped here before any set-up
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


def test_known_gf9_facts(both_for):
    for ctx in both_for(1):
        assert ctx.alpha == 4          # x + 1 generates GF(9)*
        assert ctx.mul(3, 3) == 2      # x * x = x^2 = -1 mod x^2 + 1
        assert ctx.pow(ctx.alpha, 8) == 1
        assert ctx.pow(ctx.alpha, 4) == 2  # alpha^(n/2) = -1


def test_alpha_is_primitive(both_for):
    for k in (1, 2, 3, 4):
        for ctx in both_for(k):
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


def test_alpha_is_the_smallest_primitive_element(both_for):
    for k, modulus in [(k, None) for k in (1, 2, 3)] + OTHER_MODULI[:4]:
        for ctx in both_for(k, modulus):
            n = ctx.order - 1
            assert _has_full_order(ctx.alpha, n, ctx.modulus)
            for c in range(2, ctx.alpha):
                assert not _has_full_order(c, n, ctx.modulus), c
    # pinned: another alpha would change every table and every report
    assert [ctx.alpha for k in (4, 5, 6) for ctx in both_for(k)] == [4, 4, 34, 34, 4, 4]
    assert ctx_create(1, (2, 1, 1)).alpha == 3
    # k = 7 without the table fill
    assert gf3m.FieldCtx(7, max_k=7).alpha == 4


@pytest.mark.parametrize("modulus", (KNOWN_MODULI[2], (2, 1, 1), KNOWN_MODULI[4],
                                     (1, 0, 1, 2, 1)))
def test_table_free_mul_matches_reference(modulus):
    # the multiply and power FieldCtx finds alpha and builds its log tables with
    field = gf3m.FieldCtx((len(modulus) - 1) // 2, modulus)
    m = len(modulus) - 1
    rng = random.Random(len(modulus))
    for _ in range(200):
        a, b = rng.randrange(3 ** m), rng.randrange(3 ** m)
        assert field.mul(a, b) == ref_mul(a, b, modulus)
        if a:
            e = rng.randrange(1, 3 ** m)
            assert field.pow(a, e) == ref_pow(a, e, modulus)


@pytest.mark.parametrize(("k", "modulus"),
                         [(k, None) for k in (1, 2, 3, 4, 5, 6)] + OTHER_MODULI)
def test_table_free_ctx_agrees_with_the_tables(tables_for, k, modulus):
    # the core's ops against the same ops read off the exp and log tables
    tables = tables_for(k, modulus)
    free = gf3m.FieldCtx(k, modulus)
    assert ((free.k, free.m, free.q, free.order, free.modulus, free.alpha)
            == (tables.k, tables.m, tables.q, tables.order, tables.modulus, tables.alpha))
    rng = random.Random(f"table-free:{k}:{modulus}")
    operands = [0, 1, 2] + [rng.randrange(tables.order) for _ in range(60)]
    for a in operands:
        assert free.neg(a) == tables.neg(a)
        assert free.conjugate_q(a) == tables.conjugate_q(a)
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
    for make in (gf3m.ctx_create, gf3m.FieldCtx):
        with pytest.raises(ValueError) as info:
            make(k, modulus, max_k)
        assert str(info.value) == message


def test_table_free_ctx_refuses_k_past_its_bound_before_any_work(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    # k = 11 is refused before the modulus search, the irreducibility test
    # of a given modulus or any set-up (ctx_create's refusal is checked
    # above); k = 9 and 10 reach the modulus search, through FieldCtx and
    # ctx_create alike
    for name in ("default_modulus", "gf3_is_irreducible", "_factorize", "_digit_sums"):
        monkeypatch.setattr(gf3m, name, reached)
    k = gf3m._SETUP_MAX_K
    for modulus in (None, (2,) + (0,) * (2 * k + 1) + (1,)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="too large"):
            gf3m.FieldCtx(k + 1, modulus, max_k=k + 1)
        assert time.perf_counter() - start < 1
    for make in (gf3m.FieldCtx, ctx_create):
        for reachable in (k - 1, k):
            with pytest.raises(Reached):
                make(reachable, max_k=reachable)


def test_ctx_build_transient_memory_is_below_one_int64_trit_matrix():
    # ctx_create(5) and its first _log hold nothing of the field's size:
    # the tables of GF(q)* and mu_{q+1} have q - 1 and q + 1 entries, each
    # a list and a dict, and _log's own list q - 1; the whole build keeps
    # 145 KB and peaks 0.4 KB higher under tracemalloc, where an int64
    # n x m trit matrix takes 4.7 MB and one byte per element 59 KB
    gc.collect()
    tracemalloc.start()
    try:
        ctx = ctx_create(5)
        assert ctx._log(ctx.alpha) == 1
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n, m, q = ctx.order - 1, ctx.m, ctx.q
    assert ctx.alpha == 34
    assert {d: [len(t) for t in tables] for d, tables in ctx._subgroups.items()} \
        == {q - 1: [q - 1, q - 1], q + 1: [q + 1, q + 1]}
    assert len(ctx._inverse_powers) == q - 1
    assert peak < 2 ** 18 < n * m * 8
    assert peak - retained < n


# k = 6 comes last so that the ids of the other moduli stay as they were
@pytest.mark.parametrize(("k", "modulus"),
                         [(k, None) for k in (1, 2, 3, 4, 5)] + OTHER_MODULI + [(6, None)])
def test_pure_and_numpy_fills_agree(tables_for, k, modulus):
    # the pure Python side steps alpha^i by one packed-int product at a time
    # and takes _log of each; the numpy side is conftest's exp and log
    # lists, doubled from trit rows with matrices read off ref_mul
    walk = ctx_create(k, modulus)
    tables = tables_for(k, modulus)
    x = 1
    for i in range(walk.order - 1):
        assert tables._exps[i] == x and tables._logs[x] == i and walk._log(x) == i, i
        x = walk.mul(x, walk.alpha)
    assert x == 1


@pytest.mark.parametrize("k", (1, 2))
def test_ctx_build_rejects_a_non_primitive_alpha(monkeypatch, k):
    square = ctx_create(k).alpha_pow(2)  # order n / 2
    monkeypatch.setattr(gf3m.FieldCtx, "_smallest_primitive", lambda self: square)
    ctx = ctx_create(k)
    for use in (ctx._log, ctx.inv, lambda a: ctx._subgroup(ctx.q + 1)):
        with pytest.raises(ValueError, match="not primitive"):
            use(1)
    # no half-built tables are kept
    assert ctx._subgroups == {} and ctx._inverse_powers is None


def test_ctx_create_fills_no_tables(monkeypatch):
    # the subgroup tables are built by the first inv or _log, not by the build
    def no_walk(self, d):
        raise AssertionError("a subgroup walk ran")

    monkeypatch.setattr(gf3m.FieldCtx, "_subgroup", no_walk)
    for k in (1, 5, 6):
        for ctx in (ctx_create(k), gf3m.FieldCtx(k)):
            assert ctx._subgroups is None and ctx._inverse_powers is None
            for use in (ctx._log, ctx.inv):
                with pytest.raises(AssertionError, match="a subgroup walk ran"):
                    use(1)


@pytest.mark.parametrize(("k", "modulus"),
                         [(k, None) for k in (1, 2, 3, 4, 5, 6)] + OTHER_MODULI)
def test_inv_matches_the_log_table_oracle(tables_for, k, modulus):
    # every nonzero element up to k = 3, 2,000 seeded ones above
    tables, ctx = tables_for(k, modulus), gf3m.FieldCtx(k, modulus)
    elements = range(1, ctx.order)
    if k > 3:
        elements = random.Random(f"inv:{k}").sample(elements, 2000)
    for a in elements:
        assert ctx.inv(a) == tables.inv(a), a


@pytest.mark.parametrize("k", (1, 2, 3))
def test_zero_is_handled_before_the_log_table(both_for, k):
    # conftest's _logs[0] is an int like any other entry, so every op must
    # branch on 0
    for ctx in both_for(k):
        for e in range(2 * ctx.m + 1):
            assert ctx.frobenius(0, e) == 0
        assert ctx.sqrt(0) == 0
        assert ctx.neg(0) == 0 and ctx.mul(0, ctx.alpha) == 0
        assert ctx.add(0, ctx.alpha) == ctx.alpha == ctx.add(ctx.alpha, 0)


def test_alpha_pow_matches_pow(both_for):
    tables, core = both_for(2)
    n = tables.order - 1
    for i in (-3, 0, 1, 7, n - 1, n, n + 5):
        assert core.alpha_pow(i) == tables.alpha_pow(i) == tables.pow(tables.alpha, i)
    assert [tables.alpha_pow(i) for i in range(n)] == tables._exps


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


def test_conjugate_q_fixes_exactly_the_subfield(both_for):
    for ctx in both_for(2):
        fixed = [a for a in range(ctx.order) if ctx.conjugate_q(a) == a]
        assert len(fixed) == ctx.q
        for a in fixed:
            for b in fixed:
                assert ctx.mul(a, b) in fixed  # closed, i.e. a copy of GF(q)


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6, 7, 8))
def test_conjugate_q_is_the_k_fold_frobenius(k):
    # one lookup in the half tables of x^(qj) against k single cubes: every
    # element up to k = 3, 2,000 seeded ones above
    core = gf3m.FieldCtx(k, max_k=k)
    elements = range(core.order)
    if k > 3:
        rng = random.Random(f"conjugate:{k}")
        elements = [0, 1, 2] + [rng.randrange(core.order) for _ in range(2000)]
    for a in elements:
        assert core.conjugate_q(a) == core.frobenius(a, k), a


# ---------------------------------------------------------------------------
# squares and square roots, against the exhaustive square table

@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_sqrt_matches_exhaustive_table(both_for, k):
    tables, core = both_for(k)
    squares = {}
    for x in range(tables.order):
        squares.setdefault(tables.mul(x, x), []).append(x)
    for a in range(tables.order):
        if a in squares:
            r = tables.sqrt(a)
            assert r == min(squares[a]) == core.sqrt(a)
            assert tables.mul(r, r) == a
        else:
            assert tables.sqrt(a) is None and core.sqrt(a) is None


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6, 7, 8))
def test_core_sqrt_matches_the_log_table(tables_for, k):
    # up to k = 6 the oracle reads conftest's log lists: a != 0 is a square
    # iff log a is even, and its roots are +-alpha^(log a / 2).  k = 7 and 8
    # have no lists, so there a root must square to a and be the smaller of
    # +-r, and a non-square must fail Euler's criterion, a^(n/2) != 1.
    # Every element up to k = 4, 3,000 seeded ones above
    ctx = gf3m.FieldCtx(k, max_k=k)
    elements = range(ctx.order)
    if k > 4:
        rng = random.Random(f"sqrt:{k}")
        elements = [rng.randrange(ctx.order) for _ in range(3000)]
    if k > 6:
        for a in elements:
            r = ctx.sqrt(a)
            if r is None:
                assert ctx.pow(a, (ctx.order - 1) // 2) != 1, a
            else:
                assert ctx.mul(r, r) == a and r == min(r, ctx.neg(r)), a
        return
    tables = tables_for(k)

    def by_log(a):
        if a == 0:
            return 0
        log = tables._logs[a]
        if log % 2:
            return None
        r = tables._exps[log // 2]
        return min(r, ctx.neg(r))

    for a in elements:
        assert ctx.sqrt(a) == by_log(a), a


def test_known_gf9_sqrt(both_for):
    for ctx in both_for(1):
        assert ctx.sqrt(2) == 3
        assert ctx.sqrt(4) is None  # alpha itself is a non-square


def test_sqrt_normalization_picks_smaller_root(both_for):
    for ctx in both_for(3):
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
def test_epsilon_squares_to_minus_one(both_for, k):
    tables, core = both_for(k)
    assert core.special_constants() == tables.special_constants()
    eps = tables.special_constants().epsilon
    assert tables.mul(eps, eps) == 2
    assert eps == min(eps, tables.neg(eps))


def test_epsilon_known_values(both_for):
    for ctx in both_for(1) + both_for(2):
        assert ctx.special_constants().epsilon == (3 if ctx.k == 1 else 15)


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6))
def test_theta_exists_exactly_when_k_divisible_by_3(both_for, k):
    for ctx in both_for(k):
        theta = ctx.special_constants().theta
        if k % 3 == 0:
            assert theta is not None
            # theta^3 = theta + 1
            assert ctx.pow(theta, 3) == ctx.add(theta, 1)
            assert ctx.pow(theta, 13) == 1
        else:
            assert theta is None
            assert gf3m.solve_theta(ctx) is None


def test_theta_known_value_and_conjugates(both_for):
    for ctx in both_for(3):
        sc = ctx.special_constants()
        assert sc.theta == 327
        # the other roots are theta's conjugates under the cube map
        roots = [ctx.frobenius(sc.theta, i) for i in range(3)]
        assert roots == [327, 328, 329]
        for th in roots:
            assert ctx.sub(ctx.pow(th, 3), ctx.add(th, 1)) == 0


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6))
def test_sqrt_eps_minus_1_presence(both_for, k):
    for ctx in both_for(k):
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
            assert ctx.sqrt(eps_minus_1) is None


def test_sqrt_eps_minus_1_known_value(both_for):
    for ctx in both_for(2):
        assert ctx.special_constants().sqrt_eps_minus_1 == 32


# ---------------------------------------------------------------------------
# parsing and the element wrapper

def test_parse_element_roundtrip(both_for):
    for ctx in both_for(2):
        assert gf3m.parse_element(ctx, "12") == 12
        assert gf3m.parse_element(ctx, "1,2") == trits_to_enc([1, 2, 0, 0])
        with pytest.raises(ValueError, match="malformed element"):
            gf3m.parse_element(ctx, "x+1")
        with pytest.raises(ValueError, match="out of range"):
            gf3m.parse_element(ctx, "81")
        # a trit list names the element and the trits the field takes
        for text in ("1,5", "1,0,1,0,1"):
            with pytest.raises(ValueError) as info:
                gf3m.parse_element(ctx, text)
            assert str(info.value) == (f"malformed element {text!r}: GF(3^4) takes "
                                       f"at most 4 trits, each 0, 1 or 2")
    with pytest.raises(ValueError, match="malformed element '1,0,1': GF.3.2. "
                                         "takes at most 2 trits"):
        gf3m.parse_element(ctx_create(1), "1,0,1")


def test_parse_format_modulus_roundtrip():
    assert gf3m.parse_modulus("1,0,1") == (1, 0, 1)
    assert gf3m.format_modulus((1, 0, 1)) == "1,0,1"
    with pytest.raises(ValueError, match="malformed modulus"):
        gf3m.parse_modulus("1,0,3")
    with pytest.raises(ValueError, match="malformed modulus"):
        gf3m.parse_modulus("")


def test_encode_decode_roundtrip(both_for):
    for ctx in both_for(2):
        for enc in (0, 1, 2, 17, 80):
            assert ctx.encode(ctx.decode(enc)) == enc
        assert ctx.decode(5) == (2, 1, 0, 0)
        with pytest.raises(ValueError, match="bad trit vector"):
            ctx.encode([3, 0, 0, 0])
        assert repr(ctx) == f"{type(ctx).__name__}(k=2, modulus=1,0,1,1,1)"


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
