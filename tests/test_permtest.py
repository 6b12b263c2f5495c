"""Bijection reports, unity subgroups, and the index-form permutation test."""

import math
import random
from itertools import accumulate, repeat

import pytest

from trinolab.gf3m import ctx_create
from trinolab.permtest import (_settle_orbits, is_bijection_on, mu_enumerate,
                               zieve_criterion)
from trinolab.polyring import Poly

from conftest import per_point_zieve

CTX9 = ctx_create(1)
CTX81 = ctx_create(2)


# ---------------------------------------------------------------------------
# bijection reports

def test_identity_is_bijection():
    rep = is_bijection_on(lambda x: x, range(10))
    assert rep.is_bijection and rep.collision is None and rep.missed is None


def test_constant_map_reports_first_collision_and_smallest_missed():
    rep = is_bijection_on(lambda x: 1, [1, 2, 3, 6])
    assert not rep.is_bijection
    assert rep.collision == (1, 2)  # scanned in sorted order
    assert rep.missed == 2


def test_collision_pair_is_ordered_by_encoding():
    # domain given unsorted; the report still scans ascending
    fn = {5: 0, 3: 7, 1: 7}.get
    rep = is_bijection_on(fn, [5, 1, 3])
    assert not rep.is_bijection
    assert rep.collision == (1, 3)
    assert rep.missed == 1


def test_permutation_of_subgroup():
    mu = mu_enumerate(CTX9, 4)
    rep = is_bijection_on(lambda x: CTX9.mul(x, x), mu)  # squaring on mu_4
    # squaring is 2-to-1 on a group of even order
    assert not rep.is_bijection
    inv = is_bijection_on(CTX9.inv, mu)
    assert inv.is_bijection


# ---------------------------------------------------------------------------
# unity subgroups

def test_mu4_in_gf9():
    mu = mu_enumerate(CTX9, 4)
    assert mu == frozenset({1, 2, 3, 6})
    assert len(mu) == 4
    assert 4 not in mu and 0 not in mu
    for x in mu:
        assert CTX9.pow(x, 4) == 1


def test_mu_product_is_minus_one_for_even_order():
    # the unique element of order 2 survives in the full product
    for ctx, d in ((CTX9, 4), (CTX81, 10), (CTX81, 16)):
        prod = 1
        for x in mu_enumerate(ctx, d):
            prod = ctx.mul(prod, x)
        assert prod == 2


def test_mu_rejects_non_divisor():
    with pytest.raises(ValueError, match="not a subgroup order"):
        mu_enumerate(CTX9, 3)
    with pytest.raises(ValueError, match="not a subgroup order"):
        mu_enumerate(CTX9, 0)


def test_mu_full_group_and_trivial():
    assert sorted(mu_enumerate(CTX9, 8)) == list(range(1, 9))
    assert list(mu_enumerate(CTX9, 1)) == [1]


def _stepped_mu(ctx, d):
    """mu_d by stepping z^i, one product per element: the path mu_enumerate
    takes below d = order - 1, kept as the oracle for its shortcut there."""
    z = ctx.alpha_pow((ctx.order - 1) // d)
    return frozenset(accumulate(repeat(z, d - 1), ctx.mul, initial=1))


@pytest.mark.parametrize("k", (1, 2, 3))
def test_mu_enumerate_matches_stepping_at_every_divisor(monkeypatch, k):
    ctx = ctx_create(k)
    n = ctx.order - 1
    for d in (d for d in range(1, n + 1) if n % d == 0):
        assert mu_enumerate(ctx, d) == _stepped_mu(ctx, d), d
    # the whole group is every nonzero encoding, and takes no product

    def no_products(a, b):
        raise AssertionError("mu_enumerate took a product")

    monkeypatch.setattr(ctx, "mul", no_products)
    assert mu_enumerate(ctx, n) == frozenset(range(1, ctx.order))


def test_mu_membership_is_power_check():
    for d in (2, 4, 5, 8, 10, 16, 20, 40, 80):
        mu = mu_enumerate(CTX81, d)
        members = {x for x in range(1, 81) if CTX81.pow(x, d) == 1}
        assert set(mu) == members


# ---------------------------------------------------------------------------
# the index-form criterion, validated against the full-field definition

def field_map(ctx, r, s, h):
    """x -> x^r h(x^s) on the whole field, with 0 -> 0."""
    def fn(x):
        if x == 0:
            return 0
        return ctx.mul(ctx.pow(x, r), h.eval(ctx.pow(x, s)))
    return fn


@pytest.mark.parametrize("d", (1, 2, 4, 8))
def test_zieve_equivalence_exhaustive_small_field(d):
    """cond1 and cond2 together are equivalent to f permuting the field."""
    ctx = CTX9
    n = ctx.order - 1
    s = n // d
    rng = random.Random(d)
    hs = [Poly(ctx, (1,)), Poly(ctx, (1, 1)), Poly(ctx, (2, 0, 1))]
    hs += [Poly(ctx, [rng.randrange(9) for _ in range(4)]) for _ in range(12)]
    for h in hs:
        if h.is_zero:
            continue
        for r in (1, 2, 3, 5, 7):
            cond1, cond2 = zieve_criterion(ctx, r, d, h)
            assert (cond1, cond2) == per_point_zieve(ctx, r, d, h), (d, r, h.coeffs)
            direct = is_bijection_on(field_map(ctx, r, s, h),
                                     range(ctx.order)).is_bijection
            assert (cond1 and cond2) == direct, (d, r, h.coeffs)


def test_zieve_equivalence_sampled_larger_field():
    ctx = CTX81
    n = ctx.order - 1
    rng = random.Random(2026)
    for _ in range(25):
        d = rng.choice((2, 4, 5, 8, 10, 16, 20))
        r = rng.randrange(1, 12)
        h = Poly(ctx, [rng.randrange(81) for _ in range(rng.randrange(1, 6))])
        if h.is_zero:
            continue
        cond1, cond2 = zieve_criterion(ctx, r, d, h)
        assert (cond1, cond2) == per_point_zieve(ctx, r, d, h), (d, r, h.coeffs)
        direct = is_bijection_on(field_map(ctx, r, n // d, h),
                                 range(ctx.order)).is_bijection
        assert (cond1 and cond2) == direct, (d, r, h.coeffs)


def test_zieve_cond1_is_the_gcd_side():
    ctx = CTX9
    h = Poly(ctx, (1,))
    for d in (1, 2, 4, 8):
        for r in range(1, 9):
            cond1, _ = zieve_criterion(ctx, r, d, h)
            assert cond1 == (math.gcd(r, (ctx.order - 1) // d) == 1)


def test_zieve_vanishing_h_fails_cond2():
    # h = x - 1 vanishes at 1, which lies in every mu_d
    h = Poly(CTX9, (2, 1))
    cond1, cond2 = zieve_criterion(CTX9, 1, 4, h)
    assert cond1 and not cond2
    # h = x^2 + 1 vanishes on +/-eps, one orbit of the cube (eps^3 = -eps)
    # inside mu_4 and mu_8: the walk carries the None image to the member
    # it did not settle
    h = Poly(CTX9, (1, 0, 1))
    for d in (4, 8):
        for r in range(1, 8):
            cond1, cond2 = zieve_criterion(CTX9, r, d, h)
            assert not cond2, (d, r)
            assert (cond1, cond2) == per_point_zieve(CTX9, r, d, h), (d, r)


def test_zieve_validates_inputs():
    h = Poly(CTX9, (1,))
    with pytest.raises(ValueError):
        zieve_criterion(CTX9, 0, 4, h)
    with pytest.raises(ValueError, match="not a subgroup order"):
        zieve_criterion(CTX9, 1, 3, h)


# ---------------------------------------------------------------------------
# the orbit walker, against one evaluation per point

def _orbit(ctx, x, negation):
    """The closure of {x} under y -> y^3 (and y -> -y), by brute force."""
    orbit, todo = set(), [x]
    while todo:
        y = todo.pop()
        if y not in orbit:
            orbit.add(y)
            todo.append(ctx.pow(y, 3))
            if negation:
                todo.append(ctx.mul(2, y))
    return frozenset(orbit)


def _fifth_power_off_mu4(ctx, x):
    """x^5, or None on mu_4: commutes with the cube and with negation, and
    is undefined on a union of orbits."""
    return None if ctx.pow(x, 4) == 1 else ctx.pow(x, 5)


@pytest.mark.parametrize("negation", (False, True), ids=("cube", "cube-neg"))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_settle_orbits_matches_the_per_point_values(k, negation):
    ctx = ctx_create(k)
    mu = sorted(mu_enumerate(ctx, ctx.q + 1))
    rng = random.Random(k)
    shuffled = rng.sample(mu, len(mu))
    subset = rng.sample(mu, len(mu) // 3)
    # a member from the middle of an orbit of size 2k, before its orbit's
    # smallest encoding
    middle = next(x for x in mu if len(_orbit(ctx, x, False)) == 2 * k)
    middle = ctx.pow(middle, 3 ** k)
    first = [middle] + [x for x in mu if x != middle]
    for xs in (mu, shuffled, subset, [middle], first):
        settled = []

        def settle(x):
            settled.append(x)
            return _fifth_power_off_mu4(ctx, x)

        got = list(_settle_orbits(ctx, xs, settle, ctx.frobenius,
                                  ctx.neg if negation else None))
        assert [x for x, _ in got] == list(xs)
        for x, value in got:
            assert value == _fifth_power_off_mu4(ctx, x), x
        orbits = {_orbit(ctx, x, negation) for x in xs}
        assert len(settled) == len(orbits)
        assert {_orbit(ctx, x, negation) for x in settled} == orbits
