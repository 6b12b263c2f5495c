"""The field's subgroup tables, the inverse read off them, and the modulus
search's GF(3)-root sieve, against oracles that need neither numpy nor
hypothesis (CI runs this file on the requires-python floor with only pytest
installed)."""

import itertools
import random

import pytest

from trinolab import gf3m
from trinolab.polyring import Poly, _frobenius_chain, poly_gcd

from conftest import OTHER_MODULI, ref_irreducible, ref_pow


def _field(k, modulus=None):
    return gf3m.FieldCtx(k, modulus, max_k=max(k, gf3m.DEFAULT_MAX_K))


# ---------------------------------------------------------------------------
# the subgroup tables and the inverse

@pytest.mark.parametrize(("k", "modulus"),
                         [(k, None) for k in (1, 2, 3)] + OTHER_MODULI)
def test_inv_is_the_power_order_minus_two_everywhere(k, modulus):
    ctx = _field(k, modulus)
    for a in range(1, ctx.order):
        assert ctx.inv(a) == ctx.pow(a, ctx.order - 2), a


@pytest.mark.parametrize("k", (4, 5, 6, 7, 8))
def test_inv_is_the_power_order_minus_two_on_sampled_elements(k):
    ctx = _field(k)
    rng = random.Random(f"inv:{k}")
    for _ in range(2000):
        a = rng.randrange(1, ctx.order)
        assert ctx.inv(a) == ctx.pow(a, ctx.order - 2), a


def test_inv_of_zero_raises():
    for k in (1, 2, 5):
        with pytest.raises(ZeroDivisionError):
            _field(k).inv(0)


def test_inv_takes_no_pow_once_the_tables_exist(monkeypatch):
    ctx = _field(5)
    ctx.inv(2)  # builds the GF(q)* table with pow(alpha, q + 1)

    def no_pow(*args):
        raise AssertionError("inv took a pow")

    monkeypatch.setattr(gf3m.FieldCtx, "pow", no_pow)
    rng = random.Random("inv-no-pow")
    for a in (1, 2, ctx.alpha, *(rng.randrange(1, ctx.order) for _ in range(200))):
        assert ctx.mul(a, ctx.inv(a)) == 1, a


@pytest.mark.parametrize(("k", "modulus"),
                         [(k, None) for k in (1, 2, 3, 4)] + OTHER_MODULI)
def test_subgroup_tables_index_the_powers_of_alpha(k, modulus):
    # the oracle raises alpha by ref_pow, with none of the packed-int ops
    ctx = _field(k, modulus)
    n, q = ctx.order - 1, ctx.q
    for d in (q - 1, q + 1):
        powers, logs = ctx._subgroup(d)
        z = ref_pow(ctx.alpha, n // d, ctx.modulus)
        assert powers == [ref_pow(z, i, ctx.modulus) for i in range(d)]
        assert logs == {x: i for i, x in enumerate(powers)}
        assert ctx._subgroup(d)[0] is powers  # built once, then kept
    assert sorted(ctx._subgroups) == [q - 1, q + 1]


# ---------------------------------------------------------------------------
# the modulus search's sieve

def _unsieved_is_irreducible(f):
    """Rabin's test alone, with no GF(3)-root sieve in front of it."""
    f = Poly(gf3m._GF3, f)
    d = f.degree
    chain = _frobenius_chain(f, d)
    x = chain[0]
    return chain[d] == x and all(poly_gcd(f, chain[d // p] - x).degree == 0
                                 for p in gf3m._factorize(d))


def _unsieved_default_modulus(m):
    """The first monic candidate, constant term 0 skipped above degree 1,
    that passes Rabin's test alone."""
    constant = range(1 if m > 1 else 0, 3)
    for tail in itertools.product(constant, *[range(3)] * (m - 1)):
        if _unsieved_is_irreducible((*tail, 1)):
            return (*tail, 1)
    raise AssertionError(f"no irreducible of degree {m}")


@pytest.mark.parametrize("m", range(1, 21))
def test_default_modulus_matches_the_unsieved_rabin_scan(m):
    assert gf3m.default_modulus(m) == _unsieved_default_modulus(m)


def test_default_modulus_12_runs_thirteen_rabin_tests(monkeypatch):
    chains = 0
    original = gf3m._frobenius_chain

    def counting(f, length):
        nonlocal chains
        chains += 1
        return original(f, length)

    monkeypatch.setattr(gf3m, "_frobenius_chain", counting)
    gf3m.default_modulus(12)
    assert chains == 13  # of 29 candidates


def test_gf3_is_irreducible_matches_trial_division_up_to_degree_6():
    for deg in range(1, 7):
        for low in itertools.product(range(3), repeat=deg):
            f = (*low, 1)
            assert gf3m.gf3_is_irreducible(f) == ref_irreducible(f), f


@pytest.mark.parametrize(("k", "modulus"), OTHER_MODULI)
def test_other_moduli_are_still_accepted(k, modulus):
    assert gf3m.FieldCtx(k, modulus).modulus == modulus


@pytest.mark.parametrize(("k", "modulus"), ((1, (2, 0, 1)), (2, (1, 0, 0, 0, 1))))
def test_reducible_moduli_are_still_refused(k, modulus):
    # x^2 + 2 = (x - 1)(x + 1) stops at the sieve; x^4 + 1, with no root in
    # GF(3), at Rabin's test
    for make in (gf3m.FieldCtx, gf3m.ctx_create):
        with pytest.raises(ValueError) as info:
            make(k, modulus)
        assert str(info.value) == f"reducible modulus: {gf3m.format_modulus(modulus)}"
