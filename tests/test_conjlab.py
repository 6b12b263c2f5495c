"""Trinomial families, fiber analysis, case classification, and sweeps."""

import gc
import math
import random
import tracemalloc

import pytest

from trinolab import conjlab, gf3m
from trinolab.conjlab import (LemmaCase, classify_septic_factor,
                              count_solutions_quintic, count_solutions_septic,
                              denominator_nonvanishing, distinct_root_exclusion,
                              fiber_polynomial, fractional_map, g_permutes_mu,
                              harvest_witnesses, quintic_relation_holds,
                              septic_displayed_identities_hold, sweep,
                              sweep_row, trinomial_decompose, trinomial_family,
                              trinomial_map, uv_identity_check,
                              quintic_displayed_identities_hold,
                              verify_quintic_coefficient_system,
                              verify_quintic_factor_relation,
                              verify_septic_coefficient_system,
                              verify_septic_factor_case)
from trinolab.gf3m import ctx_create
from trinolab.permtest import is_bijection_on, mu_enumerate, zieve_criterion
from trinolab.polyring import Poly, poly_gcd, quadratic_factors, roots_in_set

from conftest import BLOCK_LENS, vanishing_denominator_map

CTX9 = ctx_create(1)
CTX81 = ctx_create(2)


def valid_ls(family, ctx, candidates=range(0, 7)):
    out = []
    for l in candidates:
        try:
            trinomial_family(family, l, ctx)
        except ValueError:
            continue
        out.append(l)
    return out


def dense_poly(spec, ctx):
    """The trinomial as a dense Poly, built from the spec's exponents and
    signs alone: an oracle independent of the sparse routes."""
    coeffs = [0] * (max(spec.exponents) + 1)
    for e, s in zip(spec.exponents, spec.signs):
        coeffs[e] = 1 if s > 0 else 2
    return Poly(ctx, coeffs)


# ---------------------------------------------------------------------------
# family construction

def test_family_exponents_known_values():
    spec = trinomial_family(2, 1, CTX9)
    assert spec.exponents == (5, 13, 1)
    assert spec.signs == (1, -1, 1)
    assert spec.gcd_ok

    spec = trinomial_family(3, 2, CTX9)
    assert spec.exponents == (9, 13, 5)
    assert spec.signs == (1, 1, -1)

    spec = trinomial_family(1, 1, CTX81)
    assert spec.exponents == (15, 55, 7)
    assert spec.signs == (1, 1, -1)


def test_family_exponent_formulas():
    q = CTX81.q
    for l in valid_ls(1, CTX81):
        spec = trinomial_family(1, l, CTX81)
        assert spec.exponents == (l * q + l + 5, (l + 5) * q + l,
                                  (l - 1) * q + l + 6)
        assert spec.gcd_ok == (math.gcd(5 + 2 * l, q - 1) == 1)
    for l in valid_ls(2, CTX81):
        spec = trinomial_family(2, l, CTX81)
        assert spec.exponents == (l * q + l + 1, (l + 4) * q + l - 3,
                                  (l - 2) * q + l + 3)
        assert spec.gcd_ok == (math.gcd(1 + 2 * l, q - 1) == 1)
    for l in valid_ls(3, CTX81):
        spec = trinomial_family(3, l, CTX81)
        assert spec.exponents == (l * q + l + 1, (l + 2) * q + l - 1,
                                  (l - 2) * q + l + 3)
        assert spec.gcd_ok == (math.gcd(1 + 2 * l, q - 1) == 1)


def test_family_polynomial_has_signed_terms():
    poly = dense_poly(trinomial_family(2, 1, CTX9), CTX9)
    coeffs = dict(enumerate(poly.coeffs))
    nonzero = {e: c for e, c in coeffs.items() if c}
    # +x^5 - x^13 + x: subtraction encodes as 2
    assert nonzero == {5: 1, 13: 2, 1: 1}


def test_family_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unknown family"):
        trinomial_family(4, 1, CTX9)
    with pytest.raises(ValueError, match="l too small for family 2"):
        trinomial_family(2, 1, CTX81)
    with pytest.raises(ValueError, match="l too small"):
        trinomial_family(1, 0, CTX81)


def test_trinomial_map_matches_polynomial():
    for family, l in ((1, 1), (2, 1), (3, 2)):
        spec = trinomial_family(family, l, CTX9)
        poly = dense_poly(spec, CTX9)
        fn = trinomial_map(spec, CTX9)
        for x in range(9):
            assert fn(x) == poly(x)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_vector_images_match_the_scalar_map(ctx_for, monkeypatch, k):
    ctx = ctx_for(k)
    for family in (1, 2, 3):
        for l in valid_ls(family, ctx, range(0, 13)):
            spec = trinomial_family(family, l, ctx)
            fn = trinomial_map(spec, ctx)
            expected = [fn(ctx.alpha_pow(i)) for i in range(ctx.order - 1)]
            for block in BLOCK_LENS:
                monkeypatch.setattr(gf3m, "_BLOCK_LEN", block)
                images = [v for part in ctx.power_sum_images(conjlab._terms(spec))
                          for v in part.tolist()]
                assert images == expected, (family, l, block)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_direct_route_matches_the_bijection_oracle(ctx_for, monkeypatch, k):
    ctx = ctx_for(k)
    verdicts = set()
    for family in (1, 2, 3):
        for l in valid_ls(family, ctx, range(0, 13)):
            spec = trinomial_family(family, l, ctx)
            oracle = is_bijection_on(trinomial_map(spec, ctx), range(ctx.order))
            for block in BLOCK_LENS:
                monkeypatch.setattr(gf3m, "_BLOCK_LEN", block)
                direct = conjlab._routes(spec, ctx)[2]
                assert direct is oracle.is_bijection, (family, l, block)
            verdicts.add(direct)
    assert verdicts == {True, False}


def test_direct_route_memory_is_one_int32_vector_plus_the_blocks(ctx_for, monkeypatch):
    # blocks of 2^10 split the k = 5 field into 58.  The direct route holds
    # the bitmap (n / 8 bytes), the period table and the vectors of one
    # block.  Measured beyond the bitmap: 47-52 bytes per block index at
    # 2^10 (39-40 at 2^12, where 6-11 KB of small objects weigh less), so
    # 56 bytes per index bound it.  One bool per field element (n bytes,
    # 59 KB) on top of the same blocks exceeds the bound.  The index-form
    # criterion is stubbed out: its q + 1 = 244 dict and set entries peak
    # about as high as the route itself
    ctx = ctx_for(5)
    n = ctx.order - 1
    block = 2 ** 10
    monkeypatch.setattr(gf3m, "_BLOCK_LEN", block)
    monkeypatch.setattr(conjlab, "zieve_criterion", lambda ctx, r, d, h: (True, True))
    for family, l in ((1, 2), (3, 5)):
        spec = trinomial_family(family, l, ctx)
        conjlab._routes(spec, ctx)  # imports numpy before the trace
        gc.collect()
        tracemalloc.start()
        try:
            conjlab._routes(spec, ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n // 8 + 56 * block, (family, l)


def test_direct_route_does_not_read_the_index_form(ctx_for, monkeypatch):
    # power_sum_images takes r and the period off the spec's own terms, so
    # a wrong decomposition moves only the index-form verdicts
    specs = [(ctx, trinomial_family(family, l, ctx))
             for ctx in map(ctx_for, (1, 2, 3))
             for family in (1, 2, 3)
             for l in valid_ls(family, ctx, range(0, 13))]
    direct = [conjlab._routes(spec, ctx)[2] for ctx, spec in specs]
    assert set(direct) == {True, False}
    monkeypatch.setattr(conjlab, "trinomial_decompose",
                        lambda spec, ctx: (1, Poly(ctx, (1,))))
    assert [conjlab._routes(spec, ctx)[2] for ctx, spec in specs] == direct


# ---------------------------------------------------------------------------
# index-form decomposition

def test_decompose_known_values():
    spec = trinomial_family(2, 1, CTX9)
    r, h = trinomial_decompose(spec, CTX9)
    assert r == 1 and h.to_text() == "1,0,1,0,0,0,2"

    spec = trinomial_family(3, 2, CTX9)
    r, h = trinomial_decompose(spec, CTX9)
    assert r == 5 and h.to_text() == "2,0,1,0,1"


@pytest.mark.parametrize("family", (1, 2, 3))
@pytest.mark.parametrize("k", (1, 2))
def test_decompose_reconstructs_the_map(ctx_for, family, k):
    ctx = ctx_for(k)
    q = ctx.q
    for l in valid_ls(family, ctx):
        spec = trinomial_family(family, l, ctx)
        poly = dense_poly(spec, ctx)
        r, h = trinomial_decompose(spec, ctx)
        assert r == min(spec.exponents)
        for x in range(1, ctx.order):
            reconstructed = ctx.mul(ctx.pow(x, r), h.eval(ctx.pow(x, q - 1)))
            assert reconstructed == poly(x)


@pytest.mark.parametrize("family", (1, 2, 3))
def test_reduced_map_is_the_fractional_map_on_mu(ctx_for, family):
    # x^r h(x)^(q-1) and the closed-form rational map agree pointwise on
    # mu_{q+1}, for every valid l
    for k in (1, 2):
        ctx = ctx_for(k)
        g = fractional_map(family, ctx)
        mu = mu_enumerate(ctx, ctx.q + 1)
        for l in valid_ls(family, ctx):
            spec = trinomial_family(family, l, ctx)
            r, h = trinomial_decompose(spec, ctx)
            for x in mu:
                want = g.eval(x)
                got = ctx.mul(ctx.pow(x, r), ctx.pow(h.eval(x), ctx.q - 1))
                assert got == want, (family, k, l, x)


# ---------------------------------------------------------------------------
# the three closed-form maps on mu

def test_fractional_map_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        fractional_map(0, CTX9)


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6))
def test_denominators_never_vanish_on_mu(ctx_for, k):
    ctx = ctx_for(k)
    for family in (1, 2, 3):
        assert denominator_nonvanishing(family, ctx)
        den = fractional_map(family, ctx).denominator
        for x in mu_enumerate(ctx, ctx.q + 1):
            assert den.eval(x) != 0


GBIJ_EXPECTED = {  # observed permutation behavior of each closed-form map
    1: {1: False, 2: True, 3: False, 4: True, 5: False, 6: True},
    2: {1: True, 2: True, 3: True, 4: True, 5: True, 6: True},
    3: {1: True, 2: False, 3: True, 4: True, 5: True, 6: False},
}


@pytest.mark.parametrize("family", (1, 2, 3))
@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6))
def test_g_bijection_table(ctx_for, family, k):
    ctx = ctx_for(k)
    rep = g_permutes_mu(family, ctx)
    assert rep.is_bijection == GBIJ_EXPECTED[family][k]


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6))
def test_g_table_agrees_with_fibers_and_denominator_oracle(ctx_for, monkeypatch, k):
    # the g verdict read off the fiber sizes agrees with the bijection scan
    # over the g table, and "the fiber sizes sum to q + 1" agrees with the
    # polynomial root scan of denominator_nonvanishing; k <= 4 also repeats
    # both with a map whose denominator vanishes on mu_{q+1}
    ctx = ctx_for(k)

    def compare(family):
        fibers = conjlab._fiber_roots(family, ctx)
        table = conjlab._g_table(family, ctx)
        assert (conjlab._g_bijection(fibers)
                == is_bijection_on(table.__getitem__, table).is_bijection), (family, k)
        sizes = [len(roots) for roots in fibers.values()]
        assert ((sum(sizes) == ctx.q + 1)
                == denominator_nonvanishing(family, ctx)), (family, k)
        return sum(sizes) == ctx.q + 1

    for family in (1, 2, 3):
        assert compare(family)
    if k <= 4:
        monkeypatch.setattr(conjlab, "fractional_map", vanishing_denominator_map)
        for family in (1, 2, 3):
            assert not compare(family)


def test_g_maps_mu_into_mu(ctx_for):
    ctx = ctx_for(2)
    mu = mu_enumerate(ctx, ctx.q + 1)
    for family in (1, 2, 3):
        g = fractional_map(family, ctx)
        for x in mu:
            assert g.eval(x) in mu


# ---------------------------------------------------------------------------
# fiber polynomials

@pytest.mark.parametrize("family,degree", ((1, 7), (2, 7), (3, 5)))
def test_fiber_polynomial_degree_and_monic(ctx_for, family, degree):
    ctx = ctx_for(1)
    for t in mu_enumerate(ctx, ctx.q + 1):
        poly = fiber_polynomial(family, t, ctx)
        assert poly.degree == degree
        assert poly.leading == 1


def test_fiber_polynomial_requires_t_in_mu():
    with pytest.raises(ValueError, match="not in mu"):
        fiber_polynomial(3, 0, CTX9)
    with pytest.raises(ValueError, match="not in mu"):
        fiber_polynomial(2, 4, CTX9)  # 4 generates all of GF(9)*


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_fiber_roots_are_the_g_fibers(ctx_for, k):
    # family 1 and 3: roots in mu of the t-polynomial = g^{-1}(t);
    # family 2: the same with target 1/t.  The one-pass fiber table must
    # agree with polynomial root finding on every t.
    ctx = ctx_for(k)
    mu = mu_enumerate(ctx, ctx.q + 1)
    for family in (1, 2, 3):
        g = fractional_map(family, ctx)
        fibers = conjlab._fiber_roots(family, ctx)
        assert sorted(fibers) == sorted(mu)
        for t in sorted(mu):
            target = ctx.inv(t) if family == 2 else t
            expected = sorted(x for x in mu if g.eval(x) == target)
            got = roots_in_set(fiber_polynomial(family, t, ctx), mu)
            assert got == expected == fibers[t], (family, k, t)


@pytest.mark.parametrize("family", (1, 2, 3))
def test_fraction_terms_are_coprime(family):
    # the one-pass fiber table needs gcd(N, D) = 1: a common root would sit
    # in every fiber at once
    g = fractional_map(family, CTX9)
    assert poly_gcd(g.numerator, g.denominator).degree == 0


def test_count_solutions_matches_roots(ctx_for):
    ctx = ctx_for(1)
    for t in sorted(mu_enumerate(ctx, 4)):
        n5, roots5 = count_solutions_quintic(t, ctx)
        assert n5 == len(roots5) == 1
        n7, roots7 = count_solutions_septic(t, ctx)
        assert n7 == len(roots7) == 1
    with pytest.raises(ValueError, match="not in mu"):
        count_solutions_quintic(0, ctx)


# ---------------------------------------------------------------------------
# witness harvest

def test_harvest_k1_known_counts(ctx_for):
    ctx = ctx_for(1)
    w5 = harvest_witnesses(3, ctx)
    assert len(w5) == 6
    assert all(w.lemma_case is LemmaCase.FIFTH_DEGREE for w in w5)
    assert all(w.degree == 5 for w in w5)

    w7 = harvest_witnesses(2, ctx)
    assert len(w7) == 2
    assert all(w.lemma_case is LemmaCase.EPSILON for w in w7)


def test_harvest_k2_septic_is_empty(ctx_for):
    ctx = ctx_for(2)
    assert harvest_witnesses(2, ctx) == []
    # not only the symmetric ones: no fiber has a factor with a, b nonzero
    assert all(a == 0 or b == 0
               for t in mu_enumerate(ctx, ctx.q + 1)
               for a, b in quadratic_factors(fiber_polynomial(2, t, ctx)))


def test_harvest_k2_quintic_counts(ctx_for):
    w5 = harvest_witnesses(3, ctx_for(2))
    assert len(w5) == 20
    assert {w.lemma_case for w in w5} == {LemmaCase.FIFTH_DEGREE}


def test_harvest_k3_contains_theta_cases(ctx_for):
    w7 = harvest_witnesses(2, ctx_for(3))
    cases = [w.lemma_case for w in w7]
    assert cases.count(LemmaCase.EPSILON) == 2
    assert cases.count(LemmaCase.THETA) == 78
    assert LemmaCase.NO_MATCH not in cases


def test_harvest_witness_structure(ctx_for):
    for k in (1, 2):
        ctx = ctx_for(k)
        mu = mu_enumerate(ctx, ctx.q + 1)
        for family in (1, 2, 3):
            for w in harvest_witnesses(family, ctx):
                assert w.t in mu
                assert w.a != 0 and w.b != 0
                # the quadratic really divides the fiber polynomial
                quad = conjlab.Poly(ctx, (w.b, w.a, 1))
                assert (fiber_polynomial(family, w.t, ctx) % quad).is_zero
                if w.x1 is not None:
                    assert ctx.mul(w.x1, w.x2) == w.b
                    assert ctx.add(w.x1, w.x2) == ctx.neg(w.a)


def test_harvest_degree7_keeps_only_symmetric_by_default(ctx_for):
    # the family-1 harvest is exactly the nonzero factors with a^q b = a
    # that quadratic_factors finds over every t
    ctx = ctx_for(2)
    expected = [(t, a, b) for t in sorted(mu_enumerate(ctx, ctx.q + 1))
                for a, b in quadratic_factors(fiber_polynomial(1, t, ctx))
                if a and b and ctx.mul(ctx.conjugate_q(a), b) == a]
    sym = harvest_witnesses(1, ctx)
    assert [(w.t, w.a, w.b) for w in sym] == expected != []
    for w in sym:
        assert w.lemma_case is classify_septic_factor(w.a, w.b, ctx)


def test_harvest_order_is_deterministic(ctx_for):
    ctx = ctx_for(2)
    a = harvest_witnesses(3, ctx)
    b = harvest_witnesses(3, ctx)
    assert a == b
    assert a == sorted(a, key=lambda w: (w.t, w.a, w.b))


# ---------------------------------------------------------------------------
# case classification: positives over the harvest, provable negatives

def test_quintic_relation_on_full_harvest(ctx_for):
    for k in (1, 2):
        ctx = ctx_for(k)
        for w in harvest_witnesses(3, ctx):
            assert quintic_relation_holds(w.a, w.b, ctx)
            assert verify_quintic_factor_relation(w, ctx)
            assert verify_quintic_coefficient_system(w.a, w.b, w.t, ctx)
            assert quintic_displayed_identities_hold(w.a, w.b, w.t, ctx)


def test_septic_cases_on_full_harvest(ctx_for):
    for k in (1, 3):
        ctx = ctx_for(k)
        for w in harvest_witnesses(2, ctx):
            assert verify_septic_factor_case(w, ctx) in (LemmaCase.EPSILON,
                                                         LemmaCase.THETA)
            assert verify_septic_coefficient_system(w.a, w.b, w.t, ctx)
            assert septic_displayed_identities_hold(w.a, w.b, w.t, ctx)


def test_quintic_relation_rejects_zero_pair():
    # a = b = 0 forces the right side to eps - 1 != 0
    assert not quintic_relation_holds(0, 0, CTX9)
    assert not quintic_relation_holds(0, 0, CTX81)


def test_septic_classification_rejects_zero_pair():
    assert classify_septic_factor(0, 0, CTX9) is LemmaCase.NO_MATCH
    # b = 0 kills the epsilon case (which needs b = -1) and reduces the
    # theta case to a^2 = theta, impossible when theta is absent
    assert classify_septic_factor(6, 0, CTX9) is LemmaCase.NO_MATCH


def test_epsilon_case_is_exactly_b_minus_one_a_pm_eps(ctx_for):
    ctx = ctx_for(1)
    eps = ctx.special_constants().epsilon
    assert classify_septic_factor(eps, 2, ctx) is LemmaCase.EPSILON
    assert classify_septic_factor(ctx.neg(eps), 2, ctx) is LemmaCase.EPSILON
    assert classify_septic_factor(eps, 1, ctx) is LemmaCase.NO_MATCH


def test_verifiers_enforce_preconditions(ctx_for):
    ctx = ctx_for(1)
    w5 = harvest_witnesses(3, ctx)[0]
    other_t = next(t for t in sorted(mu_enumerate(ctx, 4)) if t != w5.t)
    with pytest.raises(ValueError, match="fails divisibility"):
        verify_quintic_coefficient_system(w5.a, w5.b, other_t, ctx)
    with pytest.raises(ValueError, match="not in mu"):
        verify_quintic_coefficient_system(w5.a, w5.b, 0, ctx)

    w7 = harvest_witnesses(2, ctx)[0]
    other_t = next(t for t in sorted(mu_enumerate(ctx, 4)) if t != w7.t)
    with pytest.raises(ValueError, match="fails divisibility"):
        verify_septic_coefficient_system(w7.a, w7.b, other_t, ctx)

    bad = conjlab.QuadFactorWitness(w7.t, w7.a, w7.b, 7, None, None, None)
    wrong_t = conjlab.QuadFactorWitness(other_t, w7.a, w7.b, 7, None, None, None)
    with pytest.raises(ValueError, match="fails divisibility"):
        verify_septic_factor_case(wrong_t, ctx)
    assert verify_septic_factor_case(bad, ctx) is LemmaCase.EPSILON


def test_septic_symmetry_precondition(ctx_for):
    # a factor violating a^q b = a is left out of the harvest, and a witness
    # built from it is rejected by the septic verifier
    ctx = ctx_for(3)
    t, a, b = next((t, a, b) for t in sorted(mu_enumerate(ctx, ctx.q + 1))
                   for a, b in quadratic_factors(fiber_polynomial(2, t, ctx))
                   if a and b and ctx.mul(ctx.conjugate_q(a), b) != a)
    assert (t, a, b) not in {(w.t, w.a, w.b) for w in harvest_witnesses(2, ctx)}
    asym = conjlab.QuadFactorWitness(t, a, b, 7, LemmaCase.NO_MATCH, None, None)
    with pytest.raises(ValueError, match="a\\^q"):
        verify_septic_factor_case(asym, ctx)


# ---------------------------------------------------------------------------
# uniqueness ingredients

def test_exclusion_family3_odd_k(ctx_for):
    for k in (1, 3):
        rep = distinct_root_exclusion(3, ctx_for(k))
        assert rep.ok and rep.max_count == 1
        assert rep.counterexamples == []
        assert rep.ingredients == {"sqrt_eps_minus_1_absent": True}


def test_exclusion_family3_k_multiple_of_4(ctx_for):
    rep = distinct_root_exclusion(3, ctx_for(4))
    assert rep.ok and rep.max_count == 1
    assert rep.ingredients == {"sqrt_eps_minus_1_present": True,
                               "sqrt_eps_minus_1_pow_q_minus_1_is_one": True}


def test_exclusion_family3_rejects_k_2_mod_4(ctx_for):
    with pytest.raises(ValueError, match="2 mod 4"):
        distinct_root_exclusion(3, ctx_for(2))
    with pytest.raises(ValueError, match="2 mod 4"):
        distinct_root_exclusion(3, ctx_for(6))


def test_exclusion_family2(ctx_for):
    for k in (1, 2):
        rep = distinct_root_exclusion(2, ctx_for(k))
        assert rep.ok and rep.max_count == 1
        assert rep.ingredients == {"theta_absent": True}
    rep = distinct_root_exclusion(2, ctx_for(3))
    assert rep.ok and rep.max_count == 1
    assert rep.ingredients == {"theta_pow_13_is_one": True,
                               "theta_pow_half_q_minus_1_is_one": True}


def test_exclusion_rejects_other_families(ctx_for):
    with pytest.raises(ValueError, match="family must be 2 or 3"):
        distinct_root_exclusion(1, ctx_for(1))


# theta needs k % 3 == 0, so at k = 5 only the epsilon case can occur
SEPTIC_CASES = {5: {LemmaCase.EPSILON}, 6: {LemmaCase.EPSILON, LemmaCase.THETA}}
# k = 6 is 2 mod 4, outside the degree-5 uniqueness claim
EXCLUSION_INGREDIENTS = {
    5: ((2, {"theta_absent": True}), (3, {"sqrt_eps_minus_1_absent": True})),
    6: ((2, {"theta_pow_13_is_one": True,
             "theta_pow_half_q_minus_1_is_one": True}),),
}


@pytest.mark.parametrize("k", (5, 6))
def test_lemma_checks_at_k5_and_k6(ctx_for, k):
    # criteria 5 and 6 plus the exclusion and (u, v) checks, beyond k = 4
    ctx = ctx_for(k)
    quintic = harvest_witnesses(3, ctx)
    assert quintic
    for w in quintic:
        assert w.lemma_case is LemmaCase.FIFTH_DEGREE, w
        assert verify_quintic_factor_relation(w, ctx), w
        assert verify_quintic_coefficient_system(w.a, w.b, w.t, ctx), w
        assert quintic_displayed_identities_hold(w.a, w.b, w.t, ctx), w
    for w in harvest_witnesses(2, ctx):
        assert verify_septic_factor_case(w, ctx) in SEPTIC_CASES[k], w
        assert verify_septic_coefficient_system(w.a, w.b, w.t, ctx), w
    for family, ingredients in EXCLUSION_INGREDIENTS[k]:
        rep = distinct_root_exclusion(family, ctx)
        assert rep.ok and rep.max_count == 1 and rep.counterexamples == []
        assert rep.ingredients == ingredients
    uv = uv_identity_check(ctx)
    assert uv.ok and uv.failures == [] and uv.witnesses


# ---------------------------------------------------------------------------
# the (u, v) resolvent identities

def test_uv_identities_k2(ctx_for):
    rep = uv_identity_check(ctx_for(2))
    assert rep.ok and rep.failures == []
    assert len(rep.witnesses) == 12
    ctx = ctx_for(2)
    for w in rep.witnesses:
        assert ctx.mul(w.u, w.a) == ctx.add(w.b, 1)
        assert ctx.mul(w.v, ctx.mul(w.a, w.a)) == w.b


def test_uv_identities_k1(ctx_for):
    rep = uv_identity_check(ctx_for(1))
    assert rep.ok
    assert len(rep.witnesses) == 4


def test_uv_cubic_and_shift_are_the_same_function(ctx_for):
    # (v-1)^3 - (u-1)(v-1) - u^6 expands to v^3 - (u-1)v - (u^6 - u - 1)
    # in characteristic 3, so the two must agree on every input pair
    ctx = ctx_for(1)
    for u in range(9):
        for v in range(9):
            assert (conjlab._uv_cubic(u, v, ctx)
                    == conjlab._uv_shifted_cubic(u, v, ctx))
    ctx = ctx_for(2)
    rng = random.Random(42)
    for _ in range(100):
        u, v = rng.randrange(81), rng.randrange(81)
        assert (conjlab._uv_cubic(u, v, ctx)
                == conjlab._uv_shifted_cubic(u, v, ctx))


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_row_contents():
    row = sweep_row(2, 1, 1)
    assert (row.family, row.k, row.l) == (2, 1, 1)
    assert row.modulus == "1,0,1"
    assert row.gcd_ok and row.direct_bijection and row.g_bijection
    assert row.zieve_cond1 and row.zieve_cond2
    assert row.max_fiber_size == 1
    assert row.witness_count == 2
    assert row.lemma_case_histogram == {"EpsilonCase": 2, "ThetaCase": 0,
                                        "FifthDegreeRelation": 0, "NoMatch": 0}
    assert row.error is None


def test_sweep_row_error_is_data_not_exception():
    row = sweep_row(2, 2, 1)  # l too small at k=2
    assert row.error is not None and "l too small" in row.error
    assert row.direct_bijection is None
    assert row.max_fiber_size is None


def test_sweep_rows_are_sorted_and_complete():
    report = sweep(3, [2, 1], [3, 2])
    keys = [(r.family, r.k, r.l) for r in report.rows]
    assert keys == sorted(keys)
    assert len(report.rows) == 4


def test_sweep_is_deterministic():
    a = sweep(2, [1, 2], [1, 2, 3])
    b = sweep(2, [1, 2], [1, 2, 3])
    assert a == b


def test_sweep_builds_each_field_and_harvest_once_per_call(monkeypatch):
    # one ctx_create per distinct k (k = 7 fails once, not once per l) and one
    # harvest per k with a valid l; nothing is kept between calls
    counts = {"ctx": 0, "harvest": 0}
    plain_ctx, plain_harvest = conjlab.ctx_create, conjlab.harvest_witnesses

    def counted_ctx(*args):
        counts["ctx"] += 1
        return plain_ctx(*args)

    def counted_harvest(*args):
        counts["harvest"] += 1
        return plain_harvest(*args)
    monkeypatch.setattr(conjlab, "ctx_create", counted_ctx)
    monkeypatch.setattr(conjlab, "harvest_witnesses", counted_harvest)
    for _ in range(2):
        counts.update(ctx=0, harvest=0)
        report = sweep(2, [1, 2, 7], [1, 2, 3])
        assert len(report.rows) == 9
        assert counts == {"ctx": 3, "harvest": 2}
    counts.update(ctx=0, harvest=0)
    assert sweep(2, [2], [1]).rows[0].error is not None  # l too small at k=2
    assert counts == {"ctx": 1, "harvest": 0}


def test_sweep_row_agreement_between_routes():
    for family in (1, 2, 3):
        for k in (1, 2):
            ctx = ctx_create(k)
            for l in valid_ls(family, ctx):
                row = sweep_row(family, k, l)
                assert row.error is None
                assert row.direct_bijection == (row.zieve_cond1
                                                and row.zieve_cond2)
                if row.gcd_ok:
                    assert row.g_bijection == row.direct_bijection


def test_sweep_row_custom_modulus():
    # same field, different basis: bijection verdicts must not change
    default = sweep_row(2, 1, 1)
    other = sweep_row(2, 1, 1, modulus=(2, 1, 1))
    assert other.modulus == "2,1,1"
    assert other.direct_bijection == default.direct_bijection
    assert other.witness_count == default.witness_count
    assert other.lemma_case_histogram == default.lemma_case_histogram


def test_sweep_row_respects_max_k():
    row = sweep_row(2, 4, 2, max_k=3)
    assert row.error is not None and "unsupported degree" in row.error
