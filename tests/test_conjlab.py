"""Trinomial families, fiber analysis, case classification, and sweeps."""

import gc
import math
import random
import tracemalloc

import pytest

from trinolab import conjlab, gf3m
from trinolab.conjlab import (FAMILIES, LemmaCase, classify_septic_factor,
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

from conftest import per_point_zieve, vanishing_denominator_map

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


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_direct_route_matches_the_bijection_oracle(ctx_for, tables_for, k):
    # the oracle evaluates f at every element with the log-table ops
    ctx = ctx_for(k)
    verdicts = set()
    for family in (1, 2, 3):
        for l in valid_ls(family, ctx, range(0, 13)):
            spec = trinomial_family(family, l, ctx)
            oracle = is_bijection_on(trinomial_map(spec, tables_for(k)), range(ctx.order))
            direct = conjlab._routes(spec, ctx)[2]
            assert direct is oracle.is_bijection, (family, l)
            verdicts.add(direct)
    assert verdicts == {True, False}


def _hand_built_specs(ctx):
    """TrinomialSpecs outside the families, each with its period P."""
    q, n = ctx.q, ctx.order - 1
    rng = random.Random(f"specs:{ctx.k}")
    specs = []
    for _ in range(12):
        e = rng.randrange(1, 2 * n)
        exps = [(e, e + (q - 1) * rng.randrange(1, 2 * q), e + (q - 1) * rng.randrange(1, 2 * q)),
                (0, rng.randrange(1, 2 * n), rng.randrange(1, 2 * n)),
                (e, e + 1, e + 3)]
        for exponents in exps:
            for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1)):
                specs.append(conjlab.TrinomialSpec(0, 0, q, exponents, signs, True))
    # x^e + x^e - x^e = x^e, a permutation iff gcd(e, n) = 1; and 3 x^e = 0
    for e in (1, 5, 7, 2):
        for signs in ((1, 1, -1), (1, 1, 1)):
            specs.append(conjlab.TrinomialSpec(0, 0, q, (e, e, e), signs, True))
    return specs


@pytest.mark.parametrize("k", (1, 2, 3))
def test_direct_bijection_matches_the_per_point_oracle_on_hand_built_specs(ctx_for, k):
    # signs (1, 1, 1) vanish at x = 1, where 1 + 1 + 1 = 0; a term x^0
    # makes f(0) = 1; gaps 1 and 3 have no common factor with n, so P = n
    ctx = ctx_for(k)
    n = ctx.order - 1
    seen = set()
    for spec in _hand_built_specs(ctx):
        fn = trinomial_map(spec, ctx)
        oracle = is_bijection_on(fn, range(ctx.order)).is_bijection
        assert conjlab._direct_bijection(spec, ctx) is oracle, spec
        exps = [e % n for e in spec.exponents]
        period = n // math.gcd(n, *(e - min(exps) for e in exps))
        stride = math.gcd(min(exps) * period, n)
        seen.update({("verdict", oracle), ("f(0)", fn(0) != 0), ("P", period),
                     ("stride", stride == period),
                     ("zero image", any(fn(x) == 0 for x in range(1, ctx.order)))})
    assert {("verdict", True), ("verdict", False), ("f(0)", True), ("P", n),
            ("P", 1), ("stride", True), ("stride", False), ("zero image", True)} <= seen


def test_direct_route_memory_is_the_marks_plus_period_arrays(ctx_for, monkeypatch):
    # at k = 6 the direct route holds one mark per residue mod P and one
    # seen flag per j < P (P = 730 bytes each here) and a few small objects:
    # 3.7-4.5 KB in all, measured with the log tables already built, so
    # 16 q = 11.7 KB bounds it.  One mark per nonzero element (n = 531,440
    # bytes), or a list of the images' logs (P = 730 ints, about 26 KB),
    # would exceed the bound.  The index-form criterion is stubbed out: its
    # q + 1 dict and set entries peak higher than the route itself
    ctx = ctx_for(6)
    monkeypatch.setattr(conjlab, "zieve_criterion", lambda ctx, r, d, h: (True, True))
    for family, l in ((1, 2), (3, 5)):
        spec = trinomial_family(family, l, ctx)
        conjlab._routes(spec, ctx)  # builds the log tables before the trace
        gc.collect()
        tracemalloc.start()
        try:
            conjlab._routes(spec, ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * ctx.q, (family, l, peak)


@pytest.mark.parametrize("k", (4, 5, 6))
def test_direct_route_takes_one_log_per_frobenius_orbit(ctx_for, monkeypatch, k):
    # f has coefficients +/-1, so one _log settles a whole orbit of
    # j -> 3j mod P, and f(0) may take one more
    ctx = ctx_for(k)
    n = ctx.order - 1
    calls = 0
    log = gf3m.FieldCtx._log

    def counting(self, a):
        nonlocal calls
        calls += 1
        return log(self, a)

    monkeypatch.setattr(gf3m.FieldCtx, "_log", counting)
    for family in FAMILIES:
        for l in valid_ls(family, ctx, range(2, 8))[:2]:
            spec = trinomial_family(family, l, ctx)
            exps = [e % n for e in spec.exponents]
            period = n // math.gcd(n, *(e - min(exps) for e in exps))
            orbits = len({min(j * 3 ** i % period for i in range(ctx.m))
                          for j in range(period)})
            calls = 0
            conjlab._direct_bijection(spec, ctx)
            assert calls <= orbits + 1 < period, (family, l)
    # x^(q+1) + x^(2q+2) + x^(3q+3) has r = q + 1 and P = q - 1, so the
    # stride gcd(r P, n) = n != P: each image is met q + 1 times, and the
    # verdict needs no log at all, nor the subgroup tables _log would build
    fresh = gf3m.FieldCtx(k)
    spec = conjlab.TrinomialSpec(0, 0, ctx.q, tuple(i * (ctx.q + 1) for i in (1, 2, 3)),
                                 (1, 1, 1), True)
    calls = 0
    assert conjlab._direct_bijection(spec, fresh) is False
    assert calls == 0 and fresh._subgroups is None


def test_direct_route_does_not_read_the_index_form(ctx_for, monkeypatch):
    # _direct_bijection takes r and the period off the spec's own terms, so
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


def per_point_g_table(family, ctx):
    """{x: g(x)} over mu_{q+1} from one evaluation of N and D per x, None
    where D(x) = 0: the oracle for conjlab._g_table, which evaluates one x
    per orbit."""
    fm = conjlab.fractional_map(family, ctx)
    mu = mu_enumerate(ctx, ctx.q + 1)
    table = {}
    for x in sorted(mu):
        d = fm.denominator.eval(x)
        y = ctx.div(fm.numerator.eval(x), d) if d else None
        if y is not None and y not in mu:
            raise conjlab.VerificationError(f"image {y} of {x} escapes mu_{{q+1}}")
        table[x] = y
    return table


def _escaping_map(family, ctx):
    """x + 1/x = (x^2 + 1) / x: N even and D odd, so the orbits join x and
    -x, and on mu_{q+1} the image x + x^q lies in GF(q), mostly outside
    mu_{q+1}."""
    return conjlab.FractionalMap(family, Poly(ctx, (1, 0, 1)), Poly(ctx, (0, 1)))


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6))
def test_g_table_matches_the_per_point_oracle(ctx_for, monkeypatch, k):
    # the same items in the same order for every family; up to k = 4 also
    # for a denominator that vanishes on mu_{q+1}, and the same error for a
    # map whose images leave it
    ctx = ctx_for(k)
    for family in FAMILIES:
        assert (list(conjlab._g_table(family, ctx).items())
                == list(per_point_g_table(family, ctx).items())), family
    if k <= 4:
        monkeypatch.setattr(conjlab, "fractional_map", vanishing_denominator_map)
        assert (list(conjlab._g_table(2, ctx).items())
                == list(per_point_g_table(2, ctx).items()))
        monkeypatch.setattr(conjlab, "fractional_map", _escaping_map)
        errors = []
        for table in (conjlab._g_table, per_point_g_table):
            with pytest.raises(conjlab.VerificationError) as info:
                table(2, ctx)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6))
def test_zieve_criterion_matches_the_per_point_oracle(ctx_for, k):
    # the index form of each family has h over GF(3), so the criterion walks
    # the orbits of the cube on mu_{q+1}
    ctx = ctx_for(k)
    for family in FAMILIES:
        for l in valid_ls(family, ctx, range(2, 6)):
            r, h = trinomial_decompose(trinomial_family(family, l, ctx), ctx)
            assert max(h.coeffs) < 3
            assert (zieve_criterion(ctx, r, ctx.q + 1, h)
                    == per_point_zieve(ctx, r, ctx.q + 1, h)), (family, l)


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


@pytest.mark.parametrize("k", (1, 2, 3))
def test_fiber_polynomials_match_the_paper(ctx_for, k):
    # the division recurrence reads the fibers off _FRACTIONAL_COEFFS, and
    # tests/test_certificates.py states its residuals for these three
    ctx = ctx_for(k)
    for t in mu_enumerate(ctx, ctx.q + 1):
        mt, t1 = ctx.neg(t), ctx.sub(t, 1)
        # x^5 + t x^4 - x^3 + t x^2 - x - t, low degree first, 2 == -1
        assert fiber_polynomial(3, t, ctx).coeffs == (mt, 2, t, 2, t, 1)
        # x^7 + t x^6 + t x^4 - x^3 - x - t
        assert fiber_polynomial(2, t, ctx).coeffs == (mt, 2, 0, 2, t, 0, t, 1)
        # x^7 + (t-1) x^6 + (t-1) x - t
        assert fiber_polynomial(1, t, ctx).coeffs == (mt, t1, 0, 0, 0, 0, t1, 1)


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


def searched_witnesses(family, t, ctx):
    """The per-fiber path the orbit walker replaces: search the fiber at t,
    drop the factors with a = 0 or b = 0 (and, for degree 7, those with
    a^q b != a), classify each and replay its divisibility."""
    degree = conjlab._FIBER_DEGREE[family]
    out = []
    for a, b in quadratic_factors(fiber_polynomial(family, t, ctx)):
        if a == 0 or b == 0:
            continue
        if degree == 7:
            if ctx.mul(ctx.conjugate_q(a), b) != a:
                continue
            case = classify_septic_factor(a, b, ctx)
        else:
            case = (LemmaCase.FIFTH_DEGREE if quintic_relation_holds(a, b, ctx)
                    else LemmaCase.NO_MATCH)
        conjlab._require_factor(family, a, b, t, ctx)
        out.append(conjlab.QuadFactorWitness(t, a, b, degree, case))
    return out


@pytest.mark.parametrize("k, family", [(k, family) for k in (1, 2, 3, 4, 5)
                                       for family in (1, 2, 3)] + [(6, 2)])
def test_fiber_factors_match_the_search_on_every_fiber(both_for, k, family):
    # the walker's witnesses, carried along each orbit, against the per-fiber
    # path on every fiber, on both contexts; the oracle runs on the core at
    # odd k and on the tables at even k, as both give the same encodings
    tables, core = both_for(k)
    mu = sorted(mu_enumerate(tables, tables.q + 1))
    oracle = {t: searched_witnesses(family, t, (tables, core)[k % 2]) for t in mu}
    single = random.Random(k).choice(mu)
    for ctx in (tables, core):
        got = list(conjlab._fiber_witnesses(family, mu, ctx))
        assert [t for t, _ in got] == mu
        for t, witnesses in got:
            assert witnesses == oracle[t], t
        assert (list(conjlab._fiber_witnesses(family, [single], ctx))
                == [(single, oracle[single])])


@pytest.mark.parametrize("k, searches", [(4, {1: 12, 2: 6, 3: 6}),
                                         (5, {1: 27, 2: 14, 3: 14})],
                         ids=("k4", "k5"))
def test_harvest_searches_one_fiber_per_orbit(ctx_for, monkeypatch, k, searches):
    # Frobenius orbits for family 1; families 2 and 3 add negation, which
    # halves the count again
    calls = []
    plain = conjlab.quadratic_factors

    def counted(poly):
        calls.append(poly)
        return plain(poly)
    monkeypatch.setattr(conjlab, "quadratic_factors", counted)
    for family, expected in searches.items():
        calls.clear()
        harvest_witnesses(family, ctx_for(k))
        assert len(calls) == expected, family


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


def test_epsilon_case_is_exactly_b_minus_one_a_pm_eps(both_for):
    # W = (b + 1)^2 = 0 leaves D = a^2 + 1: the forms vanish iff a = +/-eps
    for k in range(1, 7):
        for ctx in both_for(k):
            eps = ctx.special_constants().epsilon
            for a in (0, 1, eps, ctx.neg(eps)):
                is_eps = a in (eps, ctx.neg(eps))
                assert quintic_relation_holds(a, 2, ctx) is is_eps
                assert classify_septic_factor(a, 2, ctx) is (
                    LemmaCase.EPSILON if is_eps else LemmaCase.NO_MATCH)
            assert_forms_match_the_oracles(
                [(a, 2) for a in (0, 1, eps, ctx.neg(eps))], ctx)
            assert classify_septic_factor(eps, 1, ctx) is LemmaCase.NO_MATCH


# The case relations as the paper writes them, with eps and the theta roots
# read off the field: the oracles of the constant-free (D, W) forms.  Each
# returns the right sides at one b, so that a whole field of a shares them.

def eps_right_sides(b, ctx):
    """{(e-1) b^2 - (e+1) b + (e-1) : e = +/-eps}; the quintic relation
    holds iff a^2 is one of them."""
    eps = ctx.special_constants().epsilon
    b2 = ctx.mul(b, b)
    out = set()
    for e in (eps, ctx.neg(eps)):
        em1 = ctx.sub(e, 1)
        out.add(ctx.sub(ctx.add(ctx.mul(em1, b2), em1), ctx.mul(ctx.add(e, 1), b)))
    return out


def theta_right_sides(b, ctx):
    """{theta b^2 - (theta-1) b + theta} over the roots theta of X^3 - X - 1
    in the field, theta's conjugates under the cube map."""
    theta = ctx.special_constants().theta
    thetas = [] if theta is None else [ctx.frobenius(theta, i) for i in range(3)]
    b2 = ctx.mul(b, b)
    return {ctx.add(ctx.sub(ctx.mul(th, b2), ctx.mul(ctx.sub(th, 1), b)), th)
            for th in thetas}


def septic_case_by_theta(a2, b, theta_sides):
    """The degree-7 case of a pair with a^2 = a2, from theta_right_sides."""
    if b == 2 and a2 == 2:  # b = -1 and a = +/-eps
        return LemmaCase.EPSILON
    return LemmaCase.THETA if a2 in theta_sides else LemmaCase.NO_MATCH


def assert_forms_match_the_oracles(pairs, ctx):
    a_by_b = {}
    for a, b in pairs:
        a_by_b.setdefault(b, []).append(a)
    for b, a_list in a_by_b.items():
        eps_sides, theta_sides = eps_right_sides(b, ctx), theta_right_sides(b, ctx)
        for a in a_list:
            a2 = ctx.mul(a, a)
            assert quintic_relation_holds(a, b, ctx) == (a2 in eps_sides), (a, b)
            assert (classify_septic_factor(a, b, ctx)
                    is septic_case_by_theta(a2, b, theta_sides)), (a, b)


@pytest.mark.parametrize("core", (False, True), ids=("tables", "core"))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_discriminant_forms_match_the_eps_theta_forms_on_every_pair(both_for, k, core):
    # every pair, except that the core at k = 3 takes every a against b = 0,
    # -1 and 81 seeded b: all 531,441 pairs took 18 s there, against 3.7 s
    # on the tables (2-vCPU Xeon), whose scalar ops the core's are checked
    # against
    ctx = both_for(k)[core]
    field = range(ctx.order)
    bs = field
    if core and k == 3:
        bs = [0, 2] + random.Random("forms:core").sample(field, 81)
    assert_forms_match_the_oracles(((a, b) for b in bs for a in field), ctx)


@pytest.mark.parametrize("k", (4, 5, 6))
def test_discriminant_forms_match_the_eps_theta_forms_on_seeded_pairs(both_for, k):
    rng = random.Random(f"forms:{k}")
    for ctx in both_for(k):
        pairs = [(rng.randrange(ctx.order), rng.randrange(ctx.order))
                 for _ in range(2000)]
        assert_forms_match_the_oracles(pairs, ctx)


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5))
def test_harvested_cases_match_the_eps_theta_forms(both_for, k):
    for ctx in both_for(k):
        for family in FAMILIES:
            for w in harvest_witnesses(family, ctx):
                a2 = ctx.mul(w.a, w.a)
                if family == 3:
                    holds = a2 in eps_right_sides(w.b, ctx)
                    assert (w.lemma_case is LemmaCase.FIFTH_DEGREE) == holds, w
                else:
                    assert w.lemma_case is septic_case_by_theta(
                        a2, w.b, theta_right_sides(w.b, ctx)), w


def test_classification_reads_no_field_constant(both_for, monkeypatch):
    # k = 3 has theta; the classifiers and the harvest must not ask for it
    expected = {family: harvest_witnesses(family, both_for(3)[0])
                for family in FAMILIES}

    def boom(self):
        raise AssertionError("a field constant was read per witness")
    monkeypatch.setattr(gf3m.FieldCtx, "special_constants", boom)
    for ctx in both_for(3):
        for family in FAMILIES:
            assert harvest_witnesses(family, ctx) == expected[family]
        rng = random.Random(3)
        for _ in range(200):
            a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
            quintic_relation_holds(a, b, ctx)
            classify_septic_factor(a, b, ctx)


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6))
def test_quintic_constants_are_the_roots_of_x2_minus_x_minus_1(both_for, k):
    # c = e - 1 for e = +/-eps are two distinct roots whose sum is 1 and
    # product -1, so X^2 - X - 1 = (X - c)(X - c') and has no other root
    for ctx in both_for(k):
        eps = ctx.special_constants().epsilon
        c, c2 = ctx.sub(eps, 1), ctx.sub(ctx.neg(eps), 1)
        assert c != c2
        assert ctx.add(c, c2) == 1 and ctx.mul(c, c2) == 2
        for x in (c, c2):
            assert ctx.sub(ctx.sub(ctx.mul(x, x), x), 1) == 0


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("family", (1, 2, 3))
def test_cofactor_recurrences_match_exact_division(ctx_for, k, family):
    # exact division by x^2 + ax + b is the oracle: the recurrence returns
    # the quotient's coefficients below its leading 1, top down, and minus
    # the remainder's x^1 and x^0 coefficients as the residuals, and
    # _require_factor raises exactly when the remainder is nonzero
    ctx = ctx_for(k)
    mu = sorted(mu_enumerate(ctx, ctx.q + 1))
    factors = [(a, b, t) for t in mu
               for a, b in quadratic_factors(fiber_polynomial(family, t, ctx))]
    if k == 1:
        cases = [(a, b, t) for t in mu for a in range(ctx.order)
                 for b in range(1, ctx.order)]
    else:
        rng = random.Random(k)
        cases = factors + [(rng.randrange(ctx.order), rng.randrange(1, ctx.order),
                            rng.choice(mu)) for _ in range(1000)]
    divided = 0
    for a, b, t in cases:
        quo, rem = divmod(fiber_polynomial(family, t, ctx), Poly(ctx, (b, a, 1)))
        r0, r1 = (rem.coeffs + (0, 0))[:2]
        s, e1, e2 = conjlab._divide_fiber(family, a, b, t, ctx)
        assert s == quo.coeffs[-2::-1], (a, b, t)
        assert (e1, e2) == (ctx.neg(r1), ctx.neg(r0)), (a, b, t)
        if rem.is_zero:
            divided += 1
            conjlab._require_factor(family, a, b, t, ctx)
        else:
            with pytest.raises(ValueError, match="fails divisibility"):
                conjlab._require_factor(family, a, b, t, ctx)
    assert divided >= len(factors)


def test_quintic_discriminant_identity_holds_in_gf3_b():
    # (b-1)^4 + (b^4+1) + (b+1)^4 = 3b^4 + 12b^2 + 3 = 0 in GF(3)[b], so
    # verify_quintic_coefficient_system does not replay it per witness
    b, one = Poly(gf3m._GF3, (0, 1)), Poly(gf3m._GF3, (1,))

    def fourth(p):
        return (p * p) * (p * p)
    assert fourth(b - one).degree == fourth(b + one).degree == 4
    assert (fourth(b - one) + (fourth(b) + one) + fourth(b + one)).is_zero


def test_septic_cofactor_tail_is_the_backward_recomputation(ctx_for):
    # the x^1 and x^0 equations _require_factor checks, b s4 + a s5 = -1 and
    # b s5 = -t, give s5 = -t/b and s4 = (a t - b)/b^2, so
    # verify_septic_coefficient_system does not recompute them
    def tail_holds(a, b, t, ctx):
        *_, s4, s5 = conjlab._divide_fiber(2, a, b, t, ctx)[0]
        return (s5 == ctx.div(ctx.neg(t), b)
                and s4 == ctx.div(ctx.sub(ctx.mul(a, t), b), ctx.mul(b, b)))

    for k in (1, 2, 3):
        ctx = ctx_for(k)
        assert all(tail_holds(w.a, w.b, w.t, ctx) for w in harvest_witnesses(2, ctx))
    # 1,000 seeded triples that divide, t anywhere in the field: two distinct
    # nonzero roots x1, x2 of the fiber polynomial at t = N(x)/D(x) give the
    # factor (x - x1)(x - x2).  k = 3 has 2,157 such pairs; N/D is injective
    # on the whole field at k = 1, 2, 4 and 5
    ctx = ctx_for(3)
    num, den = (Poly(ctx, terms) for terms in conjlab._fiber_terms(2))
    roots = {}
    for x in range(1, ctx.order):
        if den.eval(x):
            roots.setdefault(ctx.div(num.eval(x), den.eval(x)), []).append(x)
    triples = [(ctx.neg(ctx.add(x1, x2)), ctx.mul(x1, x2), t)
               for t, xs in sorted(roots.items())
               for i, x1 in enumerate(xs) for x2 in xs[i + 1:]]
    for a, b, t in random.Random(7).sample(triples, 1000):
        assert tail_holds(a, b, t, ctx), (a, b, t)


def test_witness_replay_builds_and_divides_no_polynomial(ctx_for, monkeypatch):
    ctx = ctx_for(3)
    quintic, septic = harvest_witnesses(3, ctx), harvest_witnesses(2, ctx)
    assert quintic and septic

    def refuse(*args, **kwargs):
        raise AssertionError("the witness replay touched a Poly")
    for name in ("__init__", "_trusted", "__divmod__"):
        monkeypatch.setattr(Poly, name, refuse)
    for w in quintic:
        assert verify_quintic_coefficient_system(w.a, w.b, w.t, ctx)
        assert verify_quintic_factor_relation(w, ctx)
    for w in septic:
        assert verify_septic_coefficient_system(w.a, w.b, w.t, ctx)
        assert verify_septic_factor_case(w, ctx) is not LemmaCase.NO_MATCH


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

    bad = conjlab.QuadFactorWitness(w7.t, w7.a, w7.b, 7, None)
    wrong_t = conjlab.QuadFactorWitness(other_t, w7.a, w7.b, 7, None)
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
    asym = conjlab.QuadFactorWitness(t, a, b, 7, LemmaCase.NO_MATCH)
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
    for w in uv.witnesses:
        # the splits that a^q b = a implies, so uv_identity_check skips them
        inv_a, inv_aq = ctx.inv(w.a), ctx.inv(ctx.conjugate_q(w.a))
        assert (w.u, w.v) == (ctx.add(inv_a, inv_aq), ctx.mul(inv_a, inv_aq)), w
        assert uv_cubic(w.u, w.v, ctx) == 0, w


# ---------------------------------------------------------------------------
# the (u, v) resolvent identities

def uv_cubic(u, v, ctx):
    """v^3 - (u-1) v - (u^6 - u - 1): 0 at every uv-scan witness, which
    uv_identity_check no longer checks (see its docstring)."""
    mul, sub, pw = ctx.mul, ctx.sub, ctx.pow
    return sub(sub(pw(v, 3), mul(sub(u, 1), v)), sub(sub(pw(u, 6), u), 1))


def test_uv_identities_k2(ctx_for):
    rep = uv_identity_check(ctx_for(2))
    assert rep.ok and rep.failures == []
    assert len(rep.witnesses) == 12
    ctx = ctx_for(2)
    for w in rep.witnesses:
        assert ctx.mul(w.u, w.a) == ctx.add(w.b, 1)
        assert ctx.mul(w.v, ctx.mul(w.a, w.a)) == w.b
        assert uv_cubic(w.u, w.v, ctx) == 0, w


def test_uv_identities_k1(ctx_for):
    rep = uv_identity_check(ctx_for(1))
    assert rep.ok
    assert len(rep.witnesses) == 4
    for w in rep.witnesses:
        assert uv_cubic(w.u, w.v, ctx_for(1)) == 0, w


def test_uv_cubic_and_shift_are_the_same_function(ctx_for):
    # (v-1)^3 - (u-1)(v-1) - u^6 expands to v^3 - (u-1)v - (u^6 - u - 1)
    # in characteristic 3, so the two forms of the cubic are one.  Both
    # sides have degree <= 6 in u and <= 3 in v, below 81, so agreeing on all
    # of GF(81)^2 makes them one polynomial in GF(3)[u, v]
    def shifted_cubic(u, v, ctx):
        mul, sub, pw = ctx.mul, ctx.sub, ctx.pow
        vm1 = sub(v, 1)
        return sub(sub(pw(vm1, 3), mul(sub(u, 1), vm1)), pw(u, 6))

    ctx = ctx_for(2)
    for u in range(ctx.order):
        for v in range(ctx.order):
            assert uv_cubic(u, v, ctx) == shifted_cubic(u, v, ctx), (u, v)


def test_uv_cubic_is_the_sextic_over_a6(ctx_for):
    # a^6 cubic((b+1)/a, b/a^2) expands to a polynomial of degree <= 6 in a
    # and in b.  So does the sextic, and they agree at every a != 0 (80
    # values) and every b (81 values) of GF(81): for each b the difference
    # has degree <= 6 in a and 80 roots, so every coefficient, a polynomial
    # of degree <= 6 in b with 81 roots, is 0.  The identity holds in
    # GF(3)[a, b] and so at every k: the cubic check is the sextic check
    def sextic(a, b, ctx):
        # a^6 + a^5 b + a^5 + a^4 b - a^3 b^2 - a^3 b - b^6 - b^3 - 1
        mul, add, sub, pw = ctx.mul, ctx.add, ctx.sub, ctx.pow
        plus = add(add(pw(a, 6), mul(pw(a, 5), b)), add(pw(a, 5), mul(pw(a, 4), b)))
        minus = add(add(mul(pw(a, 3), mul(b, b)), mul(pw(a, 3), b)),
                    add(add(pw(b, 6), pw(b, 3)), 1))
        return sub(plus, minus)

    ctx = ctx_for(2)
    div, mul = ctx.div, ctx.mul
    for a in range(1, ctx.order):
        for b in range(ctx.order):
            u, v = div(ctx.add(b, 1), a), div(b, mul(a, a))
            assert mul(ctx.pow(a, 6), uv_cubic(u, v, ctx)) == sextic(a, b, ctx), (a, b)


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
    # one FieldCtx per distinct k (k = 7 fails once, not once per l) and one
    # harvest per k with a valid l; nothing is kept between calls
    counts = {"ctx": 0, "harvest": 0}
    plain_ctx, plain_harvest = conjlab.FieldCtx, conjlab.harvest_witnesses

    def counted_ctx(*args):
        counts["ctx"] += 1
        return plain_ctx(*args)

    def counted_harvest(*args):
        counts["harvest"] += 1
        return plain_harvest(*args)
    monkeypatch.setattr(conjlab, "FieldCtx", counted_ctx)
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
