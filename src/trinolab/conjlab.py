"""Trinomial families over GF(3^2k) and the verification machinery around them.

Three one-parameter trinomial families f(x) = x^e1 +/- x^e2 +/- x^e3 are each
tied to a fixed fractional map g on the unit-norm subgroup mu_{q+1} (q = 3^k):

  family 1:  x^(lq+l+5) + x^((l+5)q+l) - x^((l-1)q+l+6),
             g1 = (-x^7 + x^6 + x) / (x^6 + x - 1)
  family 2:  x^(lq+l+1) - x^((l+4)q+l-3) + x^((l-2)q+l+3),
             g2 = (x^6 + x^4 - 1) / (-x^7 + x^3 + x)
  family 3:  x^(lq+l+1) + x^((l+2)q+l-1) - x^((l-2)q+l+3),
             g3 = (-x^5 + x^3 + x) / (x^4 + x^2 - 1)

f permutes the whole field iff gcd(r, q-1) = 1 and the reduced map permutes
mu_{q+1}; on mu_{q+1} that reduced map coincides with the family's g.  The
module also harvests quadratic factors x^2 + ax + b of the per-t fiber
polynomials, classifies them against the closed-form relations that the
uniqueness arguments rest on, and runs deterministic sweeps.

A harvest settles one fiber per orbit.  The fiber polynomial is
p_t = t D - N with N, D over GF(3), so the Frobenius y -> y^3 maps p_t to
p_(t^3) for every family, and when one of N, D is odd and the other even
(families 2 and 3), x -> -x maps p_t to +/-p_(-t).  So x^2 + ax + b divides
p_t iff x^2 + a^3 x + b^3 divides p_(t^3), and there iff x^2 - ax + b
divides p_(-t) (Lidl and Niederreiter, Finite Fields, ch. 2).  The orbit of
t is t^(3^i), i < 2k, with their negatives under negation.  The verdicts map
along: a, b nonzero, a^q b = a, the case forms in (D, W) and the zero
remainder are polynomial conditions over GF(3) that the negation keeps
(tests/test_certificates.py).  So the search, the classification and the
replay run on one fiber per orbit, and lemma-verify's derivation_ok is that
fiber's replay, carried along the orbit.  The map g is settled the same way,
as g(x^3) = g(x)^3, and g(-x) = -g(x) for families 2 and 3.  Both walks, and
permtest.zieve_criterion's, are permtest._settle_orbits.
"""

import enum
from collections import Counter
from itertools import zip_longest
from math import gcd
from typing import NamedTuple, Optional

from .gf3m import DEFAULT_MAX_K, FieldCtx, format_modulus
from .permtest import (MapReport, _settle_orbits, is_bijection_on, mu_enumerate,
                       zieve_criterion)
from .polyring import Poly, quadratic_factors, roots_in_set

FAMILIES = (1, 2, 3)


class VerificationError(Exception):
    """A property the analysis asserts failed to hold (CLI exit code 2)."""


class LemmaCase(enum.Enum):
    """Classification of a harvested quadratic factor."""
    EPSILON = "EpsilonCase"
    THETA = "ThetaCase"
    FIFTH_DEGREE = "FifthDegreeRelation"
    NO_MATCH = "NoMatch"


class TrinomialSpec(NamedTuple):
    family: int
    l: int
    q: int
    exponents: tuple
    signs: tuple
    gcd_ok: bool


class FractionalMap(NamedTuple):
    family: int
    numerator: Poly
    denominator: Poly

    def eval(self, x: int) -> int:
        ctx = self.numerator.ctx
        return ctx.div(self.numerator.eval(x), self.denominator.eval(x))


class QuadFactorWitness(NamedTuple):
    """A monic quadratic x^2 + ax + b dividing the fiber polynomial at t,
    with a, b nonzero.  degree records which fiber polynomial (5 or 7), and
    lemma_case the case its (a, b) falls into."""
    t: int
    a: int
    b: int
    degree: int
    lemma_case: LemmaCase


class UVWitness(NamedTuple):
    t: int
    a: int
    b: int
    u: int
    v: int


class ExclusionReport(NamedTuple):
    """Per-t root counts of a fiber polynomial plus the field-level facts
    that force uniqueness of the root in mu_{q+1}."""
    family: int
    k: int
    max_count: int
    counterexamples: list
    ingredients: dict
    ok: bool


class UVReport(NamedTuple):
    witnesses: list
    failures: list
    ok: bool


class SweepRow(NamedTuple):
    family: int
    k: int
    l: int
    modulus: str
    gcd_ok: Optional[bool] = None
    direct_bijection: Optional[bool] = None
    zieve_cond1: Optional[bool] = None
    zieve_cond2: Optional[bool] = None
    g_bijection: Optional[bool] = None
    max_fiber_size: Optional[int] = None
    witness_count: Optional[int] = None
    lemma_case_histogram: Optional[dict] = None
    error: Optional[str] = None


class SweepReport(NamedTuple):
    rows: list = []


# ---------------------------------------------------------------------------
# families and their reduced maps

def trinomial_family(family: int, l: int, ctx: FieldCtx) -> TrinomialSpec:
    """The TrinomialSpec of one family member; l must keep all three exponents
    nonnegative.  Only the three signed terms are kept, so the cost does not
    grow with l."""
    q = ctx.q
    if family == 1:
        exps = (l * q + l + 5, (l + 5) * q + l, (l - 1) * q + l + 6)
        signs = (1, 1, -1)
        g = gcd(5 + 2 * l, q - 1)
    elif family == 2:
        exps = (l * q + l + 1, (l + 4) * q + l - 3, (l - 2) * q + l + 3)
        signs = (1, -1, 1)
        g = gcd(1 + 2 * l, q - 1)
    elif family == 3:
        exps = (l * q + l + 1, (l + 2) * q + l - 1, (l - 2) * q + l + 3)
        signs = (1, 1, -1)
        g = gcd(1 + 2 * l, q - 1)
    else:
        raise ValueError(f"unknown family {family}")
    if l < 0 or min(exps) < 0:
        raise ValueError(f"l too small for family {family}: exponents {exps}")
    return TrinomialSpec(family, l, q, exps, signs, g == 1)


def _terms(spec: TrinomialSpec) -> list:
    """(coefficient encoding, exponent) of each term; 2 encodes -1."""
    return [(1 if s > 0 else 2, e) for e, s in zip(spec.exponents, spec.signs)]


def trinomial_map(spec: TrinomialSpec, ctx: FieldCtx):
    """Fast evaluator x -> x^e1 +/- x^e2 +/- x^e3 (no dense polynomial)."""
    (s1, e1), (s2, e2), (s3, e3) = _terms(spec)
    add, mul, pw = ctx.add, ctx.mul, ctx.pow

    def fn(x: int) -> int:
        acc = add(mul(s1, pw(x, e1)), mul(s2, pw(x, e2)))
        return add(acc, mul(s3, pw(x, e3)))

    return fn


def trinomial_decompose(spec: TrinomialSpec, ctx: FieldCtx):
    """Write f = x^r * h(x^(q-1)) with r the smallest exponent; returns (r, h).

    The reconstruction x^r * h(x^(q-1)) is re-checked term for term against
    the spec's signed terms before returning.
    """
    q = ctx.q
    r = min(spec.exponents)
    step = q - 1
    h_coeffs: dict = {}
    for c, e in _terms(spec):
        if (e - r) % step != 0:
            raise ValueError(f"not in Zieve form: exponent gap {e - r} vs q-1={step}")
        h_coeffs[(e - r) // step] = c
    h = Poly(ctx, [h_coeffs.get(j, 0) for j in range(max(h_coeffs) + 1)])
    rebuilt = {r + step * j: c for j, c in enumerate(h.coeffs) if c}
    if rebuilt != {e: c for c, e in _terms(spec)}:
        raise ValueError("not in Zieve form: reconstruction mismatch")
    return r, h


_FRACTIONAL_COEFFS = {
    # family: (numerator, denominator), encodings low degree first (2 == -1)
    1: ((0, 1, 0, 0, 0, 0, 1, 2), (2, 1, 0, 0, 0, 0, 1)),
    2: ((2, 0, 0, 0, 1, 0, 1), (0, 1, 0, 1, 0, 0, 0, 2)),
    3: ((0, 1, 0, 1, 0, 2), (2, 0, 1, 0, 1)),
}


def fractional_map(family: int, ctx: FieldCtx) -> FractionalMap:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family}")
    num, den = _FRACTIONAL_COEFFS[family]
    return FractionalMap(family, Poly(ctx, num), Poly(ctx, den))


def denominator_nonvanishing(family: int, ctx: FieldCtx) -> bool:
    """True when the family's denominator has no root in mu_{q+1}."""
    den = fractional_map(family, ctx).denominator
    return not roots_in_set(den, mu_enumerate(ctx, ctx.q + 1))


def _negation_maps(num, den) -> bool:
    """Whether x -> -x maps N/D to -N/D, for N and D given by their
    coefficient sequences: one has only even-degree terms and the other only
    odd ones."""
    parities = [{i % 2 for i, c in enumerate(terms) if c} for terms in (num, den)]
    return parities in ([{0}, {1}], [{1}, {0}])


def _g_table(family: int, ctx: FieldCtx) -> dict:
    """{x: g(x)} over mu_{q+1} in increasing encoding order; None marks
    D(x) = 0.  Commands read it only through _fiber_roots; the public
    g_permutes_mu also builds it.

    N and D have coefficients in GF(3), so g(x^3) = g(x)^3, and g(-x) =
    -g(x) when _negation_maps reads opposite parities off them: N and D are
    evaluated once per orbit by permtest._settle_orbits.

    Raises VerificationError if an image leaves mu_{q+1}, at the x a scan in
    encoding order meets first: a whole orbit's images leave it together.
    """
    fm = fractional_map(family, ctx)
    mu = mu_enumerate(ctx, ctx.q + 1)

    def settle(x: int) -> Optional[int]:
        d = fm.denominator.eval(x)
        y = ctx.div(fm.numerator.eval(x), d) if d else None
        if y is not None and y not in mu:
            raise VerificationError(f"image {y} of {x} escapes mu_{{q+1}}")
        return y

    negate = (ctx.neg if _negation_maps(fm.numerator.coeffs, fm.denominator.coeffs)
              else None)
    return dict(_settle_orbits(ctx, sorted(mu), settle, ctx.frobenius, negate))


def _g_bijection(fibers: dict) -> bool:
    """g's verdict from its _fiber_roots.  Each x of mu_{q+1} with D(x) != 0
    is filed in exactly one of the q + 1 fibers (at g(x), or 1/g(x) for
    family 2, and inversion permutes mu_{q+1}), so g permutes mu_{q+1} iff
    every fiber holds exactly one root."""
    return all(len(roots) == 1 for roots in fibers.values())


def g_permutes_mu(family: int, ctx: FieldCtx) -> MapReport:
    """Bijection report for the family's fractional map on mu_{q+1}.

    Raises ValueError if the denominator vanishes on mu_{q+1}, and
    VerificationError if an image leaves mu_{q+1}.
    """
    table = _g_table(family, ctx)
    for x, y in table.items():
        if y is None:
            raise ValueError(f"denominator vanishes at x={x} for family {family}")
    return is_bijection_on(table.__getitem__, table)


def _direct_bijection(spec: TrinomialSpec, ctx: FieldCtx) -> bool:
    """Whether f permutes the field, from the logs of its images on one
    period of alpha^j, marked mod the period.

    r and the period are read off the spec's own terms, not off
    trinomial_decompose.  With n = ctx.order - 1, let r be the smallest
    exponent mod n, d_i = (e_i mod n) - r and P = n / gcd(n, d_1, d_2, ...),
    so that f(x) = x^r H(x) with H(alpha^j) depending only on j mod P:
    alpha^(P d_i) = 1.  Writing i = a P + j with j < P,

        f(alpha^(aP + j)) = alpha^(rPa) f(alpha^j)

    (Zieve 2009).  For the trinomial families every d_i is a multiple of
    q - 1, so P divides q + 1 (730 points at k = 6, against n = 531,440).

    As a runs over the n / P cosets, the images' logs L_j + a r P mod n
    run over the residue class of L_j mod the stride s = gcd(r P, n), a
    multiple of P, each met s / P times.  So if s != P, f is no permutation:
    a nonzero image is met at least twice, or all n >= 2 nonzero elements map
    to 0.  If s = P, the classes of the nonzero f(alpha^j) are disjoint iff
    their L_j mod P differ, and one mark per residue mod P holds the verdict.
    f(0) != 0 needs a term x^0, so r = 0 and s = n: past the s = P test,
    P = n, and its log is a mark of its own.

    f(alpha^j) is evaluated for j < P by stepping one running power per
    term, and each nonzero value has its ctx._log L_j.  f has coefficients
    +/-1, so f(y^3) = f(y)^3, and L_(3j mod P) is 3 L_j mod P: _log is taken
    at the first j of each orbit of j -> 3j mod P, the orbit is marked from
    it, and the walk stops once every orbit is.  A zero at j is one along
    its orbit, each standing for n / P zero images, and f(0) is counted as
    well.  The n + 1 images then permute the field iff exactly one of them
    is 0 and every mark is set.
    """
    n = ctx.order - 1
    terms = [(c, e % n) for c, e in _terms(spec)]
    r = min(e for _, e in terms)
    period = n // gcd(n, *(e - r for _, e in terms))
    if gcd(r * period, n) != period:
        return False
    marks = bytearray(period)
    f0 = trinomial_map(spec, ctx)(0)
    zeros = 0 if f0 else 1
    if f0:
        marks[ctx._log(f0)] = 1
    signed = [ctx.add if c == 1 else ctx.sub for c, _ in terms]
    powers = [1] * len(terms)  # alpha^(j e) for each term
    steps = [ctx.alpha_pow(e) for _, e in terms]
    seen = bytearray(period)
    for j in range(period):
        if not seen[j]:
            y = 0
            for op, x in zip(signed, powers):
                y = op(y, x)
            i, log = j, ctx._log(y) % period if y else None
            while not seen[i]:  # the orbit of j under i -> 3i mod P
                seen[i] = 1
                if y:
                    marks[log] = 1
                    log = 3 * log % period
                else:
                    zeros += n // period
                i = 3 * i % period
            if 0 not in seen:
                break
        powers = [ctx.mul(x, s) for x, s in zip(powers, steps)]
    return zeros == 1 and 0 not in marks


def _routes(spec: TrinomialSpec, ctx: FieldCtx) -> tuple:
    """(r, h, direct, cond1, cond2): the two permutation routes that depend on
    l -- the direct bijection on the field (_direct_bijection) and the
    index-form criterion on f = x^r h(x^(q-1)).  The third route, the
    family's g on mu_{q+1}, depends only on (family, k); it is _g_bijection
    of the family's _fiber_roots."""
    r, h = trinomial_decompose(spec, ctx)
    cond1, cond2 = zieve_criterion(ctx, r, ctx.q + 1, h)
    return r, h, _direct_bijection(spec, ctx), cond1, cond2


# ---------------------------------------------------------------------------
# fiber polynomials and root counts

def _require_in_mu(t: int, ctx: FieldCtx):
    if not isinstance(t, int) or not 0 < t < ctx.order \
            or ctx.pow(t, ctx.q + 1) != 1:
        raise ValueError(f"t={t} not in mu_(q+1)")


def _fiber_terms(family: int):
    """(N, D) coefficient tuples with fiber_polynomial(family, t) = D*t - N:
    g's numerator and denominator, swapped for family 2, whose fiber at t is
    g^{-1}(1/t)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family}")
    num, den = _FRACTIONAL_COEFFS[family]
    return (den, num) if family == 2 else (num, den)


def fiber_polynomial(family: int, t: int, ctx: FieldCtx) -> Poly:
    """The polynomial whose roots in mu_{q+1} form the fiber of the family's
    reduced map at parameter t."""
    _require_in_mu(t, ctx)
    num, den = _fiber_terms(family)
    mul, sub = ctx.mul, ctx.sub
    return Poly(ctx, [sub(mul(t, d), n)
                      for n, d in zip_longest(num, den, fillvalue=0)])


def _fiber_roots(family: int, ctx: FieldCtx) -> dict:
    """{t: sorted roots in mu_{q+1} of fiber_polynomial(family, t)} for every
    t in mu_{q+1}, read off the family's _g_table.

    x is a root at t iff N(x) = t D(x) for the fiber terms, that is t = g(x),
    or t = 1/g(x) = g(x)^q for family 2, as g(x) lies in mu_{q+1}.
    gcd(N, D) = 1, so where g's denominator vanishes x lies in no fiber, and
    the fiber sizes then sum to less than q + 1.
    """
    table = _g_table(family, ctx)
    fibers = {t: [] for t in table}
    for x, y in table.items():
        if y is not None:
            fibers[ctx.conjugate_q(y) if family == 2 else y].append(x)
    return fibers


def count_solutions_quintic(t: int, ctx: FieldCtx):
    """(count, roots) of x^5 + t x^4 - x^3 + t x^2 - x - t over mu_{q+1}."""
    roots = roots_in_set(fiber_polynomial(3, t, ctx), mu_enumerate(ctx, ctx.q + 1))
    return len(roots), roots


def count_solutions_septic(t: int, ctx: FieldCtx):
    """(count, roots) of x^7 + t x^6 + t x^4 - x^3 - x - t over mu_{q+1}."""
    roots = roots_in_set(fiber_polynomial(2, t, ctx), mu_enumerate(ctx, ctx.q + 1))
    return len(roots), roots


# ---------------------------------------------------------------------------
# quadratic-factor relations

def _discriminant_form(a: int, b: int, ctx: FieldCtx) -> tuple:
    """(D, W) = (a^2 - b, (b + 1)^2) of x^2 + ax + b.  D is its discriminant
    a^2 - 4b in characteristic 3, and both case relations say D = cW."""
    b1 = ctx.add(b, 1)
    return ctx.sub(ctx.mul(a, a), b), ctx.mul(b1, b1)


def quintic_relation_holds(a: int, b: int, ctx: FieldCtx) -> bool:
    """a^2 = (e-1) b^2 - (e+1) b + (e-1) for a root e = +/-eps of X^2 + 1.

    Subtract b from both sides: a^2 - b = (e-1)(b^2 - b + 1) = (e-1)(b+1)^2
    in characteristic 3, that is D = cW for (D, W) of _discriminant_form,
    where c = e - 1 runs over the two roots of X^2 - X - 1.  The product of
    D - cW over both is D^2 - DW - W^2, so the relation holds iff that is 0."""
    d, w = _discriminant_form(a, b, ctx)
    return ctx.mul(d, ctx.sub(d, w)) == ctx.mul(w, w)


def classify_septic_factor(a: int, b: int, ctx: FieldCtx) -> LemmaCase:
    """Match (a, b) against the two closed-form cases of the degree-7 analysis:
    (a, b) = (+/-eps, -1), or a^2 = theta b^2 - (theta-1) b + theta for a root
    theta of X^3 - X - 1 (only possible when k % 3 == 0).

    Subtract b from both sides of the theta case: a^2 - b = theta(b^2 - b + 1)
    = theta (b+1)^2 in characteristic 3, that is D = theta W for (D, W) of
    _discriminant_form.  D^3 - DW^2 - W^3 is the product of D - theta W over
    the three roots, so it vanishes iff D = theta W for a root theta in the
    field, or W = 0 = D, that is b = -1 and a^2 = -1: the epsilon case."""
    d, w = _discriminant_form(a, b, ctx)
    mul = ctx.mul
    w2 = mul(w, w)
    if mul(d, ctx.sub(mul(d, d), w2)) != mul(w, w2):
        return LemmaCase.NO_MATCH
    return LemmaCase.THETA if w else LemmaCase.EPSILON


def _divide_fiber(family: int, a: int, b: int, t: int, ctx: FieldCtx) -> tuple:
    """(s, e1, e2) of dividing the family's fiber polynomial (degree n, with
    coefficients c_j = t d_j - n_j off _fiber_terms) by x^2 + ax + b: the
    x^(n-i) equation c_(n-i) = s_i + a s_(i-1) + b s_(i-2), s_0 = 1, gives
    the cofactor s = (s_1, ..., s_(n-2)), and e1 = a s_(n-2) + b s_(n-3) - c_1,
    e2 = b s_(n-2) - c_0 are the x^1 and x^0 residuals, both 0 iff it divides.
    Run over GF(3)[a, b, t], it gives the e1, e2 of tests/test_certificates.py."""
    mul, add, sub = ctx.mul, ctx.add, ctx.sub
    c = [sub(mul(t, d), n) for n, d in zip_longest(*_fiber_terms(family), fillvalue=0)]
    s = [0, 1]
    for cj in c[-2:1:-1]:
        s.append(sub(sub(cj, mul(a, s[-1])), mul(b, s[-2])))
    return (tuple(s[2:]), sub(add(mul(a, s[-1]), mul(b, s[-2])), c[1]),
            sub(mul(b, s[-1]), c[0]))


def _require_factor(family: int, a: int, b: int, t: int, ctx: FieldCtx):
    """Raise ValueError unless t is in mu_{q+1} and x^2 + ax + b divides the
    family's fiber polynomial at t."""
    _require_in_mu(t, ctx)
    _, e1, e2 = _divide_fiber(family, a, b, t, ctx)
    if e1 or e2:
        raise ValueError(f"witness fails divisibility: (a={a}, b={b}) at t={t}")


def _check_witness(family: int, w: QuadFactorWitness, ctx: FieldCtx):
    """Raise ValueError unless x^2 + ax + b divides the family's fiber
    polynomial at w.t, a and b are nonzero, and, for the degree-7 families,
    a^q b = a."""
    _require_factor(family, w.a, w.b, w.t, ctx)
    if w.a == 0 or w.b == 0:
        raise ValueError(f"witness needs a, b nonzero, got (a={w.a}, b={w.b})")
    if _FIBER_DEGREE[family] == 7 and ctx.mul(ctx.conjugate_q(w.a), w.b) != w.a:
        raise ValueError(f"witness fails a^q * b = a: (a={w.a}, b={w.b})")


def verify_quintic_factor_relation(w: QuadFactorWitness, ctx: FieldCtx) -> bool:
    """Precondition-checked form of quintic_relation_holds for a witness."""
    _check_witness(3, w, ctx)
    return quintic_relation_holds(w.a, w.b, ctx)


def verify_septic_factor_case(w: QuadFactorWitness, ctx: FieldCtx) -> LemmaCase:
    """Precondition-checked form of classify_septic_factor for a witness."""
    _check_witness(2, w, ctx)
    return classify_septic_factor(w.a, w.b, ctx)


def quintic_displayed_identities_hold(a: int, b: int, t: int, ctx: FieldCtx) -> bool:
    """(a + a b^2) t = a^2 b^2 - b^3 - b^2 + b  and
    (b^3 - b^2 - b + a^2) t = a b^3 + a b, as exact field identities; a
    test oracle, since tests/test_certificates.py proves them at every factor."""
    mul, add, sub, pw = ctx.mul, ctx.add, ctx.sub, ctx.pow
    a2, b2, b3 = mul(a, a), mul(b, b), pw(b, 3)
    lhs1 = mul(add(a, mul(a, b2)), t)
    rhs1 = add(sub(sub(mul(a2, b2), b3), b2), b)
    lhs2 = mul(add(sub(sub(b3, b2), b), a2), t)
    rhs2 = add(mul(a, b3), mul(a, b))
    return lhs1 == rhs1 and lhs2 == rhs2


def verify_quintic_coefficient_system(a: int, b: int, t: int, ctx: FieldCtx) -> bool:
    """Replay the degree-5 coefficient equations at t by _divide_fiber: True,
    or ValueError when t is not in mu_{q+1} or the remainder is not 0.  The
    relation of quintic_relation_holds and both displayed identities lie in
    the ideal of these equations (tests/test_certificates.py)."""
    _require_factor(3, a, b, t, ctx)
    return True


def septic_displayed_identities_hold(a: int, b: int, t: int, ctx: FieldCtx) -> bool:
    """(a^2 b^3 + a^2 - b^4 + b^3 - b) t = a^3 b^3 + a b^4 + a b  and
    (a + a b^2 + a^3 b^2 + a b^3) t = a^4 b^2 + b^4 - b^2 + b; a test oracle."""
    mul, add, sub, pw = ctx.mul, ctx.add, ctx.sub, ctx.pow
    a2, a3, a4 = mul(a, a), pw(a, 3), pw(a, 4)
    b2, b3, b4 = mul(b, b), pw(b, 3), pw(b, 4)
    lhs1 = mul(sub(add(sub(mul(a2, b3), b4), add(a2, b3)), b), t)
    rhs1 = add(add(mul(a3, b3), mul(a, b4)), mul(a, b))
    lhs2 = mul(add(add(a, mul(a, b2)), add(mul(a3, b2), mul(a, b3))), t)
    rhs2 = add(sub(add(mul(a4, b2), b4), b2), b)
    return lhs1 == rhs1 and lhs2 == rhs2


def verify_septic_coefficient_system(a: int, b: int, t: int, ctx: FieldCtx) -> bool:
    """The degree-7 verify_quintic_coefficient_system; the relation of
    classify_septic_factor and both displayed identities lie in the ideal."""
    _require_factor(2, a, b, t, ctx)
    return True


# ---------------------------------------------------------------------------
# harvesting

_FIBER_DEGREE = {1: 7, 2: 7, 3: 5}


def harvest_witnesses(family: int, ctx: FieldCtx) -> list:
    """Quadratic factors (a, b nonzero) of the family's fiber polynomial over
    every t in mu_{q+1}, in (t, a, b) encoding order.

    Degree-7 families keep only factors with a^q * b = a, the hypothesis all
    degree-7 case analyses assume.  Degree-5 factors are classified against
    the quintic relation; degree-7 ones against the epsilon/theta cases
    (exploratory data for family 1).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family}")
    mu = sorted(mu_enumerate(ctx, ctx.q + 1))
    return [w for _, witnesses in _fiber_witnesses(family, mu, ctx) for w in witnesses]


def _fiber_witnesses(family: int, ts: list, ctx: FieldCtx):
    """(t, harvest_witnesses of the fiber at t) for each t of ts, in the order
    of ts, one orbit of fibers at a time by permtest._settle_orbits (see the
    module docstring).  Settling t searches its fiber by quadratic_factors,
    and filters, classifies and replays each factor by _require_factor, which
    raises ValueError unless it divides."""
    degree = _FIBER_DEGREE[family]
    frob, neg = ctx.frobenius, ctx.neg

    def settle(t: int) -> list:
        rows = []  # (a, b, case) of each witness at t, in (a, b) order
        for a, b in quadratic_factors(fiber_polynomial(family, t, ctx)):
            if a == 0 or b == 0:
                continue
            if degree == 5:
                case = (LemmaCase.FIFTH_DEGREE
                        if quintic_relation_holds(a, b, ctx) else LemmaCase.NO_MATCH)
            elif ctx.mul(ctx.conjugate_q(a), b) == a:
                case = classify_septic_factor(a, b, ctx)
            else:
                continue
            _require_factor(family, a, b, t, ctx)
            rows.append((a, b, case))
        return rows

    def cube(rows: list) -> list:
        return [(frob(a), frob(b), case) for a, b, case in rows]

    def negate(rows: list) -> list:
        return [(neg(a), b, case) for a, b, case in rows]

    negation = _negation_maps(*_fiber_terms(family))
    for t, rows in _settle_orbits(ctx, ts, settle, cube, negate if negation else None):
        yield t, sorted(QuadFactorWitness(t, a, b, degree, case) for a, b, case in rows)


# ---------------------------------------------------------------------------
# uniqueness ingredients and the (u, v) identity

def distinct_root_exclusion(family: int, ctx: FieldCtx) -> ExclusionReport:
    """Count fiber-polynomial roots in mu_{q+1} for every t and re-derive the
    field-level facts that rule out two distinct roots.

    family 3 (degree 5): sqrt(eps-1) must be absent for k = 1, 3 (mod 4) and
    must satisfy s^(q-1) = 1 for k = 0 (mod 4); k = 2 (mod 4) is out of scope.
    family 2 (degree 7): theta is absent unless k % 3 == 0, where it satisfies
    theta^13 = theta^((q-1)/2) = 1.
    """
    if family not in (2, 3):
        raise ValueError(f"family must be 2 or 3, got {family}")
    k = ctx.k
    if family == 3 and k % 4 == 2:
        raise ValueError(f"k={k} is 2 mod 4, outside the degree-5 uniqueness claim")
    fibers = _fiber_roots(family, ctx)
    max_count = max(map(len, fibers.values()))
    counterexamples = [(t, roots) for t, roots in fibers.items() if len(roots) >= 2]
    sc = ctx.special_constants()
    q = ctx.q
    ingredients = {}
    if family == 3:
        if k % 4 == 0:
            s = sc.sqrt_eps_minus_1
            ingredients["sqrt_eps_minus_1_present"] = s is not None
            ingredients["sqrt_eps_minus_1_pow_q_minus_1_is_one"] = (
                s is not None and ctx.pow(s, q - 1) == 1)
        else:
            ingredients["sqrt_eps_minus_1_absent"] = sc.sqrt_eps_minus_1 is None
    else:
        if k % 3 == 0:
            th = sc.theta
            ingredients["theta_pow_13_is_one"] = th is not None and ctx.pow(th, 13) == 1
            ingredients["theta_pow_half_q_minus_1_is_one"] = (
                th is not None and ctx.pow(th, (q - 1) // 2) == 1)
        else:
            ingredients["theta_absent"] = sc.theta is None
    ok = max_count <= 1 and all(ingredients.values())
    return ExclusionReport(family, k, max_count, counterexamples, ingredients, ok)


def uv_identity_check(ctx: FieldCtx) -> UVReport:
    """Harvest family-1 fiber factors with a^q b = a and set u = (b+1)/a and
    v = b/a^2 from one inversion.  As b = a^(1-q), u = 1/a + 1/a^q and
    v = 1/a^(q+1).

    Every (u, v) satisfies the resolvent cubic v^3 - (u-1) v - (u^6 - u - 1)
    = 0: a^6 times the cubic is the sextic
    a^6+a^5 b+a^5+a^4 b-a^3 b^2-a^3 b-b^6-b^3-1, which lies in the ideal of
    the coefficient equations (tests/test_certificates.py), and the orbit
    walker replays those at each searched fiber.  So nothing is checked per
    witness: failures stays empty and ok true, fields the report keeps."""
    mul, add, inv = ctx.mul, ctx.add, ctx.inv
    witnesses = []
    for w in harvest_witnesses(1, ctx):
        a, b = w.a, w.b
        inv_a = inv(a)
        witnesses.append(UVWitness(w.t, a, b, mul(add(b, 1), inv_a),
                                   mul(b, mul(inv_a, inv_a))))
    return UVReport(witnesses, [], True)


# ---------------------------------------------------------------------------
# sweeps

def _fiber_stats(family: int, ctx: FieldCtx) -> tuple:
    """(g_bijection, max_fiber_size, witness_count, histogram) for one
    (family, k): the g verdict and the largest fiber from one _fiber_roots,
    then the harvest."""
    fibers = _fiber_roots(family, ctx)
    witnesses = harvest_witnesses(family, ctx)
    hist = Counter(w.lemma_case.value for w in witnesses)
    histogram = {case.value: hist.get(case.value, 0) for case in LemmaCase}
    return (_g_bijection(fibers), max(map(len, fibers.values())),
            len(witnesses), histogram)


def sweep(family: int, k_list, l_list, modulus: Optional[tuple] = None,
          max_k: int = DEFAULT_MAX_K) -> SweepReport:
    """Sweep one family over all distinct (k, l) pairs, rows ordered by (k, l).

    Each k builds one field, and its fiber stats are computed on its first
    valid l and shared by the rest.  Construction errors are recorded on the
    row instead of propagating, so a sweep continues past invalid (k, l)
    combinations.
    """
    ls = sorted(set(l_list))
    rows = []
    for k in sorted(set(k_list)):
        try:
            ctx = FieldCtx(k, modulus, max_k)
        except ValueError as exc:
            label = format_modulus(modulus) if modulus is not None else ""
            rows.extend(SweepRow(family, k, l, label, error=str(exc)) for l in ls)
            continue
        label = format_modulus(ctx.modulus)
        stats = None
        for l in ls:
            try:
                spec = trinomial_family(family, l, ctx)
            except ValueError as exc:
                rows.append(SweepRow(family, k, l, label, error=str(exc)))
                continue
            _, _, direct, cond1, cond2 = _routes(spec, ctx)
            if stats is None:
                stats = _fiber_stats(family, ctx)
            rows.append(SweepRow(family, k, l, label, spec.gcd_ok, direct,
                                 cond1, cond2, *stats))
    return SweepReport(rows)


def sweep_row(family: int, k: int, l: int, modulus: Optional[tuple] = None,
              max_k: int = DEFAULT_MAX_K) -> SweepRow:
    """The one row of sweep(family, [k], [l], modulus, max_k)."""
    return sweep(family, [k], [l], modulus, max_k).rows[0]
