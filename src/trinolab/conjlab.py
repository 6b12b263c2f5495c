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
"""

import enum
from collections import Counter
from itertools import zip_longest
from math import gcd
from typing import NamedTuple, Optional

from .gf3m import DEFAULT_MAX_K, FieldCtx, ctx_create, format_modulus
from .permtest import MapReport, is_bijection_on, mu_enumerate, zieve_criterion
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
    """A monic quadratic x^2 + ax + b dividing the fiber polynomial at t.

    x1, x2 are the roots a -/+ sqrt(a^2 - b) when the quadratic splits over
    the field, else None.  degree records which fiber polynomial (5 or 7).
    """
    t: int
    a: int
    b: int
    degree: int
    lemma_case: LemmaCase
    x1: Optional[int]
    x2: Optional[int]


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


def _g_table(family: int, ctx: FieldCtx) -> dict:
    """{x: g(x)} over mu_{q+1} in increasing encoding order, from one
    evaluation of the family's N and D per x; None marks D(x) = 0.  Commands
    read it only through _fiber_roots; the public g_permutes_mu also builds it.

    Raises VerificationError if an image leaves mu_{q+1}.
    """
    fm = fractional_map(family, ctx)
    mu = mu_enumerate(ctx, ctx.q + 1)
    table = {}
    for x in sorted(mu):
        d = fm.denominator.eval(x)
        y = ctx.div(fm.numerator.eval(x), d) if d else None
        if y is not None and y not in mu:
            raise VerificationError(f"image {y} of {x} escapes mu_{{q+1}}")
        table[x] = y
    return table


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


def _routes(spec: TrinomialSpec, ctx: FieldCtx) -> tuple:
    """(r, h, direct, cond1, cond2): the two permutation routes that depend on
    l -- the direct bijection on the field and the index-form criterion on
    f = x^r h(x^(q-1)).  The third route, the family's g on mu_{q+1}, depends
    only on (family, k); it is _g_bijection of the family's _fiber_roots.

    The direct route evaluates f at every alpha^i block by block
    (FieldCtx.power_sum_images, which reads r and the period off the spec's
    own terms, not off trinomial_decompose) and at 0 by trinomial_map, and
    sets bit v % 8 of byte v // 8 of a bitmap of ctx.order / 8 bytes for
    each image v.  Those ctx.order images permute the field iff every bit
    ends up set.  A buffered marks[w] |= bit keeps only the last of the
    images of a block that share a byte, so the few percent of images whose
    bit it lost are ORed in again one by one (np.bitwise_or.at; on every
    image it made the marks 1.2-1.6 times as slow at k = 6 and 2.2-2.8
    times at k = 8, in-process on a 2-vCPU Xeon)."""
    import numpy as np
    marks = np.zeros(-(-ctx.order // 8), dtype=np.uint8)
    bits = np.left_shift(1, np.arange(8, dtype=np.uint8))
    f0 = trinomial_map(spec, ctx)(0)
    marks[f0 >> 3] |= bits[f0 & 7]
    for images in ctx.power_sum_images(_terms(spec)):
        w = np.right_shift(images, 3, dtype=np.intp)
        bit = bits.take(images & 7)
        marks[w] |= bit
        lost = marks.take(w) & bit == 0
        np.bitwise_or.at(marks, w[lost], bit[lost])
    # 3^2k = 1 (mod 8): the last byte holds the one element ctx.order - 1
    direct = bool(np.bitwise_and.reduce(marks[:-1]) == 255 and marks[-1] == 1)
    r, h = trinomial_decompose(spec, ctx)
    cond1, cond2 = zieve_criterion(ctx, r, ctx.q + 1, h)
    return r, h, direct, cond1, cond2


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
    or t = 1/g(x) for family 2.  gcd(N, D) = 1, so where g's denominator
    vanishes x lies in no fiber, and the fiber sizes then sum to less than
    q + 1.
    """
    table = _g_table(family, ctx)
    fibers = {t: [] for t in table}
    for x, y in table.items():
        if y is not None:
            fibers[ctx.inv(y) if family == 2 else y].append(x)
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

def _scale(ctx: FieldCtx, n: int, x: int) -> int:
    # integer scalar times field element; only the residue mod 3 matters
    n %= 3
    if n == 0:
        return 0
    return x if n == 1 else ctx.neg(x)


def quintic_relation_holds(a: int, b: int, ctx: FieldCtx) -> bool:
    """a^2 = (eps-1) b^2 - (eps+1) b + (eps-1) for one of the roots of X^2+1."""
    eps = ctx.special_constants().epsilon
    a2 = ctx.mul(a, a)
    b2 = ctx.mul(b, b)
    for e in (eps, ctx.neg(eps)):
        em1 = ctx.sub(e, 1)
        rhs = ctx.sub(ctx.add(ctx.mul(em1, b2), em1), ctx.mul(ctx.add(e, 1), b))
        if a2 == rhs:
            return True
    return False


def classify_septic_factor(a: int, b: int, ctx: FieldCtx) -> LemmaCase:
    """Match (a, b) against the two closed-form cases of the degree-7 analysis:
    (a, b) = (+/-eps, -1), or a^2 = theta b^2 - (theta-1) b + theta for a root
    theta of X^3 - X - 1 (only possible when k % 3 == 0)."""
    a2 = ctx.mul(a, a)
    if b == 2 and a2 == 2:  # b = -1 and a = +/-eps
        return LemmaCase.EPSILON
    b2 = ctx.mul(b, b)
    for th in ctx.theta_roots():
        rhs = ctx.add(ctx.sub(ctx.mul(th, b2), ctx.mul(ctx.sub(th, 1), b)), th)
        if a2 == rhs:
            return LemmaCase.THETA
    return LemmaCase.NO_MATCH


def _check_witness(w: QuadFactorWitness, ctx: FieldCtx, family: int,
                   require_symmetry: bool):
    quad = Poly(ctx, (w.b, w.a, 1))
    if not (fiber_polynomial(family, w.t, ctx) % quad).is_zero:
        raise ValueError(f"witness fails divisibility: (a={w.a}, b={w.b}) at t={w.t}")
    if w.a == 0 or w.b == 0:
        raise ValueError(f"witness needs a, b nonzero, got (a={w.a}, b={w.b})")
    if require_symmetry and ctx.mul(ctx.conjugate_q(w.a), w.b) != w.a:
        raise ValueError(f"witness fails a^q * b = a: (a={w.a}, b={w.b})")


def verify_quintic_factor_relation(w: QuadFactorWitness, ctx: FieldCtx) -> bool:
    """Precondition-checked form of quintic_relation_holds for a witness."""
    _check_witness(w, ctx, 3, require_symmetry=False)
    return quintic_relation_holds(w.a, w.b, ctx)


def verify_septic_factor_case(w: QuadFactorWitness, ctx: FieldCtx) -> LemmaCase:
    """Precondition-checked form of classify_septic_factor for a witness."""
    _check_witness(w, ctx, 2, require_symmetry=True)
    return classify_septic_factor(w.a, w.b, ctx)


def quintic_displayed_identities_hold(a: int, b: int, t: int, ctx: FieldCtx) -> bool:
    """(a + a b^2) t = a^2 b^2 - b^3 - b^2 + b  and
    (b^3 - b^2 - b + a^2) t = a b^3 + a b, as exact field identities."""
    mul, add, sub, pw = ctx.mul, ctx.add, ctx.sub, ctx.pow
    a2, b2, b3 = mul(a, a), mul(b, b), pw(b, 3)
    lhs1 = mul(add(a, mul(a, b2)), t)
    rhs1 = add(sub(sub(mul(a2, b2), b3), b2), b)
    lhs2 = mul(add(sub(sub(b3, b2), b), a2), t)
    rhs2 = add(mul(a, b3), mul(a, b))
    return lhs1 == rhs1 and lhs2 == rhs2


def verify_quintic_coefficient_system(a: int, b: int, t: int, ctx: FieldCtx) -> bool:
    """Divide the degree-5 fiber polynomial by x^2 + ax + b and check every
    coefficient identity of the cubic cofactor, the two eliminated identities,
    and the discriminant identity (b-1)^4 + 4(b^4+1) = -(b+1)^4."""
    quad = Poly(ctx, (b, a, 1))
    quo, rem = divmod(fiber_polynomial(3, t, ctx), quad)
    if not rem.is_zero:
        raise ValueError(f"witness fails divisibility: (a={a}, b={b}) at t={t}")
    s3, s2, s1, lead = quo.coeffs
    assert lead == 1
    mul, add, sub, pw, neg = ctx.mul, ctx.add, ctx.sub, ctx.pow, ctx.neg
    m1 = 2
    coeff_system = (
        add(a, s1) == t,
        add(add(b, s2), mul(a, s1)) == m1,
        add(add(mul(b, s1), mul(a, s2)), s3) == t,
        add(mul(a, s3), mul(b, s2)) == m1,
        mul(b, s3) == neg(t),
    )
    delta_lhs = add(pw(sub(b, 1), 4), _scale(ctx, 4, add(pw(b, 4), 1)))
    delta_rhs = neg(pw(add(b, 1), 4))
    return (all(coeff_system)
            and quintic_displayed_identities_hold(a, b, t, ctx)
            and delta_lhs == delta_rhs)


def septic_displayed_identities_hold(a: int, b: int, t: int, ctx: FieldCtx) -> bool:
    """(a^2 b^3 + a^2 - b^4 + b^3 - b) t = a^3 b^3 + a b^4 + a b  and
    (a + a b^2 + a^3 b^2 + a b^3) t = a^4 b^2 + b^4 - b^2 + b."""
    mul, add, sub, pw = ctx.mul, ctx.add, ctx.sub, ctx.pow
    a2, a3, a4 = mul(a, a), pw(a, 3), pw(a, 4)
    b2, b3, b4 = mul(b, b), pw(b, 3), pw(b, 4)
    lhs1 = mul(sub(add(sub(mul(a2, b3), b4), add(a2, b3)), b), t)
    rhs1 = add(add(mul(a3, b3), mul(a, b4)), mul(a, b))
    lhs2 = mul(add(add(a, mul(a, b2)), add(mul(a3, b2), mul(a, b3))), t)
    rhs2 = add(sub(add(mul(a4, b2), b4), b2), b)
    return lhs1 == rhs1 and lhs2 == rhs2


def verify_septic_coefficient_system(a: int, b: int, t: int, ctx: FieldCtx) -> bool:
    """Divide the degree-7 fiber polynomial by x^2 + ax + b and check the seven
    coefficient identities of the quintic cofactor plus the two eliminated
    identities; the cofactor tail is also recomputed backward from the
    constant-term equations."""
    quad = Poly(ctx, (b, a, 1))
    quo, rem = divmod(fiber_polynomial(2, t, ctx), quad)
    if not rem.is_zero:
        raise ValueError(f"witness fails divisibility: (a={a}, b={b}) at t={t}")
    s5, s4, s3, s2, s1, lead = quo.coeffs
    assert lead == 1
    mul, add, sub, neg, div = ctx.mul, ctx.add, ctx.sub, ctx.neg, ctx.div
    m1 = 2
    coeff_system = (
        add(a, s1) == t,
        add(add(b, mul(a, s1)), s2) == 0,
        add(add(mul(b, s1), mul(a, s2)), s3) == t,
        add(add(mul(b, s2), mul(a, s3)), s4) == m1,
        add(add(mul(b, s3), mul(a, s4)), s5) == 0,
        add(mul(a, s5), mul(b, s4)) == m1,
        mul(b, s5) == neg(t),
    )
    back_s5 = div(neg(t), b)
    back_s4 = div(sub(mul(a, t), b), mul(b, b))
    return (all(coeff_system)
            and back_s5 == s5 and back_s4 == s4
            and septic_displayed_identities_hold(a, b, t, ctx))


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
    mu = mu_enumerate(ctx, ctx.q + 1)
    return [w for t in sorted(mu) for w in _fiber_witnesses(family, t, ctx)]


def _fiber_witnesses(family: int, t: int, ctx: FieldCtx) -> list:
    """harvest_witnesses restricted to the one fiber at t."""
    degree = _FIBER_DEGREE[family]
    out = []
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
        disc = ctx.sub(ctx.mul(a, a), b)
        s = ctx.sqrt(disc)
        x1 = x2 = None
        if s is not None:
            x1, x2 = ctx.sub(a, s), ctx.add(a, s)
        out.append(QuadFactorWitness(t, a, b, degree, case, x1, x2))
    return out


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
    """Harvest family-1 fiber factors with a^q b = a and check the sextic
    relation a^6+a^5 b+a^5+a^4 b-a^3 b^2-a^3 b-b^6-b^3-1 = 0 together with the
    resolvent cubic in u = (b+1)/a, v = b/a^2 and its shift by v -> v - 1."""
    mul, add, sub, pw, inv, div = ctx.mul, ctx.add, ctx.sub, ctx.pow, ctx.inv, ctx.div
    witnesses = []
    failures = []
    for w in harvest_witnesses(1, ctx):
        a, b = w.a, w.b
        u = div(add(b, 1), a)
        v = div(b, mul(a, a))
        witnesses.append(UVWitness(w.t, a, b, u, v))
        a3, a4, a5, a6 = pw(a, 3), pw(a, 4), pw(a, 5), pw(a, 6)
        b2, b3, b6 = mul(b, b), pw(b, 3), pw(b, 6)
        sextic = sub(sub(sub(
            add(add(add(a6, mul(a5, b)), add(a5, mul(a4, b))),
                sub(0, add(mul(a3, b2), mul(a3, b)))), b6), b3), 1)
        inv_a, inv_aq = inv(a), inv(ctx.conjugate_q(a))
        checks = {
            "sextic": sextic == 0,
            "u_def": mul(u, a) == add(b, 1),
            "v_def": mul(v, mul(a, a)) == b,
            "u_split": u == add(inv_a, inv_aq),
            "v_split": v == mul(inv_a, inv_aq),
            "cubic": _uv_cubic(u, v, ctx) == 0,
            "shifted_cubic": _uv_shifted_cubic(u, v, ctx) == 0,
        }
        for name, passed in checks.items():
            if not passed:
                failures.append((w.t, a, b, name))
    return UVReport(witnesses, failures, not failures)


def _uv_cubic(u: int, v: int, ctx: FieldCtx) -> int:
    # v^3 - (u-1) v - (u^6 - u - 1)
    mul, sub, pw = ctx.mul, ctx.sub, ctx.pow
    return sub(sub(pw(v, 3), mul(sub(u, 1), v)), sub(sub(pw(u, 6), u), 1))


def _uv_shifted_cubic(u: int, v: int, ctx: FieldCtx) -> int:
    # (v-1)^3 - (u-1)(v-1) - u^6
    mul, sub, pw = ctx.mul, ctx.sub, ctx.pow
    vm1 = sub(v, 1)
    return sub(sub(pw(vm1, 3), mul(sub(u, 1), vm1)), pw(u, 6))


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
            ctx = ctx_create(k, modulus, max_k)
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
