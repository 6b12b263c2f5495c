"""Ideal-membership certificates: the witness algebra, proved for every k.

The coefficient equations of (x^2 + ax + b)(cofactor) = fiber polynomial
reduce, once the cofactor is eliminated, to two residuals E1 and E2 in
GF(3)[a, b, t], those of the x^1 and x^0 equations.  x^2 + ax + b divides
the fiber polynomial at t exactly when E1 = E2 = 0.  A relation P with
P = lam E1 + mu E2 in GF(3)[a, b, t] therefore holds at every factor of
every fiber in every GF(3^2k) (Cox, Little and O'Shea, Ideals, Varieties,
and Algorithms, ch. 2).

Nothing here is sampled.  E1 and E2 come from conjlab's own division
recurrence, and each P but the sextic from the predicate a command
evaluates, both run over GF(3)[a, b, t] by expansion.  The sextic is a^6
times the uv resolvent cubic, which test_conjlab's
test_uv_cubic_is_the_sextic_over_a6 proves.  The same expansions prove the
laws by which conjlab carries a factor's verdicts from one fiber to the rest
of its orbit, under the Frobenius and, for families 2 and 3, negation.  The
file needs neither numpy nor sympy.
"""

import operator
from types import SimpleNamespace

import pytest

from trinolab import conjlab
from trinolab.gf3m import _GF3
from trinolab.polyring import Poly, pow_mod


class Abt:
    """An element of GF(3)[a, b, t]: terms maps (i, j, l) to the nonzero
    coefficient in {1, 2} of a^i b^j t^l.  The ints 0, 1 and 2 that the code
    under test mixes in are the constants of GF(3)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c % 3 for m, c in (terms or {}).items() if c % 3}

    @classmethod
    def _lift(cls, x):
        return x if isinstance(x, Abt) else cls({(0, 0, 0): x})

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in self._lift(other).terms.items():
            terms[m] = terms.get(m, 0) + c
        return type(self)(terms)

    def __neg__(self):
        return type(self)({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._lift(other)

    def __mul__(self, other):
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in self._lift(other).terms.items():
                m = tuple(map(operator.add, m1, m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return type(self)(terms)

    def __pow__(self, e):
        out = type(self)({(0, 0, 0): 1})
        for _ in range(e):
            out = out * self
        return out

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return -self + other

    def __eq__(self, other):
        return self.terms == self._lift(other).terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return " + ".join(f"{c}*a^{i}*b^{j}*t^{l}"
                          for (i, j, l), c in sorted(self.terms.items())) or "0"


RING = SimpleNamespace(add=operator.add, sub=operator.sub, neg=operator.neg,
                       mul=operator.mul, pow=operator.pow)
a, b, t = (Abt({m: 1}) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def compared(predicate, nargs, point=(a, b, t)):
    """lhs - rhs of each comparison that predicate(a, b[, t], ctx) makes at
    point (the generators by default), in order: its arguments report every
    comparison as equal, and record it."""
    diffs = []

    class Recorded(Abt):
        def __eq__(self, other):
            diffs.append(Abt((self - other).terms))
            return True

    predicate(*(Recorded(g.terms) for g in point[:nargs]), RING)
    return diffs


def residuals(family):
    """(E1, E2) of the family's fiber, computed as the code computes them."""
    _, e1, e2 = conjlab._divide_fiber(family, a, b, t, RING)
    return e1, e2


D, W = conjlab._discriminant_form(a, b, RING)
SEXTIC = (a**6 + a**5 * b + a**5 + a**4 * b - a**3 * b**2 - a**3 * b
          - b**6 - b**3 - 1)

# name -> (family, P, lam, mu) with P = lam E1 + mu E2
CERTIFICATES = {
    "quintic relation": (
        3, compared(conjlab.quintic_relation_holds, 2)[0],
        -a**2 * b + b**2 - b - 1, a**3 + a * b + a),
    "quintic displayed 1": (
        3, compared(conjlab.quintic_displayed_identities_hold, 3)[0],
        -b, a),
    "quintic displayed 2": (
        3, compared(conjlab.quintic_displayed_identities_hold, 3)[1],
        -a * b, a**2 - b),
    "septic relation": (
        2, compared(conjlab.classify_septic_factor, 2)[0],
        -a**4 * b - a**2 * b - b**3 + b**2 - 1, a**5 - a**3 * b + a**3 + a * b),
    "septic displayed 1": (
        2, compared(conjlab.septic_displayed_identities_hold, 3)[0],
        -a * b, a**2 - b),
    "septic displayed 2": (
        2, compared(conjlab.septic_displayed_identities_hold, 3)[1],
        -b, a),
    "uv sextic": (
        1, SEXTIC, -a**4 * b - b**3 - 1, a**5 - a**3 * b - 1),
}


def test_residuals_are_the_paper_equations():
    # the fibers x^5 + t x^4 - x^3 + t x^2 - x - t (family 3),
    # x^7 + t x^6 + t x^4 - x^3 - x - t (family 2) and
    # x^7 + (t-1) x^6 + (t-1) x - t (family 1): E1 = a s_(n-2) + b s_(n-3) - c_1
    # and E2 = b s_(n-2) - c_0 for the cofactor's last two coefficients
    for family, c1 in ((3, -1), (2, -1), (1, t - 1)):
        s, e1, e2 = conjlab._divide_fiber(family, a, b, t, RING)
        assert len(s) == conjlab._FIBER_DEGREE[family] - 2
        assert e1 == a * s[-1] + b * s[-2] - c1
        assert e2 == b * s[-1] + t


def test_predicates_compare_the_documented_relations():
    # the polynomials the classifiers and oracles compare are the ones their
    # docstrings state: D^2 - DW - W^2, D^3 - DW^2 - W^3 and lhs - rhs
    assert (D, W) == (a**2 - b, (b + 1)**2)
    assert CERTIFICATES["quintic relation"][1] == D**2 - D * W - W**2
    assert CERTIFICATES["septic relation"][1] == D**3 - D * W**2 - W**3
    assert compared(conjlab.quintic_displayed_identities_hold, 3) == [
        (a + a * b**2) * t - (a**2 * b**2 - b**3 - b**2 + b),
        (b**3 - b**2 - b + a**2) * t - (a * b**3 + a * b)]
    assert compared(conjlab.septic_displayed_identities_hold, 3) == [
        (a**2 * b**3 + a**2 - b**4 + b**3 - b) * t - (a**3 * b**3 + a * b**4 + a * b),
        (a + a * b**2 + a**3 * b**2 + a * b**3) * t - (a**4 * b**2 + b**4 - b**2 + b)]


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_relation_lies_in_the_ideal_of_the_coefficient_equations(name):
    # so every quintic factor is FifthDegreeRelation, every septic factor
    # EpsilonCase or ThetaCase, and every family-1 factor with a != 0 puts
    # (u, v) on the cubic, at every k
    family, relation, lam, mu = CERTIFICATES[name]
    e1, e2 = residuals(family)
    assert relation and e1 and e2
    assert lam * e1 + mu * e2 == relation


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_certificate_check_is_not_vacuous(name):
    # one sign flipped in a cofactor, or a residual off by a constant, fails
    family, relation, lam, mu = CERTIFICATES[name]
    e1, e2 = residuals(family)
    for wrong in (-lam * e1 + mu * e2, lam * e1 - mu * e2, lam * (e1 + 1) + mu * e2):
        assert wrong != relation


# ---------------------------------------------------------------------------
# the verdicts conjlab._fiber_witnesses carries along an orbit of fibers

CASE_FORMS = (conjlab.quintic_relation_holds, conjlab.classify_septic_factor)


def test_fiber_terms_lie_in_gf3():
    # the encodings 0, 1, 2 are GF(3) in every GF(3^2k), which the Frobenius
    # y -> y^3 fixes: so P(a^3, b^3, t^3) = P(a, b, t)^3 for the residuals
    # and the case forms, and a factor at t keeps its zero remainder and its
    # case at t^3 as (a^3, b^3)
    for family in conjlab.FAMILIES:
        assert {c for terms in conjlab._fiber_terms(family) for c in terms} <= {0, 1, 2}
        _, e1, e2 = conjlab._divide_fiber(family, a**3, b**3, t**3, RING)
        assert (e1, e2) == tuple(e**3 for e in residuals(family))
    for predicate in CASE_FORMS:
        assert compared(predicate, 2, (a**3, b**3)) == [
            p**3 for p in compared(predicate, 2)]


@pytest.mark.parametrize("family", conjlab.FAMILIES)
def test_negation_keeps_the_remainder_for_families_2_and_3(family):
    # E1(-a, b, -t) = E1 and E2(-a, b, -t) = -E2 for families 2 and 3, whose
    # N and D have opposite parity: x^2 + ax + b divides p_t iff x^2 - ax + b
    # divides p_(-t).  Family 1 obeys neither law, so no negation is carried
    e1, e2 = residuals(family)
    _, n1, n2 = conjlab._divide_fiber(family, -a, b, -t, RING)
    if family == 1:
        assert n1 != e1 and n2 != -e2
    else:
        assert (n1, n2) == (e1, -e2)


def test_negation_keeps_the_case_forms():
    # D^2 - DW - W^2 and D^3 - DW^2 - W^3, as the classifiers compare them,
    # are unchanged by a -> -a, so (-a, b) falls into the case of (a, b).
    # a = 0, b = 0 and a^q b = a are kept too, as q is odd
    assert conjlab._discriminant_form(-a, b, RING) == (D, W)
    for predicate in CASE_FORMS:
        assert compared(predicate, 2, (-a, b)) == compared(predicate, 2)


def gf3_poly(*coeffs):
    return Poly(_GF3, coeffs)


def test_theta_has_order_13_for_every_k():
    # theta^13 = 1 mod theta^3 - theta - 1, so every root theta of that
    # irreducible cubic in any GF(3^2k) has theta^13 = 1.  It exists iff
    # 3 | k, and then 27 = 1 (mod 26) gives 26 | q - 1, so 13 | (q - 1)/2 and
    # theta^((q-1)/2) = 1 too
    theta, minimal = gf3_poly(0, 1), gf3_poly(2, 2, 0, 1)
    assert pow_mod(theta, 13, minimal) == gf3_poly(1)
    assert pow_mod(theta, 1, minimal) != gf3_poly(1)


def test_quintic_constants_are_the_two_roots_for_every_k():
    # c = +/-eps - 1 satisfy c^2 - c - 1 = 0 mod eps^2 + 1, and they differ,
    # so they are both roots of X^2 - X - 1 in any field that holds eps
    eps, minimal = gf3_poly(0, 1), gf3_poly(1, 0, 1)
    roots = (eps - gf3_poly(1), -eps - gf3_poly(1))
    for c in roots:
        assert (pow_mod(c, 2, minimal) - c - gf3_poly(1)) % minimal == gf3_poly()
    assert (roots[0] - roots[1]) % minimal != gf3_poly()
