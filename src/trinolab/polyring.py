"""Dense univariate polynomials over a GF(3^2k) ctx.

Coefficients are stored as integer encodings, low degree first, with trailing
zeros trimmed; the zero polynomial has an empty coefficient tuple and degree
-1.  eval takes and returns encodings too.  Quadratic factor extraction
splits gcd(p, x^order - x) and gcd(p, x^(order^2) - x) by deterministic
equal-degree splitting, so it never scans the field; roots_in_set, the
candidate scan, remains the oracle.
"""

from typing import Iterable, Optional

from .gf3m import FieldCtx


class Poly:
    """Immutable dense polynomial; coefficients are element encodings."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: Iterable = ()):
        encs = []
        for c in coeffs:
            if not isinstance(c, int) or not 0 <= c < ctx.order:
                raise ValueError(f"bad coefficient {c!r}")
            encs.append(c)
        while encs and encs[-1] == 0:
            encs.pop()
        self.ctx = ctx
        self.coeffs = tuple(encs)

    @classmethod
    def monomial(cls, ctx: FieldCtx, degree: int, coeff: int = 1) -> "Poly":
        return cls(ctx, (0,) * degree + (coeff,))

    @classmethod
    def from_text(cls, ctx: FieldCtx, text: str) -> "Poly":
        """Parse the "c0,c1,...,cn" format of decimal element encodings."""
        try:
            parts = [int(p) for p in text.split(",")]
        except ValueError:
            raise ValueError(f"malformed polynomial {text!r}") from None
        return cls(ctx, parts)

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def _check(self, other: "Poly"):
        if not isinstance(other, Poly) or other.ctx is not self.ctx:
            raise ValueError("polynomials from different ctxs")

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.ctx is self.ctx
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.coeffs, id(self.ctx)))

    def __add__(self, other):
        self._check(other)
        add = self.ctx.add
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly(self.ctx, out)

    def __neg__(self):
        neg = self.ctx.neg
        return Poly(self.ctx, [neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            mul = self.ctx.mul
            return Poly(self.ctx, [mul(c, other) for c in self.coeffs])
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly(self.ctx)
        add, mul = self.ctx.add, self.ctx.mul
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = add(out[i + j], mul(a, b))
        return Poly(self.ctx, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.degree < other.degree:
            return Poly(self.ctx), self
        ctx = self.ctx
        sub, mul = ctx.sub, ctx.mul
        inv_lead = ctx.inv(other.leading)
        rem = list(self.coeffs)
        dq = other.degree
        quot = [0] * (len(rem) - dq)
        for i in range(len(rem) - dq - 1, -1, -1):
            c = mul(rem[i + dq], inv_lead)
            if c:
                quot[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = sub(rem[i + j], mul(c, b))
        return Poly(ctx, quot), Poly(ctx, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def eval(self, x: int) -> int:
        """Horner evaluation at an encoding; returns an encoding."""
        add, mul = self.ctx.add, self.ctx.mul
        acc = 0
        for c in reversed(self.coeffs):
            acc = add(mul(acc, x), c)
        return acc

    __call__ = eval

    def monic(self) -> "Poly":
        if self.is_zero or self.leading == 1:
            return self
        return self * self.ctx.inv(self.leading)

    def derivative(self) -> "Poly":
        # i * c_i reduces mod 3, so every x^(3j) term drops out entirely
        mul = self.ctx.mul
        return Poly(self.ctx,
                    [mul(i % 3, c) for i, c in enumerate(self.coeffs)][1:])

    def __repr__(self):
        return f"Poly(GF(3^{self.ctx.m}), [{self.to_text()}])"


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials")
    while not q.is_zero:
        p, q = q, p % q
    return p.monic()


def pow_mod(base: Poly, exponent: int, modulus: Poly) -> Poly:
    """base^exponent mod modulus by binary exponentiation."""
    if exponent < 0:
        raise ValueError("negative exponent")
    result = Poly(base.ctx, (1,)) % modulus
    base = base % modulus
    while exponent:
        if exponent & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        exponent >>= 1
    return result


def roots_in_set(p: Poly, candidates) -> list:
    """All roots of p among the candidate encodings, in increasing encoding order."""
    if p.is_zero:
        raise ValueError("zero polynomial has every root")
    return [x for x in sorted(candidates) if p.eval(x) == 0]


def _split_equal_degree(w: Poly, d: int) -> list:
    """Split w, a squarefree product of monic degree-d irreducibles, into them.

    Cantor-Zassenhaus equal-degree splitting with the shifts c tried in
    encoding order: x + c is a square modulo some factors of w and a
    non-square modulo others, and gcd(w, (x + c)^((order^d - 1)/2) - 1)
    collects the first kind.  The first proper split is recursed on.  Some
    shift separates any two factors: for d = 1 as c -> (c + r)/(c + s) takes
    non-square values, for d = 2 by the Weil bound once order >= 81 and by
    exhaustion at order 9.
    """
    if w.degree <= d:
        return [w.monic()] if w.degree == d else []
    ctx = w.ctx
    half = (ctx.order ** d - 1) // 2
    for c in range(ctx.order):
        g = poly_gcd(w, pow_mod(Poly(ctx, (c, 1)), half, w) - Poly(ctx, (1,)))
        if 0 < g.degree < w.degree:
            return _split_equal_degree(g, d) + _split_equal_degree(w // g, d)
    raise AssertionError("equal-degree splitting failed")  # unreachable


def quadratic_factors(p: Poly) -> list:
    """All monic quadratics x^2 + a x + b dividing p, as sorted (a, b) pairs.

    Split quadratics come from pairing roots of p, self-pairs included; the
    roots are the linear factors of gcd(p, x^order - x).  Exact division
    decides every pair, so (x - r)^2 is kept exactly when r is a repeated
    root.  Irreducible quadratics are the factors of gcd(p, x^(order^2) - x)
    divided by that linear part.  Both are separated by equal-degree
    splitting, and every returned pair is verified by exact division.
    """
    if p.degree < 2:
        raise ValueError("degree must be at least 2")
    ctx = p.ctx
    found = set()
    x = Poly.monomial(ctx, 1)
    xq = pow_mod(x, ctx.order, p)
    linear = poly_gcd(p, xq - x)
    roots = sorted(ctx.neg(f.coeffs[0]) for f in _split_equal_degree(linear, 1))
    for i, r in enumerate(roots):
        for s in roots[i:]:
            a = ctx.neg(ctx.add(r, s))
            b = ctx.mul(r, s)
            if (p % Poly(ctx, (b, a, 1))).is_zero:
                found.add((a, b))
    xqq = pow_mod(xq, ctx.order, p)  # x^(order^2) via Frobenius
    for q in _split_equal_degree(poly_gcd(p, xqq - x) // linear, 2):
        a, b = q.coeffs[1], q.coeffs[0]
        if not (p % q).is_zero:
            raise AssertionError("extracted quadratic fails division check")
        found.add((a, b))
    return sorted(found)
