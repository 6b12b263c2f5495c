"""Dense univariate polynomials over a field ctx: GF(3^2k), or GF(3) itself.

Coefficients are stored as integer encodings, low degree first, with trailing
zeros trimmed; the zero polynomial has an empty coefficient tuple and degree
-1.  eval takes and returns encodings too.  A ctx is any object with order,
m (its degree over GF(3)) and the scalar ops add, sub, neg, mul, inv and
frobenius on encodings; both gf3m contexts serve, and so does gf3m's GF(3),
over which the Frobenius chain and poly_gcd below run Rabin's
irreducibility test of the field modulus.

Quadratic factor extraction never scans the field and makes no pow_mod call.
One Frobenius chain x^(3^i) mod p, i <= 4k, is built by cubing, which is
additive in characteristic 3, so each cube is a linear combination of the
precomputed rows x^(3j) mod p.  The chain gives x^order and x^(order^2), hence
the linear part gcd(p, x^order - x) and the quadratic part
gcd(p, x^(order^2) - x), and the same chain splits both by absolute traces
(Berlekamp's trace algorithm) over at most 4k deterministic tries.  The
linear part is squarefree and divides p, so any two distinct roots give a
quadratic factor with no division, and the self-pairs (x - r)^2 come from
the roots of gcd(p // linear, linear), the repeated roots.  The tests keep
Cantor-Zassenhaus splitting with pow_mod, the candidate scan roots_in_set
and a brute-force divisor search as oracles.
"""

from typing import Iterable


class Poly:
    """Immutable dense polynomial; coefficients are element encodings."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs: Iterable = ()):
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
    def _trusted(cls, ctx, encs: list) -> "Poly":
        """Poly of a list of valid encodings, without __init__'s per-coefficient
        check; for results of the arithmetic below.  Trims encs in place."""
        while encs and encs[-1] == 0:
            encs.pop()
        poly = object.__new__(cls)
        poly.ctx = ctx
        poly.coeffs = tuple(encs)
        return poly

    @classmethod
    def monomial(cls, ctx, degree: int, coeff: int = 1) -> "Poly":
        return cls(ctx, (0,) * degree + (coeff,))

    @classmethod
    def from_text(cls, ctx, text: str) -> "Poly":
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
        return Poly._trusted(self.ctx, out)

    def __neg__(self):
        neg = self.ctx.neg
        return Poly._trusted(self.ctx, [neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            mul = self.ctx.mul
            return Poly._trusted(self.ctx, [mul(c, other) for c in self.coeffs])
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
        return Poly._trusted(self.ctx, out)

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
        return Poly._trusted(ctx, quot), Poly._trusted(ctx, rem)

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


def _combine(ctx, scalars, polys, size: int) -> Poly:
    """sum(s * P for s, P in zip(scalars, polys)); every P has degree < size."""
    add, mul = ctx.add, ctx.mul
    out = [0] * size
    for s, poly in zip(scalars, polys):
        if s:
            for i, c in enumerate(poly.coeffs):
                out[i] = add(out[i], mul(s, c))
    return Poly._trusted(ctx, out)


def _frobenius_chain(p: Poly, length: int) -> list:
    """[x^(3^i) mod p for i <= length], by repeated cubing.

    Cubing is additive in characteristic 3: (sum c_j x^j)^3 = sum c_j^3 x^(3j).
    With the rows x^(3j) mod p for j < deg p computed once, each from the
    last by a shift and a three-step reduction, each cube is a linear
    combination of those rows, deg(p)^2 field ops.
    """
    ctx = p.ctx
    rows = [Poly(ctx, (1,)) % p]
    for _ in range(1, p.degree):
        rows.append(Poly._trusted(ctx, [0, 0, 0, *rows[-1].coeffs]) % p)
    chain = [Poly.monomial(ctx, 1) % p]
    for _ in range(length):
        cubes = [ctx.frobenius(c) for c in chain[-1].coeffs]
        chain.append(_combine(ctx, cubes, rows, p.degree))
    return chain


def _trace_tries(w: Poly, d: int, chain: list):
    """Tr(c y) mod w for y = x, then (d = 2) y = x^2, with c = 3^j for j < m.

    Tr is the absolute trace of GF(order^d), the sum of the 3^i-th powers for
    i < d m, so Tr(c y) = sum c^(3^i) y^(3^i), with x^(3^i) read off the chain
    (computed mod a multiple of w) and x^(2 3^i) as its squares.  The c are
    the polynomial basis x^j of GF(order) over GF(3).  m = 2k tries for d = 1
    and 2m = 4k for d = 2.
    """
    ctx = w.ctx
    powers = [y % w for y in chain[:d * ctx.m]]
    for y_degree in range(1, d + 1):
        if y_degree == 2:
            powers = [(y * y) % w for y in powers]
        for j in range(ctx.m):
            conjugates = [3 ** j]  # c^(3^i), one cube at a time
            while len(conjugates) < len(powers):
                conjugates.append(ctx.frobenius(conjugates[-1]))
            yield _combine(ctx, conjugates, powers, w.degree)


def _trace_split(w: Poly, d: int, chain: list) -> list:
    """Split w, a squarefree product of monic degree-d irreducibles, into them.

    d is 1 or 2, and chain[i] = x^(3^i) mod a multiple of w for i < d m.
    Berlekamp's trace splitting: each try T = Tr(c y) mod w from _trace_tries
    takes a value in GF(3) at every root of w, the same value at the two
    conjugate roots of a quadratic factor, so gcd(w, T - e) for e in GF(3)
    splits w into the factors where T is e.  Every part is split by every
    try until all have degree d.

    Why the tries separate any two distinct factors: the trace form
    (u, v) -> Tr(u v) of GF(order) over GF(3) is nondegenerate, so for u != v
    some basis element c has Tr(c u) != Tr(c v).  A linear factor x - r
    gives Tr(c r).  A quadratic x^2 + a x + b with roots rho, rho^order gives
    Tr(c rho) = Tr_order(c (rho + rho^order)) = Tr_order(-c a) and
    Tr(c rho^2) = Tr_order(c ((rho + rho^order)^2 - 2 rho^(order + 1)))
    = Tr_order(c (a^2 + b)), Tr_order being the trace of GF(order).  Two
    distinct quadratics differ in -a, or else in a^2 + b.
    """
    parts = [w] if w.degree > 0 else []
    tries = _trace_tries(w, d, chain)
    while any(part.degree > d for part in parts):
        trace = next(tries, None)
        if trace is None:
            raise AssertionError("trace splitting failed")  # unreachable
        parts = [g for part in parts for g in _split_on(part, trace, d)]
    return parts


def _split_on(part: Poly, trace: Poly, d: int) -> list:
    """The nontrivial gcd(part, trace - e), e in GF(3); part itself if of degree d."""
    if part.degree == d:
        return [part]
    ctx = part.ctx
    r = trace % part
    out = []
    for e in range(3):  # encodings 0, 1, 2 are the elements of GF(3)
        g = poly_gcd(part, r - Poly(ctx, (e,)))
        if g.degree > 0:
            out.append(g)
    return out


def quadratic_factors(p: Poly) -> list:
    """All monic quadratics x^2 + a x + b dividing p, as sorted (a, b) pairs.

    Split quadratics come from the roots of p, the linear factors of
    linear = gcd(p, x^order - x).  linear is squarefree and divides p, so
    (x - r)(x - s) divides p for every two distinct roots, and (x - r)^2
    divides p exactly when r is a root of gcd(p // linear, linear), the
    repeated roots.  Irreducible quadratics are the factors of
    gcd(p, x^(order^2) - x) divided by linear, each verified by exact
    division.  x^order and x^(order^2) come from one Frobenius chain, and
    every part is split by traces on the same chain.
    """
    if p.degree < 2:
        raise ValueError("degree must be at least 2")
    ctx = p.ctx
    m = ctx.m
    chain = _frobenius_chain(p, 2 * m)
    x = chain[0]
    linear = poly_gcd(p, chain[m] - x)

    def roots(w: Poly) -> list:
        return [ctx.neg(f.coeffs[0]) for f in _trace_split(w, 1, chain)]

    simple = roots(linear)
    pairs = [(r, s) for i, r in enumerate(simple) for s in simple[i + 1:]]
    pairs += [(r, r) for r in roots(poly_gcd(p // linear, linear))]
    found = {(ctx.neg(ctx.add(r, s)), ctx.mul(r, s)) for r, s in pairs}
    for q in _trace_split(poly_gcd(p, chain[2 * m] - x) // linear, 2, chain):
        if not (p % q).is_zero:
            raise AssertionError("extracted quadratic fails division check")
        found.add((q.coeffs[1], q.coeffs[0]))
    return sorted(found)
