"""Roots-of-unity subgroups and exact permutation testing.

The main check is the classic reduction for maps of the shape
f(x) = x^r * h(x^((3^2k - 1)/d)): f permutes the whole field iff
gcd(r, (3^2k - 1)/d) = 1 and x^r * h(x)^((3^2k - 1)/d) permutes the order-d
subgroup mu_d.  Both sides are computed exactly over integer encodings.
"""

from itertools import accumulate, repeat
from math import gcd
from typing import Callable, Iterable, NamedTuple, Optional

from .gf3m import FieldCtx
from .polyring import Poly


def mu_enumerate(ctx: FieldCtx, d: int) -> frozenset:
    """mu_d, the d-th roots of unity z^i for z = alpha^((order-1)/d) and i in
    0..d-1, as a frozenset, one product per element; d must divide order-1.
    mu_(order-1) is every nonzero encoding, and takes no product, and
    mu_(q+1) is read off the field's own table of it."""
    n = ctx.order - 1
    if not isinstance(d, int) or d < 1 or n % d != 0:
        raise ValueError(f"not a subgroup order: d={d} does not divide {n}")
    if d == n:
        return frozenset(range(1, ctx.order))
    if d == ctx.q + 1:
        return frozenset(ctx._subgroup(d)[0])
    z = ctx.alpha_pow(n // d)
    return frozenset(accumulate(repeat(z, d - 1), ctx.mul, initial=1))


class MapReport(NamedTuple):
    """Outcome of a bijection check over a finite domain.

    collision: first (x1, x2) in increasing encoding order with equal images.
    missed: smallest-encoded domain element with no preimage.
    """
    is_bijection: bool
    collision: Optional[tuple] = None
    missed: Optional[int] = None


def is_bijection_on(fn: Callable[[int], int], domain: Iterable[int]) -> MapReport:
    """Check whether fn restricted to the domain permutes it."""
    dom = sorted(domain)
    first_preimage: dict = {}
    collision = None
    for x in dom:
        y = fn(x)
        if y in first_preimage:
            if collision is None:
                collision = (first_preimage[y], x)
        else:
            first_preimage[y] = x
    missed = next((x for x in dom if x not in first_preimage), None)
    return MapReport(collision is None and missed is None, collision, missed)


def _settle_orbits(ctx: FieldCtx, xs: Iterable[int], settle: Callable,
                   cube: Callable, negate: Optional[Callable] = None):
    """Yield (x, value) for each x of xs, in the order of xs: the package's
    one walk of the orbits of y -> y^3 (joined with y -> -y when negate is
    given), for a settle with settle(x^3) = cube(settle(x)) and settle(-x) =
    negate(settle(x)).  The first x met of each orbit gets settle(x), and the
    orbit is walked once, each member's value held until xs reaches it.  A
    None value, where the map is undefined, stays None."""
    frob, neg = ctx.frobenius, ctx.neg
    pending, held = set(xs), {}
    for x in xs:
        pending.discard(x)
        if x in held:
            yield x, held.pop(x)
            continue
        s = x
        value = v = settle(x)
        while True:  # y -> y^(3^2k) is the identity, so the walk returns to x
            if negate is not None and neg(s) in pending:
                held[neg(s)] = v if v is None else negate(v)
            s, v = frob(s), v if v is None else cube(v)
            if s == x:
                break
            if s in pending:
                held[s] = v
        yield x, value


def zieve_criterion(ctx: FieldCtx, r: int, d: int, h: Poly) -> tuple:
    """(cond1, cond2) of the subgroup permutation criterion.

    cond1: gcd(r, (order-1)/d) = 1.
    cond2: x^r * h(x)^((order-1)/d) permutes mu_d; where h vanishes the image
    is None, and the map does not permute mu_d.

    With z = alpha^((order-1)/d), the image of x = z^i is z^((i r + L) mod d)
    for L = log_alpha h(x), as h(x)^((order-1)/d) = z^L: one ctx._log per x,
    with i and z^j read off ctx._subgroup(d).  When h is over GF(3)
    (encodings below 3), the map takes x^3 to the cube of x's image, so it
    is settled once per orbit by _settle_orbits; otherwise at every x.
    """
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    mu = mu_enumerate(ctx, d)  # validates that d divides order-1
    e = (ctx.order - 1) // d
    powers, index = ctx._subgroup(d)

    def image(x: int) -> Optional[int]:
        hx = h.eval(x)
        return powers[(index[x] * r + ctx._log(hx)) % d] if hx else None

    if all(c < 3 for c in h.coeffs):
        images = dict(_settle_orbits(ctx, mu, image, ctx.frobenius))
    else:
        images = {x: image(x) for x in mu}
    return gcd(r, e) == 1, is_bijection_on(images.__getitem__, mu).is_bijection
