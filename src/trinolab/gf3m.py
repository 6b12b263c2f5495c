"""Exact arithmetic in GF(3^2k), the quadratic extension tower over GF(3).

Elements are stored as base-3 integer encodings of their coefficient vectors
in the polynomial basis: trits (c0, c1, ..., c_{2k-1}) with c0 least
significant, so encoding = sum(c_i * 3^i).  The encoding order doubles as the
canonical tie-breaking order everywhere in this package.

FieldCtx is the one field context.  Its scalar ops (add, sub, neg, mul, inv,
pow and frobenius) keep only tables of 3^k entries (2 ms of set-up at k = 5,
9 ms at k = 8, 35 ms at k = 10) and multiply by one Python int product of
packed trits (Kronecker substitution): 1.1-3.3 us a product and 0.5-1.4 us a
sum at k = 1..10 on a 2-vCPU Xeon.  Every other helper is derived from them.
The module imports no numpy, and a field builds up to k = 10.

The field is GF(3)[x]/(f) for the monic irreducible modulus f of degree
2k.  f is a polyring.Poly over GF(3), the private ctx _GF3, so this module
does no GF(3)[x] arithmetic of its own: Rabin's irreducibility test
(gf3_is_irreducible) reads x^(3^i) mod f off polyring's Frobenius chain and
takes polyring's gcds, and the context reduces the powers x^i mod f its
tables start from with polyring's division.  default_modulus(2k) searches
for the lexicographically smallest f.

A field checks k against max_k, picks or checks the modulus (one Rabin test
per modulus) and finds the smallest primitive element alpha.  Two tables of
about q entries index the subgroups GF(q)* and mu_{q+1}, each built by one
walk on first use.  The inverse and the one discrete log, FieldCtx._log
(read by the direct route and the index-form criterion), take two products
and one conjugate_q per element off them, and permtest.mu_enumerate reads
mu_{q+1} off the second.  Elements are plain ints throughout: the ctx
methods take and return encodings.
"""

import itertools
from typing import Iterable, NamedTuple, Optional

from .polyring import Poly, _frobenius_chain, poly_gcd

DEFAULT_MAX_K = 6
# ceiling on the bytes of the mu command's element list, checked before the
# field is built
TABLE_BYTES_CEILING = 2 * 2 ** 30
# peak bytes per element of the mu command (the frozenset, the sorted list
# and the report), held to the same ceiling before the field is built: a
# tracemalloc peak of 118-119 bytes per element for --format json at
# d = 531,440 (k = 6) and 4,782,968 (k = 7), 68 for text and 77 for csv
_MU_BYTES_PER_ELEMENT = 120


# ---------------------------------------------------------------------------
# the modulus: a polyring.Poly over GF(3)

class _GF3:
    """GF(3) as a polyring ctx: the encodings 0, 1, 2 are the elements,
    every nonzero a is its own inverse, and the Frobenius is the identity."""

    order = 3
    m = 1

    @staticmethod
    def add(a: int, b: int) -> int:
        return (a + b) % 3

    @staticmethod
    def sub(a: int, b: int) -> int:
        return (a - b) % 3

    @staticmethod
    def neg(a: int) -> int:
        return -a % 3

    @staticmethod
    def mul(a: int, b: int) -> int:
        return a * b % 3

    @staticmethod
    def inv(a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero")
        return a

    @staticmethod
    def frobenius(a: int, e: int = 1) -> int:
        return a


def gf3_is_irreducible(f) -> bool:
    """Rabin's test for a GF(3) polynomial f, a trit sequence low degree
    first, of degree d >= 1: f is irreducible iff x^(3^d) = x mod f and
    gcd(f, x^(3^(d/p)) - x) = 1 for every prime p dividing d (Rabin 1980,
    Probabilistic algorithms in finite fields).

    x^(3^i) mod f for i <= d is polyring's Frobenius chain over GF(3), and
    the gcds are polyring's.  Above degree 1 a root 0, 1 or -1 is a linear
    factor, so f is refused first when c_0, sum c_i or sum (-1)^i c_i is 0.
    """
    f = Poly(_GF3, f)
    c, d = f.coeffs, f.degree
    if d < 1 or d > 1 and 0 in (c[0], sum(c) % 3, (sum(c[::2]) - sum(c[1::2])) % 3):
        return False
    chain = _frobenius_chain(f, d)
    x = chain[0]
    if chain[d] != x:
        return False
    # a nontrivial gcd is a factor of degree dividing d / p
    return all(poly_gcd(f, chain[d // p] - x).degree == 0 for p in _factorize(d))


def default_modulus(degree: int) -> tuple:
    """Lexicographically smallest monic irreducible of the given degree.

    Coefficients are compared low degree first, so the choice is deterministic
    and independent of any randomness.  Above degree 1 the search starts at
    constant term 1: the candidates it skips are divisible by x.
    """
    if degree < 1:
        raise ValueError(f"no irreducible polynomial of degree {degree}")
    constant = range(1 if degree > 1 else 0, 3)
    for tail in itertools.product(constant, *[range(3)] * (degree - 1)):
        f = (*tail, 1)
        if gf3_is_irreducible(f):
            return f
    raise ValueError(f"no irreducible polynomial of degree {degree}")


def parse_modulus(text: str) -> tuple:
    """Parse the comma-separated trit list format, e.g. "1,0,1" for x^2+1."""
    try:
        coeffs = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"malformed modulus {text!r}") from None
    if not coeffs or any(c not in (0, 1, 2) for c in coeffs):
        raise ValueError(f"malformed modulus {text!r}: trits must be 0, 1 or 2")
    return coeffs


def format_modulus(modulus) -> str:
    return ",".join(str(c) for c in modulus)


def _factorize(n: int) -> list:
    """Prime factors of n by trial division (n stays small here)."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


# ---------------------------------------------------------------------------
# the field context: trits packed as base-256 digits of one Python int

# bytes.translate tables on base-256 digits: the digit mod 3, and that
# residue as the ASCII character int(., 3) reads
_MOD3 = bytes(v % 3 for v in range(256))
_TRIT_CHARS = bytes(ord("0") + v % 3 for v in range(256))
# largest k a FieldCtx builds.  The set-up of its scalar ops holds about
# 6 * 3^k Python ints: 0.03-0.06 s and 39 MB of peak RSS for a whole factors run at
# k = 10 on a 2-vCPU Xeon, and each k above triples it
_SETUP_MAX_K = 10


def _digit_sums(rows: list) -> list:
    """sum(c_j rows[j]) for every trit vector (c_j), indexed by sum(c_j 3^j)."""
    sums = [0]
    for r in rows:
        sums += [s + r for s in sums] + [s + 2 * r for s in sums]
    return sums


def _x_powers(modulus: Poly, count: int) -> list:
    """Trits of x^i mod the modulus (a Poly over GF(3)) for i < count, each
    from the last by a shift and one reduction step."""
    powers = [Poly(_GF3, (1,))]  # the modulus has degree 2k >= 2
    while len(powers) < count:
        powers.append(Poly._trusted(_GF3, [0, *powers[-1].coeffs]) % modulus)
    return [p.coeffs for p in powers]


def _packed(trits) -> int:
    return sum(c << 8 * i for i, c in enumerate(trits))


class SpecialConstants(NamedTuple):
    """Distinguished constants of a ctx, all as integer encodings.

    epsilon: the smaller-encoded root of X^2 + 1 (always present; 4 | 3^2k - 1).
    theta: the smallest-encoded root of X^3 - X - 1, present iff k % 3 == 0.
    sqrt_eps_minus_1: the canonical square root of eps - 1 when it exists.
    """
    epsilon: int
    theta: Optional[int]
    sqrt_eps_minus_1: Optional[int]


def _degree(k: int, max_k: int) -> int:
    """m = 2k, once k is checked to lie in 1..max_k."""
    if not isinstance(k, int) or not 1 <= k <= max_k:
        raise ValueError(f"unsupported degree: k={k} outside 1..{max_k}")
    return 2 * k


class FieldCtx:
    """GF(3^2k) arithmetic: the one implementation of the scalar ops, of
    every helper derived from them, and of the discrete log _log.

    An element's trits become the base-256 digits of one int, packed from
    3^k-entry tables of each half of its encoding.  A product is one int
    product of the packed operands (Kronecker substitution; von zur Gathen
    and Gerhard, Modern Computer Algebra, section 8.4): its 2m - 1 digits
    are at most 4m < 256, so none carries.  One bytes.translate takes them
    mod 3, and the top m - 1 digits fold back through two lookups of sums
    of x^(m+l) mod f, keyed by k and k - 1 of those digits.  A sum is a packed
    int sum, -b is 2b, and a last translate turns the digits into the
    encoding's base-3 string.  The Frobenius y -> y^3 and y -> y^q are
    GF(3)-linear, each applied by one lookup in half tables of the images
    x^(3j) and x^(qj) mod f, built on first use; the e-fold Frobenius takes
    e single cubes.  The norm N(a) = a^(q+1) = a^q a lies in GF(q)*, the
    powers of gamma = alpha^(q+1), so a^(-1) = a^q N(a)^(-1) = a^q
    gamma^(-c) for c = log_gamma N(a): one conjugate_q, two products and two
    lookups in _subgroup(q - 1).

    k must lie in 1..max_k and 1.._SETUP_MAX_K, checked before any
    work; a given modulus must have trits in 0..2, be monic of degree m and
    pass one Rabin test, and None picks default_modulus(m).  Then it finds
    alpha, in about 1 ms.  The public attributes are k, m (= 2k), q (= 3^k),
    order (= 3^2k), modulus (monic GF(3) coefficient tuple, low degree
    first) and alpha (encoding of the smallest primitive element).

    _subgroup indexes GF(q)* and mu_{q+1}, and _log reads log_alpha a off
    those two tables (see there), each built on first use.
    """

    _special: Optional[SpecialConstants] = None
    _subgroups = None  # {d: (powers, logs)}, filled by _subgroup
    _inverse_powers = None  # [alpha^(-i) for i < q - 1], built by the first _log

    def __init__(self, k: int, modulus=None, max_k: int = DEFAULT_MAX_K):
        m = _degree(k, max_k)
        if k > _SETUP_MAX_K:
            raise ValueError(f"field order 3^{m} too large: the scalar ops' set-up grows "
                             f"as 3^k and stops at k = {_SETUP_MAX_K}")
        if modulus is None:
            f = Poly(_GF3, default_modulus(m))
        else:
            try:
                f = Poly(_GF3, modulus)  # trims, and checks every trit
            except ValueError:
                raise ValueError(f"modulus trits must be 0, 1 or 2, "
                                 f"got {format_modulus(modulus)}") from None
            if f.degree != m or f.leading != 1:
                raise ValueError(f"modulus must be monic of degree {m}, "
                                 f"got {format_modulus(f.coeffs)}")
            if not gf3_is_irreducible(f.coeffs):
                raise ValueError(f"reducible modulus: {format_modulus(f.coeffs)}")
        self.modulus = f.coeffs
        self.k = k
        self.m = m
        self.q = 3 ** k
        self.order = self.q ** 2
        powers = _x_powers(f, 3 * m - 2)
        self._low = low = _digit_sums([1 << 8 * j for j in range(k)])
        self._high = [v << 8 * k for v in low]
        # a product's 2m - 1 digits, highest first: the top k and the next
        # k - 1 fold back, keyed by their packed values, onto the low m
        fold = [_packed(row) for row in powers[m:2 * m - 1]]
        self._fold_top = dict(zip(low, _digit_sums(fold[k - 1:])))
        self._fold_next = dict(zip(low[:3 ** (k - 1)], _digit_sums(fold[:k - 1])))
        self._low_digits = (1 << 8 * m) - 1
        self._next_digits = (1 << 8 * (k - 1)) - 1
        # x^(3j) mod f; the half tables of the cube and of y -> y^q are built
        # by the first frobenius and conjugate_q calls
        self._cubes = [_packed(powers[3 * j]) for j in range(m)]
        self._cube_tables = self._conj_tables = None
        self.alpha = self._smallest_primitive()

    def _smallest_primitive(self) -> int:
        """Encoding of the smallest generator of the multiplicative group."""
        n = self.order - 1
        cofactors = [n // p for p in _factorize(n)]
        for cand in range(2, self.order):
            if all(self.pow(cand, c) != 1 for c in cofactors):
                return cand
        raise ValueError("no primitive element found")  # unreachable

    def _encoding(self, packed: int) -> int:
        """The encoding whose trits are the digits of packed, mod 3."""
        return int(packed.to_bytes(self.m, "big").translate(_TRIT_CHARS), 3)

    def _linear_tables(self, rows: list) -> tuple:
        """Half tables of the GF(3)-linear map sending x^j to the packed
        rows[j], read by _apply."""
        return _digit_sums(rows[:self.k]), _digit_sums(rows[self.k:])

    def _apply(self, tables: tuple, a: int) -> int:
        return self._encoding(tables[0][a % self.q] + tables[1][a // self.q])

    def add(self, a: int, b: int) -> int:
        if not b:
            return a
        if not a:
            return b
        q, low, high = self.q, self._low, self._high
        return self._encoding(low[a % q] + high[a // q] + low[b % q] + high[b // q])

    def sub(self, a: int, b: int) -> int:
        if not b:
            return a
        q, low, high = self.q, self._low, self._high
        return self._encoding(low[a % q] + high[a // q] + 2 * (low[b % q] + high[b // q]))

    def neg(self, a: int) -> int:
        q = self.q
        return self._encoding(2 * (self._low[a % q] + self._high[a // q]))

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        q, low, high, k = self.q, self._low, self._high, self.k
        product = (low[a % q] + high[a // q]) * (low[b % q] + high[b // q])
        p = int.from_bytes(product.to_bytes(4 * k - 1, "big").translate(_MOD3), "big")
        return self._encoding((p & self._low_digits) + self._fold_top[p >> 8 * (3 * k - 1)]
                              + self._fold_next[p >> 16 * k & self._next_digits])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero")
        conj = self.conjugate_q(a)
        powers, logs = self._subgroup(self.q - 1)
        return self.mul(conj, powers[-logs[self.mul(conj, a)]])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("division by zero")
            return 0 if e else 1
        e %= self.order - 1
        if e == 0:
            return 1
        mul = self.mul
        r = a
        for digit in bin(e)[3:]:  # square-and-multiply below the top bit
            r = mul(r, r)
            if digit == "1":
                r = mul(r, a)
        return r

    def frobenius(self, a: int, e: int = 1) -> int:
        """x -> x^(3^e), the e-fold characteristic-3 Frobenius."""
        e %= self.m
        if e == 1:
            if self._cube_tables is None:
                self._cube_tables = self._linear_tables(self._cubes)
            return self._apply(self._cube_tables, a)
        for _ in range(e):
            a = self.frobenius(a)
        return a

    def conjugate_q(self, a: int) -> int:
        """x -> x^q; on the norm-1 subgroup mu_{q+1} this is inversion."""
        if self._conj_tables is None:
            q, low, high = self.q, self._low, self._high
            rows = [self.frobenius(3 ** j, self.k) for j in range(self.m)]
            self._conj_tables = self._linear_tables([low[r % q] + high[r // q]
                                                     for r in rows])
        return self._apply(self._conj_tables, a)

    def decode(self, enc: int) -> tuple:
        """Trit vector (c0, ..., c_{m-1}) of an encoding."""
        v = []
        for _ in range(self.m):
            v.append(enc % 3)
            enc //= 3
        return tuple(v)

    def encode(self, trits: Iterable[int]) -> int:
        trits = tuple(trits)
        if len(trits) > self.m or any(t not in (0, 1, 2) for t in trits):
            raise ValueError(f"bad trit vector {trits}")
        return sum(c * 3 ** i for i, c in enumerate(trits))

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def alpha_pow(self, i: int) -> int:
        """Encoding of alpha^i for any integer i."""
        return self.pow(self.alpha, i)

    def sqrt(self, a: int) -> Optional[int]:
        """The smaller-encoded square root of a, or None when a is not a square.

        With n = 2^s d, d odd, a^(-d) lies in the order-2^s subgroup <alpha^d>
        and is a square there iff a is one.  Then w^2 = a^(-d) for some w in
        it, found in at most 2^s products (64 up to k = 10), and
        r = a^((d+1)/2) w squares to a."""
        if a == 0:
            return 0
        n = self.order - 1
        d = n // (n & -n)
        target, z = self.pow(a, -d), self.alpha_pow(d)
        w = 1
        for _ in range((n & -n) // 2):
            if self.mul(w, w) == target:
                r = self.mul(self.pow(a, (d + 1) // 2), w)
                return min(r, self.neg(r))
            w = self.mul(w, z)
        return None

    def special_constants(self) -> SpecialConstants:
        if self._special is None:
            eps = self.alpha_pow((self.order - 1) // 4)
            eps = min(eps, self.neg(eps))
            if self.add(self.mul(eps, eps), 1) != 0:
                raise ValueError("internal error: epsilon^2 + 1 != 0")
            self._special = SpecialConstants(eps, solve_theta(self),
                                             self.sqrt(self.sub(eps, 1)))
        return self._special

    def __repr__(self):
        return f"{type(self).__name__}(k={self.k}, modulus={format_modulus(self.modulus)})"

    # -- the subgroup tables and the discrete log ---------------------------

    def _subgroup(self, d: int) -> tuple:
        """([z^i for i < d], {z^i: i}) for z = alpha^(n/d), n = q^2 - 1 and d
        dividing n, built by one walk on first use and then kept: GF(q)* is
        d = q - 1 and mu_{q+1} is d = q + 1.  ValueError, and nothing kept,
        unless the walk reaches d distinct values: for d = q - 1 and q + 1
        both, that holds iff alpha is primitive."""
        if self._subgroups is None:
            self._subgroups = {}
        if d not in self._subgroups:
            z = self.pow(self.alpha, (self.order - 1) // d)
            powers = list(itertools.accumulate(itertools.repeat(z, d - 1), self.mul,
                                               initial=1))
            logs = {x: i for i, x in enumerate(powers)}
            if len(logs) != d:
                raise ValueError(f"alpha = {self.alpha} is not primitive: "
                                 f"{z} has order below {d}")
            self._subgroups[d] = powers, logs
        return self._subgroups[d]

    def _log(self, a: int) -> int:
        """log_alpha a, in [0, n), for a != 0 (n = q^2 - 1).

        gamma = alpha^(q+1) has order q - 1 and beta = alpha^(q-1) has order
        q + 1.  With L = log_alpha a, the norm N(a) = a^(q+1) = conjugate_q(a)
        a is gamma^L, so c = log_gamma N(a) = L mod (q - 1), and a alpha^(-c)
        = beta^t with t = (L - c) / (q - 1) in [0, q + 1).  So L = c +
        (q - 1) t: two products, one conjugate_q and three lookups.  c and t
        are read off _subgroup(q - 1) and _subgroup(q + 1), and the list
        [alpha^(-i)] is _log's own, from one walk.
        """
        q = self.q
        norm_logs, unit_logs = self._subgroup(q - 1)[1], self._subgroup(q + 1)[1]
        if self._inverse_powers is None:
            self._inverse_powers = list(itertools.accumulate(
                itertools.repeat(self.inv(self.alpha), q - 2), self.mul, initial=1))
        c = norm_logs[self.mul(self.conjugate_q(a), a)]
        return c + (q - 1) * unit_logs[self.mul(a, self._inverse_powers[c])]


def ctx_create(k: int, modulus=None, max_k: int = DEFAULT_MAX_K) -> FieldCtx:
    """FieldCtx(k, modulus, max_k), kept as a public name; every command
    builds its field through FieldCtx itself."""
    return FieldCtx(k, modulus, max_k)


def primitive_element(ctx: FieldCtx) -> int:
    """Encoding of the smallest generator of the multiplicative group."""
    return ctx.alpha


def solve_epsilon(ctx: FieldCtx) -> int:
    """Smaller-encoded root of X^2 + 1 (exists for every k)."""
    return ctx.special_constants().epsilon


def solve_theta(ctx: FieldCtx) -> Optional[int]:
    """Smallest-encoded root of X^3 - X - 1, or None when k % 3 != 0.

    Roots of X^3 - X - 1 have multiplicative order 13, so candidates are
    scanned inside the order-13 subgroup instead of the whole field.
    """
    if ctx.k % 3 != 0:
        return None
    step = (ctx.order - 1) // 13
    roots = []
    for j in range(1, 13):
        c = ctx.alpha_pow(step * j)
        if ctx.sub(ctx.sub(ctx.pow(c, 3), c), 1) == 0:
            roots.append(c)
    if len(roots) != 3:
        raise ValueError("internal error: X^3 - X - 1 must have 3 roots here")
    return min(roots)


def parse_element(ctx: FieldCtx, text: str) -> int:
    """Parse an element: decimal encoding, or comma-separated trit list, low
    trit first."""
    text = text.strip()
    if "," in text:
        try:
            return ctx.encode(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"malformed element {text!r}: GF(3^{ctx.m}) takes at most "
                             f"{ctx.m} trits, each 0, 1 or 2") from None
    try:
        enc = int(text)
    except ValueError:
        raise ValueError(f"malformed element {text!r}") from None
    if not 0 <= enc < ctx.order:
        raise ValueError(f"element encoding {enc} out of range 0..{ctx.order - 1}")
    return enc
