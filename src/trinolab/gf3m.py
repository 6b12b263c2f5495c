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
Building a field imports no numpy and runs up to k = 10.

The field is GF(3)[x]/(f) for the monic irreducible modulus f of degree
2k.  f is a polyring.Poly over GF(3), the private ctx _GF3, so this module
does no GF(3)[x] arithmetic of its own: Rabin's irreducibility test
(gf3_is_irreducible) reads x^(3^i) mod f off polyring's Frobenius chain and
takes polyring's gcds, and the context reduces the powers x^i mod f its
tables start from with polyring's division.  default_modulus(2k) searches
for the lexicographically smallest f.

A field checks k against max_k, picks or checks the modulus (one Rabin test
per modulus) and finds the smallest primitive element alpha.  Only the
direct route's numpy pass over the whole field, FieldCtx.power_sum_images
(run by check-trinomial and conjlab.sweep), also reads exp and log tables
of alpha, 8 bytes per element, and its first call fills them.  The fill
takes the products alpha^h x^j (j < m, h = 2^i < n), bitsliced as a pair of
bitmasks of the trits equal to 1 and to 2, as the GF(3)-linear maps of
multiplication by alpha^h, and numpy doubles bitsliced columns of alpha^i:
columns h..2h-1 are columns 0..h-1 times alpha^h, read from lookup tables
of that map.

Each table is one int32 numpy array, so fields whose multiplicative group
has order 2^31 or more get no tables, and neither do fields whose tables
would exceed TABLE_BYTES_CEILING (2 GiB).  ctx_create refuses such a field
before any work, and the fill checks the same bound again before it
allocates.  Elements are plain ints throughout: the ctx methods take and
return encodings, and power_sum_images evaluates a sparse polynomial at
every nonzero element with numpy over the tables.  Its additions use the one
fact the tables need about encodings: adding 1 changes only the constant
trit, so 1 + alpha^d is the encoding of alpha^d with that trit stepped, and
a + b = a (1 + b/a).  It does them on one period of the index only (q + 1
points for the trinomial families, which have the shape x^r h(x^(q-1))) and
reaches every other element by one product with a power of alpha, that is
one gather from _exp.  numpy is imported only there and in the fill, and
both work in blocks of _BLOCK_LEN indices, so they hold no array of size n
beyond the tables (power_sum_images also holds two arrays over one period,
of length n only when the exponent gaps have no common factor with n).
"""

import itertools
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Optional

from .polyring import Poly, _frobenius_chain, poly_gcd

DEFAULT_MAX_K = 6
# indices per block of the numpy passes over the field (the table fill and
# power_sum_images).  Measured on a 2-vCPU Xeon (medians at k = 6 and 7):
# 2^13 to 2^15 take the same time within noise, 2^12 takes 10-20% longer
# and 2^10 1.5-2 times as long (per-block overhead), and 2^16 and up slow
# the fill again.  The block buffers take about 35 bytes per index in the
# fill and 40 in the direct route (conjlab._routes marking the images of
# power_sum_images; tracemalloc at k = 5), 0.3 MB at 2^13, below the L2
# cache.
_BLOCK_LEN = 2 ** 13
# ceiling on the table bytes, 8n for n = 3^m - 1 (see FieldCtx), checked by
# ctx_create before any work and by the table fill before it allocates:
# k = 8 (about 0.34 GB) passes, k = 9 (about 3.1 GB) is refused
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
    the gcds are polyring's.
    """
    f = Poly(_GF3, f)
    d = f.degree
    if d < 1:
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
# bitsliced trit vectors: an element is the pair (ones, twos) of bitmasks of
# its trits equal to 1 and to 2, bit i for trit i

def _bits(enc: int) -> tuple:
    """Bitsliced form of an encoding."""
    ones = twos = 0
    bit = 1
    while enc:
        enc, t = divmod(enc, 3)
        if t == 1:
            ones |= bit
        elif t == 2:
            twos |= bit
        bit <<= 1
    return ones, twos


def _half_tables(rows: list) -> tuple:
    """Lookup tables of a GF(3)-linear map on the trits of one half.

    rows[b] is the bitsliced image of the b-th trit's unit vector.  Entry
    ones_mask | twos_mask << len(rows) of the returned (ones, twos) uint16
    arrays is the image of the vector with trit 1 at the bits of ones_mask
    and trit 2 (= -1) at those of twos_mask; entries where the two masks
    overlap are never read.
    """
    import numpy as np
    width = len(rows)
    t1 = np.zeros(1 << 2 * width, dtype=np.uint16)
    t2 = np.zeros(1 << 2 * width, dtype=np.uint16)
    size = 1
    for r1, r2 in rows + [(r2, r1) for r1, r2 in rows]:
        a1, a2 = t1[:size], t2[:size]
        u = (a1 | r2) ^ (a2 | r1)  # tritwise sum, bitsliced
        t1[size:2 * size] = (a2 | r2) ^ u
        t2[size:2 * size] = (a1 | r1) ^ u
        size *= 2
    return t1, t2


# ---------------------------------------------------------------------------
# the field context: trits packed as base-256 digits of one Python int

# bytes.translate tables on base-256 digits: the digit mod 3, and that
# residue as the ASCII character int(., 3) reads
_MOD3 = bytes(v % 3 for v in range(256))
_TRIT_CHARS = bytes(ord("0") + v % 3 for v in range(256))
# largest k a FieldCtx builds.  The set-up of its scalar ops holds about
# 6 * 3^k Python ints: 0.03-0.06 s and 39 MB of peak RSS for a whole factors run at
# k = 10 on a 2-vCPU Xeon, and each k above triples it
_TABLE_FREE_MAX_K = 10


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


def _table_size(m: int) -> int:
    """n = 3^m - 1, once the int32 exp and log tables of GF(3^m) are known
    to fit: n below 2^31 and their 8n bytes within TABLE_BYTES_CEILING."""
    n = 3 ** m - 1
    if n >= 2 ** 31:
        raise ValueError(f"field order 3^{m} too large: its log tables are int32, "
                         f"so 3^(2k) - 1 must stay below 2^31")
    # int32 exp (n) and log (n + 1) tables; the fill keeps its work columns
    # inside log
    if 8 * n > TABLE_BYTES_CEILING:
        raise ValueError(f"field order 3^{m} too large: its tables would take "
                         f"about {8 * n / 2 ** 30:.1f} GiB, above the "
                         f"{TABLE_BYTES_CEILING // 2 ** 30} GiB ceiling")
    return n


class FieldCtx:
    """GF(3^2k) arithmetic: the one implementation of the scalar ops, of
    every helper derived from them, and of the direct route's pass over the
    field (see the module docstring).

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
    e single cubes.  a^(-1) = a^q N(a)^(q-2), where the norm N(a) = a^(q+1)
    lies in GF(q).

    k must lie in 1..max_k and 1.._TABLE_FREE_MAX_K, checked before any
    work; a given modulus must have trits in 0..2, be monic of degree m and
    pass one Rabin test, and None picks default_modulus(m).  Then it finds
    alpha, in about 1 ms.  The public attributes are k, m (= 2k), q (= 3^k),
    order (= 3^2k), modulus (monic GF(3) coefficient tuple, low degree
    first) and alpha (encoding of the smallest primitive element).

    The exp and log tables of alpha are two int32 numpy arrays that the
    first power_sum_images fills (_tables): _exp (alpha^i for i < n) and
    _log (the log of each encoding; _log[0] is an unused 0), 8n bytes in
    all, 4.3 MB at k = 6 and 0.34 GB at k = 8.  The fill holds nothing of
    size n beyond them.
    """

    _special: Optional[SpecialConstants] = None
    _exp = _log = None  # filled by _tables

    def __init__(self, k: int, modulus=None, max_k: int = DEFAULT_MAX_K):
        m = _degree(k, max_k)
        if k > _TABLE_FREE_MAX_K:
            raise ValueError(f"field order 3^{m} too large: the table-free set-up grows "
                             f"as 3^k and stops at k = {_TABLE_FREE_MAX_K}")
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
        # by the first frobenius and conjugate_q calls (the table fill needs
        # neither)
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
        return self.mul(conj, self.pow(self.mul(conj, a), self.q - 2))

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

    # -- the exp and log tables ---------------------------------------------

    def _tables(self) -> tuple:
        """(exp, log), filled by the first call from bitsliced uint16 columns
        (ones, twos) of alpha^i, every pass in blocks of _BLOCK_LEN indices.

        The bound on their size is checked first, before numpy is imported
        or anything is allocated.  The columns live in log (n + 1 int32
        entries hold 2n uint16), which is free until the scatter, so the
        fill holds no array of size n besides the tables.  Doubling: columns
        h..2h-1 are columns 0..h-1 times alpha^h, read for each half of the
        trits from a _half_tables lookup of that map.  Every column is then
        encoded into exp before log is reset to -1 and scattered, i to
        log[e] for e = alpha^i, i < n.  A last pass checks that the scatter
        left no -1 past log[0], that is, that those n encodings are the n
        nonzero ones and alpha is primitive.
        """
        if self._exp is not None:
            return self._exp, self._log
        m, k = self.m, self.k
        n = _table_size(m)
        import numpy as np
        exp = np.empty(n, dtype=np.int32)
        log_arr = np.empty(n + 1, dtype=np.int32)
        # uint16 holds the m trits: TABLE_BYTES_CEILING stops at m = 16
        ones, twos = log_arr[:n].view(np.uint16).reshape(2, n)
        ones[0], twos[0] = 1, 0
        mask = (1 << k) - 1  # the low half: trits 0..k-1
        a = self.alpha  # alpha^h
        h = 1
        while h < n:
            rows = [_bits(self.mul(a, 3 ** j)) for j in range(m)]  # alpha^h x^j
            low, high = _half_tables(rows[:k]), _half_tables(rows[k:])
            width = min(h, n - h)  # columns h..h+width-1 come from 0..width-1
            for s in range(0, width, _BLOCK_LEN):
                e = min(s + _BLOCK_LEN, width)
                o, t = ones[s:e], twos[s:e]
                i_low = (o & mask | (t & mask) << k).astype(np.intp)
                i_high = (o >> k | (t >> k) << k).astype(np.intp)
                a1, a2 = low[0].take(i_low), low[1].take(i_low)
                b1, b2 = high[0].take(i_high), high[1].take(i_high)
                u = (a1 | b2) ^ (a2 | b1)  # tritwise sum, bitsliced
                np.bitwise_xor(a2 | b2, u, out=ones[h + s:h + e])
                np.bitwise_xor(a1 | b1, u, out=twos[h + s:h + e])
            a = self.mul(a, a)
            h *= 2
        # enc[mask] = encoding of the vector with trit 1 at the bits of mask
        enc = np.zeros(1 << m, dtype=np.int32)
        for j in range(m):
            np.add(enc[:1 << j], 3 ** j, out=enc[1 << j:2 << j])
        for s in range(0, n, _BLOCK_LEN):
            e = min(s + _BLOCK_LEN, n)
            block = exp[s:e]
            np.take(enc, twos[s:e], out=block)
            block *= 2
            block += enc.take(ones[s:e])
        log_arr.fill(-1)
        for s in range(0, n, _BLOCK_LEN):
            e = min(s + _BLOCK_LEN, n)
            log_arr[exp[s:e]] = np.arange(s, e, dtype=np.int32)
        log_arr[0] = 0
        if log_arr.min() < 0:
            raise ValueError("exp table is not a permutation; element not primitive")
        self._exp, self._log = exp, log_arr
        return exp, log_arr

    # -- vector evaluation -------------------------------------------------

    def power_sum_images(self, terms) -> Iterator:
        """Images of f = sum(c * x^e for c, e in terms) at x = alpha^i, i < n,
        yielded as int32 arrays over consecutive blocks of i.

        Coefficients c are nonzero encodings and exponents e >= 0; at x != 0
        only e mod n matters.  Let r be the smallest e mod n, d_j = (e_j mod
        n) - r for each term, g = gcd(n, d_1, d_2, ...) and P = n / g, so
        that f(x) = x^r H(x) with H = sum c_j x^(d_j).  H(alpha^i) depends
        only on i mod P: g divides every d_j, so P d_j is a multiple of n
        and alpha^((i + P) d_j) = alpha^(i d_j) alpha^(P d_j) = alpha^(i d_j),
        as alpha^n = 1.  Writing i = a P + j with j < P,

            f(alpha^i) = alpha^(r P a) * f(alpha^j),

        so the images on the coset a are those of the first period times
        alpha^(r P a).  For the trinomial families every d_j is a multiple
        of q - 1, so P divides q + 1 (730 points at k = 6, against n =
        531,440); when the gaps have no common factor with n, P = n.

        The first period is evaluated in the log domain: c x^d has log
        (j d + log c) mod n, and each term joins the partial sum of H as
        acc * (1 + c x^d / acc), with 1 + c x^d / acc read off _exp and
        stepped in its constant trit as in add; a mask marks the j where
        the partial sum is 0, and f(alpha^i) = 0 exactly where H(alpha^j)
        = 0.  Residues and trits come by floor division, which numpy runs
        several times faster than its remainder when the divisor is a
        scalar.  The pass over i is then one addition of log alpha^(r P a)
        to the period's logs, one _exp gather and the mask, a block of
        whole periods at a time (or a block of one period when P exceeds
        _BLOCK_LEN).  Beyond the tables it holds the period's logs and mask
        (9P bytes) and the vectors of one block.
        """
        exp, log_arr = self._tables()  # checks the bound before numpy is imported
        import numpy as np
        n = self.order - 1
        terms = [(e % n, int(log_arr[c])) for c, e in terms]
        r = min(e for e, _ in terms)
        terms = [(e - r, log_c) for e, log_c in terms]
        period = n // gcd(n, *(d for d, _ in terms))
        log_f = np.empty(period, dtype=np.int64)
        h_zero = np.empty(period, dtype=bool)
        for start in range(0, period, _BLOCK_LEN):
            j = np.arange(start, min(start + _BLOCK_LEN, period), dtype=np.int64)
            acc = None  # log of the partial sum, valid where it is nonzero
            zero = np.zeros(len(j), dtype=bool)
            for d, log_c in terms:
                term = j * d  # j * d needs 64 bits
                term += log_c
                term -= term // n * n
                if acc is None:
                    acc = term
                    continue
                # c x^d / acc = alpha^(term - acc); a difference in (-n, 0)
                # indexes exp from its end, at term - acc + n
                s = exp[term - acc]
                carry = s // 3
                s += 1
                carry -= s // 3  # -1 where the constant trit was 2
                carry *= 3
                s += carry  # that trit steps to 0, not 3
                acc += log_arr.take(s)
                acc -= acc // n * n
                np.copyto(acc, term, where=zero)
                zero = ~zero & (s == 0)
            acc += j * r  # log f(alpha^j) = r j + log H(alpha^j)
            acc -= acc // n * n + n  # shifted into [-n, 0)
            log_f[start:start + len(j)] = acc
            h_zero[start:start + len(j)] = zero
        cosets = n // period
        rows = max(1, _BLOCK_LEN // period)  # whole periods per block
        for a in range(0, cosets, rows):
            # log alpha^(r P a) for the cosets a .. a + rows - 1, in [0, n)
            shift = np.arange(a, min(a + rows, cosets), dtype=np.int64)
            shift *= r * period % n
            shift -= shift // n * n
            for start in range(0, period, _BLOCK_LEN):
                end = min(start + _BLOCK_LEN, period)
                # a sum in [-n, 0) indexes exp from its end
                images = exp.take(shift[:, None] + log_f[start:end])
                images[:, h_zero[start:end]] = 0
                yield images.ravel()


def ctx_create(k: int, modulus=None, max_k: int = DEFAULT_MAX_K) -> FieldCtx:
    """Build a GF(3^2k) context whose exp and log tables would fit, checked
    before any work (the tables themselves are filled by the first
    power_sum_images); modulus defaults to the lex-smallest irreducible."""
    _table_size(_degree(k, max_k))
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
    """Parse an element: decimal encoding, or comma-separated trit list."""
    text = text.strip()
    if "," in text:
        return ctx.encode(parse_modulus(text))
    try:
        enc = int(text)
    except ValueError:
        raise ValueError(f"malformed element {text!r}") from None
    if not 0 <= enc < ctx.order:
        raise ValueError(f"element encoding {enc} out of range 0..{ctx.order - 1}")
    return enc
