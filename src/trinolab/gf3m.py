"""Exact arithmetic in GF(3^2k), the quadratic extension tower over GF(3).

Elements are stored as base-3 integer encodings of their coefficient vectors
in the polynomial basis: trits (c0, c1, ..., c_{2k-1}) with c0 least
significant, so encoding = sum(c_i * 3^i).  The encoding order doubles as the
canonical tie-breaking order everywhere in this package.

A FieldCtx precomputes exp and log tables for a primitive element, so
multiplication of nonzero elements is a single lookup.  Addition uses the
one fact the tables need about encodings: adding 1 changes only the constant
trit, so 1 + alpha^d is the encoding of alpha^d with that trit stepped, and
a + b = a (1 + b/a) takes two lookups more than a product.  Before the tables exist,
elements are bitsliced: a pair of bitmasks of the trits equal to 1 and to 2,
added tritwise by a few bit operations and multiplied by shift-and-add.  On
that form a square-and-multiply search finds the smallest primitive element
alpha, and the products alpha x^j (j < m) give the GF(3)-linear map of
multiplication by alpha, from which the tables are filled in one of two ways:

- k <= 5 (3^10 - 1 nonzero elements): a pure Python loop steps alpha^i
  through two 2^m-entry lookup tables of that map.  It takes longer per
  element than numpy but less in all than importing numpy, so commands on
  these fields never import it.
- k >= 6: numpy doubles bitsliced columns of alpha^i (columns h..2h-1 are
  columns 0..h-1 times alpha^h, read from lookup tables of that map),
  where the pure loop would take over ten times as long.

Each table is one int32 buffer (array('i')), so fields whose multiplicative
group has order 2^31 or more are refused, and so are fields whose tables
would exceed TABLE_BYTES_CEILING (2 GiB).  Elements are plain ints
throughout: the ctx methods take and return encodings, and
FieldCtx.power_sum_images evaluates a sparse polynomial at every nonzero
element with numpy over the same tables.  numpy is imported only there and
in the k >= 6 fill, and both work in blocks of _BLOCK_LEN indices, so they
hold no array of size n beyond the tables.
"""

import itertools
from array import array
from typing import Iterable, Iterator, NamedTuple, Optional

DEFAULT_MAX_K = 6
# largest multiplicative group order n = 3^2k - 1 whose tables are filled in
# pure Python, i.e. k <= 5.  Measured on a 2-vCPU Xeon (best of five, two
# processes): at k = 5 the pure fill takes 28-37 ms against 7 ms for the
# numpy fill plus 0.16 s to import numpy; at k = 6 it takes 0.38-0.40 s
# against 0.03 s.
_PURE_FILL_MAX_N = 3 ** 10 - 1
# indices per block of the numpy passes over the field (the k >= 6 fill and
# power_sum_images).  Measured on a 2-vCPU Xeon (medians at k = 6 and 7):
# 2^13 to 2^15 take the same time within noise, 2^12 takes 10-20% longer
# and 2^10 1.5-2 times as long (per-block overhead), and 2^16 and up slow
# the fill again.  The block buffers take about 40 bytes per index, 0.3 MB
# at 2^13, below the L2 cache.
_BLOCK_LEN = 2 ** 13
# ceiling on the estimated table bytes, 8n for n = 3^m - 1 (see FieldCtx):
# k = 8 (about 0.34 GB) passes, k = 9 (about 3.1 GB) is refused
TABLE_BYTES_CEILING = 2 * 2 ** 30


# ---------------------------------------------------------------------------
# GF(3)[x] helpers for modulus handling (coefficient tuples, low degree first)

def _gf3_trim(p) -> tuple:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _gf3_divmod(a, b):
    a = list(a)
    b = _gf3_trim(b)
    if not b:
        raise ZeroDivisionError("division by zero")
    inv_lead = b[-1]  # over GF(3): 1->1, 2->2
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % 3
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % 3
    return _gf3_trim(q), _gf3_trim(a)


def _gf3_gcd(a, b) -> tuple:
    a, b = _gf3_trim(a), _gf3_trim(b)
    while b:
        a, b = b, _gf3_divmod(a, b)[1]
    return a


def gf3_is_irreducible(f) -> bool:
    """Rabin's test for a GF(3) polynomial f of degree d >= 1: f is
    irreducible iff x^(3^d) = x mod f and gcd(x^(3^(d/p)) - x, f) = 1 for
    every prime p dividing d.

    Residues mod f are length-d coefficient lists.  In characteristic 3 the
    cube of sum c_j x^j is sum c_j x^(3j), so each cube is a GF(3)
    combination of the rows x^(3j) mod f.
    """
    f = _gf3_trim(f)
    d = len(f) - 1
    if d < 1:
        return False

    def residue(p) -> list:
        r = _gf3_divmod(p, f)[1]
        return list(r) + [0] * (d - len(r))

    rows = [residue((1,))]  # x^(3j) mod f for j < d
    while len(rows) < d:
        rows.append(residue([0, 0, 0] + rows[-1]))
    x = residue((0, 1))
    frobenius = [x]  # x^(3^i) mod f for i <= d
    for _ in range(d):
        acc = [0] * d
        for c, row in zip(frobenius[-1], rows):
            if c == 1:
                acc = [u + v for u, v in zip(acc, row)]
            elif c == 2:
                acc = [u - v for u, v in zip(acc, row)]
        frobenius.append([u % 3 for u in acc])
    if frobenius[d] != x:
        return False
    for p in _factorize(d):
        diff = [(u - v) % 3 for u, v in zip(frobenius[d // p], x)]
        if len(_gf3_gcd(f, diff)) != 1:  # a factor of degree dividing d/p
            return False
    return True


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


def _bits_add(a1: int, a2: int, b1: int, b2: int) -> tuple:
    """Tritwise sum mod 3 of (a1, a2) and (b1, b2), both bitsliced."""
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


class _BitsField:
    """Multiplication mod a monic GF(3) modulus on bitsliced vectors."""

    def __init__(self, modulus):
        self.m = m = len(modulus) - 1
        self.top = 1 << m
        # x^m = -(f_0 + ... + f_{m-1} x^(m-1)): its ones are the f_i = 2
        self.x_m = tuple(sum(1 << i for i, f in enumerate(modulus[:m]) if f == t)
                         for t in (2, 1))

    def times_x(self, a1: int, a2: int) -> tuple:
        """x a, reduced by x^m."""
        a1 <<= 1
        a2 <<= 1
        top = self.top
        if a1 & top:
            return _bits_add(a1 ^ top, a2, *self.x_m)
        if a2 & top:
            r1, r2 = self.x_m
            return _bits_add(a1, a2 ^ top, r2, r1)
        return a1, a2

    def rows(self, a: tuple) -> list:
        """a x^j for j < m: the images of the basis under multiplication by a."""
        rows = [a]
        while len(rows) < self.m:
            rows.append(self.times_x(*rows[-1]))
        return rows

    def mul(self, a: tuple, b: tuple) -> tuple:
        """a * b by shift-and-add over the trits of a, high first."""
        a1, a2 = a
        b1, b2 = b
        c1 = c2 = 0
        times_x = self.times_x
        bit = self.top
        while bit > 1:
            bit >>= 1
            c1, c2 = times_x(c1, c2)
            if a1 & bit:
                c1, c2 = _bits_add(c1, c2, b1, b2)
            elif a2 & bit:
                c1, c2 = _bits_add(c1, c2, b2, b1)
        return c1, c2

    def pow(self, a: tuple, e: int) -> tuple:
        """a^e for e >= 1 by square-and-multiply."""
        r = a
        for digit in bin(e)[3:]:
            r = self.mul(r, r)
            if digit == "1":
                r = self.mul(r, a)
        return r


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
        u = (a1 | r2) ^ (a2 | r1)  # _bits_add
        t1[size:2 * size] = (a2 | r2) ^ u
        t2[size:2 * size] = (a1 | r1) ^ u
        size *= 2
    return t1, t2


class SpecialConstants(NamedTuple):
    """Distinguished constants of a ctx, all as integer encodings.

    epsilon: the smaller-encoded root of X^2 + 1 (always present; 4 | 3^2k - 1).
    theta: the smallest-encoded root of X^3 - X - 1, present iff k % 3 == 0.
    sqrt_eps_minus_1: the canonical square root of eps - 1 when it exists.
    """
    epsilon: int
    theta: Optional[int]
    sqrt_eps_minus_1: Optional[int]


class FieldCtx:
    """Arithmetic context for GF(3^2k) with exp and log tables.

    The tables are filled by stepping alpha^i in pure Python up to k = 5 and
    by blocked numpy doubling above (see the module docstring), and square
    roots are read off the log table.  The tables are two int32 array('i')
    buffers: _exp (alpha^i for i < n) and _log (the log of each encoding;
    _log[0] is an unused 0, so every op branches on 0 first), 8n bytes in
    all: 4.3 MB at k = 6, 0.34 GB at k = 8.  The build holds nothing of size
    n beyond them.  Scalar ops index them and get Python ints.  A log sum or
    difference shifted into (-n, 0) indexes _exp from its end, where Python
    wraps it to the same power of alpha, so add, sub, neg, mul and inv
    reduce nothing mod n.
    power_sum_images reads the tables as numpy views.

    Public attributes: k, m (= 2k), q (= 3^k), order (= 3^2k), modulus
    (monic GF(3) coefficient tuple, low degree first) and alpha (encoding of
    the smallest primitive element).
    """

    def __init__(self, k: int, modulus=None, max_k: int = DEFAULT_MAX_K):
        if not isinstance(k, int) or not 1 <= k <= max_k:
            raise ValueError(f"unsupported degree: k={k} outside 1..{max_k}")
        self.k = k
        self.m = 2 * k
        self.q = 3 ** k
        self.order = 3 ** self.m
        self._n = self.order - 1
        if self._n >= 2 ** 31:
            raise ValueError(f"field order 3^{self.m} too large: its log tables "
                             f"are int32, so 3^(2k) - 1 must stay below 2^31")
        # int32 exp (n) and log (n + 1) tables; the numpy fill keeps its work
        # columns inside log
        table_bytes = 8 * self._n
        if table_bytes > TABLE_BYTES_CEILING:
            raise ValueError(f"field order 3^{self.m} too large: its tables would "
                             f"take about {table_bytes / 2 ** 30:.1f} GiB, above "
                             f"the {TABLE_BYTES_CEILING // 2 ** 30} GiB ceiling")
        if modulus is None:
            modulus = default_modulus(self.m)
        else:
            modulus = _gf3_trim(modulus)
            if len(modulus) != self.m + 1 or modulus[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {self.m}, got {format_modulus(modulus)}")
            if not gf3_is_irreducible(modulus):
                raise ValueError(f"reducible modulus: {format_modulus(modulus)}")
        self.modulus = modulus
        self._n_primes = _factorize(self._n)
        self.alpha = self._find_primitive()
        self._build_tables()
        self._special: Optional[SpecialConstants] = None

    # -- construction ------------------------------------------------------

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

    def _find_primitive(self) -> int:
        field = _BitsField(self.modulus)
        for cand in range(2, self.order):
            c = _bits(cand)
            if all(field.pow(c, self._n // p) != (1, 0) for p in self._n_primes):
                return cand
        raise ValueError("no primitive element found")  # unreachable

    def _build_tables(self):
        n = self._n
        rows = _BitsField(self.modulus).rows(_bits(self.alpha))
        self._exp = array("i", [0]) * n
        # -1 marks a log not yet written: a fill scatters i to _log[e] for
        # e = alpha^i, i < n, so no -1 is left past _log[0] iff those n
        # encodings are the n nonzero ones, i.e. alpha is primitive
        self._log = array("i", [-1]) * self.order
        if n <= _PURE_FILL_MAX_N:
            self._fill_pure(rows)
        else:
            self._fill_numpy(rows)

    def _fill_pure(self, rows: list):
        """Fill the tables by stepping alpha^i, one Python loop of n / 2 steps.

        plus[mask] holds alpha v and the encodings of v and -v, for v the
        vector with trit 1 at the set bits of mask; minus[mask] the same for
        trit 2.  So the state (ones, twos) = alpha^i gives its encoding, that
        of -alpha^i = alpha^(i + n/2), and alpha^(i+1) from plus[ones],
        minus[twos] and one tritwise add.

        The closing check, that no -1 is left in _log, rejects a
        non-primitive alpha: if the first half alpha^i, i < n/2, has no
        repeat, alpha has order n or n/2, and in the second case the first
        half is the subgroup of squares, which holds -1 (4 divides n) and so
        the negatives that fill the second half.
        """
        n = self._n
        half = n // 2
        plus = [(0, 0, 0, 0)]
        minus = [(0, 0, 0, 0)]
        for j, (r1, r2) in enumerate(rows):
            w = 3 ** j
            plus += [(*_bits_add(a1, a2, r1, r2), e + w, f + 2 * w)
                     for a1, a2, e, f in plus]
            minus += [(*_bits_add(a1, a2, r2, r1), e + 2 * w, f + w)
                      for a1, a2, e, f in minus]
        exp, log = self._exp, self._log
        ones, twos = 1, 0
        for i in range(half):
            a1, a2, e1, f1 = plus[ones]
            b1, b2, e2, f2 = minus[twos]
            enc = e1 + e2
            neg = f1 + f2
            exp[i] = enc
            exp[i + half] = neg
            log[enc] = i
            log[neg] = i + half
            t = (a1 | b2) ^ (a2 | b1)  # _bits_add, inlined
            ones = (a2 | b2) ^ t
            twos = (a1 | b1) ^ t
        log[0] = 0
        if -1 in log:
            raise ValueError("exp table is not a permutation; element not primitive")

    def _fill_numpy(self, rows: list):
        """Fill the tables from bitsliced uint16 columns (ones, twos) of
        alpha^i, every pass in blocks of _BLOCK_LEN indices.

        The columns live in _log (n + 1 int32 entries hold 2n uint16), which
        is free until the scatter, so the build holds no array of size n
        besides the tables.  Doubling: columns h..2h-1 are columns 0..h-1
        times alpha^h, read for each half of the trits from a _half_tables
        lookup of that map.  Every column is then encoded into _exp before
        _log is reset to -1 and scattered, and a last pass checks that the
        scatter left no -1 (alpha primitive).
        """
        import numpy as np
        n, m, k = self._n, self.m, self.k
        exp, log_arr = self._tables()
        # uint16 holds the m trits: TABLE_BYTES_CEILING stops at m = 16
        ones, twos = log_arr[:n].view(np.uint16).reshape(2, n)
        ones[0], twos[0] = 1, 0
        field = _BitsField(self.modulus)
        mask = (1 << k) - 1  # the low half: trits 0..k-1
        h = 1
        while h < n:  # rows = alpha^h x^j for j < m
            low, high = _half_tables(rows[:k]), _half_tables(rows[k:])
            width = min(h, n - h)  # columns h..h+width-1 come from 0..width-1
            for s in range(0, width, _BLOCK_LEN):
                e = min(s + _BLOCK_LEN, width)
                o, t = ones[s:e], twos[s:e]
                i_low = (o & mask | (t & mask) << k).astype(np.intp)
                i_high = (o >> k | (t >> k) << k).astype(np.intp)
                a1, a2 = low[0].take(i_low), low[1].take(i_low)
                b1, b2 = high[0].take(i_high), high[1].take(i_high)
                u = (a1 | b2) ^ (a2 | b1)  # _bits_add
                np.bitwise_xor(a2 | b2, u, out=ones[h + s:h + e])
                np.bitwise_xor(a1 | b1, u, out=twos[h + s:h + e])
            rows = field.rows(field.mul(rows[0], rows[0]))
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

    def _tables(self) -> tuple:
        """(exp, log) as int32 numpy views of the table buffers."""
        import numpy as np
        return tuple(np.frombuffer(t, dtype=np.int32) for t in (self._exp, self._log))

    # -- element arithmetic on encodings -----------------------------------

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        la = self._log[a]
        s = self._exp[self._log[b] - la]  # b / a
        s += (1, 1, -2)[s % 3]  # 1 + b / a: the constant trit steps by one
        if s == 0:
            return 0
        return self._exp[la + self._log[s] - self._n]

    def neg(self, a: int) -> int:
        if a == 0:
            return 0
        return self._exp[self._log[a] - self._n // 2]

    def sub(self, a: int, b: int) -> int:
        if b == 0:
            return a
        if a == 0:
            return self.neg(b)
        la = self._log[a]
        d = self._log[b] - la
        half = self._n // 2  # -b / a = alpha^(d +- n/2), kept inside (-n, n)
        s = self._exp[d - half if d >= 0 else d + half]
        s += (1, 1, -2)[s % 3]
        if s == 0:
            return 0
        return self._exp[la + self._log[s] - self._n]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b] - self._n]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero")
        return self._exp[-self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("division by zero")
            return 0 if e else 1
        return self._exp[self._log[a] * e % self._n]

    def frobenius(self, a: int, e: int = 1) -> int:
        """x -> x^(3^e), the e-fold characteristic-3 Frobenius."""
        if a == 0:
            return 0
        return self._exp[self._log[a] * pow(3, e, self._n) % self._n]

    def conjugate_q(self, a: int) -> int:
        """x -> x^q; on the norm-1 subgroup mu_{q+1} this is inversion."""
        return self.frobenius(a, self.k)

    def alpha_pow(self, i: int) -> int:
        """Encoding of alpha^i for any integer i."""
        return self._exp[i % self._n]

    def is_square(self, a: int) -> bool:
        """a is a square iff it is 0 or an even power of alpha."""
        return a == 0 or self._log[a] % 2 == 0

    def sqrt(self, a: int) -> Optional[int]:
        """Square root read off the log table; returns the smaller-encoded root.

        The two roots of alpha^L (L even) are +-alpha^(L/2).  Returns None when
        a is not a square.
        """
        if a == 0:
            return 0
        if not self.is_square(a):
            return None
        r = self._exp[self._log[a] // 2]
        return min(r, self.neg(r))

    # -- vector evaluation -------------------------------------------------

    def power_sum_images(self, terms) -> Iterator:
        """Images of sum(c * x^e for c, e in terms) at x = alpha^i, i < n,
        yielded as int32 arrays over consecutive blocks of i.

        Coefficients c are nonzero encodings and exponents e >= 0.  Works in
        the log domain: c * x^e has log (i * e + log c) mod n, and each term
        joins the partial sum as acc * (1 + c x^e / acc), with 1 + c x^e / acc
        read off _exp and stepped in its constant trit as in add; a mask
        marks the x where the partial sum is 0.  Residues and trits come by
        floor division, which numpy runs several times faster than its
        remainder when the divisor is a scalar.
        """
        import numpy as np
        n = self._n
        exp, log_arr = self._tables()
        terms = [(e % n, int(log_arr[c])) for c, e in terms]
        for start in range(0, n, _BLOCK_LEN):
            i = np.arange(start, min(start + _BLOCK_LEN, n), dtype=np.int64)
            acc = None  # log of the partial sum, valid where it is nonzero
            zero = np.zeros(len(i), dtype=bool)
            for e, log_c in terms:
                term = i * e  # i * e needs 64 bits
                term += log_c
                term -= term // n * n
                if acc is None:
                    acc = term
                    continue
                # c x^e / acc = alpha^(term - acc); a difference in (-n, 0)
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
            images = exp.take(acc)
            images[zero] = 0
            yield images

    # -- distinguished constants -------------------------------------------

    def special_constants(self) -> SpecialConstants:
        if self._special is None:
            eps = self.alpha_pow(self._n // 4)
            eps = min(eps, self.neg(eps))
            if self.add(self.mul(eps, eps), 1) != 0:
                raise ValueError("internal error: epsilon^2 + 1 != 0")
            theta = solve_theta(self)
            self._special = SpecialConstants(
                epsilon=eps,
                theta=theta,
                sqrt_eps_minus_1=self.sqrt(self.sub(eps, 1)),
            )
        return self._special

    def theta_roots(self) -> tuple:
        """All roots of X^3 - X - 1 in this field (empty unless k % 3 == 0)."""
        theta = self.special_constants().theta
        if theta is None:
            return ()
        return (theta, self.frobenius(theta, 1), self.frobenius(theta, 2))

    def __repr__(self):
        return f"FieldCtx(k={self.k}, modulus={format_modulus(self.modulus)})"


def ctx_create(k: int, modulus=None, max_k: int = DEFAULT_MAX_K) -> FieldCtx:
    """Build a GF(3^2k) context; modulus defaults to the lex-smallest irreducible."""
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
    step = ctx._n // 13
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
