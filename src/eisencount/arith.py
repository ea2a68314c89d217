"""Sieve-backed multiplicative arithmetic functions.

:class:`ArithSieve` covers the integers 2..limit.  Its root primes, every
prime up to isqrt(2 * limit + 1), are its one prime source; the rest is
built from them on first read, so a caller pays only for what it reads.
The scalar Moebius function, Euler totient, distinct prime count and
divisor count and :func:`phi_bounded` (the exact count of integers in a
symmetric interval coprime to a modulus, the building block of the
polynomial counting formulas) factor their argument by trial division.

Everything else is sieved at odd n only, by one kernel: :func:`_mark`
has each odd root prime p write itself at stride 2p, largest first, so
an entry ends as spf(n).  It flags the prime list, which the Euler
product reads (2, then the unflagged odd n, one byte each per piece),
and marks the odd half of the spf table (its even entries are 2).  The
bulk mu and phi tables, which the Moebius series reads, hold f(2i + 1)
at entry i, for the odd n only, and read neither array: f(n) comes from
f(m), m = n / spf(n), with spf marked by :func:`_piece` a piece of odd
n in [lo, hi) at a time, in O(SEGMENT) memory beyond the result.  As
spf(n) >= 3, m <= n / 3, so hi <= 3 * lo reads only earlier pieces.
The tables are as narrow as their values: int8 for mu and int32 for phi
(phi(n) < n <= 2 * MAX_SIEVE_LIMIT + 1 < 2^31), so callers widen them
before they multiply.  :func:`odd_table_pieces` streams both at the odd
n up to three times a table's limit, phi only below a given cut, in
pieces of SERIES_PIECE = SEGMENT // 2 odd n.
The one exception is :func:`mobius_segment`: mu at every n of any range
[lo, hi), from the primes up to isqrt(hi - 1) alone, in memory that does
not depend on lo.  The counters read mu from it alone.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .results import DEFAULT_SIEVE_LIMIT, MAX_SIEVE_LIMIT, check_sieve_limit

# Odd n per piece that the tables and the prime list are marked in, and
# the most terms the product's power sums take at once.  Independent of
# the general count's segments, which grow with isqrt(H).
SEGMENT = 1 << 16

# Odd n per piece that odd_table_pieces streams to the series.  The series'
# stage sums hold d + k + 4 uint64 arrays over a piece's terms (remainders,
# limb, quotient, numerators and moduli) on top of _piece's int32
# temporaries, so half a SEGMENT lowers its peak beyond the tables from
# about 2.2 to 1.3 MB at rho_2, S = 2e6.  The tables, the prime list and
# the power sums keep SEGMENT: halving those too cost about 6% of a
# density run.
SERIES_PIECE = SEGMENT // 2


# eq=False: identity comparison and hashing; the arrays make field-wise
# equality both expensive and unhashable.
@dataclass(frozen=True, eq=False)
class ArithSieve:
    """The primes of 2..limit, from the root primes, built on first read.

    Attributes
    ----------
    limit : int
        Largest integer covered.
    root_primes : tuple of int
        Every prime up to isqrt(2 * limit + 1): enough to mark any piece
        that :func:`odd_table_pieces` reaches and factor any n <= limit.

    ``primes`` and ``spf`` are cached properties: each array is built the
    first time it is read and marked read-only, so no caller can alter a
    sieve that another caller holds.
    """

    limit: int
    root_primes: tuple[int, ...]

    @functools.cached_property
    def primes(self) -> np.ndarray:
        """All primes <= limit in ascending order, as int64.

        2, then the odd primes, SEGMENT odd n at a time: each piece holds
        a bool composite flag per odd n, set by :func:`_mark` at stride 2p
        from max(p * p, the first odd multiple of p) for each odd prime p
        up to the square root of the piece's end, and the n left unset
        are prime.  They go into one array sized by
        pi(x) < x / ln x * (1 + 1.2762 / ln x) for x > 1 (Dusart, 1998),
        so the build needs about one piece of flags and indices beyond
        its result.
        """
        log = math.log(self.limit)
        found = np.empty(int(self.limit / log * (1 + 1.2762 / log)) + 1,
                         dtype=np.int64)
        found[0] = 2
        count, flags = 1, np.empty(SEGMENT, dtype=bool)
        for lo in range(3, self.limit + 1, 2 * SEGMENT):
            piece = flags[:(self.limit - lo) // 2 + 1]
            piece.fill(False)
            last = lo + 2 * (piece.size - 1)
            _mark(piece, lo, self._odd_marking_primes(last))
            # In place: the flags now mark the primes.
            np.logical_not(piece, out=piece)
            new = np.flatnonzero(piece)
            out = found[count:count + new.size]
            np.multiply(new, 2, out=out)
            out += lo
            count += new.size
            del new  # so that no two pieces' indices are held at once
        primes = found[:count]
        primes.flags.writeable = False
        return primes

    @functools.cached_property
    def spf(self) -> np.ndarray:
        """``spf[n]``, the least prime dividing n, for 2 <= n <= limit.

        int32: 2 at even n, one :func:`_mark` pass at odd n; 0 at 0 and 1.
        No computation reads it; the tests compare it with a reference
        sieve, and the benchmark's trace counts its bytes.
        """
        spf = np.arange(self.limit + 1, dtype=np.int32)
        spf[2::2] = 2
        _mark(spf[1::2], 1, self._odd_marking_primes(self.limit))
        spf[:2] = 0
        spf.flags.writeable = False
        return spf

    def _odd_marking_primes(self, end: int) -> Sequence[int]:
        """The odd primes up to isqrt(end), which mark any odd n <= end."""
        return self.root_primes[1:bisect.bisect_right(self.root_primes,
                                                      math.isqrt(end))]

    def nth_prime(self, n: int) -> int:
        """The n-th prime (1-indexed), if covered by the sieve."""
        if not 1 <= n <= self.primes.size:
            raise ValueError(
                f"sieve holds {self.primes.size} primes, cannot serve prime #{n}"
            )
        return int(self.primes[n - 1])


def build_sieve(limit: int = DEFAULT_SIEVE_LIMIT, *,
                max_limit: int = MAX_SIEVE_LIMIT) -> ArithSieve:
    """A sieve covering 2..limit, holding only the primes to its square root.

    Parameters
    ----------
    limit : int
        Inclusive upper end of the sieve, at least 2.
    max_limit : int, optional
        Memory budget expressed as the largest acceptable ``limit``.  It
        can only lower the hard cap :data:`MAX_SIEVE_LIMIT`, never raise it.

    Returns
    -------
    ArithSieve
        Its prime list and spf table are built when first read.

    Raises
    ------
    ValueError
        If ``limit < 2``.
    BudgetExceededError
        If ``limit > min(max_limit, MAX_SIEVE_LIMIT)``, before allocating.
    """
    check_sieve_limit(limit, max_limit)
    root = math.isqrt(2 * limit + 1)
    small = np.arange(root + 1) >= 2
    for p in range(2, math.isqrt(root) + 1):
        small[p * p:: p] = False
    return ArithSieve(limit=limit,
                      root_primes=tuple(np.flatnonzero(small).tolist()))


def _mark(marks: np.ndarray, lo: int, primes: Sequence[int]) -> None:
    """Set marks[i] to p = spf(n), n = lo + 2i, for the composites n.

    The piece holds the odd n from an odd lo.  Each of the ascending odd
    ``primes``, which must hold every odd prime up to the square root of
    the piece's end, marks its odd multiples, 2p apart, from the larger
    of p*p and its first odd multiple >= lo, largest first, so the
    smallest prime factor writes last.  Entries of primes stay as they
    were.  A bool piece takes each write as True: a composite flag.
    """
    for p in reversed(primes):
        first = max(p * p, -(-lo // p) * p)
        if not first & 1:
            first += p
        marks[(first - lo) // 2:: p] = p


def mobius_segment(mu: np.ndarray, lo: int, primes: Sequence[int],
                   work: np.ndarray) -> None:
    """Set mu[i] = mu(n), n = lo + i, for 1 <= lo <= n < hi = lo + mu.size.

    ``primes`` ascending must hold every prime up to k = isqrt(hi - 1);
    larger ones are ignored.  ``work`` is an int32 array of mu.size, and
    hi <= 2^31.  Each prime p multiplies work by -p at its multiples and
    zeroes it at the multiples of p * p, so a square-free n ends with
    work = mu(P) * P, P the product of its primes up to k.  P = n unless
    n has one prime q > k (two would exceed hi - 1), and then
    P = n / q <= (hi - 1) / (k + 1) <= k, while P = n > k for every other
    n > k.  So mu(n) is sign(work), negated where k < n and |work| <= k.
    Beyond mu and work it holds one byte per n, the mask of that test,
    whatever lo is (the marking of Deleglise-Rivat, "Computing the
    summation of the Moebius function", Exp. Math. 1996).
    """
    size = mu.size
    k = math.isqrt(lo + size - 1)
    work.fill(1)
    for p in primes:
        if p > k:
            break
        work[-lo % p::p] *= -p
        work[-lo % (p * p)::p * p] = 0
    np.sign(work, out=mu, casting="unsafe")
    above = slice(max(k + 1 - lo, 0), size)
    product = np.abs(work[above], out=work[above])
    np.negative(mu[above], out=mu[above], where=product <= k)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, primes ascending."""

    pairs: tuple[tuple[int, int], ...]


def _prime_exponents(n: int, sieve: ArithSieve) -> Iterator[tuple[int, int]]:
    """Yield (prime, exponent) pairs of n in ascending prime order.

    Trial division by the root primes up to the first p with p * p > n;
    the cofactor left above 1 is prime, as they reach isqrt(n).
    """
    if not 1 <= n <= sieve.limit:
        raise ValueError(f"{n} outside sieve range 1..{sieve.limit}")
    for p in sieve.root_primes:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
    if n > 1:
        yield n, 1


def factorize(n: int, sieve: ArithSieve) -> Factorization:
    """Factor n using the sieve; factorize(1) has an empty pair list."""
    return Factorization(tuple(_prime_exponents(n, sieve)))


def mobius(n: int, sieve: ArithSieve) -> int:
    """Moebius function: (-1)^(distinct primes) if square-free, else 0."""
    sign = 1
    for _p, e in _prime_exponents(n, sieve):
        if e > 1:
            return 0
        sign = -sign
    return sign


def euler_phi(n: int, sieve: ArithSieve) -> int:
    """Euler totient: count of 1 <= k <= n coprime to n."""
    result = n
    for p, _e in _prime_exponents(n, sieve):
        result -= result // p
    return result


def omega(n: int, sieve: ArithSieve) -> int:
    """Number of distinct prime factors; omega(1) = 0."""
    return sum(1 for _ in _prime_exponents(n, sieve))


def tau(n: int, sieve: ArithSieve) -> int:
    """Number of divisors, computed from the factorization on demand."""
    t = 1
    for _p, e in factorize(n, sieve).pairs:
        t *= e + 1
    return t


def phi_bounded(s: int, H: int, sieve: ArithSieve) -> int:
    """Exact count of integers a with ``|a| <= H`` and ``gcd(a, s) = 1``.

    Evaluates the signed divisor sum over the square-free divisors t of s,

        sum of mu(t) * (2*floor(H/t) + 1),

    which is inclusion-exclusion over the primes of s.  The divisor set
    has 2^omega(s) elements, so the cost is tiny even for large s.

    With the convention gcd(0, s) = s, the value a = 0 is counted only
    when s = 1; in particular phi_bounded(s, 0) = 0 for all s >= 2.
    """
    if H < 0:
        raise ValueError(f"H must be non-negative, got {H}")
    signed_divisors = [(1, 1)]
    for p, _e in _prime_exponents(s, sieve):
        signed_divisors += [(t * p, -sign) for t, sign in signed_divisors]
    return sum(sign * (2 * (H // t) + 1) for t, sign in signed_divisors)


def _mu_factor(p, repeated):
    return repeated - np.int8(1)


def _phi_factor(p, repeated):
    return p - 1 + repeated


def _piece(lo: int, hi: int, primes: Sequence[int], tables, out) -> None:
    """Fill out[j][i] = f(m) * factor(p, r) for (f, factor) = tables[j].

    Here n = lo + 2i is odd and below hi, p = spf(n), marked by
    :func:`_mark` over the odd ``primes`` to isqrt(hi - 1), m = n / p, and
    r tells whether p divides m too.  Each f holds f(2i + 1) at entry i
    and must cover every m, which is odd, so f(m) is read at m >> 1.  r is
    exact as m % p == 0: every prime of m is at least p, so p divides m
    exactly when spf(m) = p.
    """
    m = np.arange(lo, hi, 2, dtype=np.int32)
    p = m.copy()
    _mark(p, lo, primes)
    m //= p
    repeated = m % p == 0
    m >>= 1
    for (f, factor), o in zip(tables, out):
        np.multiply(f[m], factor(p, repeated), out=o)


def _table(limit: int, sieve: ArithSieve, dtype, factor) -> np.ndarray:
    """f(2i + 1) at entry i in ``dtype``, for the odd n <= limit; f(1) = 1.

    :func:`_piece` fills the (limit + 1) // 2 entries a piece of odd n in
    [lo, hi) at a time, so the sieve's spf table is never read.  One
    gather fills each piece: as spf(n) >= 3, hi <= 3 * lo puts every
    m = n / spf(n) < hi / 3 <= lo in an earlier one, and hi <=
    lo + 2 * SEGMENT bounds the extra memory, whatever the limit.
    """
    if not 0 <= limit <= sieve.limit:
        raise ValueError(f"table limit {limit} outside 0..{sieve.limit}")
    f = np.zeros((limit + 1) // 2, dtype=dtype)
    f[:1] = 1
    lo = 3
    while lo <= limit:
        hi = min(3 * lo, lo + 2 * SEGMENT, limit + 1)
        _piece(lo, hi, sieve._odd_marking_primes(hi - 1), [(f, factor)],
               [f[lo >> 1:hi >> 1]])
        lo = hi
    return f


def mobius_table(limit: int, sieve: ArithSieve) -> np.ndarray:
    """Vector of mu(2i + 1) at entry i, for the odd n <= limit, as int8.

    Bulk variant of :func:`mobius` for callers that need every odd value
    in a range: mu(p * m) is 0 when p = spf(p * m) divides m and -mu(m)
    otherwise, filled by :func:`_table`.  int8 wraps silently, so widen
    the table before multiplying it by anything larger than mu.
    """
    return _table(limit, sieve, np.int8, _mu_factor)


def totient_table(limit: int, sieve: ArithSieve) -> np.ndarray:
    """Vector of phi(2i + 1) at entry i, for the odd n <= limit, as int32.

    phi(p * m) is phi(m) * p when p = spf(p * m) divides m and
    phi(m) * (p - 1) otherwise, filled by :func:`_table`.  Widen the
    values before raising them to a power or multiplying them.
    """
    return _table(limit, sieve, np.int32, _phi_factor)


def odd_table_pieces(limit: int, sieve: ArithSieve, mu: np.ndarray,
                     phi: np.ndarray, cut: int
                     ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (lo, mu, phi) over pieces covering the odd n of 3..limit.

    Entry i of a piece is n = lo + 2i.  ``mu`` and ``phi`` are the tables
    of :func:`mobius_table` and :func:`totient_table` to at least
    third = limit // 3.  The pieces, in ascending order and of at most
    SERIES_PIECE entries, are slices of them up to third.  Above it each
    piece is computed and dropped: an odd n has spf(n) >= 3, so
    m = n / spf(n) <= n / 3 <= third, and :func:`_piece` marks spf(n)
    over the odd primes up to isqrt(limit) and reads f(m) from the tables
    at m >> 1.  ``limit`` may reach 2 * sieve.limit + 1.

    phi is wanted only below ``cut``: ``phi`` need only reach min(third,
    cut), and each piece's phi holds at least its entries below the cut,
    from the start of the piece.  A computed piece from the cut on fills
    mu alone and yields phi empty.
    """
    third = limit // 3
    stored = (third + 1) // 2  # the odd n <= third
    for i in range(1, stored, SERIES_PIECE):
        end = min(i + SERIES_PIECE, stored)
        yield 2 * i + 1, mu[i:end], phi[i:end]
    primes = sieve._odd_marking_primes(limit)
    tables = ((mu, _mu_factor), (phi, _phi_factor))
    for lo in range(max((third + 1) | 1, 3), limit + 1, 2 * SERIES_PIECE):
        hi = min(lo + 2 * SERIES_PIECE, limit + 1)
        size = (hi - lo + 1) // 2
        both = lo < cut
        out = np.empty(size, mu.dtype), np.empty(size * both, phi.dtype)
        _piece(lo, hi, primes, tables[:1 + both], out)
        yield lo, *out
