"""Sieve-backed multiplicative arithmetic functions.

:class:`ArithSieve` covers the integers 2..limit.  Its root primes, every
prime up to isqrt(2 * limit + 1), are its one prime source; the rest is
built from them on first read, so a caller pays only for what it reads.
The prime list serves the Euler product.  The scalar Moebius function,
Euler totient, distinct prime count and divisor count and
:func:`phi_bounded` (the exact count of integers in a symmetric interval
coprime to a modulus, the building block of the polynomial counting
formulas) factor their argument by trial division over the root primes.

The bulk table versions of mu and phi, for callers that sweep a
contiguous range, read neither array.  Each value comes from the one at
n / spf(n), with spf marked one piece at a time by the primes up to the
square root that :func:`build_sieve` keeps, in O(SEGMENT) memory beyond
the result.  The tables are as narrow as their values: int8 for mu and
int32 for phi (phi(n) < n <= 2 * MAX_SIEVE_LIMIT + 1 < 2^31), 5 bytes
per entry, so callers widen them before they multiply.
:func:`table_pieces` streams both up to twice a table's limit, from the
tables and the same recurrence.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError

DEFAULT_SIEVE_LIMIT = 10**7

# Hard cap on sieve size.  A general count there holds 5 bytes per modulus
# (500 MB); the prime list alone is about 46 MB.
MAX_SIEVE_LIMIT = 10**8

# Width of the pieces the tables and the prime list are marked in.
# Independent of counting.WINDOW, which bounds the counter's int64 sums.
SEGMENT = 1 << 16


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
        that :func:`table_pieces` reaches and factor any n <= limit.

    ``primes`` and ``spf`` are cached properties: each array is built the
    first time it is read and marked read-only, so no caller can alter a
    sieve that another caller holds.
    """

    limit: int
    root_primes: tuple[int, ...]

    @functools.cached_property
    def primes(self) -> np.ndarray:
        """All primes <= limit in ascending order, as int64.

        Marked SEGMENT integers at a time into one array sized by
        pi(x) < x / ln x * (1 + 1.2762 / ln x) for x > 1 (Dusart, 1998),
        so the build needs about one piece beyond its result.
        """
        log = math.log(self.limit)
        found = np.empty(int(self.limit / log * (1 + 1.2762 / log)) + 1,
                         dtype=np.int64)
        count, marks = 0, np.empty(SEGMENT, dtype=np.int32)
        for lo in range(2, self.limit + 1, SEGMENT):
            piece = marks[:self.limit + 1 - lo]
            piece.fill(0)
            _mark(piece, lo, self._marking_primes(lo + piece.size - 1))
            new = np.flatnonzero(piece == 0)
            np.add(new, lo, out=found[count:count + new.size])
            count += new.size
        primes = found[:count]
        primes.flags.writeable = False
        return primes

    @functools.cached_property
    def spf(self) -> np.ndarray:
        """``spf[n]``, the least prime dividing n, for 2 <= n <= limit.

        int32, by one :func:`_mark` pass over the whole table; entries 0
        and 1 are unused and hold 0.  Nothing in eisencount reads it.
        """
        spf = _spf_piece(0, self.limit + 1, self._marking_primes(self.limit))
        spf[:2] = 0
        spf.flags.writeable = False
        return spf

    def _marking_primes(self, end: int) -> Sequence[int]:
        """The primes up to isqrt(end), which mark any piece ending at end."""
        return self.root_primes[:bisect.bisect_right(self.root_primes,
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
    if limit < 2:
        raise ValueError(f"sieve limit must be at least 2, got {limit}")
    budget = min(max_limit, MAX_SIEVE_LIMIT)
    if limit > budget:
        raise BudgetExceededError(
            f"sieve limit {limit} exceeds the memory budget {budget}"
        )
    root = math.isqrt(2 * limit + 1)
    small = np.arange(root + 1) >= 2
    for p in range(2, math.isqrt(root) + 1):
        small[p * p:: p] = False
    return ArithSieve(limit=limit,
                      root_primes=tuple(np.flatnonzero(small).tolist()))


def _mark(spf: np.ndarray, lo: int, primes: Sequence[int]) -> None:
    """Set spf[n - lo] to spf(n) for the composites n of lo..lo+spf.size-1.

    Each of the ascending ``primes``, which must hold every prime up to
    the square root of the piece's end, marks its multiples from the
    larger of p*p and its first multiple >= lo, largest first, so the
    smallest prime factor writes last.  Entries of primes stay as they were.
    """
    for p in reversed(primes):
        spf[max(p * p, -(-lo // p) * p) - lo:: p] = p


def _spf_piece(lo: int, hi: int, primes: Sequence[int]) -> np.ndarray:
    """spf(n) for lo <= n < hi, as int32, marked by :func:`_mark`.

    Every entry starts as n, which the primes (and 0 and 1) keep.
    """
    spf = np.arange(lo, hi, dtype=np.int32)
    _mark(spf, lo, primes)
    return spf


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


def _piece(lo: int, p: np.ndarray, tables, out) -> None:
    """Fill out[j][i] = f(m) * factor(p, r) for (f, factor) = tables[j].

    Here n = lo + i, p = p[i] = spf(n), m = n / p, and r tells whether p
    divides m too; each f must cover every m.  r is exact as m % p == 0:
    every prime of m is at least p, so p divides m exactly when
    spf(m) = p.
    """
    m = np.arange(lo, lo + p.size, dtype=np.int32) // p
    repeated = m % p == 0
    for (f, factor), o in zip(tables, out):
        np.multiply(f[m], factor(p, repeated), out=o)


def _table(limit: int, sieve: ArithSieve, dtype, factor) -> np.ndarray:
    """Vector of f(n) for 0 <= n <= limit in ``dtype``, f(0) = 0, f(1) = 1.

    For n >= 2, f(n) comes from f(m), m = n / spf(n), by :func:`_piece`,
    with spf marked piece by piece by :func:`_spf_piece`, so the sieve's
    spf table is never read.  One gather fills each piece [lo, hi):
    hi <= 2 * lo puts every m < hi / 2 <= lo in an earlier one, and
    hi <= lo + SEGMENT bounds the extra memory, whatever the limit.
    """
    if not 0 <= limit <= sieve.limit:
        raise ValueError(f"table limit {limit} outside 0..{sieve.limit}")
    f = np.zeros(limit + 1, dtype=dtype)
    f[1:2] = 1
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, lo + SEGMENT, limit + 1)
        spf = _spf_piece(lo, hi, sieve._marking_primes(hi - 1))
        _piece(lo, spf, [(f, factor)], [f[lo:hi]])
        lo = hi
    return f


def mobius_table(limit: int, sieve: ArithSieve) -> np.ndarray:
    """Vector of mu(n) for 0 <= n <= limit, as int8; mu[0] is set to 0.

    Bulk variant of :func:`mobius` for callers that need every value in
    a range: mu(p * m) is 0 when p = spf(p * m) divides m and -mu(m)
    otherwise, filled by :func:`_table`.  int8 wraps silently, so widen
    the table before multiplying it by anything larger than mu.
    """
    return _table(limit, sieve, np.int8, _mu_factor)


def totient_table(limit: int, sieve: ArithSieve) -> np.ndarray:
    """Vector of phi(n) for 0 <= n <= limit, as int32; phi[0] is set to 0.

    phi(p * m) is phi(m) * p when p = spf(p * m) divides m and
    phi(m) * (p - 1) otherwise, filled by :func:`_table`.  Widen the
    values before raising them to a power or multiplying them.
    """
    return _table(limit, sieve, np.int32, _phi_factor)


def table_pieces(limit: int, sieve: ArithSieve, mu: np.ndarray,
                 phi: np.ndarray) -> Iterator[tuple[int, np.ndarray,
                                                    np.ndarray]]:
    """Yield (lo, mu(lo..hi-1), phi(lo..hi-1)) over pieces covering 2..limit.

    ``mu`` and ``phi`` are :func:`mobius_table` and :func:`totient_table`
    to at least half = limit // 2.  The pieces, in ascending order and of
    at most SEGMENT entries, are views into them up to half.  Above it
    each piece is computed and dropped: n > half has m = n / spf(n)
    <= n / 2 <= half, so :func:`_piece` reads f(m) from the tables, with
    spf(n) from :func:`_spf_piece` over the primes up to isqrt(limit).
    ``limit`` may reach 2 * sieve.limit + 1.
    """
    half = limit // 2
    for lo in range(2, half + 1, SEGMENT):
        hi = min(lo + SEGMENT, half + 1)
        yield lo, mu[lo:hi], phi[lo:hi]
    primes = sieve._marking_primes(limit)
    tables = ((mu, _mu_factor), (phi, _phi_factor))
    for lo in range(max(half + 1, 2), limit + 1, SEGMENT):
        hi = min(lo + SEGMENT, limit + 1)
        out = np.empty(hi - lo, mu.dtype), np.empty(hi - lo, phi.dtype)
        _piece(lo, _spf_piece(lo, hi, primes), tables, out)
        yield lo, *out
