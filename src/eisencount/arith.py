"""Sieve-backed multiplicative arithmetic functions.

A smallest-prime-factor table (:class:`ArithSieve`) supports O(log n)
factorization, from which the Moebius function, Euler totient, distinct
prime count, divisor count and radical follow directly.  The module also
provides :func:`phi_bounded`, the exact count of integers in a symmetric
interval coprime to a modulus, which is the basic building block of the
polynomial counting formulas, plus bulk table versions of mu and phi for
callers that sweep a contiguous range.  The tables are filled SEGMENT
entries at a time, each segment [lo, hi) from the primes p with p*p < hi
only, so beyond the result they need O(SEGMENT) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import BudgetExceededError

DEFAULT_SIEVE_LIMIT = 10**7

# Hard cap on sieve size: int32 spf entries, so ~400 MB at the cap.
MAX_SIEVE_LIMIT = 10**8

# Width of the pieces mobius_table and totient_table fill one at a time.
# Independent of counting.WINDOW, which bounds the counter's int64 sums.
SEGMENT = 1 << 16


# eq=False: identity comparison and hashing; the arrays make field-wise
# equality both expensive and unhashable.
@dataclass(frozen=True, eq=False)
class ArithSieve:
    """Smallest-prime-factor table for 2..limit plus the prime list.

    Attributes
    ----------
    limit : int
        Largest integer covered by the table.
    spf : numpy.ndarray
        ``spf[n]`` is the least prime dividing n for every 2 <= n <= limit.
        Entries 0 and 1 are unused and hold 0.
    primes : numpy.ndarray
        All primes <= limit in ascending order.

    Both arrays are marked read-only, so no caller can alter a sieve
    that another caller holds.
    """

    limit: int
    spf: np.ndarray
    primes: np.ndarray

    def prime_count(self) -> int:
        """Number of primes available from this sieve."""
        return int(self.primes.size)

    def nth_prime(self, n: int) -> int:
        """The n-th prime (1-indexed), if covered by the sieve."""
        if not 1 <= n <= self.primes.size:
            raise ValueError(
                f"sieve holds {self.primes.size} primes, cannot serve prime #{n}"
            )
        return int(self.primes[n - 1])

    def primes_upto(self, limit: int) -> np.ndarray:
        """Read-only view of the primes <= limit, in ascending order."""
        cut = int(np.searchsorted(self.primes, limit, side="right"))
        return self.primes[:cut]


def build_sieve(limit: int = DEFAULT_SIEVE_LIMIT, *,
                max_limit: int = MAX_SIEVE_LIMIT) -> ArithSieve:
    """Build a smallest-prime-factor sieve covering 2..limit.

    Parameters
    ----------
    limit : int
        Inclusive upper end of the table, at least 2.
    max_limit : int, optional
        Memory budget expressed as the largest acceptable ``limit``.  It
        can only lower the hard cap :data:`MAX_SIEVE_LIMIT`, never raise it.

    Returns
    -------
    ArithSieve

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
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p:: p]
            block[block == 0] = p
    # Everything still unmarked above 1 is prime.
    primes = np.flatnonzero(spf[2:] == 0) + 2
    spf[primes] = primes
    spf.flags.writeable = False
    primes.flags.writeable = False
    return ArithSieve(limit=limit, spf=spf, primes=primes)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, primes ascending."""

    pairs: tuple[tuple[int, int], ...]

    def value(self) -> int:
        """The integer this factorization multiplies back to."""
        out = 1
        for p, e in self.pairs:
            out *= p ** e
        return out


def _check_range(n: int, sieve: ArithSieve) -> None:
    if not 1 <= n <= sieve.limit:
        raise ValueError(f"{n} outside sieve range 1..{sieve.limit}")


def _prime_exponents(n: int, spf: np.ndarray) -> Iterator[tuple[int, int]]:
    """Yield (prime, exponent) pairs of n in ascending prime order."""
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        yield p, e


def factorize(n: int, sieve: ArithSieve) -> Factorization:
    """Factor n using the sieve; factorize(1) has an empty pair list."""
    _check_range(n, sieve)
    return Factorization(tuple(_prime_exponents(n, sieve.spf)))


def mobius(n: int, sieve: ArithSieve) -> int:
    """Moebius function: (-1)^(distinct primes) if square-free, else 0."""
    _check_range(n, sieve)
    sign = 1
    for _p, e in _prime_exponents(n, sieve.spf):
        if e > 1:
            return 0
        sign = -sign
    return sign


def euler_phi(n: int, sieve: ArithSieve) -> int:
    """Euler totient: count of 1 <= k <= n coprime to n."""
    _check_range(n, sieve)
    result = n
    for p, _e in _prime_exponents(n, sieve.spf):
        result -= result // p
    return result


def omega(n: int, sieve: ArithSieve) -> int:
    """Number of distinct prime factors; omega(1) = 0."""
    _check_range(n, sieve)
    return sum(1 for _ in _prime_exponents(n, sieve.spf))


def tau(n: int, sieve: ArithSieve) -> int:
    """Number of divisors, computed from the factorization on demand."""
    t = 1
    for _p, e in factorize(n, sieve).pairs:
        t *= e + 1
    return t


def radical(n: int, sieve: ArithSieve) -> int:
    """Product of the distinct primes dividing n; radical(1) = 1."""
    _check_range(n, sieve)
    r = 1
    for p, _e in _prime_exponents(n, sieve.spf):
        r *= p
    return r


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
    _check_range(s, sieve)
    signed_divisors = [(1, 1)]
    for p, _e in _prime_exponents(s, sieve.spf):
        signed_divisors += [(t * p, -sign) for t, sign in signed_divisors]
    return sum(sign * (2 * (H // t) + 1) for t, sign in signed_divisors)


def _check_table_limit(limit: int, sieve: ArithSieve) -> None:
    if not 0 <= limit <= sieve.limit:
        raise ValueError(f"table limit {limit} outside 0..{sieve.limit}")


def _segments(limit: int, sieve: ArithSieve) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (lo, hi, primes) covering 0..limit in SEGMENT-wide pieces.

    ``primes`` are those with p*p < hi: every n in [lo, hi) with a square
    factor has one of them, and a square-free n has at most one prime
    factor beyond them, because two would multiply past n.
    """
    small = sieve.primes_upto(math.isqrt(limit)).tolist()
    for lo in range(0, limit + 1, SEGMENT):
        hi = min(lo + SEGMENT, limit + 1)
        yield lo, hi, [p for p in small if p * p < hi]


def mobius_table(limit: int, sieve: ArithSieve) -> np.ndarray:
    """Vector of mu(n) for 0 <= n <= limit; mu[0] is set to 0.

    Bulk variant of :func:`mobius` for callers that need every value in
    a range.  Each SEGMENT of the result is built from the primes p with
    p*p below the segment's end: entries start at 1 and are multiplied by
    -p on the multiples of p, then zeroed on the multiples of p*p.  A
    square-free n whose remaining |product| falls short of n has exactly
    one more prime factor, so its sign flips once more.  The extra memory
    is a few SEGMENT-sized arrays, whatever the limit.
    """
    _check_table_limit(limit, sieve)
    mu = np.ones(limit + 1, dtype=np.int64)
    for lo, hi, primes in _segments(limit, sieve):
        seg = mu[lo:hi]
        for p in primes:
            seg[-lo % p::p] *= -p
            seg[-lo % (p * p)::p * p] = 0
        seg[np.abs(seg) < np.arange(lo, hi)] *= -1
        np.sign(seg, out=seg)
    mu[0] = 0
    return mu


def totient_table(limit: int, sieve: ArithSieve) -> np.ndarray:
    """Vector of phi(n) for 0 <= n <= limit; phi[0] is set to 0.

    Built a SEGMENT at a time like :func:`mobius_table`: each prime p with
    p*p below the segment's end applies phi -= phi // p to its multiples
    and divides every power of p out of a ``rest`` array.  Where ``rest``
    stays above 1 it is the one prime factor P beyond those primes, and
    phi is multiplied by (P - 1) / P.  The extra memory is a few
    SEGMENT-sized arrays, whatever the limit.
    """
    _check_table_limit(limit, sieve)
    phi = np.arange(limit + 1, dtype=np.int64)
    for lo, hi, primes in _segments(limit, sieve):
        seg = phi[lo:hi]
        rest = seg.copy()
        for p in primes:
            seg[-lo % p::p] -= seg[-lo % p::p] // p
            q = p
            while q < hi:
                rest[-lo % q::q] //= p
                q *= p
        big = np.flatnonzero(rest > 1)
        seg[big] = seg[big] // rest[big] * (rest[big] - 1)
    return phi
