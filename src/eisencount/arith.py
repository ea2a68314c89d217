"""Sieve-backed multiplicative arithmetic functions.

A smallest-prime-factor table (:class:`ArithSieve`) supports O(log n)
factorization, from which the Moebius function, Euler totient, distinct
prime count and divisor count follow directly.  The module also
provides :func:`phi_bounded`, the exact count of integers in a symmetric
interval coprime to a modulus, which is the basic building block of the
polynomial counting formulas, plus bulk table versions of mu and phi for
callers that sweep a contiguous range, each value taken from the one at
n / spf(n) in O(SEGMENT) memory beyond the result.  The tables are as
narrow as their values: int8 for mu and int32 for phi (phi(n) < n <=
MAX_SIEVE_LIMIT < 2^31), 5 bytes per entry, so callers widen them before
they multiply.
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

    def nth_prime(self, n: int) -> int:
        """The n-th prime (1-indexed), if covered by the sieve."""
        if not 1 <= n <= self.primes.size:
            raise ValueError(
                f"sieve holds {self.primes.size} primes, cannot serve prime #{n}"
            )
        return int(self.primes[n - 1])


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
    # The primes up to the square root each mark their multiples from p*p
    # on, largest first, so the smallest prime factor writes last.
    root = math.isqrt(limit)
    small = np.arange(root + 1) >= 2
    for p in range(2, math.isqrt(root) + 1):
        small[p * p:: p] = False
    for p in np.flatnonzero(small)[::-1].tolist():
        spf[p * p:: p] = p
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


def _table(limit: int, sieve: ArithSieve, dtype, factor) -> np.ndarray:
    """Vector of f(n) for 0 <= n <= limit in ``dtype``, f(0) = 0, f(1) = 1.

    For n >= 2 with p = spf(n) and m = n / p, f(n) = f(m) * factor(p, r),
    where r tells whether p divides m too.  One gather fills each piece
    [lo, hi): hi <= 2 * lo puts every m < hi / 2 <= lo in an earlier one,
    and hi <= lo + SEGMENT bounds the extra memory, whatever the limit.
    """
    if not 0 <= limit <= sieve.limit:
        raise ValueError(f"table limit {limit} outside 0..{sieve.limit}")
    spf = sieve.spf
    f = np.zeros(limit + 1, dtype=dtype)
    f[1:2] = 1
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, lo + SEGMENT, limit + 1)
        p = spf[lo:hi]
        m = np.arange(lo, hi, dtype=np.int32) // p
        np.multiply(f[m], factor(p, spf[m] == p), out=f[lo:hi])
        lo = hi
    return f


def mobius_table(limit: int, sieve: ArithSieve) -> np.ndarray:
    """Vector of mu(n) for 0 <= n <= limit, as int8; mu[0] is set to 0.

    Bulk variant of :func:`mobius` for callers that need every value in
    a range: mu(p * m) is 0 when p = spf(p * m) divides m and -mu(m)
    otherwise, filled by :func:`_table`.  int8 wraps silently, so widen
    the table before multiplying it by anything larger than mu.
    """
    return _table(limit, sieve, np.int8, lambda p, repeated: repeated - 1)


def totient_table(limit: int, sieve: ArithSieve) -> np.ndarray:
    """Vector of phi(n) for 0 <= n <= limit, as int32; phi[0] is set to 0.

    phi(p * m) is phi(m) * p when p = spf(p * m) divides m and
    phi(m) * (p - 1) otherwise, filled by :func:`_table`.  Widen the
    values before raising them to a power or multiplying them.
    """
    return _table(limit, sieve, np.int32,
                  lambda p, repeated: p - 1 + repeated)
