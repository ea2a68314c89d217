"""Density constants for Eisenstein polynomials, with rigorous brackets.

The proportion of monic integer polynomials of degree d that are
Eisenstein tends to a constant theta_d as the height bound grows, and
likewise rho_d when the leading coefficient varies too.  Both admit an
Euler product and an equivalent alternating series:

    theta_d = 1 - prod over primes p of (1 - (p-1)/p^(d+1))
            = -sum over s >= 2 of mu(s) * phi(s) / s^(d+1)

    rho_d   = 1 - prod over primes p of (1 - (p-1)^2/p^(d+2))
            = -sum over s >= 2 of mu(s) * phi(s)^2 / s^(d+2)

Each evaluator truncates one of these forms and returns the approximate
value together with a bracket [lower, upper] guaranteed to contain the
untruncated constant.  All arithmetic runs on integers scaled by
2**precision_bits with directed rounding, so the brackets account for
every rounding step as well as the omitted tail; results are exposed as
exact fractions.

The product multiplies its factors 1 - x_p, x_p = (p-1)^k / p^(d+k), one
at a time only for the primes p <= B.  The cut B = 2^ceil(Q/14) depends
on the working precision Q = P + GUARD_BITS alone: B = 1024 at the
default 96 bits, and from P = 333 on B is above the sieve cap, so every
prime is a factor.  The primes B < p <= N (N the truncation point)
contribute exp(-L) with

    L = -sum log(1 - x_p) = sum over m >= 1 of (1/m) sum_p x_p^m
      = sum over m of (1/m) sum over j <= km of C(km, j) (-1)^j S(dm + j),

where S(s) = sum over B < p <= N of p^(-s), since x_p^m = p^(-dm) (1 -
1/p)^(km).  The sum stops at the least M whose remainder, at most
B^(1-d(M+1)) / ((d(M+1)-1)(M+1)(1-B^(-d))) as x_p <= p^(-d), is under
2^(-Q): M is 6 or 7 at d = 2 and 1 from d = 8 on.  Each S(s) is
bracketed by floor sums at Q bits: each floor(2^Q / p^s) is less than 1
below its term, so S(s) lies in [sum, sum + n] / 2^Q for n primes.
These roundings add n sum_m 2^(km) / m units of 2^(-Q) to the width of
L, which the GUARD_BITS keep near one unit of 2^(-P) even for the 5.8
million primes below the sieve cap.  With L < 2/B < 1, the partial sums
of exp(-L)'s alternating Taylor series fall on either side of it, which
brackets exp(-L) in exact fractions; that bracket then multiplies the
loop's two tracks with directed rounding.  The floor sums depend only on
the primes and Q, so a table reuses one pass for all its constants.

Both routes take their floors from one long division.  Since
floor(floor(x/a)/b) = floor(x/(ab)), floor(numer * 2^P / s^e) comes from
e successive divisions by s, in uint64 numpy over up to SEGMENT terms at
once.  The numerator streams by as base-2^L limbs, most significant
first: those of numer * 2^(P mod L), at most three non-zero as numer <
2^56, then P // L zero limbs.  Each call takes L = min(48, 64 -
bitlen(max s)), so a stage's rem * 2^L + limb < s * 2^L <= 2^64 is
exact, and s <= 2 * MAX_SIEVE_LIMIT + 1 < 2^28 (the series' bound; see
below) keeps L >= 36.  Stage j passes on the limbs of floor(numer * 2^P
/ s^j), each below 2^L <= 2^48, so a column of at most SEGMENT = 2^16
of them sums below 2^64 in uint64 before it joins a Python integer.  The
last stage also sums its floors q mod 2^e, from the limbs below bit e
(several when e > L).  No remainder is read: an odd s >= 3 is prime to
2^P and s^e > phi(s)^k, so neither s^e nor (2s)^e divides phi(s)^k 2^P;
the series counts each such term and partner as rounded, as the power
sums count one unit a prime in each S(s).  The extra memory is e
remainder arrays of one segment, whatever P.  A stage with remainders
all still 0 passes 0 limbs on, and takes a limb below s for every term
as its remainder, passing 0 on.  The series takes the
last stage, numer = phi(s)^k and e = d+k, for s below 2^ceil(P/d).  From
there on, as phi(s) < s, a term is below 2^P / s^d <= 1: quotient 0 and
rounded, with no division, and only the sign of mu(s) is read, so phi is
tabled and filled only below the cut.  At 96 bits that cut is 2^48 at
d = 2, past every modulus, 2^10 at d = 10 and 2 from d = 96 on, below
every term.
The product takes every stage, numer = 1 and P = Q, over pieces of
primes of one bit length b: these primes are at least 2^(b-1), so their
floors are 0 by stage e = Q // (b-1) + 1, and the pieces' stage sums add
up to the S(s).  A piece holds SEGMENT // e primes, so its e remainder
arrays take at most SEGMENT entries, 7 arrays of 9362 for the primes
from 2^19 to 2^22 at the default Q = 128.

The series divides only at odd s.  An even square-free s = 2m has m odd,
mu(2m) = -mu(m) and phi(2m) = phi(m), so its floor is q(2m) =
floor(q(m) / 2^e) = q(m) >> e.  Each odd m <= S / 2 adds its partner
2m with the opposite sign: the sum of the q(2m) is that of the q(m) less
that of the q(m) mod 2^e, over 2^e.  The one even term whose half is no
term, s = 2 from m = 1, has the floor 2^(P-e), exact when P >= e: the
one term that can be.  At d = 2 and 96 bits an odd term takes 7
divisions for theta and 10 for rho on average, and its partner none:
4.7 and 6.7 a term, not 8 and 12.

The series stores mu and phi only at the odd moduli up to S // 3, and
reads nothing else: the tables mark their own spf a piece at a time from
the sieve's root primes, and the product reads only its prime list.  An
odd s has p = spf(s) >= 3, so m = s / p <= S / 3, and mu(s) and phi(s)
follow from mu(m) and phi(m) by the tables' own recurrence.  So the odd
moduli up to S // 3 are read from the tables, which hold only odd n, in
contiguous slices, and those above come in pieces, each with its spf
from marking the odd primes up to isqrt(S) at stride 2p, filled from the
tables' entries at m >> 1, summed and dropped
(:func:`arith.odd_table_pieces`); phi stops at the cut 2^ceil(P/d)
when that comes first.  Both kinds of piece hold at most SERIES_PIECE =
SEGMENT // 2 odd moduli, as each term's stage sums take d + k + 4 uint64
arrays: at rho_2 and S = 2e6 the peak beyond the tables is 1.3 MB, not
the 2.2 MB of pieces of SEGMENT.  The tables take at most
5 ((S // 3 + 1) // 2) bytes, and a sieve to n serves every S <= 2n + 1,
as its root primes reach isqrt(2n + 1).
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .arith import (SEGMENT, ArithSieve, mobius_table, odd_table_pieces,
                    totient_table)
from .errors import InvariantError, check_degree
from .results import (DEFAULT_PRECISION_BITS, DEFAULT_PRIME_COUNT,
                      DEFAULT_SERIES_LIMIT, KINDS, MIN_PRECISION_BITS, POWERS)

ESTIMATE_METHODS = ("euler_product", "mobius_series")
# Extra bits the product's power sums carry beyond precision_bits.
GUARD_BITS = 32


@dataclass(frozen=True)
class DensityEstimate:
    """A density constant with a rigorous two-sided enclosure.

    ``value`` is the truncated evaluation itself; ``lower`` and ``upper``
    bound the exact (untruncated) constant, covering both the tail of the
    product or series and all accumulated rounding.  ``truncation`` is a
    (parameter name, parameter value) pair such as ("prime_count", 10000).
    All three numeric fields are exact fractions.
    """

    kind: str
    degree: int
    value: Fraction
    lower: Fraction
    upper: Fraction
    truncation: tuple[str, int]
    method: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvariantError(f"kind must be one of {KINDS}")
        if self.method not in ESTIMATE_METHODS:
            raise InvariantError(f"method must be one of {ESTIMATE_METHODS}")
        if not self.lower <= self.value <= self.upper:
            raise InvariantError("bracket does not contain its own value")

    @property
    def width(self) -> Fraction:
        """Total bracket width: truncation tail plus rounding budget."""
        return self.upper - self.lower


def _validate_common(d: int, precision_bits: int) -> None:
    check_degree(d)
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(
            f"precision_bits must be at least {MIN_PRECISION_BITS}, "
            f"got {precision_bits}"
        )


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _stage_sums(numer: np.ndarray, s: np.ndarray, expo: int,
                precision_bits: int) -> tuple[list[int], int]:
    """Sums of floor(numer * 2^precision_bits / s^j) for j = 1..expo.

    Also returns the sum of q mod 2^expo over the last stage's floors q,
    for the series' partners 2s.  No remainder is read: an odd s >= 3 is
    prime to 2^P and s^expo > numer = phi(s)^k, so s^expo does not divide
    numer * 2^P, and the series counts each term as rounded.  ``numer``
    (1 <= numer < 2^56) and ``s`` (2 <= s < 2^28) are uint64 arrays of
    equal length, at most SEGMENT; see the module docstring.
    """
    width = min(48, 64 - int(s.max(initial=0)).bit_length())
    mask = np.uint64((1 << width) - 1)
    # numer * 2^(P mod width) takes count limbs, then P // width zero ones.
    shift = precision_bits % width
    count = max(1, _ceil_div(int(numer.max(initial=0)).bit_length() + shift,
                             width))
    limbs = count + precision_bits // width
    rems = np.zeros((expo, s.size), np.uint64)
    limb = np.empty_like(s)
    quotient = np.empty_like(s)
    low = 0
    # Stages start in order, each on the first non-zero limb it receives;
    # digit is None while the limb is known to be 0.
    started = 0
    totals = [0] * expo
    for i in range(limbs):
        totals = [total << width for total in totals]
        digit = None
        if i < count:
            # Limb i of numer * 2^shift starts at bit width * (count-1-i);
            # a left shift wraps only masked bits.
            up = width * (count - 1 - i) - shift
            if up > 0:
                np.right_shift(numer, np.uint64(up), out=limb)
            else:
                np.left_shift(numer, np.uint64(-up), out=limb)
            limb &= mask
            if limb.any():
                digit = limb
        for j, rem in enumerate(rems):
            if j == started:
                if digit is None:
                    break
                started += 1
                if (digit < s).all():
                    rem[:] = digit
                    break
            np.left_shift(rem, np.uint64(width), out=rem)
            if digit is not None:
                rem += digit
            digit = quotient
            np.divmod(rem, s, out=(digit, rem))
            totals[j] += int(digit.sum())
        else:
            # The last stage passed on a limb of q; its bits below expo
            # count towards q mod 2^expo.
            bit = (limbs - 1 - i) * width
            if bit < expo:
                if expo - bit < width:
                    digit &= np.uint64((1 << (expo - bit)) - 1)
                low += int(digit.sum()) << bit
    return totals, low


def _prime_power_sums(sieve: ArithSieve, first: int, stop: int,
                      bits: int) -> tuple[int, ...]:
    """Entry s is the sum of floor(2^bits / p^s) over sieve.primes[first:stop].

    Entries run from s = 0 to the first s whose sum is 0, as is every
    later one.  Cached for the last (sieve, first, stop, bits), so the
    constants of one table share a single pass over the primes.  The
    cache holds the sieve by a weak reference and keeps no sieve alive.
    """
    return _cached_power_sums(weakref.ref(sieve), first, stop, bits)


@functools.lru_cache(maxsize=1)
def _cached_power_sums(sieve: weakref.ref, first: int, stop: int,
                       bits: int) -> tuple[int, ...]:
    primes = sieve().primes[first:stop]
    top = int(primes[-1]).bit_length() if primes.size else 0
    edges = np.searchsorted(primes, [1 << b for b in range(top + 1)]).tolist()
    # Entry bits + 1 is 0, as every p^(bits+1) > 2^bits.
    sums = [primes.size << bits] + [0] * (bits + 1)
    for b in range(2, top + 1):
        # A piece's stages x primes remainders stay within SEGMENT entries.
        stages = bits // (b - 1) + 1
        step = SEGMENT // stages
        for at in range(edges[b - 1], edges[b], step):
            p = primes[at:min(at + step, edges[b])].astype(np.uint64)
            totals = _stage_sums(np.ones_like(p), p, stages, bits)[0]
            for s, total in enumerate(totals, start=1):
                sums[s] += total
    return tuple(sums[:sums.index(0) + 1])


def _log_bracket(d: int, k: int, sums: tuple[int, ...], n: int, bits: int,
                 cut: int) -> tuple[Fraction, Fraction]:
    """Bounds on L = -sum log(1 - x_p) over n primes above ``cut``.

    ``sums`` are the primes' floor sums at ``bits`` from
    :func:`_prime_power_sums`; see the module docstring for the expansion.
    """
    # The least M whose remainder bound
    # B^(1-d(M+1)) / ((d(M+1)-1)(M+1)(1-B^(-d))) = 1 / den is under 2^-bits.
    M = 1
    while True:
        den = (cut ** (d * M - 1) * (d * (M + 1) - 1) * (M + 1)
               * (cut ** d - 1))
        if den > 1 << bits:
            break
        M += 1
    low, high = Fraction(0), Fraction(1 << bits, den)
    for m in range(1, M + 1):
        # sum_p x_p^m in units of 2^-bits; S(s) is in [floor sum, + n].
        a_lo = a_hi = 0
        for j in range(k * m + 1):
            floor = sums[d * m + j] if d * m + j < len(sums) else 0
            c = comb(k * m, j)
            if j % 2:
                a_lo -= c * (floor + n)
                a_hi -= c * floor
            else:
                a_lo += c * floor
                a_hi += c * (floor + n)
        low += Fraction(max(a_lo, 0), m)
        high += Fraction(a_hi, m)
    if high >= 1 << bits:
        raise InvariantError("the power-sum logarithm is not below 1")
    return low / (1 << bits), high / (1 << bits)


def _exp_neg(low: Fraction, high: Fraction,
             bits: int) -> tuple[Fraction, Fraction]:
    """Bounds down <= exp(-high) and exp(-low) <= up, for 0 <= low <= high < 1.

    The terms x^i / i! of the alternating Taylor series of exp(-x) shrink,
    so its partial sums fall on either side of it; the last two, taken once
    a term is under 2^-bits, bracket it.  down comes from the series at
    x = high and up from the one at x = low.
    """
    def partial_sums(x: Fraction) -> tuple[Fraction, Fraction]:
        total = term = Fraction(1)
        i = 0
        while True:
            i += 1
            term = term * x / i
            previous, total = total, total - term if i % 2 else total + term
            if term * (1 << bits) < 1:
                return min(previous, total), max(previous, total)

    return partial_sums(high)[0], partial_sums(low)[1]


def _product_estimate(kind: str, d: int, sieve: ArithSieve, prime_count: int,
                      precision_bits: int) -> DensityEstimate:
    _validate_common(d, precision_bits)
    tail_from = sieve.nth_prime(prime_count)
    k = POWERS[kind]
    primes = sieve.primes[:prime_count]
    # The loop takes the primes up to the cut B = 2^ceil(Q/14), with Q the
    # precision plus GUARD_BITS: every p > B has p^14 > 2^Q, so the power
    # sums for the rest run at most 13 non-zero steps.
    bits = precision_bits + GUARD_BITS
    cut = 1 << _ceil_div(bits, 14)
    explicit = primes[:int(np.searchsorted(primes, cut, side="right"))]

    one = 1 << precision_bits
    lo = hi = one
    # int64 is exact: p <= MAX_SIEVE_LIMIT = 1e8, so (p-1)^2 < 1e16 < 2^63.
    deficits = ((explicit - 1) ** k).tolist()
    for i, (p, deficit) in enumerate(zip(explicit.tolist(), deficits)):
        den = p ** (d + k)
        # Times (1 - deficit/den): lo rounds down, hi rounds up.
        drop = hi * deficit // den
        if not drop:
            # deficit/den = (p-1)^k / p^(d+k) does not increase with p and hi
            # never grows, so from here on hi stays put and each factor
            # lowers lo by exactly 1 while lo > 0.
            lo = max(0, lo - (explicit.size - i))
            break
        lo += -lo * deficit // den
        hi -= drop
    if primes.size > explicit.size:
        # The factors above the cut are exp(-L), L = sum over m of (1/m)
        # sum_p x_p^m, from their power sums at Q bits with the m > M
        # remainder bounded; exp(-L) lies in [down, up] by the alternating
        # Taylor series, and multiplies lo down and hi up.
        sums = _prime_power_sums(sieve, explicit.size, primes.size, bits)
        low, high = _log_bracket(d, k, sums, primes.size - explicit.size,
                                 bits, cut)
        down, up = _exp_neg(low, high, bits)
        lo = lo * down.numerator // down.denominator
        hi = _ceil_div(hi * up.numerator, up.denominator)

    # Omitted factors multiply the product by something in [exp(-T), 1]
    # where T bounds the sum of 2x over the omitted deficits x; since
    # -log(1-x) <= 2x for x <= 1/2 and each deficit is below 1/p^d,
    #   T <= sum over n > P of 2/n^d <= 2 / ((d-1) P^(d-1)),
    # and exp(-T) >= 1 - T.
    tail = _ceil_div(2 * one, (d - 1) * tail_from ** (d - 1))
    full_lo = max(0, lo * (one - tail) // one) if tail < one else 0
    full_hi = hi

    value = 1 - Fraction(lo + hi, 2 * one)
    lower = 1 - Fraction(full_hi, one)
    upper = 1 - Fraction(full_lo, one)
    return DensityEstimate(kind=kind, degree=d, value=value, lower=lower,
                           upper=upper, truncation=("prime_count", prime_count),
                           method="euler_product")


def _series_estimate(kind: str, d: int, sieve: ArithSieve, series_limit: int,
                     precision_bits: int) -> DensityEstimate:
    _validate_common(d, precision_bits)
    if series_limit < 1:
        raise ValueError(f"series limit must be positive, got {series_limit}")
    half = series_limit // 2
    if half > sieve.limit:
        raise ValueError(
            f"series limit {series_limit} needs a sieve to {half}, "
            f"above its limit {sieve.limit}"
        )
    one = 1 << precision_bits
    k = POWERS[kind]
    expo = d + k
    # As phi(s) < s, a term with s >= tiny is below 2^P / s^d <= 1 unit:
    # floor 0 and rounded, as is its partner 2s.  Only its sign is read.
    tiny = 1 << _ceil_div(precision_bits, d)
    third = series_limit // 3
    mu = mobius_table(third, sieve)
    phi = totient_table(min(third, tiny), sieve)
    # sums[sign] = [sum of floors, rounded terms] over the moduli s with
    # mu(s) = sign.  s = 2 pairs with m = 1, which is no term: its floor
    # is 2^(P-e), rounded when P < e.
    sums = {-1: [0, 0], 1: [0, 0]}
    if series_limit >= 2:
        sums[-1] = [one >> expo, int(precision_bits < expo)]
    for start, signs, totients in odd_table_pieces(series_limit, sieve, mu,
                                                   phi, tiny):
        # Entry i is s = start + 2i.  An odd s <= S // 2 also stands for
        # 2s, with mu(2s) = -mu(s) and phi(2s) = phi(s).  Widened from
        # int32 to uint64, phi(s)^k is exact: phi(s) < s <=
        # 2 * MAX_SIEVE_LIMIT + 1, so phi(s)^2 < 2^56.
        paired = min(max((half - start) // 2 + 1, 0), signs.size)
        cut = min(max((tiny - start + 1) // 2, 0), signs.size)
        for begin, end, pairs in ((0, paired, True),
                                  (paired, signs.size, False)):
            for sign in (-1, 1):
                # Every odd s >= 3 and every partner is rounded.
                rounded = int(np.count_nonzero(signs[begin:end] == sign))
                sums[sign][1] += rounded
                if pairs:
                    sums[-sign][1] += rounded
                at = np.flatnonzero(signs[begin:min(cut, end)] == sign)
                if not at.size:
                    continue
                at += begin
                numer = totients[at].astype(np.uint64)
                numer **= k
                # at becomes the moduli s in place.
                at *= 2
                at += start
                totals, low = _stage_sums(numer, at.view(np.uint64), expo,
                                          precision_bits)
                sums[sign][0] += totals[-1]
                if pairs:
                    # q >> expo are the floors at the partners 2s.
                    sums[-sign][0] += (totals[-1] - low) >> expo
    # Where mu(s) = sign the terms -mu(s) phi(s)^k / s^(d+k) add -sign
    # times a sum in [q, q + rounded]; lo takes its low end, hi its high.
    lo = hi = 0
    for sign, (q, rounded) in sums.items():
        lo -= sign * q + (sign > 0) * rounded
        hi -= sign * q - (sign < 0) * rounded

    # Tail: each summand is below 1/s^d in absolute value, so the omitted
    # part is within sum over s > S of 1/s^d <= 1 / ((d-1) S^(d-1)).
    tail = _ceil_div(one, (d - 1) * series_limit ** (d - 1))
    value = Fraction(lo + hi, 2 * one)
    lower = Fraction(lo - tail, one)
    upper = Fraction(hi + tail, one)
    return DensityEstimate(kind=kind, degree=d, value=value, lower=lower,
                           upper=upper, truncation=("series_limit", series_limit),
                           method="mobius_series")


def theta_product(d: int, sieve: ArithSieve, *,
                  prime_count: int = DEFAULT_PRIME_COUNT,
                  precision_bits: int = DEFAULT_PRECISION_BITS) -> DensityEstimate:
    """Evaluate theta_d from its Euler product over the first primes.

    The product takes the first ``prime_count`` primes of the sieve
    (10,000 by default); the bracket encloses the full infinite product.
    """
    return _product_estimate("theta", d, sieve, prime_count, precision_bits)


def rho_product(d: int, sieve: ArithSieve, *,
                prime_count: int = DEFAULT_PRIME_COUNT,
                precision_bits: int = DEFAULT_PRECISION_BITS) -> DensityEstimate:
    """Euler-product evaluation of rho_d; see :func:`theta_product`."""
    return _product_estimate("rho", d, sieve, prime_count, precision_bits)


def theta_series(d: int, sieve: ArithSieve, *,
                 series_limit: int = DEFAULT_SERIES_LIMIT,
                 precision_bits: int = DEFAULT_PRECISION_BITS) -> DensityEstimate:
    """Evaluate theta_d from its alternating series over square-free moduli.

    Sums -mu(s) phi(s) / s^(d+1) for square-free s up to ``series_limit``
    with directed rounding, then widens the bracket by the tail bound
    1 / ((d-1) S^(d-1)).  Entirely independent of the product route, which
    is what makes cross-method agreement a meaningful check.
    """
    return _series_estimate("theta", d, sieve, series_limit, precision_bits)


def rho_series(d: int, sieve: ArithSieve, *,
               series_limit: int = DEFAULT_SERIES_LIMIT,
               precision_bits: int = DEFAULT_PRECISION_BITS) -> DensityEstimate:
    """Series evaluation of rho_d, summand -mu(s) phi(s)^2 / s^(d+2)."""
    return _series_estimate("rho", d, sieve, series_limit, precision_bits)


def asymptotic_main(kind: str, d: int) -> Fraction:
    """Leading closed-form approximation: 1/2^(d+1) for theta, 1/2^(d+2) for rho.

    The p = 2 factor dominates both products as d grows; the remaining
    factors contribute O(1/3^d).
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    check_degree(d)
    return Fraction(1, 2 ** (d + POWERS[kind]))


def refined_asymptotic_theta(d: int) -> Fraction:
    """Two-term approximation of theta_d: 1/2^(d+1) + 2/3^(d+1).

    Expanding the product over its two smallest primes: the p = 2 factor
    contributes 1/2^(d+1) and the p = 3 factor adds 2/3^(d+1) at the next
    order (the cross term and all later primes fall under O(1/(d 3^d))).
    Strictly sharper than :func:`asymptotic_main` for every d >= 3.
    """
    return asymptotic_main("theta", d) + Fraction(2, 3 ** (d + 1))
