"""Density estimate tests: brackets, truncations, asymptotics."""

import functools
import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eisencount
from eisencount.arith import (MAX_SIEVE_LIMIT, SEGMENT, SERIES_PIECE,
                              ArithSieve, build_sieve, euler_phi, mobius,
                              mobius_table, totient_table)
from eisencount.density import (GUARD_BITS, KINDS, POWERS, DensityEstimate,
                                _cached_power_sums, _exp_neg, _log_bracket,
                                _prime_power_sums, _stage_sums,
                                asymptotic_main, refined_asymptotic_theta,
                                rho_product, rho_series, theta_product,
                                theta_series)


def test_single_factor_products(big_sieve):
    est = theta_product(2, big_sieve, prime_count=1)
    # only the p=2 factor: value is 1 - 7/8 up to rounding, and the tail
    # bound degenerates to the whole of [value, 1]
    assert abs(est.value - Fraction(1, 8)) < Fraction(1, 2**90)
    assert est.upper == 1
    assert est.lower <= Fraction(1, 8)

    est = rho_product(2, big_sieve, prime_count=1)
    assert abs(est.value - Fraction(1, 16)) < Fraction(1, 2**90)
    assert est.upper == 1


def _reference_products(kind, d, sieve, stops, precisions):
    """The Euler-product loop over every prime, with no early exit or cut.

    Read out along the way at each of ``precisions``: ``stops`` maps a
    number of primes n to the point P its tail bound starts from; returns
    {(bits, n): (value, lower, upper)} after n factors.
    """
    k = POWERS[kind]
    one = {bits: 1 << bits for bits in precisions}
    lo = dict(one)
    hi = dict(one)
    out = {}
    for n, p in enumerate(sieve.primes[:max(stops)].tolist(), start=1):
        den = p ** (d + k)
        num = den - (p - 1) ** k
        for bits in precisions:
            lo[bits] = lo[bits] * num // den
            hi[bits] = -(-hi[bits] * num // den)
        if n in stops:
            P = stops[n]
            for bits in precisions:
                tail = -(-2 * one[bits] // ((d - 1) * P ** (d - 1)))
                full_lo = (max(0, lo[bits] * (one[bits] - tail) // one[bits])
                           if tail < one[bits] else 0)
                out[bits, n] = (1 - Fraction(lo[bits] + hi[bits], 2 * one[bits]),
                                1 - Fraction(hi[bits], one[bits]),
                                1 - Fraction(full_lo, one[bits]))
    return out


def _exact_product(kind, d, primes):
    """prod over ``primes`` of 1 - (p-1)^k / p^(d+k): (numerator, denominator)."""
    k = POWERS[kind]
    factors = [p ** (d + k) - (p - 1) ** k for p in primes]
    while len(factors) > 1:  # a product tree keeps the big products few
        factors = [math.prod(factors[i:i + 2])
                   for i in range(0, len(factors), 2)]
    return factors[0], math.prod(primes) ** (d + k)


# p_168 = 997 is the last prime below the cut B = 1024 at 96 bits.
PRODUCT_COUNTS = (1, 2, 50, 168, 10**4, 78_498)
PRODUCT_BITS = (60, 96, 200)


@pytest.fixture(scope="module")
def product_reference(big_sieve):
    """Per (kind, d): the reference loop at every PRODUCT_COUNTS entry, and
    the exact product at every count up to 10^4."""
    cache = {}

    def reference(kind, d):
        if (kind, d) not in cache:
            stops = {n: big_sieve.nth_prime(n) for n in PRODUCT_COUNTS}
            exact = {n: _exact_product(kind, d, big_sieve.primes[:n].tolist())
                     for n in PRODUCT_COUNTS[:5]}
            cache[kind, d] = (_reference_products(kind, d, big_sieve, stops,
                                                  PRODUCT_BITS), exact)
        return cache[kind, d]

    return reference


def _tracks(est, bits):
    """The integer tracks (lo, hi) of a product estimate, at scale 2^bits."""
    hi = (1 - est.lower) * (1 << bits)
    lo = 2 * (1 - est.value) * (1 << bits) - hi
    assert lo.denominator == hi.denominator == 1
    return int(lo), int(hi)


@pytest.mark.parametrize("bits", PRODUCT_BITS)
@pytest.mark.parametrize("fn", [theta_product, rho_product], ids=["theta", "rho"])
def test_product_early_exit_is_exact(big_sieve, product_reference, fn, bits):
    # Up to the cut B every prime is a factor of the loop, so the result is
    # bit for bit the full loop's.  Past it the tracks [lo, hi] must hold
    # the exact truncated product (checked by integer cross-multiplication)
    # and be no further apart than the full loop's.
    kind = fn.__name__.split("_")[0]
    cut = 1 << -(-(bits + GUARD_BITS) // 14)
    for d in range(2, 13):
        reference, exact = product_reference(kind, d)
        for n in PRODUCT_COUNTS:
            est = fn(d, big_sieve, prime_count=n, precision_bits=bits)
            want = reference[bits, n]
            if big_sieve.nth_prime(n) <= cut:
                assert (est.value, est.lower, est.upper) == want, (d, n)
                continue
            assert est.value - est.lower <= want[0] - want[1], (d, n)
            if n in exact:
                num, den = exact[n]
                lo, hi = _tracks(est, bits)
                assert lo * den <= num << bits <= hi * den, (d, n)


def test_product_values_at_default_truncation(big_sieve):
    known = {
        (theta_product, 2): 0.2515,
        (theta_product, 3): 0.0953,
        (theta_product, 10): 0.0005,
        (rho_product, 2): 0.1677,
        (rho_product, 3): 0.0556,
    }
    for (fn, d), printed in known.items():
        est = fn(d, big_sieve, prime_count=10000)
        assert abs(float(est.value) - printed) < 1e-4


def test_empty_series_is_a_pure_tail_bracket(big_sieve):
    # Endpoint is the ceiling of 1/(d-1) in 96-bit fixed point: never
    # tighter than the true tail, never more than one ulp wider.
    ulp = Fraction(1, 2**96)
    for d in (2, 3, 7):
        est = theta_series(d, big_sieve, series_limit=1)
        assert est.value == 0
        assert est.lower == -est.upper
        assert 0 <= est.upper - Fraction(1, d - 1) <= ulp
        est = rho_series(d, big_sieve, series_limit=1)
        assert est.value == 0
        assert 0 <= est.upper - Fraction(1, d - 1) <= ulp


@functools.cache
def _pointwise_terms(limit, sieve):
    """(s, mu(s), phi(s)) for the square-free 2 <= s <= limit, pointwise."""
    return [(s, m, euler_phi(s, sieve)) for s in range(2, limit + 1)
            if (m := mobius(s, sieve))]


def _reference_series_sum(kind, d, sieve, limits, precisions):
    """The directed-rounding sum over all square-free s, term by term.

    Read out at each of ``limits`` and each of ``precisions``: returns
    {(P, S): (value, lower, upper)} with the tail bound 1 / ((d-1) S^(d-1))
    on the bracket.
    """
    k = POWERS[kind]
    terms = ((s, m, phi ** k)
             for s, m, phi in _pointwise_terms(max(limits), sieve))
    stops = sorted(limits, reverse=True)
    lo = dict.fromkeys(precisions, 0)
    hi = dict.fromkeys(precisions, 0)
    out = {}
    for s, m, numer in [*terms, (max(limits) + 1, 0, 0)]:
        while stops and stops[-1] < s:
            S = stops.pop()
            for P in precisions:
                one = 1 << P
                tail = -(-one // ((d - 1) * S ** (d - 1)))
                out[P, S] = (Fraction(lo[P] + hi[P], 2 * one),
                             Fraction(lo[P] - tail, one),
                             Fraction(hi[P] + tail, one))
        if not m:
            break
        den = s ** (d + k)
        for P in precisions:
            q, r = divmod(numer << P, den)
            if m < 0:
                lo[P] += q
                hi[P] += q + (1 if r else 0)
            else:
                lo[P] -= q + (1 if r else 0)
                hi[P] -= q
    return out


# The series reads the odd moduli to S // 3 from its tables and computes
# those above, each in pieces of SERIES_PIECE.  3 * SERIES_PIECE ends one
# full computed piece (3 * SEGMENT two), and one more modulus starts the
# next; at 3 * SEGMENT + 3 the tables' slices end a full piece, and at
# + 9 one more starts.
SERIES_LIMITS = (1, 2, 3, SEGMENT + 1, SEGMENT + 2, 2 * SEGMENT + 2,
                 3 * SERIES_PIECE - 3, 3 * SERIES_PIECE, 3 * SERIES_PIECE + 1,
                 3 * SEGMENT, 3 * SEGMENT + 1, 3 * SEGMENT + 3,
                 3 * SEGMENT + 9)
SERIES_DEGREES = (2, 3, 6, 7, 10, 40, 100)
SERIES_BITS = (60, 61, 96, 127, 1024)


@pytest.fixture(scope="module")
def series_reference(big_sieve):
    """_reference_series_sum at every SERIES_LIMITS and SERIES_BITS entry."""
    cache = {}

    def reference(kind, d):
        if (kind, d) not in cache:
            cache[kind, d] = _reference_series_sum(
                kind, d, big_sieve, SERIES_LIMITS, SERIES_BITS)
        return cache[kind, d]

    return reference


@pytest.mark.parametrize("limit", SERIES_LIMITS)
@pytest.mark.parametrize("fn", [theta_series, rho_series], ids=["theta", "rho"])
def test_series_segments_sum_every_term_once(big_sieve, series_reference, fn,
                                             limit):
    # At limit 2 the one term, s = 2, divides exactly, so an inexact count
    # that is not read from the remainders widens the bracket by one ulp.
    kind = fn.__name__.split("_")[0]
    for d in SERIES_DEGREES:
        for bits in SERIES_BITS:
            est = fn(d, big_sieve, series_limit=limit, precision_bits=bits)
            want = series_reference(kind, d)[bits, limit]
            assert (est.value, est.lower, est.upper) == want, (d, bits)
            assert est.truncation == ("series_limit", limit)
            assert est.method == "mobius_series"


@pytest.mark.parametrize("limit", SERIES_LIMITS)
def test_series_from_the_smallest_sieve_is_bit_identical(series_reference,
                                                         limit):
    # The series reads the sieve only to S // 2; the moduli above come
    # from streamed pieces, whose spf the series marks itself.  The
    # reference is what the big sieve gives, as the test above asserts.
    small = build_sieve(max(limit // 2, 2))
    for fn in (theta_series, rho_series):
        kind = fn.__name__.split("_")[0]
        for d in (2, 3, 10):
            for bits in (60, 96, 1024):
                est = fn(d, small, series_limit=limit, precision_bits=bits)
                assert ((est.value, est.lower, est.upper)
                        == series_reference(kind, d)[bits, limit]), (kind, d)
    if limit // 2 - 1 >= 2:
        with pytest.raises(ValueError):
            theta_series(2, build_sieve(limit // 2 - 1), series_limit=limit)


_terms = st.lists(
    st.tuples(st.one_of(st.integers(2, 2 * MAX_SIEVE_LIMIT + 1),
                        st.just(2 * MAX_SIEVE_LIMIT + 1),
                        st.integers(1, 27).map(lambda e: 2**e)),
              st.one_of(st.integers(1, 2**56 - 1),
                        st.integers(0, 55).map(lambda e: 2**e))),
    max_size=40)


@settings(max_examples=300, deadline=None)
@given(terms=_terms, expo=st.integers(3, 12), bits=st.integers(60, 300))
# The series' largest modulus, 2 * MAX_SIEVE_LIMIT + 1, under 2^28.
@example(terms=[(2 * MAX_SIEVE_LIMIT + 1, 2**56 - 1), (2, 1),
                (2**27, 2**55)], expo=12, bits=300)
# numer * 2^P at and just under s^expo = 2^312: q = 1, exact, for 2^12 and
# q = 0 for 2^12 - 1; at s = 2^27 - 1, whose s^expo is above 2^323, both
# are 0.
@example(terms=[(2**26, 2**12 - 1), (2**26, 2**12), (2**27 - 1, 2**12 - 1),
                (2**27 - 1, 2**12)], expo=12, bits=300)
# A stage whose remainders are all 0 takes the limb as its remainder when
# every limb is below s: the leading limb s - 1 takes that shortcut and s
# does not, with P mod 32 = 0 (the limb is numer's high word) and not.
@example(terms=[(10**6, ((10**6 - 1) << 32) + 5)], expo=3, bits=96)
@example(terms=[(10**6, (10**6 << 32) + 5)], expo=3, bits=96)
@example(terms=[(10**6, ((10**6 - 1) << 28) + 3)], expo=3, bits=100)
@example(terms=[(10**6, (10**6 << 28) + 3)], expo=3, bits=100)
def test_limb_floor_sum_matches_python_division(terms, expo, bits):
    s = np.array([t[0] for t in terms], dtype=np.int64)
    numer = np.array([t[1] for t in terms], dtype=np.int64)
    totals = _stage_sums(numer.astype(np.uint64), s.astype(np.uint64), expo,
                         bits)[0]
    assert totals == [sum((n << bits) // m ** j for m, n in terms)
                      for j in range(1, expo + 1)]


# floor(numer * 2^P / (2s)^e) against the partner the kernel gives at s:
# q(s) >> e.
@settings(max_examples=200, deadline=None)
@given(terms=_terms, expo=st.integers(3, 102), bits=st.integers(60, 1024))
# s on both sides of 2^16, 2^20 and 2^27 in one call (L = 36), and calls
# whose largest s sits just below and at each power (L = 48 and 47, 44 and
# 43, 37 and 36).
@example(terms=[(2**16 - 1, 2**56 - 1), (2**16 + 1, 3), (2**20 - 1, 2**40),
                (2**20 + 1, 2**56 - 1), (2**27 - 1, 5), (2**27 + 1, 2**55)],
         expo=3, bits=96)
@example(terms=[(3, 2**56 - 1), (2**16 - 1, 2**32 + 1)], expo=3, bits=97)
@example(terms=[(3, 2**56 - 1), (2**16, 2**32 + 1)], expo=3, bits=97)
@example(terms=[(5, 2**44 - 1), (2**20 - 1, 2**40 + 7)], expo=4, bits=96)
@example(terms=[(5, 2**44 - 1), (2**20, 2**40 + 7)], expo=4, bits=96)
@example(terms=[(7, 2**56 - 1), (2**27 - 1, 2**54 + 1)], expo=4, bits=200)
@example(terms=[(7, 2**56 - 1), (2**27, 2**54 + 1)], expo=4, bits=200)
# e > L at 1024 bits: theta and rho at d = 40 (with s near 2^27, so
# L = 36) and d = 100, whose low e bits of q(s) span several limbs.
@example(terms=[(3, 2), (5, 4), (3 * 5 * 7, 48), (2**27 - 1, 2**26)],
         expo=41, bits=1024)
@example(terms=[(3, 4), (5, 16), (3 * 5 * 7, 48**2), (2**27 - 1, 2**52)],
         expo=42, bits=1024)
@example(terms=[(3, 2), (5, 4), (7, 6), (11, 10)], expo=101, bits=1024)
@example(terms=[(3, 4), (5, 16), (7, 36), (11, 100)], expo=102, bits=1024)
# q(s) = 2^e exactly: its partner is 1 and exact.
@example(terms=[(3, 3**5)], expo=5, bits=5)
def test_partner_floors_match_python_division(terms, expo, bits):
    s = np.array([t[0] for t in terms], dtype=np.uint64)
    numer = np.array([t[1] for t in terms], dtype=np.uint64)
    at_s = [(n << bits) // m ** expo for m, n in terms]
    at_2s = [(n << bits) // (2 * m) ** expo for m, n in terms]
    totals, low = _stage_sums(numer, s, expo, bits)
    assert totals[-1] == sum(at_s)
    assert low == sum(q % 2**expo for q in at_s)
    assert (totals[-1] - low) >> expo == sum(at_2s)


def test_stage_column_sums_stay_exact_over_a_full_segment():
    # SEGMENT terms at s = 3 take 48-bit limbs.  Here the largest quotient
    # digits are just under 2^48, so their columns sum to just under 2^64,
    # which 49-bit limbs would carry past.
    numer, s = (2**56 - 1) * 9 // 16, 3
    q = [(numer << 96) // s**j for j in (1, 2, 3)]
    totals, low = _stage_sums(np.full(SEGMENT, numer, np.uint64),
                              np.full(SEGMENT, s, np.uint64), 3, 96)
    assert totals == [SEGMENT * x for x in q]
    assert low == SEGMENT * (q[-1] % 2**3)


@pytest.mark.parametrize("limit", [2, 3, 4])
def test_series_at_the_first_partners_matches_the_reference(big_sieve, limit):
    # s = 2 pairs with m = 1, which is no term; 3 is odd with no partner
    # up to 4, and 4 is not square-free.  Its floor 2^(P-e) is inexact at
    # d = 100 and 60 bits (P < e) and 1, exact, at d = 59 with P = e.
    bits_list = (60, 61, 96, 1024)
    for fn in (theta_series, rho_series):
        kind = fn.__name__.split("_")[0]
        for d in (2, 3, 40, 59, 100):
            want = _reference_series_sum(kind, d, big_sieve, [limit],
                                         bits_list)
            for bits in bits_list:
                est = fn(d, big_sieve, series_limit=limit, precision_bits=bits)
                assert (est.value, est.lower, est.upper) == want[bits, limit]


@pytest.mark.parametrize("fn", [theta_series, rho_series], ids=["theta", "rho"])
def test_series_rounds_every_term_but_s_2(big_sieve, fn):
    # An odd square-free s >= 3 is prime to 2^P, and phi(s)^k < s^(d+k),
    # so s^(d+k) cannot divide phi(s)^k 2^P: its term and that of its
    # partner 2s are rounded.  Only s = 2, floor 2^(P-e), can be exact.
    # So the rounding width, less the tail, is a count of moduli.
    k = POWERS[fn.__name__.split("_")[0]]
    odd = [s for s in range(3, 5000, 2) if mobius(s, big_sieve)]
    for d in (2, 3, 10, 59, 100):
        for limit in (1, 2, 3, 4, 7, 30, 1000, 4999):
            for bits in (60, 96, 200):
                est = fn(d, big_sieve, series_limit=limit, precision_bits=bits)
                tail = -(-2**bits // ((d - 1) * limit ** (d - 1)))
                want = (sum(s <= limit for s in odd)
                        + sum(s <= limit // 2 for s in odd)
                        + (limit >= 2 and bits < d + k))
                assert est.width * 2**bits - 2 * tail == want, (d, limit, bits)


@pytest.mark.parametrize("d", [6, 10, 100])
def test_series_divides_only_below_its_cut(big_sieve, series_reference,
                                           monkeypatch, d):
    # As phi(s) < s, each term with s >= 2^ceil(P/d) is below 2^P / s^d
    # <= 1 unit: floor 0 and inexact, with no division.  At 96 bits the
    # cut is 2^16 = S // 3 at d = 6, the end of the stored slices, 2^10
    # at d = 10 and 2 at d = 100, where no term divides.  Only the series
    # runs here, so every long division recorded is the series'.
    largest = []

    def recorded(numer, s, expo, precision_bits):
        largest.append(int(s.max()))
        return _stage_sums(numer, s, expo, precision_bits)

    monkeypatch.setattr(eisencount.density, "_stage_sums", recorded)
    limit = 3 * SEGMENT
    for fn in (theta_series, rho_series):
        kind = fn.__name__.split("_")[0]
        est = fn(d, big_sieve, series_limit=limit, precision_bits=96)
        assert ((est.value, est.lower, est.upper)
                == series_reference(kind, d)[96, limit])
    cut = 1 << -(-96 // d)
    assert max(largest, default=0) < cut
    assert bool(largest) == (cut > 3)


def _prime_at_most(n):
    """The largest prime <= n, for 2 <= n, by trial division."""
    while any(n % q == 0 for q in range(2, math.isqrt(n) + 1)):
        n -= 1
    return n


def _sieve_of(primes):
    """A stand-in sieve that holds just these ascending primes."""
    sieve = ArithSieve(limit=max(primes, default=2), root_primes=())
    # Preset the cached property, which would otherwise mark every prime.
    vars(sieve)["primes"] = np.array(primes, dtype=np.int64)
    return sieve


@settings(max_examples=150, deadline=None)
@given(primes=st.lists(st.one_of(st.integers(2, MAX_SIEVE_LIMIT),
                                 st.integers(2, 3000)).map(_prime_at_most),
                       max_size=30).map(sorted),
       first=st.integers(0, 30), bits=st.integers(60, 300))
@example(primes=[2, 3, 1031, 99_999_989], first=0, bits=96)
def test_prime_power_sums_match_python_division(primes, first, bits):
    bits += GUARD_BITS
    _cached_power_sums.cache_clear()
    sums = _prime_power_sums(_sieve_of(primes), first, len(primes), bits)
    assert sums[-1] == 0 and 0 not in sums[:-1]
    for s in range(41):
        want = sum(2**bits // p**s for p in primes[first:])
        assert (sums[s] if s < len(sums) else 0) == want, s


def _python_power_sums(primes, bits):
    """_prime_power_sums by Python division, one prime at a time."""
    want = [0] * (bits + 2)
    for p in primes:
        q, s = 1 << bits, 0
        while q:
            want[s] += q
            q, s = q // p, s + 1
    return tuple(want[:want.index(0) + 1])


def test_prime_power_sums_over_many_pieces(big_sieve):
    # The first 70,000 primes cross index SEGMENT and bit lengths 2 to 20.
    # Above 2^20 the 73,586 primes of 21 bits take 7 stages, so they split
    # into eight pieces of at most SEGMENT // 7.
    bits = 96 + GUARD_BITS
    _cached_power_sums.cache_clear()
    assert (_prime_power_sums(big_sieve, 0, 70_000, bits)
            == _python_power_sums(big_sieve.primes[:70_000].tolist(), bits))
    sieve = build_sieve(1 << 21)
    first = int(np.searchsorted(sieve.primes, 1 << 20))
    assert sieve.primes.size - first > SEGMENT
    assert (_prime_power_sums(sieve, first, sieve.primes.size, bits)
            == _python_power_sums(sieve.primes[first:].tolist(), bits))


def test_power_sums_cache_keeps_no_sieve_alive():
    sieve = build_sieve(110_000)
    theta_product(2, sieve, prime_count=10**4)
    assert _cached_power_sums.cache_info().currsize == 1
    ref = weakref.ref(sieve)
    del sieve
    gc.collect()
    assert ref() is None


def _remainder(d, M, cut):
    """The bound on sum over m > M of (1/m) sum_{p > cut} x_p^m."""
    return (Fraction(cut) ** (1 - d * (M + 1))
            / ((d * (M + 1) - 1) * (M + 1) * (1 - Fraction(cut) ** -d)))


@pytest.mark.parametrize("bits", [92, 128, 232, 332])
@pytest.mark.parametrize("d", [2, 3, 7, 40])
@pytest.mark.parametrize("kind", KINDS)
def test_log_bracket_holds_the_exact_log_sum(kind, d, bits):
    # L = sum over m of (1/m) sum_p x_p^m lies between the sum to m = 12
    # (M <= 8 always) and that sum plus the bound on the rest.
    k = POWERS[kind]
    cut = 1 << -(-bits // 14)
    primes = [p for p in range(cut + 1, cut + 200)
              if _prime_at_most(p) == p][:8] + [99_999_989]
    sums = _prime_power_sums(_sieve_of(primes), 0, len(primes), bits)
    low, high = _log_bracket(d, k, sums, len(primes), bits, cut)
    partial = sum(Fraction((p - 1) ** k, p ** (d + k)) ** m / m
                  for p in primes for m in range(1, 13))
    assert 0 <= low <= partial
    assert partial + _remainder(d, 12, cut) <= high
    assert high - low < Fraction(1, 2 ** (bits - 24))
    # With no primes, L = 0 and the bracket is the remainder bound alone,
    # after the least M that brings it under 2^-bits.
    M = next(m for m in range(1, 20)
             if _remainder(d, m, cut) < Fraction(1, 2**bits))
    assert _log_bracket(d, k, (0,), 0, bits, cut) == (0, _remainder(d, M, cut))


_exponents = st.one_of(st.fractions(0, 1).filter(lambda f: f < 1),
                       st.integers(1, 2**40).map(lambda n: Fraction(n, 2**300)),
                       st.just(Fraction(0)))


def _exp_neg_enclosure(x):
    """An interval around exp(-x) about 2^-4000 wide, as exact fractions."""
    iv = pytest.importorskip("mpmath").iv
    to_rational = pytest.importorskip("mpmath.libmp").to_rational
    iv.prec = 4000
    value = iv.exp(-iv.mpf(x.numerator) / x.denominator)
    return tuple(Fraction(*to_rational(end)) for end in value._mpi_)


@settings(max_examples=100, deadline=None)
@given(xs=st.lists(_exponents, min_size=1, max_size=2).map(sorted),
       bits=st.integers(60, 400))
def test_exp_neg_brackets_the_exponential(xs, bits):
    low, high = xs[0], xs[-1]
    down, up = _exp_neg(low, high, bits)
    assert down <= _exp_neg_enclosure(high)[0]
    assert _exp_neg_enclosure(low)[1] <= up
    if low == high:
        assert up - down < Fraction(1, 2**bits)


def test_series_values_at_moderate_truncation(big_sieve):
    assert abs(float(theta_series(3, big_sieve, series_limit=10**5).value)
               - 0.0953) < 1e-4
    assert abs(float(rho_series(3, big_sieve, series_limit=10**5).value)
               - 0.0556) < 1e-4


def test_series_bracket_width_is_documented(big_sieve):
    for d, S in ((2, 1000), (3, 500), (5, 100)):
        est = theta_series(d, big_sieve, series_limit=S)
        tail = Fraction(2, (d - 1) * S ** (d - 1))
        rounding = Fraction(4 * S + 8, 2**96)
        assert est.width <= tail + rounding


def test_product_bracket_width_is_documented(big_sieve):
    for d, count in ((2, 100), (3, 1000), (4, 10000)):
        est = theta_product(d, big_sieve, prime_count=count)
        P = big_sieve.nth_prime(count)
        tail = Fraction(2, (d - 1) * P ** (d - 1))
        rounding = Fraction(4 * count + 8, 2**96)
        assert est.width <= tail + rounding


def test_coarse_brackets_contain_fine_values(big_sieve):
    # a rigorous bracket at low truncation must contain the better value
    for kind_product, kind_series in ((theta_product, theta_series),
                                      (rho_product, rho_series)):
        for d in (2, 3, 5):
            coarse = kind_product(d, big_sieve, prime_count=50)
            fine = kind_product(d, big_sieve, prime_count=10000)
            assert coarse.lower <= fine.value <= coarse.upper
            coarse = kind_series(d, big_sieve, series_limit=2000)
            fine = kind_series(d, big_sieve, series_limit=10**5)
            assert coarse.lower <= fine.value <= coarse.upper


def test_product_and_series_brackets_overlap(big_sieve):
    for d in (2, 4):
        a = theta_product(d, big_sieve, prime_count=10000)
        b = theta_series(d, big_sieve, series_limit=10**5)
        assert max(a.lower, b.lower) <= min(a.upper, b.upper)


def test_values_decrease_in_degree_and_rho_below_theta(big_sieve):
    prev_theta = prev_rho = Fraction(1)
    for d in range(2, 13):
        th = theta_product(d, big_sieve, prime_count=1000).value
        rh = rho_product(d, big_sieve, prime_count=1000).value
        assert th < prev_theta
        assert rh < prev_rho
        assert rh < th
        prev_theta, prev_rho = th, rh


def test_more_primes_push_the_value_up(big_sieve):
    for fn in (theta_product, rho_product):
        small = fn(3, big_sieve, prime_count=1000).value
        large = fn(3, big_sieve, prime_count=10000).value
        assert small < large


def test_asymptotic_main_values():
    assert asymptotic_main("theta", 2) == Fraction(1, 8)
    assert asymptotic_main("theta", 10) == Fraction(1, 2048)
    assert asymptotic_main("rho", 2) == Fraction(1, 16)
    assert float(asymptotic_main("theta", 10)) == pytest.approx(0.000488, abs=1e-6)


def test_refined_asymptotic_closed_form():
    assert refined_asymptotic_theta(2) == Fraction(1, 8) + Fraction(2, 27)
    assert refined_asymptotic_theta(10) == Fraction(1, 2048) + Fraction(2, 177147)


def test_refined_asymptote_beats_the_crude_one(big_sieve):
    for d in range(3, 13):
        theta = theta_product(d, big_sieve, prime_count=2000).value
        crude = abs(theta - asymptotic_main("theta", d))
        refined = abs(theta - refined_asymptotic_theta(d))
        assert refined < crude


def test_validation_errors(big_sieve):
    with pytest.raises(ValueError):
        theta_product(1, big_sieve)
    with pytest.raises(ValueError):
        theta_product(2, big_sieve, prime_count=big_sieve.primes.size + 1)
    with pytest.raises(ValueError):
        theta_series(2, big_sieve, series_limit=2 * big_sieve.limit + 2)
    with pytest.raises(ValueError):
        theta_series(2, big_sieve, series_limit=0)
    with pytest.raises(ValueError):
        theta_series(2, big_sieve, precision_bits=59)
    with pytest.raises(ValueError):
        asymptotic_main("sigma", 3)
    with pytest.raises(ValueError):
        asymptotic_main("theta", 1)
    with pytest.raises(ValueError):
        refined_asymptotic_theta(1)


def test_estimate_container_validation():
    good = dict(kind="theta", degree=2, value=Fraction(1, 4),
                lower=Fraction(1, 5), upper=Fraction(1, 3),
                truncation=("prime_count", 10), method="euler_product")
    DensityEstimate(**good)
    with pytest.raises(ValueError):
        DensityEstimate(**{**good, "kind": "delta"})
    with pytest.raises(ValueError):
        DensityEstimate(**{**good, "method": "guesswork"})
    with pytest.raises(ValueError):
        DensityEstimate(**{**good, "lower": Fraction(1, 3),
                           "upper": Fraction(1, 5)})


def test_bracket_fields_are_exact_fractions(big_sieve):
    est = theta_product(2, big_sieve, prime_count=100)
    assert isinstance(est.value, Fraction)
    assert isinstance(est.lower, Fraction)
    assert isinstance(est.upper, Fraction)
    assert est.lower <= est.value <= est.upper
    assert est.truncation == ("prime_count", 100)


def test_higher_precision_narrows_or_matches_rounding(big_sieve):
    wide = theta_series(3, big_sieve, series_limit=5000, precision_bits=60)
    narrow = theta_series(3, big_sieve, series_limit=5000, precision_bits=128)
    assert narrow.width <= wide.width
    # both enclose the same constant
    assert max(wide.lower, narrow.lower) <= min(wide.upper, narrow.upper)


# Run in a child, whose memory holds only what the series or product needs.
# The child reads its own resident size after a warm-up call and then at
# its peak (VmRSS, VmHWM): ru_maxrss would carry over the test runner's
# size across exec, and tracemalloc slows the 600,000-term loop about
# 30-fold.
_RSS_RISE = """
import sys
from eisencount.arith import build_sieve
from eisencount.density import theta_product, theta_series

def kib(field):
    with open("/proc/self/status") as status:
        line = next(l for l in status if l.startswith(field + ":"))
    return int(line.split()[1])

limit, bits = map(int, sys.argv[2:])
sieve = build_sieve(limit)
if sys.argv[1] == "series":
    evaluate, size, small, full = theta_series, "series_limit", 2, limit
else:
    evaluate, size = theta_product, "prime_count"
    small, full = 200, len(sieve.primes)
evaluate(2, sieve, **{size: small}, precision_bits=bits)
before = kib("VmRSS")
evaluate(2, sieve, **{size: full}, precision_bits=bits)
print(kib("VmHWM") - before)
"""


def _rss_rise(route, limit, bits):
    """Bytes the peak resident size rises by in a child; see _RSS_RISE."""
    src = str(Path(eisencount.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _RSS_RISE, route, str(limit),
                          str(bits)], env=env, capture_output=True,
                         text=True, check=True).stdout
    return int(out) * 1024


@pytest.mark.parametrize("bits", [96, 4096])
def test_series_peak_memory_stays_near_its_tables(bits):
    # mu and phi to 10^6 // 3 are 0.33 MB (int8) and 1.3 MB (int32); the
    # rest is one SEGMENT of terms at a time.  The rise is 4.8 MB at both
    # widths (5.4 MB with the tables to 10^6 // 2 and 7.7 MB to 10^6),
    # against 18.4 MB with full-length int64 tables, which this bound
    # refuses.  Lists of every term at once took 9.9 times an int64
    # table.  At 4096 bits, 93 zero limbs of 44 bits follow the
    # numerator's: they stream through the remainders, where a limbs x
    # terms matrix of one call would take 94 * 8 bytes for each of its
    # ~26,000 terms.
    assert _rss_rise("series", 10**6, bits) <= 12 * 10**6


def test_series_streams_the_upper_half_of_its_terms(big_sieve):
    # The tables hold the odd moduli up to S // 3 (int8 mu and int32 phi,
    # 5 bytes an odd modulus); the odd moduli above come one piece at a
    # time, and the even ones from their odd halves.  The rest of the peak
    # is one piece and one call of the kernel, for a peak of 2.9 MB (3.9 MB
    # with pieces of SEGMENT).  Full tables to S // 3 would add 1.7 MB;
    # this bound refuses them.
    S = 2 * 10**6
    tracemalloc.start()
    try:
        rho_series(2, big_sieve, series_limit=S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * ((S // 3 + 1) // 2) + 5 * 8 * SEGMENT


def test_series_pieces_hold_half_a_segment_of_terms(big_sieve):
    # Beyond its mu and phi tables (1.67 MB at S // 3), rho_2 holds one
    # piece of SERIES_PIECE odd moduli and its stage sums: d + k + 4 = 8
    # uint64 arrays over the piece's terms, and _piece's int32 temporaries.
    # That comes to 1.28 MB; pieces of SEGMENT held 2.24 MB.
    S = 2 * 10**6
    tables = (mobius_table(S // 3, big_sieve).nbytes
              + totient_table(S // 3, big_sieve).nbytes)
    tracemalloc.start()
    try:
        rho_series(2, big_sieve, series_limit=S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - tables < 1.5 * 10**6


def test_power_sum_pieces_hold_at_most_a_segment_of_remainders(big_sieve):
    # At 96 + 32 bits the 35,108 primes from 2^19 to 10^6 run 7 stages.
    # Pieces of SEGMENT // 7 primes keep the remainders within SEGMENT
    # uint64 entries (0.5 MB), and the peak is 0.86 MB; one piece of all
    # of them took 1.97 MB of remainders and peaked at 3.18 MB.
    primes = big_sieve.primes
    _cached_power_sums.cache_clear()
    tracemalloc.start()
    try:
        _prime_power_sums(big_sieve, 0, primes.size, 96 + GUARD_BITS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * SEGMENT


def test_power_sum_pass_peak_memory_stays_within_pieces():
    # All 664,579 primes below 10^7: the pass holds the stages of one piece
    # of at most SEGMENT primes at a time.  Limbs of every prime at once
    # raised the peak by 45.6 MiB.
    assert _rss_rise("product", 10**7, 96) <= 24 * 10**6
