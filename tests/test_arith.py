"""Sieve construction and multiplicative function tests."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eisencount import arith, counting, results
from eisencount.arith import (SEGMENT, SERIES_PIECE, build_sieve, euler_phi, factorize,
                              mobius, mobius_table, omega, phi_bounded, tau,
                              totient_table)
from eisencount.counting import (count_general_eisenstein,
                                 count_monic_eisenstein, sieve_limit)
from eisencount.density import (rho_product, rho_series, theta_product,
                                theta_series)
from eisencount.errors import BudgetExceededError
from eisencount.report import density_table, error_term_profile


def test_build_sieve_small_table():
    s = build_sieve(10)
    expected = {2: 2, 3: 3, 4: 2, 5: 5, 6: 2, 7: 7, 8: 2, 9: 3, 10: 2}
    for n, p in expected.items():
        assert s.spf[n] == p
    assert s.primes.tolist() == [2, 3, 5, 7]


def test_build_sieve_minimal_limit():
    s = build_sieve(2)
    assert s.primes.tolist() == [2]
    assert s.limit == 2


def test_build_sieve_prime_count_at_million(big_sieve):
    assert big_sieve.primes.size == 78498


def test_build_sieve_rejects_bad_limits():
    with pytest.raises(ValueError):
        build_sieve(1)
    with pytest.raises(BudgetExceededError):
        build_sieve(10**9)
    with pytest.raises(BudgetExceededError):
        build_sieve(5000, max_limit=4999)


def test_build_sieve_peak_memory_stays_near_its_result():
    # build_sieve allocates neither array.  The prime list is flagged a
    # piece of SEGMENT odd n at a time, one byte each, into one array
    # sized by Dusart's bound: it peaks about 170 KB above its result at
    # 10^6, one piece of flags and one of indices, under one int32 piece
    # of spf marks (the 256 KB that int32 marks over every n took, beside
    # their indices, for a peak 430 KB above the result).  spf is marked
    # in place, with no full-length temporary beside it.
    piece = SEGMENT * np.dtype(np.int32).itemsize
    tracemalloc.start()
    try:
        s = build_sieve(10**6)
        _, sieve_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        primes = s.primes
        _, primes_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        spf = s.spf
        _, spf_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sieve_peak <= piece
    assert primes_peak <= primes.nbytes + piece
    assert spf_peak <= spf.nbytes + primes.nbytes + piece


def _reference_sieve(limit):
    """The compare-and-mask construction: each prime marks what is unmarked."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p:: p]
            block[block == 0] = p
    primes = np.flatnonzero(spf[2:] == 0) + 2
    spf[primes] = primes
    return spf, primes


# The prime list flags the odd n in pieces that start at 3 + 2 * SEGMENT * j,
# so a limit of 2 * SEGMENT * j + 1 ends them with a full piece and one of
# 2 * SEGMENT * j + 3 with a piece of a single n.
@pytest.mark.parametrize("limits", [
    range(2, 301), range(2**16 - 2, 2**16 + 3), range(257**2 - 1, 257**2 + 2),
    range(2 * SEGMENT - 2, 2 * SEGMENT + 4),
    range(4 * SEGMENT - 2, 4 * SEGMENT + 4),
], ids=["2..300", "around-2^16", "around-257^2", "around-2*SEGMENT",
        "around-4*SEGMENT"])
def test_build_sieve_matches_the_compare_and_mask_sieve(limits):
    for limit in limits:
        s = build_sieve(limit)
        spf, primes = _reference_sieve(limit)
        assert s.spf.dtype == spf.dtype and np.array_equal(s.spf, spf), limit
        assert (s.primes.dtype == primes.dtype
                and np.array_equal(s.primes, primes)), limit


def test_no_computation_builds_the_spf_table():
    # The product reads the primes, the series and the counts their
    # tables, which mark spf a piece at a time; single integers (the
    # scalar functions, the general head, the Mertens part of monic
    # counts) are factored by the root primes.
    limit = 3 * SEGMENT + 5
    s = build_sieve(limit)
    for product in (theta_product, rho_product):
        product(3, s, prime_count=2000)
    for series in (theta_series, rho_series):
        series(3, s, series_limit=2 * limit + 1)
    density_table(2, 4, s, prime_count=2000)
    for H in (3, 4, 1000, limit):
        count_monic_eisenstein(3, H, s)
    count_general_eisenstein(3, limit, s)
    for variant in ("monic", "general"):
        error_term_profile(variant, 2, [100, 10**4], s, prime_count=2000)
    for fn in (factorize, mobius, euler_phi, omega, tau):
        fn(limit, s)
    phi_bounded(limit, 10**6, s)
    assert "spf" not in vars(s)
    spf, primes = _reference_sieve(limit)
    assert s.spf.dtype == spf.dtype and np.array_equal(s.spf, spf)
    assert np.array_equal(s.primes, primes)
    with pytest.raises(ValueError):
        s.spf[2] = 99


def test_max_limit_cannot_raise_the_hard_cap(monkeypatch):
    # A tiny cap stands in for the real one, so a refusal that came too
    # late would allocate kilobytes, not gigabytes.  The cap lives in
    # results, whose check build_sieve calls.
    monkeypatch.setattr(results, "MAX_SIEVE_LIMIT", 1000)
    assert build_sieve(1000).limit == 1000
    with pytest.raises(BudgetExceededError):
        build_sieve(1001)
    with pytest.raises(BudgetExceededError):
        build_sieve(1001, max_limit=10**10)


def test_sieve_structural_invariants(sieve):
    spf = sieve.spf
    ns = np.arange(2, sieve.limit + 1)
    assert np.all(ns % spf[2:] == 0), "spf entries must divide their index"
    # spf[n] == n exactly on the primes, and the prime list matches.
    fixed = ns[spf[2:] == ns]
    assert fixed.tolist() == sieve.primes.tolist()
    assert np.all(np.diff(sieve.primes) > 0)


def test_sieve_arrays_are_read_only(sieve):
    with pytest.raises(ValueError):
        sieve.spf[2] = 99
    with pytest.raises(ValueError):
        sieve.primes[0] = 1


def test_nth_prime(big_sieve):
    assert big_sieve.nth_prime(1) == 2
    assert big_sieve.nth_prime(25) == 97
    assert big_sieve.nth_prime(10000) == 104729
    with pytest.raises(ValueError):
        big_sieve.nth_prime(0)
    with pytest.raises(ValueError):
        big_sieve.nth_prime(big_sieve.primes.size + 1)
    with pytest.raises(ValueError):
        big_sieve.primes[:25][0] = 3


def test_factorize_cases(sieve):
    assert factorize(1, sieve).pairs == ()
    assert factorize(12, sieve).pairs == ((2, 2), (3, 1))
    assert factorize(97, sieve).pairs == ((97, 1),)


def test_factorize_roundtrip_exhaustive(sieve):
    for n in range(1, 2001):
        f = factorize(n, sieve)
        assert math.prod(p**e for p, e in f.pairs) == n
        primes = [p for p, _ in f.pairs]
        assert primes == sorted(set(primes))


# Trial division ends either at 1 or at a prime cofactor.  The examples
# take both ends of the range, the largest prime, the square of the
# largest prime up to the square root, and twice the largest prime up to
# half the limit, which is odd so that its half rounds down.
ODD_LIMIT = 2 * SEGMENT + 3


def _largest_prime_at_most(n):
    return next(m for m in range(n, 1, -1)
                if all(m % p for p in range(2, math.isqrt(m) + 1)))


@pytest.fixture(scope="module")
def odd_sieves():
    return build_sieve(ODD_LIMIT), _reference_sieve(ODD_LIMIT)[0]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=ODD_LIMIT))
@example(n=1)
@example(n=ODD_LIMIT)
@example(n=_largest_prime_at_most(ODD_LIMIT))
@example(n=_largest_prime_at_most(math.isqrt(ODD_LIMIT)) ** 2)
@example(n=2 * _largest_prime_at_most(ODD_LIMIT // 2))
def test_factorize_matches_the_spf_walk(n, odd_sieves):
    sieve, spf = odd_sieves
    pairs, m = [], n
    while m > 1:
        p, e = int(spf[m]), 0
        while m % p == 0:
            m, e = m // p, e + 1
        pairs.append((p, e))
    assert factorize(n, sieve).pairs == tuple(pairs)


def test_range_checks(sieve):
    for fn in (factorize, mobius, euler_phi, omega, tau):
        with pytest.raises(ValueError):
            fn(0, sieve)
        with pytest.raises(ValueError):
            fn(sieve.limit + 1, sieve)


def test_mobius_cases(sieve):
    assert mobius(1, sieve) == 1
    assert mobius(2, sieve) == -1
    assert mobius(6, sieve) == 1
    assert mobius(12, sieve) == 0


def test_euler_phi_cases(sieve):
    assert euler_phi(1, sieve) == 1
    assert euler_phi(7, sieve) == 6
    assert euler_phi(12, sieve) == 4


def test_omega_and_radical_and_tau(sieve):
    assert omega(1, sieve) == 0
    assert omega(12, sieve) == 2
    assert omega(30, sieve) == 3
    # The radical, from the distinct primes of the factorization.
    for n, rad in ((1, 1), (12, 6), (8, 2)):
        assert math.prod(p for p, _e in factorize(n, sieve).pairs) == rad
    assert tau(1, sieve) == 1
    assert tau(12, sieve) == 6
    assert tau(97, sieve) == 2


def _divisors(n, sieve):
    divs = [1]
    for p, e in factorize(n, sieve).pairs:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def test_mobius_over_divisors_identity(sieve):
    # sum of mu(d)/d over d | n equals phi(n)/n, in exact rationals
    for n in range(1, 301):
        total = sum(Fraction(mobius(d, sieve), d) for d in _divisors(n, sieve))
        assert total == Fraction(euler_phi(n, sieve), n)


def test_abs_mobius_sum_counts_squarefree_divisors(sieve):
    for n in range(1, 301):
        total = sum(abs(mobius(d, sieve)) for d in _divisors(n, sieve))
        assert total == 2 ** omega(n, sieve)


def test_two_power_omega_below_tau_to_a_million(big_sieve):
    spf = big_sieve.spf.tolist()
    for n in range(2, 10**6 + 1):
        m = n
        t = 1
        w = 0
        while m > 1:
            p = spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            w += 1
            t *= e + 1
        if (1 << w) > t:
            pytest.fail(f"2^omega exceeds tau at n={n}")
    # the inline walk agrees with the public functions on a sample
    for n in (2, 97, 360, 4096, 30030, 999983):
        assert tau(n, big_sieve) >= 2 ** omega(n, big_sieve)


def test_phi_bounded_examples(sieve):
    assert phi_bounded(1, 5, sieve) == 11
    assert phi_bounded(6, 10, sieve) == 6
    assert phi_bounded(2, 0, sieve) == 0
    assert phi_bounded(2, 5, sieve) == 6


def test_phi_bounded_rejects_bad_args(sieve):
    with pytest.raises(ValueError):
        phi_bounded(0, 5, sieve)
    with pytest.raises(ValueError):
        phi_bounded(2, -1, sieve)


def test_phi_bounded_matches_cycle_counting(sieve):
    # Independent route: coprime residues repeat with period s, so count
    # whole cycles plus a prefix, then mirror to negative a.
    for s in range(1, 201):
        coprime = [math.gcd(r, s) == 1 for r in range(s)]
        prefix = [0]
        for r in range(1, s):
            prefix.append(prefix[-1] + coprime[r])
        phi_s = euler_phi(s, sieve)
        for H in range(0, 201):
            positive = (H // s) * phi_s + prefix[H % s]
            expected = 2 * positive + (1 if s == 1 else 0)
            assert phi_bounded(s, H, sieve) == expected


@given(s=st.integers(min_value=2, max_value=9999),
       H=st.integers(min_value=0, max_value=10**6))
def test_phi_bounded_always_even_for_s_at_least_2(s, H, sieve):
    assert phi_bounded(s, H, sieve) % 2 == 0


@settings(max_examples=60)
@given(n=st.integers(min_value=1, max_value=10**6))
def test_factorize_roundtrip_random(n, big_sieve):
    f = factorize(n, big_sieve)
    assert math.prod(p**e for p, e in f.pairs) == n


def test_multiplicativity_on_coprime_pairs(big_sieve):
    # phi and mu are multiplicative; check every coprime pair of odd n up
    # to 1000.  The tables hold f(n) at entry n >> 1, for odd n only.
    n = np.arange(1, 1001, 2)
    gcds = np.gcd.outer(n, n)
    phi = totient_table(10**6, big_sieve)
    mu = mobius_table(10**6, big_sieve)
    prod = np.outer(n, n) >> 1
    coprime = gcds == 1
    assert np.array_equal(phi[prod][coprime],
                          np.outer(phi[n >> 1], phi[n >> 1])[coprime])
    assert np.array_equal(mu[prod][coprime],
                          np.outer(mu[n >> 1], mu[n >> 1])[coprime])


def test_tables_match_pointwise_functions(sieve):
    # Entry i holds f(2i + 1): the odd n <= 10^4 only.
    mu = mobius_table(10**4, sieve)
    phi = totient_table(10**4, sieve)
    assert mu.size == phi.size == 10**4 // 2
    for i, n in enumerate(range(1, 10**4 + 1, 2)):
        assert mu[i] == mobius(n, sieve)
        assert phi[i] == euler_phi(n, sieve)


def test_tables_reject_limits_beyond_sieve(sieve):
    for table in (mobius_table, totient_table):
        for limit in (sieve.limit + 1, -1):
            with pytest.raises(ValueError, match=f"table limit {limit} "):
                table(limit, sieve)


def _reference_mobius_table(limit, sieve):
    """One numpy slice per prime <= limit: the unsegmented builder."""
    mu = np.ones(limit + 1, dtype=np.int64)
    for p in sieve.primes[sieve.primes <= limit].tolist():
        mu[p:: p] *= -1
        pp = p * p
        if pp <= limit:
            mu[pp:: pp] = 0
    mu[0] = 0
    return mu


def _reference_totient_table(limit, sieve):
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in sieve.primes[sieve.primes <= limit].tolist():
        phi[p:: p] -= phi[p:: p] // p
    phi[0] = 0
    return phi


def _assert_tables_match_reference(limit, sieve):
    # Each table holds the reference's odd entries, f(2i + 1) at entry i.
    # The references build in int64; the tables are as narrow as their
    # values, int8 for mu and int32 for phi.
    for table, reference, dtype in (
            (mobius_table, _reference_mobius_table, np.int8),
            (totient_table, _reference_totient_table, np.int32)):
        got, want = table(limit, sieve), reference(limit, sieve)[1::2]
        assert got.dtype == dtype, (table.__name__, limit)
        assert np.array_equal(got, want), (table.__name__, limit)


# The tables fill the odd n in pieces [3^j, 3^(j+1)) up to 3^11 = 177147,
# then ones of SEGMENT odd n.  257^2 = 66049 is the first square of a
# prime past the first SEGMENT.
@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 2**15 - 1, 2**15, 2**15 + 1,
                                   SEGMENT - 1, SEGMENT, SEGMENT + 1,
                                   2 * SEGMENT - 1, 2 * SEGMENT,
                                   2 * SEGMENT + 1, 257**2 - 1, 257**2,
                                   3**10, 3**10 + 1, 3**11, 3**11 + 1,
                                   3**11 + 2 * SEGMENT,
                                   3**11 + 2 * SEGMENT + 1, 10**6])
def test_segmented_tables_match_reference(limit, big_sieve):
    _assert_tables_match_reference(limit, big_sieve)


@settings(max_examples=25, deadline=None)
@given(limit=st.integers(min_value=0, max_value=3 * SEGMENT))
def test_segmented_tables_match_reference_at_random_limits(limit, big_sieve):
    _assert_tables_match_reference(limit, big_sieve)


# Both ends of every piece of odd n (3^k, and 3^11 + 2 * SEGMENT * j past
# the last one of 3 * lo), and the prime list's piece edges: the same
# comparison with the full reference tables, at more limits.
@pytest.mark.parametrize("limit", sorted(
    {*range(11), *(3**k + e for k in range(1, 13) for e in (-1, 0, 1)),
     *(2 * SEGMENT * j + e for j in (1, 2) for e in (-2, -1, 0, 1, 2)),
     3**11 + 2 * SEGMENT - 1, 3**11 + 2 * SEGMENT + 1}))
def test_odd_tables_are_the_full_tables_odd_entries(limit, big_sieve):
    _assert_tables_match_reference(limit, big_sieve)


@settings(max_examples=25, deadline=None)
@given(limit=st.integers(min_value=0, max_value=10**6))
def test_odd_tables_are_the_full_tables_odd_entries_at_random_limits(
        limit, big_sieve):
    _assert_tables_match_reference(limit, big_sieve)


@pytest.mark.parametrize("limit", [2, 3, 1000, SEGMENT + 1, 3 * SEGMENT + 5])
def test_tables_from_a_larger_sieve_match_an_exact_sieve(limit, big_sieve):
    exact = build_sieve(limit)
    for table in (mobius_table, totient_table):
        assert np.array_equal(table(limit, big_sieve), table(limit, exact))


# Tables to a third serve the odd n up to 3 * third + 2.
# 2 * 257^2 + 1 and 3 * 257^2 - 1 put 257^2, whose spf a piece must mark
# from p*p, above the third; 6 * SEGMENT + 7 reads two full pieces from
# the tables.  Pieces hold SERIES_PIECE odd n: 3 * SERIES_PIECE ends a full
# computed piece and + 1 starts one more; 3 * SEGMENT + 3 ends a full
# piece of the tables' slices and + 9 starts one more.
@pytest.mark.parametrize("limit", [1, 2, 3, 4, 5, 6, 7, 2 * SEGMENT + 1,
                                   2 * SEGMENT + 2, 3 * SERIES_PIECE - 3,
                                   3 * SERIES_PIECE, 3 * SERIES_PIECE + 1,
                                   3 * SEGMENT + 1, 3 * SEGMENT + 3,
                                   3 * SEGMENT + 7, 3 * SEGMENT + 9,
                                   6 * SEGMENT + 7, 2 * 257**2 + 1,
                                   3 * 257**2 - 1])
def test_odd_table_pieces_give_every_odd_modulus_once(limit):
    third = limit // 3
    # The smallest sieve the series takes at this limit.
    sieve = build_sieve(max(limit // 2, 2))
    mu = mobius_table(third, sieve)
    phi = totient_table(third, sieve)
    # A cut past the limit: phi is wanted everywhere.
    pieces = list(arith.odd_table_pieces(limit, sieve, mu, phi, limit + 1))
    start = 3
    for lo, mu_piece, phi_piece in pieces:
        assert (lo == start
                and 0 < mu_piece.size == phi_piece.size <= SERIES_PIECE)
        assert (mu_piece.dtype, phi_piece.dtype) == (np.int8, np.int32)
        # Read from the tables up to the third, filled above it.
        last = lo + 2 * (mu_piece.size - 1)
        assert lo > third or last <= third
        assert np.shares_memory(mu_piece, mu) == (last <= third)
        start = last + 2
    assert start == 3 + 2 * ((limit - 1) // 2)
    exact = build_sieve(max(limit, 2))
    for at, table in ((1, _reference_mobius_table),
                      (2, _reference_totient_table)):
        got = [piece[at] for piece in pieces]
        assert np.array_equal(np.concatenate([np.zeros(0), *got]),
                              table(limit, exact)[3::2]), table.__name__


# At 6 * SEGMENT + 7 the computed pieces start at 2 * SEGMENT + 3 and
# every SERIES_PIECE odd n after it: 3 * SEGMENT + 3 starts the second,
# and 4 * SEGMENT + 3 the third.
@pytest.mark.parametrize("limit, cut", [
    (6 * SEGMENT + 7, 1 << 10), (6 * SEGMENT + 7, 2 * SEGMENT),
    (6 * SEGMENT + 7, 3 * SEGMENT + 3), (6 * SEGMENT + 7, 3 * SEGMENT + 4),
    (6 * SEGMENT + 7, 4 * SEGMENT + 1), (3 * 257**2 - 1, 3),
    (3 * SEGMENT + 7, 1 << 48)])
def test_odd_table_pieces_fill_phi_only_below_the_cut(limit, cut):
    # Below the third phi comes from a table to min(third, cut); above it
    # a piece that starts at or past the cut fills mu alone.
    third = limit // 3
    sieve = build_sieve(limit // 2)
    mu = mobius_table(third, sieve)
    phi = totient_table(min(third, cut), sieve)
    pieces = list(arith.odd_table_pieces(limit, sieve, mu, phi, cut))
    exact = build_sieve(limit)
    want_mu = _reference_mobius_table(limit, exact)
    want_phi = _reference_totient_table(limit, exact)
    for lo, mu_piece, phi_piece in pieces:
        n = np.arange(lo, lo + 2 * mu_piece.size, 2)
        assert np.array_equal(mu_piece, want_mu[n])
        below = int(np.count_nonzero(n < cut))
        assert below <= phi_piece.size <= mu_piece.size
        assert np.array_equal(phi_piece, want_phi[n[:phi_piece.size]])
        if lo > third:
            assert phi_piece.size == (mu_piece.size if lo < cut else 0)
    assert lo + 2 * (mu_piece.size - 1) == limit - (limit % 2 == 0)


@pytest.fixture(scope="module")
def sieve_2e6():
    return build_sieve(2 * 10**6)


@pytest.fixture(scope="module")
def mobius_2e6(sieve_2e6):
    return _reference_mobius_table(2 * 10**6, sieve_2e6)


def _mobius_segment(lo, hi, sieve):
    mu = np.empty(hi - lo, dtype=np.int8)
    arith.mobius_segment(mu, lo, sieve.primes.tolist(),
                         np.empty(hi - lo, dtype=np.int32))
    return mu


# Ends next to squares of primes: a segment whose last n is p * p marks
# with p, and one that stops just short of it does not.
PRIME_SQUARE_ENDS = sorted({p * p + e for p in (2, 3, 5, 7, 31, 1031, 1409)
                            for e in (-1, 0, 1, 2)})


@settings(max_examples=80, deadline=None)
@given(ends=st.lists(st.one_of(st.integers(1, 2 * 10**6 + 1),
                               st.sampled_from([1, *PRIME_SQUARE_ENDS])),
                     min_size=2, max_size=2, unique=True))
@example(ends=[1, 2 * 10**6 + 1])
@example(ends=[1, 2])
@example(ends=[1, 5])
@example(ends=[1031**2 - 1, 1031**2 + 1])
@example(ends=[2, 1409**2 + 1])
def test_mobius_segment_matches_the_table(ends, sieve_2e6, mobius_2e6):
    # [lo, hi) anywhere in [1, 2e6], lo = 1 included.
    lo, hi = sorted(ends)
    assert np.array_equal(_mobius_segment(lo, hi, sieve_2e6),
                          mobius_2e6[lo:hi]), (lo, hi)


@pytest.mark.parametrize("lo", [1, 10**6])
def test_mobius_segment_memory_is_a_constant_times_its_range(lo, sieve_2e6):
    # mu (1 byte per n) and work (4), plus the 1-byte mask of the n to
    # negate: nothing else grows with the range.
    size = 1 << 18
    primes = sieve_2e6.primes.tolist()
    tracemalloc.start()
    try:
        mu = np.empty(size, dtype=np.int8)
        arith.mobius_segment(mu, lo, primes, np.empty(size, dtype=np.int32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7 * size


def test_counters_build_no_table(monkeypatch):
    # Both counters take mu from mobius_segment: direct sums, Mertens
    # values and the general head and tail alike.
    def refuse(*args, **kwargs):
        raise AssertionError("a counter built a mu or phi table")

    monkeypatch.setattr(arith, "_table", refuse)
    for H in (1, 2, 3, 4, 20, 65535, 199994):
        sieve = build_sieve(max(sieve_limit(variant, H)
                                for variant in ("monic", "general")))
        count_monic_eisenstein(3, H, sieve)
        count_general_eisenstein(3, H, sieve)


# Limit 1 marks a one-entry segment with a one-entry work array.
@pytest.mark.parametrize("limit", [*range(1, 65), SEGMENT - 1, SEGMENT + 1,
                                   10**4])
def test_counters_mu_matches_the_reference(limit):
    # From the smallest sieve that serves the limit, whose root primes
    # reach isqrt(2 * sieve.limit + 1).
    got = counting._mobius(limit, build_sieve(max(limit // 2, 2)))
    want = _reference_mobius_table(limit, build_sieve(max(limit, 2)))
    assert got.dtype == np.int8 and np.array_equal(got, want), limit


@pytest.mark.parametrize("limit, piece", [
    (3 * counting.MU_PIECE + 12345, counting.MU_PIECE), (10**4, 999), (10, 3)],
    ids=["4-pieces", "11-pieces", "tiny"])
def test_counters_mu_in_pieces_equals_one_call(monkeypatch, limit, piece):
    # The last piece is short.
    sieve = build_sieve(limit // 2)
    one = np.zeros(limit + 1, np.int8)
    arith.mobius_segment(one[1:], 1, sieve.root_primes,
                         np.empty(limit, np.int32))
    monkeypatch.setattr(counting, "MU_PIECE", piece)
    assert np.array_equal(counting._mobius(limit, sieve), one)


def test_counters_mu_memory_beyond_its_table_is_one_piece():
    # One piece's int32 work and mask: 5 bytes per entry of MU_PIECE,
    # where one call over the range would need 5 per entry of the table.
    limit = 4 * counting.MU_PIECE
    sieve = build_sieve(limit // 2)
    tracemalloc.start()
    try:
        mu = counting._mobius(limit, sieve)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - mu.nbytes <= 6 * counting.MU_PIECE


@pytest.mark.parametrize("limit", [10**6, 2 * 10**6])
@pytest.mark.parametrize("table", [mobius_table, totient_table])
def test_table_memory_beyond_its_result_is_a_few_segments(table, limit,
                                                          sieve_2e6):
    # Each piece holds its cofactors, a mask and a gathered copy, under
    # 3 * 8 bytes per entry of one SEGMENT; gathering a whole table at
    # once would need about a table's length of them instead.  The result
    # itself is 1 byte per entry for mu (int8) and 4 for phi (int32).
    tracemalloc.start()
    try:
        result = table(limit, sieve_2e6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - result.nbytes <= 4 * SEGMENT * 8
