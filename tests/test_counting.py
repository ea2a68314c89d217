"""Inclusion-exclusion counting tests."""

import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisencount import counting
from eisencount.arith import (build_sieve, euler_phi, mobius, omega,
                              phi_bounded)
from eisencount.counting import (MAX_GENERAL_HEIGHT, MAX_MONIC_HEIGHT,
                                 MIN_SEGMENT, ExactCount, block_sum_bound,
                                 count_general_eisenstein, count_general_s,
                                 count_monic_eisenstein, count_monic_s,
                                 monic_sum_bound, sieve_limit)
from eisencount.errors import BudgetExceededError

GOLDENS = Path(__file__).with_name("goldens")


def test_count_monic_s_examples(sieve):
    assert count_monic_s(2, 2, 10, sieve) == 66
    assert count_monic_s(2, 3, 3, sieve) == 6
    assert count_monic_s(2, 7, 3, sieve) == 0
    for d, H in ((2, 5), (3, 4), (5, 2)):
        assert count_monic_s(d, 1, H, sieve) == (2 * H + 1) ** d


def test_count_general_s_examples(sieve):
    assert count_general_s(2, 2, 10, sieve) == 660
    assert count_general_s(2, 2, 2, sieve) == 12
    assert count_general_s(2, 6, 3, sieve) == 0


def test_count_general_s_factors_through_monic(sieve):
    for s in (2, 3, 5, 6, 10):
        for H in (3, 7, 20):
            assert count_general_s(2, s, H, sieve) == \
                count_monic_s(2, s, H, sieve) * phi_bounded(s, H, sieve)


def test_monic_eisenstein_examples(sieve):
    assert count_monic_eisenstein(2, 1, sieve).value == 0
    assert count_monic_eisenstein(2, 2, sieve).value == 6
    assert count_monic_eisenstein(2, 3, sieve).value == 12
    assert count_monic_eisenstein(3, 2, sieve).value == 18


def test_general_eisenstein_examples(sieve):
    assert count_general_eisenstein(2, 1, sieve).value == 0
    assert count_general_eisenstein(2, 2, sieve).value == 12
    assert count_general_eisenstein(2, 3, sieve).value == 48


def test_regression_anchors(sieve):
    # frozen values, originally confirmed against the brute-force oracle
    assert count_monic_eisenstein(2, 10, sieve).value == 108
    assert count_monic_eisenstein(3, 25, sieve).value == 12118
    assert count_general_eisenstein(3, 25, sieve).value == 366872
    assert count_general_eisenstein(4, 12, sieve).value == 238004


def test_large_height_anchors(big_sieve):
    # frozen values from perfbench/expected.json, recorded by the per-modulus loop
    assert count_monic_eisenstein(3, 10**6, big_sieve).value == 762330185251304218
    assert count_general_eisenstein(3, 2 * 10**5, big_sieve).value == \
        1422818396882878536688
    assert count_general_eisenstein(2, 10**5, big_sieve).value == 1341234702842924


COUNTERS = {"monic": (count_monic_eisenstein, count_monic_s),
            "general": (count_general_eisenstein, count_general_s)}


def _reference_terms(variant, d, H, sieve):
    """The specification: {s: -mu(s) * the closed-form count of modulus s}."""
    per_s = COUNTERS[variant][1]
    return {s: -mu * per_s(d, s, H, sieve)
            for s in range(2, H + 1) if (mu := mobius(s, sieve))}


def _reference_count(variant, d, H, sieve):
    """The specification: one closed-form count per square-free modulus."""
    return sum(_reference_terms(variant, d, H, sieve).values())


def _aggregate(values, coefficients):
    """{a: c} from (a, c) pairs, the c of a repeated a added, zeros dropped."""
    total = Counter()
    for a, c in zip(values, coefficients):
        total[a] += c
    return {a: c for a, c in total.items() if c}


def _reference_coefficients(variant, H, sieve):
    """{a: c_a} of the specification, from its degree-2 terms.

    At d = 2 the term of s is (2a+1) * c with a = H // s and
    c = -mu(s) * phi_bounded(s, a), times phi_bounded(s, H) for general
    counts; the c of one a are added up.
    """
    terms = _reference_terms(variant, 2, H, sieve)
    values = [H // s for s in terms]
    return _aggregate(values, [term // (2 * a + 1)
                               for a, term in zip(values, terms.values())])


def _check_against_reference(variant, d, H, sieve):
    fast = COUNTERS[variant][0]
    assert fast(d, H, sieve).value == _reference_count(variant, d, H, sieve), \
        (variant, d, H)


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(sorted(COUNTERS)),
       d=st.integers(min_value=2, max_value=6),
       H=st.integers(min_value=1, max_value=5000))
def test_counter_matches_per_modulus_reference(variant, d, H, sieve):
    _check_against_reference(variant, d, H, sieve)


@pytest.mark.parametrize("variant", sorted(COUNTERS))
def test_counter_matches_reference_at_head_tail_split(variant, sieve):
    # The moduli split at isqrt(H); n^2 - 1, n^2 and n^2 + 1 straddle a step.
    squares = [n * n + e for n in (2, 3, 7, 10, 31, 70) for e in (-1, 0, 1)]
    for H in [*range(1, 41), *squares]:
        _check_against_reference(variant, 2 + H % 3, H, sieve)


def _height_with_tail(moduli):
    """The height H whose tail (moduli above isqrt(H)) has this many moduli."""
    H = moduli
    while H - math.isqrt(H) != moduli:
        H = moduli + math.isqrt(H)
    return H


@pytest.mark.parametrize("variant", sorted(COUNTERS))
@pytest.mark.parametrize("moduli", [MIN_SEGMENT - 1, MIN_SEGMENT,
                                    MIN_SEGMENT + 1, 2 * MIN_SEGMENT])
def test_counter_matches_reference_at_window_edges(variant, moduli, big_sieve):
    # Tails of one and two segments of MIN_SEGMENT moduli, give or take
    # one: the general count sums them in one or two even segments.
    assert counting._segment(_height_with_tail(2 * MIN_SEGMENT)) == MIN_SEGMENT
    _check_against_reference(variant, 2, _height_with_tail(moduli), big_sieve)


@settings(max_examples=60, deadline=None)
@given(segment=st.integers(min_value=1, max_value=300),
       segments=st.integers(min_value=1, max_value=8),
       offset=st.integers(min_value=-1, max_value=1))
def test_general_pairs_match_the_specification_at_segment_edges(
        segment, segments, offset, sieve):
    # Tails one modulus short of, at and one past a whole number of
    # segments; a run of equal a then straddles two of them.
    H = _height_with_tail(max(segment * segments + offset, 1))
    assert _aggregate(*counting._general_terms(H, sieve, segment)) == \
        _reference_coefficients("general", H, sieve), (H, segment)


@pytest.mark.parametrize("H", [10**4, 2 * 10**5, MAX_GENERAL_HEIGHT])
def test_block_sum_bound_holds_for_every_run(H):
    # A run of a inside one segment holds at most
    # min(segment, H // a - H // (a+1)) moduli, each term at most a * H.
    r = math.isqrt(H)
    for segment in (1, 1000, counting._segment(H)):
        widest = max(a * min(segment, H // a - H // (a + 1))
                     for a in range(1, r + 1))
        assert H * widest <= block_sum_bound(H, segment)


def test_window_sums_fit_in_int64():
    # Raising MAX_GENERAL_HEIGHT or the segment past this would wrap
    # silently.
    assert block_sum_bound(MAX_GENERAL_HEIGHT) < 2**63
    # G1 adds one H // j <= H per m <= k <= r, and G2 one H // t <= H per
    # t <= k, so |G1|, |G2| <= H * r and |mu * G1 + G2| <= 2 * H * r.
    assert 2 * MAX_GENERAL_HEIGHT * math.isqrt(MAX_GENERAL_HEIGHT) < 2**63


def test_general_count_holds_no_array_of_length_H(monkeypatch):
    # Segments of 23,786 moduli at H = 10^6: the count then peaks under 36
    # bytes per modulus of one segment, the mu and psi of the segment, its
    # int64 terms, the fill's buffers, the pairs and the head's table
    # included.  That is below H bytes, so not even an int8 array of
    # length H fits; the table of mu to H alone took that, beside 4 bytes
    # per modulus of mu(t) * (H // t).
    monkeypatch.setattr(counting, "SEGMENT_ROOTS", 24)
    monkeypatch.setattr(counting, "MIN_SEGMENT", 1 << 12)
    H = 10**6
    segment = counting._segment(H)
    assert segment == 23786
    sieve = build_sieve(sieve_limit("general", H))
    tracemalloc.start()
    try:
        value = count_general_eisenstein(3, H, sieve).value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 889259537440231756830184
    assert peak <= 36 * segment < H


def test_divisor_fill_fits_in_int32():
    # The fill of psi and G1 runs in int32: its offsets + j <= hi <= H + 1
    # and quotients H // j <= H, and psi(s), a partial sum of
    # mu(t) * (a // t) over t <= a, stays within a * (1 + ln a) for
    # a <= isqrt(H).  mobius_segment's products stay within n <= H.
    H = MAX_GENERAL_HEIGHT
    a = math.isqrt(H)
    assert H + 1 < 2**31
    assert a * (1 + math.log(a)) < 2**31


@pytest.mark.parametrize("variant", sorted(COUNTERS))
def test_per_modulus_calls_stop_at_square_root(variant, big_sieve, monkeypatch):
    # The general head calls phi_bounded twice per square-free s <= isqrt(H);
    # the monic sum never visits a modulus on its own, and neither counter
    # calls the per-modulus closed forms.
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    for fn in (phi_bounded, count_monic_s, count_general_s):
        monkeypatch.setattr(counting, fn.__name__, counted(fn))
    H = 10**5
    COUNTERS[variant][0](3, H, big_sieve)
    if variant == "monic":
        assert calls == []
    else:
        assert set(calls) == {"phi_bounded"}
        assert 0 < len(calls) <= 2 * math.isqrt(H)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(min_value=2, max_value=6),
       H=st.integers(min_value=1, max_value=2000),
       data=st.data())
def test_monic_sum_matches_per_modulus_reference_at_every_split(d, H, data,
                                                                sieve):
    # Below DIRECT_HEIGHT the count sums every modulus directly (A = 1); a
    # larger A puts the values H // s < A through the Mertens sum.
    A = data.draw(st.integers(min_value=1, max_value=math.isqrt(H)), label="A")
    assert counting._evaluate(d, *counting._monic_terms(H, A, sieve)) == \
        _reference_count("monic", d, H, sieve)


@pytest.mark.parametrize("variant", sorted(COUNTERS))
@pytest.mark.parametrize("heights", [range(1, 61), (4097,), (65535,),
                                     (65536,), (2 * 10**5,)],
                         ids=["grid", "4097", "65535", "65536", "2e5"])
def test_coefficients_match_the_specification_at_every_degree(
        variant, heights, big_sieve):
    # Two finite sums of c_a * (2a+1)^(d-1) that agree for every d have
    # equal coefficients, so equal (a, c) pairs check every degree at once.
    # Heights to 60 cover the acceptance grid.  65535 and 65536 straddle
    # DIRECT_HEIGHT; at 2e5 the general tail spans three segments, and
    # a = 1 and a = 2 recur across them.  General pairs also come from a
    # first segment that ends just below 29^2, and from three or seven
    # segments that each end inside a run; monic pairs from several cuts.
    for H in heights:
        expected = _reference_coefficients(variant, H, big_sieve)
        if variant == "general":
            tail = H - math.isqrt(H)
            pairs = [counting._general_terms(H, big_sieve, segment)
                     for segment in (None, 29 * 29 - math.isqrt(H) - 1,
                                     tail // 3 + 1, tail // 7 + 1)
                     if segment is None or segment > 0]
        else:
            cuts = {1, 2, math.isqrt(H), counting._split(H)}
            pairs = [counting._monic_terms(H, A, big_sieve)
                     for A in sorted(cuts) if A * A <= H]
        for values, coefficients in pairs:
            assert _aggregate(values, coefficients) == expected, (variant, H)


# count_monic_eisenstein(d, 10**8) for d = 2..5 as the windowed counter gave
# it (one closed form per modulus up to 10^4, numpy windows above), before
# monic counts moved to the Mertens sum; with build_sieve(10**8), each took
# about 7.5 s and 554 MB.
WINDOWED_AT_1E8 = {
    2: 10058589661211040,
    3: 762328599071196400552792,
    4: 65458155086631500000948333252352,
    5: 5963599876881360785195392836119765305624,
}


def test_monic_sum_matches_the_windowed_counter_at_1e8():
    H = 10**8
    sieve = build_sieve(sieve_limit("monic", H))
    for d, value in WINDOWED_AT_1E8.items():
        assert count_monic_eisenstein(d, H, sieve).value == value, d


@pytest.mark.parametrize("n, value", [(7, 1037), (8, 1928), (9, -222)])
def test_mertens_anchors(n, value):
    # M(10^n), OEIS A084237, from the counters' own mu.  The table's
    # entry L + 1 + k is M(H // k).
    H = 10**n
    A = round(H ** (1 / 3))
    L = H // A
    table = counting._mertens(H, A, counting._mobius(L, build_sieve(L)))
    assert table[L + 2] == value


def test_two_cuts_agree_at_1e9():
    # The golden is the count at the default cut H // 1000; the cut
    # H // 500 sums twice as many moduli directly and must agree.
    H = 10**9
    golden = int((GOLDENS / f"count_monic_3_{H}.txt").read_text())
    sieve = build_sieve(H // 500)
    assert count_monic_eisenstein(3, H, sieve).value == golden
    assert counting._evaluate(3, *counting._monic_terms(H, 500, sieve)) == golden


def test_monic_sums_fit_in_int64():
    # Raising MAX_MONIC_HEIGHT past this would wrap silently.
    assert monic_sum_bound(MAX_MONIC_HEIGHT) < 2**63


def test_sieve_limit():
    direct = counting.DIRECT_HEIGHT
    for H in (1, 2, 7, 1000, direct - 1, direct):
        assert sieve_limit("general", H) == max(math.isqrt(H), 2)
        assert 2 <= sieve_limit("monic", H) <= max(H, 2)
    assert sieve_limit("general", MAX_GENERAL_HEIGHT) == 31622
    with pytest.raises(BudgetExceededError, match="general height"):
        sieve_limit("general", MAX_GENERAL_HEIGHT + 1)
    assert sieve_limit("monic", direct - 1) == direct - 1
    assert sieve_limit("monic", 10**6) == 10**4
    assert sieve_limit("monic", MAX_MONIC_HEIGHT) == 4642525
    with pytest.raises(BudgetExceededError):
        sieve_limit("monic", MAX_MONIC_HEIGHT + 1)
    for variant, H in (("cubic", 5), ("monic", 0)):
        with pytest.raises(ValueError):
            sieve_limit(variant, H)


def test_metadata_fields(sieve):
    c = count_monic_eisenstein(2, 5, sieve)
    assert (c.degree, c.height, c.variant, c.method) == \
        (2, 5, "monic", "inclusion_exclusion")


def test_argument_validation(sieve):
    with pytest.raises(ValueError):
        count_monic_eisenstein(1, 5, sieve)
    with pytest.raises(ValueError):
        count_monic_eisenstein(2, 0, sieve)
    with pytest.raises(ValueError):
        count_monic_eisenstein(2, sieve.limit + 1, sieve)
    with pytest.raises(BudgetExceededError):
        count_monic_eisenstein(2, MAX_MONIC_HEIGHT + 1, sieve)
    with pytest.raises(ValueError):
        count_monic_s(2, 0, 5, sieve)
    with pytest.raises(ValueError):
        count_monic_s(2, sieve.limit + 1, 5, sieve)


def test_exact_count_container_validation():
    with pytest.raises(ValueError):
        ExactCount(value=1, degree=2, height=3, variant="cubic", method="brute")
    with pytest.raises(ValueError):
        ExactCount(value=1, degree=2, height=3, variant="monic", method="magic")
    with pytest.raises(ValueError):
        ExactCount(value=-1, degree=2, height=3, variant="monic", method="brute")
    with pytest.raises(ValueError):
        ExactCount(value=8**4, degree=2, height=3, variant="monic", method="brute")
    with pytest.raises(ValueError):  # over the monic box 7^2, within the general 7^3
        ExactCount(value=50, degree=2, height=3, variant="monic", method="brute")
    assert ExactCount(value=49, degree=2, height=3, variant="monic",
                      method="brute").value == 49


def _per_modulus_brute_monic(d, s, H):
    """Direct tuple enumeration of the box counted by count_monic_s."""
    span = range(-H, H + 1)
    count = 0
    for coeffs in itertools.product(span, repeat=d):
        if any(c % s for c in coeffs):
            continue
        if math.gcd(coeffs[0] // s, s) != 1:
            continue
        count += 1
    return count


def test_per_modulus_count_against_direct_enumeration(sieve):
    for s in (2, 3, 5, 6, 7, 10, 11, 12):
        for H in range(1, 31):
            assert count_monic_s(2, s, H, sieve) == \
                _per_modulus_brute_monic(2, s, H)


def test_per_modulus_general_against_direct_enumeration(sieve):
    for s in (2, 3, 6, 10):
        for H in (5, 12, 30):
            lead_choices = sum(
                1 for a in range(-H, H + 1) if math.gcd(a, s) == 1
            )
            assert count_general_s(2, s, H, sieve) == \
                _per_modulus_brute_monic(2, s, H) * lead_choices


def test_moduli_beyond_height_contribute_nothing(sieve):
    # re-run the alternating sum with triple the range; nothing changes
    for d, H in ((2, 12), (3, 12)):
        extended = 0
        for s in range(2, 3 * H + 1):
            m = mobius(s, sieve)
            if m:
                extended -= m * count_monic_s(d, s, H, sieve)
        assert extended == count_monic_eisenstein(d, H, sieve).value


def test_parity_and_variant_ordering(sieve):
    for d in (2, 3):
        for H in range(1, 11):
            monic = count_monic_eisenstein(d, H, sieve).value
            general = count_general_eisenstein(d, H, sieve).value
            assert monic % 2 == 0
            assert general % 4 == 0
            assert monic <= general


def test_counts_monotone_in_height(sieve):
    values = [count_monic_eisenstein(2, H, sieve).value for H in range(1, 26)]
    assert values == sorted(values)


# Empirical constant: the measured supremum of the normalized deviation
# over this whole family is just under 8; 16 gives comfortable headroom.
APPROXIMATION_C = 16

HEIGHT_SAMPLE = (*range(1, 31), 97, 100, 101, 997, 1000, 2162, 5000, 9999, 10000)


def test_per_modulus_count_tracks_its_smooth_approximation(sieve):
    # |count - 2^d H^d phi(s)/s^(d+1)| <= C * H^(d-1) * 2^omega(s) / s^(d-1)
    for d in (2, 3):
        for s in range(2, 51):
            if mobius(s, sieve) == 0:
                continue
            phi_s = euler_phi(s, sieve)
            norm = Fraction(2 ** omega(s, sieve), s ** (d - 1))
            for H in HEIGHT_SAMPLE:
                exact = count_monic_s(d, s, H, sieve)
                smooth = Fraction(2**d * H**d * phi_s, s ** (d + 1))
                bound = APPROXIMATION_C * H ** (d - 1) * norm
                assert abs(exact - smooth) <= bound


@settings(max_examples=80)
@given(d=st.integers(min_value=2, max_value=5),
       s=st.integers(min_value=2, max_value=5000),
       H=st.integers(min_value=1, max_value=4000))
def test_per_modulus_count_vanishes_beyond_height(d, s, H, sieve):
    if s > H:
        assert count_monic_s(d, s, H, sieve) == 0
        assert count_general_s(d, s, H, sieve) == 0
    else:
        assert count_monic_s(d, s, H, sieve) >= 0
