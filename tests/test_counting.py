"""Inclusion-exclusion counting tests."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisencount.arith import euler_phi, mobius, omega, phi_bounded
from eisencount.counting import (ExactCount, count_general_eisenstein,
                                 count_general_s, count_monic_eisenstein,
                                 count_monic_s)


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
