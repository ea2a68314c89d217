"""Release gate: eight checks, one test each, run with -v for a line apiece.

Frozen constants here were derived by independent pilot runs (brute-force
enumeration, exact rational arithmetic) before being committed as goldens.
"""

from fractions import Fraction

import pytest

from eisencount.arith import euler_phi, factorize, mobius, omega, tau
from eisencount.counting import count_general_eisenstein, count_monic_eisenstein
from eisencount.density import (
    asymptotic_main,
    refined_asymptotic_theta,
    rho_product,
    rho_series,
    theta_product,
    theta_series,
)
from eisencount.oracle import brute_count_general, brute_count_monic
from eisencount.report import density_table, error_term_profile

# Published four-decimal density values, d = 2..10.
THETA_DISPLAY = {
    2: "0.2515", 3: "0.0953", 4: "0.0409", 5: "0.0186", 6: "0.0088",
    7: "0.0042", 8: "0.0021", 9: "0.0010", 10: "0.0005",
}
RHO_DISPLAY = {
    2: "0.1677", 3: "0.0556", 4: "0.0224", 5: "0.0099", 6: "0.0046",
    7: "0.0022", 8: "0.0010", 9: "0.0005", 10: "0.0003",
}

# Hand-checked small counts, confirmed against the enumeration oracle.
HAND_VALUES = {
    ("monic", 2, 1): 0,
    ("monic", 2, 2): 6,
    ("monic", 2, 3): 12,
    ("monic", 3, 2): 18,
    ("general", 2, 2): 12,
    ("general", 2, 3): 48,
}

# Monic cubic counts at growing heights, from the exact counter (pilot run).
CUBIC_MONIC_COUNTS = {100: 776988, 1000: 763362612, 10000: 762470799198}

GRID = [(2, 60), (3, 25), (4, 12), (5, 6)]


@pytest.fixture(scope="module")
def oracle_grid(sieve):
    """(variant, d, H) -> (inclusion-exclusion value, brute-force value)."""
    table = {}
    for d, h_max in GRID:
        for H in range(1, h_max + 1):
            table[("monic", d, H)] = (
                count_monic_eisenstein(d, H, sieve).value,
                brute_count_monic(d, H).value,
            )
            table[("general", d, H)] = (
                count_general_eisenstein(d, H, sieve).value,
                brute_count_general(d, H).value,
            )
    return table


def test_criterion_1_density_table_reproduction(big_sieve):
    table = density_table(2, 10, big_sieve, prime_count=10000)
    assert len(table.rows) == 18 // 2
    for d, theta_str, rho_str in table.rows:
        assert theta_str == THETA_DISPLAY[d]
        assert rho_str == RHO_DISPLAY[d]
        assert abs(float(theta_str) - float(THETA_DISPLAY[d])) <= 1e-4
        assert abs(float(rho_str) - float(RHO_DISPLAY[d])) <= 1e-4


def test_criterion_2_oracle_equivalence(oracle_grid):
    mismatches = [key for key, (exact, brute) in oracle_grid.items()
                  if exact != brute]
    assert mismatches == []


def test_criterion_3_hand_derived_values(oracle_grid):
    for key, expected in HAND_VALUES.items():
        exact, brute = oracle_grid[key]
        assert exact == expected, key
        assert brute == expected, key


def test_criterion_4_cross_method_density_agreement(big_sieve):
    for d in range(2, 11):
        for product, series in ((theta_product, theta_series),
                                (rho_product, rho_series)):
            via_primes = product(d, big_sieve, prime_count=10000)
            via_moduli = series(d, big_sieve, series_limit=10**6)
            assert via_primes.lower <= via_moduli.upper, d
            assert via_moduli.lower <= via_primes.upper, d


def test_criterion_5_error_term_shrinks(big_sieve):
    heights = sorted(CUBIC_MONIC_COUNTS)
    profile = error_term_profile("monic", 3, heights, big_sieve,
                                 prime_count=10000)
    relative = []
    ratios = []
    for row in profile:
        assert row.exact == CUBIC_MONIC_COUNTS[row.height], row.height
        relative.append(abs(Fraction(row.exact) / row.main - 1))
        ratios.append(abs(row.ratio))
    assert relative[0] > relative[1] > relative[2]
    base = ratios[0]
    for later in ratios[1:]:
        assert base / 10 <= later <= base * 10


def test_criterion_6_dyadic_asymptotics(big_sieve):
    theta_gap = {}
    rho_gap = {}
    for d in range(3, 13):
        theta = theta_product(d, big_sieve).value
        rho = rho_product(d, big_sieve).value
        theta_gap[d] = abs(theta * 2 ** (d + 1) - 1)
        rho_gap[d] = abs(rho * 2 ** (d + 2) - 1)
        crude = abs(asymptotic_main("theta", d) - theta)
        refined = abs(refined_asymptotic_theta(d) - theta)
        assert refined < crude, d
    for d in range(3, 12):
        assert theta_gap[d + 1] <= theta_gap[d], d
        assert rho_gap[d + 1] <= rho_gap[d], d
    assert theta_gap[12] < Fraction(5, 100)


def test_criterion_7_arithmetic_identity_suite(sieve):
    for s in range(1, 10**4 + 1):
        divisors = [1]
        for p, e in factorize(s, sieve).pairs:
            divisors = [d * p**k for d in divisors for k in range(e + 1)]
        signed = sum(Fraction(mobius(t, sieve), t) for t in divisors)
        assert signed == Fraction(euler_phi(s, sieve), s), s
        squarefree_count = sum(abs(mobius(t, sieve)) for t in divisors)
        assert squarefree_count == 2 ** omega(s, sieve), s
        assert 2 ** omega(s, sieve) <= tau(s, sieve), s


def test_criterion_8_structural_invariants(oracle_grid):
    for (variant, d, H), (exact, _) in oracle_grid.items():
        if variant == "monic":
            assert exact % 2 == 0, (variant, d, H)
        else:
            assert exact % 4 == 0, (variant, d, H)
    for d, h_max in GRID:
        for H in range(1, h_max + 1):
            monic, _ = oracle_grid[("monic", d, H)]
            general, _ = oracle_grid[("general", d, H)]
            assert monic <= general, (d, H)
            if H > 1:
                assert monic >= oracle_grid[("monic", d, H - 1)][0], (d, H)
                assert general >= oracle_grid[("general", d, H - 1)][0], (d, H)
