"""Command line contract tests: outputs, formats, exit codes, environment."""

import gc
import json
import math
import re
import shlex
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from eisencount import arith, cli, counting, density, report
from eisencount.counting import (MAX_GENERAL_HEIGHT, MAX_MONIC_HEIGHT,
                                 ExactCount, count_monic_eisenstein,
                                 sieve_limit)
from eisencount.density import DensityEstimate, theta_product


@pytest.fixture()
def runner():
    return CliRunner()


def test_count_both_agrees_and_prints_value(runner):
    result = runner.invoke(cli.main, ["count", "--degree", "2", "--height", "2",
                                      "--variant", "monic", "--method", "both"])
    assert result.exit_code == 0
    assert result.output.strip() == "6"


def test_count_exact_general(runner):
    result = runner.invoke(cli.main, ["count", "--degree", "2", "--height", "3",
                                      "--variant", "general"])
    assert result.exit_code == 0
    assert result.output.strip() == "48"


def test_count_brute_method(runner):
    result = runner.invoke(cli.main, ["count", "--degree", "3", "--height", "2",
                                      "--variant", "monic", "--method", "brute"])
    assert result.exit_code == 0
    assert result.output.strip() == "18"


def test_count_rejects_degree_one(runner):
    result = runner.invoke(cli.main, ["count", "--degree", "1", "--height", "5",
                                      "--variant", "monic"])
    assert result.exit_code == 2


def test_count_rejects_trailing_garbage(runner):
    result = runner.invoke(cli.main, ["count", "--degree", "2x", "--height", "5",
                                      "--variant", "monic"])
    assert result.exit_code == 2


def test_count_budget_refusal_exits_3(runner):
    result = runner.invoke(cli.main, ["--enumeration-budget", "1000",
                                      "count", "--degree", "3", "--height", "10",
                                      "--variant", "general", "--method", "brute"])
    assert result.exit_code == 3
    assert "refused" in result.output


def test_budget_env_variable_is_honored(runner):
    result = runner.invoke(cli.main, ["count", "--degree", "3", "--height", "10",
                                      "--variant", "general", "--method", "brute"],
                           env={"EISEN_ENUMERATION_BUDGET": "1000"})
    assert result.exit_code == 3


def test_flag_beats_environment(runner):
    result = runner.invoke(cli.main, ["--enumeration-budget", "100000000",
                                      "count", "--degree", "2", "--height", "2",
                                      "--variant", "monic", "--method", "brute"],
                           env={"EISEN_ENUMERATION_BUDGET": "1"})
    assert result.exit_code == 0
    assert result.output.strip() == "6"


def _forbid(monkeypatch, *names):
    """Make each named step of the CLI fail the test if it runs.

    Each name is ``module.attr`` in eisencount: a command imports its own
    layer when it runs, so a patch there takes effect.
    """
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the refusal")
    for name in names:
        monkeypatch.setattr(f"eisencount.{name}", forbidden)


def test_sieve_limit_env_refuses_large_heights(runner, monkeypatch):
    # A monic count sieves only to its cut, about H^(2/3): 10^4 at 10^6.
    # build_sieve refuses before it allocates (test_arith).
    _forbid(monkeypatch, "counting.count_monic_eisenstein")
    result = runner.invoke(cli.main, ["count", "--degree", "2", "--height",
                                      str(10**6), "--variant", "monic"],
                           env={"EISEN_SIEVE_LIMIT": "9999"})
    assert result.exit_code == 3
    assert "refused" in result.output


def test_sieve_limit_flag_cannot_raise_the_hard_cap(runner, monkeypatch):
    monkeypatch.setattr(arith, "MAX_SIEVE_LIMIT", 1000)
    _forbid(monkeypatch, "counting.count_monic_eisenstein")
    # The cut at 10^5 is 2173, over the patched cap of 1000.
    result = runner.invoke(cli.main, ["--sieve-limit", str(10**10), "count",
                                      "--degree", "2", "--height", str(10**5),
                                      "--variant", "monic"])
    assert result.exit_code == 3
    assert "refused" in result.output


@pytest.mark.parametrize("argv", [
    ["count", "-d", "3", "-H", str(MAX_MONIC_HEIGHT + 1), "--variant", "monic"],
    ["error-term", "--variant", "monic", "-d", "3",
     "--heights", f"1000,{MAX_MONIC_HEIGHT + 1}"],
], ids=["count", "error-term"])
def test_monic_height_cap_is_refused_before_any_work(runner, monkeypatch,
                                                     argv):
    _forbid(monkeypatch, "cli.build_sieve",
            "counting.count_monic_eisenstein")
    result = runner.invoke(cli.main, ["--sieve-limit", str(10**8), *argv])
    assert result.exit_code == 3
    assert f"cap {MAX_MONIC_HEIGHT}" in result.output


@pytest.mark.parametrize("argv", [
    ["count", "-d", "3", "-H", str(MAX_GENERAL_HEIGHT + 1),
     "--variant", "general"],
    ["error-term", "--variant", "general", "-d", "3",
     "--heights", f"1000,{MAX_GENERAL_HEIGHT + 1}"],
], ids=["count", "error-term"])
def test_general_height_cap_is_refused_before_any_work(runner, monkeypatch,
                                                       argv):
    # A general count sieves only to isqrt(H), so no sieve limit refuses
    # it: the height cap does.
    _forbid(monkeypatch, "cli.build_sieve",
            "counting.count_general_eisenstein")
    result = runner.invoke(cli.main, argv)
    assert result.exit_code == 3
    assert f"general height {MAX_GENERAL_HEIGHT + 1} exceeds the cap " \
        f"{MAX_GENERAL_HEIGHT}" in result.output


@pytest.mark.parametrize("variant, H", [("monic", 10**6), ("general", 1000)])
def test_count_sizes_the_sieve_to_what_the_count_needs(runner, monkeypatch,
                                                       variant, H):
    limits = []
    build = cli.build_sieve

    def recorded(limit, **kwargs):
        limits.append(limit)
        return build(limit, **kwargs)

    monkeypatch.setattr(cli, "build_sieve", recorded)
    result = runner.invoke(cli.main, ["count", "-d", "3", "-H", str(H),
                                      "--variant", variant])
    assert result.exit_code == 0
    assert limits == [sieve_limit(variant, H)]
    assert limits[0] == (10**4 if variant == "monic" else math.isqrt(H))


def test_count_both_refuses_the_brute_box_before_the_sieve(runner,
                                                          monkeypatch):
    _forbid(monkeypatch, "cli.build_sieve",
            "counting.count_monic_eisenstein")
    result = runner.invoke(cli.main, ["count", "-d", "3", "-H", str(10**10),
                                      "--variant", "monic", "--method", "both"])
    assert result.exit_code == 3
    assert "needs 20000000001^3 polynomials" in result.stderr


@pytest.mark.parametrize("degree", [10**4, 10**9])
@pytest.mark.parametrize("command", [
    ["count", "-H", "1", "--variant", "monic", "--method", "brute", "-d"],
    ["verify", "--max-height", "1", "--max-degree"],
], ids=["count", "verify"])
def test_oversized_box_is_refused_at_once(runner, command, degree):
    # 3^degree is never built: neither compared in full nor printed.
    start = time.perf_counter()
    result = runner.invoke(cli.main, [*command, str(degree)])
    assert time.perf_counter() - start < 1
    assert result.exit_code == 3
    assert result.stdout == ""
    assert f"needs 3^{degree} polynomials" in result.stderr


def _digit_limit():
    """Python's int -> str digit limit, None where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_count_prints_a_count_past_the_int_digit_limit(runner, sieve):
    # 6000 digits, past the 4300 that int -> str allows by default from
    # Python 3.10.7 on; the limit is back in place after the output.
    limit = _digit_limit()
    result = runner.invoke(cli.main, ["count", "-d", "1000", "-H", "1000000",
                                      "--variant", "monic"])
    assert result.exit_code == 0
    assert _digit_limit() == limit
    value = count_monic_eisenstein(1000, 10**6, sieve).value
    with cli._all_digits():
        assert result.stdout == f"{value}\n"
        assert len(str(value)) == 6000


@pytest.mark.parametrize("argv", [
    ["count", "-d", "1000000", "-H", "100", "--variant", "monic"],
    ["error-term", "--variant", "monic", "-d", "1000000", "--heights", "100"],
    ["count", "-d", str(10**400), "-H", "1", "--variant", "general"],
], ids=["count", "error-term", "huge-degree"])
def test_count_past_the_digit_cap_is_refused_at_once(runner, monkeypatch,
                                                    argv):
    # A monic count at d = 10^6, H = 100 has about 2.3e6 digits.
    _forbid(monkeypatch, "cli.build_sieve")
    start = time.perf_counter()
    result = runner.invoke(cli.main, argv)
    assert time.perf_counter() - start < 1
    assert result.exit_code == 3
    assert result.stdout == ""
    assert f"over the cap of {cli.MAX_COUNT_DIGITS} digits" in result.stderr


@pytest.mark.parametrize("option", ["-d", "-H"])
def test_count_option_past_the_int_digit_limit_exits_2(runner, option):
    values = {"-d": "3", "-H": "5", option: "9" * 5000}
    argv = [part for item in values.items() for part in item]
    result = runner.invoke(cli.main, ["count", *argv, "--variant", "monic"])
    assert result.exit_code == 2
    assert result.stdout == ""


def test_count_broken_invariant_exits_4(runner, monkeypatch):
    def impossible(d, H, sieve, **kwargs):
        return ExactCount(value=-1, degree=d, height=H, variant="monic",
                          method="inclusion_exclusion")
    monkeypatch.setattr(counting, "count_monic_eisenstein", impossible)
    result = runner.invoke(cli.main, ["count", "--degree", "2", "--height", "2",
                                      "--variant", "monic"])
    assert result.exit_code == 4
    assert "invariant" in result.output


def test_count_both_mismatch_exits_4(runner, monkeypatch):
    def wrong(d, H, **kwargs):
        return ExactCount(value=4, degree=d, height=H, variant="monic",
                          method="brute")
    monkeypatch.setattr(cli, "brute_count_monic", wrong)
    result = runner.invoke(cli.main, ["count", "--degree", "2", "--height", "2",
                                      "--variant", "monic", "--method", "both"])
    assert result.exit_code == 4
    assert "mismatch" in result.output


def test_density_product_text(runner):
    result = runner.invoke(cli.main, ["density", "--degree", "2",
                                      "--kind", "theta"])
    assert result.exit_code == 0
    assert "theta(2) = 0.251464" in result.output
    assert "prime_count=10000" in result.output


def test_density_rho_table_value(runner):
    result = runner.invoke(cli.main, ["density", "--degree", "2",
                                      "--kind", "rho"])
    assert result.exit_code == 0
    assert "rho(2) = 0.167655" in result.output


def test_density_both_methods_overlap(runner):
    result = runner.invoke(cli.main, ["density", "--degree", "3",
                                      "--kind", "theta", "--method", "both",
                                      "--series-limit", "20000"])
    assert result.exit_code == 0
    assert "euler_product" in result.output
    assert "mobius_series" in result.output


# Recorded from the per-term big-integer loop the limb division replaced;
# perfbench checks density output only by enclosure, so these pin it.
SERIES_GOLDENS = {
    ("rho", 2, None):
        "rho(2) = 0.167655785003  in [0.167650785003, 0.167660785003]",
    ("rho", 2, 60):
        "rho(2) = 0.167655785003  in [0.167650785002, 0.167660785003]",
    ("theta", 3, None):
        "theta(3) = 0.0952910730313  in [0.0952910730188, 0.0952910730438]",
    ("theta", 3, 60):
        "theta(3) = 0.0952910730313  in [0.0952910730187, 0.0952910730438]",
}


@pytest.mark.parametrize("kind, degree, bits", SERIES_GOLDENS)
def test_density_series_golden(runner, kind, degree, bits):
    group = [] if bits is None else ["--precision-bits", str(bits)]
    result = runner.invoke(cli.main, [*group, "density", "-d", str(degree),
                                      "--kind", kind, "--method", "series",
                                      "--series-limit", "200000"])
    assert result.exit_code == 0
    assert result.stdout == (f"{SERIES_GOLDENS[kind, degree, bits]}  "
                             "via mobius_series series_limit=200000\n")


# Recorded from the prime-by-prime product loop that the power sums above
# the cut replaced; perfbench checks density brackets only by enclosure.
PRODUCT_GOLDENS = {
    "density -d 2 --kind rho --prime-count 78498":
        "rho(2) = 0.167655730283  in [0.167655730283, 0.167657395]  "
        "via euler_product prime_count=78498\n",
    "density -d 5 --kind theta":
        "theta(5) = 0.0186362489281  in [0.0186362489281, 0.0186362489281]  "
        "via euler_product prime_count=10000\n",
    "density -d 10 --kind rho --prime-count 78498":
        "rho(10) = 0.00025173365153  in [0.00025173365153, 0.00025173365153]  "
        "via euler_product prime_count=78498\n",
    "table --degrees 2..10 --prime-count 78498":
        "d   theta   rho\n2   0.2515  0.1677\n3   0.0953  0.0556\n"
        "4   0.0409  0.0224\n5   0.0186  0.0099\n6   0.0088  0.0046\n"
        "7   0.0042  0.0022\n8   0.0021  0.0010\n9   0.0010  0.0005\n"
        "10  0.0005  0.0003\n",
}


@pytest.mark.parametrize("argv", PRODUCT_GOLDENS)
def test_density_product_golden(runner, argv):
    result = runner.invoke(cli.main, argv.split())
    assert result.exit_code == 0
    assert result.stdout == PRODUCT_GOLDENS[argv]


@pytest.mark.parametrize("args, flag", [
    (["--method", "series", "--prime-count", "5", "--series-limit", "1000"],
     "--prime-count"),
    (["--method", "product", "--series-limit", "1000"], "--series-limit"),
], ids=["product-flag-with-series", "series-flag-with-product"])
def test_density_conflicting_truncations_exit_2(runner, args, flag):
    result = runner.invoke(cli.main, ["density", "--degree", "2",
                                      "--kind", "theta", *args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert flag in result.stderr


def test_density_both_refuses_before_any_work(runner, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the product ran before the sieve was refused")
    monkeypatch.setattr(density, "theta_product", never)
    result = runner.invoke(cli.main, ["density", "-d", "2", "--kind", "theta",
                                      "--method", "both",
                                      "--series-limit", "1000000000"])
    assert result.exit_code == 3


@pytest.mark.parametrize("argv, limit", [
    (["--method", "series", "--series-limit", "2000000"], 10**6),
    (["--method", "both", "--prime-count", "78497", "--series-limit",
      "1999999"], cli._nth_prime_bound(78497)),
    (["--method", "product"], cli._nth_prime_bound(10000)),
    (["--method", "product", "--prime-count", "664579"], 10**7),
], ids=["series", "both", "product", "product-pi-1e7"])
def test_density_sizes_the_sieve_to_what_the_routes_need(runner, monkeypatch,
                                                         argv, limit):
    # The series needs a sieve to S // 2 for its root primes, the product
    # one to its prime-count-th prime; one sieve serves the larger need.
    limits = []
    build = cli.build_sieve

    def recorded(limit, **kwargs):
        limits.append(limit)
        return build(limit, **kwargs)

    monkeypatch.setattr(cli, "build_sieve", recorded)
    result = runner.invoke(cli.main, ["density", "-d", "2", "--kind", "rho",
                                      *argv])
    assert result.exit_code == 0
    assert limits == [limit]


@pytest.mark.parametrize("k", range(1, 8))
def test_prime_counts_at_powers_of_ten_match_the_sieve(k):
    assert (cli._PRIMES_TO_POWERS_OF_TEN[k - 1]
            == arith.build_sieve(10**k).primes.size)


def test_nth_prime_bound_takes_the_power_of_ten_that_holds_n_primes():
    # pi(10^7) = 664,579, the last of them 9,999,991, where the analytic
    # bound asks for 10,004,758, above the default --sieve-limit.
    assert cli._nth_prime_bound(664579) == 10**7
    assert cli._nth_prime_bound(78498) == 10**6
    assert 10**7 < cli._nth_prime_bound(664580) < 2 * 10**7
    assert cli._nth_prime_bound(10000) == 114307


def test_nth_prime_bound_holds_up_to_210000():
    # The tightest case is n = 39017, where Dusart's form takes over:
    # p = 467473 against a bound of 467484, a margin of 11.
    primes = arith.build_sieve(3_000_000).primes.tolist()
    short = [n for n in range(1, 210_001)
             if cli._nth_prime_bound(n) < primes[n - 1]]
    assert short == []


def test_density_disjoint_brackets_exit_4(runner, monkeypatch):
    def far_away(d, sieve, **kwargs):
        return DensityEstimate(kind="theta", degree=d, value=Fraction(9, 10),
                               lower=Fraction(9, 10), upper=Fraction(9, 10),
                               truncation=("series_limit", 10),
                               method="mobius_series")
    monkeypatch.setattr(density, "theta_series", far_away)
    result = runner.invoke(cli.main, ["density", "--degree", "2",
                                      "--kind", "theta", "--method", "both"])
    assert result.exit_code == 4
    assert "disjoint" in result.output


@pytest.mark.parametrize("args, flag", [
    (["-d", "100"], "--prime-count"),
    (["-d", "2", "--method", "series", "--series-limit", "2"],
     "--series-limit"),
    (["-d", "2", "--method", "both", "--series-limit", "3"], "--series-limit"),
], ids=["product-floor", "series-tail", "both"])
def test_density_refuses_a_bracket_that_reaches_0(runner, args, flag):
    # theta_100 ~ 3.9e-31 lies below 2^-96, and a series cut after s = 2 or
    # 3 leaves a tail wider than theta_2: either bracket starts at or below
    # 0, so its point value says nothing and no line is printed.
    result = runner.invoke(cli.main, ["density", "--kind", "theta", *args])
    assert result.exit_code == 2
    assert result.stdout == ""
    degree = args[1]
    assert (f"theta({degree}) is not separated from 0 at 96 bits"
            in result.stderr)
    assert "raise precision_bits (--precision-bits) or " in result.stderr
    assert f"({flag})" in result.stderr


def test_precision_bits_floor_is_enforced(runner):
    result = runner.invoke(cli.main, ["--precision-bits", "32", "density",
                                      "--degree", "2", "--kind", "theta"])
    assert result.exit_code == 2


def test_table_default_is_nine_rows(runner):
    result = runner.invoke(cli.main, ["table"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 10  # header plus d = 2..10
    assert "0.2515" in lines[1] and "0.1677" in lines[1]


def test_table_csv_golden_head(runner):
    result = runner.invoke(cli.main, ["table", "--degrees", "2..3",
                                      "--format", "csv"])
    assert result.exit_code == 0
    assert result.output == "d,theta,rho\n2,0.2515,0.1677\n3,0.0953,0.0556\n"


def test_table_json_parses(runner):
    result = runner.invoke(cli.main, ["table", "--degrees", "2..4",
                                      "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert [row["d"] for row in doc["rows"]] == [2, 3, 4]


def test_table_single_degree_argument(runner):
    result = runner.invoke(cli.main, ["table", "--degrees", "5",
                                      "--format", "csv"])
    assert result.exit_code == 0
    assert result.output.splitlines()[1].startswith("5,")


def test_table_uncertain_digit_exits_2(runner):
    # With 50 primes theta(2) = 0.2510 to 4 decimals, but the true value
    # rounds to 0.2515: the bracket [0.25097, 0.25751] does not fix it.
    result = runner.invoke(cli.main, ["table", "--degrees", "2..3",
                                      "--prime-count", "50"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "theta(2)" in result.stderr and "prime_count=50" in result.stderr


def test_table_empty_range_exits_2(runner):
    result = runner.invoke(cli.main, ["table", "--degrees", "5..4"])
    assert result.exit_code == 2


def test_table_degree_below_two_exits_2(runner):
    result = runner.invoke(cli.main, ["table", "--degrees", "1..4"])
    assert result.exit_code == 2


def test_output_format_group_default(runner):
    result = runner.invoke(cli.main, ["--output-format", "csv",
                                      "table", "--degrees", "2..2"])
    assert result.exit_code == 0
    assert result.output.startswith("d,theta,rho")


def test_verify_small_grid_passes(runner):
    result = runner.invoke(cli.main, ["verify", "--max-degree", "2",
                                      "--max-height", "5"])
    assert result.exit_code == 0
    assert "all equal" in result.output
    assert "MISMATCH" not in result.output


@pytest.mark.parametrize("budget, degree, height, code", [
    (None, "9", "50", 3),
    # the largest enumeration is general degree 2, height 3: 7^3 = 343
    ("343", "2", "3", 0),
    ("342", "2", "3", 3),
], ids=["default-budget", "budget-at-box", "budget-below-box"])
def test_verify_over_budget_exits_3_before_work(runner, budget, degree, height,
                                                code):
    group = [] if budget is None else ["--enumeration-budget", budget]
    result = runner.invoke(cli.main, group + ["verify", "--max-degree", degree,
                                              "--max-height", height])
    assert result.exit_code == code
    if code == 3:
        assert result.stdout == ""


def test_verify_mismatch_exits_4(runner, monkeypatch):
    def wrong(d, H, sieve, **kwargs):
        return ExactCount(value=2, degree=d, height=H, variant="monic",
                          method="inclusion_exclusion")
    monkeypatch.setattr(counting, "count_monic_eisenstein", wrong)
    result = runner.invoke(cli.main, ["verify", "--max-degree", "2",
                                      "--max-height", "3"])
    assert result.exit_code == 4
    assert "MISMATCH" in result.output


def test_error_term_csv(runner):
    result = runner.invoke(cli.main, ["error-term", "--variant", "monic",
                                      "--degree", "3",
                                      "--heights", "100,1000",
                                      "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "variant,d,H,exact,main,residual,ratio"
    assert lines[1].startswith("monic,3,100,776988,")
    assert lines[2].startswith("monic,3,1000,763362612,")


def test_error_term_text(runner):
    result = runner.invoke(cli.main, ["error-term", "--variant", "monic",
                                      "-d", "3", "--heights", "100,1000"])
    assert result.exit_code == 0
    assert result.stdout == (
        "H  exact  main  residual  ratio\n"
        "100  776988  762328.5842  14659.41578  1.465941578\n"
        "1000  763362612  762328584.2  1034027.777  1.034027777\n")


def test_error_term_json_formats_each_real_once(runner, monkeypatch):
    calls = []
    format_real = report._format_real

    def counted(x):
        calls.append(x)
        return format_real(x)

    monkeypatch.setattr(report, "_format_real", counted)
    result = runner.invoke(cli.main, ["error-term", "--variant", "monic",
                                      "-d", "3", "--heights", "100,1000",
                                      "--format", "json"])
    assert result.exit_code == 0
    assert len(json.loads(result.stdout)) == 2
    assert len(calls) == 3 * 2  # main, residual and ratio of each row


def test_error_term_height_one_exits_2(runner):
    result = runner.invoke(cli.main, ["error-term", "--variant", "monic",
                                      "--degree", "3", "--heights", "1"])
    assert result.exit_code == 2


@pytest.mark.parametrize("heights, message", [
    # Out of order: the top height is past the monic cap, which used to
    # be refused (exit 3) before the order was looked at.
    (f"3,2,{10 * MAX_MONIC_HEIGHT}", "heights must be strictly increasing"),
    (f"1,{10 * MAX_MONIC_HEIGHT}", "heights must all be at least 2"),
    # The contract is >= 2, not the counter's own >= 1.
    ("0", "heights must all be at least 2"),
], ids=["out-of-order-past-cap", "one-then-past-cap", "zero"])
def test_error_term_bad_heights_exit_2_before_any_sizing(runner, monkeypatch,
                                                         heights, message):
    _forbid(monkeypatch, "counting.sieve_limit", "cli.build_sieve")
    result = runner.invoke(cli.main, ["error-term", "--variant", "monic",
                                      "-d", "3", "--heights", heights])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(f"Error: {message}\n")


def test_error_term_rejects_garbage_heights(runner):
    for bad in ("10,x", "10;20", "", "30,20"):
        result = runner.invoke(cli.main, ["error-term", "--variant", "monic",
                                          "--degree", "3", "--heights", bad])
        assert result.exit_code == 2, bad


def test_help_lists_subcommands(runner):
    result = runner.invoke(cli.main, ["--help"])
    assert result.exit_code == 0
    for name in ("count", "density", "table", "verify", "error-term"):
        assert name in result.output
    assert "--threads" not in result.output


# The subcommand line each flag is tried on, and its error message.
MALFORMED = {
    "--degrees": (["table"], "expected a degree or LO..HI range, got {!r}"),
    "--heights": (["error-term", "--variant", "monic", "-d", "3"],
                  "heights must be integers, got {!r}"),
}


@pytest.mark.parametrize("flag, value", [
    ("--degrees", "²"),
    ("--degrees", "2.." + "9" * 5000),
    ("--degrees", "2.."),
    ("--degrees", "..3"),
    ("--degrees", "2x"),
    ("--heights", "100,,1000"),
    ("--heights", "1e3"),
], ids=["superscript", "5000-digits", "no-hi", "no-lo", "suffix",
        "empty-height", "float-height"])
def test_malformed_degrees_and_heights_exit_2(runner, flag, value):
    argv, message = MALFORMED[flag]
    result = runner.invoke(cli.main, [*argv, flag, value])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (
        f"Usage: main {argv[0]} [OPTIONS]\n"
        f"Try 'main {argv[0]} --help' for help.\n\n"
        f"Error: Invalid value for '{flag}': {message.format(value)}\n")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_error_term_past_the_float_range_exits_2(runner, fmt):
    # theta_110 ~ 2^-111 needs more than 96 bits to be told from 0; at 400
    # bits the main term of monic degree 110 at H = 1000 is about 5.1e329.
    result = runner.invoke(cli.main, ["--precision-bits", "400", "error-term",
                                      "--variant", "monic", "-d", "110",
                                      "--heights", "1000", "--format", fmt])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "a value of order 1e329 is past the float range" in result.stderr


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_error_term_count_past_the_int_digit_limit_exits_2(runner, fmt):
    # The count of monic degree 1000 at H = 10^6 has 6000 digits and
    # formats in full, so the refusal is the main term's own.
    result = runner.invoke(cli.main, ["--precision-bits", "1200", "error-term",
                                      "--variant", "monic", "-d", "1000",
                                      "--heights", "1000000", "--format", fmt])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "a value of order 1e5999 is past the float range" in result.stderr


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_error_term_refuses_a_constant_at_its_rounding_floor(runner,
                                                             monkeypatch, fmt):
    # theta_100 ~ 3.9e-31 is below 2^-96: at the default precision its
    # bracket starts at 0, so the main term would be rounding noise.
    def never(*args, **kwargs):
        raise AssertionError("counted before the constant was refused")
    monkeypatch.setattr(report, "count_monic_eisenstein", never)
    result = runner.invoke(cli.main, ["error-term", "--variant", "monic",
                                      "-d", "100", "--heights", "1000",
                                      "--format", fmt])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "theta(100) is not separated from 0 at 96 bits" in result.stderr
    assert "--precision-bits" in result.stderr


def test_error_term_names_the_prime_count_for_a_wide_bracket(runner):
    # One prime leaves theta_2 in [1/8, 1], wider than its value: more
    # precision cannot narrow that, more primes can.
    result = runner.invoke(cli.main, ["error-term", "--variant", "monic",
                                      "-d", "2", "--heights", "2",
                                      "--prime-count", "1"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert ("theta(2) is not separated from 0 at 96 bits: its bracket is "
            "[0.125, 1]" in result.stderr)
    assert "or prime_count (--prime-count)" in result.stderr


def test_error_term_at_higher_precision_keeps_the_main_term_certified(runner):
    result = runner.invoke(cli.main, ["--precision-bits", "400", "error-term",
                                      "--variant", "monic", "-d", "100",
                                      "--heights", "1000", "--format", "json"])
    assert result.exit_code == 0
    (row,) = json.loads(result.stdout)
    theta = theta_product(100, arith.build_sieve(200_000), precision_bits=400)
    assert 3.9e-31 < theta.lower < theta.upper < 4e-31
    # Both ends of the bracket times (2H)^100 print as the main term.
    scale = 2000 ** 100
    for end in (theta.lower, theta.upper):
        assert float(f"{float(end * scale):.10g}") == row["main"]


@pytest.mark.parametrize("argv", [
    ["error-term", "--variant", "monic", "-d", "3", "--heights", "10"],
    ["table", "--degrees", "2..3"],
], ids=["error-term", "table"])
def test_precision_bits_reaches_the_report_constants(runner, monkeypatch,
                                                     argv):
    seen = []

    def spy(d, sieve, **kwargs):
        seen.append(kwargs["precision_bits"])
        return theta_product(d, sieve, **kwargs)
    monkeypatch.setattr(report, "theta_product", spy)
    for group in ([], ["--precision-bits", "120"]):
        result = runner.invoke(cli.main, [*group, *argv])
        assert result.exit_code == 0
    half = len(seen) // 2
    assert seen == [96] * half + [120] * half and half


# The options a subcommand cannot run without, and for every subcommand
# option a valid value that differs from what a parse without it gives.
REQUIRED = {
    "count": {"degree": ("-d", "2"), "height": ("-H", "3"),
              "variant": ("--variant", "monic")},
    "density": {"degree": ("-d", "2"), "kind": ("--kind", "theta")},
    "table": {},
    "verify": {},
    "error-term": {"variant": ("--variant", "monic"), "degree": ("-d", "3"),
                   "heights": ("--heights", "10,20")},
}
ENV_VALUES = {
    ("count", "degree"): "5", ("count", "height"): "4",
    ("count", "variant"): "general", ("count", "method"): "both",
    ("density", "degree"): "4", ("density", "kind"): "rho",
    ("density", "prime_count"): "7", ("density", "series_limit"): "13",
    ("density", "method"): "series",
    ("table", "degrees"): "3..4", ("table", "prime_count"): "7",
    ("table", "fmt"): "json",
    ("verify", "max_degree"): "4", ("verify", "max_height"): "6",
    ("error-term", "variant"): "general", ("error-term", "degree"): "4",
    ("error-term", "heights"): "5,6", ("error-term", "prime_count"): "7",
    ("error-term", "fmt"): "csv",
}


def test_env_values_name_every_subcommand_option():
    assert set(ENV_VALUES) == {(name, param.name)
                               for name, command in cli.main.commands.items()
                               for param in command.params}


@pytest.mark.parametrize("command, name", sorted(ENV_VALUES))
def test_subcommand_options_read_no_environment(runner, parsed, command, name):
    param = next(p for p in cli.main.commands[command].params
                 if p.name == name)
    argv = [command, *(arg for other, pair in REQUIRED[command].items()
                       if other != name for arg in pair)]
    # Both spellings a prefix-derived variable could take: EISEN_TABLE_FMT
    # from the parameter name and EISEN_TABLE_FORMAT from the flag.
    flag = max(param.opts, key=len).lstrip("-")
    env = {f"EISEN_{command}_{n}".upper().replace("-", "_"):
           ENV_VALUES[command, name] for n in (param.name, flag)}
    codes = [runner.invoke(cli.main, argv, env=e).exit_code for e in ({}, env)]
    assert codes == [2 if param.required else 0] * 2
    assert len(parsed) == (0 if param.required else 2)
    assert parsed[:1] == parsed[1:]


def test_group_options_read_their_four_variables(runner, parsed):
    env = {"EISEN_SIEVE_LIMIT": "1000", "EISEN_ENUMERATION_BUDGET": "7",
           "EISEN_PRECISION_BITS": "200", "EISEN_OUTPUT_FORMAT": "json"}
    result = runner.invoke(cli.main, ["verify"], env=env)
    assert result.exit_code == 0
    [(cfg, _)] = parsed
    assert cfg == cli.CliConfig(sieve_limit=1000, enumeration_budget=7,
                                precision_bits=200, output_format="json")


def _readme_examples():
    """(argv, printed lines) of each ``$ eisencount`` example in README's
    "Command line" section."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S)[1]
    examples = re.findall(r"^\$ eisencount (.*)\n((?:.+\n)*)", block, re.M)
    return [(shlex.split(command), lines.splitlines())
            for command, lines in examples]


def test_readme_lists_five_examples():
    assert len(_readme_examples()) == 5


@pytest.mark.parametrize("argv, lines", [
    pytest.param(argv, lines, id=argv[0])
    for argv, lines in _readme_examples()])
def test_readme_example_prints_what_readme_shows(runner, argv, lines):
    result = runner.invoke(cli.main, argv)
    assert result.exit_code == 0
    assert result.stdout.splitlines() == lines


def test_invoking_main_leaves_the_collector_alone(runner):
    frozen = gc.get_freeze_count()
    result = runner.invoke(cli.main, ["count", "-d", "2", "-H", "2",
                                      "--variant", "monic"])
    assert result.exit_code == 0
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen
