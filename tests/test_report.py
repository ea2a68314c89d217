"""Table assembly, error profiles, and CSV/JSON rendering tests."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from eisencount import report
from eisencount.density import _cached_power_sums, theta_product
from eisencount.report import (DensityTable, ErrorTermRow, density_table,
                               emit_csv, emit_json, emit_text,
                               error_normalization, error_term_profile,
                               round_half_away)

GOLDENS = Path(__file__).with_name("goldens")


def test_round_half_away_cases():
    assert round_half_away(Fraction(25145, 100000)) == "0.2515"
    assert round_half_away(Fraction(25144, 100000)) == "0.2514"
    assert round_half_away(Fraction(1, 2) * Fraction(1, 10**4)) == "0.0001"
    assert round_half_away(Fraction(4, 10**5)) == "0.0000"
    assert round_half_away(Fraction(-25145, 100000)) == "-0.2515"
    assert round_half_away(Fraction(-4, 10**5)) == "0.0000"
    assert round_half_away(Fraction(10005, 10**4)) == "1.0005"


def test_single_row_table(big_sieve):
    table = density_table(2, 2, big_sieve)
    assert table.prime_count == 10000
    assert table.rows == ((2, "0.2515", "0.1677"),)


def test_table_display_columns_are_ordered(big_sieve):
    table = density_table(2, 10, big_sieve, prime_count=10000)
    degrees = [d for d, _, _ in table.rows]
    thetas = [float(t) for _, t, _ in table.rows]
    rhos = [float(r) for _, _, r in table.rows]
    assert degrees == list(range(2, 11))
    assert all(a > b for a, b in zip(thetas, thetas[1:]))
    assert all(a >= b for a, b in zip(rhos, rhos[1:]))


def test_table_rejects_bad_ranges(big_sieve):
    with pytest.raises(ValueError):
        density_table(3, 2, big_sieve)
    with pytest.raises(ValueError):
        density_table(1, 4, big_sieve)


def test_error_normalization_case_split():
    assert error_normalization("monic", 4, 10) == 10**3
    assert error_normalization("general", 4, 10) == 10**4
    assert error_normalization("monic", 2, 10) == pytest.approx(
        10 * math.log(10) ** 2)
    assert error_normalization("general", 2, 10) == pytest.approx(
        100 * math.log(10) ** 2)
    with pytest.raises(ValueError):
        error_normalization("monic", 2, 1)
    with pytest.raises(ValueError):
        error_normalization("cubic", 2, 10)
    with pytest.raises(ValueError, match="degree must be at least 2"):
        error_normalization("monic", 1, 10)


def test_profile_small_anchors(sieve):
    rows = error_term_profile("monic", 3, [2], sieve, prime_count=1000)
    assert rows[0].exact == 18
    rows = error_term_profile("monic", 2, [10], sieve, prime_count=1000)
    assert rows[0].exact == 108
    assert float(rows[0].main) == pytest.approx(0.2515 * 4 * 100, rel=1e-3)


def test_profile_rows_are_internally_consistent(sieve):
    rows = error_term_profile("general", 2, [10, 50], sieve, prime_count=1000)
    for row in rows:
        assert row.exact - row.main == row.residual
        norm = error_normalization(row.variant, row.degree, row.height)
        assert row.ratio == pytest.approx(float(row.residual / norm), rel=1e-12)


def test_profile_validation(sieve):
    with pytest.raises(ValueError):
        error_term_profile("monic", 3, [], sieve)
    with pytest.raises(ValueError):
        error_term_profile("monic", 3, [1, 10], sieve)
    with pytest.raises(ValueError):
        error_term_profile("monic", 3, [10, 10], sieve)
    with pytest.raises(ValueError):
        error_term_profile("monic", 3, [50, 10], sieve)
    with pytest.raises(ValueError):
        error_term_profile("diag", 3, [10], sieve)


def test_table_computes_the_power_sums_once(big_sieve):
    # The 18 products share one pass over the primes above the cut.
    _cached_power_sums.cache_clear()
    density_table(2, 10, big_sieve, prime_count=78498)
    info = _cached_power_sums.cache_info()
    assert (info.misses, info.hits) == (1, 17)


def test_profile_refuses_a_constant_it_cannot_tell_from_zero(sieve,
                                                             monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("counted before the constant was refused")
    monkeypatch.setattr(report, "count_monic_eisenstein", never)
    with pytest.raises(ValueError, match=r"theta\(100\) is not separated "
                                         "from 0 at 96 bits"):
        error_term_profile("monic", 100, [1000], sieve, prime_count=1000)
    # One prime leaves a bracket [1/8, 1] that is wider than its value.
    monkeypatch.setattr(report, "count_general_eisenstein", never)
    with pytest.raises(ValueError, match=r"rho\(2\) is not separated"):
        error_term_profile("general", 2, [10], sieve, prime_count=1)


def test_profile_main_term_lies_in_the_scaled_bracket(sieve):
    theta = theta_product(100, sieve, prime_count=1000, precision_bits=400)
    (row,) = error_term_profile("monic", 100, [1000], sieve,
                                prime_count=1000, precision_bits=400)
    scale = 2000 ** 100
    assert theta.lower * scale <= row.main <= theta.upper * scale
    assert row.main == theta.value * scale


def test_emit_text_matches_the_table_golden(big_sieve):
    # The golden the CLI's `table --degrees 2..10 --prime-count 78498`
    # output is diffed against.
    table = density_table(2, 10, big_sieve, prime_count=78498)
    assert (emit_text(table)
            == (GOLDENS / "table_2_10_78498.txt").read_text())


def test_emit_csv_density_golden(big_sieve):
    table = density_table(2, 2, big_sieve)
    assert emit_csv(table) == "d,theta,rho\n2,0.2515,0.1677\n"


def test_emit_csv_profile_shape(sieve):
    rows = error_term_profile("monic", 2, [2], sieve, prime_count=1000)
    text = emit_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "variant,d,H,exact,main,residual,ratio"
    cells = lines[1].split(",")
    assert cells[0] == "monic"
    assert cells[1] == "2" and cells[2] == "2"
    assert cells[3] == "6"  # exact count, full decimal
    assert len(lines) == 2 and text.endswith("\n")


def test_emit_csv_uses_full_decimal_for_big_counts():
    row = ErrorTermRow(variant="general", degree=9, height=40,
                       exact=12345678901234567890123456789,
                       main=Fraction(1, 3), residual=Fraction(2, 3),
                       ratio=0.5)
    text = emit_csv([row])
    assert "12345678901234567890123456789" in text
    assert "e+" not in text.split(",")[3]


@pytest.mark.parametrize("emit", [emit_text, emit_csv, emit_json],
                         ids=["text", "csv", "json"])
def test_emitters_refuse_reals_past_the_float_range(emit):
    row = ErrorTermRow(variant="monic", degree=110, height=1000, exact=1,
                       main=Fraction(10**400, 3), residual=Fraction(1, 3),
                       ratio=0.5)
    with pytest.raises(ValueError, match="of order 1e399 is past the float"):
        emit([row])


def test_emit_csv_round_trips_by_reformatting(sieve):
    rows = error_term_profile("monic", 3, [10, 100], sieve,
                              prime_count=1000)
    text = emit_csv(rows)
    lines = text.splitlines()
    rebuilt = [lines[0]]
    for line in lines[1:]:
        variant, d, H, exact, main, residual, ratio = line.split(",")
        rebuilt.append(",".join([
            variant, d, H, exact,
            f"{float(main):.10g}", f"{float(residual):.10g}",
            f"{float(ratio):.10g}",
        ]))
    assert "\n".join(rebuilt) + "\n" == text


def test_emit_json_density_structure(big_sieve):
    table = density_table(2, 3, big_sieve)
    doc = json.loads(emit_json(table))
    assert doc["prime_count"] == 10000
    assert doc["rows"][0] == {"d": 2, "theta": "0.2515", "rho": "0.1677"}
    assert len(doc["rows"]) == 2


def test_emit_json_profile_structure(sieve):
    rows = error_term_profile("monic", 2, [2], sieve, prime_count=1000)
    doc = json.loads(emit_json(rows))
    assert isinstance(doc, list) and len(doc) == 1
    entry = doc[0]
    assert entry["variant"] == "monic"
    assert entry["d"] == 2 and entry["H"] == 2
    assert entry["exact"] == "6"  # decimal string, not a number
    assert isinstance(entry["main"], float)


def test_emit_json_round_trips_byte_identically(big_sieve, sieve):
    for text in (emit_json(density_table(2, 4, big_sieve)),
                 emit_json(error_term_profile("general", 3, [10, 40], sieve,
                                              prime_count=1000))):
        assert json.dumps(json.loads(text), indent=2) + "\n" == text


def test_emitters_reject_empty_input():
    for emit in (emit_text, emit_csv, emit_json):
        with pytest.raises(ValueError):
            emit([])
        with pytest.raises(ValueError):
            emit(DensityTable(rows=(), prime_count=10))
        with pytest.raises(TypeError):
            emit([object()])
