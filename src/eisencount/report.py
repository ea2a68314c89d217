"""Verification artifacts: density tables, error-term profiles, CSV/JSON.

This module assembles results from the counting and density layers into
the two deliverable shapes: a table of theta_d and rho_d at display
precision, and a profile showing how far exact counts sit from their
main terms as the height grows.  Both render to text, CSV and JSON with
stable column order and byte-reproducible formatting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .arith import ArithSieve
from .counting import count_general_eisenstein, count_monic_eisenstein
from .density import DensityEstimate, rho_product, theta_product
from .errors import check_degree
from .results import (DEFAULT_PRECISION_BITS, DEFAULT_PRIME_COUNT, VARIANTS,
                      check_heights)

PROFILE_COLUMNS = ("variant", "d", "H", "exact", "main", "residual", "ratio")
TABLE_COLUMNS = ("d", "theta", "rho")
# Decimal places of a density table entry.
PLACES = 4


def round_half_away(value: Fraction | int) -> str:
    """Decimal string to PLACES places, rounding ties away from zero.

    >>> round_half_away(Fraction(25145, 100000))
    '0.2515'
    """
    frac = Fraction(value) * 10 ** PLACES
    q, r = divmod(abs(frac.numerator), frac.denominator)
    if 2 * r >= frac.denominator:
        q += 1
    sign = "-" if frac < 0 and q > 0 else ""
    scale = 10 ** PLACES
    return f"{sign}{q // scale}.{q % scale:0{PLACES}d}"


def _real(x) -> float:
    """Round a real to 10 significant digits, the interchange precision."""
    return float(_format_real(x))


def _format_real(x) -> str:
    """A real at 10 significant digits; ValueError past the float range."""
    try:
        return f"{float(x):.10g}"
    except OverflowError:  # only an int or a Fraction gets this far
        exponent = math.log10(abs(x.numerator)) - math.log10(x.denominator)
        raise ValueError(f"a value of order 1e{int(exponent)} is past the "
                         "float range of the output formats") from None


@dataclass(frozen=True)
class DensityTable:
    """Rows of (degree, theta at 4 decimals, rho at 4 decimals)."""

    rows: tuple[tuple[int, str, str], ...]
    prime_count: int


@dataclass(frozen=True)
class ErrorTermRow:
    """One height's comparison of an exact count against its main term.

    ``main`` is c * (2H)^(d+k-1), k = VARIANTS[variant], with c = theta_d
    for monic and rho_d for general counts; ``residual`` is exact - main,
    and ``ratio`` divides the residual by the growth order from
    :func:`error_normalization`.
    """

    variant: str
    degree: int
    height: int
    exact: int
    main: Fraction
    residual: Fraction
    ratio: float


def error_normalization(variant: str, d: int, H: int) -> int | float:
    """Growth order the residual is measured against.

    H^(d+k-2) for k = VARIANTS[variant], i.e. H^(d-1) for monic and H^d
    for general counts, times (ln H)^2 when d = 2.  Degrees and heights
    must be at least 2; the height so that the logarithm is positive.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {tuple(VARIANTS)}")
    check_degree(d)
    if H < 2:
        raise ValueError(f"height must be at least 2, got {H}")
    growth = H ** (d + VARIANTS[variant] - 2)
    return growth if d > 2 else growth * math.log(H) ** 2


def density_table(d_min: int, d_max: int, sieve: ArithSieve, *,
                  prime_count: int = DEFAULT_PRIME_COUNT,
                  precision_bits: int = DEFAULT_PRECISION_BITS) -> DensityTable:
    """Tabulate theta_d and rho_d for d_min <= d <= d_max at 4 decimals.

    Values come from the Euler products truncated to ``prime_count``
    primes at ``precision_bits``; display strings round ties away from
    zero.  Every digit shown is certified: both ends of each bracket must
    round to the same string, otherwise ValueError names the constant that
    is not.
    """
    if not 2 <= d_min <= d_max:
        raise ValueError(f"need 2 <= d_min <= d_max, got {d_min}..{d_max}")
    rows = []
    for d in range(d_min, d_max + 1):
        theta = theta_product(d, sieve, prime_count=prime_count,
                              precision_bits=precision_bits)
        rho = rho_product(d, sieve, prime_count=prime_count,
                          precision_bits=precision_bits)
        rows.append((d, _certified_display(theta), _certified_display(rho)))
    return DensityTable(rows=tuple(rows), prime_count=prime_count)


def _certified_display(est: DensityEstimate) -> str:
    """The 4-decimal display of an estimate whose bracket fixes every digit."""
    lower, upper = round_half_away(est.lower), round_half_away(est.upper)
    if lower != upper:
        name, param = est.truncation
        raise ValueError(
            f"{est.kind}({est.degree}) is not certain to {PLACES} decimals with "
            f"{name}={param}: its bracket rounds to {lower}..{upper}"
        )
    return lower


def not_separated(est: DensityEstimate, precision_bits: int) -> ValueError:
    """Refuse a bracket that reaches 0; ask for more precision or terms."""
    remedy = " or ".join(f"{name} (--{name.replace('_', '-')})"
                         for name in ("precision_bits", est.truncation[0]))
    return ValueError(
        f"{est.kind}({est.degree}) is not separated from 0 at "
        f"{precision_bits} bits: its bracket is "
        f"[{float(est.lower):.3g}, {float(est.upper):.3g}]; raise {remedy}")


def error_term_profile(variant: str, d: int, heights: Sequence[int],
                       sieve: ArithSieve, *,
                       prime_count: int = DEFAULT_PRIME_COUNT,
                       precision_bits: int = DEFAULT_PRECISION_BITS
                       ) -> list[ErrorTermRow]:
    """Compare exact counts against main terms along increasing heights.

    For each H in ``heights`` (strictly increasing, every one at least 2)
    the exact count comes from the inclusion-exclusion counter and the
    main term from the point value of the density constant at the given
    product truncation and ``precision_bits``.  A constant whose bracket
    does not keep it away from 0 (lower end <= 0, or width >= value), as
    at 96 bits and 10,000 primes theta_d from d = 89 on and rho_d from
    d = 88 on, raises ValueError before any count.  The residual and
    ratio are computed from the point value alone; the width of the
    constant's bracket is not carried into them, and it can exceed the
    residual (monic d = 2 with 1e4 primes: residual 1.08e4 at H = 1e5,
    main-term bracket 5.7e5 wide).  ROADMAP item 3
    carries the residual as an interval instead.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {tuple(VARIANTS)}")
    heights = list(heights)
    check_heights(heights)
    monic = variant == "monic"
    product = theta_product if monic else rho_product
    constant = product(d, sieve, prime_count=prime_count,
                       precision_bits=precision_bits)
    if constant.lower <= 0 or constant.width >= constant.value:
        raise not_separated(constant, precision_bits)
    count_fn = count_monic_eisenstein if monic else count_general_eisenstein
    power = d + VARIANTS[variant] - 1
    rows = []
    for H in heights:
        exact = count_fn(d, H, sieve).value
        main = constant.value * 2 ** power * H ** power
        residual = exact - main
        ratio = float(residual / error_normalization(variant, d, H))
        rows.append(ErrorTermRow(variant=variant, degree=d, height=H,
                                 exact=exact, main=main, residual=residual,
                                 ratio=ratio))
    return rows


def _require_rows(obj) -> tuple[str, list]:
    """Classify emitter input as a density table or a list of profile rows."""
    if isinstance(obj, DensityTable):
        if not obj.rows:
            raise ValueError("refusing to emit an empty table")
        return "table", list(obj.rows)
    rows = list(obj) if isinstance(obj, Iterable) else None
    if not rows:
        raise ValueError("refusing to emit empty output")
    if not all(isinstance(r, ErrorTermRow) for r in rows):
        raise TypeError("expected a DensityTable or ErrorTermRow items")
    return "profile", rows


def emit_text(obj: DensityTable | Iterable[ErrorTermRow]) -> str:
    """Render for reading: a header and space-separated rows, LF endings."""
    shape, rows = _require_rows(obj)
    if shape == "table":
        lines = ["d   theta   rho"]
        lines += [f"{d:<3} {theta}  {rho}" for d, theta, rho in rows]
    else:
        lines = ["H  exact  main  residual  ratio"]
        lines += [f"{r.height}  {r.exact}  {_format_real(r.main)}  "
                  f"{_format_real(r.residual)}  {_format_real(r.ratio)}"
                  for r in rows]
    return "\n".join(lines) + "\n"


def emit_csv(obj: DensityTable | Iterable[ErrorTermRow]) -> str:
    """Render to CSV: header then data rows, LF endings.

    Density tables use columns d,theta,rho with the 4-decimal display
    strings; profiles use variant,d,H,exact,main,residual,ratio with the
    exact count in full decimal and reals at 10 significant digits.
    """
    shape, rows = _require_rows(obj)
    if shape == "table":
        lines = [",".join(TABLE_COLUMNS)]
        lines += [f"{d},{theta},{rho}" for d, theta, rho in rows]
    else:
        lines = [",".join(PROFILE_COLUMNS)]
        lines += [
            f"{r.variant},{r.degree},{r.height},{r.exact},"
            f"{_format_real(r.main)},{_format_real(r.residual)},"
            f"{_format_real(r.ratio)}"
            for r in rows
        ]
    return "\n".join(lines) + "\n"


def emit_json(obj: DensityTable | Iterable[ErrorTermRow]) -> str:
    """Render to JSON, losslessly for downstream consumers.

    Exact counts are decimal strings (they overflow fixed-width integer
    parsers); reals are JSON numbers rounded to 10 significant digits.
    A density table becomes an object with prime_count and rows; a
    profile becomes an array of row objects.
    """
    import json  # here, as text and CSV runs need none of it
    shape, rows = _require_rows(obj)
    if shape == "table":
        payload = {
            "prime_count": obj.prime_count,
            "rows": [{"d": d, "theta": theta, "rho": rho}
                     for d, theta, rho in rows],
        }
    else:
        payload = [
            {
                "variant": r.variant,
                "d": r.degree,
                "H": r.height,
                "exact": str(r.exact),
                "main": _real(r.main),
                "residual": _real(r.residual),
                "ratio": _real(r.ratio),
            }
            for r in rows
        ]
    return json.dumps(payload, indent=2) + "\n"
