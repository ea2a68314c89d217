"""Command line interface.

Subcommands: count, density, table, verify, error-term.  The four shared
knobs sit on the top-level group; each also reads one environment variable,
EISEN_SIEVE_LIMIT, EISEN_ENUMERATION_BUDGET, EISEN_PRECISION_BITS or
EISEN_OUTPUT_FORMAT (flags beat environment, environment beats defaults),
and subcommand options read none.  Exit codes are a stable contract:
0 success, 2 bad usage, 3 resource refusal, 4 verification failure.

Importing this module loads only what every subcommand needs: click,
``arith``, ``errors``, ``results`` (the option defaults) and the small
``oracle`` (the enumeration budget and the brute-force counters).  Each
command imports its own layers when it runs: ``count`` and ``verify``
``counting``, ``density`` the density layer, and ``table`` and
``error-term`` ``report``, which brings in both.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
import re
import sys
from dataclasses import dataclass

import click

from .arith import DEFAULT_SIEVE_LIMIT, build_sieve
from .errors import BudgetExceededError, InvariantError
from .oracle import (DEFAULT_ENUMERATION_BUDGET, brute_count_general,
                     brute_count_monic)
from .results import (DEFAULT_PRECISION_BITS, DEFAULT_PRIME_COUNT,
                      DEFAULT_SERIES_LIMIT, KINDS, MIN_PRECISION_BITS,
                      VARIANTS, check_box)


@dataclass(frozen=True)
class CliConfig:
    """Run-wide settings resolved from flags, environment, and defaults."""

    sieve_limit: int
    enumeration_budget: int
    precision_bits: int
    output_format: str


class VerificationFailure(click.ClickException):
    """A self-check found disagreement or a broken invariant; exit code 4."""

    exit_code = 4


def _guarded(fn):
    """Map library refusals and argument rejections onto the exit contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BudgetExceededError as exc:
            click.echo(f"refused: {exc}", err=True)
            sys.exit(3)
        except InvariantError as exc:
            raise VerificationFailure(f"broken invariant: {exc}")
        except ValueError as exc:
            raise click.UsageError(str(exc))

    return wrapper


@contextlib.contextmanager
def _all_digits():
    """Lift Python's limit on int -> str digits (3.10.7 on) for the block.

    Exact counts print in full however long; options were parsed under the
    limit, so a 5000-digit option value still exits 2.
    """
    # 0: no limit, as before 3.10.7, which lacks the function too.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# Most decimal digits an exact count may take.  CPython's int -> str is
# quadratic: 0.15 s at 1e5 digits, 15 s at 1e6.
MAX_COUNT_DIGITS = 10**5


def _check_digits(variant: str, d: int, H: int) -> None:
    """BudgetExceededError if the box (2H+1)^(d+k-1) has over MAX_COUNT_DIGITS.

    The box bounds every count of the variant.  The exponent is compared
    with a float, so d is never converted to one, however large.
    """
    base, exponent = 2 * H + 1, d + VARIANTS[variant] - 1
    if exponent > MAX_COUNT_DIGITS / math.log10(base):
        raise BudgetExceededError(
            f"{variant} degree-{d} counts at height {H} are bounded by "
            f"{base}^{exponent}, over the cap of {MAX_COUNT_DIGITS} digits")


# pi(10^k) for k = 1..8, the primes a sieve to 10^k holds.
_PRIMES_TO_POWERS_OF_TEN = (4, 25, 168, 1229, 9592, 78498, 664579, 5761455)


def _nth_prime_bound(n: int) -> int:
    """An upper bound for the n-th prime, safe for sieve sizing.

    The smaller of the least 10^k, k <= 8, with pi(10^k) >= n and the bound
    p_n < n(ln n + ln ln n) for n >= 6 (Rosser), p_n <= n(ln n + ln ln n
    - 0.9484) for n >= 39017 (Dusart, Math. Comp. 68, 1999).
    """
    if n < 6:
        bound = 13
    else:
        x = math.log(n) + math.log(math.log(n))
        if n >= 39017:
            x -= 0.9484
        bound = int(n * x) + 1
    return min([bound] + [10**k for k, count in
                          enumerate(_PRIMES_TO_POWERS_OF_TEN, start=1)
                          if count >= n])


def _counters(variant: str):
    """The variant's (inclusion-exclusion, brute-force) counters."""
    from . import counting
    if variant == "monic":
        return counting.count_monic_eisenstein, brute_count_monic
    return counting.count_general_eisenstein, brute_count_general


def _sieve_for(cfg: CliConfig, needed: int):
    """Build a sieve big enough for the command, capped by --sieve-limit."""
    return build_sieve(max(needed, 2), max_limit=cfg.sieve_limit)


def _parse_degrees(ctx, param, value: str) -> tuple[int, int]:
    """A single degree like ``7`` or a range like ``2..10``, as (lo, hi)."""
    match = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", value.strip())
    try:
        if match:
            return int(match[1]), int(match[2] or match[1])
    except ValueError:  # more digits than int() converts
        pass
    raise click.BadParameter(
        f"expected a degree or LO..HI range, got {value!r}")


def _parse_heights(ctx, param, value: str) -> tuple[int, ...]:
    """Comma-separated integer heights; the profile checks their order."""
    try:
        return tuple(int(part.strip()) for part in value.split(","))
    except ValueError:
        raise click.BadParameter(f"heights must be integers, got {value!r}")


# Output formats; each names its emitter in report, emit_<format>.
FORMATS = ("text", "csv", "json")

FORMAT_OPTION = click.option("--format", "fmt", type=click.Choice(FORMATS),
                             default=None, help="Defaults to --output-format.")


def _emit(fmt: str, obj) -> None:
    """Print obj by report's emitter for ``fmt``, looked up when called."""
    from . import report
    click.echo(getattr(report, f"emit_{fmt}")(obj), nl=False)


@click.group()
@click.option("--sieve-limit", envvar="EISEN_SIEVE_LIMIT",
              type=click.IntRange(min=2),
              default=DEFAULT_SIEVE_LIMIT, show_default=True,
              help="Largest sieve the run may allocate (memory cap).")
@click.option("--enumeration-budget", envvar="EISEN_ENUMERATION_BUDGET",
              type=click.IntRange(min=1),
              default=DEFAULT_ENUMERATION_BUDGET, show_default=True,
              help="Most polynomials a brute-force enumeration may visit.")
@click.option("--precision-bits", envvar="EISEN_PRECISION_BITS",
              type=click.IntRange(min=MIN_PRECISION_BITS),
              default=DEFAULT_PRECISION_BITS, show_default=True,
              help="Working precision (bits) of the density constants.")
@click.option("--output-format", envvar="EISEN_OUTPUT_FORMAT",
              type=click.Choice(FORMATS), default="text", show_default=True,
              help="Default rendering for commands with a --format flag.")
@click.pass_context
def main(ctx, sieve_limit, enumeration_budget, precision_bits, output_format):
    """Exact counts and densities of Eisenstein polynomials."""
    ctx.obj = CliConfig(sieve_limit=sieve_limit,
                        enumeration_budget=enumeration_budget,
                        precision_bits=precision_bits,
                        output_format=output_format)


@main.command("count")
@click.option("--degree", "-d", type=click.IntRange(min=2), required=True,
              help="Polynomial degree (at least 2).")
@click.option("--height", "-H", "height", type=click.IntRange(min=1),
              required=True, help="Height bound for the coefficients.")
@click.option("--variant", type=click.Choice(tuple(VARIANTS)), required=True)
@click.option("--method", type=click.Choice(["exact", "brute", "both"]),
              default="exact", show_default=True)
@click.pass_obj
@_guarded
def cmd_count(cfg: CliConfig, degree, height, variant, method):
    """Count Eisenstein polynomials of one degree and height bound."""
    from .counting import sieve_limit
    exact = brute = None
    fast_fn, brute_fn = _counters(variant)
    if method != "exact":  # refuse an oversized box before the sieve
        check_box(variant, degree, height, cfg.enumeration_budget)
    _check_digits(variant, degree, height)
    if method in ("exact", "both"):
        sieve = _sieve_for(cfg, sieve_limit(variant, height))
        exact = fast_fn(degree, height, sieve).value
    if method in ("brute", "both"):
        brute = brute_fn(degree, height, budget=cfg.enumeration_budget).value
    if method == "both" and exact != brute:
        raise VerificationFailure(
            f"count mismatch for {variant} degree {degree} height {height}: "
            f"inclusion-exclusion {exact} vs brute force {brute}"
        )
    with _all_digits():
        click.echo(exact if exact is not None else brute)


@main.command("density")
@click.option("--degree", "-d", type=click.IntRange(min=2), required=True)
@click.option("--kind", type=click.Choice(KINDS), required=True,
              help="theta: monic density; rho: general density.")
@click.option("--prime-count", type=click.IntRange(min=1), default=None,
              help="Truncate the product to the first N primes.")
@click.option("--series-limit", type=click.IntRange(min=1), default=None,
              help="Truncate the series at this modulus.")
@click.option("--method", type=click.Choice(["product", "series", "both"]),
              default="product", show_default=True)
@click.pass_obj
@_guarded
def cmd_density(cfg: CliConfig, degree, kind, prime_count, series_limit,
                method):
    """Evaluate a density constant with its rigorous bracket."""
    from .density import rho_product, rho_series, theta_product, theta_series
    product = method in ("product", "both")
    series = method in ("series", "both")
    for flag, value, used in (("--prime-count", prime_count, product),
                              ("--series-limit", series_limit, series)):
        if value is not None and not used:
            raise click.UsageError(f"{flag} does not apply to --method {method}")
    # One sieve sized for every route, so a refusal comes before any work:
    # the product reads its primes, the series the root primes to isqrt(S),
    # which a sieve to S // 2 holds.
    sizes = []
    if product:
        prime_count = prime_count or DEFAULT_PRIME_COUNT
        sizes.append(_nth_prime_bound(prime_count))
    if series:
        series_limit = series_limit or DEFAULT_SERIES_LIMIT
        sizes.append(series_limit // 2)
    sieve = _sieve_for(cfg, max(sizes))
    estimates = []
    if product:
        fn = theta_product if kind == "theta" else rho_product
        estimates.append(fn(degree, sieve, prime_count=prime_count,
                            precision_bits=cfg.precision_bits))
    if series:
        fn = theta_series if kind == "theta" else rho_series
        estimates.append(fn(degree, sieve, series_limit=series_limit,
                            precision_bits=cfg.precision_bits))
    for est in estimates:
        if est.lower <= 0:
            from .report import not_separated
            raise not_separated(est, cfg.precision_bits)
    for est in estimates:
        name, param = est.truncation
        click.echo(
            f"{est.kind}({est.degree}) = {float(est.value):.12g}  "
            f"in [{float(est.lower):.12g}, {float(est.upper):.12g}]  "
            f"via {est.method} {name}={param}"
        )
    if len(estimates) == 2:
        a, b = estimates
        if a.upper < b.lower or b.upper < a.lower:
            raise VerificationFailure(
                f"{kind}({degree}): product and series brackets are disjoint"
            )


@main.command("table")
@click.option("--degrees", callback=_parse_degrees, metavar="DEGREES",
              default="2..10", show_default=True,
              help="Degree range, e.g. 2..10 or a single degree.")
@click.option("--prime-count", type=click.IntRange(min=1),
              default=DEFAULT_PRIME_COUNT, show_default=True)
@FORMAT_OPTION
@click.pass_obj
@_guarded
def cmd_table(cfg: CliConfig, degrees, prime_count, fmt):
    """Tabulate theta and rho over a degree range at display precision."""
    from . import report
    d_min, d_max = degrees
    sieve = _sieve_for(cfg, _nth_prime_bound(prime_count))
    table = report.density_table(d_min, d_max, sieve, prime_count=prime_count,
                                 precision_bits=cfg.precision_bits)
    _emit(fmt or cfg.output_format, table)


@main.command("verify")
@click.option("--max-degree", type=click.IntRange(min=2), default=3,
              show_default=True)
@click.option("--max-height", type=click.IntRange(min=1), default=20,
              show_default=True)
@click.pass_obj
@_guarded
def cmd_verify(cfg: CliConfig, max_degree, max_height):
    """Replay the fast counts against brute force over a full grid."""
    # Refuse up front if the largest enumeration would blow the budget,
    # rather than part-way through the sweep.
    for variant in VARIANTS:
        check_box(variant, max_degree, max_height, cfg.enumeration_budget)
    sieve = _sieve_for(cfg, max_height)
    mismatches = []
    checks = 0
    click.echo("variant  degree  heights  result")
    for d in range(2, max_degree + 1):
        for variant in VARIANTS:
            fast, brute = _counters(variant)
            bad = []
            for H in range(1, max_height + 1):
                a = fast(d, H, sieve).value
                b = brute(d, H, budget=cfg.enumeration_budget).value
                checks += 1
                if a != b:
                    bad.append((H, a, b))
            status = "ok" if not bad else f"MISMATCH at H={bad[0][0]}"
            click.echo(f"{variant:<8} {d:<7} 1..{max_height:<5} {status}")
            mismatches += [(variant, d, *entry) for entry in bad]
    if mismatches:
        variant, d, H, a, b = mismatches[0]
        raise VerificationFailure(
            f"{len(mismatches)} of {checks} checks disagree; first: "
            f"{variant} degree {d} height {H}: "
            f"inclusion-exclusion {a} vs brute force {b}"
        )
    click.echo(f"{checks} comparisons, all equal")


@main.command("error-term")
@click.option("--variant", type=click.Choice(tuple(VARIANTS)), required=True)
@click.option("--degree", "-d", type=click.IntRange(min=2), required=True)
@click.option("--heights", callback=_parse_heights, metavar="HEIGHTS",
              required=True,
              help="Comma-separated, strictly increasing, each >= 2.")
@click.option("--prime-count", type=click.IntRange(min=1),
              default=DEFAULT_PRIME_COUNT, show_default=True,
              help="Product truncation for the density constant.")
@FORMAT_OPTION
@click.pass_obj
@_guarded
def cmd_error_term(cfg: CliConfig, variant, degree, heights, prime_count, fmt):
    """Profile exact counts against main terms along a height ladder."""
    from . import report
    from .counting import sieve_limit
    report.check_heights(heights)  # bad usage before any sizing refusal
    needed = max(_nth_prime_bound(prime_count),
                 *(sieve_limit(variant, h) for h in heights))
    _check_digits(variant, degree, max(heights))
    sieve = _sieve_for(cfg, needed)
    rows = report.error_term_profile(variant, degree, heights, sieve,
                                     prime_count=prime_count,
                                     precision_bits=cfg.precision_bits)
    with _all_digits():
        _emit(fmt or cfg.output_format, rows)


def run() -> None:
    """The console entry: ``main()`` with the import heap frozen.

    A command's process exits soon after it starts, and the interpreter's
    exit collection would walk the ~22,000 container objects alive once
    numpy, click and this module's imports are loaded; the layers a
    command loads later add about 900.  Frozen objects are never
    collected.  No collection runs before the freeze: after the imports
    one finds no unreachable object, and it would cost a full walk of
    the same heap.  A library import, or a caller of ``main`` (click's
    CliRunner, an in-process benchmark), leaves the collector alone.
    """
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
