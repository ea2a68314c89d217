"""The exact-count container shared by the counting and brute-force routes.

Kept apart from both routes so that neither imports the other: the
brute-force oracle stays an independent check on inclusion-exclusion.
It also holds the variants' and kinds' exponents, every default the CLI
declares an option with, and the caps and checks a command refuses by,
so that the CLI loads neither numpy nor a computing layer until a
command runs, and refuses without either.  Needs only the standard
library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetExceededError, InvariantError

# k = VARIANTS[variant] counts the coefficients that must be units mod the
# witness prime (a_0/p, and for general also a_d): POWERS' k.  A
# polynomial of degree d has d + k - 1 free coefficients.
VARIANTS = {"monic": 1, "general": 2}
METHODS = ("brute", "inclusion_exclusion")

# k = POWERS[kind] counts the coefficients that must be units mod p: a_0/p,
# and for rho also a_d.  It alone tells theta from rho, as the exponent in
# the factor (p-1)^k / p^(d+k), the numerator phi(s)^k and 1/2^(d+k).
POWERS = {"theta": 1, "rho": 2}
KINDS = tuple(POWERS)

# The CLI's defaults, here so that it declares its options without loading
# the layer each one sizes: the sieve (arith), the brute-force enumeration
# (oracle) and the density routes.
DEFAULT_SIEVE_LIMIT = 10**7
DEFAULT_ENUMERATION_BUDGET = 10**8
MIN_PRECISION_BITS = 60
DEFAULT_PRECISION_BITS = 96
DEFAULT_PRIME_COUNT = 10000
DEFAULT_SERIES_LIMIT = 10**6

# Hard cap on sieve size: the prime list there is about 46 MB.  Counts sieve
# only to isqrt(H) (general) or about H^(2/3) (monic), so the cap bounds the
# density routes.
MAX_SIEVE_LIMIT = 10**8

# Largest height a monic count accepts.  At the cap the sum sieves to
# 4.6e6, and counting.monic_sum_bound is about 7e11, far below 2^63.
MAX_MONIC_HEIGHT = 10**10

# Largest height a general count accepts.  Its time grows about as H: the
# cap takes a few minutes.  Every quotient H // j and every n of
# arith.mobius_segment then stays below 2^31, and counting.block_sum_bound
# below 2^63.
MAX_GENERAL_HEIGHT = 10**9


def check_sieve_limit(limit: int, max_limit: int) -> None:
    """The checks of arith.build_sieve, made before anything is allocated.

    ValueError if ``limit < 2``; BudgetExceededError if ``limit`` exceeds
    min(max_limit, MAX_SIEVE_LIMIT): a caller's budget can only lower the
    hard cap, never raise it.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be at least 2, got {limit}")
    budget = min(max_limit, MAX_SIEVE_LIMIT)
    if limit > budget:
        raise BudgetExceededError(
            f"sieve limit {limit} exceeds the memory budget {budget}"
        )


def check_height(variant: str, H: int) -> None:
    """ValueError unless the variant is known and H >= 1.

    BudgetExceededError if H is above the variant's cap, MAX_MONIC_HEIGHT
    or MAX_GENERAL_HEIGHT.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {tuple(VARIANTS)}")
    if H < 1:
        raise ValueError(f"height bound must be at least 1, got {H}")
    cap = MAX_MONIC_HEIGHT if variant == "monic" else MAX_GENERAL_HEIGHT
    if H > cap:
        raise BudgetExceededError(
            f"{variant} height {H} exceeds the cap {cap}")


def check_heights(heights: Sequence[int]) -> None:
    """ValueError unless the heights are strictly increasing, each >= 2."""
    if not heights:
        raise ValueError("need at least one height")
    if any(h < 2 for h in heights):
        raise ValueError("heights must all be at least 2")
    if any(b <= a for a, b in zip(heights, heights[1:])):
        raise ValueError("heights must be strictly increasing")


def box_size(variant: str, d: int, H: int) -> int:
    """(2H+1)^(d+k-1): the variant's polynomials of degree d, height <= H."""
    return (2 * H + 1) ** (d + VARIANTS[variant] - 1)


def check_box(variant: str, d: int, H: int, budget: int) -> None:
    """BudgetExceededError if box_size(variant, d, H) > budget.

    Decided without building the box: the running power stops at the
    first value over the budget, after about log_3(budget) products.
    """
    base, exponent = 2 * H + 1, d + VARIANTS[variant] - 1
    size = 1
    for _ in range(exponent):
        size *= base
        if size > budget:
            raise BudgetExceededError(
                f"{variant} degree-{d} enumeration needs {base}^{exponent} "
                f"polynomials, over the budget of {budget}")


@dataclass(frozen=True)
class ExactCount:
    """An exact polynomial count plus the parameters that produced it.

    ``value`` is a non-negative integer, never a float; ``variant`` says
    whether the leading coefficient was fixed to 1 (monic) or ranged over
    the height box (general); ``method`` records which route computed it.
    """

    value: int
    degree: int
    height: int
    variant: str
    method: str

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise InvariantError(f"variant must be one of {tuple(VARIANTS)}")
        if self.method not in METHODS:
            raise InvariantError(f"method must be one of {METHODS}")
        if not 0 <= self.value <= box_size(self.variant, self.degree, self.height):
            raise InvariantError("count outside the possible range for (degree, height)")
