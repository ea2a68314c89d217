"""The exact-count container shared by the counting and brute-force routes.

Kept apart from both routes so that neither imports the other: the
brute-force oracle stays an independent check on inclusion-exclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, InvariantError

# k = VARIANTS[variant] counts the coefficients that must be units mod the
# witness prime (a_0/p, and for general also a_d): density.POWERS' k.  A
# polynomial of degree d has d + k - 1 free coefficients.
VARIANTS = {"monic": 1, "general": 2}
METHODS = ("brute", "inclusion_exclusion")


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
