"""The exact-count container shared by the counting and brute-force routes.

Kept apart from both routes so that neither imports the other: the
brute-force oracle stays an independent check on inclusion-exclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError

VARIANTS = ("monic", "general")
METHODS = ("brute", "inclusion_exclusion")


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
            raise InvariantError(f"variant must be one of {VARIANTS}")
        if self.method not in METHODS:
            raise InvariantError(f"method must be one of {METHODS}")
        if not 0 <= self.value <= (2 * self.height + 1) ** (self.degree + 1):
            raise InvariantError("count outside the possible range for (degree, height)")
