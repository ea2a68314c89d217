"""Brute-force ground truth for the Eisenstein criterion.

Everything here works by direct enumeration and trial division, with no
sieve, no Möbius function and no inclusion-exclusion, so it can serve as
an independent check on the fast counting route.  ``Polynomial`` and
:func:`is_eisenstein` decide one polynomial at a time; the counters give
every polynomial of the box its own truth value too, but in numpy blocks.

The counters loop in Python over the constant term a_0 and find its
candidate primes (those dividing it exactly once) by trial division.  For
one a_0 the remaining coefficients span a box with one axis each: the
leading coefficient (over [-H, H], or only the value 1 for a monic
count), then the d - 1 middle ones, over [-H, H].  Prime p witnesses
exactly the cells of the outer product of per-axis masks: p ∤ a_d on the
leading axis and p | a_i on each middle one.  The masks of all candidate
primes are ORed cell by cell and the true cells counted.  The box is cut
into blocks of at most ``BLOCK`` cells by looping over its first axes,
so the memory stays a few blocks whatever the degree.  Requests above a
configurable polynomial budget are refused before any array is
allocated, rather than truncated silently.

The CLI imports this module to declare its commands, so only the
functions that build arrays import numpy, when they first run.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import check_degree_height
from .results import (DEFAULT_ENUMERATION_BUDGET, VARIANTS, ExactCount,
                      check_box)

if TYPE_CHECKING:  # the annotations only; the functions import it
    import numpy as np

# Most cells (polynomials sharing one a_0) that one numpy block holds.
BLOCK = 2**16


@dataclass(frozen=True)
class Polynomial:
    """Integer polynomial, coefficients stored constant term first.

    ``coefficients[i]`` is the coefficient of X^i, so the tuple runs
    a_0, a_1, ..., a_d and has length d + 1.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coefficients)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def height(self) -> int:
        """Largest absolute value among the coefficients."""
        return max(abs(c) for c in self.coefficients)

    @property
    def constant_term(self) -> int:
        return self.coefficients[0]

    @property
    def leading_coefficient(self) -> int:
        return self.coefficients[-1]


def _prime_divisors(n: int) -> tuple[int, ...]:
    """Ascending prime divisors of |n| by trial division; n must be nonzero."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def _candidate_primes(a0: int) -> tuple[int, ...]:
    """Primes dividing a0 exactly once; the only possible witnesses."""
    if a0 == 0:
        return ()
    return tuple(p for p in _prime_divisors(a0) if a0 % (p * p) != 0)


def eisenstein_witnesses(f: Polynomial) -> list[int]:
    """All primes certifying the Eisenstein criterion for f, ascending.

    A witness p divides every coefficient below the leading one, divides
    the constant term only to the first power, and does not divide the
    leading coefficient.  Any witness must divide a_0, so the search runs
    over the prime divisors of the constant term; a_0 = 0 admits none
    (every p^2 divides 0).

    Raises ValueError for constant polynomials, where the criterion is
    not defined.
    """
    if f.degree < 1:
        raise ValueError("criterion needs degree at least 1")
    middles = f.coefficients[1:-1]
    lead = f.coefficients[-1]
    witnesses = []
    for p in _candidate_primes(f.constant_term):
        if any(c % p for c in middles):
            continue
        if lead % p == 0:
            continue
        witnesses.append(p)
    return witnesses


def is_eisenstein(f: Polynomial) -> bool:
    """True when at least one witness prime exists."""
    return bool(eisenstein_witnesses(f))


def _blocks(sizes: list[int]) -> Iterator[tuple[slice, ...]]:
    """Index tuples that cut a box of these axis sizes into <= BLOCK cells.

    The trailing axes that fit whole stay whole; the axis before them is
    cut into runs, and every axis before that is taken one value at a time.
    """
    t, inner = len(sizes), 1
    while t and inner * sizes[t - 1] <= BLOCK:
        t -= 1
        inner *= sizes[t]
    whole = (slice(None),) * (len(sizes) - t)
    if not t:
        yield whole
        return
    step = BLOCK // inner
    for prefix in itertools.product(*map(range, sizes[:t - 1])):
        head = tuple(slice(i, i + 1) for i in prefix)
        for j in range(0, sizes[t - 1], step):
            yield head + (slice(j, j + step),) + whole


def _outer(masks: list[np.ndarray]) -> np.ndarray:
    """The boolean outer product: one cell per choice of an entry per mask."""
    import numpy as np
    out = masks[0]
    for mask in masks[1:]:
        out = np.logical_and.outer(out, mask)
    return out


def _divisible(H: int, p: int) -> np.ndarray:
    """Mask over the values -H..H that p divides; index i holds i - H."""
    import numpy as np
    mask = np.zeros(2 * H + 1, bool)
    mask[H % p::p] = True
    return mask


def _brute_count(variant: str, d: int, H: int, budget: int) -> ExactCount:
    """Exhaust the variant's box; bad arguments raise before it is sized."""
    check_degree_height(d, H)
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    check_box(variant, d, H, budget)
    import numpy as np
    span = np.arange(-H, H + 1)
    # a_d is free only when k = 2; a monic a_d = 1 is never divisible.  Its
    # axis goes first: a one-cell axis last would make _outer copy a block.
    leads = span if VARIANTS[variant] == 2 else np.ones(1, np.int64)
    sizes = [leads.size] + [span.size] * (d - 1)
    count = 0
    for a0 in range(-H, H + 1):
        primes = _candidate_primes(a0)
        if not primes:
            continue
        masks = [[leads % p != 0] + [_divisible(H, p)] * (d - 1)
                 for p in primes]
        for block in _blocks(sizes):
            hit = _outer([axis[i] for axis, i in zip(masks[0], block)])
            for mask in masks[1:]:
                hit |= _outer([axis[i] for axis, i in zip(mask, block)])
            count += int(np.count_nonzero(hit))
    return ExactCount(value=count, degree=d, height=H, variant=variant,
                      method="brute")


def brute_count_monic(d: int, H: int, *,
                      budget: int = DEFAULT_ENUMERATION_BUDGET) -> ExactCount:
    """Count monic Eisenstein polynomials by exhausting the coefficient box.

    Enumerates every (a_0, ..., a_{d-1}) with entries in [-H, H], leading
    coefficient fixed to 1, and counts those passing the criterion.  The
    box holds (2H+1)^d polynomials; requests above ``budget`` are refused
    with :class:`BudgetExceededError` before any work starts.
    """
    return _brute_count("monic", d, H, budget)


def brute_count_general(d: int, H: int, *,
                        budget: int = DEFAULT_ENUMERATION_BUDGET) -> ExactCount:
    """Count Eisenstein polynomials with the leading coefficient free too.

    Enumerates (a_0, ..., a_d), all entries in [-H, H], which is
    (2H+1)^(d+1) polynomials against the budget.  A polynomial counts when
    some candidate prime of a_0 divides all middle coefficients and misses
    the leading one; a_d = 0 never qualifies.
    """
    return _brute_count("general", d, H, budget)
