"""Exact Eisenstein counts via Moebius inclusion-exclusion.

The number of Eisenstein polynomials of degree d and height at most H is
assembled from per-modulus counts: for a square-free modulus s, the
polynomials whose witness primes include every prime of s form a box
whose cardinality has a closed form in terms of :func:`~eisencount.arith.
phi_bounded`.  Alternating these boxes over all square-free s up to H
gives the exact count.

The sum is split at r = isqrt(H).  The head, s <= r, calls the closed
form once per modulus (about sqrt(H) calls).  In the tail, s > r, the
quotient q = H // s is below sqrt(H) and constant on runs of consecutive
s.  There the phi_bounded factors are filled into int64 numpy arrays
WINDOW moduli at a time and summed per run of equal q, so only the
O(sqrt(H)) run sums are multiplied, as Python integers, by the
big-integer power (2q+1)^(d-1).  The windows bound the extra memory to a
few WINDOW-sized arrays next to the Moebius table of length H + 1.  The
result is exact: block_sum_bound keeps the int64 sums from wrapping.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import ArithSieve, mobius_table, phi_bounded
from .errors import check_degree_height
from .results import VARIANTS, ExactCount


def count_monic_s(d: int, s: int, H: int, sieve: ArithSieve) -> int:
    """Monic polynomials of degree d whose lower coefficients all carry s.

    Counts monic f = X^d + a_{d-1} X^{d-1} + ... + a_0 with every |a_i| <= H,
    s dividing each of a_0 .. a_{d-1}, and a_0 / s coprime to s.  Writing
    q = floor(H / s), the choices factor as (2q+1) per middle coefficient
    and phi_bounded(s, q) for the constant term:

        (2q + 1)^(d-1) * phi_bounded(s, q)

    For square-free s this is exactly the number of monic polynomials whose
    witness primes include every prime factor of s, which is what makes the
    alternating sum in :func:`count_monic_eisenstein` exact.
    """
    check_degree_height(d, H)
    if s < 1:
        raise ValueError(f"modulus must be positive, got {s}")
    q = H // s
    return (2 * q + 1) ** (d - 1) * phi_bounded(s, q, sieve)


def count_general_s(d: int, s: int, H: int, sieve: ArithSieve) -> int:
    """Like :func:`count_monic_s` with a free leading coefficient.

    The leading coefficient ranges over |a_d| <= H subject to being coprime
    to s, contributing an extra factor phi_bounded(s, H):

        (2q + 1)^(d-1) * phi_bounded(s, q) * phi_bounded(s, H)
    """
    return count_monic_s(d, s, H, sieve) * phi_bounded(s, H, sieve)


# Moduli s > isqrt(H) are summed WINDOW at a time in int64 arrays.  Each
# term is mu(s) * P[s] (* G[s]) with 0 <= P[s] <= isqrt(H) and
# 0 <= G[s] <= H, so no sum over part of one window can exceed
# block_sum_bound(H) in absolute value.  That bound must stay below 2^63
# up to MAX_SIEVE_LIMIT.
WINDOW = 1 << 16


def block_sum_bound(H: int) -> int:
    """Largest |sum| of the int64 terms of one window at height H."""
    return WINDOW * math.isqrt(H) * H


def _half_phi_q(lo: int, H: int, q: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """P[s - lo] = phi_bounded(s, q[s - lo]) / 2, where q[s - lo] = H // s.

    For s >= 2, phi_bounded(s, x) = 2 * sum over t | s of mu(t) * (x // t);
    one strided slice per square-free t <= H // lo, ending where s > H // t
    makes q // t zero.
    """
    P = np.zeros(q.size, dtype=np.int64)
    for t in (np.flatnonzero(mu[1:H // lo + 1]) + 1).tolist():
        start, stop = -lo % t, H // t + 1 - lo
        P[start:stop:t] += int(mu[t]) * (q[start:stop:t] // t)
    return P


def _half_phi_H(lo: int, hi: int, r: int, lead: np.ndarray) -> np.ndarray:
    """G[s - lo] = phi_bounded(s, H) / 2 for lo <= s < hi, given r = isqrt(H).

    ``lead[t]`` is mu(t) * (H // t).  Every divisor pair s = t * m is
    visited once: a slice over t for each m <= r, then a slice over the
    m > r for each t.
    """
    G = np.zeros(hi - lo, dtype=np.int64)
    for m in range(1, r + 1):
        t_lo, t_hi = -(-lo // m), (hi - 1) // m
        G[t_lo * m - lo::m] += lead[t_lo:t_hi + 1]
    for t in (np.flatnonzero(lead[1:(hi - 1) // (r + 1) + 1]) + 1).tolist():
        first = max(lo, t * (r + 1))
        G[first - lo + -first % t::t] += int(lead[t])
    return G


def _inclusion_exclusion(variant: str, d: int, H: int,
                         sieve: ArithSieve) -> ExactCount:
    check_degree_height(d, H)
    if H > sieve.limit:
        raise ValueError(f"height {H} exceeds sieve limit {sieve.limit}")
    # k = 2 adds the factor phi_bounded(s, H) of the free leading coefficient.
    k = VARIANTS[variant]
    general = k == 2
    mu = mobius_table(H, sieve)
    r = math.isqrt(H)
    # Head, s <= r: each modulus has its own q = H // s; one closed form each.
    per_s = count_general_s if general else count_monic_s
    head = 0
    for s, m in enumerate(mu[2:r + 1].tolist(), start=2):
        if m:
            head += m * per_s(d, s, H, sieve)
    # Tail, s > r: q = H // s <= r is shared by runs of consecutive s, so
    # only one big-integer power (2q+1)^(d-1) is needed per run.
    if general:
        # lead[t] = mu(t) * (H // t), filled a window at a time; int64, as
        # mu is int8 and an in-place product would wrap.
        lead = mu.astype(np.int64)
        for lo in range(1, H + 1, WINDOW):
            lead[lo:lo + WINDOW] *= H // np.arange(lo, min(lo + WINDOW, H + 1))
    tail = 0
    for lo in range(max(2, r + 1), H + 1, WINDOW):
        hi = min(lo + WINDOW, H + 1)
        q = H // np.arange(lo, hi)
        terms = mu[lo:hi] * _half_phi_q(lo, H, q, mu)
        if general:
            terms *= _half_phi_H(lo, hi, r, lead)
        runs = np.concatenate(([0], np.flatnonzero(np.diff(q)) + 1))
        sums = np.add.reduceat(terms, runs).tolist()
        for qq, b in zip(q[runs].tolist(), sums):
            tail += b * (2 * qq + 1) ** (d - 1)
    # P (and G when k = 2) are halves of phi_bounded: 2 per factor, 2^k in all.
    return ExactCount(value=-head - 2 ** k * tail, degree=d, height=H,
                      variant=variant, method="inclusion_exclusion")


def count_monic_eisenstein(d: int, H: int, sieve: ArithSieve) -> ExactCount:
    """Exact number of monic Eisenstein polynomials of degree d, height <= H.

    Evaluates the alternating sum over square-free moduli

        -sum over s = 2..H of mu(s) * count_monic_s(d, s, H)

    in exact integer arithmetic.  Moduli beyond H contribute nothing, so
    the truncation at H is not an approximation.  Only the moduli
    s <= isqrt(H) call :func:`count_monic_s`; the larger ones are summed
    in numpy windows, grouped by q = H // s (see the module docstring).

    Parameters
    ----------
    d : int
        Degree, at least 2.
    H : int
        Height bound for the non-leading coefficients, at least 1; must
        not exceed ``sieve.limit``.
    """
    return _inclusion_exclusion("monic", d, H, sieve)


def count_general_eisenstein(d: int, H: int, sieve: ArithSieve) -> ExactCount:
    """Exact number of Eisenstein polynomials with all of a_0..a_d bounded by H.

    Same alternating sum as :func:`count_monic_eisenstein` built on
    :func:`count_general_s`; the leading coefficient now ranges over the
    height box as well (a zero leading coefficient never occurs, since no
    prime can avoid dividing 0).  As in the monic count, only the moduli
    s <= isqrt(H) call :func:`count_general_s`; in the windows the extra
    factor phi_bounded(s, H) is filled from the divisor pairs of s.
    """
    return _inclusion_exclusion("general", d, H, sieve)
