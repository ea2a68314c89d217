"""Exact Eisenstein counts via Moebius inclusion-exclusion.

The number of Eisenstein polynomials of degree d and height at most H is
assembled from per-modulus counts: for a square-free modulus s, the
polynomials whose witness primes include every prime of s form a box
whose cardinality has a closed form in terms of :func:`~eisencount.arith.
phi_bounded`.  Alternating these boxes over all square-free s up to H
gives the exact count, with arbitrary-precision integers throughout.
"""

from __future__ import annotations

from .arith import ArithSieve, mobius_table, phi_bounded
from .results import ExactCount


def _validate_degree_height(d: int, H: int) -> None:
    if d < 2:
        raise ValueError(f"degree must be at least 2, got {d}")
    if H < 1:
        raise ValueError(f"height bound must be at least 1, got {H}")


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
    _validate_degree_height(d, H)
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
    _validate_degree_height(d, H)
    if s < 1:
        raise ValueError(f"modulus must be positive, got {s}")
    q = H // s
    return (2 * q + 1) ** (d - 1) * phi_bounded(s, q, sieve) * phi_bounded(s, H, sieve)


def _inclusion_exclusion(d: int, H: int, sieve: ArithSieve, per_s) -> int:
    _validate_degree_height(d, H)
    if H > sieve.limit:
        raise ValueError(f"height {H} exceeds sieve limit {sieve.limit}")
    mu = mobius_table(H, sieve).tolist()
    total = 0
    for s in range(2, H + 1):
        m = mu[s]
        if m == 0:
            continue
        total -= m * per_s(d, s, H, sieve)
    return total


def count_monic_eisenstein(d: int, H: int, sieve: ArithSieve) -> ExactCount:
    """Exact number of monic Eisenstein polynomials of degree d, height <= H.

    Evaluates the alternating sum over square-free moduli

        -sum over s = 2..H of mu(s) * count_monic_s(d, s, H)

    in exact integer arithmetic.  Moduli beyond H contribute nothing, so
    the truncation at H is not an approximation.

    Parameters
    ----------
    d : int
        Degree, at least 2.
    H : int
        Height bound for the non-leading coefficients, at least 1; must
        not exceed ``sieve.limit``.
    """
    value = _inclusion_exclusion(d, H, sieve, count_monic_s)
    return ExactCount(value=value, degree=d, height=H, variant="monic",
                      method="inclusion_exclusion")


def count_general_eisenstein(d: int, H: int, sieve: ArithSieve) -> ExactCount:
    """Exact number of Eisenstein polynomials with all of a_0..a_d bounded by H.

    Same alternating sum as :func:`count_monic_eisenstein` built on
    :func:`count_general_s`; the leading coefficient now ranges over the
    height box as well (a zero leading coefficient never occurs, since no
    prime can avoid dividing 0).
    """
    value = _inclusion_exclusion(d, H, sieve, count_general_s)
    return ExactCount(value=value, degree=d, height=H, variant="general",
                      method="inclusion_exclusion")
