"""Exact Eisenstein counts via Moebius inclusion-exclusion.

The number of Eisenstein polynomials of degree d and height at most H is
assembled from per-modulus counts: for a square-free modulus s, the
polynomials whose witness primes include every prime of s form a box
whose cardinality has a closed form in terms of :func:`~eisencount.arith.
phi_bounded`.  Alternating these boxes over all square-free s up to H
gives the exact count.

Monic counts never visit the moduli one by one.  With q = H // s,
g(q) = (2q+1)^(d-1) and psi(s) = sum over t | s of mu(t) * (q // t), the
box of s >= 2 holds 2 * g(q) * psi(s) polynomials, so

    count_monic(d, H) = -2 * sum over s >= 2 of mu(s) * g(H // s) * psi(s).

The moduli s <= L = H // A are summed directly, psi filled by one strided
slice per square-free t.  Every larger s has a = H // s < A.  Writing
s = t * m with t | s square-free and m coprime to t, the moduli of one
value a contribute

    sum over t <= a of (a // t) * (M_t(H // (t*a)) - M_t(H // (t*(a+1)))),

where M_t(x), the sum of mu(m) over m <= x coprime to t, is the sum of
M(x // n) over the n <= x whose primes all divide t, and M is the Mertens
function.  Every such argument is some H // k: M(v) for v <= L is a
prefix sum of the Moebius table, and M(H // k) for k < A comes from
M(v) = 1 - sum over j >= 2 of M(v // j), smallest v first, with the j of
one value of v // j taken together (Deleglise-Rivat, "Computing the
summation of the Moebius function", Exp. Math. 1996).  A is about
H^(1/3), so the sieve and the Moebius table reach only about H^(2/3)
(below DIRECT_HEIGHT, A = 1 and every modulus is summed directly).
Both parts accumulate one int64 coefficient per value a of H // s, and
only the O(sqrt(H)) powers g(a) are Python integers; monic_sum_bound
keeps the int64 values from wrapping.

General counts carry the extra factor phi_bounded(s, H), for which no
grouped form is known, so they visit every modulus.  The sum is split at
r = isqrt(H).  The head, s <= r, calls the closed form once per modulus.
In the tail, s > r, the phi_bounded factors are filled into int64 numpy
arrays WINDOW moduli at a time and summed per run of equal q, so again
only the O(sqrt(H)) run sums are multiplied by the big-integer power
g(q).  The windows bound the extra memory to a few WINDOW-sized arrays
next to the Moebius table of length H + 1; block_sum_bound keeps their
int64 sums from wrapping.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import ArithSieve, mobius_table, phi_bounded
from .errors import BudgetExceededError, check_degree_height
from .results import VARIANTS, ExactCount

# Largest height a monic count accepts.  At the cap the sum sieves to
# 4.6e6, and monic_sum_bound is about 7e11, far below 2^63.
MAX_MONIC_HEIGHT = 10**10


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


# The general tail sums moduli s > isqrt(H) WINDOW at a time in int64
# arrays; the monic sum fills its strided slices WINDOW entries at a time.
# Each general term is mu(s) * P[s] * G[s] with 0 <= P[s] <= isqrt(H) and
# 0 <= G[s] <= H, so no sum over part of one window can exceed
# block_sum_bound(H) in absolute value.  That bound must stay below 2^63
# up to MAX_SIEVE_LIMIT.
WINDOW = 1 << 16


def block_sum_bound(H: int) -> int:
    """Largest |sum| of the int64 terms of one window at height H."""
    return WINDOW * math.isqrt(H) * H


def monic_sum_bound(H: int) -> int:
    """Largest |int64| value the monic sum takes at height H.

    Every int64 there is one of these, with A * A <= H and L = H // A:
    - a quotient H // k or a product k = t * a * n <= H;
    - M(v) or M_t(y), at most v <= H and y * t / phi(t) <= H / t;
    - a Mertens step, sum over j of |M(v // j)| <= v * (1 + 2 ln v);
    - a prefix sum of mu(s) * psi(s), at most the sum over t and j of
      H / (t^2 j) < zeta(2) * H * (1 + ln H);
    - a coefficient of a < A, at most the sum over t of
      (a / t) * (H / (t a (a+1)) + 1) < 2H + A * (1 + ln A).
    Each is below H * (2 + 2 ln H) < 2H * (1 + bit_length(H)).
    """
    return 2 * H * (1 + H.bit_length())


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


# Below this height a monic count sums every modulus directly: the Mertens
# part costs some 20 numpy calls per value a < A, more than it saves.
DIRECT_HEIGHT = 1 << 16


def _split(H: int) -> int:
    """A: the values H // s < A go through Mertens values.

    About H^(1/3), and 1 below DIRECT_HEIGHT.
    """
    return 1 if H < DIRECT_HEIGHT else round(H ** (1 / 3))


def sieve_limit(variant: str, H: int) -> int:
    """The sieve limit a count of the variant at height H needs.

    H for general counts, the cut H // A (about H^(2/3)) for monic ones,
    and never above max(H, 2), build_sieve's least limit.  A monic height
    above MAX_MONIC_HEIGHT raises BudgetExceededError, so a caller can
    refuse it before it allocates anything.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {tuple(VARIANTS)}")
    if H < 1:
        raise ValueError(f"height bound must be at least 1, got {H}")
    if variant == "general":
        return max(H, 2)
    if H > MAX_MONIC_HEIGHT:
        raise BudgetExceededError(
            f"monic height {H} exceeds the cap {MAX_MONIC_HEIGHT}")
    return max(H // _split(H), 2)


def _mertens(H: int, A: int, mu: np.ndarray) -> np.ndarray:
    """The Mertens values of the monic sum, in one int64 table T.

    T[v] = M(v) for v <= L = H // A, and T[L+1+k] = M(H // k) for
    1 <= k < A; ``mu`` must reach L.  The k go from A - 1 down to 1, each
    from M(v) = 1 - sum over 2 <= j <= v of M(v // j) with v = H // k:
    the j with v // j > isqrt(v) one by one (T[L+1+k*j] while k * j < A,
    T[H // (k*j)] after), the others grouped on w = v // j <= isqrt(v).
    """
    L = H // A
    T = np.zeros(L + A + 1, dtype=np.int64)
    T[:L + 1] = mu[:L + 1]
    np.cumsum(T[:L + 1], out=T[:L + 1])
    for k in range(A - 1, 0, -1):
        v = H // k
        r = math.isqrt(v)
        top = v // (r + 1)
        mid = min(top, (A - 1) // k)
        total = int(T[L + 1 + 2 * k:L + 2 + mid * k:k].sum())
        kj = k * np.arange(max(mid, 1) + 1, top + 1)
        total += int(T[H // kj].sum())
        w = np.arange(1, r + 2)
        total += int(T[1:r + 1] @ (v // w[:-1] - v // w[1:]))
        T[L + 1 + k] = 1 - total
    return T


def _direct_sum(H: int, A: int, mu: np.ndarray):
    """(a, c): c = sum of mu(s) * psi(s) over 2 <= s <= H // A with H // s = a.

    psi(t * j) gathers mu(t) * (H // (t*t*j)) from one strided slice per
    square-free t <= isqrt(H).  A prefix sum over s then gives each value
    a its run (H // (a+1), H // a] as one difference.
    """
    L, r = H // A, math.isqrt(H)
    psi = np.zeros(L + 1, dtype=np.int64)
    for t in (np.flatnonzero(mu[1:r + 1]) + 1).tolist():
        X = H // (t * t)
        add = np.add if mu[t] > 0 else np.subtract
        for lo in range(1, min(L // t, X) + 1, WINDOW):
            hi = min(lo + WINDOW, L // t + 1, X + 1)
            view = psi[t * lo:t * hi:t]
            add(view, X // np.arange(lo, hi), out=view)
    psi *= mu[:L + 1]
    psi[1] = 0
    np.cumsum(psi, out=psi)
    a = np.concatenate((H // np.arange(2, r + 1),
                        np.arange(H // (r + 1), A - 1, -1)))
    return a, psi[H // a] - psi[H // (a + 1)]


def _mertens_sum(H: int, A: int, mu: np.ndarray, spf: np.ndarray):
    """(a, c) for 1 <= a < A: c = sum of mu(s) * psi(s) over s with H // s = a.

    For each square-free t < A, Mt[a - t] = M_t(H // (t*a)) for t <= a <= A
    is the sum of M(H // (t*a*n)) over the n <= H // (t*a) whose primes
    divide t, looked up in the table of :func:`_mertens`.
    """
    L = H // A
    T = _mertens(H, A, mu)
    c = np.zeros(A, dtype=np.int64)
    for t in (np.flatnonzero(mu[1:A]) + 1).tolist():
        n = np.ones(1, dtype=np.int64)
        rest, bound = t, H // (t * t)
        while rest > 1:
            p = int(spf[rest])
            rest //= p
            parts, power = [n], n
            while (power := power[power <= bound // p] * p).size:
                parts.append(power)
            n = np.concatenate(parts)
        n.sort()
        a = np.arange(t, A + 1)
        cnt = np.searchsorted(n, H // (t * a), side="right")
        starts = np.cumsum(cnt) - cnt
        k = np.repeat(t * a, cnt) * n[np.arange(starts[-1] + cnt[-1])
                                      - np.repeat(starts, cnt)]
        Mt = np.add.reduceat(T[np.where(k < A, k + L + 1, H // k)], starts)
        c[t:] += (a[:-1] // t) * (Mt[:-1] - Mt[1:])
    return np.arange(1, A), c[1:]


def count_monic_eisenstein(d: int, H: int, sieve: ArithSieve) -> ExactCount:
    """Exact number of monic Eisenstein polynomials of degree d, height <= H.

    Evaluates the alternating sum over square-free moduli

        -sum over s = 2..H of mu(s) * count_monic_s(d, s, H)

    in exact integer arithmetic.  Moduli beyond H contribute nothing, so
    the truncation at H is not an approximation.  The moduli up to the
    cut are summed directly and the rest through Mertens values (see the
    module docstring), so no modulus calls :func:`count_monic_s`.

    Parameters
    ----------
    d : int
        Degree, at least 2.
    H : int
        Height bound for the non-leading coefficients, from 1 to
        MAX_MONIC_HEIGHT (BudgetExceededError above it).  ``sieve.limit``
        must reach ``sieve_limit("monic", H)``.
    """
    check_degree_height(d, H)
    needed = sieve_limit("monic", H)
    if needed > sieve.limit:
        raise ValueError(f"height {H} needs a sieve to {needed}, over the "
                         f"sieve limit {sieve.limit}")
    return ExactCount(value=_monic_sum(d, H, _split(H), sieve), degree=d,
                      height=H, variant="monic", method="inclusion_exclusion")


def _monic_sum(d: int, H: int, A: int, sieve: ArithSieve) -> int:
    """The monic count, the moduli above H // A summed through Mertens values.

    Any 1 <= A with A * A <= H gives the same count, from a sieve to H // A.
    """
    mu = mobius_table(H // A, sieve)
    values, coefficients = _direct_sum(H, A, mu)
    if A > 1:
        above_values, above_coefficients = _mertens_sum(H, A, mu, sieve.spf)
        values = np.concatenate((values, above_values))
        coefficients = np.concatenate((coefficients, above_coefficients))
    total = 0
    for a, c in zip(values.tolist(), coefficients.tolist()):
        if c:
            total += c * (2 * a + 1) ** (d - 1)
    return -2 * total


def count_general_eisenstein(d: int, H: int, sieve: ArithSieve) -> ExactCount:
    """Exact number of Eisenstein polynomials with all of a_0..a_d bounded by H.

    Same alternating sum as :func:`count_monic_eisenstein` built on
    :func:`count_general_s`; the leading coefficient now ranges over the
    height box as well (a zero leading coefficient never occurs, since no
    prime can avoid dividing 0).  Only the moduli s <= isqrt(H) call
    :func:`count_general_s`; in the windows the factor phi_bounded(s, q)
    is filled one strided slice per divisor t, and phi_bounded(s, H) from
    the divisor pairs of s.  ``sieve.limit`` must reach H.
    """
    check_degree_height(d, H)
    if H > sieve.limit:
        raise ValueError(f"height {H} exceeds sieve limit {sieve.limit}")
    mu = mobius_table(H, sieve)
    r = math.isqrt(H)
    # Head, s <= r: each modulus has its own q = H // s; one closed form each.
    head = 0
    for s, m in enumerate(mu[2:r + 1].tolist(), start=2):
        if m:
            head += m * count_general_s(d, s, H, sieve)
    # lead[t] = mu(t) * (H // t), filled a window at a time; int64, as mu
    # is int8 and an in-place product would wrap.
    lead = mu.astype(np.int64)
    for lo in range(1, H + 1, WINDOW):
        lead[lo:lo + WINDOW] *= H // np.arange(lo, min(lo + WINDOW, H + 1))
    # Tail, s > r: q = H // s <= r is shared by runs of consecutive s, so
    # only one big-integer power (2q+1)^(d-1) is needed per run.
    tail = 0
    for lo in range(max(2, r + 1), H + 1, WINDOW):
        hi = min(lo + WINDOW, H + 1)
        q = H // np.arange(lo, hi)
        terms = mu[lo:hi] * _half_phi_q(lo, H, q, mu)
        terms *= _half_phi_H(lo, hi, r, lead)
        runs = np.concatenate(([0], np.flatnonzero(np.diff(q)) + 1))
        sums = np.add.reduceat(terms, runs).tolist()
        for qq, b in zip(q[runs].tolist(), sums):
            tail += b * (2 * qq + 1) ** (d - 1)
    # P and G are halves of phi_bounded: a factor 2 each.
    return ExactCount(value=-head - 4 * tail, degree=d, height=H,
                      variant="general", method="inclusion_exclusion")
