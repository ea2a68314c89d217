"""Exact Eisenstein counts via Moebius inclusion-exclusion.

For a square-free modulus s, the polynomials of degree d and height at
most H whose witness primes include every prime of s form a box.  With
a = H // s it holds (2a+1)^(d-1) * phi_bounded(s, a) polynomials, times
phi_bounded(s, H) when the leading coefficient is free too (see
:func:`count_monic_s`).  Alternating the boxes over s gives the exact count

    count(d, H) = sum over the values a of H // s of c_a * (2a+1)^(d-1),
    c_a = -sum over s >= 2 with H // s = a of mu(s) * phi_bounded(s, a)
          (* phi_bounded(s, H) for general counts).

Each counter builds the O(sqrt(H)) pairs (a, c_a), which do not depend on
d, and only :func:`_evaluate` raises 2a+1 to the power d - 1.  For s >= 2,
phi_bounded(s, a) = 2 * psi(s) with psi(s) = sum over t | s of
mu(t) * (H // (s*t)), which :func:`_add_psi` fills over a range of moduli.

Monic counts never visit the moduli one by one.  The moduli s <= L = H // A
are summed directly.  Every larger s has a = H // s < A.  Writing
s = t * m with t | s square-free and m coprime to t, the moduli of one
value a contribute c_a = -2 times

    sum over t <= a of (a // t) * (M_t(H // (t*a)) - M_t(H // (t*(a+1)))),

where M_t(x), the sum of mu(m) over m <= x coprime to t, is the sum of
M(x // n) over the n <= x whose primes all divide t, and M is the Mertens
function.  Every such argument is some H // k: M(v) for v <= L is a
prefix sum of the Moebius table, and M(H // k) for k < A comes from
M(v) = 1 - sum over j >= 2 of M(v // j), smallest v first, with the j of
one value of v // j taken together (Deleglise-Rivat, "Computing the
summation of the Moebius function", Exp. Math. 1996).  A is about
H^(1/3), so the sieve and the Moebius table reach only about H^(2/3)
(A = 1 below DIRECT_HEIGHT).  Both parts sum c_a / -2 in int64, which
monic_sum_bound keeps from wrapping.

General counts carry the extra factor phi_bounded(s, H) = 2 * G(s), with
G(s) = sum over t | s of mu(t) * (H // t), for which no grouped form is
known, so they visit every modulus.  The sum is split at r = isqrt(H).
The head, s <= r, calls phi_bounded twice per modulus.  The tail, s > r,
goes a segment [lo, hi) at a time, with mu over the segment from
arith.mobius_segment and the primes up to isqrt(hi - 1) <= r.  For a
square-free s and t | s, mu(t) = mu(s) * mu(s/t), so with k = isqrt(hi - 1)
and m = s/t,

    mu(s) * G(s) = mu(s)^2 * G1(s) + mu(s) * G2(s),
    G1(s) = sum over m | s with m <= k of mu(m) * (H // (s/m)),
    G2(s) = sum over t | s with s/t > k of mu(t) * (H // t),

and a non-square-free s gives 0 either way.  G1 needs mu(m) only for
m <= k, and G2 only for t <= (hi - 1) // (k + 1) <= k, so the sieve and
the Moebius table reach only r.  G1 takes one strided slice of quotients per m, which
psi(s) shares, and G2 one strided constant per t.  Each term
mu(s) * psi(s) * G(s) is summed per run of equal a = H // s, one pair per
run.  With 0 <= psi(s) <= a <= r and 0 <= G(s) <= H, a run of length l
inside one segment sums to at most a * H * l, and
l <= min(segment, H / (a * (a+1)) + 1) gives a * l <= isqrt(segment * H) + r:
block_sum_bound keeps those int64 sums from wrapping.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import (ArithSieve, factorize, mobius_segment, mobius_table,
                    phi_bounded)
from .errors import BudgetExceededError, check_degree_height
from .results import VARIANTS, ExactCount

# Largest height a monic count accepts.  At the cap the sum sieves to
# 4.6e6, and monic_sum_bound is about 7e11, far below 2^63.
MAX_MONIC_HEIGHT = 10**10

# Largest height a general count accepts.  Its time grows about as H: the
# cap takes a few minutes.  Every quotient H // j and every n of
# mobius_segment then stays below 2^31, and block_sum_bound below 2^63.
MAX_GENERAL_HEIGHT = 10**9


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


# _add_psi's buffers hold WINDOW quotients: a longer run of j goes in pieces.
WINDOW = 1 << 16

# A general segment holds about SEGMENT_ROOTS * isqrt(H) moduli, at least
# about MIN_SEGMENT: its G1 and G2 take about isqrt(hi) slices each, so the
# slices of a count grow as H / SEGMENT_ROOTS, while the memory grows as the
# segment.
SEGMENT_ROOTS = 64
MIN_SEGMENT = 1 << 16


def _segment(H: int) -> int:
    """Moduli per segment of the general tail at height H.

    The tail's H - isqrt(H) moduli split evenly into the whole number of
    segments nearest to tail / max(MIN_SEGMENT, SEGMENT_ROOTS * isqrt(H)),
    so that no short last segment pays for as many slices as a full one.
    """
    tail = H - math.isqrt(H)
    aim = max(MIN_SEGMENT, SEGMENT_ROOTS * math.isqrt(H))
    return max(-(-tail // max(round(tail / aim), 1)), 1)


def block_sum_bound(H: int, segment: int | None = None) -> int:
    """Largest |int64| sum over one run of a general segment at height H.

    A term is mu(s) * psi(s) * G(s) with 0 <= psi(s) <= a = H // s <= isqrt(H)
    and 0 <= G(s) <= H, and a run of equal a holds
    l <= min(segment, H // a - H // (a+1)) < min(segment, H / (a(a+1)) + 1)
    moduli.  If a * segment <= sqrt(segment * H), a * l <= isqrt(segment * H);
    otherwise a + 1 > sqrt(H / segment), and a * l < H / (a+1) + a, below
    sqrt(segment * H) + isqrt(H).
    """
    segment = segment or _segment(H)
    return H * (math.isqrt(segment * H) + math.isqrt(H))


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


def _scratch(size: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The (offsets, quotients) buffers of :func:`_add_psi`, size entries."""
    return np.arange(size, dtype=dtype), np.empty(size, dtype=dtype)


def _add_psi(psi: np.ndarray, lo: int, H: int, mu: np.ndarray, scratch,
             g1: np.ndarray | None = None, k: int = 0) -> None:
    """psi[s - lo] += psi(s), and g1[s - lo] += G1(s), for lo <= s < hi.

    hi = lo + psi.size.  psi(s) = sum over t | s of mu(t) * (H // (s*t)),
    half of phi_bounded(s, H // s) for s >= 2, and G1(s) = sum over m | s
    with m <= k of mu(m) * (H // (s/m)) (the module docstring).  Both take
    one strided slice per square-free t and per run of j = s // t that fits
    the ``scratch`` buffers of :func:`_scratch`, whose dtype must hold H:
    the quotients H // j serve G1 as they are and psi as
    (H // j) // (t*t) = H // (t*t*j).  psi needs t <= min(isqrt(H), H // lo)
    and j <= H // (t*t), G1 every j; ``mu`` must reach both t ranges.
    Reusing the buffers saves a page fault per slice.
    """
    hi, t_psi = lo + psi.size, min(math.isqrt(H), H // lo)
    offsets, q = scratch
    for t in (np.flatnonzero(mu[1:max(t_psi, k) + 1]) + 1).tolist():
        first, last = -(-lo // t), (hi - 1) // t
        last_psi = min(last, H // (t * t)) if t <= t_psi else 0
        # Past k, psi alone takes the quotients, as (H // (t*t)) // j.
        over, last = (H, last) if t <= k else (H // (t * t), last_psi)
        add = np.add if mu[t] > 0 else np.subtract
        for j in range(first, last + 1, q.size):
            stop = min(j + q.size, last + 1)
            qj = q[:stop - j]
            np.floor_divide(over, np.add(offsets[:stop - j], j, out=qj),
                            out=qj)
            if t <= k:
                view = g1[t * j - lo:t * stop - lo:t]
                add(view, qj, out=view)
                stop = min(stop, last_psi + 1)
                if stop <= j:
                    continue
                qj = qj[:stop - j]
                if t > 1:
                    np.floor_divide(qj, t * t, out=qj)
            view = psi[t * j - lo:t * stop - lo:t]
            add(view, qj, out=view)


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

    isqrt(H) for general counts, the cut H // A (about H^(2/3)) for monic
    ones, and never below 2, build_sieve's least limit.  A height above
    the variant's cap, MAX_MONIC_HEIGHT or MAX_GENERAL_HEIGHT, raises
    BudgetExceededError, so a caller can refuse it before it allocates
    anything.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {tuple(VARIANTS)}")
    if H < 1:
        raise ValueError(f"height bound must be at least 1, got {H}")
    cap = MAX_MONIC_HEIGHT if variant == "monic" else MAX_GENERAL_HEIGHT
    if H > cap:
        raise BudgetExceededError(
            f"{variant} height {H} exceeds the cap {cap}")
    if variant == "general":
        return max(math.isqrt(H), 2)
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

    A prefix sum of mu(s) * psi(s) over s gives each value a its run
    (H // (a+1), H // a] as one difference.
    """
    L, r = H // A, math.isqrt(H)
    psi = np.zeros(L + 1, dtype=np.int64)
    _add_psi(psi[1:], 1, H, mu, _scratch(min(WINDOW, L), np.int64))
    psi *= mu[:L + 1]
    psi[1] = 0
    np.cumsum(psi, out=psi)
    a = np.concatenate((H // np.arange(2, r + 1),
                        np.arange(H // (r + 1), A - 1, -1)))
    return a, psi[H // a] - psi[H // (a + 1)]


def _mertens_sum(H: int, A: int, mu: np.ndarray, sieve: ArithSieve):
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
        bound = H // (t * t)
        for p, _e in factorize(t, sieve).pairs:
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
    return _exact_count("monic", d, H, sieve)


def _exact_count(variant: str, d: int, H: int, sieve: ArithSieve):
    """The count of either variant, after the checks both counters share."""
    check_degree_height(d, H)
    needed = sieve_limit(variant, H)
    if needed > sieve.limit:
        raise ValueError(f"height {H} needs a sieve to {needed}, over the "
                         f"sieve limit {sieve.limit}")
    terms = (_monic_terms(H, _split(H), sieve) if variant == "monic"
             else _general_terms(H, sieve))
    return ExactCount(value=_evaluate(d, *terms), degree=d, height=H,
                      variant=variant, method="inclusion_exclusion")


def _monic_terms(H: int, A: int, sieve: ArithSieve):
    """(a, c) of the monic count, the values a < A through Mertens values.

    Any 1 <= A with A * A <= H gives the same pairs, from a sieve to H // A.
    """
    mu = mobius_table(H // A, sieve)
    values, coefficients = _direct_sum(H, A, mu)
    if A > 1:
        above_values, above_coefficients = _mertens_sum(H, A, mu, sieve)
        values = np.concatenate((values, above_values))
        coefficients = np.concatenate((coefficients, above_coefficients))
    return values.tolist(), [-2 * c for c in coefficients.tolist()]


def _evaluate(d: int, a: list[int], c: list[int]) -> int:
    """The count at degree d: sum of c * (2a+1)^(d-1) over the pairs (a, c)."""
    return sum(ci * (2 * ai + 1) ** (d - 1) for ai, ci in zip(a, c) if ci)


def count_general_eisenstein(d: int, H: int, sieve: ArithSieve) -> ExactCount:
    """Exact number of Eisenstein polynomials with all of a_0..a_d bounded by H.

    The boxes of :func:`count_general_s` alternated as in
    :func:`count_monic_eisenstein` (a zero leading coefficient never occurs,
    since no prime can avoid dividing 0).  Only the moduli s <= isqrt(H)
    call :func:`~eisencount.arith.phi_bounded`; the segments above fill
    its two factors through :func:`_add_psi` and the split of the module
    docstring.  ``sieve.limit`` must reach isqrt(H), and H at most
    MAX_GENERAL_HEIGHT (BudgetExceededError above it).
    """
    return _exact_count("general", d, H, sieve)


def _general_terms(H: int, sieve: ArithSieve, segment: int | None = None):
    """(a, c) of the general count; a value a can recur in two segments.

    Any segment length gives the same pairs; one set of buffers serves
    every segment.
    """
    r = math.isqrt(H)
    mu = mobius_table(r, sieve)
    # Head, s <= r: each modulus has its own a = H // s, and its own pair.
    values = [H // s for s in range(2, r + 1) if mu[s]]
    coefficients = [-int(mu[s]) * phi_bounded(s, H // s, sieve)
                    * phi_bounded(s, H, sieve)
                    for s in range(2, r + 1) if mu[s]]
    # Tail, s > r: a = H // s <= r is shared by runs of consecutive s, one
    # pair per run.  psi and G are halves of phi_bounded: a factor 4.
    segment = max(min(segment or _segment(H), H - r), 1)
    primes = sieve.primes[:np.searchsorted(sieve.primes, r, "right")].tolist()
    ts = np.flatnonzero(mu)
    leads = list(zip(ts.tolist(), (mu[ts] * (H // ts)).tolist()))
    scratch = _scratch(min(WINDOW, segment), np.int32)
    mu_buf, psi_buf = np.empty(segment, np.int8), np.empty(segment, np.int32)
    g_buf = np.empty(segment, np.int64)
    for lo in range(r + 1, H + 1, segment):
        hi = min(lo + segment, H + 1)
        k, size = math.isqrt(hi - 1), hi - lo
        mu_s, psi, g = mu_buf[:size], psi_buf[:size], g_buf[:size]
        mobius_segment(mu_s, lo, primes, psi)
        psi.fill(0)
        g.fill(0)
        _add_psi(psi, lo, H, mu, scratch, g, k)
        g *= mu_s
        # G2: the constant mu(t) * (H // t) at the s = t * j with j > k.
        for t, lead in leads:
            if t > (hi - 1) // (k + 1):
                break
            first = max(lo, t * (k + 1))
            view = g[first - lo + -first % t::t]
            np.add(view, lead, out=view)
        # g = mu * G1 + G2: g * mu * psi = mu * psi * G, and 0 where mu = 0.
        psi *= mu_s
        g *= psi
        a = np.arange(H // lo, H // (hi - 1) - 1, -1)
        starts = H // (a + 1) + 1 - lo
        starts[0] = 0
        values += a.tolist()
        coefficients += [-4 * b for b in np.add.reduceat(g, starts).tolist()]
    return values, coefficients
