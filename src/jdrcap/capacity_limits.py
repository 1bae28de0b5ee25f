"""Closed-form capacities and photon-information-efficiency (PIE) functions.

Covers the ultimate (Holevo) limit of the lossy bosonic mode, the BPSK
single-symbol (Dolinar) and joint-measurement limits, the superchannel
capacities of the Hadamard and first-order Reed-Muller receiver families,
and the PIE/spectral-efficiency tradeoff of a multi-mode link.

Every closed form takes a mean photon number nbar as a scalar or an array:
a scalar gives a float, an array an array of the same shape. All functions
are pure and safe for concurrent evaluation.
"""

import sys

import numpy as np

from .codes import code_order
from .entropy import LN2, _float_or_array, phi, symmetric_split


class ConsistencyError(ArithmeticError):
    """A closed-form intermediate violated a bound it provably satisfies."""


def _photons(x, strict=False):
    """x as a float array; raises unless every entry is >= 0 (> 0 if strict), so NaN too."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0 if strict else x >= 0):
        raise ValueError(f"photon number must be {'> 0' if strict else '>= 0'}, got {x}")
    return x


def g(nbar):
    """Holevo capacity of a lossless bosonic mode, (1+n)log2(1+n) - n log2(n) bits.

    g(0) = 0 and g(inf) = inf. With (1+n) ln(1+n) = phi(n) + n, g ln 2 is
    phi(n) + n - n ln n below n = 1 and ln n + 1 + n phi(1/n) from 1 on:
    sums of terms >= 0, and 1/n never overflows.
    """
    nbar = _photons(nbar)
    big = np.isinf(nbar)
    n = np.where(big, 0.0, nbar)    # keeps inf - inf out of the formula
    lo, hi = np.minimum(n, 1.0), np.maximum(n, 1.0)   # each form only where it is finite
    below = phi(lo) + lo - lo * np.log(np.where(lo > 0, lo, 1.0))
    above = np.log(hi) + 1.0 + hi * phi(1.0 / hi)
    return _float_or_array(np.where(big, np.inf, np.where(n < 1.0, below, above) / LN2))


def pie_ultimate(nbar):
    """Ultimate photon information efficiency g(nbar)/nbar, bits per photon; 0 at inf."""
    nbar = _photons(nbar, strict=True)
    big = np.isinf(nbar)
    return _float_or_array(np.where(big, 0.0, g(nbar) / np.where(big, 1.0, nbar)))


def nbar_for_pie(target_pie):
    """Invert pie_ultimate: the unique nbar with g(nbar)/nbar = target_pie.

    Bisection on the strictly decreasing PIE to a relative width of 1e-9, or
    to two adjacent doubles where no midpoint lies between (as among the
    subnormals). Raises ValueError unless the target lies between the PIEs
    of the largest double (about 5.7e-306) and the smallest (1075).
    """
    lowest = pie_ultimate(sys.float_info.max)
    highest = pie_ultimate(np.finfo(float).smallest_subnormal)
    if not lowest <= target_pie <= highest:
        raise ValueError(f"target PIE must lie in [{lowest}, {highest}], the PIEs of the "
                         f"largest and the smallest double, got {target_pie}")
    lo, hi = 1.0, 1.0
    while pie_ultimate(lo) < target_pie:
        lo /= 8.0
    while pie_ultimate(hi) > target_pie:
        hi = min(8.0 * hi, sys.float_info.max)
    mid = 0.5 * lo + 0.5 * hi       # lo + hi overflows near the largest double
    while hi - lo > 1e-9 * lo and lo < mid < hi:
        if pie_ultimate(mid) > target_pie:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * lo + 0.5 * hi
    return mid


def holevo_bpsk(nbar):
    """Holevo limit of the BPSK alphabet: H_b(q) bits/symbol, q = (1 - e^{-2 nbar})/2.

    With (1-q) ln(1-q) = phi(-q) - q, H_b(q) ln 2 = [q - phi(-q)] - q ln q,
    two terms >= 0 for q <= 1/2; at q = 1/2 they round to ln 2 exactly.
    """
    q = -np.expm1(-2.0 * _photons(nbar)) / 2.0
    return _float_or_array((q - phi(-q) - q * np.log(np.where(q > 0, q, 1.0))) / LN2)


def dolinar_error_q(nbar):
    """Helstrom/Dolinar BPSK error probability [1 - sqrt(1 - e^{-4 nbar})]/2,
    as e^{-4 nbar} / (2 [1 + sqrt(1 - e^{-4 nbar})]), which does not cancel
    as q -> 0: q is within an ulp while e^{-4 nbar} is a normal float
    (nbar below about 177)."""
    n = _photons(nbar)
    return _float_or_array(np.exp(-4.0 * n) / (2.0 * (1.0 + np.sqrt(-np.expm1(-4.0 * n)))))


def c1_bpsk_dolinar(nbar):
    """Single-symbol BPSK capacity 1 - H_b(q) of the Dolinar-receiver BSC.

    q = (1 - x)/2 with x = sqrt(1 - e^{-4 nbar}), so C1 = symmetric_split(x),
    which does not cancel as q -> 1/2 and is exactly 1 at x = 1.
    """
    return symmetric_split(np.sqrt(-np.expm1(-4.0 * _photons(nbar))))


# 16-node Gauss-Legendre rule on [0, 1], as the squared nodes t^2 and the weights:
# f_integral's integrands are analytic near [0, 1], so the rule converges geometrically
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_T2, _W = ((_NODES + 1.0) / 2.0) ** 2, _WEIGHTS / 2.0


def f_integral(b):
    """The phase-information integral f(b) = 1/2 int_a^1 sqrt(1-(a/x)^4) dx, a = e^{-b}.

    One Gauss-Legendre rule in t on [0, 1], with c = 1 - a, on either of two
    forms without the square-root cusp at x = a:
    - a >= 1/2: x = a + c t^2 gives
      f = c^{3/2} int t^2 sqrt((x + a)(x^2 + a^2)) / x^2 dt,
      whose terms never cancel, so small b needs no series;
    - a < 1/2, where that 1/x^2 would peak near t = 0: u = a/x, an
      integration by parts and u = 1 - c t^2 give
      f = sqrt(1 - a^4)/2 - 2 a sqrt(c) int u^2 / sqrt((1 + u)(1 + u^2)) dt,
      whose two terms barely cancel.
    """
    b = _photons(b)[..., None]      # a column against the nodes
    a, c = np.exp(-b), -np.expm1(-b)
    x = a + c * _T2
    near = c * np.sqrt(c) * np.sum(_W * _T2 * np.sqrt((x + a) * (x * x + a * a)) / (x * x),
                                   axis=-1, keepdims=True)
    u = 1.0 - c * _T2
    far = (0.5 * np.sqrt(1.0 - a ** 4)
           - 2.0 * a * np.sqrt(c) * np.sum(_W * u * u / np.sqrt((1.0 + u) * (1.0 + u * u)),
                                           axis=-1, keepdims=True))
    return _float_or_array(np.where(a >= 0.5, near, far)[..., 0])


def hadamard_jdr_capacity(m, nbar):
    """Superchannel capacity of the Hadamard code + Green Machine + SPD array.

    (m / 2^m)(1 - e^{-2^m nbar}) bits/symbol with the pilot mode counted in
    the block length; PIE approaches m bits/photon at small nbar.
    """
    m = code_order(m)
    n = 2 ** m
    return _float_or_array((m / n) * -np.expm1(-n * _photons(nbar)))


def _rm_gm_pulse(m, nbar):
    """(nP, (1 - p0)/2, f(nP)) of the RM(1,m) receiver, nP = 2^m nbar; checks f <= (1-p0)/2."""
    n_pulse = (2 ** code_order(m)) * _photons(nbar)
    half = -np.expm1(-n_pulse) / 2.0
    f = f_integral(n_pulse)
    if np.any(half - f < -1e-12):
        raise ConsistencyError(
            f"f({n_pulse}) = {f} exceeds (1-p0)/2 = {half}; closed-form bound violated"
        )
    return n_pulse, half, f


def rm_gm_outcome_probs(m, nbar):
    """Outcome probabilities (p_plus, p_minus, p_erasure) of the RM(1,m) receiver.

    p0 = e^{-nP} with nP = 2^m nbar the pulse energy at the Green Machine
    output, and p_pm = (1 - p0)/2 +- f(nP).
    """
    n_pulse, half, f = _rm_gm_pulse(m, nbar)
    p_minus = np.maximum(half - f, 0.0)
    return _float_or_array(half + f), _float_or_array(p_minus), _float_or_array(np.exp(-n_pulse))


def rm_gm_jdr_capacity(m, nbar):
    """Superchannel capacity of the RM(1,m) code + Green Machine + SPD/Dolinar chain.

    [(1-p0)(m+1) + H(p0, 1-p0) - H(p+, p-, p0)] / 2^m bits/symbol. With
    ne = 1 - p0 and p_pm = ne (1 +- y)/2, y = 2 f(nP)/ne, the p0 terms cancel
    identically and the rest is ne m + ne symmetric_split(y).
    """
    _, half, f = _rm_gm_pulse(m, nbar)
    not_erased = 2.0 * half
    y = np.minimum(np.divide(f, half, out=np.zeros_like(half), where=half > 0), 1.0)
    return _float_or_array(not_erased * (m + symmetric_split(y)) / (2 ** m))


def rm_mpe_capacity(m, nbar):
    """Superchannel capacity of the minimum-error joint measurement on RM(1,m).

    RM(1,m) is geometrically uniform, so its minimum-error measurement is the
    SRM (Eldar & Forney, IEEE Trans. Inf. Theory 47, 2001): P(j|i) =
    A_{i xor j}^2, A a row of G^{1/2}, and the output is uniform. With K =
    2^{m+1}, p0 = e^{-2^m nbar} and e = 1 - p0, G's eigenvalues are L0 =
    K p0 + e^2 (once), 1 - p0^2 (K/2 times) and e^2 (K/2 - 1 times), so
    sqrt(K) A takes three values a = 1 + u,

        u = [d + (K/2 - 1) e +- (K/2) sqrt(e (2 - e))] / sqrt(K)  (once each),
        u = (d - e) / sqrt(K)                                      (K - 2 times),

    d = sqrt(L0) - sqrt(K) = -e (K - e) / (sqrt(L0) + sqrt(K)); where u is
    small nothing in it cancels. The capacity is D(A^2 || 1/K) / 2^m =
    sum mult phi(a^2 - 1) / (K ln 2 2^m): 0 at nbar = 0, (2/ln 2) nbar at
    small nbar and (m+1)/2^m at large.
    """
    m = code_order(m)
    n_pulse = (2 ** m) * _photons(nbar)
    K, root_k = 2 ** (m + 1), np.sqrt(2.0 ** (m + 1))
    e = -np.expm1(-n_pulse)
    d = -e * (K - e) / (np.sqrt(K * np.exp(-n_pulse) + e * e) + root_k)
    flip = (K / 2) * np.sqrt(e * (2.0 - e))
    u = np.stack([d + (K / 2 - 1) * e + flip, d + (K / 2 - 1) * e - flip, d - e]) / root_k
    terms = phi(u * (2.0 + u))
    return _float_or_array((terms[0] + terms[1] + (K - 2) * terms[2]) / (K * LN2 * 2 ** m))


CLOSED_FORMS = {
    "hadamard_jdr": hadamard_jdr_capacity,
    "rm_gm": rm_gm_jdr_capacity,
    "rm_mpe": rm_mpe_capacity,
}


def closed_form(family):
    """The capacity function (m, nbar) of a CLOSED_FORMS family, else ValueError."""
    if family not in CLOSED_FORMS:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(CLOSED_FORMS)}")
    return CLOSED_FORMS[family]


def pie_envelope(nbar, family, m_range):
    """Best PIE over a code-size range: max_m I_m(nbar)/nbar.

    ``family`` is a key of CLOSED_FORMS.
    Returns (m_star, pie), ints/floats for a scalar nbar and arrays for an
    array; ties break to the smaller m.
    """
    nbar = _photons(nbar, strict=True)
    cap = closed_form(family)
    ms = sorted(set(map(code_order, m_range)))
    if not ms:
        raise ValueError("empty m range")
    pies = np.array([cap(m, nbar) for m in ms]) / nbar
    m_star = np.array(ms)[np.argmax(pies, axis=0)]
    best = pies.max(axis=0)
    if nbar.ndim == 0:
        return int(m_star), float(best)
    return m_star, best


def tradeoff_curve(modes, n_r_grid):
    """Ultimate PIE/spectral-efficiency tradeoff for M parallel modes.

    SE = M g(N_R / M) bits/sec/Hz and PIE = SE / N_R at each total received
    photon number N_R in the grid; at an infinite budget PIE is its limit 0.
    Returns the arrays (se, pie), aligned with the grid.
    """
    if not 1 <= modes <= sys.float_info.max:
        raise ValueError("need a mode count >= 1 within the range of a double")
    n_r = _photons(n_r_grid, strict=True)
    se = modes * g(n_r / modes)
    big = np.isinf(n_r)
    return se, np.where(big, 0.0, se / np.where(big, 1.0, n_r))


# perfbench/tracer.py still counts kernels.quad.calls through this name; no f(b) route
# calls a quadrature routine
quad = None
