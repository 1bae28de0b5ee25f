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

from .entropy import LN2, _float_or_array, binary_entropy, xlog2


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

    g(0) = 0 by the x log x -> 0 convention, and g(inf) = inf. From n = 1 on
    the two terms nearly cancel, so there g = log2(1+n) + n log2(1 + 1/n);
    below 1 they do not, and 1/n would overflow for subnormal n.
    """
    nbar = _photons(nbar)
    big = np.isinf(nbar)
    n = np.where(big, 0.0, nbar)    # keeps inf - inf out of the formula
    lo, hi = np.minimum(n, 1.0), np.maximum(n, 1.0)   # each form only where it is finite
    below = (1.0 + lo) * np.log1p(lo) / LN2 - xlog2(lo)
    above = (np.log1p(hi) + hi * np.log1p(1.0 / hi)) / LN2
    return _float_or_array(np.where(big, np.inf, np.where(n < 1.0, below, above)))


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
    """Holevo limit of the BPSK alphabet: H_b((1 + e^{-2 nbar})/2) bits/symbol."""
    # evaluate the entropy at the small branch (1 - e^{-2n})/2 for stability
    return binary_entropy(-np.expm1(-2.0 * _photons(nbar)) / 2.0)


def dolinar_error_q(nbar):
    """Helstrom/Dolinar BPSK error probability [1 - sqrt(1 - e^{-4 nbar})]/2."""
    return _float_or_array(0.5 * (1.0 - np.sqrt(-np.expm1(-4.0 * _photons(nbar)))))


def c1_bpsk_dolinar(nbar):
    """Single-symbol BPSK capacity 1 - H_b(q) of the Dolinar-receiver BSC.

    With x = sqrt(1 - e^{-4 nbar}) and q = (1 - x)/2, ln(1 - x^2) = -4 nbar
    turns 1 - H_b(q), which cancels as q -> 1/2, into
    [x log1p(x) - 2 nbar e^{-4 nbar} / (1 + x)] / ln 2.
    """
    # past nbar = 200, e^{-4 nbar} underflows and c1 is exactly 1; the clamp
    # keeps 4 nbar finite and inf * 0 out of the formula
    n = np.minimum(_photons(nbar), 200.0)
    x = np.sqrt(-np.expm1(-4.0 * n))
    return _float_or_array((x * np.log1p(x) - 2.0 * n * np.exp(-4.0 * n) / (1.0 + x)) / LN2)


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
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    n = 2 ** m
    return _float_or_array((m / n) * -np.expm1(-n * _photons(nbar)))


def _rm_gm_pulse(m, nbar):
    """(nP, (1 - p0)/2, f(nP)) of the RM(1,m) receiver, nP = 2^m nbar; checks f <= (1-p0)/2."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    n_pulse = (2 ** m) * _photons(nbar)
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
    identically and the rest is, without cancellation,

        ne m + ne [(1+y) log1p(y) + (1-y) log1p(-y)] / (2 ln 2),

    with 0 log 0 = 0 at y = 1.
    """
    _, half, f = _rm_gm_pulse(m, nbar)
    not_erased = 2.0 * half
    y = np.minimum(np.divide(f, half, out=np.zeros_like(half), where=half > 0), 1.0)
    # log1p(-1) = -inf only where its factor 1 - y is 0
    tail = np.log1p(-y, out=np.zeros_like(y), where=y < 1.0)
    mix = ((1.0 + y) * np.log1p(y) + (1.0 - y) * tail) / (2.0 * LN2)
    return _float_or_array(not_erased * (m + mix) / (2 ** m))


def rm_mpe_capacity(m, nbar):
    """Superchannel capacity of the minimum-error joint measurement on RM(1,m).

    Closed form in terms of c^2, gamma and a_pm; tends to (m+1)/2^m at large
    nbar. The discriminant gamma^2 - 4^m p0^2 factors exactly as
    (1-p0)^2 (gamma + 2^m p0), which is used to avoid cancellation.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    nbar = _photons(nbar)
    n = 2 ** m
    K = 2 ** (m + 1)
    p0 = np.exp(-n * nbar)
    gamma = 1.0 + 2.0 * p0 * (2 ** (m - 1) - 1) + p0 * p0
    disc = (gamma - n * p0) * (gamma + n * p0)
    if np.any(disc < -1e-12):
        raise ConsistencyError(f"gamma^2 - 4^m p0^2 = {disc} < 0 at m={m}, nbar={nbar}")
    one_minus_p0 = -np.expm1(-n * nbar)
    sqrt_disc = one_minus_p0 * np.sqrt(gamma + n * p0)
    c2 = (n * p0) ** 2 / (2 ** (2 * m + 1) * (gamma + sqrt_disc))
    # deep orthogonal regime: once c^2 is subnormal or zero the corrections
    # are O(p0 log p0) ~ 1e-154, below double precision
    orthogonal = c2 < np.finfo(float).tiny
    c2 = np.where(orthogonal, 1.0, c2)
    c = np.sqrt(c2)
    sym = (p0 - c2 * (K - 4)) / (2.0 * c)
    anti = np.sqrt(one_minus_p0 * (1.0 + p0))
    a_plus = 0.5 * (sym + anti)
    a_minus = 0.5 * (sym - anti)
    num = (m + 1) + xlog2(a_plus ** 2) + xlog2(a_minus ** 2) + (K - 2) * xlog2(c2)
    bits = np.where(orthogonal, (m + 1) / n, np.maximum(num, 0.0) / n)
    return _float_or_array(np.where(nbar == 0, 0.0, bits))


CLOSED_FORMS = {
    "hadamard_jdr": hadamard_jdr_capacity,
    "rm_gm": rm_gm_jdr_capacity,
    "rm_mpe": rm_mpe_capacity,
}


def pie_envelope(nbar, family, m_range):
    """Best PIE over a code-size range: max_m I_m(nbar)/nbar.

    ``family`` is a key of CLOSED_FORMS.
    Returns (m_star, pie), ints/floats for a scalar nbar and arrays for an
    array; ties break to the smaller m.
    """
    nbar = _photons(nbar, strict=True)
    try:
        cap = CLOSED_FORMS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(CLOSED_FORMS)}")
    ms = sorted(set(int(m) for m in m_range))
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
