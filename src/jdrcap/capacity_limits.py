"""Closed-form capacities and photon-information-efficiency (PIE) functions.

Covers the ultimate (Holevo) limit of the lossy bosonic mode, the BPSK
single-symbol (Dolinar) and joint-measurement limits, the superchannel
capacities of the Hadamard and first-order Reed-Muller receiver families,
and the PIE/spectral-efficiency tradeoff of a multi-mode link.

Every closed form takes a mean photon number nbar as a scalar or an array:
a scalar gives a float, an array an array of the same shape. All functions
are pure and safe for concurrent evaluation.
"""

import numpy as np

from .entropy import LN2, binary_entropy, xlog2


class ConsistencyError(ArithmeticError):
    """A closed-form intermediate violated a bound it provably satisfies."""


def _photons(x, strict=False):
    """x as a float array; raises unless every entry is >= 0 (> 0 if strict), so NaN too."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0 if strict else x >= 0):
        raise ValueError(f"photon number must be {'> 0' if strict else '>= 0'}, got {x}")
    return x


def _float_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


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


def nbar_for_pie(target_pie, rel_tol=1e-9):
    """Invert pie_ultimate: the unique nbar with g(nbar)/nbar = target_pie.

    Bisection on the strictly decreasing PIE; unconditionally convergent.
    """
    if not 0 < target_pie < np.inf:
        raise ValueError(f"target PIE must be > 0 and finite, got {target_pie}")
    lo, hi = 1.0, 1.0
    while pie_ultimate(lo) < target_pie:
        lo /= 8.0
    while pie_ultimate(hi) > target_pie:
        hi *= 8.0
    while hi - lo > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if pie_ultimate(mid) > target_pie:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


# Taylor coefficients of f(b) / b^{3/2} at b = 0, and where the series takes over
_F_SERIES = (2 / 3, -2 / 3, 3 / 7, -13 / 63, 1073 / 13860, -65 / 2772)
_F_SERIES_BELOW = 1e-2
# duplication steps of _carlson_rf_rd: each shrinks the spread of (x, y, z) about
# their mean fourfold, and the fifth-order series leaves an O(spread^6) error
_DUPLICATIONS = 12


def _carlson_rf_rd(x, y, z):
    """Carlson's symmetric elliptic integrals (R_F(x, y, z), R_D(x, y, z)).

    For x, y >= 0 and z > 0, arrays broadcast together. A fixed number of
    duplication steps, then the series of DLMF 19.36.1 (R_F) and 19.36.2
    (R_D), after B. C. Carlson, Numer. Algorithms 10 (1995) 13-26.
    """
    v = np.array(np.broadcast_arrays(x, y, z), dtype=float)    # rows x, y, z
    mean_f = v.sum(axis=0) / 3.0
    mean_d = (mean_f * 3.0 + 2.0 * v[2]) / 5.0
    dev_f, dev_d = mean_f - v[:2], mean_d - v[:2]   # of x and y, before duplication
    terms = []                                      # 1 / (sqrt(z_k) (z_k + lam_k))
    for _ in range(_DUPLICATIONS):
        r = np.sqrt(v)
        lam = r[0] * (r[1] + r[2]) + r[1] * r[2]
        terms.append(1.0 / (r[2] * (v[2] + lam)))
        v = (v + lam) / 4.0
    tail = 0.0                                      # sum of 4^-k terms[k], smallest first
    for term in reversed(terms):
        tail = term + tail / 4.0
    scale = 4.0 ** -_DUPLICATIONS

    mean = v.sum(axis=0) / 3.0
    X, Y = scale * dev_f / mean
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(mean)

    mean = (mean * 3.0 + 2.0 * v[2]) / 5.0
    X, Y = scale * dev_d / mean
    Z = -(X + Y) / 3.0
    xy, zz = X * Y, Z * Z
    e2, e3 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * Z
    e4, e5 = 3.0 * (xy - zz) * zz, xy * zz * Z
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    rd = scale * series / (mean * np.sqrt(mean)) + 3.0 * tail
    return rf, rd


def f_integral(b):
    """The phase-information integral f(b) = 1/2 int_a^1 sqrt(1-(a/x)^4) dx, a = e^{-b}.

    In closed form, with phi = arccos(a) and the incomplete elliptic integrals
    E and F at parameter 1/2:
    f(b) = [sqrt(1 - a^4) - sqrt(2) a (2 E(phi|1/2) - F(phi|1/2))] / 2.
    E and F come from Carlson's symmetric integrals (DLMF 19.25.5, 19.25.9;
    algorithm of DLMF 19.36): with s = sin(phi) = sqrt(1 - a^2) and R_F, R_D
    both at (a^2, 1 - s^2/2, 1), F = s R_F and E = F - (s^3 / 6) R_D, so
    2E - F = s R_F - (s^3 / 3) R_D.
    Its two terms cancel as b -> 0, so below b = 1e-2 the Taylor series
    b^{3/2} (2/3 - 2b/3 + 3b^2/7 - ...) is used instead.
    """
    b = _photons(b)
    a = np.exp(-b)
    s = np.sqrt(-np.expm1(-2.0 * b))
    rf, rd = _carlson_rf_rd(a * a, 1.0 - 0.5 * s * s, 1.0)
    elliptic = 0.5 * (np.sqrt(-np.expm1(-4.0 * b))
                      - np.sqrt(2.0) * a * (s * rf - s ** 3 * rd / 3.0))
    small = np.minimum(b, _F_SERIES_BELOW)  # keeps the unused branch finite at b = inf
    series = small * np.sqrt(small) * np.polynomial.polynomial.polyval(small, _F_SERIES)
    return _float_or_array(np.where(b < _F_SERIES_BELOW, series, elliptic))


def hadamard_jdr_capacity(m, nbar):
    """Superchannel capacity of the Hadamard code + Green Machine + SPD array.

    (m / 2^m)(1 - e^{-2^m nbar}) bits/symbol with the pilot mode counted in
    the block length; PIE approaches m bits/photon at small nbar.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    n = 2 ** m
    return _float_or_array((m / n) * -np.expm1(-n * _photons(nbar)))


def rm_gm_outcome_probs(m, nbar):
    """Outcome probabilities (p_plus, p_minus, p_erasure) of the RM(1,m) receiver.

    p0 = e^{-nP} with nP = 2^m nbar the pulse energy at the Green Machine
    output, and p_pm = (1 - p0)/2 +- f(nP).
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    n_pulse = (2 ** m) * _photons(nbar)
    p0 = np.exp(-n_pulse)
    half = -np.expm1(-n_pulse) / 2.0
    f = f_integral(n_pulse)
    p_plus = half + f
    p_minus = half - f
    if np.any(p_minus < -1e-12):
        raise ConsistencyError(
            f"f({n_pulse}) = {f} exceeds (1-p0)/2 = {half}; closed-form bound violated"
        )
    p_minus = np.maximum(p_minus, 0.0)
    return _float_or_array(p_plus), _float_or_array(p_minus), _float_or_array(p0)


def rm_gm_jdr_capacity(m, nbar):
    """Superchannel capacity of the RM(1,m) code + Green Machine + SPD/Dolinar chain.

    [(1-p0)(m+1) + H(p0, 1-p0) - H(p+, p-, p0)] / 2^m bits/symbol.
    """
    p_plus, p_minus, p0 = rm_gm_outcome_probs(m, nbar)
    not_erased = -np.expm1(-(2 ** m) * np.asarray(nbar, dtype=float))
    num = (
        not_erased * (m + 1)
        - (xlog2(p0) + xlog2(not_erased))
        + (xlog2(p_plus) + xlog2(p_minus) + xlog2(p0))
    )
    return _float_or_array(np.maximum(num, 0.0) / (2 ** m))


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
    if modes < 1:
        raise ValueError(f"need at least one mode, got {modes}")
    n_r = _photons(n_r_grid, strict=True)
    se = modes * g(n_r / modes)
    big = np.isinf(n_r)
    return se, np.where(big, 0.0, se / np.where(big, 1.0, n_r))


def __getattr__(name):
    # perfbench/tracer.py still reads capacity_limits.quad to count kernels.quad.calls;
    # importing scipy only on that lookup keeps it off every normal start
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
