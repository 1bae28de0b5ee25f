"""Reference values computed apart from jdrcap.

Every closed form here is evaluated from the paper's formulas in mpmath at
40 significant digits, or (for the few quantities without a closed form) by
a float64 route that shares no code with the package. Nothing in this module
imports jdrcap.
"""

import math
import sys

import mpmath as mp
import numpy as np
from scipy.optimize import minimize_scalar
from scipy.stats import binom

DPS = 40


def _log2(x):
    return mp.log(x) / mp.log(2)


def _xlog2(x):
    return mp.mpf(0) if x == 0 else x * _log2(x)


def _entropy(*ps):
    return -sum(_xlog2(p) for p in ps)


def g(nbar):
    """Holevo capacity of a lossless mode, (1+n)log2(1+n) - n log2 n."""
    with mp.workdps(DPS):
        n = mp.mpf(nbar)
        return (1 + n) * _log2(1 + n) - _xlog2(n)


def holevo_bpsk(nbar):
    """H_b((1 - e^{-2n})/2), bits per symbol."""
    with mp.workdps(DPS):
        y = (1 - mp.exp(-2 * mp.mpf(nbar))) / 2
        return _entropy(y, 1 - y)


def dolinar_q(nbar):
    """Helstrom error of BPSK, (1 - sqrt(1 - e^{-4n}))/2."""
    with mp.workdps(DPS):
        return (1 - mp.sqrt(1 - mp.exp(-4 * mp.mpf(nbar)))) / 2


def c1_dolinar(nbar):
    """Single-symbol BPSK capacity 1 - H_b(q) on the Dolinar receiver."""
    with mp.workdps(DPS):
        q = dolinar_q(nbar)
        return 1 - _entropy(q, 1 - q)


def f_elliptic(b):
    """f(b) = 1/2 int_a^1 sqrt(1 - (a/x)^4) dx with a = e^{-b}, in closed form.

    With phi = arccos a: f = [sqrt(1 - a^4) - sqrt2 a (2E(phi|1/2) - F(phi|1/2))]/2.
    """
    with mp.workdps(DPS):
        a = mp.exp(-mp.mpf(b))
        phi = mp.acos(a)
        return (mp.sqrt(1 - a ** 4)
                - mp.sqrt(2) * a * (2 * mp.ellipe(phi, 0.5) - mp.ellipf(phi, 0.5))) / 2


def hadamard_jdr(m, nbar):
    """(m / 2^m)(1 - e^{-2^m n}) bits per symbol."""
    with mp.workdps(DPS):
        n = 2 ** m
        return mp.mpf(m) / n * (1 - mp.exp(-n * mp.mpf(nbar)))


def rm_gm_probs(m, nbar, f=f_elliptic):
    """(p_plus, p_minus, p0) of the RM(1,m) Green Machine + SPD + Dolinar chain."""
    with mp.workdps(DPS):
        b = 2 ** m * mp.mpf(nbar)
        p0 = mp.exp(-b)
        fb = mp.mpf(f(b))
        # the package clamps p_minus at 0; a no-op for the exact f
        return (1 - p0) / 2 + fb, max((1 - p0) / 2 - fb, mp.mpf(0)), p0


def rm_gm_jdr(m, nbar, f=f_elliptic):
    """[(1-p0)(m+1) + H(p0, 1-p0) - H(p+, p-, p0)] / 2^m bits per symbol.

    ``f`` selects the f(b) evaluation; the checks pass the package's own f
    only to tell whether a mismatch is explained by it.
    """
    with mp.workdps(DPS):
        pp, pm, p0 = rm_gm_probs(m, nbar, f)
        return ((1 - p0) * (m + 1) + _entropy(p0, 1 - p0) - _entropy(pp, pm, p0)) / 2 ** m


def rm_srm_amplitudes(m, nbar):
    """Square-root-measurement amplitudes of RM(1,m) at uniform priors.

    The Gram matrix of a linear code is diagonalized by the characters of
    the code. RM(1,m) has weights 0, 2^{m-1} (2^{m+1} - 2 words) and 2^m, so
    its Gram spectrum is 1 + p0^2 + (K-2) p0 (once), 1 - p0^2 (K/2 times)
    and (1-p0)^2 (K/2 - 1 times), with p0 = e^{-2^m n} and K = 2^{m+1}.
    (G^{1/2})_{ij} depends only on the message difference x = i xor j:
    returns (A(0), A(complement), A(other)).
    """
    with mp.workdps(DPS):
        K = 2 ** (m + 1)
        p0 = mp.exp(-(2 ** m) * mp.mpf(nbar))
        root0 = mp.sqrt(1 + p0 ** 2 + (K - 2) * p0)
        mid = (K // 2 - 1) * (1 - p0)
        flip = (K // 2) * mp.sqrt(1 - p0 ** 2)
        return (root0 + mid + flip) / K, (root0 + mid - flip) / K, (root0 - (1 - p0)) / K


def rm_mpe(m, nbar):
    """Minimum-error (= SRM, the ensemble is geometrically uniform) capacity of RM(1,m)."""
    with mp.workdps(DPS):
        a0, ae, ac = rm_srm_amplitudes(m, nbar)
        K = 2 ** (m + 1)
        return (m + 1 + _xlog2(a0 ** 2) + _xlog2(ae ** 2) + (K - 2) * _xlog2(ac ** 2)) / 2 ** m


def rm_mpe_c2_form(m, nbar, c2=None):
    """The paper's c^2, gamma, a_pm closed form of the RM(1,m) minimum-error capacity.

    Agrees with ``rm_mpe`` (the character route) at the exact c^2. Passing
    ``c2`` evaluates the rest of the form exactly at a given c^2.
    """
    with mp.workdps(DPS):
        n, K = 2 ** m, 2 ** (m + 1)
        p0 = mp.exp(-n * mp.mpf(nbar))
        gamma = 1 + 2 * p0 * (2 ** (m - 1) - 1) + p0 ** 2
        if c2 is None:
            c2 = (n * p0) ** 2 / (2 ** (2 * m + 1) * (gamma + mp.sqrt(gamma ** 2 - (n * p0) ** 2)))
        c2 = mp.mpf(c2)
        c = mp.sqrt(c2)
        sym = (p0 - c2 * (K - 4)) / (2 * c)
        anti = mp.sqrt((1 - p0) * (1 + p0))
        a_plus, a_minus = (sym + anti) / 2, (sym - anti) / 2
        return (m + 1 + _xlog2(a_plus ** 2) + _xlog2(a_minus ** 2)
                + (K - 2) * _xlog2(c2)) / n


SUBNORMAL_ULP = 2.0 ** -1074


def rm_mpe_subnormal_range(m, nbar, ulps=2):
    """Range of the c^2 closed form over the subnormal doubles next to c^2.

    Where c^2 is a subnormal double, a float64 evaluation can only carry it
    to a multiple of 2^-1074, within an ulp of the exact value. Returns
    (low, high) of ``rm_mpe_c2_form`` with c^2 on each multiple within
    ``ulps`` of the exact c^2, or None where c^2 is not subnormal.
    """
    with mp.workdps(DPS):
        n = 2 ** m
        p0 = mp.exp(-n * mp.mpf(nbar))
        gamma = 1 + 2 * p0 * (2 ** (m - 1) - 1) + p0 ** 2
        c2 = (n * p0) ** 2 / (2 ** (2 * m + 1) * (gamma + mp.sqrt(gamma ** 2 - (n * p0) ** 2)))
        if not 0 < c2 < sys.float_info.min:
            return None
        k0 = int(mp.nint(c2 / SUBNORMAL_ULP))
        # c^2 = 0 stands for the form's limit, (m + 1) / 2^m
        values = [rm_mpe_c2_form(m, nbar, k * mp.mpf(SUBNORMAL_ULP)) if k else
                  mp.mpf(m + 1) / n for k in range(max(k0 - ulps, 0), k0 + ulps + 1)]
        return min(values), max(values)


def jdr_ber(m, nbar):
    """Green Machine BER of the Hadamard code: an erasure (e^{-2^m n}) forces a
    uniform guess, which gets half the message bits wrong."""
    with mp.workdps(DPS):
        return mp.exp(-(2 ** m) * mp.mpf(nbar)) / 2


def helstrom_error(overlap_sq, p1):
    """Minimum error of two pure states: (1 - sqrt(1 - 4 p1 p2 s^2))/2."""
    with mp.workdps(DPS):
        p1 = mp.mpf(p1)
        return (1 - mp.sqrt(1 - 4 * p1 * (1 - p1) * mp.mpf(overlap_sq))) / 2


def nbar_for_pie(pie):
    """The nbar at which g(n)/n equals ``pie``, by mpmath root finding."""
    with mp.workdps(DPS):
        t = mp.findroot(lambda t: g(mp.exp(t)) / mp.exp(t) - pie, mp.log(0.003))
        return mp.exp(t)


def sylvester(m):
    """The 2^m x 2^m +-1 Sylvester matrix, H[i, j] = (-1)^popcount(i & j)."""
    idx = np.arange(2 ** m)
    bits = np.bitwise_count(idx[:, None] & idx[None, :])
    return 1.0 - 2.0 * (bits & 1)


def two_symbol_rows(nbar):
    """Structured (2,3,1) receiver rows from the paper's port analysis.

    Codeword 00 sends sqrt(2n) to the SPD port and vacuum to the Dolinar
    receiver (a fair coin); 01 and 10 send nothing to the SPD and +-sqrt(2n)
    to the Dolinar receiver, which errs with q(2n). Outputs are
    (click,+), (click,-), (no click,+), (no click,-).
    """
    click = -math.expm1(-2.0 * nbar)
    q = float(dolinar_q(2.0 * nbar))
    return np.array([[click / 2, click / 2, (1 - click) / 2, (1 - click) / 2],
                     [0.0, 0.0, 1.0 - q, q],
                     [0.0, 0.0, q, 1.0 - q]])


def _mi_bits(P, r):
    """I(X;Y) in bits from the definition, for a stack of input distributions r (B, K)
    on one channel P (K, J) or on a stack of channels (B, K, J)."""
    joint = r[:, :, None] * P
    out = np.broadcast_to(joint.sum(axis=1, keepdims=True), joint.shape)
    ratio = np.ones_like(joint)
    nz = joint > 0
    ratio[nz] = np.broadcast_to(P, joint.shape)[nz] / out[nz]
    return np.sum(joint * np.log2(ratio), axis=(1, 2))


def _family(p):
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return np.stack([1.0 - 2.0 * p, p, p], axis=1)


def _maximize(fun, grid=2001):
    """Maximum over p in [0, 1/2] of a function vectorized in p.

    A dense grid, then bounded Brent on the bracket around the best point.
    """
    xs = np.linspace(0.0, 0.5, grid)
    vals = fun(xs)
    i = int(np.argmax(vals))
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, grid - 1)]
    res = minimize_scalar(lambda x: -float(fun(x)[0]), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-14})
    return max(float(vals[i]), -float(res.fun))


def two_symbol_structured_i2(nbar):
    """Best per-symbol MI of the structured receiver over priors (1-2p, p, p)."""
    P = two_symbol_rows(nbar)
    return _maximize(lambda p: _mi_bits(P, _family(p))) / 2


def _two_symbol_states(nbar):
    """Real coordinates of the (2,3,1) states |aa>, |a,-a>, |-a,a> (rows).

    Also returns the frame of the swap of the last two states: u = psi_0,
    v the rest of the symmetric span, and the antisymmetric direction a.
    """
    s, s2 = math.exp(-2.0 * nbar), math.exp(-4.0 * nbar)
    psi = np.linalg.cholesky(np.array([[1.0, s, s], [s, 1.0, s2], [s, s2, 1.0]]))
    u = psi[0]
    v = psi[1] + psi[2] - ((psi[1] + psi[2]) @ u) * u
    a = psi[1] - psi[2]
    return psi, u, v / np.linalg.norm(v), a / np.linalg.norm(a)


def two_symbol_mpe_channels(nbar, p, grid=720, newton=8):
    """Minimum-error measurement of the (2,3,1) ensemble at priors (1-2p, p, p).

    The three states are linearly independent, so the optimum is the one
    orthonormal basis of their span with the highest success probability,
    and being unique it keeps the ensemble's symmetry under swapping the
    last two states. Those bases are e0 = cos t u + sin t v and
    e1,2 = (w +- sigma a)/sqrt2 with w = -sin t u + cos t v. The success is
    maximized over t on a grid, refined by Newton steps, for both signs.
    Vectorized over p; returns the successes (B,) and channels (B, 3, 3).
    """
    psi, u, v, a = _two_symbol_states(nbar)
    p = np.atleast_1d(np.asarray(p, dtype=float))[:, None]
    al, be, ga = psi[1] @ u, psi[1] @ v, psi[1] @ a

    def success(t, sigma):
        # S = (1-2p) <e0,psi0>^2 + 2p <e1,psi1>^2 and its first two derivatives
        g = be * np.cos(t) - al * np.sin(t) + sigma * ga
        dg = -be * np.sin(t) - al * np.cos(t)
        return ((1 - 2 * p) * np.cos(t) ** 2 + p * g * g,
                -(1 - 2 * p) * np.sin(2 * t) + 2 * p * g * dg,
                -2 * (1 - 2 * p) * np.cos(2 * t) + 2 * p * (dg * dg - g * (g - sigma * ga)))

    best_s = np.full(p.shape, -np.inf)
    best_t, best_sigma = np.zeros(p.shape), np.zeros(p.shape)
    ts = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)[None, :]
    for sigma in (1.0, -1.0):
        t = ts[0, np.argmax(success(ts, sigma)[0], axis=1)][:, None]
        for _ in range(newton):
            _, d1, d2 = success(t, sigma)
            t = t - np.where(d2 < 0, d1 / np.where(d2 < 0, d2, -1.0), 0.0)
        s_t = success(t, sigma)[0]
        better = s_t > best_s
        best_s = np.where(better, s_t, best_s)
        best_t = np.where(better, t, best_t)
        best_sigma = np.where(better, sigma, best_sigma)
    e0 = np.cos(best_t) * u + np.sin(best_t) * v
    w = -np.sin(best_t) * u + np.cos(best_t) * v
    basis = np.stack([e0, (w + best_sigma * a) / math.sqrt(2),
                      (w - best_sigma * a) / math.sqrt(2)], axis=2)
    return best_s[:, 0], np.einsum("id,bdj->bij", psi, basis) ** 2


def two_symbol_mpe_i2(nbar):
    """Best per-symbol MI of the minimum-error receiver over priors (1-2p, p, p),
    the measurement re-optimized for each prior."""
    return _maximize(lambda p: _mi_bits(two_symbol_mpe_channels(nbar, p)[1], _family(p))) / 2


def dr_block_error_bounds(m, nbar):
    """Bounds on the block error of the Dolinar-detected Hadamard code, ML decoded.

    Every rival codeword differs from the sent one in d = 2^{m-1} of the
    2^m - 1 symbols, and two rivals share d/2 of those positions. Lower:
    Bonferroni on the events "rival strictly beats the sent word". Upper:
    union bound on "rival at least ties", since ties may resolve to the rival.
    """
    q = float(dolinar_q(nbar))
    d = 2 ** (m - 1)
    rivals = 2 ** m - 1
    p_beat = binom.sf(d // 2, d, q)
    p_tie_or_beat = binom.sf(d // 2 - 1, d, q)
    half = d // 2
    x = np.arange(half + 1)
    p_pair = float(np.dot(binom.pmf(x, half, q), binom.sf(half - x, half, q) ** 2))
    lower = max(rivals * p_beat - rivals * (rivals - 1) / 2 * p_pair, 0.0)
    upper = min(rivals * p_tie_or_beat, 1.0)
    return lower, upper


def binomial_consistent(bit_errors, trials, m, lower, upper, alpha=1e-9):
    """Whether a bit-error count can come from a block error rate in [lower, upper].

    A block error costs between 1 and m message bits, so the number of block
    errors lies in [ceil(bit_errors/m), bit_errors]. The count is rejected
    only if even those extremes are improbable at level ``alpha``.
    """
    min_blocks = -(-bit_errors // m)
    too_many = binom.sf(min_blocks - 1, trials, upper) < alpha
    too_few = binom.cdf(bit_errors, trials, lower) < alpha
    return not (too_many or too_few)
