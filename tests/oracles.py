"""Independent oracles for the test suite.

Everything here recomputes expected values along a different route from the
package implementation (dense matrices, exhaustive enumeration, fixed-order
quadrature, closed forms, high-precision mpmath), so agreement is evidence
rather than tautology.
"""

import mpmath as mp
import numpy as np
from scipy.stats import binom

from jdrcap.capacity_limits import dolinar_error_q
from jdrcap.entropy import binary_entropy


def dense_walsh(v):
    """Walsh-Hadamard transform by explicit Sylvester matrix multiply."""
    n = len(v)
    m = n.bit_length() - 1
    H = np.array([[1]], dtype=np.int64)
    for _ in range(m):
        H = np.block([[H, H], [H, -H]])
    return H @ np.asarray(v)


def brute_force_ml(codewords, received):
    """Minimum-distance decoding by scanning every codeword."""
    dist = np.sum(codewords != np.asarray(received, dtype=np.uint8), axis=1)
    return int(np.argmin(dist))


def gauss_legendre_f(b, order=200):
    """f(b) by a fixed-order Gauss-Legendre rule on the cusp-free substitution.

    Deliberately not adaptive and not QUADPACK: an independent quadrature
    route for the dual-rule check.
    """
    a = np.exp(-b)
    if a >= 1.0:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = 0.5 * (nodes + 1.0)          # map [-1, 1] -> [0, 1], jacobian 1/2
    x = a + (1.0 - a) * t * t
    vals = np.sqrt(np.clip(1.0 - (a / x) ** 4, 0.0, None)) * 2.0 * (1.0 - a) * t
    return 0.25 * float(np.sum(weights * vals))


def f_mp(b, dps=40):
    """f(b) in mpmath from its incomplete elliptic form, a = e^{-b}, phi = arccos a.

    [sqrt(1 - a^4) - sqrt(2) a (2 E(phi|1/2) - F(phi|1/2))] / 2, evaluated at
    ``dps`` digits so the small-b cancellation costs nothing; tied to the
    integral definition by a direct mpmath quadrature in the tests.
    """
    with mp.workdps(dps):
        a = mp.exp(-mp.mpf(b))
        phi, half = mp.acos(a), mp.mpf(1) / 2
        return (mp.sqrt(1 - a ** 4)
                - mp.sqrt(2) * a * (2 * mp.ellipe(phi, half) - mp.ellipf(phi, half))) / 2


def _xlog2_mp(x):
    return x * mp.log(x, 2) if x > 0 else mp.mpf(0)


def rm_gm_mp(m, nbar, dps=40):
    """RM(1,m) Green Machine capacity in mpmath, from f_mp and explicit entropies."""
    with mp.workdps(dps):
        n_pulse = 2 ** m * mp.mpf(nbar)
        p0 = mp.exp(-n_pulse)
        f = f_mp(n_pulse, dps)
        probs = ((1 - p0) / 2 + f, (1 - p0) / 2 - f, p0)
        num = ((1 - p0) * (m + 1) - _xlog2_mp(p0) - _xlog2_mp(1 - p0)
               + sum(_xlog2_mp(p) for p in probs))
        return max(num, 0) / 2 ** m


def rm_mpe_mp(m, nbar, dps=60):
    """RM(1,m) minimum-error capacity: the paper's c^2 closed form at ``dps`` digits.

    The discriminant gamma^2 - 4^m p0^2 is formed directly, not through the
    (1-p0)^2 (gamma + 2^m p0) factorization the package uses, and c^2 never
    underflows at this precision.
    """
    with mp.workdps(dps):
        nbar = mp.mpf(nbar)
        if nbar == 0:
            return mp.mpf(0)
        n, K = 2 ** m, 2 ** (m + 1)
        p0 = mp.exp(-n * nbar)
        gamma = 1 + 2 * p0 * (2 ** (m - 1) - 1) + p0 ** 2
        c2 = (n * p0) ** 2 / (2 ** (2 * m + 1) * (gamma + mp.sqrt(gamma ** 2 - (n * p0) ** 2)))
        sym = (p0 - c2 * (K - 4)) / (2 * mp.sqrt(c2))
        anti = mp.sqrt((1 - p0) * (1 + p0))
        num = ((m + 1) + _xlog2_mp(((sym + anti) / 2) ** 2) + _xlog2_mp(((sym - anti) / 2) ** 2)
               + (K - 2) * _xlog2_mp(c2))
        return max(num, 0) / n


def bsc_capacity(q):
    return 1.0 - binary_entropy(q)


def bec_capacity(eps):
    return 1.0 - eps


def mutual_information_direct(P, priors):
    """I(X;Y) from the single-sum definition sum r P log2(P / q_out)."""
    P = np.asarray(P, dtype=float)
    r = np.asarray(priors, dtype=float)
    out = r @ P
    total = 0.0
    for i in range(P.shape[0]):
        for j in range(P.shape[1]):
            if r[i] > 0 and P[i, j] > 0:
                total += r[i] * P[i, j] * np.log2(P[i, j] / out[j])
    return total


def exhaustive_dr_ber(m, nbar):
    """Exact message-bit BER of Dolinar-detected Hadamard code, ML decoded.

    Enumerates every flip pattern of the (2^m - 1)-symbol block, weighting by
    the BSC(q) probabilities; feasible for m <= 4.
    """
    from jdrcap.codes import hadamard_code

    code = hadamard_code(m, with_ancilla=False)
    n, K = code.n, code.size
    if n > 16:
        raise ValueError("exhaustive enumeration is for m <= 4")
    q = dolinar_error_q(nbar)
    patterns = np.arange(2 ** n, dtype=np.uint32)
    bits = ((patterns[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    weight = bits.sum(axis=1)
    probs = q ** weight * (1.0 - q) ** (n - weight)
    total = 0.0
    for k in range(K):
        received = code.codewords[k] ^ bits
        dist = np.count_nonzero(received[:, None, :] != code.codewords[None, :, :], axis=2)
        decoded = np.argmin(dist, axis=1)
        wrong_bits = np.bitwise_count(np.uint32(k) ^ decoded.astype(np.uint32))
        total += np.dot(probs, wrong_bits) / m
    return total / K


def dr_ber_lower_bound(m, nbar):
    """Rigorous lower bound on the Hadamard-DR message-bit BER.

    Bonferroni on the pairwise events "rival codeword strictly beats the
    true one". All 2^m - 1 rivals sit at distance d = 2^{m-1} and any two
    rivals share exactly d/2 flip positions, so both terms are exact
    binomial expressions. Used where the plain Monte Carlo estimator has no
    statistical power left.
    """
    q = dolinar_error_q(nbar)
    d = 2 ** (m - 1)
    rivals = 2 ** m - 1
    p_single = binom.sf(d // 2, d, q)  # strictly more than d/2 of d flipped
    shared = d // 2
    x = np.arange(shared + 1)
    tail_given_x = binom.sf(shared - x, shared, q)  # P(Y >= shared - x + 1)
    p_pair = float(np.dot(binom.pmf(x, shared, q), tail_given_x ** 2))
    p_block = rivals * p_single - 0.5 * rivals * (rivals - 1) * p_pair
    return max(p_block, 0.0) / m
