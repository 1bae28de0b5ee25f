"""Independent oracles for the test suite.

Everything here recomputes expected values along a different route from the
package implementation (dense matrices, exhaustive enumeration, fixed-order
quadrature, closed forms, high-precision mpmath), so agreement is evidence
rather than tautology. The module imports nothing from the package: codebooks
come from their definition and q from mpmath.
"""

import math

import mpmath as mp
import numpy as np
from scipy.stats import binom


def sylvester(m):
    """The 2^m x 2^m Sylvester-Hadamard matrix as the m-th Kronecker power of
    [[1, 1], [1, -1]], in int8."""
    H = np.array([[1]], dtype=np.int8)
    for _ in range(m):
        H = np.kron(H, np.array([[1, 1], [1, -1]], dtype=np.int8))
    return H


def hadamard_codewords(m):
    """The (2^m - 1, 2^m) Hadamard codebook as 0/1 rows: the rows of sylvester(m)
    mapped +1 -> 0, -1 -> 1, with the constant first coordinate deleted."""
    return ((1 - sylvester(m)[:, 1:]) // 2).astype(np.uint8)


def dolinar_q_mp(nbar, dps=40):
    """The Helstrom/Dolinar error [1 - sqrt(1 - e^{-4n})]/2 at ``dps`` digits, as a
    float, from its cancellation-free form e^{-4n} / (2 [1 + sqrt(1 - e^{-4n})])."""
    with mp.workdps(dps):
        n = mp.mpf(nbar)
        return float(mp.exp(-4 * n) / (2 * (1 + mp.sqrt(-mp.expm1(-4 * n)))))


def dense_walsh(v):
    """Walsh-Hadamard transform over the last axis by one explicit Sylvester
    matrix multiply in float64; complex input takes the real and imaginary
    parts through separate real products."""
    v = np.asarray(v)
    if np.iscomplexobj(v):
        return dense_walsh(v.real) + 1j * dense_walsh(v.imag)
    H = sylvester(v.shape[-1].bit_length() - 1)
    return v.astype(float) @ H.astype(float)  # H is symmetric


def brute_force_ml(codewords, received):
    """Minimum-distance decoding by scanning every codeword."""
    dist = np.sum(codewords != np.asarray(received, dtype=np.uint8), axis=1)
    return int(np.argmin(dist))


def correlation_ml(codewords, words):
    """Minimum-distance decoding of a (N, n) batch of 0/1 words by a dense
    +-1 correlation with every codeword in float64. The distance is
    (n - correlation) / 2, so the first maximum is the first nearest
    codeword; no transform and no packing."""
    signs = 1.0 - 2.0 * np.asarray(codewords, dtype=float)
    return np.argmax((1.0 - 2.0 * np.asarray(words, dtype=float)) @ signs.T, axis=1)


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


def g_mp(nbar, dps=700):
    """g(n) = (1+n)log2(1+n) - n log2(n) as written, at ``dps`` digits: 700
    keep the 1 of 1 + n up to n = 1e300, so the cancellation costs nothing."""
    with mp.workdps(dps):
        n = mp.mpf(nbar)
        return _xlog2_mp(1 + n) - _xlog2_mp(n)


def c1_dolinar_mp(nbar, dps=700):
    """C1 = 1 - H_b(q), q = [1 - sqrt(1 - e^{-4n})]/2, as written, at ``dps``
    digits: down to n = 1e-300, where C1 ~ 3e-300, 700 leave 380 to spare."""
    with mp.workdps(dps):
        n = mp.mpf(nbar)
        q = (1 - mp.sqrt(1 - mp.exp(-4 * n))) / 2
        return 1 + _xlog2_mp(q) + _xlog2_mp(1 - q)


def holevo_bpsk_mp(nbar, dps=700):
    """H_b(q), q = (1 - e^{-2n})/2, as written, at ``dps`` digits: 700 hold
    the 1 of 1 - q against q ~ 1e-300."""
    with mp.workdps(dps):
        q = -mp.expm1(-2 * mp.mpf(nbar)) / 2
        return -_xlog2_mp(q) - _xlog2_mp(1 - q)


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

    It shares nothing with the package's route through the Gram spectrum: the
    discriminant gamma^2 - 4^m p0^2 is formed directly, and c^2 never
    underflows at this precision. Small nbar needs digits to spare past the
    cancellation of the (m+1) term, about 30 more than at nbar ~ 1.
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


def two_symbol_mpe_mp(nbar, p, dps=50):
    """I(X;Y) in bits of the (2,3,1) code's minimum-error measurement at priors
    (1-2p, p, p), in mpmath, by maximizing the success over measurement bases.

    The states |aa>, |a,-a>, |-a,a> have overlaps s = e^{-2 nbar} with the
    first and s^2 with each other, so in the orthonormal frame (u, v, a) of
    their span, with u the first state and a along the difference of the
    other two, they read (1, 0, 0) and (s, c, +-c) with c^2 = (1 - s^2)/2.
    They are linearly independent, so the minimum-error measurement is the
    orthonormal basis of the span with the highest success, and, being
    unique, it is mapped to itself by the swap of the last two states. Such
    bases are (cos t, sin t, 0) and (-sin t, cos t, +-sigma)/sqrt2 for an
    angle t and a sign sigma, with success
    S(t) = (1-2p) cos^2 t + p (c cos t - s sin t + sigma c)^2. The best t of
    a 720-point float scan of each sign is refined to a root of S'(t).
    """
    with mp.workdps(dps):
        p = mp.mpf(p)
        s = mp.exp(-2 * mp.mpf(nbar))
        c = mp.sqrt(-mp.expm1(-4 * mp.mpf(nbar)) / 2)

        def success(t, sigma, p=p, s=s, c=c, cos=mp.cos, sin=mp.sin):
            return (1 - 2 * p) * cos(t) ** 2 + p * (c * cos(t) - s * sin(t) + sigma * c) ** 2

        def slope(t, sigma):
            g = c * mp.cos(t) - s * mp.sin(t) + sigma * c
            return -(1 - 2 * p) * mp.sin(2 * t) - 2 * p * g * (c * mp.sin(t) + s * mp.cos(t))

        scan = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        optima = []
        for sigma in (1, -1):
            values = success(scan, sigma, float(p), float(s), float(c), np.cos, np.sin)
            t = mp.findroot(lambda x: slope(x, sigma), mp.mpf(scan[int(np.argmax(values))]))
            optima.append((success(t, sigma), t, sigma))
        _, t, sigma = max(optima)
        states = [(1, 0, 0), (s, c, c), (s, c, -c)]
        h = 1 / mp.sqrt(2)
        basis = [(mp.cos(t), mp.sin(t), 0),
                 (-h * mp.sin(t), h * mp.cos(t), h * sigma),
                 (-h * mp.sin(t), h * mp.cos(t), -h * sigma)]
        P = [[mp.fsum(x * y for x, y in zip(psi, e)) ** 2 for e in basis] for psi in states]
        r = (1 - 2 * p, p, p)
        out = [mp.fsum(r[i] * P[i][j] for i in range(3)) for j in range(3)]
        return mp.fsum(r[i] * P[i][j] * mp.log(P[i][j] / out[j], 2)
                       for i in range(3) for j in range(3) if r[i] > 0 and P[i][j] > 0)


def two_symbol_structured_mp(nbar, steps=60):
    """I2 of the (2,3,1) code on the structured receiver, in mpmath: a golden-section
    maximization over p of half the MI at priors (1-2p, p, p), as written.

    The rows come from their definition: the codewords (a, a), (a, -a), (-a, a),
    a = sqrt(nbar), meet on a 50-50 beam splitter; the SPD on the sum port
    clicks with 1 - e^{-|sum|^2}, and the Dolinar receiver on the difference
    port errs with [1 - sqrt(1 - e^{-4 |diff|^2})]/2 and guesses on vacuum.
    The MI is concave in p, so golden section holds; 60 steps leave a bracket
    of 1e-13, a value error of about 1e-26 relative. The precision, 40 digits
    plus -log10(nbar), holds 40 past the cancellation of the MI's O(1) terms.
    Shares nothing with the package's closed form.
    """
    with mp.workdps(40 + max(0, int(-math.log10(nbar)))):
        a = mp.sqrt(mp.mpf(nbar))
        rows = []
        for x, y in ((a, a), (a, -a), (-a, a)):
            total, diff = (x + y) / mp.sqrt(2), (x - y) / mp.sqrt(2)
            click = 1 - mp.exp(-total ** 2)
            q = (1 - mp.sqrt(1 - mp.exp(-4 * diff ** 2))) / 2
            plus = mp.mpf(1) / 2 if diff == 0 else (1 - q if diff > 0 else q)
            rows.append((click * plus, click * (1 - plus), (1 - click) * plus,
                         (1 - click) * (1 - plus)))

        def half_mi(p):
            r = (1 - 2 * p, p, p)
            out = [mp.fsum(r[i] * rows[i][j] for i in range(3)) for j in range(4)]
            return mp.fsum(r[i] * P * mp.log(P / out[j], 2) for i in range(3)
                           for j, P in enumerate(rows[i]) if r[i] > 0 and P > 0) / 2

        lo, hi = mp.mpf(0), mp.mpf(1) / 2
        shrink = (mp.sqrt(5) - 1) / 2
        c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        fc, fd = half_mi(c), half_mi(d)
        for _ in range(steps):
            if fc >= fd:
                hi, d, fd = d, c, fc
                c = hi - shrink * (hi - lo)
                fc = half_mi(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + shrink * (hi - lo)
                fd = half_mi(d)
        return max(fc, fd)


def bsc_capacity(q, dps=40):
    """1 - H_b(q) in bits, as written, at ``dps`` digits."""
    with mp.workdps(dps):
        q = mp.mpf(q)
        return float(1 + _xlog2_mp(q) + _xlog2_mp(1 - q))


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


def enumerated_jdr_ber(m, nbar):
    """Green Machine message-bit BER with the erasure guess enumerated.

    An erasure, probability e^{-2^m nbar}, is resolved by a uniform guess
    among the 2^m codewords; its expected wrong-bit fraction is the mean of
    popcount(i ^ j) / m over every pair of message labels.
    """
    idx = np.arange(2 ** m)
    guess_error_fraction = np.bitwise_count(idx[:, None] ^ idx[None, :]).mean() / m
    return np.exp(-(2 ** m) * np.asarray(nbar, dtype=float)) * guess_error_fraction


def exhaustive_dr_ber(m, nbar):
    """Exact message-bit BER of Dolinar-detected Hadamard code, ML decoded.

    Enumerates every flip pattern of the (2^m - 1)-symbol block, weighting by
    the BSC(q) probabilities; feasible for m <= 4.
    """
    codewords = hadamard_codewords(m)
    K, n = codewords.shape
    if n > 16:
        raise ValueError("exhaustive enumeration is for m <= 4")
    q = dolinar_q_mp(nbar)
    patterns = np.arange(2 ** n, dtype=np.uint32)
    bits = ((patterns[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    weight = bits.sum(axis=1)
    probs = q ** weight * (1.0 - q) ** (n - weight)
    total = 0.0
    for k in range(K):
        received = codewords[k] ^ bits
        dist = np.count_nonzero(received[:, None, :] != codewords[None, :, :], axis=2)
        decoded = np.argmin(dist, axis=1)
        wrong_bits = np.bitwise_count(np.uint32(k) ^ decoded.astype(np.uint32))
        total += np.dot(probs, wrong_bits) / m
    return total / K


def plain_dr_ber_bit_errors(m, nbar, trials, seed, chunk=50000):
    """Bit errors of the Hadamard-DR Monte Carlo by its plain reference loop.

    Whole chunks of trials: the chunk's messages, then ceil(batch * n / 8)
    raw words cut into bytes by explicit shifts, low byte first. A symbol
    flips when its byte is below k = floor(256 q); a byte equal to k flips
    when the next ``Generator.random`` double of the seed's first spawned
    child stream is below f = 256 q - k. Decoded by a dense correlation with
    every +-1 codeword (ties to the smallest index). Same seeding and draw
    order as ``ber_sim.hadamard_dr_ber``, no byte views, no blocks and no
    FWHT.
    """
    codewords = hadamard_codewords(m)
    K, n = codewords.shape
    signs = (1.0 - 2.0 * codewords.T).astype(np.float32)
    t = 256.0 * dolinar_q_mp(nbar)
    k = math.floor(t)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    ties_rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(0,)))
    bit_errors = 0
    done = 0
    while done < trials:
        batch = min(chunk, trials - done)
        msg = rng.integers(0, K, size=batch)
        words = rng.bit_generator.random_raw(-(-batch * n // 8))
        symbols = np.empty((words.size, 8), dtype=np.uint8)
        for j in range(8):
            symbols[:, j] = (words >> np.uint64(8 * j)) & np.uint64(0xFF)
        symbols = symbols.reshape(-1)[:batch * n].reshape(batch, n)
        flips = symbols < k
        tied = symbols == k
        flips[tied] = ties_rng.random(int(tied.sum())) < t - k
        received = codewords[msg] ^ flips
        decoded = np.argmax((1 - 2 * received.astype(np.float32)) @ signs, axis=1)
        bit_errors += int(np.bitwise_count(msg ^ decoded).sum())
        done += batch
    return bit_errors


def dr_ber_lower_bound(m, nbar):
    """Rigorous lower bound on the Hadamard-DR message-bit BER.

    Bonferroni on the pairwise events "rival codeword strictly beats the
    true one". All 2^m - 1 rivals sit at distance d = 2^{m-1} and any two
    rivals share exactly d/2 flip positions, so both terms are exact
    binomial expressions. Used where the plain Monte Carlo estimator has no
    statistical power left.
    """
    q = dolinar_q_mp(nbar)
    d = 2 ** (m - 1)
    rivals = 2 ** m - 1
    p_single = binom.sf(d // 2, d, q)  # strictly more than d/2 of d flipped
    shared = d // 2
    x = np.arange(shared + 1)
    tail_given_x = binom.sf(shared - x, shared, q)  # P(Y >= shared - x + 1)
    p_pair = float(np.dot(binom.pmf(x, shared, q), tail_given_x ** 2))
    p_block = rivals * p_single - 0.5 * rivals * (rivals - 1) * p_pair
    return max(p_block, 0.0) / m


def mpe_dual_bound(gram, priors, weights):
    """An upper bound on the minimum-error success of the pure states with Gram
    ``gram`` and ``priors``, from the SRM weighted by ``weights`` (Yuen, Kennedy
    & Lax, IEEE Trans. Inf. Theory 21, 1975; Eldar, Megretski & Verghese, IEEE
    Trans. Inf. Theory 49, 2003).

    The states are the columns psi_i of R = G^{1/2}, from one eigh of G. The
    weighted SRM's vectors mu_j are the rows of the polar factor U V^T of
    D R = U Sigma V^T, D = diag(sqrt w), from one SVD: no eigendecomposition of
    D G D and no division by a weight, the package's route. Any Z with
    Z >= p_j psi_j psi_j^T for every j has tr Z at least the optimal success.
    Z = sym sum_i p_i psi_i psi_i^T mu_i mu_i^T has trace the measurement's
    success, and s Z meets every constraint once s >= p_j psi_j^T Z^{-1} psi_j,
    so max(s, 1) tr Z is the bound; Z^{-1} comes through one Cholesky.
    """
    lam, V = np.linalg.eigh(gram)
    R = (V * np.sqrt(np.clip(lam, 0.0, None))) @ V.T
    U, _, Vt = np.linalg.svd(np.sqrt(weights)[:, None] * R)
    mu = U @ Vt
    amplitude = np.einsum("ki,ik->i", R, mu)
    Z = (R * (priors * amplitude)) @ mu
    Z = (Z + Z.T) / 2.0
    X = np.linalg.solve(np.linalg.cholesky(Z), R)
    s = float(np.max(priors * (X * X).sum(axis=0)))
    return max(s, 1.0) * float(np.trace(Z))
