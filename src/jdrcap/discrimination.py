"""Hilbert-space-free pure-state discrimination.

A codebook of coherent-state codewords is represented by its Gram matrix G
of inner products and a prior vector; every measurement here is expressed in
the K-dimensional span of the codewords, so no exponential state space is
ever formed. A BPSK codebook's Gram takes its Hamming distances from one
product of the codeword matrix, in O(K^2 + Kn) memory. The measurements
rest on the weighted square-root measurement (SRM) with weights w, whose
channel is

    P(j|i) = (What^{1/2})_ij^2 / w_i,   What = D G D,  D = diag(sqrt w)

(Eldar & Forney, IEEE Trans. Inf. Theory 47, 2001). A linear code's Gram,
such as a Hadamard or RM(1,m) code's, is XOR-invariant: G_ij = g_{i xor j},
K = 2^k. Its eigenvalues are the Walsh transform of g, and at equal weights
the SRM has the closed form (G^{1/2})_ij^2 with
G^{1/2}_ij = fwht(sqrt(fwht g))_{i xor j} / K: O(K^2) work and no
eigendecomposition. Any other Gram takes its eigenvalues from eigvalsh, and
its SRM takes one eigendecomposition of What, as does any weighted SRM.
Either set of eigenvalues decides, once, whether the Gram is PSD to the
clamp; the solvers then clamp negative eigenvalues to zero and check nothing.
The SRM is the weighted SRM at w = priors; the minimum-probability-of-error
(MPE) measurement is the weighted SRM at the weights that solve its
optimality conditions (Mochon, Phys. Rev. A 73, 032328, 2006), found by
``mpe_solve`` as the fixed point of a map on the weights, accelerated by
Anderson mixing and stopped on the map's residual, so the measurement
itself has converged, not just its success. The (2,3,1) code's MPE
measurement has a one-angle form, which the two-symbol curve evaluates, as
rows and their deviations, for a whole (nbar, prior) grid at once. The
binary Helstrom bound is the closed-form reference.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .capacity_limits import _held
from .codes import fwht
from .dmc import ConvergenceError, DiscreteChannel, check_priors

EIG_CLAMP_REL = 1e-10
ROUNDOFF_MARGIN = 8.0       # MPE stop: allowance over the row-sum round-off estimate
MPE_TOL = 1e-12             # MPE stop: residual allowance on the largest weight
MPE_MAX_ITER = 10000


class NotPSDError(ValueError):
    """A Gram matrix's smallest eigenvalue is below -EIG_CLAMP_REL max(1, max |lambda|)."""


def _xor_gram(G):
    """G[0][i xor j] as a fresh array when it equals the square G exactly and
    K = 2^k, else None: the Gram of a linear code's codewords (Hadamard,
    RM(1,m)) in their natural order."""
    K = len(G)
    if K & (K - 1):
        return None
    i = np.arange(K)
    xor = G[0][i[:, None] ^ i]
    return xor if np.array_equal(xor, G) else None


@dataclass(frozen=True, eq=False)
class PureStateEnsemble:
    """Gram matrix of codeword inner products plus prior probabilities.

    The Gram matrix is validated and symmetrised here, once, so the solvers
    below work on it without checking it again. Its entries must be finite,
    symmetric and 1 on the diagonal, each to within 1e-12 absolute. It must
    have lambda_min >= -EIG_CLAMP_REL max(1, max |lambda|), else NotPSDError,
    the one PSD rule: the solvers trust it and only clamp. An XOR-invariant
    Gram, G_ij = g_{i xor j} exactly with K = 2^k, is symmetric as given;
    ``spectrum`` holds its eigenvalues, fwht(g), and the rule reads them.
    Every other ensemble has ``spectrum`` None, and the rule reads the
    eigenvalues of eigvalsh.

    ``srm_rows``, the raw rows of the SRM at w = priors, are computed on
    first use, once per ensemble, and shared by ``srm_channel`` and the
    first iterate of ``mpe_solve``.
    """

    gram: np.ndarray = field(repr=False)
    priors: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        G = np.asarray(self.gram, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError(f"Gram matrix must be square, got {G.shape}")
        p = check_priors(self.priors, len(G))
        if not np.all(np.isfinite(G)):
            raise ValueError("Gram matrix must be finite")
        xor = _xor_gram(G)
        # rtol=0: 1e-12 absolute is the whole allowance
        if xor is None and not np.allclose(G, G.T, rtol=0, atol=1e-12):
            raise ValueError("Gram matrix must be symmetric")
        if not np.allclose(np.diag(G), 1.0, rtol=0, atol=1e-12):
            raise ValueError("Gram matrix must have unit diagonal")
        if xor is None:
            G, spectrum = 0.5 * (G + G.T), None
            lam = np.linalg.eigvalsh(G)
        else:
            G, spectrum = xor, fwht(xor[0])
            spectrum.setflags(write=False)
            lam = spectrum
        if lam.min() < -EIG_CLAMP_REL * max(1.0, float(np.max(np.abs(lam)))):
            raise NotPSDError(f"Gram matrix has eigenvalue {lam.min()}")
        G.setflags(write=False)
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "gram", G)
        object.__setattr__(self, "priors", p)
        object.__setattr__(self, "spectrum", spectrum)

    @cached_property
    def srm_rows(self):
        """The raw SRM rows at w = priors, read-only, computed once per ensemble.

        With equal priors on an XOR-invariant Gram they are (G^{1/2})_ij^2,
        from the spectrum (_walsh_srm_rows); otherwise _srm_rows(gram, priors),
        one eigendecomposition.
        """
        p = self.priors
        if self.spectrum is not None and np.all(p == p[0]):
            rows = _walsh_srm_rows(self.spectrum)
        else:
            rows = _srm_rows(self.gram, p)
        rows.setflags(write=False)
        return rows


@dataclass(frozen=True)
class MpeResult:
    """Outcome of the MPE fixed-point solve."""

    success_probability: float
    channel: DiscreteChannel
    iterations: int
    success_trace: tuple


def gram_from_code(code, nbar):
    """The ensemble of a BPSK codebook at one nbar, with uniform priors.

    Two codewords at Hamming distance h have overlap e^{-2 nbar h}, the
    product of the per-symbol overlaps <alpha|-alpha> = e^{-2 nbar}.
    """
    nbar = _held(nbar).item()
    cw = code.codewords.astype(float)
    # d_ij = |c_i| + |c_j| - 2 <c_i, c_j> from one product, in O(K^2) memory; every
    # term is an integer at most 2n, so float64 holds each exactly
    weight = cw.sum(axis=1)
    dist = cw @ cw.T
    dist *= -2.0
    dist += weight[:, None]
    dist += weight
    priors = np.full(code.size, 1.0 / code.size)
    return PureStateEnsemble(gram=np.exp(-2.0 * nbar * dist), priors=priors)


def sqrtm_psd(M):
    """Square root of a symmetric PSD matrix.

    Only the lower triangle is read, so M must already be symmetric.
    Negative eigenvalues are clamped to zero: D G D is PSD to the clamp
    whenever G is, and PureStateEnsemble has decided that of G.
    """
    lam, U = np.linalg.eigh(M)
    return (U * np.sqrt(np.clip(lam, 0.0, None))) @ U.T


def _srm_rows(gram, w):
    """Channel rows (What^{1/2})_ij^2 / w_i of the SRM weighted by w >= 0.

    Row i sums to What_ii / w_i = 1 up to round-off. Zero-weight rows are
    uniform by convention (they carry no weight in any mutual information).
    """
    d = np.sqrt(w)
    weighted = d[:, None] * gram
    weighted *= d
    # sqrtm_psd returns a fresh array, so the rows are formed in it
    rows = sqrtm_psd(weighted)
    rows *= rows
    live = w > 0
    rows /= np.where(live, w, 1.0)[:, None]
    rows[~live] = 1.0 / len(w)
    return rows


def _walsh_srm_rows(spectrum):
    """Rows (G^{1/2})_ij^2 of the equal-weight SRM of the XOR-invariant Gram
    with eigenvalues ``spectrum`` = fwht(g).

    G = H diag(lambda) H / K, and H_ik H_jk = H_{i xor j, k}, so
    G^{1/2}_ij = t_{i xor j} with t = fwht(sqrt(lambda)) / K. Negative
    eigenvalues are clamped to zero, as in sqrtm_psd. Row i sums to G_ii = 1
    up to round-off.
    """
    K = len(spectrum)
    t = fwht(np.sqrt(np.clip(spectrum, 0.0, None))) / K
    i = np.arange(K)
    return (t * t)[i[:, None] ^ i]


def srm_channel(ensemble):
    """Transition matrix of the square-root measurement, the weighted SRM at w = p.

    With Ghat_ij = sqrt(p_i p_j) G_ij, P(j|i) = (Ghat^{1/2})_ij^2 / p_i;
    zero-prior rows are uniform. The rows are the ensemble's ``srm_rows``,
    which ``mpe_solve`` starts from too, each divided by its own sum to
    remove the eigendecomposition's round-off.
    """
    rows = ensemble.srm_rows
    return DiscreteChannel(rows / rows.sum(axis=1, keepdims=True))


def helstrom_binary(overlap_sq, p1, p2):
    """Minimum error probability for two pure states, (1 - sqrt(1 - 4 p1 p2 s^2))/2,
    as 2 p1 p2 s^2 / (1 + sqrt(1 - 4 p1 p2 s^2)), which does not cancel as s -> 0."""
    if not 0.0 <= overlap_sq <= 1.0:
        raise ValueError(f"overlap^2 must be in [0,1], got {overlap_sq}")
    check_priors((p1, p2), 2)
    return 2.0 * p1 * p2 * overlap_sq / (1.0 + np.sqrt(1.0 - 4.0 * p1 * p2 * overlap_sq))


def mpe_solve(ensemble):
    """Minimum-probability-of-error measurement as an iterated weighted SRM.

    Every minimum-error measurement of pure states is the SRM at some
    weights w. Its optimality conditions make w a fixed point of the
    normalised map

        F(w)_i = p_i^2 t_i(w) / sum_k p_k^2 t_k(w),

    with t_i(w) = P(i|i) the success probability of state i under the SRM
    weighted by w; in the span of the codewords F is the update
    mu_i <- S^{-1/2} p_i sqrt(t_i) psi_i with S = sum_i p_i^2 t_i psi_i psi_i^T.

    Seeded with the SRM (w = p, unnormalised, since the weighted SRM does
    not change when w is scaled), whose rows are the ensemble's shared
    ``srm_rows``, so after ``srm_channel`` the first iterate costs no
    eigendecomposition. Each step mixes F at the last two iterates
    by one Anderson (secant) step (Walker & Ni, SIAM J. Numer. Anal. 49,
    2011): one SRM call, as for the plain step w <- F(w), but faster than
    its linear convergence. The plain step is taken whenever the mixed
    weights leave the nonnegative orthant.

    Iteration stops at, and returns, the first iterate with
    |F(w)_i - w_i| <= tol sqrt(w_i / max_k w_k) for every i, tol = MPE_TOL:
    tol on the largest weights, less on the small ones, since a relative
    change of w_i is what moves the measurement. (Success is flat at the
    optimum, so a stop on its gain leaves the measurement converged to about
    sqrt(tol).)
    Where the states nearly coincide, F carries more round-off than that;
    each SRM row's deviation from unit sum measures it, and the bound is
    widened by ROUNDOFF_MARGIN times that estimate. The iteration reads t
    and that estimate from the raw rows; the channel it returns holds each
    raw row divided by its own sum, since a row's round-off grows as its
    weight shrinks. The success trace lists each iterate's success that is
    at least every earlier one. Equal priors
    on a geometrically uniform ensemble stop at once: the SRM is the fixed
    point. Raises ConvergenceError, with the MpeResult of the best-success
    iterate as ``best``, if no iterate stops within MPE_MAX_ITER steps.
    """
    gram, p = ensemble.gram, ensemble.priors
    p2 = p * p
    w = p
    best, best_rows, trace = -np.inf, ensemble.srm_rows, []
    for it in range(MPE_MAX_ITER + 1):
        rows = _srm_rows(gram, w) if it else ensemble.srm_rows
        t = np.diagonal(rows)
        f = p2 * t
        f /= f.sum()
        r = f - w
        success = (p * t).sum()
        if success >= best:
            best, best_rows = success, rows
            trace.append(float(success))
        # each weight settles to tol, scaled down by its amplitude sqrt(w_i / max w) below
        # the largest weight, since a relative change of w_i is what moves the
        # measurement; beyond that, by the round-off in F that the row sums show
        noise = np.divide(np.abs(rows.sum(axis=-1) - 1.0), t, out=np.zeros_like(t), where=t > 0)
        noise += (f * noise).sum()
        allow = MPE_TOL * np.sqrt(w / w.max()) + ROUNDOFF_MARGIN * f * noise
        if (np.abs(r) <= allow).all():
            # the iterate at which the residual stop fires, not the best-success one
            channel = DiscreteChannel(rows / rows.sum(axis=1, keepdims=True))
            return MpeResult(float(success), channel, it, tuple(trace))
        step = f
        if it:
            # one Anderson (secant) step from the last two (w, F(w) - w) pairs; a zero
            # secant leaves gamma = 0, the plain step
            dr = r - r_prev
            den = (dr * dr).sum()
            gamma = (dr * r).sum() / den if den > 0 else 0.0
            mixed = f - gamma * (w - w_prev + dr)
            if (mixed >= 0).all():
                step = mixed
        w_prev, r_prev, w = w, r, step
    channel = DiscreteChannel(best_rows / best_rows.sum(axis=1, keepdims=True))
    raise ConvergenceError(f"MPE iteration did not reach tol={MPE_TOL} in {MPE_MAX_ITER} steps",
                           best=MpeResult(float(best), channel, MPE_MAX_ITER, tuple(trace)))


def _two_symbol_mpe_rows(nbar, p):
    """The (2,3,1) code's MPE measurement at priors (1-2p, p, p): its channel
    rows (..., 3, 3) and the deviations of row 2 from row 1, (..., 3).

    In an orthonormal frame of their span the states |aa>, |a,-a>, |-a,a>
    read (1, 0, 0) and (s, c, +-c), with s = e^{-2 nbar} and c^2 = (1 - s^2)/2.
    They are linearly independent, so the MPE measurement is an orthonormal
    basis of that span (Kennedy, MIT RLE QPR 110, 1973), and it is mapped to
    itself by the swap of the last two states (Eldar, Megretski & Verghese,
    IEEE Trans. Inf. Theory 50, 2004): (cos t, sin t, 0) and
    (-sin t, cos t, +-1)/sqrt2 for one angle t, with success

        S(t) = (1-2p) cos^2 t + p (c cos t - s sin t + c)^2.

    t is the best of the 16 angles k pi/8, refined by 6 Newton steps on S'.
    It is carried as e^{it} = e^{ik pi/8} e^{id}, an offset d from a table
    exact at the multiples of pi/2: near pi/2, cos t = -sin d keeps every
    digit, where a float t ~ 1.5708 leaves it an absolute eps. Row i holds the
    squared coordinates of state i in that basis, so it sums to 1; row 1 is
    (cos^2 t, sin^2 t / 2, sin^2 t / 2), and rows 2 and 3 take 1 -+ cos t as
    sin^2 t / (1 +- cos t) where that does not cancel. As nbar -> 0 the rows
    near 1/2 and near 1 cannot hold their O(c) differences, so those come
    apart, with s^2 - 1 = -2 c^2, as the deviations

        shared: c^2 (sin^2 t - 2 cos^2 t) + 2 s c sin t cos t,
        right:  c (1 + cos t) [c (3 cos t - 1) - 2 s sin t] / 2,
        wrong:  c (1 - cos t) [2 s sin t - c (3 cos t + 1)] / 2,

    in that order; row 3's are right and wrong swapped. Broadcasts over nbar
    and p. nbar goes unchecked: the one caller,
    superchannel._two_symbol_mpe_information, takes the curve's grid checked
    and held at 400 (capacity_limits._held).
    """
    nbar, p = np.asarray(nbar, dtype=float), np.asarray(p, dtype=float)
    c2 = -np.expm1(-4.0 * nbar) / 2.0
    s, c, q = np.exp(-2.0 * nbar), np.sqrt(c2), 1.0 - 2.0 * p
    # e^{i k pi/8} for k = 4j + m as i^j e^{i m pi/8}: exact at the multiples of pi/2
    grid = np.outer([1.0, 1j, -1.0, -1j], np.exp(1j * np.pi / 8 * np.arange(4))).ravel()
    g = c[..., None] * grid.real - s[..., None] * grid.imag + c[..., None]
    best = grid[np.argmax(q[..., None] * grid.real ** 2 + p[..., None] * g * g, axis=-1)]
    # (c + i s) e^{it} = x + i y: x = c cos t - s sin t, y = c sin t + s cos t
    state, z, d = c + 1j * s, best, 0.0
    for _ in range(6):
        w, twice = state * z, z * z
        g, y = w.real + c, w.imag
        slope = q * twice.imag / 2.0 + p * g * y                     # -S'(t) / 2
        curvature = q * twice.real - p * (y * y - g * w.real)        # -S''(t) / 2
        # where S is flat to round-off (p = 1/3, nbar near 1e-32) the curvature can be
        # >= 0: no step is taken there, so none divides by zero
        d = d - np.divide(slope, curvature, out=np.zeros_like(slope), where=curvature > 0)
        z = best * np.exp(1j * d)
    cos, sin = z.real, z.imag
    # 1 - |cos t| = sin^2 t / (1 + |cos t|), which does not cancel
    far = 1.0 + np.abs(cos)
    near = sin * sin / far
    plus, minus = np.where(cos < 0, near, far), np.where(cos < 0, far, near)
    side, shared, lift = sin * sin / 2.0, (state * z).imag ** 2, s * sin
    right, wrong = (c * plus - lift) ** 2 / 2.0, (c * minus + lift) ** 2 / 2.0
    rows = np.stack([cos * cos, side, side, shared, right, wrong, shared, wrong, right], axis=-1)
    return rows.reshape(*cos.shape, 3, 3), np.stack(
        [c2 * (sin * sin - 2.0 * cos * cos) + 2.0 * c * lift * cos,
         c * plus * (c * (3.0 * cos - 1.0) - 2.0 * lift) / 2.0,
         c * minus * (2.0 * lift - c * (3.0 * cos + 1.0)) / 2.0], axis=-1)
