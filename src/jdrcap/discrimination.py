"""Hilbert-space-free pure-state discrimination.

A codebook of coherent-state codewords is represented by its Gram matrix G
of inner products and a prior vector; every measurement here is expressed in
the K-dimensional span of the codewords, so no exponential state space is
ever formed. A BPSK codebook's Gram takes its Hamming distances from one
product of the codeword matrix, in O(K^2 + Kn) memory, and an ensemble is
proved PSD by one Cholesky factorisation, with the eigenvalues computed
only where that fails. One kernel does the linear algebra: the weighted
square-root measurement (SRM) with weights w, whose channel is

    P(j|i) = (What^{1/2})_ij^2 / w_i,   What = D G D,  D = diag(sqrt w)

(Eldar & Forney, IEEE Trans. Inf. Theory 47, 2001). The SRM is that kernel
at w = priors; the minimum-probability-of-error (MPE) measurement is the
weighted SRM at the weights that solve its optimality conditions (Mochon,
Phys. Rev. A 73, 032328, 2006), found as the fixed point of a map on the
weights, accelerated by Anderson mixing and stopped on the map's residual,
so the measurement itself has converged, not just its success. The kernel
and the iteration both work on stacks of B ensembles, one eigendecomposition
call per step for the whole stack, and the stacked solve can start from
given weights, such as those of a nearby ensemble; ``mpe_solve`` is the
stacked solve at B = 1 from the SRM. The binary Helstrom bound is the
closed-form reference.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .capacity_limits import _photons
from .dmc import ConvergenceError, DiscreteChannel, check_rows

EIG_CLAMP_REL = 1e-10
PRIOR_SUM_TOL = 1e-12
ROUNDOFF_MARGIN = 8.0       # MPE stop: allowance over the row-sum round-off estimate


class NotPSDError(ValueError):
    """Matrix eigenvalues fall below the PSD clamp threshold."""


def _cholesky_psd(G):
    """Whether a Cholesky factorisation proves the unit-diagonal G PSD to the clamp.

    A symmetric G with unit diagonal has lambda_max >= 1. A computed Cholesky
    factor of G + (tol/2) I, tol = EIG_CLAMP_REL, is exact for that matrix
    perturbed by at most about K (K + 1) u in the 2-norm (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 10). So if it exists,
    lambda_min(G) > -tol >= -tol max(1, lambda_max) while that perturbation
    is below tol/2, i.e. for K <= 670. A failure, or a larger K, proves
    nothing.
    """
    K = len(G)
    if K * (K + 1) * np.finfo(float).eps / 2 >= EIG_CLAMP_REL / 2:
        return False
    shifted = G.copy()
    shifted.flat[::K + 1] += EIG_CLAMP_REL / 2
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class PureStateEnsemble:
    """Gram matrix of codeword inner products plus prior probabilities.

    The Gram matrix is validated and symmetrised here, once, so the solvers
    below work on it without checking it again. Its entries must be finite,
    symmetric and 1 on the diagonal, each to within 1e-12 absolute. It must
    have lambda_min >= -EIG_CLAMP_REL max(1, lambda_max), else NotPSDError;
    a Cholesky factorisation proves that (_cholesky_psd), and only where it
    cannot do the eigenvalues decide.
    """

    gram: np.ndarray = field(repr=False)
    priors: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.gram, dtype=float)
        p = np.asarray(self.priors, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError(f"Gram matrix must be square, got {G.shape}")
        if p.shape != (G.shape[0],):
            raise ValueError("priors length must match Gram size")
        if not np.all(np.isfinite(G)):
            raise ValueError("Gram matrix must be finite")
        # rtol=0: 1e-12 absolute is the whole allowance
        if not np.allclose(G, G.T, rtol=0, atol=1e-12):
            raise ValueError("Gram matrix must be symmetric")
        if not np.allclose(np.diag(G), 1.0, rtol=0, atol=1e-12):
            raise ValueError("Gram matrix must have unit diagonal")
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= PRIOR_SUM_TOL):     # NaN fails too
            raise ValueError("priors must be nonnegative and sum to 1")
        G = 0.5 * (G + G.T)
        if not _cholesky_psd(G):
            lam = np.linalg.eigvalsh(G)
            if lam[0] < -EIG_CLAMP_REL * max(1.0, float(np.max(np.abs(lam)))):
                raise NotPSDError(f"Gram matrix has eigenvalue {lam[0]}")
        G.setflags(write=False)
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "gram", G)
        object.__setattr__(self, "priors", p)


@dataclass(frozen=True)
class MpeResult:
    """Outcome of the MPE fixed-point solve."""

    success_probability: float
    channel: DiscreteChannel
    iterations: int
    success_trace: tuple


def _code_grams(code, nbar):
    """Coherent-state Gram matrices (..., K, K) of a BPSK codebook at each nbar.

    Two codewords at Hamming distance h have overlap e^{-2 nbar h}, the
    product of the per-symbol overlaps <alpha|-alpha> = e^{-2 nbar}.
    """
    nbar = _photons(nbar)
    cw = code.codewords.astype(float)
    # d_ij = |c_i| + |c_j| - 2 <c_i, c_j> from one product, in O(K^2) memory; every
    # term is an integer at most 2n, so float64 holds each exactly
    weight = cw.sum(axis=1)
    dist = cw @ cw.T
    dist *= -2.0
    dist += weight[:, None]
    dist += weight
    return np.exp(-2.0 * nbar[..., None, None] * dist)


def gram_from_code(code, nbar):
    """The ensemble of a BPSK codebook at one nbar, uniform priors; see _code_grams."""
    priors = np.full(code.size, 1.0 / code.size)
    return PureStateEnsemble(gram=_code_grams(code, nbar), priors=priors)


def sqrtm_psd(M):
    """Square root of a symmetric PSD matrix, or of each in a stack (..., K, K).

    One eigendecomposition call covers the whole stack. Only the lower
    triangle of each matrix is read, so it must already be symmetric.
    Eigenvalues in [-tol, 0) are clamped to zero, where tol is 1e-10
    relative to that matrix's largest eigenvalue; anything lower raises
    NotPSDError.
    """
    lam, U = np.linalg.eigh(M)
    tol = EIG_CLAMP_REL * np.maximum(1.0, lam[..., -1])
    if np.any(lam[..., 0] < -tol):
        worst = np.argmax(-tol - lam[..., 0])
        raise NotPSDError(f"eigenvalue {lam[..., 0].flat[worst]} below -{tol.flat[worst]}")
    lam = np.clip(lam, 0.0, None)
    return (U * np.sqrt(lam)[..., None, :]) @ np.swapaxes(U, -1, -2)


def _srm_rows(gram, w):
    """Channel rows (What^{1/2})_ij^2 / w_i of the SRM weighted by w >= 0.

    ``gram`` is (..., K, K) and ``w`` is (..., K); each member of a stack
    is independent of the others. Row i sums to What_ii / w_i = 1 up to
    round-off. Zero-weight rows are uniform by convention (they carry no
    weight in any mutual information).
    """
    d = np.sqrt(w)
    weighted = d[..., :, None] * gram
    weighted *= d[..., None, :]
    # sqrtm_psd returns a fresh array, so the rows are formed in it
    rows = sqrtm_psd(weighted)
    rows *= rows
    live = w > 0
    rows /= np.where(live, w, 1.0)[..., None]
    rows[~live] = 1.0 / w.shape[-1]
    return rows


def _stochastic_rows(rows, tol=1e-8):
    """Remove eigendecomposition round-off; reject genuine stochasticity defects.

    Row i of the weighted SRM carries an absolute error of about eps times
    the largest eigenvalue of D G D, divided by w_i; heavily skewed weights
    (p_i^2 t_i in the MPE iteration) therefore show up as ~1e-10 row-sum
    round-off. Real completeness bugs are orders of magnitude larger than
    this tolerance. Works on one (K, K) matrix or a stack of them.
    """
    rows = np.clip(rows, 0.0, None)
    sums = rows.sum(axis=-1, keepdims=True)
    worst = float(np.max(np.abs(sums - 1.0)))
    if worst > tol:
        raise ArithmeticError(f"measurement rows sum to 1 +- {worst}, beyond {tol}")
    return rows / sums


def srm_channel(ensemble):
    """Transition matrix of the square-root measurement, the weighted SRM at w = p.

    With Ghat_ij = sqrt(p_i p_j) G_ij, P(j|i) = (Ghat^{1/2})_ij^2 / p_i;
    zero-prior rows are uniform.
    """
    return DiscreteChannel(_stochastic_rows(_srm_rows(ensemble.gram, ensemble.priors)))


def helstrom_binary(overlap_sq, p1, p2):
    """Minimum error probability for two pure states: (1 - sqrt(1 - 4 p1 p2 s^2))/2."""
    if not 0.0 <= overlap_sq <= 1.0:
        raise ValueError(f"overlap^2 must be in [0,1], got {overlap_sq}")
    if not (p1 >= 0 and p2 >= 0 and abs(p1 + p2 - 1.0) <= 1e-12):     # NaN fails too
        raise ValueError(f"priors must be nonnegative and sum to 1, got {p1}, {p2}")
    return 0.5 * (1.0 - np.sqrt(1.0 - 4.0 * p1 * p2 * overlap_sq))


class MpeStack(NamedTuple):
    """Final iterates of a stack of B minimum-error solves.

    ``rows`` (B, K, K) are stochastic rows, checked against the
    DiscreteChannel bounds, and ``weights`` (B, K) the normalised SRM
    weights they came from; the trace of member i is the entries of
    ``trace_value`` whose ``trace_member`` is i, in order.
    """

    success: np.ndarray
    rows: np.ndarray
    weights: np.ndarray
    iterations: np.ndarray
    trace_member: np.ndarray
    trace_value: np.ndarray

    def result(self, i):
        """Member i as an MpeResult."""
        return MpeResult(success_probability=float(self.success[i]),
                         channel=DiscreteChannel(self.rows[i]),
                         iterations=int(self.iterations[i]),
                         success_trace=tuple(self.trace_value[self.trace_member == i].tolist()))


def _mpe_stack(gram, p, tol=1e-12, max_iter=10000, w0=None):
    """Minimum-error solves of B ensembles at once: ``gram`` (B, K, K), ``p`` (B, K).

    Runs the iteration of ``mpe_solve`` on every member in lockstep, one
    weighted-SRM call per step for the members still iterating, from the
    weights ``w0`` (B, K) if given, else from the SRM (w = p). A member
    stops once its residual meets ``tol`` as ``mpe_solve`` states; it then
    leaves the stack, so the others' later steps do not touch it, and its
    result, with the weights it stopped at, is what it would be if solved
    alone. Raises ConvergenceError, with the MpeStack of every member's best
    iterate as ``best``, if any member has not stopped after ``max_iter``
    steps.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    w = p if w0 is None else w0
    w = w / w.sum(axis=-1, keepdims=True)
    best, best_w = np.full(len(p), -np.inf), w.copy()
    success_out, rows_out, w_out = np.empty(len(p)), np.empty(gram.shape), np.empty_like(w)
    iterations = np.zeros(len(p), dtype=int)
    members, values = [], []
    live = np.arange(len(p))                   # the members still iterating
    G, P, P2, it = gram, p, p * p, 0
    rows = _srm_rows(G, w)
    while True:
        t = np.diagonal(rows, axis1=-2, axis2=-1)
        f = P2 * t
        f /= f.sum(axis=-1, keepdims=True)
        r = f - w
        success = (P * t).sum(axis=-1)
        better = success >= best[live]
        improved, gained = live[better], success[better]
        best[improved], best_w[improved] = gained, w[better]
        members.append(improved)
        values.append(gained)
        # each weight settles to tol, scaled down by its amplitude sqrt(w_i / max w) below
        # the largest weight, since a relative change of w_i is what moves the
        # measurement; beyond that, by the round-off in F that the row sums show
        noise = np.divide(np.abs(rows.sum(axis=-1) - 1.0), t, out=np.zeros_like(t), where=t > 0)
        noise += (f * noise).sum(axis=-1, keepdims=True)
        allow = tol * np.sqrt(w / w.max(axis=-1, keepdims=True)) + ROUNDOFF_MARGIN * f * noise
        done = (np.abs(r) <= allow).all(axis=-1)
        if done.any():
            # the iterate at which the residual stop fires, not the best-success one
            stop = live[done]
            success_out[stop], rows_out[stop], w_out[stop] = success[done], rows[done], w[done]
            iterations[stop] = it
            keep = ~done
            live, G, P, P2, w, f, r = (live[keep], G[keep], P[keep], P2[keep], w[keep], f[keep],
                                       r[keep])
            if it:
                w_prev, r_prev = w_prev[keep], r_prev[keep]
        if not live.size or it == max_iter:
            break
        step = f
        if it:
            # one Anderson (secant) step from the last two (w, F(w) - w) pairs; a zero
            # secant leaves gamma = 0, the plain step
            dr = r - r_prev
            den = (dr * dr).sum(axis=-1)
            gamma = np.divide((dr * r).sum(axis=-1), den, out=np.zeros_like(den), where=den > 0)
            mixed = f - gamma[:, None] * (w - w_prev + dr)
            step = np.where((mixed >= 0).all(axis=-1, keepdims=True), mixed, f)
        w_prev, r_prev, w = w, r, step
        it += 1
        rows = _srm_rows(G, w)
    iterations[live] = it
    if live.size:
        success_out[live], w_out[live] = best[live], best_w[live]
        rows_out[live] = _srm_rows(gram[live], best_w[live])
    stack = MpeStack(success=success_out, rows=check_rows(_stochastic_rows(rows_out)),
                     weights=w_out, iterations=iterations,
                     trace_member=np.concatenate(members), trace_value=np.concatenate(values))
    if live.size:
        raise ConvergenceError(
            f"MPE iteration of {live.size} of {len(p)} ensembles did not reach tol "
            f"in {max_iter} steps", best=stack
        )
    return stack


def mpe_solve(ensemble, tol=1e-12, max_iter=10000):
    """Minimum-probability-of-error measurement as an iterated weighted SRM.

    Every minimum-error measurement of pure states is the SRM at some
    weights w. Its optimality conditions make w a fixed point of the
    normalised map

        F(w)_i = p_i^2 t_i(w) / sum_k p_k^2 t_k(w),

    with t_i(w) = P(i|i) the success probability of state i under the SRM
    weighted by w; in the span of the codewords F is the update
    mu_i <- S^{-1/2} p_i sqrt(t_i) psi_i with S = sum_i p_i^2 t_i psi_i psi_i^T.

    Seeded with the SRM (w = p), each step mixes F at the last two iterates
    by one Anderson (secant) step (Walker & Ni, SIAM J. Numer. Anal. 49,
    2011): one SRM call, as for the plain step w <- F(w), but faster than
    its linear convergence. The plain step is taken whenever the mixed
    weights leave the nonnegative orthant.

    Iteration stops at, and returns, the first iterate with
    |F(w)_i - w_i| <= tol sqrt(w_i / max_k w_k) for every i: ``tol`` on the
    largest weights, less on the small ones, since a relative change of w_i
    is what moves the measurement. (Success is flat at the optimum, so a
    stop on its gain leaves the measurement converged to about sqrt(tol).)
    Where the states nearly coincide, F carries more round-off than that;
    each SRM row's deviation from unit sum measures it, and the bound is
    widened by ROUNDOFF_MARGIN times that estimate. The success trace lists
    each iterate's success that is at least every earlier one. Equal priors
    on a geometrically uniform ensemble stop at once: the SRM is the fixed
    point. This is the stacked kernel at B = 1.
    """
    try:
        return _mpe_stack(ensemble.gram[None], ensemble.priors[None], tol, max_iter).result(0)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"MPE iteration did not reach tol={tol} in {max_iter} steps", best=exc.best.result(0)
        ) from None
