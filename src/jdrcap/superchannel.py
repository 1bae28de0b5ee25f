"""Mutual information and capacity machinery for the receiver superchannels.

The inner code plus its joint-detection receiver induce a discrete
memoryless channel; everything downstream (curves, envelopes, the
two-symbol capacity ratios) is classical Shannon theory on that channel.
A two-symbol ratio curve is one lockstep computation: the prior scan
maximizes every nbar of the grid at once, and each of its steps evaluates
the mutual information (and, for the MPE receiver, solves the measurement)
for the whole grid in one stacked array call.
"""

import math

import numpy as np

from . import discrimination, optics_sim
from .capacity_limits import CLOSED_FORMS, c1_bpsk_dolinar
from .codes import two_symbol_code
from .dmc import ConvergenceError, check_rows
from .entropy import xlog2

def mutual_information(channel, priors):
    """I(X;Y) in bits for the given input distribution."""
    r = np.asarray(priors, dtype=float)
    if r.shape != (channel.num_inputs,):
        raise ValueError(f"priors length {r.shape} != {channel.num_inputs} inputs")
    if not (np.all(r >= 0) and abs(r.sum() - 1.0) <= 1e-9):     # NaN fails too
        raise ValueError("priors must be nonnegative and sum to 1")
    return float(_mutual_information(channel.p, r))


def _mutual_information(P, r):
    """I(X;Y) in bits of stacked channels P (..., I, O) at priors r (..., I), unchecked."""
    h_out = -np.sum(xlog2((r[..., None, :] @ P)[..., 0, :]), axis=-1)
    h_cond = np.sum(r * -np.sum(xlog2(P), axis=-1), axis=-1)
    return np.maximum(h_out - h_cond, 0.0)


def _relative_entropies(P, out_dist):
    """D(P(.|i) || q) in bits per input, with 0 log 0/0 = 0."""
    ratio = np.ones_like(P)
    nz = P > 0
    ratio[nz] = P[nz] / np.broadcast_to(out_dist, P.shape)[nz]
    return np.sum(P * np.log2(ratio, where=nz, out=np.zeros_like(P)), axis=1)


def capacity_blahut_arimoto(channel, tol=1e-12, max_iter=100000):
    """Channel capacity by Blahut-Arimoto alternating maximization.

    Stops when the standard capacity bracket max_i D_i - I(r) drops below
    ``tol``; the returned priors then achieve mutual information within
    ``tol`` of capacity. Raises ConvergenceError (with the bracketing
    bounds attached) if max_iter is exhausted first.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    P = channel.p
    K = channel.num_inputs
    r = np.full(K, 1.0 / K)
    lower = upper = np.nan
    for _ in range(max_iter):
        out_dist = r @ P
        D = _relative_entropies(P, out_dist)
        lower = float(np.dot(r, D))
        upper = float(np.max(D))
        if upper - lower < tol:
            return lower, r
        r = r * np.exp2(D - upper)
        r /= r.sum()
    raise ConvergenceError(
        f"Blahut-Arimoto did not close the capacity bracket to {tol} "
        f"in {max_iter} iterations",
        lower=lower,
        upper=upper,
    )


def prior_scan_max(fn, lo=0.0, hi=0.5, resolution=33):
    """Maximize N functions at once by grid scan plus golden-section refinement.

    ``fn`` maps an array x of shape (N, M), or (1, M) for the grid that all
    rows share, to the (N, M) values of row n's function at x[n]; every row
    takes the same steps. The golden-section steps go on until the bracket
    is narrower than sqrt(eps) (hi - lo): below that width the value of a
    smooth maximum moves by less than an ulp. Deterministic; flat stretches
    resolve to the smallest argument. Returns arrays (x_star, value) of
    shape (N,).
    """
    if resolution < 3:
        raise ValueError(f"need resolution >= 3, got {resolution}")
    xs = np.linspace(lo, hi, resolution)
    vals = fn(xs[None, :])
    rows = np.arange(len(vals))
    i = np.argmax(vals, axis=1)
    a = xs[np.maximum(i - 1, 0)]
    b = xs[np.minimum(i + 1, resolution - 1)]
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(np.stack([c, d], axis=1)).T
    # the bracket starts two grid spacings wide and shrinks by inv_phi a step
    width = math.sqrt(np.finfo(float).eps) * (resolution - 1) / 2.0
    for _ in range(max(0, math.ceil(math.log(width) / math.log(inv_phi)))):
        left = fc >= fd             # keep [a, d]: d <- c and a new c; else [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - inv_phi * (b - a), a + inv_phi * (b - a))
        fx = fn(x[:, None])[:, 0]
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    cand_v = np.stack([vals[rows, i], fc, fd], axis=1)
    cand_x = np.stack([xs[i], c, d], axis=1)
    best_val = cand_v.max(axis=1)
    best_x = np.where(cand_v == best_val[:, None], cand_x, np.inf).min(axis=1)
    return best_x, best_val


def _prior_family(p):
    """The two-symbol priors (1-2p, p, p) along a new last axis."""
    return np.stack([1.0 - 2.0 * p, p, p], axis=-1)


def two_symbol_ratio_curve(nbar_grid, receiver="structured"):
    """I2 and C1 of the two-symbol superadditivity ratio I2/C1 along a grid.

    I2 is the best per-symbol mutual information of the (2,3,1)
    superchannel over the prior family (1-2p, p, p); for the MPE receiver
    the measurement is re-optimized for each prior before the mutual
    information is evaluated, each solve starting from the weights at the
    best prior of the scan's previous evaluation (the grid's argmax, then
    the last golden-section point). One prior scan covers the whole grid:
    each of its steps is one array computation over every nbar. Returns the
    arrays (i2, c1), aligned with the grid; the ratio is i2 / c1.
    """
    nbar_grid = np.asarray(nbar_grid, dtype=float)
    if nbar_grid.size == 0 or np.any(nbar_grid <= 0):
        raise ValueError("need a nonempty grid of positive nbar values")
    n = len(nbar_grid)
    if receiver == "structured":
        channels = check_rows(optics_sim._two_symbol_rows(nbar_grid))[:, None]

        def value(p):
            return _mutual_information(channels, _prior_family(p)) / 2.0

    elif receiver == "mpe":
        grams = discrimination._code_grams(two_symbol_code(), nbar_grid)[:, None]
        w0 = None               # per nbar, the weights at the last evaluation's best prior

        def value(p):
            nonlocal w0
            priors = _prior_family(np.broadcast_to(p, (n, p.shape[1])))
            stack = discrimination._mpe_stack(
                np.broadcast_to(grams, priors.shape + (3,)).reshape(-1, 3, 3),
                priors.reshape(-1, 3),
                w0=None if w0 is None else np.broadcast_to(w0, priors.shape).reshape(-1, 3))
            v = _mutual_information(stack.rows.reshape(priors.shape + (3,)), priors) / 2.0
            w0 = stack.weights.reshape(priors.shape)[np.arange(n), np.argmax(v, axis=1), None]
            return v

    else:
        raise ValueError(f"unknown receiver {receiver!r}; use 'structured' or 'mpe'")
    _, i2 = prior_scan_max(value, 0.0, 0.5, 33)
    return i2, c1_bpsk_dolinar(nbar_grid)


def capacity_curves(family, m, nbar_grid):
    """Bits per symbol of one receiver family along an nbar grid, as an array;
    two_symbol is the structured receiver's."""
    nbar_grid = np.asarray(nbar_grid, dtype=float)
    if np.any(nbar_grid <= 0):
        raise ValueError("PIE curves need positive nbar")
    if family == "two_symbol":
        return two_symbol_ratio_curve(nbar_grid)[0]
    try:
        cap = CLOSED_FORMS[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(CLOSED_FORMS) + ['two_symbol']}"
        )
    if m is None:
        raise ValueError(f"family {family!r} needs a code-size parameter m")
    return cap(m, nbar_grid)
