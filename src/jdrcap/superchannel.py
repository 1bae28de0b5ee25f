"""Mutual information and capacity machinery for the receiver superchannels.

The inner code plus its joint-detection receiver induce a discrete
memoryless channel; everything downstream (curves, envelopes, the
two-symbol capacity ratios) is classical Shannon theory on that channel.
"""

from typing import NamedTuple

import numpy as np

from . import discrimination, optics_sim
from .capacity_limits import CLOSED_FORMS, CapacityPoint, c1_bpsk_dolinar
from .codes import two_symbol_code
from .dmc import ConvergenceError, DiscreteChannel
from .entropy import entropy_bits, xlog2

__all__ = [
    "DiscreteChannel",
    "ConvergenceError",
    "mutual_information",
    "capacity_blahut_arimoto",
    "prior_scan_max",
    "two_symbol_ratio_curve",
    "capacity_curves",
    "RatioPoint",
]


def mutual_information(channel, priors):
    """I(X;Y) in bits for the given input distribution."""
    r = np.asarray(priors, dtype=float)
    if r.shape != (channel.num_inputs,):
        raise ValueError(f"priors length {r.shape} != {channel.num_inputs} inputs")
    if np.any(r < 0) or abs(r.sum() - 1.0) > 1e-9:
        raise ValueError("priors must be nonnegative and sum to 1")
    P = channel.p
    out_dist = r @ P
    h_out = entropy_bits(out_dist)
    h_cond = float(np.sum(r * -np.sum(xlog2(P), axis=1)))
    return max(h_out - h_cond, 0.0)


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
    """Maximize a scalar function by grid scan plus golden-section refinement.

    Deterministic; flat stretches resolve to the smallest argument. Returns
    (x_star, value).
    """
    if resolution < 3:
        raise ValueError(f"need resolution >= 3, got {resolution}")
    xs = np.linspace(lo, hi, resolution)
    vals = np.array([fn(x) for x in xs])
    i = int(np.argmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, resolution - 1)]
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(60):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    candidates = [(vals[i], xs[i]), (fc, c), (fd, d)]
    best_val = max(v for v, _ in candidates)
    best_x = min(x for v, x in candidates if v == best_val)
    return float(best_x), float(best_val)


class RatioPoint(NamedTuple):
    nbar: float
    i2: float
    c1: float
    ratio: float


def _two_symbol_i2(nbar, receiver, resolution=33):
    """Best per-symbol mutual information of the (2,3,1) superchannel.

    Priors are restricted to the one-parameter family (1-2p, p, p); for the
    MPE receiver the measurement is re-optimized for each prior before the
    mutual information is evaluated.
    """
    if receiver == "structured":
        channel = optics_sim.two_symbol_receiver_channel(nbar)

        def value(p):
            return mutual_information(channel, [1.0 - 2.0 * p, p, p]) / 2.0

    elif receiver == "mpe":
        ensemble_gram = discrimination.gram_from_code(two_symbol_code(), nbar).gram

        def value(p):
            priors = np.array([1.0 - 2.0 * p, p, p])
            ens = discrimination.PureStateEnsemble(gram=ensemble_gram, priors=priors)
            result = discrimination.mpe_solve(ens)
            return mutual_information(result.channel, priors) / 2.0

    else:
        raise ValueError(f"unknown receiver {receiver!r}; use 'structured' or 'mpe'")
    _, best = prior_scan_max(value, 0.0, 0.5, resolution)
    return best


def two_symbol_ratio_curve(nbar_grid, receiver="structured"):
    """I2/C1 superadditivity ratio of the two-symbol receivers along a grid."""
    nbar_grid = np.asarray(nbar_grid, dtype=float)
    if nbar_grid.size == 0 or np.any(nbar_grid <= 0):
        raise ValueError("need a nonempty grid of positive nbar values")
    points = []
    for nbar in nbar_grid:
        i2 = _two_symbol_i2(nbar, receiver)
        c1 = c1_bpsk_dolinar(nbar)
        points.append(RatioPoint(nbar=float(nbar), i2=i2, c1=c1, ratio=i2 / c1))
    return points


def capacity_curves(family, m, nbar_grid, receiver="structured"):
    """Per-symbol capacity and PIE of one receiver family along an nbar grid."""
    nbar_grid = np.asarray(nbar_grid, dtype=float)
    if np.any(nbar_grid <= 0):
        raise ValueError("PIE curves need positive nbar")
    if family == "two_symbol":
        points = []
        for nbar in nbar_grid:
            i2 = _two_symbol_i2(nbar, receiver)
            points.append(CapacityPoint(nbar=float(nbar), bits_per_symbol=i2,
                                        pie=i2 / nbar, label=f"two_symbol_{receiver}"))
        return points
    try:
        cap = CLOSED_FORMS[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(CLOSED_FORMS) + ['two_symbol']}"
        )
    if m is None:
        raise ValueError(f"family {family!r} needs a code-size parameter m")
    bits = cap(m, nbar_grid)
    return [CapacityPoint(nbar=float(nbar), bits_per_symbol=float(b), pie=float(pie),
                          label=f"{family}_m{m}")
            for nbar, b, pie in zip(nbar_grid, bits, bits / nbar_grid)]
