"""Mutual information and capacity machinery for the receiver superchannels.

The inner code plus its joint-detection receiver induce a discrete
memoryless channel; everything downstream (curves, envelopes, the
two-symbol capacity ratios) is classical Shannon theory on that channel.
The structured two-symbol receiver's I2 is a closed form; the MPE
receiver's ratio curve is one lockstep computation: the prior scan
maximizes every nbar of the grid at once, and each of its steps evaluates
the measurement's one-angle form and the mutual information for the whole
grid in one stacked array call. That mutual information is built from the
rows' deviations, so both receivers hold over every positive nbar.
"""

import numpy as np

from . import discrimination
from .capacity_limits import (_held, _photons, c1_bpsk_dolinar, closed_form,
                              two_symbol_structured_capacity)
from .dmc import ConvergenceError, check_priors
from .entropy import LN2, phi, relative_entropy

BA_TOL = 1e-12              # Blahut-Arimoto stop: width of the capacity bracket
BA_MAX_ITER = 100000


def mutual_information(channel, priors):
    """I(X;Y) in bits for the given input distribution."""
    return float(_mutual_information(channel.p, check_priors(priors, channel.num_inputs)))


def _mutual_information(P, r):
    """I(X;Y) = sum_x r_x D(P_x||q), q = r P, in bits of stacked channels P (..., I, O)
    at priors r (..., I), unchecked. Zero-prior rows are replaced by q: they count nothing."""
    q = r[..., None, :] @ P
    if not r.all():
        P = np.where(r[..., None] > 0, P, q)
    return np.maximum(np.vecdot(r, relative_entropy(P, q)), 0.0)


def capacity_blahut_arimoto(channel):
    """Channel capacity by Blahut-Arimoto alternating maximization.

    Stops when the standard capacity bracket max_i D_i - I(r) drops below
    BA_TOL; the returned priors then achieve mutual information within
    BA_TOL of capacity. Raises ConvergenceError (with the bracketing bounds
    attached) if BA_MAX_ITER iterations are exhausted first.
    """
    P = channel.p
    K = channel.num_inputs
    r = np.full(K, 1.0 / K)
    lower = upper = np.nan
    for _ in range(BA_MAX_ITER):
        D = relative_entropy(P, r @ P)
        lower = float(np.dot(r, D))
        upper = float(np.max(D))
        if upper - lower < BA_TOL:
            return lower, r
        r = r * np.exp2(D - upper)
        r /= r.sum()
    raise ConvergenceError(
        f"Blahut-Arimoto did not close the capacity bracket to {BA_TOL} "
        f"in {BA_MAX_ITER} iterations",
        lower=lower,
        upper=upper,
    )


def prior_scan_max(fn):
    """Maximize N functions of the prior p in [0, 1/2] at once: a 33-point
    grid scan plus golden-section refinement.

    ``fn`` maps an array p of shape (N, M), or (1, M) for the grid that all
    rows share, to the (N, M) values of row n's function at p[n]; every row
    takes the same steps. The golden-section steps go on until the bracket
    is narrower than sqrt(eps) / 2: below that width the value of a smooth
    maximum moves by less than an ulp. Deterministic; flat stretches
    resolve to the smallest argument. Returns arrays (p_star, value) of
    shape (N,).
    """
    xs = np.linspace(0.0, 0.5, 33)
    vals = fn(xs[None, :])
    rows = np.arange(len(vals))
    i = np.argmax(vals, axis=1)
    a = xs[np.maximum(i - 1, 0)]
    b = xs[np.minimum(i + 1, len(xs) - 1)]
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(np.stack([c, d], axis=1)).T
    # the bracket starts two grid spacings (1/32) wide and shrinks by inv_phi a step:
    # after 32 steps it is 6.4e-9 wide, below sqrt(eps) / 2 = 7.5e-9
    for _ in range(32):
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


def _curve_grid(nbar_grid):
    """A curve's nbar grid as a float array; ValueError unless every entry is
    > 0 and the grid is 1-D and nonempty."""
    nbar_grid = _photons(nbar_grid, strict=True)
    if nbar_grid.ndim != 1 or nbar_grid.size == 0:
        raise ValueError(f"need a nonempty 1-D grid of positive nbar values, got {nbar_grid}")
    return nbar_grid


def two_symbol_ratio_curve(nbar_grid, receiver="structured"):
    """I2 and C1 of the two-symbol superadditivity ratio I2/C1 along a grid.

    I2 is the best per-symbol mutual information of the (2,3,1)
    superchannel over the prior family (1-2p, p, p). The structured
    receiver's is the closed form two_symbol_structured_capacity. For the
    MPE receiver the measurement is re-optimized for each prior, in its
    one-angle form, before the mutual information is evaluated from its rows'
    deviations (_two_symbol_mpe_information); one prior scan covers the whole
    grid, each of its steps one array computation over every nbar. Either
    receiver takes any 1-D, nonempty grid of positive nbar. Returns the
    arrays (i2, c1), aligned with the grid; the ratio is i2 / c1.
    """
    nbar_grid = _curve_grid(nbar_grid)
    if receiver == "structured":
        return two_symbol_structured_capacity(nbar_grid), c1_bpsk_dolinar(nbar_grid)
    if receiver != "mpe":
        raise ValueError(f"unknown receiver {receiver!r}; use 'structured' or 'mpe'")
    held = _held(nbar_grid)[:, None]
    _, i2 = prior_scan_max(lambda p: _two_symbol_mpe_information(held, p) / 2.0)
    return i2, c1_bpsk_dolinar(nbar_grid)


def _two_symbol_mpe_information(nbar, p):
    """I(X;Y) in bits of the (2,3,1) code's MPE measurement at priors (1-2p, p, p).

    The swap of the last two states maps the measurement and q = r P to
    themselves, so I = (1-2p) D(P_1||q) + 2p D(P_2||q), with D(P||q) =
    sum_y q_y phi(v_y), v = (P - q)/q: five phi terms, as columns 2 and 3 of
    D(P_1||q) are equal. q is r P, a sum of terms >= 0, from the rows of
    discrimination._two_symbol_mpe_rows; P - q comes from its deviations dP,
    which sum to 0, so that dP_2 + dP_3 = (2 shared, -shared, -shared) and
    nothing cancels as nbar -> 0. Where P < q/2, q phi(v) is taken as
    P ln(P/q) - (P - q) from P itself: a v that rounds near -1 would put
    eps |ln(P/q)| q into it as nbar grows. A column where q = 0 counts
    nothing. Broadcasts over nbar and p, unchecked.
    """
    rows, dev = discrimination._two_symbol_mpe_rows(nbar, p)
    p = np.asarray(p, dtype=float)[..., None]
    q = (1.0 - 2.0 * p) * rows[..., 0, :] + p * (rows[..., 1, :] + rows[..., 2, :])
    q = q[..., [0, 1, 0, 1, 1]]
    gap = (p * [-2.0, 1.0, -2.0, 1.0, 1.0] + [0.0, 0.0, 1.0, 0.0, 0.0]) * dev[..., :1]
    gap[..., 3:] += dev[..., 1:]
    v = np.divide(gap, q, out=np.zeros_like(q), where=q > 0)
    P = rows[..., [0, 0, 1, 1, 1], [0, 1, 0, 1, 2]]
    far = v < -0.5
    log = np.log(np.divide(P, q, out=np.ones_like(q), where=far & (P > 0)))
    weight = p * [-2.0, -4.0, 2.0, 2.0, 2.0] + [1.0, 2.0, 0.0, 0.0, 0.0]
    return np.vecdot(weight, np.where(far, P * log - gap, q * phi(v))) / LN2


def capacity_curves(family, m, nbar_grid):
    """Bits per symbol of one CLOSED_FORMS family along an nbar grid, as an array.

    The grid must be 1-D and nonempty."""
    nbar_grid = _curve_grid(nbar_grid)
    cap = closed_form(family)
    if m is None:
        raise ValueError(f"family {family!r} needs a code-size parameter m")
    return cap(m, nbar_grid)
