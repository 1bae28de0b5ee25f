"""Shared stable entropy primitives.

One second-order kernel carries every information quantity: with phi(v) =
(1 + v) ln(1 + v) - v >= 0, D(P||q) = sum_y q_y phi(P_y/q_y - 1) has no
first-order term to cancel. Mutual information and Blahut-Arimoto take D;
g, the BPSK Holevo bound and the RM(1,m) closed forms sum phi, and C1 and
the Green Machine capacity share ``symmetric_split``, the 1 - H_b of a
binary split (1 +- y)/2.
"""

import numpy as np

LN2 = float(np.log(2.0))


def _float_or_array(x):
    """A 0-d result as a Python float, any other as the array itself."""
    return float(x) if np.ndim(x) == 0 else x


def _phi_series(v):
    """phi on (-1/2, 2): with s = v/(2 + v), ln(1 + v) = 2 atanh(s) gives
    phi = s^2 (2 + v) [1 + s (1 + s) U], U = (atanh(s) - s)/s^3 = sum_k s^{2k}/(2k + 3),
    summed to 26 terms (s^2 < 1/4)."""
    s = v / (2.0 + v)
    z, u = s * s, 0.0
    for k in range(25, -1, -1):
        u = u * z + 1.0 / (2 * k + 3)
    return z * (2.0 + v) * (1.0 + s * (1.0 + s) * u)


def _phi_direct(v):
    """phi as (1 + v) ln(1 + v) - v, which cancels between -1/2 and 2; phi(-1) = 1."""
    return (1.0 + v) * np.log1p(v, out=np.zeros_like(v), where=v > -1.0) - v


def phi(v):
    """phi(v) = (1 + v) ln(1 + v) - v for v >= -1, phi(-1) = 1, to a few ulps.

    The direct form cancels between v = -1/2 and 2, where _phi_series takes
    over. A form is evaluated only when some element lies in its range: a
    scalar, or an array within one range, costs one form, and a mixed array
    evaluates both and keeps each element's, which splitting the array would
    not make faster.
    """
    v = np.asarray(v, dtype=float)
    near = (v > -0.5) & (v < 2.0)
    if near.all():
        return _float_or_array(_phi_series(v))
    if not near.any():
        return _float_or_array(_phi_direct(v))
    return _float_or_array(np.where(near, _phi_series(v), _phi_direct(v)))


def symmetric_split(y):
    """1 - H_b((1 - y)/2) = [phi(y) + phi(-y)] / (2 ln 2) bits for y in [-1, 1].

    Second order in y, so no term cancels as y -> 0; y = +-1 gives 1.
    """
    return _float_or_array(phi(np.stack([y, -y])).sum(axis=0) / (2.0 * LN2))


def relative_entropy(P, q):
    """D(P_x||q) in bits of each row P_x along the last axis of P, against q.

    sum_y q_y phi(v_y), v = (P - q)/q, as sum_y P_y ln(1 + v_y) - sum_y (P_y - q_y):
    both sums run over terms of size |P - q|, so neither cancels at first
    order, even where P or q sums to 1 only to round-off. A term's error is
    then about eps |P - q|, what the rounding of P and q already puts in it,
    so phi's series would buy nothing for a pass over every entry. Where v
    rounds to -1, P < eps q and ln(1 + v) is left at -1: the term, q - 2P,
    is within 20 eps q. q must be > 0 wherever P > 0; columns where q = 0
    count nothing. P and q broadcast.
    """
    v = P - q
    first = v.sum(axis=-1)
    v /= np.where(q > 0, q, 1.0)
    np.log1p(v, out=v, where=v > -1.0)
    return (np.vecdot(P, v) - first) / LN2
