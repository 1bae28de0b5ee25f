"""Shared stable entropy primitives.

Every entropy-like quantity in the package funnels through ``xlog2`` so the
0*log(0) = 0 convention is enforced in exactly one place.
"""

import numpy as np

LN2 = float(np.log(2.0))


def xlog2(x):
    """x*log2(x) with the limit convention xlog2(0) = 0.

    Accepts scalars or arrays; never returns NaN for inputs in [0, 1].
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("xlog2 requires nonnegative input")
    out = np.zeros_like(x)
    nz = x > 0
    np.log2(x, where=nz, out=out)
    out *= x
    if out.ndim == 0:
        return float(out)
    return out


def entropy_bits(p):
    """Shannon entropy H(p) in bits of a probability vector (unnormalized ok)."""
    return float(-np.sum(xlog2(p)))


def binary_entropy(q):
    """H_b(q) in bits, stable near q = 0 and q = 1.

    The (1-q)log2(1-q) term uses log1p so that tiny q does not lose the
    linear-in-q contribution to cancellation. Accepts scalars or arrays.
    """
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise ValueError(f"binary entropy needs q in [0,1], got {q}")
    inner = (q > 0.0) & (q < 1.0)
    q = np.where(inner, q, 0.5)
    h = np.where(inner, -q * np.log2(q) - (1.0 - q) * np.log1p(-q) / LN2, 0.0)
    if h.ndim == 0:
        return float(h)
    return h
