"""Discrete memoryless channel container shared by the receiver models."""

from dataclasses import dataclass, field

import numpy as np

ROW_SUM_TOL = 1e-12
NEG_ENTRY_TOL = -1e-15


class ConvergenceError(ArithmeticError):
    """An iterative solve ran out of iterations before reaching tolerance.

    Carries the best iterate found so callers can inspect it.
    """

    def __init__(self, message, best=None, lower=None, upper=None):
        super().__init__(message)
        self.best = best
        self.lower = lower
        self.upper = upper


def check_rows(p):
    """Transition rows along the last axis of ``p``, clipped to >= 0.

    ``p`` may be one (I, O) matrix or a stack (..., I, O); every entry must
    be >= NEG_ENTRY_TOL and every row must sum to 1 within ROW_SUM_TOL,
    else ValueError.
    """
    # written so that a NaN entry fails both checks
    if not np.all(p >= NEG_ENTRY_TOL):
        raise ValueError("negative or NaN transition probability")
    rows = p.sum(axis=-1)
    if not np.all(np.abs(rows - 1.0) <= ROW_SUM_TOL):
        worst = float(np.max(np.abs(rows - 1.0)))
        raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}, worst off by {worst}")
    return np.clip(p, 0.0, None)


@dataclass(frozen=True, eq=False)
class DiscreteChannel:
    """Row-stochastic transition matrix ``p[i, j]`` = P(output j | input i).

    An erasure is an ordinary output column, never merged or randomly
    resolved here.
    """

    p: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2:
            raise ValueError(f"transition matrix must be 2-D, got shape {p.shape}")
        p = check_rows(p)
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @property
    def num_inputs(self):
        return len(self.p)
