"""Discrete memoryless channel container shared by the receiver models."""

from dataclasses import dataclass, field

import numpy as np

ROW_SUM_TOL = 1e-12
NEG_ENTRY_TOL = -1e-15
PRIOR_SUM_TOL = 1e-12


class ConvergenceError(ArithmeticError):
    """An iterative solve ran out of iterations before reaching tolerance.

    Carries the best iterate found so callers can inspect it.
    """

    def __init__(self, message, best=None, lower=None, upper=None):
        super().__init__(message)
        self.best = best
        self.lower = lower
        self.upper = upper


def check_priors(priors, n):
    """``priors`` as a float array; ValueError unless it holds n entries, each
    >= 0, that sum to 1 within PRIOR_SUM_TOL (so NaN fails)."""
    p = np.asarray(priors, dtype=float)
    if p.shape != (n,):
        raise ValueError(f"priors length {p.shape} != {n} inputs")
    if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= PRIOR_SUM_TOL):
        raise ValueError(f"priors must be nonnegative and sum to 1, got {p}")
    return p


@dataclass(frozen=True, eq=False)
class DiscreteChannel:
    """Row-stochastic transition matrix ``p[i, j]`` = P(output j | input i).

    The matrix must be 2-D, every entry >= NEG_ENTRY_TOL and every row must
    sum to 1 within ROW_SUM_TOL, else ValueError; entries are then clipped
    to >= 0. This is the package's one row rule, checked here, where a
    channel is made. An erasure is an ordinary output column, never merged
    or randomly resolved here.
    """

    p: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2:
            raise ValueError(f"transition matrix must be 2-D, got shape {p.shape}")
        # written so that a NaN entry fails both checks
        if not np.all(p >= NEG_ENTRY_TOL):
            raise ValueError("negative or NaN transition probability")
        off = np.abs(p.sum(axis=1) - 1.0)
        if not np.all(off <= ROW_SUM_TOL):
            raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}, "
                             f"worst off by {float(np.max(off))}")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @property
    def num_inputs(self):
        return len(self.p)
