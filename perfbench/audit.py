"""Properties of every minimum-error solve a pass makes, observed from outside.

The worker wraps ``discrimination.mpe_solve`` during its untimed warm-up
pass (``tracer.observing``) and feeds each call to an ``MpeAudit``. Only
numpy is used here, so that the checker's own imports stay out of the timed
passes; ``checks.check_mpe_audit`` turns the tallies into one check.
"""

import numpy as np

PROB_TOL = 1e-12
CHANNEL_TOL = 1e-9        # the channel's rows are renormalized after the solve


def srm_success(gram, priors):
    """Success probability of the square-root measurement, sum_i ((R^{1/2})_ii)^2
    with R = diag(sqrt p) G diag(sqrt p)."""
    sp = np.sqrt(priors)
    lam, U = np.linalg.eigh(sp[:, None] * gram * sp[None, :])
    root = (U * np.sqrt(np.clip(lam, 0.0, None))) @ U.T
    return float(np.sum(np.diag(root) ** 2))


class MpeAudit:
    """Tallies MPE results that fall below the SRM, exceed 1, disagree with
    their own channel, or have a decreasing success trace."""

    def __init__(self):
        self.solves = 0
        self.bad = 0
        self.violations = []        # (solve index, what) of the first few

    def __call__(self, args, result):
        ensemble = args[0]
        priors = np.asarray(ensemble.priors, dtype=float)
        success = result.success_probability
        trace = result.success_trace
        srm = srm_success(np.asarray(ensemble.gram, dtype=float), priors)
        channel_success = float(np.sum(priors * np.diag(result.channel.p)))
        problems = [what for what, bad in (
            ("below SRM", success < srm - PROB_TOL),
            ("above 1", success > 1 + PROB_TOL),
            ("channel disagrees", abs(channel_success - success) > CHANNEL_TOL),
            ("trace decreases", any(b < a for a, b in zip(trace, trace[1:]))),
        ) if bad]
        if problems and len(self.violations) < 5:
            self.violations.append((self.solves, ", ".join(problems)))
        self.solves += 1
        self.bad += bool(problems)
