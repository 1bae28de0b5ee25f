"""Coherent-state amplitude-domain receiver models.

Simulates the linear-optics front ends (beam splitters, the Green Machine
butterfly) acting on mode amplitudes, ideal single-photon detectors, and the
Dolinar receiver's outcome statistics, and assembles the transition matrices
of the joint-detection receivers.

Amplitudes are in sqrt(photon) units: |a|^2 is the mean photon number of a
mode. SPDs are ideal (unit efficiency, no dark counts). The beam-splitter
phase convention is the real (a +- b)/sqrt(2) form; all codeword amplitudes
here are real so no generality is lost.
"""

import numpy as np

from .capacity_limits import _held, dolinar_error_q, rm_gm_outcome_probs
from .codes import fwht, hadamard_code, rm1_code, two_symbol_code
from .dmc import DiscreteChannel

_SQRT2 = np.sqrt(2.0)


def beam_splitter(a, b):
    """50-50 beam splitter: (a, b) -> ((a+b)/sqrt2, (a-b)/sqrt2)."""
    return (a + b) / _SQRT2, (a - b) / _SQRT2


def green_machine(amps):
    """Pass a power-of-two mode vector through the Green Machine.

    log2(n) butterfly stages of 50-50 beam splitters; equals the
    Walsh-Hadamard transform of the amplitude vector divided by sqrt(n),
    hence an involution and energy conserving. A BPSK Hadamard codeword
    (pilot included) maps to a single pulsed mode: the PPM unraveling.
    """
    out = fwht(amps)
    out /= np.sqrt(out.shape[-1])
    return out


def spd_click_prob(a):
    """Ideal SPD click probability 1 - e^{-|a|^2} on a coherent pulse."""
    return -np.expm1(-abs(a) ** 2)


def two_symbol_receiver_channel(nbar):
    """Transition matrix of the two-symbol joint receiver at one nbar: 3 inputs x 4 outputs.

    The two symbol modes of each (2,3,1) codeword interfere on a 50-50 beam
    splitter; an SPD watches the sum port and a Dolinar receiver set up for
    +-sqrt(2 nbar) the difference port. The Dolinar receiver decides "+"
    with probability 1 - q on a plus pulse and q on a minus pulse, q the
    Dolinar error at energy 2 nbar; vacuum is invariant under the sign flip
    that swaps its equal-prior hypotheses, so it decides "+" with
    probability 1/2. Outputs are SPD click/no-click x DR +/-, so each row is
    a product of two distributions and sums to 1 by construction.
    """
    nbar = _held(nbar)
    amps = two_symbol_code().amplitudes(np.sqrt(nbar))
    sum_port, diff_port = beam_splitter(amps[:, 0], amps[:, 1])
    click = spd_click_prob(sum_port)
    q = dolinar_error_q(2.0 * nbar)
    plus = np.where(diff_port > 0, 1.0 - q, np.where(diff_port < 0, q, 0.5))
    return DiscreteChannel(np.column_stack([click * plus, click * (1 - plus),
                                            (1 - click) * plus, (1 - click) * (1 - plus)]))


def _first_click_rows(click_probs):
    """Outcome distributions when SPDs are read in order and the first click wins.

    Along the last axis, P(position i) = p_i prod_{j<i} (1 - p_j); the
    leftover product is the erasure (no clicks anywhere). Rows sum to 1
    exactly by telescoping.
    """
    click_probs = np.asarray(click_probs, dtype=float)
    ones = np.ones(click_probs.shape[:-1] + (1,))
    survive = np.concatenate([ones, np.cumprod(1.0 - click_probs, axis=-1)], axis=-1)
    return click_probs * survive[..., :-1], survive[..., -1]


def hadamard_jdr_channel(m, nbar):
    """Physically simulated Hadamard-code superchannel: 2^m inputs, 2^m + 1 outputs.

    Each codeword (pilot included, amplitude sqrt(nbar) per mode) passes
    through the Green Machine onto a 2^m-element SPD array. The pulse carries
    the whole codeword energy, so P(position k | codeword k) = 1 - e^{-2^m nbar}
    and the no-click outcome is the erasure.
    """
    nbar = _held(nbar)
    out = green_machine(hadamard_code(m, with_ancilla=True).amplitudes(np.sqrt(nbar)))
    pos_probs, erase = _first_click_rows(spd_click_prob(np.abs(out)))
    return DiscreteChannel(np.column_stack([pos_probs, erase]))


def rm_gm_jdr_channel(m, nbar):
    """RM(1,m) superchannel: 2^{m+1} inputs, 2^{m+1} + 1 outputs.

    The Green Machine stage is simulated at unit amplitude to locate each
    codeword's pulse position and phase sign, which do not depend on nbar;
    the post-click statistics (first SPD to click hands the pulse remainder
    to a Dolinar receiver) enter through the outcome probabilities p+, p-,
    p0 of the closed-form model.
    """
    p_plus, p_minus, p0 = rm_gm_outcome_probs(m, nbar)
    code = rm1_code(m)
    K = code.size
    n_modes = 2 ** m
    k = np.arange(K)
    out = green_machine(code.amplitudes(1.0))
    pos = np.argmax(np.abs(out), axis=1)
    negative = out[k, pos].real < 0
    rows = np.zeros((K, K + 1))
    rows[k, pos + n_modes * negative] = p_plus
    rows[k, pos + n_modes * ~negative] = p_minus
    rows[:, K] = p0
    return DiscreteChannel(rows)
