"""The top of the double range. From nbar = 1e300 to inf, every form that
takes nbar in through e^{-k nbar} returns its saturated value and raises no
warning: pyproject turns a RuntimeWarning into an error. k nbar overflows
from nbar ~ 9e307 on at k = 2, and inf * 0 is NaN."""

import sys

import numpy as np
import pytest

from jdrcap import ber_sim, capacity_limits as cl, discrimination as disc, optics_sim as opt
from jdrcap.codes import rm1_code
from jdrcap.superchannel import two_symbol_ratio_curve

EPS = np.finfo(float).eps
TOP = pytest.mark.parametrize("nbar", [1e300, 9e307, sys.float_info.max, np.inf])


@TOP
def test_bpsk_forms_saturate(nbar):
    assert cl.holevo_bpsk(nbar) == 1.0
    assert cl.dolinar_error_q(nbar) == 0.0
    assert cl.c1_bpsk_dolinar(nbar) == 1.0
    half_log3 = np.log2(3.0) / 2.0
    assert cl.two_symbol_structured_capacity(nbar) == pytest.approx(half_log3, abs=2 * EPS)
    i2, _ = two_symbol_ratio_curve(np.array([nbar]), "mpe")
    assert i2[0] == pytest.approx(half_log3, abs=2 * EPS)
    assert np.array_equal(opt.two_symbol_receiver_channel(nbar).p,
                          [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


@TOP
def test_code_gram_is_the_identity(nbar):
    # the diagonal was inf * 0 = NaN at inf, and the Gram refused as not finite
    assert np.array_equal(disc.gram_from_code(rm1_code(4), nbar).gram, np.eye(32))


@TOP
@pytest.mark.parametrize("m", range(1, 11))
def test_code_families_saturate(nbar, m):
    K = 2 ** m
    assert cl.hadamard_jdr_capacity(m, nbar) == m / K
    assert cl.rm_gm_jdr_capacity(m, nbar) == (m + 1) / K
    # rm_mpe_capacity is within 8.7 eps of 80-digit mpmath
    assert abs(cl.rm_mpe_capacity(m, nbar) - (m + 1) / K) <= 8.7 * EPS * (m + 1) / K
    assert ber_sim.hadamard_jdr_ber(m, nbar) == 0.0
    assert np.array_equal(opt.hadamard_jdr_channel(m, nbar).p, np.eye(K, K + 1))
    rm = opt.rm_gm_jdr_channel(m, nbar).p
    assert np.all(rm.max(axis=1) == 1.0) and np.all(rm[:, -1] == 0.0)
