import mpmath as mp
import numpy as np
import pytest

from jdrcap.entropy import LN2, phi, relative_entropy, symmetric_split

EPS = np.finfo(float).eps


def test_phi_matches_mpmath_to_a_few_ulps():
    # both sides of the series band (-1/2, 2), its edges, and v = -1; from |v| = 1e-150
    # on, where phi ~ v^2/2 is still a normal double
    v = np.concatenate([[-1.0, -0.5, 2.0], -np.geomspace(1e-150, 1.0, 200)[:-1],
                        np.geomspace(1e-150, 1e300, 400)])
    want = []
    for x in v:
        # the direct form as written, with digits to spare past its cancellation
        with mp.workdps(40 + 2 * max(0, -int(np.log10(abs(x) or 1.0)))):
            want.append(float((1 + mp.mpf(x)) * mp.log1p(mp.mpf(x)) - mp.mpf(x))
                        if x > -1 else 1.0)
    assert np.all(np.abs(phi(v) - want) <= 3 * EPS * np.array(want))


def test_phi_of_a_scalar_is_a_float():
    assert type(phi(0.25)) is float and phi(-1.0) == 1.0 and phi(0.0) == 0.0


def test_symmetric_split_matches_mpmath_to_a_few_ulps():
    # 1 - H_b((1 - y)/2) as written, with digits to spare past its cancellation at small
    # |y|: both signs from |y| = 1e-150, where the value ~ y^2/(2 ln 2) is still normal,
    # to the ends y = +-1, where it is 1, and next to them
    ends = 1.0 - np.geomspace(1e-16, 0.5, 40)
    y = np.concatenate([[-1.0, 0.0, 1.0], np.geomspace(1e-150, 1.0, 200)[:-1], ends])
    y = np.concatenate([y, -y])
    want = []
    for x in y:
        with mp.workdps(40 + 2 * max(0, -int(np.log10(abs(x) or 1.0)))):
            half = [(1 + s * mp.mpf(x)) / 2 for s in (1, -1)]
            want.append(float(1 + sum(p * mp.log(p, 2) for p in half if p > 0)))
    assert np.all(np.abs(symmetric_split(y) - want) <= 2 * EPS * np.array(want))
    assert symmetric_split(1.0) == symmetric_split(-1.0) == 1.0
    assert type(symmetric_split(0.25)) is float and symmetric_split(0.0) == 0.0


def test_relative_entropy_matches_the_log_ratio_sum():
    rng = np.random.default_rng(3)
    P = rng.random((6, 7))
    P /= P.sum(axis=-1, keepdims=True)
    q = rng.random(7)
    q /= q.sum()
    want = np.sum(P * np.log2(P / q), axis=-1)
    assert np.allclose(relative_entropy(P, q), want, rtol=1e-13, atol=0)


def test_relative_entropy_is_second_order_in_the_difference():
    # D(P||q) = sum_y (P_y - q_y)^2 / (2 q_y ln 2) to leading order; an ulp-level
    # P - q is not lost against the 1 that P and q each sum to
    q = np.array([0.5, 0.25, 0.25])
    delta = 1e-12 * np.array([1.0, -0.5, -0.5])
    want = np.sum(delta ** 2 / q) / (2 * LN2)
    assert relative_entropy(q + delta, q) == pytest.approx(want, rel=1e-3)
