import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jdrcap.entropy import LN2, binary_entropy, phi, relative_entropy, xlog2

EPS = np.finfo(float).eps


def test_xlog2_convention_at_zero():
    assert xlog2(0.0) == 0.0


def test_xlog2_rejects_negative():
    with pytest.raises(ValueError):
        xlog2(-0.1)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_xlog2_never_nan_on_unit_interval(x):
    assert np.isfinite(xlog2(x))


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_range_and_symmetry(q):
    h = binary_entropy(q)
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(binary_entropy(1.0 - q), abs=1e-12)


def test_binary_entropy_array_matches_scalar_calls_bitwise():
    grid = np.concatenate([[0.0, 1.0], np.geomspace(1e-300, 1.0, 120),
                           1.0 - np.geomspace(1e-16, 0.5, 40)])
    whole = binary_entropy(grid)
    per_point = [binary_entropy(q) for q in grid]
    assert all(type(h) is float for h in per_point)
    assert np.array_equal(whole, per_point)


@pytest.mark.parametrize("q", [np.nan, -1e-300, np.array([0.5, np.nan])])
def test_binary_entropy_rejects_outside_unit_interval(q):
    with pytest.raises(ValueError):
        binary_entropy(q)


def test_binary_entropy_known_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


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
