import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jdrcap.entropy import binary_entropy, entropy_bits, xlog2


def test_xlog2_convention_at_zero():
    assert xlog2(0.0) == 0.0
    assert entropy_bits([1.0, 0.0, 0.0]) == 0.0


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


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
def test_entropy_no_nan_for_probability_vectors(ps):
    assert np.isfinite(entropy_bits(ps))
