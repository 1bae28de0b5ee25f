"""Each input rule is checked in one place and holds at every entry point that
takes the input: the code order, the photon-number grid of a curve and the
priors."""

import re

import numpy as np
import pytest

from jdrcap import ber_sim, capacity_limits as cl, codes, discrimination as disc
from jdrcap import superchannel as sc
from jdrcap.dmc import DiscreteChannel

CODE_ORDER_ENTRIES = {
    "hadamard_code": lambda m: codes.hadamard_code(m).codewords,
    "hadamard_jdr_capacity": lambda m: cl.hadamard_jdr_capacity(m, 0.1),
    "rm_gm_jdr_capacity": lambda m: cl.rm_gm_jdr_capacity(m, 0.1),
    "rm_mpe_capacity": lambda m: cl.rm_mpe_capacity(m, 0.1),
    "hadamard_jdr_ber": lambda m: ber_sim.hadamard_jdr_ber(m, 0.1),
    "pie_envelope": lambda m: cl.pie_envelope(0.1, "rm_gm", [m]),
}


@pytest.mark.parametrize("entry", CODE_ORDER_ENTRIES)
def test_code_order_is_a_positive_integer(entry):
    call = CODE_ORDER_ENTRIES[entry]
    for bad in (2.5, 3.0, 0, np.int64(-1), "3", None):
        with pytest.raises(ValueError, match="need m >= 1"):
            call(bad)
    # a numpy integer is a code order like the int it holds
    np.testing.assert_equal(call(np.int64(3)), call(3))


@pytest.mark.parametrize("curve", [lambda grid: sc.capacity_curves("rm_gm", 3, grid),
                                   sc.two_symbol_ratio_curve],
                         ids=["capacity_curves", "two_symbol_ratio_curve"])
@pytest.mark.parametrize("bad", [np.nan, 0.0, -0.1])
def test_curve_grid_is_positive_at_entry(curve, bad):
    with pytest.raises(ValueError, match="photon number must be > 0"):
        curve([0.1, bad])


@pytest.mark.parametrize("curve", [lambda grid: sc.capacity_curves("rm_gm", 3, grid),
                                   sc.two_symbol_ratio_curve],
                         ids=["capacity_curves", "two_symbol_ratio_curve"])
@pytest.mark.parametrize("grid", [[[0.1, 0.2]], [[0.1], [0.2]], 0.1, []],
                         ids=["row", "column", "scalar", "empty"])
def test_curve_grid_is_one_dimensional_in_the_same_words(curve, grid):
    grid_text = np.asarray(grid, dtype=float)
    message = f"need a nonempty 1-D grid of positive nbar values, got {grid_text}"
    with pytest.raises(ValueError, match=re.escape(message)):
        curve(grid)


@pytest.mark.parametrize("priors", [[0.7, 0.5], [np.nan, 1.0], [-0.25, 1.25]])
@pytest.mark.parametrize("entry", [
    lambda p: disc.PureStateEnsemble(gram=np.eye(2), priors=p),
    lambda p: sc.mutual_information(DiscreteChannel(np.eye(2)), p),
    lambda p: disc.helstrom_binary(0.5, *p),
], ids=["PureStateEnsemble", "mutual_information", "helstrom_binary"])
def test_priors_are_refused_in_the_same_words(entry, priors):
    message = f"priors must be nonnegative and sum to 1, got {np.asarray(priors)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        entry(priors)

