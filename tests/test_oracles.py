import importlib
import sys

import numpy as np

import oracles
from jdrcap.capacity_limits import dolinar_error_q
from jdrcap.codes import hadamard_code


def test_imports_nothing_from_the_package(monkeypatch):
    for name in [name for name in sys.modules if name.split(".")[0] == "jdrcap"]:
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.delitem(sys.modules, "oracles")
    fresh = importlib.import_module("oracles")
    assert fresh is not oracles
    # the routes that once took the package's codebook or q
    assert fresh.exhaustive_dr_ber(3, 0.05) == oracles.exhaustive_dr_ber(3, 0.05)
    assert fresh.dr_ber_lower_bound(4, 0.1) == oracles.dr_ber_lower_bound(4, 0.1)
    assert (fresh.plain_dr_ber_bit_errors(3, 0.05, 1000, 1)
            == oracles.plain_dr_ber_bit_errors(3, 0.05, 1000, 1))


def test_codebook_is_the_package_hadamard_code():
    for m in range(1, 11):
        assert np.array_equal(oracles.hadamard_codewords(m), hadamard_code(m).codewords)


def test_q_is_the_package_q_from_1e_minus_300_to_10():
    # both take q as e^{-4n} / (2 [1 + sqrt(1 - e^{-4n})]), which does not cancel
    for nbar in np.geomspace(1e-300, 10.0, 61):
        assert abs(dolinar_error_q(nbar) / oracles.dolinar_q_mp(nbar) - 1.0) <= 2 * np.finfo(float).eps
