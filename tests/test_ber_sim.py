import numpy as np
import pytest

from jdrcap import ber_sim
from jdrcap.capacity_limits import dolinar_error_q

from oracles import exhaustive_dr_ber


class TestUncodedBpsk:
    def test_maximally_confused_at_zero(self):
        pt = ber_sim.uncoded_bpsk_ber(0.0)
        assert pt.ber == 0.5
        assert pt.trials == 0 and pt.stderr == 0.0

    def test_matches_dolinar_q(self):
        for nbar in np.geomspace(1e-4, 3.0, 10):
            assert ber_sim.uncoded_bpsk_ber(nbar).ber == dolinar_error_q(nbar)

    def test_strictly_decreasing(self):
        grid = np.geomspace(1e-3, 1.0, 15)
        bers = [ber_sim.uncoded_bpsk_ber(n).ber for n in grid]
        assert all(a > b for a, b in zip(bers, bers[1:]))


class TestHadamardDrBer:
    def test_noiseless_regime(self):
        pt = ber_sim.hadamard_dr_ber(3, 5.0, trials=10 ** 4, seed=1)
        assert pt.ber == 0.0

    def test_pure_guessing_at_zero(self):
        pt = ber_sim.hadamard_dr_ber(3, 0.0, trials=4 * 10 ** 4, seed=2)
        assert abs(pt.ber - 0.5) <= 3 * pt.stderr + 1e-12

    @pytest.mark.parametrize("m,nbar", [(3, 0.05), (3, 0.2), (4, 0.05)])
    def test_exhaustive_oracle_brackets_estimate(self, m, nbar):
        exact = exhaustive_dr_ber(m, nbar)
        pt = ber_sim.hadamard_dr_ber(m, nbar, trials=10 ** 5, seed=1234)
        assert abs(pt.ber - exact) <= 3 * pt.stderr

    def test_reproducible(self):
        a = ber_sim.hadamard_dr_ber(4, 0.03, trials=2 * 10 ** 4, seed=99)
        b = ber_sim.hadamard_dr_ber(4, 0.03, trials=2 * 10 ** 4, seed=99)
        assert a == b

    def test_seed_matters(self):
        a = ber_sim.hadamard_dr_ber(4, 0.03, trials=2 * 10 ** 4, seed=1)
        b = ber_sim.hadamard_dr_ber(4, 0.03, trials=2 * 10 ** 4, seed=2)
        assert a.bit_errors != b.bit_errors

    def test_rejects_thin_sampling(self):
        with pytest.raises(ValueError):
            ber_sim.hadamard_dr_ber(3, 0.1, trials=5000, seed=0)


class TestHadamardJdrBer:
    def test_bright_limit(self):
        assert ber_sim.hadamard_jdr_ber(8, 10.0).ber == pytest.approx(0.0, abs=1e-300)

    def test_erasure_always_at_zero(self):
        # balanced labeling: uniform guess is wrong on half the message bits
        pt = ber_sim.hadamard_jdr_ber(4, 0.0)
        assert pt.ber == pytest.approx(0.5, abs=1e-15)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="photon number"):
            ber_sim.hadamard_jdr_ber(3, np.nan)

    def test_analytic_form(self):
        for m, nbar in ((3, 0.01), (8, 0.02)):
            expected = 0.5 * np.exp(-(2 ** m) * nbar)
            assert ber_sim.hadamard_jdr_ber(m, nbar).ber == pytest.approx(
                expected, rel=1e-12)

    def test_jdr_below_dr_in_resolvable_range(self):
        # ordering on the sub-range where 2e5 trials resolve the DR curve;
        # the acceptance suite covers the full Fig.-4(b)-style span
        for nbar in (1e-3, 5e-3, 2e-2):
            jdr = ber_sim.hadamard_jdr_ber(8, nbar).ber
            dr = ber_sim.hadamard_dr_ber(8, nbar, trials=5 * 10 ** 4, seed=7).ber
            assert jdr < dr
