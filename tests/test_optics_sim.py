import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdrcap import optics_sim as opt
from jdrcap.capacity_limits import (
    dolinar_error_q,
    hadamard_jdr_capacity,
    rm_gm_jdr_capacity,
)
from jdrcap.codes import fwht, hadamard_code, rm1_code
from jdrcap.superchannel import mutual_information

from oracles import dense_walsh

finite_amp = st.floats(min_value=-30, max_value=30, allow_nan=False)


class TestBeamSplitter:
    def test_constructive_and_destructive(self):
        alpha = 0.7
        assert opt.beam_splitter(alpha, alpha) == pytest.approx(
            (np.sqrt(2) * alpha, 0.0))
        assert opt.beam_splitter(alpha, -alpha) == pytest.approx(
            (0.0, np.sqrt(2) * alpha))

    @given(finite_amp, finite_amp, finite_amp, finite_amp)
    def test_energy_conserving(self, ar, ai, br, bi):
        a, b = complex(ar, ai), complex(br, bi)
        c, d = opt.beam_splitter(a, b)
        assert abs(c) ** 2 + abs(d) ** 2 == pytest.approx(
            abs(a) ** 2 + abs(b) ** 2, rel=1e-12, abs=1e-12)


class TestGreenMachine:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_ppm_unraveling(self, m):
        # every BPSK Hadamard codeword exits in exactly one mode, sign +
        nbar = 1e-3
        code = hadamard_code(m, with_ancilla=True)
        for k, amps in enumerate(code.amplitudes(np.sqrt(nbar))):
            out = opt.green_machine(amps)
            others = np.delete(out, k)
            assert np.all(np.abs(others) < 1e-12)
            assert out[k] == pytest.approx(np.sqrt(2 ** m * nbar), rel=1e-12)
            assert abs(out[k]) ** 2 == pytest.approx(2 ** m * nbar, rel=1e-12)

    def test_rm_complement_flips_sign(self):
        code = rm1_code(3)
        amps = code.amplitudes(0.5)
        top = opt.green_machine(amps[3])
        bottom = opt.green_machine(amps[3 + 8])
        assert np.allclose(top, -bottom, atol=1e-14)

    def test_vacuum_in_vacuum_out(self):
        out = opt.green_machine(np.zeros(16))
        assert np.all(out == 0.0)

    def test_involution_and_fwht_equivalence(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        once = opt.green_machine(v)
        assert np.allclose(once, fwht(v) / np.sqrt(32), atol=1e-12)
        assert np.allclose(opt.green_machine(once), v, atol=1e-12)

    def test_constant_vector_concentrates(self):
        out = opt.green_machine([1.0, 1.0, 1.0, 1.0])
        assert np.allclose(out, [2.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=64)
        twice = opt.green_machine(opt.green_machine(v))
        assert np.allclose(twice, v, atol=1e-12)

    @pytest.mark.parametrize("m", range(0, 7))
    def test_matches_scaled_dense_matrix(self, m):
        rng = np.random.default_rng(m)
        v = rng.normal(size=2 ** m)
        assert np.allclose(opt.green_machine(v), dense_walsh(v) / 2 ** (m / 2), atol=1e-10)

    @pytest.mark.parametrize("m", range(0, 13))
    def test_involution_on_batches(self, m):
        # three real and three complex rows at each length 2^m up to 4096
        rng = np.random.default_rng(300 + m)
        n = 2 ** m
        real = rng.normal(size=(3, n))
        cplx = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        for v in (real, cplx):
            twice = opt.green_machine(opt.green_machine(v))
            assert np.max(np.abs(twice - v)) / max(np.max(np.abs(v)), 1.0) <= 1e-12

    def test_energy_conservation_large(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(size=1024) + 1j * rng.normal(size=1024)
            out = opt.green_machine(v)
            e_in = float(np.sum(np.abs(v) ** 2))
            e_out = float(np.sum(np.abs(out) ** 2))
            assert e_out == pytest.approx(e_in, rel=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            opt.green_machine(np.zeros(6))


class TestSpdClickProb:
    def test_vacuum_never_clicks(self):
        assert opt.spd_click_prob(0.0) == 0.0

    def test_pulse_energy(self):
        energy = 2 ** 4 * 0.01
        assert opt.spd_click_prob(np.sqrt(energy)) == pytest.approx(
            -np.expm1(-energy), abs=1e-15)

    def test_bright_limit(self):
        assert opt.spd_click_prob(100.0) == pytest.approx(1.0, abs=1e-15)


class TestDolinarOutcomes:
    """The Dolinar receiver on the difference port, read off the rows of
    codewords 01 and 10 (sum port dark, difference port +-sqrt(2 nbar)) and
    of codeword 00 (difference port in vacuum)."""

    def test_zero_energy_guess(self):
        rows = opt._two_symbol_rows(0.0)
        assert np.all(rows[:, 0] + rows[:, 2] == 0.5)

    def test_matches_error_formula(self):
        for energy in (0.01, 0.2, 3.0):
            rows = opt._two_symbol_rows(energy / 2)
            assert rows[1, 2] == pytest.approx(1.0 - dolinar_error_q(energy), abs=1e-15)
            assert rows[2, 2] == pytest.approx(dolinar_error_q(energy), abs=1e-15)

    def test_vacuum_symmetry(self):
        for energy in (0.0, 0.5, 4.0):
            row = opt._two_symbol_rows(energy / 2)[0]
            assert row[0] == row[1] and row[2] == row[3]


class TestTwoSymbolReceiverChannel:
    def test_equal_codeword_row(self):
        nbar = 0.3
        ch = opt.two_symbol_receiver_channel(nbar)
        row = ch.p[0]
        click = -np.expm1(-2 * nbar)
        assert row[0] + row[1] == pytest.approx(click, abs=1e-14)
        # Dolinar sees vacuum: +- marginal is (1/2, 1/2)
        assert row[0] + row[2] == pytest.approx(0.5, abs=1e-14)

    def test_opposite_codeword_row(self):
        nbar = 0.3
        ch = opt.two_symbol_receiver_channel(nbar)
        q_prime = 0.5 * (1 - np.sqrt(-np.expm1(-8 * nbar)))
        assert ch.p[1][0] + ch.p[1][1] == 0.0          # sum port dark
        assert ch.p[1][2] == pytest.approx(1 - q_prime, abs=1e-14)
        assert ch.p[2][3] == pytest.approx(1 - q_prime, abs=1e-14)

    def test_vacuum_input_rows(self):
        ch = opt.two_symbol_receiver_channel(0.0)
        assert np.allclose(ch.p, np.tile([0, 0, 0.5, 0.5], (3, 1)), atol=1e-15)

    def test_row_stochastic(self):
        for nbar in (0.0, 1e-4, 0.1, 2.0):
            ch = opt.two_symbol_receiver_channel(nbar)
            assert np.allclose(ch.p.sum(axis=1), 1.0, atol=1e-12)

    def test_grid_rows_sum_to_one(self):
        # the two-symbol curve takes these rows unchecked
        grid = np.concatenate([[0.0], np.geomspace(1e-300, 1e3, 301)])
        rows = opt._two_symbol_rows(grid)
        assert rows.shape == (302, 3, 4) and np.all(rows >= 0)
        assert np.max(np.abs(rows.sum(axis=-1) - 1.0)) <= 4 * np.finfo(float).eps

    def test_grid_rows_match_per_point_channel_bit_for_bit(self):
        grid = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, 59)])
        rows = opt._two_symbol_rows(grid)
        assert rows.shape == (len(grid), 3, 4)
        for k, nbar in enumerate(grid):
            assert np.array_equal(rows[k], opt.two_symbol_receiver_channel(nbar).p)


class TestHadamardJdrChannel:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_matches_closed_form(self, m):
        for nbar in np.geomspace(1e-4, 1.0, 6):
            ch = opt.hadamard_jdr_channel(m, nbar)
            uniform = np.full(ch.num_inputs, 1.0 / ch.num_inputs)
            mi = mutual_information(ch, uniform) / 2 ** m
            assert mi == pytest.approx(hadamard_jdr_capacity(m, nbar), abs=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="photon number"):
            opt.hadamard_jdr_channel(3, np.nan)

    def test_rejects_code_order_zero(self):
        with pytest.raises(ValueError, match="need m >= 1"):
            opt.hadamard_jdr_channel(0, 0.1)

    def test_all_erasure_at_zero(self):
        ch = opt.hadamard_jdr_channel(3, 0.0)
        assert np.allclose(ch.p[:, -1], 1.0)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_no_cross_position_leakage(self, m):
        ch = opt.hadamard_jdr_channel(m, 0.05)
        K = 2 ** m
        positions = ch.p[:, :K].copy()
        np.fill_diagonal(positions, 0.0)
        assert np.all(positions < 1e-12)

    def test_diagonal_click_probability(self):
        m, nbar = 4, 0.02
        ch = opt.hadamard_jdr_channel(m, nbar)
        expected = -np.expm1(-(2 ** m) * nbar)
        assert np.allclose(np.diag(ch.p[:, : 2 ** m]), expected, atol=1e-13)


class TestRmGmJdrChannel:
    @pytest.mark.parametrize("m", [1, 2, 4, 6, 8])
    def test_matches_closed_form(self, m):
        for nbar in np.geomspace(1e-4, 1.0, 6):
            ch = opt.rm_gm_jdr_channel(m, nbar)
            uniform = np.full(ch.num_inputs, 1.0 / ch.num_inputs)
            mi = mutual_information(ch, uniform) / 2 ** m
            assert mi == pytest.approx(rm_gm_jdr_capacity(m, nbar), abs=1e-12)

    def test_all_erasure_at_zero(self):
        ch = opt.rm_gm_jdr_channel(2, 0.0)
        assert np.allclose(ch.p[:, -1], 1.0)

    def test_sign_confusion_goes_to_antipodal_codeword(self):
        m, nbar = 3, 0.2
        ch = opt.rm_gm_jdr_channel(m, nbar)
        K = 2 ** (m + 1)
        half = K // 2
        for k in range(K):
            row = ch.p[k]
            partner = (k + half) % K
            support = {j for j in range(K) if row[j] > 0}
            assert support == {k, partner}
            assert row[k] > row[partner]  # p_plus > p_minus

    @pytest.mark.parametrize("m", range(1, 11))
    def test_row_sums_across_grid(self, m):
        for nbar in np.geomspace(1e-5, 2.0, 5):
            ch = opt.rm_gm_jdr_channel(m, nbar)
            assert np.allclose(ch.p.sum(axis=1), 1.0, atol=1e-12)
