import math
from fractions import Fraction

import numpy as np
import pytest

from jdrcap import ber_sim
from jdrcap.capacity_limits import dolinar_error_q

from oracles import enumerated_jdr_ber, exhaustive_dr_ber, plain_dr_ber_bit_errors


class TestUncodedBpsk:
    def test_maximally_confused_at_zero(self):
        ber = ber_sim.uncoded_bpsk_ber(0.0)
        assert type(ber) is float and ber == 0.5

    def test_matches_dolinar_q(self):
        grid = np.geomspace(1e-4, 3.0, 10)
        for nbar in grid:
            assert ber_sim.uncoded_bpsk_ber(nbar) == dolinar_error_q(nbar)
        assert np.array_equal(ber_sim.uncoded_bpsk_ber(grid), dolinar_error_q(grid))

    def test_strictly_decreasing(self):
        bers = ber_sim.uncoded_bpsk_ber(np.geomspace(1e-3, 1.0, 15))
        assert np.all(np.diff(bers) < 0)

    def test_positive_where_the_subtraction_form_is_zero(self):
        # in doubles, (1 - sqrt(1 - e^{-4n})) / 2 is exactly 0 from nbar ~ 9.2 on
        assert ber_sim.uncoded_bpsk_ber(10.0) > 0
        assert np.all(np.diff(ber_sim.uncoded_bpsk_ber(np.geomspace(1.0, 10.0, 15))) < 0)


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

    def test_trials_must_be_an_integer(self):
        with pytest.raises(TypeError):
            ber_sim.hadamard_dr_ber(3, 0.1, trials=1e5, seed=0)
        point = ber_sim.hadamard_dr_ber(3, 0.1, trials=np.int64(10 ** 4), seed=0)
        assert type(point.trials) is int and point.total_bits == 3 * 10 ** 4


class TestDrawOrderPinned:
    """hadamard_dr_ber's bit errors equal the plain whole-chunk loop's, bit for bit.

    Trial counts cross the 50000-trial chunk and the decode blocks at
    uneven points; nbar = 1e-300 is q = 1/2 (k = 128, no tie flips) and
    nbar = 50 puts q near 1e-88, where only the raw tie words below 2^11
    flip.
    """

    @pytest.mark.parametrize("m,nbar,trials,seed", [
        (8, 1e-300, 50001, 2 ** 63 + 5),
        (8, 0.05, 50001, 0),
        # at m = 8 the last chunk is one whole block and then a one-trial block
        (8, 0.03, ber_sim._CHUNK + ber_sim._BLOCK_FLOATS // 2 ** 8 + 1, 4),
        (10, 1e-3, 10001, 3),
        (4, 0.15, 123457, 11),
        (3, 50.0, 123457, 7),
        (2, 1e-3, 60000, 9),
        (1, 0.15, 12345, 1),
    ])
    def test_matches_plain_loop(self, m, nbar, trials, seed):
        pt = ber_sim.hadamard_dr_ber(m, nbar, trials, seed)
        assert pt.bit_errors == plain_dr_ber_bit_errors(m, nbar, trials, seed)

    # 8 * n is 120, 24, 56 and 2040: no block size is a multiple of it; at
    # m = 8, a small block, the default and twice the default
    @pytest.mark.parametrize("m,block_floats", [
        (4, 100), (2, 1), (3, 200), (8, 5000),
        (8, ber_sim._BLOCK_FLOATS), (8, 2 * ber_sim._BLOCK_FLOATS),
    ])
    def test_block_size_does_not_move_the_estimate(self, monkeypatch, m, block_floats):
        monkeypatch.setattr(ber_sim, "_BLOCK_FLOATS", block_floats)
        pt = ber_sim.hadamard_dr_ber(m, 0.05, 10007, 5)
        assert pt.bit_errors == plain_dr_ber_bit_errors(m, 0.05, 10007, 5)

    def test_symbol_bytes_are_little_endian(self):
        words = np.random.PCG64(np.random.SeedSequence(entropy=17)).random_raw(9)
        expected = [(int(w) >> (8 * j)) & 0xFF for w in words for j in range(8)]
        bits = np.random.PCG64(np.random.SeedSequence(entropy=17))
        assert ber_sim._symbol_bytes(bits, 64).tolist() == expected[:64]
        # a partial word is consumed whole: the next call starts a fresh word
        bits = np.random.PCG64(np.random.SeedSequence(entropy=17))
        assert ber_sim._symbol_bytes(bits, 61).tolist() == expected[:61]
        assert ber_sim._symbol_bytes(bits, 3).tolist() == expected[64:67]


class TestFlipCut:
    """A byte below k, or a byte equal to k whose tie word is below cut, flips
    with probability exactly ceil(q 2^61) / 2^61."""

    QS = [0.5, 0.27, 5e-324, 0.0] + [float(dolinar_error_q(x))
                                     for x in np.geomspace(1e-3, 6e-2, 10)]

    @pytest.mark.parametrize("q", QS)
    def test_exact_flip_probability(self, q):
        k, cut = ber_sim.flip_cut(q)
        assert 0 <= k <= 128 and 0 <= cut < 2 ** 64 and cut % 2 ** 11 == 0
        # P = k/256 + (1/256) (cut >> 11) / 2^53, all in units of 2^-61
        assert k * 2 ** 53 + (cut >> 11) == math.ceil(Fraction(q) * 2 ** 61)

    @pytest.mark.parametrize("q", QS)
    def test_words_around_the_cut(self, q):
        k, cut = ber_sim.flip_cut(q)
        f = Fraction(q) * 256 - k
        for word in (cut - 1, cut, cut + 1):
            if not 0 <= word < 2 ** 64:
                continue
            uniform = (word >> 11) * 2.0 ** -53     # exact: word >> 11 < 2^53
            assert (word < cut) == (uniform < f), (q, word)
            assert (np.uint64(word) < np.uint64(cut)) == (uniform < f)

    def test_half_has_no_tie_flips(self):
        assert ber_sim.flip_cut(0.5) == (128, 0)

    def test_double_is_the_shifted_raw_word(self):
        a = np.random.default_rng(np.random.SeedSequence(entropy=123))
        b = np.random.default_rng(np.random.SeedSequence(entropy=123))
        words = a.bit_generator.random_raw(1000)
        assert np.array_equal((words >> np.uint64(11)) * 2.0 ** -53, b.random(1000))

    @pytest.mark.parametrize("q", [-1e-300, 0.5000000000000001, float("nan")])
    def test_rejects_q_outside_half_interval(self, q):
        with pytest.raises(ValueError):
            ber_sim.flip_cut(q)


class TestHadamardJdrBer:
    def test_bright_limit(self):
        assert ber_sim.hadamard_jdr_ber(8, 10.0) == pytest.approx(0.0, abs=1e-300)

    def test_erasure_always_at_zero(self):
        # balanced labeling: uniform guess is wrong on half the message bits
        assert ber_sim.hadamard_jdr_ber(4, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="photon number"):
            ber_sim.hadamard_jdr_ber(3, np.nan)

    def test_rejects_code_order_zero(self):
        with pytest.raises(ValueError, match="need m >= 1"):
            ber_sim.hadamard_jdr_ber(0, 0.1)

    def test_analytic_form(self):
        for m, nbar in ((3, 0.01), (8, 0.02)):
            expected = 0.5 * np.exp(-(2 ** m) * nbar)
            assert ber_sim.hadamard_jdr_ber(m, nbar) == pytest.approx(
                expected, rel=1e-12)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_enumerated_guess_bit_for_bit(self, m):
        grid = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, 49)])
        ber = ber_sim.hadamard_jdr_ber(m, grid)
        assert np.array_equal(ber, enumerated_jdr_ber(m, grid))
        assert [ber_sim.hadamard_jdr_ber(m, nbar) for nbar in grid] == ber.tolist()

    def test_jdr_below_dr_in_resolvable_range(self):
        # ordering on the sub-range where 2e5 trials resolve the DR curve;
        # the acceptance suite covers the full Fig.-4(b)-style span
        for nbar in (1e-3, 5e-3, 2e-2):
            jdr = ber_sim.hadamard_jdr_ber(8, nbar)
            dr = ber_sim.hadamard_dr_ber(8, nbar, trials=5 * 10 ** 4, seed=7).ber
            assert jdr < dr
