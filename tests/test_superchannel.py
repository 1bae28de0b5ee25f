import re

import mpmath as mp
import numpy as np
import pytest

from jdrcap import superchannel as sc
from jdrcap.capacity_limits import (
    c1_bpsk_dolinar,
    hadamard_jdr_capacity,
    holevo_bpsk,
    rm_gm_jdr_capacity,
    rm_mpe_capacity,
)
from jdrcap.dmc import ConvergenceError, DiscreteChannel
from jdrcap.entropy import LN2
from jdrcap.optics_sim import rm_gm_jdr_channel, two_symbol_receiver_channel

from oracles import (
    bec_capacity,
    bsc_capacity,
    mutual_information_direct,
    two_symbol_mpe_i2_mp,
    two_symbol_mpe_mp,
    two_symbol_structured_mp,
)

EPS = np.finfo(float).eps


def bsc(q):
    return DiscreteChannel(np.array([[1 - q, q], [q, 1 - q]]))


def bec(eps):
    return DiscreteChannel(np.array([[1 - eps, eps, 0.0], [0.0, eps, 1 - eps]]))


class TestMutualInformation:
    def test_identity_channel(self):
        ch = DiscreteChannel(np.eye(4))
        assert sc.mutual_information(ch, np.full(4, 0.25)) == pytest.approx(2.0)

    def test_constant_output(self):
        p = np.tile([0.3, 0.7], (3, 1))
        ch = DiscreteChannel(p)
        assert sc.mutual_information(ch, np.full(3, 1 / 3)) == pytest.approx(0.0, abs=1e-15)

    def test_bsc_closed_form(self):
        for q in (0.05, 0.2, 0.45):
            mi = sc.mutual_information(bsc(q), [0.5, 0.5])
            assert mi == pytest.approx(bsc_capacity(q), abs=1e-13)

    def test_direct_sum_oracle(self):
        rng = np.random.default_rng(0)
        p = rng.random((4, 5))
        p /= p.sum(axis=1, keepdims=True)
        ch = DiscreteChannel(p)
        priors = np.array([0.1, 0.2, 0.3, 0.4])
        assert sc.mutual_information(ch, priors) == pytest.approx(
            mutual_information_direct(p, priors), abs=1e-12)

    def test_zero_prior_row_counts_nothing(self):
        # the unused input reaches an output no other input does, and one where q
        # is subnormal, so P/q there would overflow
        p = np.array([[0.5, 0.5, 0.0, 0.0], [0.25, 0.75, 1e-310, 0.0], [0.0, 0.0, 0.5, 0.5]])
        live = sc.mutual_information(DiscreteChannel(p[:2]), [0.5, 0.5])
        assert sc.mutual_information(DiscreteChannel(p), [0.5, 0.5, 0.0]) == live

    def test_rejects_bad_priors(self):
        with pytest.raises(ValueError):
            sc.mutual_information(bsc(0.1), [0.7, 0.5])

    def test_rejects_nan_priors(self):
        with pytest.raises(ValueError, match="priors"):
            sc.mutual_information(bsc(0.1), [np.nan, 1.0])

    def test_rejects_priors_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="priors length"):
            sc.mutual_information(bsc(0.1), [0.25, 0.25, 0.5])

    def test_priors_sum_to_one_as_closely_as_an_ensembles(self):
        # 5e-10 off: the ensembles and helstrom_binary refuse these priors too
        with pytest.raises(ValueError, match="priors"):
            sc.mutual_information(bsc(0.1), [0.5, 0.5 + 5e-10])


class TestBlahutArimoto:
    def test_bsc(self):
        cap, priors = sc.capacity_blahut_arimoto(bsc(0.11))
        assert cap == pytest.approx(bsc_capacity(0.11), abs=1e-9)
        assert np.allclose(priors, 0.5, atol=1e-9)

    def test_bec(self):
        for eps in (0.1, 0.5, 0.9):
            cap, _ = sc.capacity_blahut_arimoto(bec(eps))
            assert cap == pytest.approx(bec_capacity(eps), abs=1e-9)

    def test_symmetric_superchannels_uniform_is_optimal(self):
        from jdrcap.codes import rm1_code
        from jdrcap.discrimination import gram_from_code, srm_channel
        from jdrcap.optics_sim import hadamard_jdr_channel
        channels = (rm_gm_jdr_channel(2, 0.08),
                    hadamard_jdr_channel(3, 0.05),
                    srm_channel(gram_from_code(rm1_code(2), 0.1)))
        for ch in channels:
            uniform = np.full(ch.num_inputs, 1.0 / ch.num_inputs)
            mi_uniform = sc.mutual_information(ch, uniform)
            cap, priors = sc.capacity_blahut_arimoto(ch)
            assert cap == pytest.approx(mi_uniform, abs=1e-9)
            assert np.abs(priors - uniform).sum() < 1e-6

    def test_capacity_at_least_uniform_mi(self):
        for nbar in (0.01, 0.1):
            ch = two_symbol_receiver_channel(nbar)
            uniform = np.full(3, 1 / 3)
            cap, _ = sc.capacity_blahut_arimoto(ch)
            assert cap >= sc.mutual_information(ch, uniform) - 1e-12

    def test_max_iter_reports_bracket(self, monkeypatch):
        # asymmetric Z-channel: uniform priors are not optimal, so the
        # bracket cannot close within two iterations
        monkeypatch.setattr(sc, "BA_TOL", 1e-300)
        monkeypatch.setattr(sc, "BA_MAX_ITER", 2)
        z = DiscreteChannel(np.array([[1.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(ConvergenceError) as excinfo:
            sc.capacity_blahut_arimoto(z)
        err = excinfo.value
        assert err.lower is not None and err.upper is not None
        cap_z = np.log2(1.0 + 2.0 ** (-1.0 / 0.5))  # known closed form, H_b(1/2) = 1
        assert err.lower <= cap_z <= err.upper + 1e-12


class TestPriorScanMax:
    def test_concave_quadratic(self):
        (x,), (v,) = sc.prior_scan_max(lambda p: -(p - 0.31234) ** 2)
        assert x == pytest.approx(0.31234, abs=1e-6)
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_flat_function_smallest_argument(self):
        (x,), (v,) = sc.prior_scan_max(lambda p: np.ones_like(p))
        assert x == 0.0 and v == 1.0

    def test_matches_dense_grid_on_two_symbol_channel(self):
        nbar = 0.02
        ch = two_symbol_receiver_channel(nbar)
        fn = np.vectorize(lambda p: sc.mutual_information(ch, [1 - 2 * p, p, p]) / 2)
        (x,), (v,) = sc.prior_scan_max(fn)
        dense = np.linspace(0, 0.5, 20001)
        brute = max(fn(p) for p in dense)
        assert v == pytest.approx(brute, abs=1e-6)

    def test_golden_steps_stop_below_sqrt_eps_of_the_range(self):
        calls = []

        def fn(p):
            calls.append(p.shape)
            return -(p - 0.31234) ** 2

        (x,), _ = sc.prior_scan_max(fn)
        assert calls == [(1, 33), (1, 2)] + [(1, 1)] * 32
        assert x == pytest.approx(0.31234, abs=np.sqrt(np.finfo(float).eps) * 0.5)

    def test_rows_match_one_row_scans_bitwise(self):
        centres = np.array([0.0, 0.013, 0.31234, 0.25, 0.4999, 0.5, 0.17])

        def family(c):
            return lambda p: np.sin(3.0 * p) * np.exp(-((p - c[:, None]) / 0.1) ** 2)

        xs, vs = sc.prior_scan_max(family(centres))
        assert xs.shape == vs.shape == centres.shape
        for k in range(len(centres)):
            x, v = sc.prior_scan_max(family(centres[k:k + 1]))
            assert np.array_equal(x, xs[k:k + 1]) and np.array_equal(v, vs[k:k + 1])

    def test_flat_row_resolves_to_lo_alone(self):
        flat = np.array([False, True, False])
        xs, vs = sc.prior_scan_max(lambda p: np.where(flat[:, None], 2.0, -(p - 0.3) ** 2))
        assert xs[1] == 0.0 and vs[1] == 2.0
        assert xs[0] == xs[2] == pytest.approx(0.3, abs=1e-6)


class TestTwoSymbolRatioCurve:
    def test_structured_peak_matches_receiver_gain(self):
        grid = np.geomspace(1e-3, 2.0, 40)
        i2, c1 = sc.two_symbol_ratio_curve(grid, receiver="structured")
        best = max(i2 / c1)
        assert best == pytest.approx(1.0249, abs=0.003)

    def test_mpe_peak(self):
        grid = np.geomspace(1e-3, 2.0, 25)
        i2, c1 = sc.two_symbol_ratio_curve(grid, receiver="mpe")
        best = max(i2 / c1)
        assert best == pytest.approx(1.0266, abs=0.003)

    def test_superadditivity_exists_then_dies(self):
        i2, c1 = sc.two_symbol_ratio_curve(np.geomspace(1e-3, 5.0, 30))
        ratio = i2 / c1
        assert any(ratio > 1.0)                     # joint detection wins somewhere
        assert ratio[-1] < 1.0                      # large nbar: DR wins

    def test_two_symbol_beats_c1_at_low_nbar(self):
        (bits,), _ = sc.two_symbol_ratio_curve([1e-3])
        assert bits > c1_bpsk_dolinar(1e-3)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            sc.two_symbol_ratio_curve([])

    @pytest.mark.parametrize("receiver", ["structured", "mpe"])
    @pytest.mark.parametrize("grid", [[[0.1, 0.2]], [[0.1], [0.2]], 0.1])
    def test_rejects_a_grid_that_is_not_1d(self, grid, receiver):
        message = f"need a nonempty 1-D grid of positive nbar values, got {np.asarray(grid)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sc.two_symbol_ratio_curve(grid, receiver)

    def test_rejects_unknown_receiver(self):
        with pytest.raises(ValueError, match="unknown receiver"):
            sc.two_symbol_ratio_curve([0.1], "helstrom")

    @pytest.mark.parametrize("receiver", ["structured", "mpe"])
    def test_ratio_holds_its_small_nbar_limit_down_to_1e_20(self, receiver):
        # I2 and C1 fall like nbar here, far below the output entropy's terms near 1
        i2, c1 = sc.two_symbol_ratio_curve([1e-10, 1e-12, 1e-16, 1e-20], receiver)
        ratio = i2 / c1
        assert np.all(np.abs(ratio[1:] - ratio[0]) <= 1e-6)

    def test_mpe_ratio_holds_its_limit_from_1e_30_down(self):
        # the small-nbar limit of I2/C1, 1.0265923682559768; above 1e-30 the ratio still
        # carries a term of about 7.2e-3 sqrt(nbar), 7.2e-13 at 1e-20, which the oracle
        # tests below resolve
        grid = np.geomspace(1e-300, 1e-30, 28)
        i2, c1 = sc.two_symbol_ratio_curve(grid, "mpe")
        ratio = i2 / c1
        assert np.all(np.abs(ratio - ratio[0]) <= 8 * EPS * ratio[0])
        assert abs(ratio[0] - 1.0265923682559768) <= 4 * EPS

    @pytest.mark.parametrize("receiver,oracle,ulps", [
        ("structured", two_symbol_structured_mp, 4),
        ("mpe", two_symbol_mpe_i2_mp, 8),
    ])
    def test_holds_below_1e_20(self, receiver, oracle, ulps):
        # neither receiver has a floor: one double under 1e-20 between 1e-3 and 0.1, against
        # the mpmath maximization over rows built apart from the package
        grid = [1e-3, np.nextafter(1e-20, 0.0), 0.1]
        i2, c1 = sc.two_symbol_ratio_curve(grid, receiver)
        for nbar, got in zip(grid, i2, strict=True):
            want = oracle(nbar)
            assert abs(got - want) <= ulps * EPS * want, nbar
        assert np.array_equal(c1, c1_bpsk_dolinar(np.array(grid)))

    @pytest.mark.parametrize("receiver", ["structured", "mpe"])
    def test_infinite_nbar_gives_half_log2_3(self, receiver):
        # the three codewords are then orthogonal, and the best priors are uniform
        half_log2_3 = float(mp.log(3, 2) / 2)
        i2, c1 = sc.two_symbol_ratio_curve([1e-3, np.inf], receiver)
        assert abs(i2[1] - half_log2_3) <= 2 * EPS * half_log2_3 and c1[1] == 1.0

    def test_mpe_where_the_states_nearly_merge(self):
        nbar = 1e-6
        (i2,), _ = sc.two_symbol_ratio_curve([nbar], "mpe")
        assert 0.0 < i2 <= holevo_bpsk(nbar)


class TestTwoSymbolMpeInformation:
    """The MPE receiver's MI at fixed priors, from the rows and their deviations,
    against the mpmath basis oracle at 40 + (-log10 nbar) digits."""

    @staticmethod
    def assert_within_8_eps(nbar, p):
        got = float(sc._two_symbol_mpe_information(np.array(nbar), np.array(p)))
        want = float(two_symbol_mpe_mp(nbar, p, dps=40 + max(0, int(-np.log10(nbar)))))
        assert abs(got - want) <= 8 * EPS * want

    @pytest.mark.parametrize("nbar", [1e-300, 1e-100, 1e-40, 1e-30, 1e-20, 1e-12, 1e-6])
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.33, 0.34, 0.4, 0.45, 0.472, 0.49])
    def test_where_the_states_merge(self, nbar, p):
        # rows near 1/2 and near 1 lose their O(sqrt nbar) deviations here: the route
        # through the rows alone is 16 to 4.5e15 eps off above p = 1/3
        self.assert_within_8_eps(nbar, p)

    @pytest.mark.parametrize("nbar", [1e-3, 0.1, 1.0, 3.0, 8.0, 10.0])
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.33, 0.34, 0.4, 0.45, 0.472, 0.49])
    def test_where_the_states_part(self, nbar, p):
        # off-diagonal entries fall to 1e-19 of q here, so P/q near 0 is taken from P
        self.assert_within_8_eps(nbar, p)

    def test_zero_priors_count_nothing(self):
        assert sc._two_symbol_mpe_information(np.array(0.1), np.array(0.0)) == 0.0
        got = float(sc._two_symbol_mpe_information(np.array(0.1), np.array(0.5)))
        assert abs(got - float(two_symbol_mpe_mp(0.1, 0.5))) <= 8 * EPS * got


class TestCapacityCurves:
    def test_hadamard_points_match_closed_form(self):
        grid = np.geomspace(1e-5, 1.0, 15)
        bits = sc.capacity_curves("hadamard_jdr", 4, grid)
        for nbar, b in zip(grid, bits, strict=True):
            assert b == pytest.approx(hadamard_jdr_capacity(4, nbar), abs=1e-12)

    def test_rm_gm_pie_saturates_to_m(self):
        for m in (1, 4, 7, 10):
            (bits,) = sc.capacity_curves("rm_gm", m, [1e-7])
            assert bits / 1e-7 == pytest.approx(m, rel=0.01)

    def test_rm_mpe_low_nbar_pie(self):
        (bits,) = sc.capacity_curves("rm_mpe", 3, [1e-7])
        assert bits / 1e-7 == pytest.approx(2.0 / LN2, rel=0.01)

    def test_families_below_holevo(self):
        grid = np.geomspace(1e-5, 1.0, 12)
        for family, m in (("hadamard_jdr", 3), ("rm_gm", 3), ("rm_mpe", 3)):
            bits = sc.capacity_curves(family, m, grid)
            assert np.all(bits <= holevo_bpsk(grid) + 1e-12)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            sc.capacity_curves("polar", 3, [0.1])

    @pytest.mark.parametrize("nbar", [0.0, -0.1])
    def test_rejects_nonpositive_nbar(self, nbar):
        with pytest.raises(ValueError, match="photon number must be > 0"):
            sc.capacity_curves("rm_gm", 3, [0.1, nbar])


class TestChannelValidation:
    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            DiscreteChannel(np.array([[0.6, 0.5]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            DiscreteChannel(np.array([[1.1, -0.1]]))

    @pytest.mark.parametrize("p", [[[np.nan, 1.0]], [[0.5, 0.5], [np.nan, np.nan]]])
    def test_rejects_nan_entries(self, p):
        with pytest.raises(ValueError):
            DiscreteChannel(np.array(p))

    def test_row_rule_bounds(self):
        # the package's one row rule: sums within ROW_SUM_TOL, entries >= NEG_ENTRY_TOL,
        # then clipped to >= 0
        ch = DiscreteChannel(np.array([[0.5, 0.5 + 5e-13], [-1e-16, 1.0]]))
        assert ch.p[1, 0] == 0.0
        with pytest.raises(ValueError, match="within 1e-12"):
            DiscreteChannel(np.array([[0.5, 0.5 + 2e-12]]))
        with pytest.raises(ValueError, match="negative"):
            DiscreteChannel(np.array([[-1e-14, 1.0 + 1e-14]]))

    @pytest.mark.parametrize("p", [np.array([0.5, 0.5]), np.full((2, 2, 2), 0.5)])
    def test_rejects_non_matrix(self, p):
        with pytest.raises(ValueError, match="2-D"):
            DiscreteChannel(p)

    def test_erasure_is_first_class(self):
        ch = bec(0.25)
        assert ch.p[:, 1].tolist() == [0.25, 0.25]    # the erasure column, kept as is
        cap, _ = sc.capacity_blahut_arimoto(ch)
        assert cap == pytest.approx(0.75, abs=1e-9)


class TestStackedMutualInformation:
    def test_stack_matches_each_channel(self):
        rng = np.random.default_rng(5)
        P = rng.random((4, 3, 5))
        P /= P.sum(axis=-1, keepdims=True)
        r = rng.random((4, 3))
        r /= r.sum(axis=-1, keepdims=True)
        stacked = sc._mutual_information(P, r)
        for k in range(4):
            ch = DiscreteChannel(P[k])
            assert stacked[k] == pytest.approx(mutual_information_direct(P[k], r[k]), abs=1e-12)
            assert stacked[k] == sc.mutual_information(ch, r[k])


class TestTwoSymbolCurveRows:
    @pytest.mark.parametrize("receiver", ["structured", "mpe"])
    def test_points_match_one_point_curves(self, receiver):
        grid = np.geomspace(1e-3, 2.0, 6)
        i2, c1 = sc.two_symbol_ratio_curve(grid, receiver)
        for k, nbar in enumerate(grid):
            (i2_alone,), (c1_alone,) = sc.two_symbol_ratio_curve([nbar], receiver)
            assert (i2[k], c1[k]) == (i2_alone, c1_alone)
