import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdrcap import capacity_limits as cl
from jdrcap.entropy import LN2

from oracles import (
    c1_dolinar_mp,
    f_mp,
    g_mp,
    gauss_legendre_f,
    holevo_bpsk_mp,
    rm_gm_mp,
    rm_mpe_mp,
)

# high-precision scalar recomputations (mpmath, 40 digits) frozen for the tests
HOLEVO_BPSK_AT_0P1 = 0.43858456767415076
F_AT_1 = 0.28114373604616659
PAPER_NBAR_STAR = 2.6582e-3
EPS = np.finfo(float).eps   # one ulp of 1.0

# f(b) check grid; b = 2^m nbar in [15.8, 25] is where adaptive quadrature
# of the integral was off by up to 1.4e-8
B_HARD = (15.8, 16.0, 17.0, 18.0, 20.0, 25.0)
# f_integral switches forms at b = ln 2 (a = 1/2); a = e^{-b} turns subnormal
# past b = 708 and underflows to 0 past 745
B_SWITCH = (np.nextafter(LN2, 0.0), LN2, np.nextafter(LN2, 1.0))
B_FAR = (100.0, 700.0, 745.0, 800.0, 1e4, np.inf)
F_GRID = np.concatenate([np.geomspace(1e-8, 60.0, 400), B_HARD, B_SWITCH, B_FAR])

# every closed form that takes an nbar array; m = 7 puts the band where the
# paper's rm_mpe c^2 is subnormal (2^m nbar ~ 354-372) and full underflow on the grid
NBAR_POS = np.concatenate([np.geomspace(1e-7, 30.0, 80), [2.894]])
NBAR_ALL = np.concatenate([[0.0], NBAR_POS])
ARRAY_CLOSED_FORMS = pytest.mark.parametrize("fn,grid", [
    pytest.param(fn, grid, id=getattr(fn, "func", fn).__name__) for fn, grid in [
        (cl.g, NBAR_ALL),
        (cl.pie_ultimate, NBAR_POS),
        (cl.holevo_bpsk, NBAR_ALL),
        (cl.dolinar_error_q, NBAR_ALL),
        (cl.c1_bpsk_dolinar, NBAR_ALL),
        (cl.f_integral, NBAR_ALL),
        (partial(cl.hadamard_jdr_capacity, 7), NBAR_ALL),
        (partial(cl.rm_gm_outcome_probs, 7), NBAR_ALL),
        (partial(cl.rm_gm_jdr_capacity, 7), NBAR_ALL),
        (partial(cl.rm_mpe_capacity, 7), NBAR_ALL),
        (partial(cl.pie_envelope, family="rm_gm", m_range=range(1, 11)), NBAR_POS),
    ]])


class TestArrayValued:
    @ARRAY_CLOSED_FORMS
    def test_array_matches_scalar_calls_bitwise(self, fn, grid):
        per_point = [fn(x) for x in grid]
        whole = fn(grid)
        if isinstance(whole, tuple):
            for k, column in enumerate(whole):
                assert column.shape == grid.shape
                assert np.array_equal(column, [p[k] for p in per_point])
                assert all(type(p[k]) in (float, int) for p in per_point)
        else:
            assert whole.shape == grid.shape
            assert np.array_equal(whole, per_point)
            assert all(type(p) is float for p in per_point)

    @ARRAY_CLOSED_FORMS
    def test_rejects_nan(self, fn, grid):
        with pytest.raises(ValueError):
            fn(np.nan)
        with pytest.raises(ValueError):
            fn(np.array([0.1, np.nan, 1.0]))


class TestG:
    def test_limit_convention_at_zero(self):
        assert cl.g(0.0) == 0.0

    def test_one_photon(self):
        assert cl.g(1.0) == pytest.approx(2.0, abs=1e-15)

    def test_paper_pie_anchor(self):
        # ten error-free bits per photon at the paper's nbar
        assert cl.g(PAPER_NBAR_STAR) / PAPER_NBAR_STAR == pytest.approx(10.0, abs=1e-3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cl.g(-1e-9)

    def test_infinity(self):
        assert cl.g(np.inf) == np.inf
        assert list(cl.g(np.array([1.0, np.inf]))) == [cl.g(1.0), np.inf]

    def test_matches_mpmath_from_1e_minus_300_to_1e300(self):
        # (1+n)log2(1+n) - n log2 n lost 2.8e-5 at n = 1e12 and was NaN past 2.5e305;
        # both forms in phi sum terms >= 0, so a few roundings bound the error
        grid = np.geomspace(1e-300, 1e300, 200)
        for n, got in zip(grid, cl.g(grid), strict=True):
            want = g_mp(n)
            assert abs(got - want) <= 4 * EPS * want, n


class TestPieUltimate:
    def test_anchors(self):
        assert cl.pie_ultimate(1.0) == pytest.approx(2.0, abs=1e-15)
        assert cl.pie_ultimate(PAPER_NBAR_STAR) == pytest.approx(10.0, abs=1e-3)

    def test_monotone_spot(self):
        assert cl.pie_ultimate(1e-4) > cl.pie_ultimate(1e-3)

    @given(st.floats(min_value=1e-8, max_value=1e2))
    def test_strictly_decreasing(self, nbar):
        assert cl.pie_ultimate(nbar) > cl.pie_ultimate(nbar * 1.01)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cl.pie_ultimate(0.0)

    def test_infinity(self):
        assert cl.pie_ultimate(np.inf) == 0.0
        assert list(cl.pie_ultimate(np.array([1.0, np.inf]))) == [cl.pie_ultimate(1.0), 0.0]


def in_time(code):
    """Stdout of ``code`` run by a fresh interpreter that must finish within 60 s."""
    src = Path(cl.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
                          check=True).stdout


class TestNbarForPie:
    def test_paper_value(self):
        assert cl.nbar_for_pie(10.0) == pytest.approx(PAPER_NBAR_STAR, abs=1e-6)

    def test_inverse_of_g_at_one(self):
        assert cl.nbar_for_pie(2.0) == pytest.approx(1.0, rel=1e-9)

    def test_round_trip_oracle(self):
        nbar = cl.nbar_for_pie(1.0)
        assert cl.pie_ultimate(nbar) == pytest.approx(1.0, rel=1e-9)

    @given(st.floats(min_value=0.05, max_value=30.0))
    @settings(max_examples=30)
    def test_round_trip_identity(self, pie):
        nbar = cl.nbar_for_pie(pie)
        assert cl.pie_ultimate(nbar) == pytest.approx(pie, rel=1e-8)

    @given(st.floats(min_value=1e-6, max_value=50.0))
    @settings(max_examples=30)
    def test_inverse_composition_is_identity(self, nbar):
        assert cl.nbar_for_pie(cl.pie_ultimate(nbar)) == pytest.approx(nbar, rel=1e-8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cl.nbar_for_pie(0.0)

    @pytest.mark.parametrize("pie", [np.nan, np.inf])
    def test_rejects_nan_and_inf(self, pie):
        with pytest.raises(ValueError):
            cl.nbar_for_pie(pie)

    def test_targets_beyond_the_doubles_raise_in_time(self):
        # no finite nbar meets these targets; a separate process with a timeout
        # turns a bisection that never ends into a failure
        done = in_time("from jdrcap.capacity_limits import nbar_for_pie\n"
                       "for pie in (1e-307, 1e-310, 1076.0):\n"
                       "    try:\n"
                       "        nbar_for_pie(pie)\n"
                       "    except ValueError as exc:\n"
                       "        print(exc)\n")
        assert done.count("target PIE must lie in") == 3

    def test_extreme_targets_end_in_time(self):
        # near the largest double the bracket must stay finite; among the subnormals
        # the bisection must stop once the bracket is two adjacent doubles
        done = in_time("import numpy as np\n"
                       "from jdrcap.capacity_limits import nbar_for_pie, pie_ultimate\n"
                       "for pie in (6e-306, 1060.0, 1070.0):\n"
                       "    nbar = nbar_for_pie(pie)\n"
                       "    print(pie_ultimate(nbar) / pie - 1.0,\n"
                       "          pie_ultimate(np.nextafter(nbar, 0.0)) >= pie\n"
                       "          >= pie_ultimate(np.nextafter(nbar, np.inf)))\n")
        (large, _), *subnormal = (line.split() for line in done.splitlines())
        assert abs(float(large)) < 1e-8
        assert [bracketed for _, bracketed in subnormal] == ["True", "True"]


class TestHolevoBpsk:
    def test_endpoints(self):
        assert cl.holevo_bpsk(0.0) == 0.0
        assert cl.holevo_bpsk(20.0) == pytest.approx(1.0, abs=1e-9)

    def test_independent_scalar_evaluation(self):
        assert cl.holevo_bpsk(0.1) == pytest.approx(HOLEVO_BPSK_AT_0P1, abs=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cl.holevo_bpsk(-0.1)

    def test_matches_mpmath_from_1e_minus_300_to_1e5(self):
        # the two terms of H_b(q) ln 2 = [q - phi(-q)] - q ln q are >= 0 for q <= 1/2
        grid = np.geomspace(1e-300, 1e5, 200)
        want = np.array([float(holevo_bpsk_mp(n)) for n in grid])
        assert np.all(np.abs(cl.holevo_bpsk(grid) - want) <= 4 * EPS * want)
        assert cl.holevo_bpsk(np.inf) == 1.0


class TestDolinarErrorQ:
    def test_indistinguishable_states(self):
        assert cl.dolinar_error_q(0.0) == 0.5

    def test_half_overlap_substitution(self):
        # e^{-4 nbar} = 1/2 at nbar = ln(2)/4
        assert cl.dolinar_error_q(np.log(2.0) / 4.0) == pytest.approx(
            (1.0 - np.sqrt(0.5)) / 2.0, abs=1e-15)

    def test_helstrom_oracle(self):
        from jdrcap.discrimination import helstrom_binary
        for nbar in (1e-4, 0.01, 0.3, 2.0):
            expected = helstrom_binary(np.exp(-4.0 * nbar), 0.5, 0.5)
            assert cl.dolinar_error_q(nbar) == pytest.approx(expected, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=10.0))
    def test_strictly_decreasing(self, nbar):
        assert cl.dolinar_error_q(nbar) >= cl.dolinar_error_q(nbar + 0.01)


class TestC1Dolinar:
    def test_zero_photons(self):
        assert cl.c1_bpsk_dolinar(0.0) == 0.0

    def test_limits(self):
        assert cl.c1_bpsk_dolinar(np.inf) == 1.0
        assert cl.c1_bpsk_dolinar(5e-324) > 0.0

    def test_matches_mpmath_from_1e_minus_300_to_1e5(self):
        # 1 - H_b(q) cancels as q -> 1/2: 15% off at nbar = 1e-16 and 0 from 1e-20;
        # symmetric_split is second order in x = 1 - 2q and does not
        grid = np.geomspace(1e-300, 1e5, 200)
        for n, got in zip(grid, cl.c1_bpsk_dolinar(grid), strict=True):
            want = c1_dolinar_mp(n)
            assert abs(got - want) <= 4 * EPS * want, n

    def test_low_nbar_pie_cap(self):
        pie = cl.c1_bpsk_dolinar(1e-6) / 1e-6
        assert 0.99 * (2.0 / LN2) <= pie <= 2.0 / LN2

    def test_blahut_arimoto_oracle(self):
        from jdrcap.dmc import DiscreteChannel
        from jdrcap.superchannel import capacity_blahut_arimoto
        for nbar in (0.01, 0.1, 0.5):
            q = cl.dolinar_error_q(nbar)
            bsc = DiscreteChannel(np.array([[1 - q, q], [q, 1 - q]]))
            cap, _ = capacity_blahut_arimoto(bsc)
            assert cl.c1_bpsk_dolinar(nbar) == pytest.approx(cap, abs=1e-9)


class TestFIntegral:
    def test_empty_interval(self):
        assert cl.f_integral(0.0) == 0.0

    def test_saturation(self):
        assert cl.f_integral(50.0) == pytest.approx(0.5, abs=1e-6)
        assert cl.f_integral(np.inf) == 0.5

    def test_quad_is_a_placeholder(self):
        # the benchmark's tracer still counts calls through capacity_limits.quad; that
        # importing the package loads no scipy is test_cli.py::test_import_loads_no_scipy
        assert cl.quad is None

    def test_dual_quadrature_oracle_at_one(self):
        got = cl.f_integral(1.0)
        fixed_rule = gauss_legendre_f(1.0)
        assert got == pytest.approx(fixed_rule, abs=1e-10)
        assert got == pytest.approx(F_AT_1, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=60.0))
    @settings(max_examples=60)
    def test_bound_by_click_probability(self, b):
        f = cl.f_integral(b)
        assert 0.0 <= f <= (1.0 - np.exp(-b)) / 2.0 + 1e-15

    def test_monotone_on_grid(self):
        grid = np.geomspace(1e-3, 30.0, 40)
        vals = [cl.f_integral(b) for b in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cl.f_integral(-0.5)

    def test_matches_mpmath_on_grid(self):
        ref = np.array([float(f_mp(b, 60)) for b in F_GRID])
        err = np.abs(cl.f_integral(F_GRID) - ref)
        assert np.all(err <= 2.2e-16)
        assert np.all(err <= 8 * EPS * ref)

    @pytest.mark.parametrize("b", [1e-8, 1e-3, 0.5, 17.0, 60.0])
    def test_elliptic_oracle_is_the_integral(self, b):
        with mp.workdps(40):
            a = mp.exp(-mp.mpf(b))
            direct = mp.quad(lambda x: mp.sqrt(1 - (a / x) ** 4), [a, 1]) / 2
            assert abs(direct - f_mp(b)) <= mp.mpf("1e-25") * direct


class TestHadamardJdrCapacity:
    def test_zero_photons(self):
        assert cl.hadamard_jdr_capacity(3, 0.0) == 0.0

    def test_low_nbar_pie(self):
        pie = cl.hadamard_jdr_capacity(3, 1e-6) / 1e-6
        assert pie == pytest.approx(3.0, rel=0.01)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            cl.hadamard_jdr_capacity(0, 0.1)


class TestRmGmJdrCapacity:
    def test_zero_photons(self):
        assert cl.rm_gm_jdr_capacity(2, 0.0) == 0.0

    def test_low_nbar_pie(self):
        pie = cl.rm_gm_jdr_capacity(4, 1e-6) / 1e-6
        assert pie == pytest.approx(4.0, rel=0.02)

    def test_outcome_probs_normalized(self):
        for m in (1, 4, 8):
            for nbar in np.geomspace(1e-6, 2.0, 12):
                p_plus, p_minus, p0 = cl.rm_gm_outcome_probs(m, nbar)
                assert p_plus + p_minus + p0 == pytest.approx(1.0, abs=1e-12)
                assert p_minus >= 0.0

    @pytest.mark.parametrize("m", [1, 3, 8, 10])
    def test_matches_mpmath_where_quadrature_failed(self, m):
        for b in B_HARD:
            nbar = b / 2 ** m
            assert cl.rm_gm_jdr_capacity(m, nbar) == pytest.approx(
                float(rm_gm_mp(m, nbar)), abs=1e-12)


class TestRmMpeCapacity:
    @pytest.mark.parametrize("m,nbar", [(7, 2.894), (8, 1.438), (9, 0.724), (10, 0.3576)])
    def test_subnormal_c2_matches_mpmath(self, m, nbar):
        # the paper's c^2 is a subnormal double here, which its closed form loses digits to
        assert cl.rm_mpe_capacity(m, nbar) == pytest.approx(float(rm_mpe_mp(m, nbar)), abs=1e-12)

    def test_large_nbar_limit(self):
        for m in (1, 2, 3, 4):
            assert cl.rm_mpe_capacity(m, 30.0) == pytest.approx(
                (m + 1) / 2 ** m, abs=1e-6)

    def test_srm_oracle(self):
        # geometric uniformity makes the SRM the MPE measurement here
        from jdrcap.codes import rm1_code
        from jdrcap.discrimination import gram_from_code, srm_channel
        from jdrcap.superchannel import mutual_information
        for m in (1, 2, 3, 4):
            code = rm1_code(m)
            for nbar in np.geomspace(1e-3, 2.0, 8):
                ens = gram_from_code(code, nbar)
                mi = mutual_information(srm_channel(ens), ens.priors) / 2 ** m
                assert cl.rm_mpe_capacity(m, nbar) == pytest.approx(mi, abs=1e-9)

    def test_low_nbar_pie_matches_dolinar_cap(self):
        # symbol-by-symbol MPE efficiency, ~2.89 bits/photon
        for m in (2, 3, 4):
            pie = cl.rm_mpe_capacity(m, 1e-7) / 1e-7
            assert pie == pytest.approx(2.0 / LN2, rel=0.01)


# both are free of cancellation, so both hold relative bounds; rm_mpe sums three
# phi terms of amplitudes that each take a few roundings
@pytest.mark.parametrize("closed_form,oracle,rel", [
    (cl.rm_gm_jdr_capacity, rm_gm_mp, 4 * EPS),
    (cl.rm_mpe_capacity, rm_mpe_mp, 16 * EPS)], ids=["rm_gm", "rm_mpe"])
def test_rm_families_match_mpmath_over_the_cli_range(closed_form, oracle, rel):
    # every code order the CLI takes and its nbar range; rm_gm_mp shares no f(b) with the package
    nbar = np.geomspace(1e-6, 10.0, 29)
    for m in range(1, 11):
        ref = np.array([float(oracle(m, x)) for x in nbar])
        assert np.all(np.abs(closed_form(m, nbar) - ref) <= rel * ref), m


@pytest.mark.parametrize("m", [1, 2, 4, 7, 10])
def test_rm_mpe_matches_mpmath_down_to_1e_30(m):
    # the capacity is about (2/ln 2) nbar here; 80 digits leave the oracle's c^2 form
    # some 50 to spare at 1e-30
    nbar = np.geomspace(1e-30, 1e-6, 25)
    ref = np.array([float(rm_mpe_mp(m, x, dps=80)) for x in nbar])
    assert np.all(np.abs(cl.rm_mpe_capacity(m, nbar) - ref) <= 16 * EPS * ref)


@pytest.mark.parametrize("cap", [cl.rm_gm_jdr_capacity, cl.rm_mpe_capacity])
def test_rm_capacities_reject_code_order_zero(cap):
    with pytest.raises(ValueError, match="need m >= 1"):
        cap(0, 0.1)


class TestPieEnvelope:
    def test_matches_exhaustive_scan(self):
        for family, cap in (("hadamard_jdr", cl.hadamard_jdr_capacity),
                            ("rm_gm", cl.rm_gm_jdr_capacity)):
            for nbar in (1e-5, 1e-3, 0.1, 1.0, 5.0):
                m_star, pie = cl.pie_envelope(nbar, family, range(1, 11))
                brute = max((cap(m, nbar) / nbar, -m) for m in range(1, 11))
                assert pie == brute[0]
                assert m_star == -brute[1]

    def test_rm_gm_large_nbar_prefers_smallest(self):
        m_star, _ = cl.pie_envelope(5.0, "rm_gm", range(1, 11))
        assert m_star == 1

    def test_rm_gm_beats_hadamard_at_low_nbar(self):
        _, pie_rm = cl.pie_envelope(1e-4, "rm_gm", range(1, 11))
        _, pie_had = cl.pie_envelope(1e-4, "hadamard_jdr", range(1, 11))
        assert pie_rm >= pie_had

    def test_envelope_below_holevo(self):
        for nbar in np.geomspace(1e-6, 10.0, 25):
            _, pie = cl.pie_envelope(nbar, "rm_gm", range(1, 11))
            assert pie <= cl.holevo_bpsk(nbar) / nbar + 1e-12

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            cl.pie_envelope(0.1, "hadamard_jdr", [])

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family 'polar'"):
            cl.pie_envelope(0.1, "polar", range(1, 4))


class TestTradeoffCurve:
    def test_paper_link_point(self):
        (se,), (pie,) = cl.tradeoff_curve(189, [0.5])
        assert pie == pytest.approx(10.0, abs=0.05)
        assert se == pytest.approx(5.0, abs=0.03)

    def test_scale_invariance(self):
        _, (a,) = cl.tradeoff_curve(100, [0.7])
        _, (b,) = cl.tradeoff_curve(200, [1.4])
        assert a == pytest.approx(b, rel=1e-12)

    def test_pie_decreasing_in_photon_budget(self):
        _, pies = cl.tradeoff_curve(10, np.geomspace(0.01, 10, 20))
        assert all(x > y for x, y in zip(pies, pies[1:]))

    @pytest.mark.parametrize("modes", [0, 10 ** 400], ids=["0", "10**400"])
    def test_rejects_mode_counts_outside_a_double(self, modes):
        with pytest.raises(ValueError):
            cl.tradeoff_curve(modes, [1.0])

    def test_infinite_budget_pie_is_zero(self):
        se, pie = cl.tradeoff_curve(2, [1.0, np.inf])
        assert pie[1] == 0.0 and se[1] == np.inf
        assert pie[0] == pytest.approx(cl.pie_ultimate(0.5), rel=1e-15)


class TestOrderingInvariant:
    """Capacity ordering chain, checked on the spec's log grid.

    The C1 <= envelope leg holds only in the superadditive (low photon
    number) regime; at nbar above roughly 0.09 symbol-by-symbol Dolinar
    detection provably beats every Hadamard/RM receiver in these families,
    so that leg is asserted on [1e-6, 0.03] while the rest of the chain is
    asserted on the full [1e-6, 10].
    """

    M_RANGE = range(1, 11)

    def _envelope(self, nbar):
        return max(cl.pie_envelope(nbar, "hadamard_jdr", self.M_RANGE)[1],
                   cl.pie_envelope(nbar, "rm_gm", self.M_RANGE)[1]) * nbar

    def test_envelope_holevo_ultimate_chain_full_grid(self):
        for nbar in np.geomspace(1e-6, 10.0, 60):
            env = self._envelope(nbar)
            holevo = cl.holevo_bpsk(nbar)
            assert env <= holevo + 1e-12
            assert holevo <= cl.g(nbar) + 1e-12

    def test_c1_below_envelope_in_superadditive_window(self):
        for nbar in np.geomspace(1e-6, 0.03, 60):
            assert cl.c1_bpsk_dolinar(nbar) <= self._envelope(nbar) + 1e-12


def test_every_bpsk_capacity_lies_below_the_bpsk_holevo_bound_from_1e_minus_300():
    # every code here is a BPSK code, so on the whole span the CLI accepts each capacity
    # lies in [0, holevo_bpsk], up to round-off (rm_mpe at m = 1 meets the bound at large
    # nbar), and holevo_bpsk <= g, where the two agree to first order at small nbar
    nbar = np.geomspace(1e-300, 1e3, 241)
    holevo = cl.holevo_bpsk(nbar)
    assert np.all(holevo <= cl.g(nbar))
    caps = [cl.c1_bpsk_dolinar(nbar)] + [cap(m, nbar) for cap in cl.CLOSED_FORMS.values()
                                         for m in range(1, 11)]
    for cap in caps:
        assert np.all(np.isfinite(cap) & (cap >= 0.0) & (cap <= (1.0 + 8 * EPS) * holevo))
    pie = np.array([cl.rm_mpe_capacity(m, 1e-30) for m in range(1, 11)]) / 1e-30
    assert np.all(np.abs(pie - 2.0 / LN2) <= 1e-14)
