"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criteria with stated runtime budgets are timed.
"""

import time

import numpy as np
import pytest

from jdrcap import ber_sim, capacity_limits as cl, discrimination as disc
from jdrcap import link_budget as lb
from jdrcap import optics_sim as opt
from jdrcap import superchannel as sc
from jdrcap.codes import hadamard_code, rm1_code
from jdrcap.entropy import LN2

from oracles import dr_ber_lower_bound, exhaustive_dr_ber


def check(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_nbar_for_target_pie():
    t0 = time.perf_counter()
    nbar = cl.nbar_for_pie(10.0)
    elapsed = time.perf_counter() - t0
    ok = abs(nbar - 2.6582e-3) <= 1e-6 and elapsed < 1.0
    check(1, ok, f"nbar*(PIE=10) = {nbar:.7e} (target 2.6582e-3 +- 1e-6), {elapsed:.3f}s")


def test_criterion_02_link_example():
    t0 = time.perf_counter()
    n_r, nbar_star, modes = lb.required_modes(10.0, 5.0)
    params = lb.LinkParams.from_radii(1.55e-6, 1000.0, 0.07, 0.07, 2e8, n_r=0.5)
    power, rate = lb.power_and_rate(params, 10.0)
    elapsed = time.perf_counter() - t0
    ok = (modes == 189 and abs(power - 1.28e-11) <= 0.02 * 1.28e-11
          and rate == 1e9 and elapsed < 1.0)
    check(2, ok, f"M = {modes}, power = {power:.4e} W, rate = {rate:.0f} bit/s, "
                 f"{elapsed:.3f}s")


def test_criterion_03_c1_pie_asymptote():
    pie = cl.c1_bpsk_dolinar(1e-6) / 1e-6
    target = 2.0 / LN2
    ok = abs(pie - target) <= 0.01 * target
    check(3, ok, f"C1 PIE(1e-6) = {pie:.6f} vs 2/ln2 = {target:.6f}")


def test_criterion_04_two_symbol_ratios():
    t0 = time.perf_counter()
    grid = np.geomspace(1e-3, 2.0, 200)
    structured = max(np.divide(*sc.two_symbol_ratio_curve(grid, "structured")))
    mpe = max(np.divide(*sc.two_symbol_ratio_curve(grid, "mpe")))
    elapsed = time.perf_counter() - t0
    ok = (abs(structured - 1.0249) <= 0.003 and abs(mpe - 1.0266) <= 0.003
          and elapsed < 10.0)
    check(4, ok, f"max I2/C1: structured = {structured:.4f} (1.0249 +- 0.003), "
                 f"MPE = {mpe:.4f} (1.0266 +- 0.003), {elapsed:.1f}s")


def test_criterion_05_srm_oracle_for_mpe_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (1, 2, 3, 4):
        code = rm1_code(m)
        for nbar in np.geomspace(1e-3, 2.0, 20):
            ens = disc.gram_from_code(code, nbar)
            mi = sc.mutual_information(disc.srm_channel(ens), ens.priors) / 2 ** m
            worst = max(worst, abs(mi - cl.rm_mpe_capacity(m, nbar)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    check(5, ok, f"max |SRM MI - closed form| = {worst:.2e} over m=1..4, {elapsed:.1f}s")


def test_criterion_06_physical_channels_match_closed_forms():
    worst_had = worst_rm = 0.0
    for m in range(1, 9):
        for nbar in np.geomspace(1e-4, 1.0, 20):
            ch = opt.hadamard_jdr_channel(m, nbar)
            uni = np.full(ch.num_inputs, 1.0 / ch.num_inputs)
            mi = sc.mutual_information(ch, uni) / 2 ** m
            worst_had = max(worst_had, abs(mi - cl.hadamard_jdr_capacity(m, nbar)))
            ch = opt.rm_gm_jdr_channel(m, nbar)
            uni = np.full(ch.num_inputs, 1.0 / ch.num_inputs)
            mi = sc.mutual_information(ch, uni) / 2 ** m
            worst_rm = max(worst_rm, abs(mi - cl.rm_gm_jdr_capacity(m, nbar)))
    ok = worst_had <= 1e-12 and worst_rm <= 1e-12
    check(6, ok, f"DMC vs closed form: hadamard {worst_had:.2e}, rm_gm {worst_rm:.2e}")


def test_criterion_07_green_machine_ppm_and_energy():
    nbar = 0.35
    ppm_ok = True
    for m in range(1, 9):
        code = hadamard_code(m, with_ancilla=True)
        for k, amps in enumerate(code.amplitudes(np.sqrt(nbar))):
            out = opt.green_machine(amps)
            others = np.abs(np.delete(out, k))
            energy = abs(out[k]) ** 2
            if np.any(others >= 1e-12) or abs(energy / (2 ** m * nbar) - 1.0) > 1e-12:
                ppm_ok = False
    rng = np.random.default_rng(2024)
    worst_energy = 0.0
    for _ in range(1000):
        v = rng.normal(size=1024) + 1j * rng.normal(size=1024)
        out = opt.green_machine(v)
        e_in = float(np.sum(np.abs(v) ** 2))
        worst_energy = max(worst_energy,
                           abs(float(np.sum(np.abs(out) ** 2)) / e_in - 1.0))
    ok = ppm_ok and worst_energy <= 1e-12
    check(7, ok, f"PPM property m<=8 ok = {ppm_ok}, worst relative energy "
                 f"defect = {worst_energy:.2e} over 1000 random 1024-mode inputs")


def test_criterion_08_rm_gm_pie_saturation():
    worst = 0.0
    for m in range(2, 11):
        pie = cl.rm_gm_jdr_capacity(m, 1e-6) / 1e-6
        worst = max(worst, abs(pie - m) / m)
    ok = worst <= 0.02
    check(8, ok, f"max relative PIE deviation from m over m=2..10: {worst:.2e}")


def test_criterion_09_superadditivity_ordering():
    """Capacity ordering chain on 200-point grids.

    The sub-chain envelopes <= BPSK Holevo <= g holds over the full
    [1e-6, 10] range. The C1 <= envelope leg is a low-photon-number
    (superadditive-regime) statement: above nbar ~ 0.09 the symbol-by-symbol
    Dolinar capacity provably exceeds every Hadamard/RM family member, so
    that leg is checked on [1e-6, 0.03].
    """
    m_range = range(1, 11)

    def envelope(nbar):
        return nbar * max(cl.pie_envelope(nbar, "hadamard_jdr", m_range)[1],
                          cl.pie_envelope(nbar, "rm_gm", m_range)[1])

    violation = 0.0
    for nbar in np.geomspace(1e-6, 10.0, 200):
        env, hol, ult = envelope(nbar), cl.holevo_bpsk(nbar), cl.g(nbar)
        violation = max(violation, env - hol, hol - ult)
    for nbar in np.geomspace(1e-6, 0.03, 200):
        violation = max(violation, cl.c1_bpsk_dolinar(nbar) - envelope(nbar))
    ok = violation <= 1e-12
    check(9, ok, f"worst ordering violation = {violation:.2e} "
                 "(C1 leg on the superadditive window, rest global)")


def test_criterion_10_fig4b_ber_orderings():
    """JDR-vs-DR ordering, uncoded analytic identity, exhaustive agreement.

    The DR curve is Monte Carlo (trials >= 1e5, fixed seed). Where the true
    DR BER is far below one count in the sample (top of the nbar range, BER
    ~ 1e-10) no feasible trial count resolves it; there the ordering is
    certified against a rigorous analytic lower bound on the DR BER
    (Bonferroni over rival codewords, exact binomial terms) instead of the
    saturated estimator.
    """
    m = 8
    seed = 12345
    grid = np.geomspace(1e-3, 1e-1, 10)
    details = []
    ordering_ok = True
    for i, nbar in enumerate(grid):
        jdr = ber_sim.hadamard_jdr_ber(m, nbar)
        trials = 10 ** 6 if nbar > 4e-2 else 2 * 10 ** 5
        dr = ber_sim.hadamard_dr_ber(m, nbar, trials=trials, seed=seed + i)
        if dr.bit_errors > 0:
            point_ok = jdr < dr.ber
            details.append(f"nbar={nbar:.3e}: MC {jdr:.2e} < {dr.ber:.2e} {point_ok}")
        else:
            bound = dr_ber_lower_bound(m, nbar)
            point_ok = jdr < bound
            details.append(f"nbar={nbar:.3e}: analytic bound {jdr:.2e} < {bound:.2e} "
                           f"{point_ok} (MC saturated at 0/{dr.total_bits})")
        ordering_ok = ordering_ok and point_ok

    uncoded_ok = all(
        ber_sim.uncoded_bpsk_ber(nbar) == cl.dolinar_error_q(nbar)
        for nbar in grid)

    enumeration_ok = True
    for mm, nbar in ((3, 0.05), (4, 0.05), (4, 0.15)):
        exact = exhaustive_dr_ber(mm, nbar)
        pt = ber_sim.hadamard_dr_ber(mm, nbar, trials=10 ** 5, seed=seed)
        if abs(pt.ber - exact) > 3 * pt.stderr:
            enumeration_ok = False

    ok = ordering_ok and uncoded_ok and enumeration_ok
    check(10, ok, f"ordering at all 10 grid points = {ordering_ok}, uncoded "
                  f"analytic = {uncoded_ok}, m<=4 exhaustive within 3 sigma = "
                  f"{enumeration_ok}")
    for line in details:
        print("   ", line)


def test_criterion_11_mpe_solver_sanity():
    worst = 0.0
    monotone = True
    for overlap_sq in (0.0, 0.25, 0.5, 0.9, 1.0):
        gram = np.array([[1.0, np.sqrt(overlap_sq)], [np.sqrt(overlap_sq), 1.0]])
        for p1 in np.arange(0.1, 0.95, 0.1):
            ens = disc.PureStateEnsemble(gram=gram, priors=np.array([p1, 1.0 - p1]))
            result = disc.mpe_solve(ens)
            expected = disc.helstrom_binary(overlap_sq, p1, 1.0 - p1)
            worst = max(worst, abs((1.0 - result.success_probability) - expected))
            trace = result.success_trace
            if any(b < a for a, b in zip(trace, trace[1:])):
                monotone = False
    ok = worst <= 1e-10 and monotone
    check(11, ok, f"max |MPE - Helstrom| = {worst:.2e}, success trace "
                  f"nondecreasing = {monotone}")
