"""Tests of the benchmark itself: its checks catch corrupted outputs, its
report names every metric in BENCHMARK.json, and its references agree with
direct evaluations.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

from jdrcap import cli, optics_sim  # noqa: E402
from jdrcap.codes import hadamard_code, ml_decode_hard, rm1_code  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def rm_mpe_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures") / "rm_mpe_m2.csv"
    assert cli.main(["superchannel", "--family", "rm_mpe", "--m", "2", "--nbar-min", "1e-6",
                     "--nbar-max", "2", "--points", "60", "--out", str(out)]) == 0
    return {out.name: out.read_bytes(),
            out.name + ".manifest.json": Path(str(out) + ".manifest.json").read_bytes()}


def counted(results):
    return checks.tally(list(results))


def test_clean_curve_passes(rm_mpe_files):
    check = checks.check_rm_curve("rm_mpe", 2, rm_mpe_files["rm_mpe_m2.csv"])
    assert check.ok
    assert counted(checks.check_manifests(rm_mpe_files)) == (1, 0, True)


def test_perturbed_csv_value_is_counted_failed(rm_mpe_files):
    payload = rm_mpe_files["rm_mpe_m2.csv"].decode().splitlines()
    cells = payload[30].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-9))
    cells[2] = repr(float(cells[1]) / float(cells[0]))     # keep pie consistent
    payload[30] = ",".join(cells)
    corrupted = ("\n".join(payload) + "\n").encode()
    check = checks.check_rm_curve("rm_mpe", 2, corrupted)
    assert not check.ok and check.fault is None
    assert counted([check]) == (1, 1, False)
    files = dict(rm_mpe_files, **{"rm_mpe_m2.csv": corrupted})
    assert counted(checks.check_manifests(files)) == (1, 1, False)


def test_off_by_one_decode_is_counted_failed():
    code = rm1_code(4)
    rng = np.random.default_rng(0)
    word = code.codewords[5] ^ (rng.random(code.n) < 0.1)
    decoded = ml_decode_hard(code, word)
    assert checks.check_decode(0, "rm1", 4, code.codewords, word, decoded).ok
    bad = checks.check_decode(0, "rm1", 4, code.codewords, word, decoded + 1)
    assert counted([bad]) == (1, 1, False)


def test_known_decode_fault_is_attributed():
    code = hadamard_code(1)
    word = np.array([1], dtype=np.uint8)
    decoded = ml_decode_hard(code, word)
    result = checks.check_decode(1, "hadamard", 1, code.codewords, word, decoded)
    assert not result.ok and result.fault == "decode_n1"
    assert counted([result]) == (1, 1, True)


def test_broken_row_sum_is_counted_failed():
    m, nbar = 3, 0.05
    had = optics_sim.hadamard_jdr_channel(m, nbar)
    rm = optics_sim.rm_gm_jdr_channel(m, nbar)
    uniform = np.full(had.num_inputs, 1.0 / had.num_inputs)
    from jdrcap.superchannel import mutual_information
    outputs = ((had.p, mutual_information(had, uniform)),
               (rm.p, mutual_information(rm, np.full(rm.num_inputs, 1.0 / rm.num_inputs))))
    assert counted(checks.check_channels(m, nbar, *outputs)) == (4, 0, True)
    broken = had.p.copy()
    broken[2, 2] += 1e-6                                   # row 2 no longer sums to 1
    results = checks.check_channels(m, nbar, (broken, outputs[0][1]), outputs[1])
    assert counted(results) == (4, 1, False)


def test_report_names_every_benchmark_metric():
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    e2e = run.end_to_end(1.0, {"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0})
    assert {k: u for k, (_, u) in e2e.items()} == units
    layers = dict(Tracer().metrics(), **{"trace.overhead_s": 0.0})
    reported = {k: u for k, (_, u) in run.per_layer({"layers": layers}).items()}
    assert reported == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_tracer_counts_calls_and_restores_the_package():
    from jdrcap import capacity_limits, superchannel
    original = capacity_limits.rm_gm_jdr_capacity
    tracer = Tracer()
    tracer.install()
    try:
        superchannel.capacity_curves("rm_gm", 3, [0.1, 0.2])
    finally:
        tracer.uninstall()
    assert capacity_limits.rm_gm_jdr_capacity is original
    assert superchannel._CLOSED_FORMS["rm_gm"] is original
    metrics = tracer.metrics()
    assert metrics["capacity_limits.f_integral.calls"] == 2
    assert metrics["kernels.quad.calls"] == 2
    spans = {tracer.names[i]: parent for i, _, _, parent in tracer.spans}
    assert spans["superchannel.capacity_curves"] == -1
    assert spans["capacity_limits.f_integral"] >= 0


def test_rm_mpe_fault_is_attributed_only_within_the_subnormal_error():
    from jdrcap.capacity_limits import rm_mpe_capacity
    m, nbar = 9, 0.724                       # c^2 is subnormal; the package is 5e-5 off
    value = rm_mpe_capacity(m, nbar)
    assert not checks.close(value, ref.rm_mpe(m, nbar))
    assert checks._rm_mpe_explained(m, nbar, value)
    assert not checks._rm_mpe_explained(m, nbar, 0.0)
    assert not checks._rm_mpe_explained(m, nbar, value + 0.01)
    assert not checks._rm_mpe_explained(m, 0.1, rm_mpe_capacity(m, 0.1))  # c^2 normal


@pytest.mark.parametrize("m", [1, 4, 9])
@pytest.mark.parametrize("nbar", [1e-3, 0.05, 0.5])
def test_c2_closed_form_matches_the_character_route(m, nbar):
    assert abs(ref.rm_mpe_c2_form(m, nbar) - ref.rm_mpe(m, nbar)) < mp.mpf(10) ** -30


@pytest.mark.parametrize("nbar, p", [(0.001, 0.33), (0.05, 0.2), (0.3, 0.45), (1.5, 0.1)])
def test_symmetric_basis_is_the_minimum_error_measurement(nbar, p):
    """No orthonormal basis of the span beats the symmetric one, and the
    package's iterative solve does not either."""
    from scipy.optimize import minimize
    from scipy.spatial.transform import Rotation

    from jdrcap import discrimination
    from jdrcap.codes import two_symbol_code

    success, channels = ref.two_symbol_mpe_channels(nbar, p)
    priors = np.array([1 - 2 * p, p, p])
    assert np.allclose(channels[0].sum(axis=1), 1.0, atol=1e-12)
    assert abs(priors @ np.diag(channels[0]) - success[0]) < 1e-12
    psi = ref._two_symbol_states(nbar)[0]

    def minus_success(angles):
        basis = Rotation.from_rotvec(angles).as_matrix()
        return -float(priors @ np.einsum("id,di->i", psi, basis) ** 2)

    rng = np.random.default_rng(7)
    best = min(minimize(minus_success, rng.normal(size=3), method="Nelder-Mead",
                        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 20000}).fun
               for _ in range(12))
    assert -best <= success[0] + 1e-12
    gram = discrimination.gram_from_code(two_symbol_code(), nbar).gram
    solve = discrimination.mpe_solve(discrimination.PureStateEnsemble(gram=gram, priors=priors))
    assert solve.success_probability <= success[0] + 1e-12


def test_two_symbol_mpe_curve_check(tmp_path):
    out = tmp_path / "two_symbol_mpe.csv"
    assert cli.main(["superchannel", "--family", "two_symbol", "--receiver", "mpe",
                     "--nbar-min", "1e-3", "--nbar-max", "2", "--points", "40",
                     "--out", str(out)]) == 0
    payload = out.read_bytes()
    assert counted(checks.check_two_symbol("mpe", payload)) == (3, 0, True)
    lines = payload.decode().splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) - 5e-8)               # a solve stopped early
    lines[5] = ",".join(cells)
    results = checks.check_two_symbol("mpe", ("\n".join(lines) + "\n").encode())
    assert [c.name for c in results if not c.ok] == ["two_symbol_mpe:columns",
                                                       "two_symbol_mpe:i2"]


def test_mpe_audit_counts_a_bad_solve():
    from dataclasses import replace

    from audit import MpeAudit
    from tracer import observing

    from jdrcap import discrimination
    from jdrcap.codes import rm1_code

    original = discrimination.mpe_solve
    gram = discrimination.gram_from_code(rm1_code(2), 0.1).gram
    weighted = discrimination.PureStateEnsemble(
        gram=gram, priors=np.array([0.4, 0.3, 0.2, 0.1, 0, 0, 0, 0]))
    audit = MpeAudit()
    with observing("discrimination", "mpe_solve", audit):
        good = discrimination.mpe_solve(weighted)
    assert discrimination.mpe_solve is original
    assert audit.solves == 1 and counted([checks.check_mpe_audit(audit)]) == (1, 0, True)
    audit((weighted,), replace(good, success_trace=(0.5, 0.4)))          # trace decreases
    audit((weighted,), replace(good, success_probability=0.1))           # below the SRM
    assert audit.bad == 2
    assert counted([checks.check_mpe_audit(audit)]) == (1, 1, False)


def test_workloads_take_the_argument_lists_of_the_reproduce_script():
    import workloads
    argv, out = workloads.reproduce_argv(fast=True)
    assert len(argv) == 26 and [a[0] for a in argv[:2]] == ["limits", "tradeoff"]
    assert all(any(a.startswith(out) for a in cmd) for cmd in argv)
    assert not Path(out).exists()
    ber = workloads.ber_workload(5).argv
    assert len(ber) == 1 and ber[0][ber[0].index("--trials") + 1] == "200000"
    assert ber[0][ber[0].index("--seed") + 1] == "5"


@pytest.mark.parametrize("b", [1e-6, 1e-3, 0.7, 5.0, 17.0, 40.0])
def test_elliptic_f_matches_direct_quadrature(b):
    with mp.workdps(40):
        a = mp.exp(-mp.mpf(b))
        direct = mp.quad(lambda x: mp.sqrt(1 - (a / x) ** 4), [a, 1]) / 2
        assert abs(ref.f_elliptic(b) - direct) < mp.mpf(10) ** -30


@pytest.mark.parametrize("m", [1, 3, 6])
def test_srm_amplitudes_are_a_probability_row(m):
    a0, ae, ac = ref.rm_srm_amplitudes(m, 0.05)
    assert abs(a0 ** 2 + ae ** 2 + (2 ** (m + 1) - 2) * ac ** 2 - 1) < mp.mpf(10) ** -30


def test_dr_bounds_bracket_the_exhaustive_block_error():
    # m = 3: 7-symbol blocks, every flip pattern enumerated
    m, nbar = 3, 0.05
    code = hadamard_code(m)
    q = float(ref.dolinar_q(nbar))
    patterns = (np.arange(2 ** code.n)[:, None] >> np.arange(code.n)) & 1
    weight = patterns.sum(axis=1)
    prob = q ** weight * (1 - q) ** (code.n - weight)
    wrong = sum(p for p, pat in zip(prob, patterns)
                if ml_decode_hard(code, pat.astype(np.uint8)) != 0)
    lower, upper = ref.dr_block_error_bounds(m, nbar)
    assert lower <= wrong <= upper


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
