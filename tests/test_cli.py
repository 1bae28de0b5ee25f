import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jdrcap
from jdrcap import cli


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error_line(capsys, argv):
    """Run argv; assert exit 2 with one ``error: `` line on stderr and no stdout; return it."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def manifest_bytes(subcommand, params, seed, payload):
    """The manifest the CLI writes next to ``payload``."""
    return json.dumps({"subcommand": subcommand, "parameters": params, "seed": seed,
                       "version": jdrcap.__version__,
                       "output_sha256": hashlib.sha256(payload.encode()).hexdigest()},
                      indent=2, sort_keys=True) + "\n"


def written(tmp_path, argv):
    """Run argv with --out; return the payload and the manifest it wrote."""
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_text(), Path(f"{out}.manifest.json").read_text()


def with_flags(argv, flags):
    """A copy of argv with the values of the flags in ``flags`` (flag, value, ...) replaced."""
    argv = list(argv)
    for flag, value in zip(flags[::2], flags[1::2]):
        argv[argv.index(flag) + 1] = value
    return argv


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


class TestLimits:
    def test_default_shape(self, capsys):
        code, out, err = run(capsys, ["limits", "--points", "50"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["nbar", "ultimate", "holevo_bpsk", "c1_dolinar",
                          "hadamard_envelope", "rm_gm_envelope", "two_symbol"]
        assert rows.shape == (50, 7)
        manifest = json.loads(err)
        assert manifest["subcommand"] == "limits"
        assert len(manifest["output_sha256"]) == 64

    def test_ultimate_anchor_at_one_photon(self, capsys):
        code, out, _ = run(capsys, ["limits", "--nbar-min", "1", "--nbar-max", "10",
                                    "--points", "2", "--families", "ultimate"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0, 0] == 1.0
        assert rows[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_emitted_ordering_chain(self, capsys):
        # full four-way chain in the superadditive window; global sub-chain
        # envelope <= holevo <= ultimate holds over the whole default range
        code, out, _ = run(capsys, ["limits", "--nbar-min", "1e-6", "--nbar-max", "10",
                                    "--points", "60"])
        assert code == 0
        header, rows = parse_csv(out)
        col = {name: rows[:, i] for i, name in enumerate(header)}
        env = np.maximum(col["hadamard_envelope"], col["rm_gm_envelope"])
        assert np.all(env <= col["holevo_bpsk"] + 1e-12)
        assert np.all(col["holevo_bpsk"] <= col["ultimate"] + 1e-12)
        window = col["nbar"] <= 0.03
        assert np.all(col["c1_dolinar"][window] <= env[window] + 1e-12)

    def test_unknown_family_usage_error(self, capsys):
        usage_error_line(capsys, ["limits", "--families", "bogus"])

    @pytest.mark.parametrize("flags,families,m_max", [
        ([], ["ultimate", "holevo_bpsk", "c1_dolinar", "hadamard_envelope", "rm_gm_envelope",
              "two_symbol"], 10),
        (["--families", "two_symbol,ultimate", "--m-max", "4"], ["two_symbol", "ultimate"], 4),
    ])
    def test_manifest_bytes(self, tmp_path, flags, families, m_max):
        payload, manifest = written(tmp_path, ["limits", "--points", "3"] + flags)
        params = {"nbar_min": 1e-6, "nbar_max": 10.0, "points": 3, "families": families,
                  "m_max": m_max}
        assert manifest == manifest_bytes("limits", params, None, payload)

    def test_two_symbol_column_below_its_floor_usage_error(self, capsys):
        # the other columns hold there; the two-symbol one would print a PIE far short
        err = usage_error_line(capsys, ["limits", "--families", "holevo_bpsk,two_symbol",
                                        "--nbar-min", "1e-300", "--nbar-max", "1e-20",
                                        "--points", "2"])
        assert err == ("error: the two-symbol curve holds only from nbar = 1e-20 up, "
                       "got nbar = 1e-300\n")

    @pytest.mark.parametrize("argv", [["--nbar-min", "nan"], ["--m-max", "0"], ["--m-max", "11"]])
    def test_bad_input_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["limits"] + argv)
        assert excinfo.value.code == 2


class TestTradeoff:
    def test_paper_point_on_grid(self, capsys):
        code, out, _ = run(capsys, ["tradeoff", "--modes-list", "189",
                                    "--nr-min", "0.5", "--nr-max", "2",
                                    "--points", "3"])
        assert code == 0
        _, rows = parse_csv(out)
        first = rows[0]
        assert first[1] == 0.5
        assert first[2] == pytest.approx(5.0, abs=0.03)
        assert first[3] == pytest.approx(10.0, abs=0.05)

    def test_more_modes_dominate(self, capsys):
        code, out, _ = run(capsys, ["tradeoff", "--modes-list", "1,2",
                                    "--nr-min", "0.1", "--nr-max", "1",
                                    "--points", "5"])
        _, rows = parse_csv(out)
        one = rows[rows[:, 0] == 1]
        two = rows[rows[:, 0] == 2]
        # at every photon budget the 2-mode link carries more bits/sec/Hz at
        # higher PIE, so its PIE-vs-SE curve lies above the 1-mode curve
        assert np.all(two[:, 2] > one[:, 2])
        assert np.all(two[:, 3] > one[:, 3])

    def test_grid_endpoints_exact(self, capsys):
        code, out, _ = run(capsys, ["tradeoff", "--modes-list", "5",
                                    "--nr-min", "0.25", "--nr-max", "4",
                                    "--points", "7"])
        _, rows = parse_csv(out)
        assert rows[0, 1] == 0.25
        assert rows[-1, 1] == 4.0

    def test_zero_modes_usage_error(self, capsys):
        usage_error_line(capsys, ["tradeoff", "--modes-list", "0"])

    def test_bad_element_names_the_option(self, capsys):
        err = usage_error_line(capsys, ["tradeoff", "--modes-list", "2,x"])
        assert err.startswith("error: bad --modes-list '2,x'; ")

    def test_mode_count_beyond_a_double_usage_error(self, capsys):
        usage_error_line(capsys, ["tradeoff", "--modes-list", "1" + "0" * 400, "--points", "2"])

    def test_manifest_bytes(self, tmp_path):
        payload, manifest = written(tmp_path, ["tradeoff", "--modes-list", "1,0189",
                                               "--nr-max", "2", "--points", "2"])
        params = {"modes_list": [1, 189], "nr_min": 1e-3, "nr_max": 2.0, "points": 2}
        assert manifest == manifest_bytes("tradeoff", params, None, payload)


class TestSuperchannel:
    def test_rm_gm_family_pie_saturation(self, capsys):
        for m in (1, 5, 10):
            code, out, _ = run(capsys, ["superchannel", "--family", "rm_gm",
                                        "--m", str(m), "--nbar-min", "1e-7",
                                        "--nbar-max", "1e-5", "--points", "3"])
            assert code == 0
            _, rows = parse_csv(out)
            assert rows[0, 2] == pytest.approx(m, rel=0.01)

    def test_rm_mpe_low_nbar_pie(self, capsys):
        code, out, _ = run(capsys, ["superchannel", "--family", "rm_mpe", "--m", "4",
                                    "--nbar-min", "1e-7", "--nbar-max", "1e-5",
                                    "--points", "3"])
        _, rows = parse_csv(out)
        assert rows[0, 2] == pytest.approx(2.8854, rel=0.01)

    def test_rm_mpe_pie_at_1e_30_is_the_small_nbar_limit(self, capsys):
        # the PIE tends to 2/ln 2; at 1e-30 it is 2/ln 2 to within 1e-15 relative
        code, out, _ = run(capsys, ["superchannel", "--family", "rm_mpe", "--m", "1",
                                    "--nbar-min", "1e-30", "--nbar-max", "1e-6",
                                    "--points", "5"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0, 0] == 1e-30
        assert abs(rows[0, 2] - 2.0 / math.log(2.0)) <= 1e-14

    def test_two_symbol_ratio_column(self, capsys):
        code, out, _ = run(capsys, ["superchannel", "--family", "two_symbol",
                                    "--receiver", "structured",
                                    "--nbar-min", "1e-3", "--nbar-max", "2",
                                    "--points", "60"])
        header, rows = parse_csv(out)
        assert header == ["nbar", "bits_per_symbol", "pie", "c1", "ratio"]
        assert rows[:, 4].max() == pytest.approx(1.0249, abs=0.003)

    def test_missing_m_usage_error(self, capsys):
        usage_error_line(capsys, ["superchannel", "--family", "rm_gm"])

    @pytest.mark.parametrize("family,m", [("two_symbol", None), ("rm_mpe", 3)])
    def test_manifest_bytes(self, tmp_path, family, m):
        flags = [] if m is None else ["--m", str(m)]
        payload, manifest = written(tmp_path, ["superchannel", "--family", family,
                                               "--points", "2"] + flags)
        params = {"family": family, "m": m, "receiver": "structured", "nbar_min": 1e-6,
                  "nbar_max": 2.0, "points": 2}
        assert manifest == manifest_bytes("superchannel", params, None, payload)

    def test_unknown_family_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["superchannel", "--family", "turbo", "--m", "3"])
        assert excinfo.value.code == 2

    def test_two_symbol_mpe_at_default_nbar_min(self, capsys):
        code, out, _ = run(capsys, ["superchannel", "--family", "two_symbol",
                                    "--receiver", "mpe", "--nbar-min", "1e-6",
                                    "--nbar-max", "1e-5", "--points", "3"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows.shape == (3, 5) and np.all(np.isfinite(rows))

    def test_two_symbol_mpe_where_the_states_merge(self, capsys):
        code, out, _ = run(capsys, ["superchannel", "--family", "two_symbol",
                                    "--receiver", "mpe", "--nbar-min", "1e-12",
                                    "--nbar-max", "1e-3", "--points", "3"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows.shape == (3, 5) and np.all(np.isfinite(rows))

    @pytest.mark.parametrize("receiver", ["structured", "mpe"])
    def test_two_symbol_below_its_floor_usage_error(self, capsys, receiver):
        err = usage_error_line(capsys, ["superchannel", "--family", "two_symbol",
                                        "--receiver", receiver, "--nbar-min", "9e-21",
                                        "--nbar-max", "1e-3", "--points", "3"])
        assert err == ("error: the two-symbol curve holds only from nbar = 1e-20 up, "
                       "got nbar = 9e-21\n")

    @pytest.mark.parametrize("family", ["hadamard_jdr", "rm_gm", "rm_mpe"])
    def test_m_out_of_range_usage_error(self, capsys, family):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["superchannel", "--family", family, "--m", "11"])
        assert excinfo.value.code == 2


class TestBer:
    def test_fixed_seed_byte_identical(self, tmp_path):
        args = ["ber", "--m", "3", "--points", "3", "--nbar-min", "1e-2",
                "--nbar-max", "1e-1", "--trials", "10000", "--seed", "42"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["seed"] == 42

    def test_columns_and_stderr_positive(self, capsys):
        code, out, _ = run(capsys, ["ber", "--m", "3", "--points", "3",
                                    "--nbar-min", "5e-3", "--nbar-max", "5e-2",
                                    "--trials", "10000", "--seed", "7"])
        header, rows = parse_csv(out)
        assert header == ["nbar", "uncoded_dr", "hadamard_dr",
                          "hadamard_dr_stderr", "hadamard_jdr"]
        assert np.all(rows[:, 3] > 0)

    def test_generated_seed_reported(self, capsys):
        code, out, err = run(capsys, ["ber", "--m", "2", "--points", "2",
                                      "--trials", "10000"])
        assert code == 0
        assert "generated seed" in err

    def test_rejects_thin_trials(self, capsys):
        usage_error_line(capsys, ["ber", "--trials", "9999", "--seed", "1"])

    def test_usage_error_before_generated_seed(self, capsys):
        # the seed is reported only once the run gets past its usage errors
        usage_error_line(capsys, ["ber", "--trials", "9999"])

    @pytest.mark.parametrize("seed", ["42", None])
    def test_manifest_bytes(self, capsys, tmp_path, seed):
        flags = [] if seed is None else ["--seed", seed]
        payload, manifest = written(tmp_path, ["ber", "--m", "2", "--points", "2",
                                               "--trials", "10000"] + flags)
        err = capsys.readouterr().err
        if seed is None:
            assert err.startswith("generated seed: ") and err.count("\n") == 1
            seed = err.removeprefix("generated seed: ")
        else:
            assert err == ""
        params = {"m": 2, "nbar_min": 1e-3, "nbar_max": 0.1, "points": 2, "trials": 10000}
        assert manifest == manifest_bytes("ber", params, int(seed), payload)

    def test_unwritable_out_fails_before_the_monte_carlo(self, capsys, monkeypatch, tmp_path):
        # with a generated seed, a run that reached the write printed the seed line too
        def unexpected(*args):
            raise AssertionError("the Monte Carlo ran")

        monkeypatch.setattr(cli, "hadamard_dr_ber", unexpected)
        err = usage_error_line(capsys, ["ber", "--m", "2", "--points", "2", "--trials", "10000",
                                        "--out", str(tmp_path / "missing" / "x.csv")])
        assert err.startswith("error: cannot write --out ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("m", ["0", "11"])
    def test_m_out_of_range_usage_error(self, capsys, m):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["ber", "--m", m, "--points", "2", "--trials", "10000"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("seed", ["-1", str(-2 ** 63)])
    def test_negative_seed_usage_error(self, capsys, seed):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["ber", "--seed", seed, "--points", "2", "--trials", "10000"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "--seed" in captured.err


class TestLink:
    ARGS = ["link", "--wavelength", "1.55e-6", "--range", "1000",
            "--radii", "0.07", "--slot-rate", "2e8", "--pie", "10", "--se", "5"]

    def test_paper_example(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        report = json.loads(out)
        assert report["modes_required"] == 189
        assert report["power_watts"] == pytest.approx(1.28e-11, rel=0.02)
        assert report["rate_bps"] == 1e9
        assert report["n_r"] == 0.5
        assert "regime_warning" not in report

    def test_manifest_bytes(self, capsys, tmp_path):
        payload, manifest = written(tmp_path, self.ARGS)
        params = {"wavelength": 1.55e-6, "range": 1000.0, "radii": "0.07", "areas": None,
                  "slot_rate": 2e8, "pie": 10.0, "se": 5.0}
        assert manifest == manifest_bytes("link", params, None, payload)

    def test_far_field_warning_exit_zero(self, capsys):
        argv = ["link", "--wavelength", "1.55e-6", "--range", "1.0",
                "--areas", "1.55e-6,1.55e-6", "--slot-rate", "1e6",
                "--pie", "2", "--se", "2"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        assert report["fresnel_number"] == pytest.approx(1.0)
        assert "regime_warning" in report

    def test_missing_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["link", "--wavelength", "1.55e-6"])
        assert excinfo.value.code == 2

    def test_radii_and_areas_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(self.ARGS + ["--areas", "0.01"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("pie", ["0", "nan", "1e4"])
    def test_bad_pie_usage_error(self, capsys, pie):
        # 1e4 bits per photon needs an nbar below the smallest double
        with pytest.raises(SystemExit) as excinfo:
            cli.main(self.ARGS[:-4] + ["--pie", pie, "--se", "5"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flags", [["--pie", "0"], ["--radii", "-0.07"],
                                       ["--radii", "0.07,-0.07"], ["--radii", "0"]])
    def test_value_error_one_line(self, capsys, flags):
        usage_error_line(capsys, with_flags(self.ARGS, flags))

    @pytest.mark.parametrize("flag,value", [("--radii", "x"), ("--radii", "0.07,x"),
                                            ("--areas", "1,x")])
    def test_bad_element_names_the_option(self, capsys, flag, value):
        argv = self.ARGS[:5] + [flag, value] + self.ARGS[7:]
        err = usage_error_line(capsys, argv)
        assert err.startswith(f"error: bad {flag} {value!r}; ")

    @pytest.mark.parametrize("flags", [["--pie", "1e-310", "--se", "1e-310"],
                                       ["--radii", "-0.07"]])
    def test_usage_error_exits_in_time(self, flags):
        # a separate process, so that a bisection that never ends fails the test
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-m", "jdrcap"] + with_flags(self.ARGS, flags),
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    @pytest.mark.parametrize("flag,value", [("--wavelength", "nan"), ("--se", "inf"),
                                            ("--range", "inf"), ("--radii", "nan")])
    def test_non_finite_usage_error(self, capsys, flag, value):
        argv = list(self.ARGS)
        argv[argv.index(flag) + 1] = value
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""


class TestNumericalFailure:
    @pytest.mark.parametrize("argv", [
        # the received power overflows a double
        ["link", "--wavelength", "1.55e-6", "--range", "1000", "--radii", "0.07",
         "--slot-rate", "1e200", "--pie", "1", "--se", "1e300"],
        # inf / inf: the Fresnel number product is NaN
        ["link", "--wavelength", "1e200", "--range", "1e200", "--areas", "1e200",
         "--slot-rate", "1e-300", "--pie", "1e-300", "--se", "1e-300"],
    ])
    def test_link_overflow_exits_3(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flags,quantity", [
        # (lambda L)^2 overflows, then underflows to 0
        (["--wavelength", "1e100", "--range", "1e100"], "Fresnel number product"),
        (["--wavelength", "1e-100", "--range", "1e-100"], "Fresnel number product"),
        # N_R = SE / PIE overflows
        (["--pie", "1e-300", "--se", "1e300"], "required mode count"),
        # pi r^2 overflows
        (["--radii", "1e300"], "aperture area"),
    ])
    def test_link_failure_names_the_quantity(self, capsys, flags, quantity):
        code, out, err = run(capsys, with_flags(TestLink.ARGS, flags))
        assert code == 3 and out == ""
        assert err.startswith(f"numerical failure: {quantity}") and err.count("\n") == 1

    @pytest.mark.parametrize("error", [
        ArithmeticError("measurement rows sum to 1 +- 1e-06, beyond 1e-08"),
        ZeroDivisionError("float division by zero"),
    ])
    def test_arithmetic_error_exits_3(self, capsys, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli.superchannel, "two_symbol_ratio_curve", fail)
        code, out, err = run(capsys, ["superchannel", "--family", "two_symbol",
                                      "--points", "2"])
        assert code == 3 and out == ""
        assert err == f"numerical failure: {error}\n"

    def test_consistency_error_exits_3(self, capsys, monkeypatch):
        from jdrcap.capacity_limits import ConsistencyError

        def fail(*args, **kwargs):
            raise ConsistencyError("gamma^2 - 4^m p0^2 < 0")

        monkeypatch.setitem(cli.capacity_limits.CLOSED_FORMS, "rm_mpe", fail)
        code, out, err = run(capsys, ["superchannel", "--family", "rm_mpe", "--m", "3",
                                      "--points", "2"])
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1


class TestDeterminism:
    def test_limits_rerun_byte_identical(self, tmp_path):
        args = ["limits", "--points", "10", "--families", "ultimate,c1_dolinar"]
        a, b = tmp_path / "x.csv", tmp_path / "y.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        ma = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        mb = json.loads((tmp_path / "y.csv.manifest.json").read_text())
        assert ma["output_sha256"] == mb["output_sha256"]

    def test_runs_sharing_one_parser_byte_identical(self, tmp_path):
        # the parser is built once per process; no run may leave state in it for the next
        ber = ["ber", "--m", "2", "--points", "2", "--trials", "10000", "--seed", "3"]
        limits = ["limits", "--points", "3", "--families", "ultimate"]
        first = written(tmp_path, ber)
        payload, manifest = written(tmp_path, limits)
        assert written(tmp_path, ber) == first
        assert cli.build_parser() is cli.build_parser()
        params = {"nbar_min": 1e-6, "nbar_max": 10.0, "points": 3, "families": ["ultimate"],
                  "m_max": 10}
        assert manifest == manifest_bytes("limits", params, None, payload)
        ber_params = {"m": 2, "nbar_min": 1e-3, "nbar_max": 0.1, "points": 2, "trials": 10000}
        assert first[1] == manifest_bytes("ber", ber_params, 3, first[0])


# argument values at and beyond the documented edges, as the shell passes them;
# valid values come three times as often as invalid ones, so that most
# command lines get past parsing and into the numerics
VALID_FLOATS = ("0.5", "1e-300", "1e-3", "2", "1e200", "1e300")
EDGE_FLOATS = VALID_FLOATS * 3 + ("0", "-1", "nan", "inf", "-inf")
VALID_RANGES = (("1e-3", "2"), ("1e-300", "1e-3"), ("1e-300", "1e300"), ("0.5", "1e300"),
                ("2", "1e200"), ("1e200", "1e300"))
EDGE_RANGES = VALID_RANGES * 3 + (("0", "1"), ("-1", "2"), ("nan", "1"), ("1", "inf"),
                                  ("-inf", "1"), ("2", "1e-3"), ("0.5", "0.5"))
EDGE_POINTS = ("2", "3") * 3 + ("-1", "0", "1")
EDGE_M = tuple(str(m) for m in range(12))
# below the PIE of the largest double, where no finite nbar meets the target
LINK_FLOATS = EDGE_FLOATS + ("1e-310",)


@st.composite
def cli_argv(draw, sub):
    """One command line of subcommand ``sub``; grids hold at most 3 points."""
    edge = lambda values: draw(st.sampled_from(values))  # noqa: E731
    (lo, hi), points = edge(EDGE_RANGES), edge(EDGE_POINTS)
    grid = ["--nbar-min", lo, "--nbar-max", hi, "--points", points]
    if sub == "limits":
        families = edge((None, "two_symbol", "ultimate,c1_dolinar", "rm_gm_envelope", "bogus"))
        return (["limits", "--m-max", edge(EDGE_M)] + grid
                + ([] if families is None else ["--families", families]))
    if sub == "tradeoff":
        modes = edge(("1,189", "1", "0", "-1", "2,x", "1" + "0" * 400))
        return ["tradeoff", "--modes-list", modes, "--nr-min", lo, "--nr-max", hi,
                "--points", points]
    if sub == "superchannel":
        m = edge((None,) + EDGE_M)
        family = edge(("hadamard_jdr", "rm_gm", "rm_mpe", "two_symbol"))
        return (["superchannel", "--family", family,
                 "--receiver", edge(("structured", "mpe"))] + grid
                + ([] if m is None else ["--m", m]))
    if sub == "ber":
        return (["ber", "--m", edge(EDGE_M), "--trials", edge(("10000",) * 3 + ("9999", "-1")),
                 "--seed", edge(("0", "7") * 3 + ("-1",))] + grid)
    return ["link", "--wavelength", edge(LINK_FLOATS), "--range", edge(LINK_FLOATS),
            edge(("--radii", "--areas")), edge(LINK_FLOATS + ("0.07,1e300", "1,2,3")),
            "--slot-rate", edge(LINK_FLOATS), "--pie", edge(LINK_FLOATS),
            "--se", edge(LINK_FLOATS)]


def emitted_numbers(argv, out):
    if argv[0] == "link":
        return [v for v in json.loads(out).values() if not isinstance(v, str)]
    return [float(v) for line in out.strip().split("\n")[1:] for v in line.split(",")]


class TestContractProperty:
    """The documented CLI contract over every subcommand's edge arguments:
    exit 0, 2 or 3 with no traceback, nothing on stdout with a usage error,
    and only finite numbers in a successful output."""

    @pytest.mark.parametrize("sub", ["limits", "tradeoff", "superchannel", "ber"])
    @pytest.mark.parametrize("points", ["1", "10001"])
    def test_points_beyond_the_bounds_usage_error(self, capsys, sub, points):
        family = ["--family", "rm_gm", "--m", "3"] if sub == "superchannel" else []
        with pytest.raises(SystemExit) as excinfo:
            cli.main([sub, *family, "--points", points])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2 and captured.out == ""
        assert "error: argument --points: " in captured.err

    @pytest.mark.parametrize("target", ["missing/out.csv", "taken"])
    def test_unwritable_out_usage_error(self, capsys, tmp_path, target):
        (tmp_path / "taken").mkdir()
        err = usage_error_line(capsys, ["limits", "--points", "2", "--families", "ultimate",
                                        "--out", str(tmp_path / target)])
        assert err.startswith("error: cannot write --out ")
        assert [p.name for p in tmp_path.rglob("*")] == ["taken"]

    @pytest.mark.parametrize("sub", ["limits", "tradeoff", "superchannel", "ber", "link"])
    @given(data=st.data())
    @settings(max_examples=100, derandomize=True, database=None)
    def test_exit_codes_and_outputs(self, sub, data):
        argv = data.draw(cli_argv(sub))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
        if code == 0:
            assert all(map(math.isfinite, emitted_numbers(argv, out.getvalue())))


def test_import_loads_no_scipy():
    # scipy took about half a second of every cold start; the package needs numpy alone
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import sys, jdrcap.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
