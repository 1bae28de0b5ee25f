import json

import numpy as np
import pytest

from jdrcap import cli


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["limits", "--families", "bogus"])
        assert excinfo.value.code == 2

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
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["tradeoff", "--modes-list", "0"])
        assert excinfo.value.code == 2


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

    def test_two_symbol_ratio_column(self, capsys):
        code, out, _ = run(capsys, ["superchannel", "--family", "two_symbol",
                                    "--receiver", "structured",
                                    "--nbar-min", "1e-3", "--nbar-max", "2",
                                    "--points", "60"])
        header, rows = parse_csv(out)
        assert header == ["nbar", "bits_per_symbol", "pie", "c1", "ratio"]
        assert rows[:, 4].max() == pytest.approx(1.0249, abs=0.003)

    def test_missing_m_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["superchannel", "--family", "rm_gm"])
        assert excinfo.value.code == 2

    def test_unknown_family_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["superchannel", "--family", "turbo", "--m", "3"])
        assert excinfo.value.code == 2

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
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["ber", "--trials", "100"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("m", ["0", "11"])
    def test_m_out_of_range_usage_error(self, capsys, m):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["ber", "--m", m, "--points", "2", "--trials", "10000"])
        assert excinfo.value.code == 2


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
