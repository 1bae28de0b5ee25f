"""superchannel refuses the options its family would ignore, rather than record them."""

import pytest

from jdrcap import cli


@pytest.mark.parametrize("argv,message", [
    (["--family", "rm_gm", "--m", "3", "--receiver", "mpe"],
     "--receiver mpe needs --family two_symbol"),
    (["--family", "rm_mpe", "--m", "3", "--receiver", "mpe"],
     "--receiver mpe needs --family two_symbol"),
    (["--family", "two_symbol", "--m", "7"], "--family two_symbol takes no --m"),
], ids=["rm_gm-receiver", "rm_mpe-receiver", "two_symbol-m"])
def test_an_option_the_family_ignores_is_a_usage_error(capsys, tmp_path, argv, message):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["superchannel", *argv, "--points", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []
