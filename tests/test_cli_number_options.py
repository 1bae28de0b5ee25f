"""The CLI's number options: one rule reads each and words every refusal alike."""

import pytest

from jdrcap import cli


@pytest.mark.parametrize("argv,message", [
    (["limits", "--points", "x"], "argument --points: need 2..10000 grid points, got 'x'"),
    (["limits", "--m-max", "x"], "argument --m-max: need a code order in 1..10, got 'x'"),
    (["limits", "--nbar-min", "x"], "argument --nbar-min: need a finite number, got 'x'"),
    (["ber", "--seed", "x"], "argument --seed: need a seed >= 0, got 'x'"),
    (["ber", "--seed", "1.5"], "argument --seed: need a seed >= 0, got '1.5'"),
], ids=["points", "m-max", "nbar-min", "seed", "seed-fraction"])
def test_text_that_is_not_a_number_is_refused_in_the_options_terms(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")
