"""The CLI's number options: one rule reads each and words every refusal alike."""

import pytest

from jdrcap import cli


@pytest.mark.parametrize("argv,message", [
    (["limits", "--points", "x"], "argument --points: need 2..10000 grid points, got 'x'"),
    (["limits", "--m-max", "x"], "argument --m-max: need a code order in 1..10, got 'x'"),
    (["limits", "--nbar-min", "x"], "argument --nbar-min: need a finite number, got 'x'"),
    (["ber", "--seed", "x"], "argument --seed: need a seed >= 0, got 'x'"),
    (["ber", "--seed", "1.5"], "argument --seed: need a seed >= 0, got '1.5'"),
    (["ber", "--trials", "1e4"], "argument --trials: need at least 10000 trials, got '1e4'"),
], ids=["points", "m-max", "nbar-min", "seed", "seed-fraction", "trials"])
def test_text_that_is_not_a_number_is_refused_in_the_options_terms(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


def test_thin_trials_are_refused_in_the_same_words(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["ber", "--trials", "5000", "--seed", "1"])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == ""
    assert captured.err.startswith("error: need at least 10000 trials")
    assert captured.err.count("\n") == 1
