import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def tree(root, csv_text, manifest):
    root.mkdir()
    (root / "curve.csv").write_text(csv_text)
    (root / "curve.csv.manifest.json").write_text(json.dumps(manifest))
    return root


def report(monkeypatch, capsys, old, new):
    monkeypatch.setattr("sys.argv", ["compare_outputs.py", str(old), str(new)])
    assert compare_outputs.main() == 0
    return capsys.readouterr().out.splitlines()


MANIFEST = {"output_sha256": "a", "parameters": {"points": 3}}


def test_identical_trees(tmp_path, monkeypatch, capsys):
    text = "nbar,bits\n0.1,0.5\n0.2,0.25\n"
    old = tree(tmp_path / "old", text, MANIFEST)
    new = tree(tmp_path / "new", text, MANIFEST)
    assert report(monkeypatch, capsys, old, new) == [
        "curve.csv: byte-identical", "curve.csv.manifest.json: byte-identical"]


def test_column_deltas_and_manifest_keys(tmp_path, monkeypatch, capsys):
    old = tree(tmp_path / "old", "nbar,bits\n0.1,0.5\n0.2,0.25\n0.3,2.0\n", MANIFEST)
    new = tree(tmp_path / "new", "nbar,bits\n0.1,0.5\n0.2,0.5\n0.3,3.0\n",
               {"output_sha256": "b", "parameters": {"points": 4}})
    (new / "extra.csv").write_text("x\n1\n")
    assert report(monkeypatch, capsys, old, new) == [
        "curve.csv:",
        "  nbar: identical",
        "  bits: max abs 1 (row 3), max rel 1 (row 2)",
        "curve.csv.manifest.json:",
        "  parameters.points: 3 -> 4",
        f"extra.csv: only in {new}"]


def test_manifest_differing_only_in_its_digest(tmp_path, monkeypatch, capsys):
    old = tree(tmp_path / "old", "x\n1.0\n", MANIFEST)
    new = tree(tmp_path / "new", "x\n1.0000000000000002\n", dict(MANIFEST, output_sha256="b"))
    assert report(monkeypatch, capsys, old, new) == [
        "curve.csv:", "  x: max abs 2.22e-16 (row 1), max rel 2.22e-16 (row 1)",
        "curve.csv.manifest.json:", "  only output_sha256 differs"]


def test_missing_tree_is_a_usage_error(tmp_path, monkeypatch):
    monkeypatch.setattr("sys.argv", ["compare_outputs.py", str(tmp_path), str(tmp_path / "no")])
    with pytest.raises(SystemExit) as excinfo:
        compare_outputs.main()
    assert excinfo.value.code == 2
