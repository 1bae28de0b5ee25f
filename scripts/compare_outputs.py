#!/usr/bin/env python3
"""Compare two output trees of scripts/reproduce_figures.py, file by file.

For each file it prints "byte-identical" or what differs:

    CSV            each column's max abs and max rel delta, with the data row
                   (1-based, header excluded) where each occurs
    JSON payload   the same for each numeric value, keyed by its path
    manifest       every key whose value differs, other than output_sha256

Files found in only one tree are named. The script reports and never
judges: it exits 0 whatever differs, and 2 only on a usage error.

Usage: python scripts/compare_outputs.py OLD NEW
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

MANIFEST = ".manifest.json"


def _flat(value, path=""):
    """The leaves of nested JSON as {path: value}."""
    if isinstance(value, dict):
        return {k: v for key in value for k, v in _flat(value[key], f"{path}.{key}").items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value) for k, v in _flat(item, f"{path}[{i}]").items()}
    return {path.lstrip("."): value}


def _deltas(old, new):
    """(max abs, its row, max rel, its row) over aligned float arrays; NaN equals only NaN."""
    both_nan = np.isnan(old) & np.isnan(new)
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.where(both_nan, 0.0, np.abs(new - old))
        diff = np.where(np.isnan(diff), np.inf, diff)
        rel = np.where(diff == 0, 0.0, diff / np.abs(old))
    i, j = int(np.argmax(diff)), int(np.argmax(rel))
    return diff[i], i + 1, rel[j], j + 1


def _numbers(cells):
    """cells as a float array, or None if any is not a number."""
    try:
        return np.array([float(c) for c in cells])
    except ValueError:
        return None


def compare_csv(old, new):
    with open(old, newline="") as f:
        a = list(csv.reader(f))
    with open(new, newline="") as f:
        b = list(csv.reader(f))
    if a[:1] != b[:1]:
        return [f"header {a[:1]} -> {b[:1]}"]
    if len(a) != len(b):
        return [f"{len(a) - 1} -> {len(b) - 1} data rows"]
    lines = []
    for k, name in enumerate(a[0]):
        x, y = [row[k] for row in a[1:]], [row[k] for row in b[1:]]
        if x == y:
            lines.append(f"{name}: identical")
            continue
        fx, fy = _numbers(x), _numbers(y)
        if fx is None or fy is None:
            lines.append(f"{name}: {sum(u != v for u, v in zip(x, y))} rows differ (not numeric)")
            continue
        d, i, r, j = _deltas(fx, fy)
        lines.append(f"{name}: max abs {d:.3g} (row {i}), max rel {r:.3g} (row {j})")
    return lines


def compare_json(old, new, manifest):
    a, b = _flat(json.loads(old.read_text())), _flat(json.loads(new.read_text()))
    lines = []
    for key in sorted(a.keys() | b.keys()):
        u, v = a.get(key, "<absent>"), b.get(key, "<absent>")
        if u == v or (manifest and key == "output_sha256"):
            continue
        numeric = all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in (u, v))
        if numeric and not manifest:
            d, _, r, _ = _deltas(np.array([u], float), np.array([v], float))
            lines.append(f"{key}: max abs {d:.3g}, max rel {r:.3g}")
        else:
            lines.append(f"{key}: {u!r} -> {v!r}")
    if manifest and not lines:
        lines.append("only output_sha256 differs")
    return lines


def compare(old, new):
    if old.read_bytes() == new.read_bytes():
        return ["byte-identical"]
    if old.name.endswith(MANIFEST):
        return compare_json(old, new, manifest=True)
    if old.suffix == ".json":
        return compare_json(old, new, manifest=False)
    if old.suffix == ".csv":
        return compare_csv(old, new)
    return ["differs (no column reader for this file type)"]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args()
    for tree in (args.old, args.new):
        if not tree.is_dir():
            ap.error(f"{tree} is not a directory")
    names = sorted({p.relative_to(tree).as_posix() for tree in (args.old, args.new)
                    for p in tree.rglob("*") if p.is_file()})
    for name in names:
        old, new = args.old / name, args.new / name
        if not (old.is_file() and new.is_file()):
            print(f"{name}: only in {args.old if old.is_file() else args.new}")
            continue
        lines = compare(old, new)
        if lines == ["byte-identical"]:
            print(f"{name}: byte-identical")
        else:
            print(f"{name}:")
            for line in lines:
                print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
