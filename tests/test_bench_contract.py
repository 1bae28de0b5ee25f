"""The package surface that perfbench's tracer wraps by name.

perfbench/tracer.py wraps the functions and classes in its ``LAYERS`` table
by looking each one up on ``jdrcap.<layer>``. A name deleted from the
package would make every traced benchmark run fail, so these tests pin the
table against the package, and check that installing and removing the
tracer leaves the package exactly as it was.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402

import jdrcap.cli  # noqa: E402,F401  (loads every layer module)


@pytest.mark.parametrize("layer", sorted(tracer.LAYERS))
def test_every_wrapped_name_resolves(layer):
    module = importlib.import_module(f"jdrcap.{layer}")
    missing = [name for name in tracer.LAYERS[layer] if not hasattr(module, name)]
    assert missing == []


def _package_state():
    """Every jdrcap module attribute, dict entry and class __post_init__, by identity."""
    state = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if not mod_name.startswith("jdrcap") or mod is None:
            continue
        for key, value in vars(mod).items():
            state[mod_name, key] = value
            if isinstance(value, dict):
                for k, v in value.items():
                    state[mod_name, key, k] = v
            elif isinstance(value, type) and "__post_init__" in vars(value):
                state[mod_name, key, "__post_init__"] = vars(value)["__post_init__"]
    return state


def _changed(before, after):
    return [key for key in before if key not in after or after[key] is not before[key]]


def test_install_then_uninstall_restores_the_package():
    before = _package_state()
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    t = tracer.Tracer()
    t.install()
    try:
        assert _changed(before, _package_state()) != []     # the tracer did wrap something
    finally:
        t.uninstall()
    assert _changed(before, _package_state()) == []
    assert np.linalg.eigh is eigh and np.linalg.eigvalsh is eigvalsh
