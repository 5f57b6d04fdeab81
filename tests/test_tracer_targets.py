"""The traced benchmark run wraps cvmb functions by name.

``perfbench/tracing.py`` lists them in ``CALL_LAYERS``.  A layer whose
first target no longer resolves is reported missing and its metrics are
lost while the run still passes, so a rename in the package must be
matched there.  This test catches that on the package side.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def call_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CALL_LAYERS


def resolve(target):
    module_name, _, path = target.partition(":")
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("layer", call_layers(), ids=lambda layer: layer[0])
def test_call_layer_targets_resolve(layer):
    name, target, aliases, _ = layer
    assert callable(resolve(target)), f"{name}: {target}"
    for alias in aliases:
        assert callable(resolve(alias)), f"{name}: {alias}"
