"""Every program name the traced benchmark wraps must still exist.

``perfbench/layers.py`` wraps program functions by ``(owner, attribute)``;
a rename in ``src/`` would only surface when someone runs a traced
benchmark.  Building both target lists here makes it a test failure.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

# perfbench is a top-level directory of the repository, not an installed
# package.
ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
layers = importlib.import_module("perfbench.layers")


@pytest.mark.parametrize("group", ["core_and_ilp", "engine_and_explore"])
def test_every_wrapped_name_resolves(group):
    targets = getattr(layers, group)()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _ in targets
        if not callable(getattr(owner, attribute, None))
    ]
    assert missing == []
