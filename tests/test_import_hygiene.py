"""The package imports with only its declared runtime dependency (NumPy)."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import repro

#: Blocks the optional and undeclared packages, then imports every module.
SCRIPT = textwrap.dedent(
    """
    import importlib, pkgutil, sys
    sys.modules["networkx"] = None
    sys.modules["scipy"] = None
    import repro
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    """
)


def test_every_module_imports_without_scipy_or_networkx():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
