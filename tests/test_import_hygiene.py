"""The package imports with only its declared runtime dependency (NumPy),
and loads SciPy only where a solve or a long-lived process needs it.

Every check runs in a fresh interpreter: ``sys.modules`` of the test
process has long seen SciPy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.ilp import highs_available

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

#: A map of Table 3 point 4, whose global ILP needs LPs in the tree.
MAP_WITH_LPS = """
from repro.bench.designpoints import default_design_points
from repro.core.pipeline import MemoryMapper
design, board = default_design_points()[3].build(seed=0)
stats = MemoryMapper(board).map(design).solve_stats
print(json.dumps({"backend": stats["backend"], "lp_solves": stats["lp_solves"],
                  "scipy": "scipy.optimize" in sys.modules}))
"""

#: A map that presolve and propagation settle without a single LP.
MAP_WITHOUT_LPS = """
from repro.arch import hierarchical_board
from repro.core.pipeline import MemoryMapper
from repro.design import image_pipeline_design
stats = MemoryMapper(hierarchical_board()).map(image_pipeline_design()).solve_stats
print(json.dumps({"backend": stats["backend"], "lp_solves": stats["lp_solves"],
                  "scipy": "scipy" in sys.modules}))
"""


def _src() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run(script: str, block_scipy: bool = False, first_on_path: str = ""):
    """Run ``script`` in a fresh interpreter; its last stdout line as JSON."""
    prelude = "import json, sys\n"
    if block_scipy:
        prelude += 'sys.modules["scipy"] = None\n'
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (first_on_path, _src()))))
    done = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(script)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_module_imports_without_scipy_or_networkx():
    env = dict(os.environ, PYTHONPATH=_src())
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_the_cli_loads_neither_scipy_nor_the_service_layers():
    loaded = _run("""
        import repro.cli
        print(json.dumps(sorted(
            name for name in ("scipy", "repro.engine", "repro.explore",
                              "repro.serve", "repro.bench")
            if name in sys.modules)))
    """)
    assert loaded == []


def test_the_table3_boot_does_not_import_scipy():
    loaded = _run("""
        import repro.bench.designpoints, repro.core.pipeline, repro.core.complete_mapper
        points = [p.build(seed=0) for p in repro.bench.designpoints.default_design_points()]
        print(json.dumps({"points": len(points), "scipy": "scipy" in sys.modules}))
    """)
    assert loaded == {"points": 9, "scipy": False}


def test_asking_for_highs_does_not_import_scipy():
    loaded = _run("""
        from repro.ilp import highs_available
        print(json.dumps([highs_available(), "scipy" in sys.modules]))
    """)
    assert loaded == [highs_available(), False]


@pytest.mark.parametrize("block_scipy", [False, True])
def test_the_default_map_resolves_its_lp_backend_as_before(block_scipy):
    found = _run(MAP_WITH_LPS, block_scipy=block_scipy)
    highs = highs_available() and not block_scipy
    assert found["lp_solves"] > 0
    assert found["backend"] == ("bnb+highs" if highs else "bnb+revised")
    assert found["scipy"] == highs


def test_a_fork_pool_parent_loads_scipy_for_its_workers():
    loaded = _run("""
        from repro.engine import MappingEngine
        pool = MappingEngine(jobs=2, mp_context="fork")._make_pool(2)
        pool.shutdown()
        print(json.dumps("scipy.optimize" in sys.modules))
    """)
    assert loaded == highs_available()


def test_a_spawn_pool_worker_loads_scipy_before_its_first_job():
    loaded = _run("""
        from repro.engine import MappingEngine
        pool = MappingEngine(jobs=2, mp_context="spawn")._make_pool(1)
        in_worker = pool.submit(eval, "'scipy.optimize' in __import__('sys').modules")
        print(json.dumps([in_worker.result(), "scipy" in sys.modules]))
        pool.shutdown()
    """)
    assert loaded == [highs_available(), False]


@pytest.fixture
def broken_scipy(tmp_path) -> str:
    """A path entry whose ``scipy`` package raises ImportError on import.

    It stands for an installed SciPy that cannot be imported: ``find_spec``
    finds it, so only the first LP learns that HiGHS is out of reach.
    """
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text('raise ImportError("broken SciPy")\n')
    return str(tmp_path)


def test_auto_falls_back_to_the_revised_kernel_when_scipy_fails_to_import(broken_scipy):
    found = _run(MAP_WITH_LPS, first_on_path=broken_scipy)
    assert found["backend"] == "bnb+revised"
    assert found["lp_solves"] > 0
    assert not found["scipy"]


def test_a_map_that_solves_no_lp_does_not_import_scipy():
    found = _run(MAP_WITHOUT_LPS)
    assert found == {"backend": "bnb", "lp_solves": 0, "scipy": False}


def test_a_solve_without_lps_names_no_kernel_even_when_scipy_is_broken(broken_scipy):
    found = _run(MAP_WITHOUT_LPS, first_on_path=broken_scipy)
    assert found == {"backend": "bnb", "lp_solves": 0, "scipy": False}


def test_the_serial_engine_loads_scipy_before_its_first_job():
    loaded = _run("""
        from repro.arch import virtex_board
        from repro.design import fir_filter_design
        from repro.engine import MappingEngine, MappingJob, engine

        seen = []
        execute = engine.execute_payload

        def spy(payload):
            seen.append("scipy.optimize" in sys.modules)
            return execute(payload)

        engine.execute_payload = spy
        job = MappingJob(board=virtex_board("XCV1000"), design=fir_filter_design(),
                         solver="scipy-milp" if engine.scipy_backend.highs_available()
                         else "bnb-pure")
        MappingEngine(jobs=1).run([job])
        print(json.dumps(seen))
    """)
    assert loaded == [highs_available()]
