"""Regenerate ``sweep_expected.json``: the sweep grid solved cold with ``scipy-milp``.

    PYTHONPATH=src python3 perfbench/make_expected.py

``scipy-milp`` (HiGHS' MILP solver) shares no tree-search code with the
default solver, so the file is an independent reference for the
per-point optima the ``sweep`` workload must reproduce.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main() -> int:
    from repro.explore import DesignSpaceExplorer

    from perfbench import sweep

    result = DesignSpaceExplorer(
        sweep.grid(0), jobs=1, solver="scipy-milp", warm_chain=False, seed=sweep.DESIGN_SEED
    ).run()
    failed = [point.label for point in result.points if not point.ok]
    if failed:
        print(f"points failed: {failed}", file=sys.stderr)
        return 1
    objectives = {point.label: point.objective for point in sorted(result.points, key=lambda p: p.label)}
    document = {"solver": "scipy-milp", "warm_chain": False, "objectives": objectives}
    sweep.EXPECTED.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(objectives)} objectives to {sweep.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
