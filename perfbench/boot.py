"""One fresh-interpreter boot, timed by the parent from spawn to exit.

    python perfbench/boot.py table3 <seed>   # import the mappers, build the Table 3 points
    python perfbench/boot.py sweep <seed>    # import the explorer, build every grid point
    python perfbench/boot.py cli             # print the cost of ``import repro.cli``
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main() -> int:
    mode = sys.argv[1]
    if mode == "cli":
        start = time.perf_counter()
        import repro.cli  # noqa: F401

        elapsed = time.perf_counter() - start
        print(json.dumps({"import_ms": 1000.0 * elapsed, "scipy": "scipy" in sys.modules}))
        return 0
    seed = int(sys.argv[2])
    if mode == "table3":
        from perfbench import table3

        table3.build_inputs()
        import repro.core.complete_mapper  # noqa: F401
        import repro.core.pipeline  # noqa: F401
    elif mode == "sweep":
        from perfbench import sweep

        for chain in sweep.grid(seed).chains(seed=sweep.DESIGN_SEED):
            for point in chain:
                point.build()
    else:
        raise SystemExit(f"unknown boot mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
