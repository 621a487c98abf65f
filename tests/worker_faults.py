"""A payload runner that kills its worker, for the dead-worker tests.

It lives in its own module, not in a ``conftest.py``: pool workers
receive it pickled by reference, and the suite has several conftest
modules that share one module name.
"""

from __future__ import annotations

import os
import time

from repro.engine import STATUS_OK


def dying_payload(payload):
    """Kill the worker (every time, or once per marker file), else nap."""
    options = payload["solver_options"]
    marker = options.get("die_once", "")
    if options.get("die_always") or (marker and not os.path.exists(marker)):
        if marker:
            open(marker, "w").close()
        os._exit(1)
    time.sleep(options.get("nap", 0.0))
    return {"status": STATUS_OK, "wall_time": 0.0, "result": None}
