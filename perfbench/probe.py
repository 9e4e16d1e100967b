"""Cold set-up of the paper model, timed in a fresh interpreter.

``python3 -m perfbench.probe model|dse`` prints one JSON object with the
seconds from before the first ``repro`` import to a ready model: the three
simulator tiers built (HDL elaboration included) for ``model``, the
default sweep spec expanded for ``dse``.  A fresh process per sample keeps
the caches the program fills on first use from hiding that cost.
"""

from __future__ import annotations

import json
import sys
import time

from perfbench.common import SRC


def main(workload: str) -> None:
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    if workload == "model":
        from repro.modsram.config import ModSRAMConfig
        from repro.modsram.fidelity import build_simulator

        config = ModSRAMConfig(extend_for_full_range=False)
        build_simulator("cycle", config)
        build_simulator("analytical", config)
        hdl_started = time.perf_counter()
        build_simulator("hdl", config)
        ended = time.perf_counter()
        result = {"setup_s": ended - started, "hdl_setup_s": ended - hdl_started}
    elif workload == "dse":
        from repro.dse import default_sweep_spec

        default_sweep_spec().expand()
        result = {"setup_s": time.perf_counter() - started}
    else:
        raise SystemExit(f"probe: unknown workload {workload!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
