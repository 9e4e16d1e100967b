"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``, in
host-normalized time (see :mod:`perfbench.clock`); ``--trace 1`` makes the separate traced run that gives the per-layer
metrics and writes its spans to ``.bench_out/`` when it ends.  The line
before the result holds the provenance: source digest, git sha when
there is one, ``nproc``, Python version, seed, workload configuration and
run length.  The exit code is 0 only when every output was verified.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("bulk", "single", "model", "dse")

#: Which workloads measure which per-layer metrics, by name prefix.  A
#: layer a workload does not exercise reports 0 in its traced run.
_LAYER_OWNERS = {
    "modsram.": ("model",),
    "hdl.": ("model",),
    "dse.": ("dse",),
    "latency.": WORKLOADS,
    "failed_share": WORKLOADS,
}
_SERVING = ("bulk", "single")


def _owners(metric: str):
    for prefix, owners in _LAYER_OWNERS.items():
        if metric.startswith(prefix):
            return owners
    return _SERVING


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(workload: str, seed: int, seconds: float, trace: bool, corrupt: int = 0):
    """Measure one workload; returns ``(result, provenance)``.

    ``corrupt`` falsifies that many outputs before verification, so a
    test can check that wrong outputs are counted as failures.
    """
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import model, serving
    from perfbench.common import Tracer, pin_main, provenance

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    tracer = Tracer() if trace else None
    pin_main()
    if workload in _SERVING:
        measured = serving.run(workload, seed, seconds, tracer, corrupt=corrupt)
    elif workload == "model":
        measured = model.run_model(seed, seconds, tracer, corrupt=corrupt)
    else:
        measured = model.run_dse(seed, seconds, tracer, corrupt=corrupt)

    values = dict(measured["metrics"])
    names = {entry["name"] for entry in wanted}
    unknown = sorted(set(values) - names)
    if unknown:
        raise SystemExit(f"perfbench: metrics not in BENCHMARK.json: {unknown}")
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values:
            if not trace or workload in _owners(name):
                raise SystemExit(f"perfbench: {workload} did not measure {name}")
            values[name] = 0  # this workload does not exercise the layer
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    result = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }
    record = provenance(workload, seed, seconds, trace, measured["config"])
    record["extra"] = measured["extra"]
    if not trace:
        from perfbench.clock import REFERENCE_ITERATIONS, REFERENCE_SECONDS

        record["host_clock"] = {
            "reference_iterations": REFERENCE_ITERATIONS,
            "reference_seconds": REFERENCE_SECONDS,
        }
    if tracer is not None:
        path = ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json"
        tracer.write(path, record)
        record["trace_file"] = str(path.relative_to(ROOT))
    return result, record


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    # Spawning workers started multiprocessing's resource tracker; stop it
    # and wait for it, so no process of the run outlives the run.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    print(json.dumps({"provenance": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
