"""Chip scale-out throughput, machine-readable.

Throughput versus macro count for the LUT-reuse-aware chip scheduler on
the ECDSA and NTT streams, emitted as ``BENCH_chip_scaling.json``.  The
numbers are modelled by the chip scheduler's algebra, so the run takes
seconds and the gate is deterministic: ECDSA-sign throughput must never
fall as macros are added.

Run as a pytest benchmark (``pytest benchmarks/bench_chip_scaling.py``) or
directly (``python benchmarks/bench_chip_scaling.py``); both write the JSON
next to the repository root (override with ``BENCH_OUTPUT``).
"""

from __future__ import annotations

import json
import os

from repro.analysis.chip_scaling import reproduce_chip_scaling


def _output_path() -> str:
    override = os.environ.get("BENCH_OUTPUT")
    if override:
        return override
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(repo_root, "BENCH_chip_scaling.json")


def collect_chip_scaling() -> dict:
    """The chip scale-out section: modelled throughput versus macro count."""
    payload = {}
    for workload, kwargs in (
        ("ecdsa-sign", {"scalar_bits": 256}),
        ("ntt", {"vector_size": 4096}),
    ):
        result = reproduce_chip_scaling(
            workload=workload, macro_counts=(1, 2, 4, 8, 16), **kwargs
        )
        payload[workload] = [point.to_dict() for point in result.points]
    return payload


def write_payload(payload: dict) -> str:
    path = _output_path()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return path


def run_benchmark() -> dict:
    payload = {
        "benchmark": "chip_scaling",
        "chip_scaling": collect_chip_scaling(),
    }
    path = write_payload(payload)
    payload["output"] = path
    return payload


def test_chip_throughput_never_falls_as_macros_are_added():
    """Acceptance: ECDSA-sign chip throughput is monotonic in macro count."""
    payload = run_benchmark()
    scaling = payload["chip_scaling"]["ecdsa-sign"]
    throughputs = [point["throughput_mops"] for point in scaling]
    print("\necdsa-sign Mmul/s vs macros:",
          {point["macros"]: round(point["throughput_mops"], 2) for point in scaling})
    assert throughputs == sorted(throughputs), (
        "chip throughput must not regress as macros are added"
    )
    print(f"benchmark JSON written to {payload['output']}")


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2))
