"""Point evaluation, sweep execution through the runner pool, and the CLI."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.dse import (
    DesignPoint,
    DseRunResult,
    SweepSpec,
    default_sweep_spec,
    evaluate_design_point,
    pareto_frontier,
    run_dse,
)
from repro.dse.evaluate import _workload_keys
from repro.experiments import Runner
from repro.workloads import multiplicand_keys

SMALL_SPEC = SweepSpec(
    name="small",
    fixed={"workload_ops": 32},
    axes={
        "bitwidth": [64, 256],
        "macros": [1, 4],
        "scheduler": ["lut-aware", "round-robin"],
    },
)


class TestEvaluateDesignPoint:
    def test_paper_point_metrics(self):
        result = evaluate_design_point(DesignPoint(workload_ops=16))
        assert result.jobs == 16
        assert result.cycles_per_op == 809  # 6 + 33 + 767 + 3
        assert result.throughput_mops > 0
        assert result.energy_pj_per_op > 0
        assert result.area_mm2 == pytest.approx(result.macro_area_mm2)
        assert not result.verified  # analytical fidelity runs no probe

    def test_banking_reduces_the_cold_op_cycles(self):
        flat = evaluate_design_point(DesignPoint(workload_ops=8))
        banked = evaluate_design_point(DesignPoint(banks=4, workload_ops=8))
        assert banked.cycles_per_op < flat.cycles_per_op

    def test_more_macros_buy_throughput_with_area(self):
        one = evaluate_design_point(DesignPoint(workload_ops=64))
        four = evaluate_design_point(DesignPoint(macros=4, workload_ops=64))
        assert four.throughput_mops > one.throughput_mops
        assert four.area_mm2 == pytest.approx(4 * one.area_mm2)

    def test_round_robin_never_beats_lut_aware_reuse(self):
        aware = evaluate_design_point(
            DesignPoint(macros=4, workload="ntt", workload_ops=64)
        )
        blind = evaluate_design_point(
            DesignPoint(
                macros=4, workload="ntt", workload_ops=64,
                scheduler="round-robin",
            )
        )
        assert blind.lut_reuse_rate <= aware.lut_reuse_rate

    @pytest.mark.parametrize("fidelity", ("cycle", "hdl"))
    def test_executable_probes_verify_the_closed_form(self, fidelity):
        result = evaluate_design_point(
            DesignPoint(bitwidth=32, rows=32, workload_ops=4, fidelity=fidelity)
        )
        assert result.verified

    @pytest.mark.parametrize(
        "workload", ("ecdsa-sign", "scalar-mult", "ntt", "msm", "mixed")
    )
    def test_every_workload_reaches_the_requested_ops(self, workload):
        result = evaluate_design_point(
            DesignPoint(workload=workload, workload_ops=24)
        )
        assert result.jobs == 24

    def test_result_dict_round_trip(self):
        result = evaluate_design_point(DesignPoint(banks=2, workload_ops=8))
        wire = json.loads(json.dumps(result.to_dict()))
        loaded = result.from_dict(wire)
        assert loaded == result


class TestWorkloadKeys:
    def test_short_workloads_repeat_from_the_start(self):
        full = multiplicand_keys("ntt", 256)
        keys = _workload_keys("ntt", 64, 2 * len(full) + 5)
        assert keys == (full * 3)[: 2 * len(full) + 5]

    def test_mixed_interleaves_until_each_workload_runs_out(self):
        # 8-bit ECDSA signing is 106 keys, so it runs out first.
        ops = 1000
        streams = [
            iter(multiplicand_keys("ecdsa-sign", 8)),
            iter(multiplicand_keys("ntt", 256)),
            iter(multiplicand_keys("msm", ops // 16, scalar_bits=8)),
        ]
        expected = []
        while len(expected) < ops:
            key = next(streams[0], None)
            streams.append(streams.pop(0))
            if key is not None:
                expected.append(key)
        assert _workload_keys("mixed", 8, ops) == tuple(expected)


class TestDefaultSweep:
    def test_the_default_sweep_is_pinned(self):
        """Every integer result of the 640 default points, and the frontier."""
        results = [evaluate_design_point(p) for p in default_sweep_spec().expand()]
        rows = [
            [
                result.jobs,
                result.makespan_cycles,
                result.cycles_per_op,
                round((1 - result.lut_reuse_rate) * result.jobs),
            ]
            for result in results
        ]
        assert len(rows) == 640
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "598a6334a3c99bcea7236bedee25357a68f1ff05884a24a8c4f0395f4ff8b471"
        )
        frontier = pareto_frontier([result.to_dict() for result in results])
        assert [entry.index for entry in frontier] == [
            1, 5, 33, 37, 65, 69, 97, 101, 129, 133,
        ]


class TestRunDse:
    def test_cold_then_warm_run_hits_the_cache(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), parallel=False)
        cold = run_dse(SMALL_SPEC, runner=runner)
        assert len(cold.points) == SMALL_SPEC.point_count == 8
        assert cold.cache_hits == 0
        assert cold.frontier  # non-empty by acceptance criterion
        warm = run_dse(SMALL_SPEC, runner=runner)
        assert warm.cache_hits == len(warm.points) == 8
        assert [p.to_dict() for p in warm.points] == [
            p.to_dict() for p in cold.points
        ]
        assert [m.index for m in warm.frontier] == [
            m.index for m in cold.frontier
        ]

    def test_frontier_accounting_is_consistent(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), parallel=False)
        result = run_dse(SMALL_SPEC, runner=runner)
        assert result.dominated <= len(result.points) - len(result.frontier)
        frontier_indices = {m.index for m in result.frontier}
        assert all(0 <= i < len(result.points) for i in frontier_indices)

    def test_quick_mode_shrinks_the_sweep(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), parallel=False)
        result = run_dse(SMALL_SPEC, runner=runner, quick=True)
        assert len(result.points) == 8  # 2 values were kept per axis
        assert result.spec["name"] == "small-quick"

    def test_run_result_dict_round_trip(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), parallel=False)
        result = run_dse(SMALL_SPEC, runner=runner)
        wire = json.loads(json.dumps(result.to_dict()))
        loaded = DseRunResult.from_dict(wire)
        assert loaded.render() == result.render()


class TestCli:
    def test_dse_run_quick_json_smoke(self, tmp_path, capsys):
        code = main(
            ["dse", "run", "--quick", "--json", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["frontier"]
        assert len(payload["points"]) == 32

    def test_dse_run_with_a_spec_file_and_sample(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(SMALL_SPEC.to_dict()))
        code = main(
            [
                "dse", "run", str(spec_path), "--sample", "1",
                "--workload-ops", "16", "--json",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["points"]) == 1
        assert payload["points"][0]["workload_ops"] == 16

    def test_dse_run_text_mentions_the_frontier(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(SMALL_SPEC.to_dict()))
        code = main(
            [
                "dse", "run", str(spec_path),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "8 points" in out

    def test_dse_frontier_rereads_a_saved_run(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(SMALL_SPEC.to_dict()))
        results_path = tmp_path / "results.json"
        assert (
            main(
                [
                    "dse", "run", str(spec_path),
                    "--output", str(results_path),
                    "--cache-dir", str(tmp_path / "cache"),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["dse", "frontier", str(results_path), "--json"]) == 0
        frontier = json.loads(capsys.readouterr().out)
        assert frontier and all("dominates" in member for member in frontier)

    def test_dse_frontier_rejects_a_malformed_results_file(
        self, tmp_path, capsys
    ):
        results_path = tmp_path / "not-results.json"
        results_path.write_text(json.dumps({"spec": {"name": "x"}}))
        code = main(["dse", "frontier", str(results_path)])
        assert code != 0
        out = capsys.readouterr().out
        assert "error:" in out and "'points'" in out

    def test_dse_run_rejects_a_bad_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"axes": {"voltage": [1]}}))
        code = main(["dse", "run", str(spec_path)])
        assert code != 0
        assert "voltage" in capsys.readouterr().out
