"""Self-test of the benchmark at reduced sizes; makes no timing assertions.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import logging
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import workloads
from spans import LogCounter, Tracer, reanchor_improved

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
fu = harness.load_package()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Same names as the real workloads, at a fraction of the work.
SMALL = {
    "rsm-h12": workloads.Workload(
        "rsm-h12", "rsm",
        overrides={"n_samples": 40, "m_hidden": 2, "max_iterations": 2,
                   "initial_cycles": 10},
        inner_ga={"population_size": 6, "generations": 4}),
    "ga-h48": workloads.Workload("ga-h48", "ga", refine=4,
                                 overrides={"population_size": 4, "generations": 2}),
}


@pytest.fixture
def small(monkeypatch):
    for name, workload in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, workload)
    monkeypatch.setattr(harness, "SETUP_SECONDS", 0.0)
    monkeypatch.setattr(harness, "SETUP_REPEATS", (2, 2))


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_expected_counts_at_benchmark_settings():
    counts = {}
    for name, workload in workloads.WORKLOADS.items():
        cfg = workloads.method_config(fu, workload, seed=0)
        counts[name] = workloads.expected_evaluations(workload, cfg)
    assert counts == {"rsm-h12": 160, "ga-h48": 500}


def test_seed_derivation_matches_the_cli():
    cfg = workloads.method_config(fu, workloads.WORKLOADS["rsm-h12"], seed=7)
    assert (cfg.sampler_seed, cfg.ga.seed) == (8, 9)
    assert workloads.method_config(fu, workloads.WORKLOADS["ga-h48"], seed=7).seed == 9
    assert workloads.scenario_spec(fu, workloads.WORKLOADS["ga-h48"], seed=7).seed == 7


def test_refined_fixture_damages_the_crossbar():
    default = fu.ScenarioSpec().ground_truth_perturbations
    for workload in workloads.WORKLOADS.values():
        spec = workloads.scenario_spec(fu, workload, seed=0)
        if workload.refine == 1:
            assert spec.ground_truth_perturbations == default
        structure = fu.h_beam_structure(spec)
        damaged = [structure.elements[i] for i, _ in spec.ground_truth_perturbations]
        assert len(damaged) == spec.crossbar_elements
        x = structure.nodes[:, 0]
        # the crossbar runs from the left flange (x = 0) to the right one
        assert x[damaged[0].node_a] == 0.0
        assert x[damaged[-1].node_b] == spec.crossbar_length
        assert all(0.0 < x[e.node_b] < spec.crossbar_length for e in damaged[:-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(SMALL))
def test_result_line_schema(small, name, trace):
    line, record, tracer = harness.run(name, seed=3, seconds=0.0, trace=bool(trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, record["gate_failures"]
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int) and line["failed"] == 0
    declared = {m["name"]: m["unit"] for m in
                SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    json.dumps(line)
    json.dumps(record, default=str)
    assert (tracer is not None) == bool(trace)
    if trace:
        m = {k: v["value"] for k, v in line["metrics"].items()}
        assert m["updating.full_objective.calls"] >= record["expected_fe_evals"]
        assert m["modal.solve_modes.calls"] >= m["updating.full_objective.calls"]
        assert 0.0 <= m["trace.unattributed_frac"] < 1.0


def test_wrong_expected_count_fails_the_run(small, monkeypatch):
    real = workloads.expected_evaluations
    monkeypatch.setattr(workloads, "expected_evaluations",
                        lambda *args: real(*args) + 1)
    line, record, _ = harness.run("ga-h48", seed=0, seconds=0.0, trace=False)
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] > 0
    assert any("fe_evals" in f for f in record["gate_failures"])


def test_gate_rejects_missing_rsm_iterations(small):
    workload = SMALL["rsm-h12"]
    problem, _ = fu.build_scenario(workloads.scenario_spec(fu, workload, seed=0))
    cfg = workloads.method_config(fu, workload, seed=0)
    expected = workloads.expected_evaluations(workload, cfg)
    report = workloads.run_update(fu, workload, problem, cfg)
    assert harness.check_report(fu, workload, problem, cfg, report, expected, None) == []
    short = replace(report, history=report.history[:-1])
    failures = harness.check_report(fu, workload, problem, cfg, short, expected, None)
    assert any("history" in f for f in failures)
    other = replace(report, final_cost=report.final_cost * 2)
    failures = harness.check_report(fu, workload, problem, cfg, other, expected, report)
    assert any("full-model cost" in f for f in failures)
    assert any("different result" in f for f in failures)


def test_traced_run_restores_the_package(small):
    before = (fu.updating.solve_modes, fu.optimizers.geometric_select,
              fu.ModalData.at_coordinates, fu.rsm_update)
    harness.run("rsm-h12", seed=0, seconds=0.0, trace=True)
    assert (fu.updating.solve_modes, fu.optimizers.geometric_select,
            fu.ModalData.at_coordinates, fu.rsm_update) == before


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer("selftest")
    leaf = tracer.wrap("modal.leaf", lambda n: sum(range(n)))
    outer = tracer.wrap("updating.outer", lambda: [leaf(2000) for _ in range(3)])
    with tracer.unit_span("update"):
        outer()
    n, stats = tracer.span_stats("update")
    assert n == 1
    assert stats["modal.leaf"]["calls"] == 3
    total = sum(s["self_s"] for s in stats.values())
    assert total == pytest.approx(stats["bench.update"]["durations_s"].sum(), rel=1e-9)


def test_log_counter_sees_the_package_warnings():
    counter = LogCounter()
    logger = logging.getLogger("femupdate")
    logger.addHandler(counter)
    try:
        problem, _ = fu.build_scenario(fu.ScenarioSpec())
        bad = problem.initial_parameters() * -1.0  # assemble rejects these
        assert fu.full_objective(problem, bad, fu.EvalBudget()) == math.inf
        calc = fu.ModalData(frequencies=[1.0], mode_shapes=[[0.6], [0.8]],
                            coordinate_map=[0, 1])
        measured = fu.ModalData(frequencies=[1.0], mode_shapes=[[1.0], [0.0]],
                                coordinate_map=[0, 1])
        fu.pair_modes(calc, measured)  # MAC 0.36
    finally:
        logger.removeHandler(counter)
    assert (counter.failed_evals(), counter.low_mac()) == (1, 1)


def test_reanchor_improvement_count():
    # design best 2.0; re-anchors 1.5 (better), 1.7 (no), 1.0 (better)
    assert reanchor_improved([3.0, 2.0, 5.0, 1.5, 1.7, 1.0], 3, 3) == 2


def _copy_bench(dest: Path):
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    (dest / "bench").mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        shutil.copy(f, dest / "bench" / f.name)


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    _copy_bench(tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rsm-h12", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_command_runs_in_a_fresh_checkout(tmp_path):
    _copy_bench(tmp_path)
    shutil.copytree(ROOT / "src" / "femupdate", tmp_path / "src" / "femupdate",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "rsm-h12", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    for m in SPEC["end_to_end"]:
        assert f"{m['name']} " in proc.stdout
    record = json.loads(
        (tmp_path / "bench" / "results" / "rsm-h12-seed1-trace0.json").read_text())
    assert line["correct"] is True and line["attempted"] == 160 * record["wall_s"]["count"]
    assert line["metrics"]["wall_s"]["value"] == record["wall_s"]["median"]
    # the BLAS thread count was fixed before numpy loaded
    assert record["machine"]["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
