"""femupdate benchmark run: setup, timed update calls, gate, metrics.

Entered through ``bench/run.py``, which fixes the workload's BLAS
thread count before this module loads numpy. The package is imported
from the checkout's ``src/``, never from an installed copy. A run

1. builds the workload's scenario for SETUP_SECONDS, within
   SETUP_REPEATS builds; ``setup_s`` is the median build,
2. calls the workload's update entry point while the next call still
   fits in ``--seconds`` (at least once), with the same inputs each
   time, and checks every result against the correctness gate
   (evaluation count, accuracy, cost, determinism); ``wall_s`` is the
   median call,
3. with ``--trace 1``, alternates untraced and traced calls; the traced
   ones record spans around every call into the package's layers (see
   spans.py), which give the per-layer metrics,
4. writes ``bench/results/<workload>-seed<N>-trace<T>.json`` (and the
   spans of a traced run to ``bench/results/trace-<workload>.npz``),
   prints every metric with its unit, and prints as its last line a
   JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``.

``attempted`` counts FE evaluations asked for; ``failed`` counts those
that came back non-finite, plus every evaluation of an update call that
raised or failed the gate. The exit code is 0 only when every check
passed. Metric names and units are declared in BENCHMARK.json.
The record of each run keeps every sample, with their fastest, median
and 90th percentile.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

from spans import LogCounter, Tracer, reanchor_improved
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_SECONDS = 1.5
SETUP_REPEATS = (21, 501)  # fewest and most scenario builds per run
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES")


def load_package():
    """Import femupdate from ROOT/src; exit without a result if it is missing."""
    src = ROOT / "src"
    if not (src / "femupdate" / "__init__.py").is_file():
        raise SystemExit(f"error: no femupdate sources under {src}")
    sys.path.insert(0, str(src))
    import femupdate
    if Path(femupdate.__file__).resolve().parent != (src / "femupdate").resolve():
        raise SystemExit(f"error: femupdate imported from {femupdate.__file__}, not {src}")
    return femupdate


def load_spec() -> dict:
    """BENCHMARK.json, which declares the workloads and every metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _blas(config_dict) -> dict:
    blas = config_dict.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration")}


def machine_info() -> dict:
    import scipy

    cpu_model = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def check_report(fu, workload, problem, cfg, report, expected: int, reference) -> list[str]:
    """Correctness gate for one update result; returns the failed checks."""
    failures = []
    if report.fe_evaluations != expected:
        failures.append(f"fe_evals {report.fe_evaluations} != expected {expected}")
    if report.truncated:
        failures.append("run truncated by the evaluation budget")
    if not math.isfinite(report.final_cost):
        failures.append(f"final cost {report.final_cost} is not finite")
    if not report.mean_abs_updated_error_pct < report.mean_abs_initial_error_pct:
        failures.append(f"updated error {report.mean_abs_updated_error_pct:.4f}% not below "
                        f"initial {report.mean_abs_initial_error_pct:.4f}%")
    if workload.method == "rsm" and len(report.history) != cfg.max_iterations:
        failures.append(f"rsm history has {len(report.history)} rows, "
                        f"expected {cfg.max_iterations} iterations")
    if not problem.bounds.contains(report.updated_parameters):
        failures.append("updated parameters leave the bounds")
    recomputed = fu.full_objective(problem, report.updated_parameters, fu.EvalBudget())
    if not math.isclose(recomputed, report.final_cost, rel_tol=1e-9, abs_tol=1e-15):
        failures.append(f"final cost {report.final_cost!r} != full-model cost "
                        f"{recomputed!r} of the returned parameters")
    if reference is not None and not (
            np.array_equal(report.updated_parameters, reference.updated_parameters)
            and report.final_cost == reference.final_cost):
        failures.append("a repeat with the same seeds returned a different result")
    return failures


def _median(values):
    return statistics.median(values) if values else math.nan


def _distribution(values) -> dict:
    """Sample count, fastest, median and 90th percentile of a list of times."""
    if not values:
        return {"count": 0}
    return {"count": len(values), "min": min(values), "median": statistics.median(values),
            "p90": float(np.percentile(values, 90))}


class Run:
    """State of one benchmark run: timings, counts and gate outcomes."""

    def __init__(self, fu, workload, seed: int, tracer: Tracer | None):
        self.fu = fu
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.logs = LogCounter()
        self.setup_s: list[float] = []
        self.wall_s: list[float] = []
        self.traced_wall_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.nonfinite = 0
        self.gate_failures: list[str] = []
        self.reference = None
        self.traced_iterations: list[int] = []
        self.traced_low_mac = 0

    def setup(self):
        spec = workloads.scenario_spec(self.fu, self.workload, self.seed)
        fewest, most = SETUP_REPEATS
        t_start = time.perf_counter()
        while len(self.setup_s) < most and (
                len(self.setup_s) < fewest or time.perf_counter() - t_start < SETUP_SECONDS):
            t0 = time.perf_counter()
            self.problem, _ = self.fu.build_scenario(spec)
            self.setup_s.append(time.perf_counter() - t0)
        if self.tracer is not None:
            with self.tracer.installed(self.fu), self.tracer.unit_span("setup"):
                self.fu.build_scenario(spec)
        self.cfg = workloads.method_config(self.fu, self.workload, self.seed)
        self.expected = workloads.expected_evaluations(self.workload, self.cfg)

    def update(self, traced: bool) -> bool:
        """One timed update call plus its gate; False once a check has failed."""
        tracer = self.tracer if traced else None
        installed = tracer.installed(self.fu) if tracer else contextlib.nullcontext()
        unit = tracer.unit_span("update") if tracer else contextlib.nullcontext()
        failed_before = self.logs.failed_evals()
        low_mac_before = self.logs.low_mac()
        report = None
        t0 = time.perf_counter()
        try:
            with installed, unit:
                report = workloads.run_update(self.fu, self.workload, self.problem, self.cfg)
        except Exception:  # a raising update is a failed run, reported below
            traceback.print_exc()
        wall = time.perf_counter() - t0
        nonfinite = self.logs.failed_evals() - failed_before
        if traced:
            self.traced_low_mac += self.logs.low_mac() - low_mac_before
        self.attempted += self.expected
        self.nonfinite += nonfinite
        if report is None:
            failures = ["update raised"]
        else:
            failures = check_report(self.fu, self.workload, self.problem, self.cfg,
                                    report, self.expected, self.reference)
            if self.reference is None:
                self.reference = report
            if traced:
                self.traced_iterations.append(len(report.history))
        if failures:
            self.gate_failures.extend(failures)
            self.failed += self.expected
            return False
        self.failed += nonfinite
        (self.traced_wall_s if traced else self.wall_s).append(wall)
        return True

    def measure(self, seconds: float):
        """Repeat update calls (untraced, or untraced+traced pairs) within ``seconds``."""
        traced = self.tracer is not None
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            ok = self.update(traced=False) and (not traced or self.update(traced=True))
            last = time.perf_counter() - t0
            if not ok or time.perf_counter() - t_start + last > seconds:
                break

    @property
    def correct(self) -> bool:
        return not self.gate_failures and bool(self.wall_s)

    def end_to_end(self) -> dict:
        """End-to-end metrics; only meaningful for a correct run."""
        report = self.reference
        return {
            "setup_s": _median(self.setup_s),
            "wall_s": _median(self.wall_s),
            "fe_evals": report.fe_evaluations,
            "mac_updated": report.mac_mean_updated,
            "finite_evals_frac": 1.0 - self.failed / self.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        """Per-layer metrics per traced update call; only meaningful for a correct run."""
        tracer = self.tracer
        n, st = tracer.span_stats("update")
        update_units = [i for i, kind in enumerate(tracer.units) if kind == "update"]

        def calls(name):
            return st[name]["calls"] / n if name in st else 0.0

        def self_s(name):
            return st[name]["self_s"] / n if name in st else 0.0

        def pct_us(name, q):
            return float(np.percentile(st[name]["durations_s"], q)) * 1e6 if name in st else 0.0

        def results(name, units=update_units):
            return [v for u, v in tracer.results[name] if u in units]

        costs = results("updating.full_objective")
        improved = []
        if self.workload.method == "rsm":
            for unit, iterations in zip(update_units, self.traced_iterations):
                hits = reanchor_improved(results("updating.full_objective", (unit,)),
                                         self.cfg.n_samples, iterations)
                improved.append(hits / iterations if iterations else 0.0)
        root = st.get("bench.update")
        _, setup_stats = tracer.span_stats("setup")
        metrics = {
            f"{layer}.self_s": sum(v["self_s"] for k, v in st.items()
                                   if k.startswith(layer + ".")) / n
            for layer in ("beam", "modal", "updating", "surrogate", "optimizers")
        }
        metrics["scenario.build_scenario.self_s"] = (
            setup_stats["scenario.build_scenario"]["self_s"])
        for name in ("surrogate.forward", "surrogate.train", "optimizers.geometric_select",
                     "modal.solve_modes", "beam.assemble", "updating.full_objective"):
            metrics[f"{name}.calls"] = calls(name)
        for name in ("surrogate.forward", "surrogate.train", "optimizers.ga_optimize",
                     "optimizers.geometric_select", "optimizers.arithmetic_crossover",
                     "modal.solve_modes", "beam.assemble",
                     "modal.at_coordinates", "modal.pair_modes", "modal.cost",
                     "updating.full_objective"):
            metrics[f"{name}.self_s"] = self_s(name)
        metrics.update({
            "modal.solve_modes.p50_us": pct_us("modal.solve_modes", 50),
            "updating.full_objective.p50_us": pct_us("updating.full_objective", 50),
            "updating.full_objective.p99_us": pct_us("updating.full_objective", 99),
            "updating.full_objective.nonfinite":
                sum(not math.isfinite(c) for c in costs) / n,
            "modal.eigen_failures":
                tracer.raised[("update", "modal.solve_modes", "EigenSolveError")] / n,
            "modal.pair_modes.low_mac": self.traced_low_mac / n,
            "surrogate.reanchor_improved_frac": _median(improved) if improved else 0.0,
            "updating.failed_evals_frac": self.failed / self.attempted,
            "updating.updated_error_pct": self.reference.mean_abs_updated_error_pct,
            "trace.overhead_frac": _median(self.traced_wall_s) / _median(self.wall_s) - 1.0,
            "trace.unattributed_frac": root["self_s"] / float(root["durations_s"].sum()),
        })
        return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool):
    """Execute one benchmark run; returns (result line, full record, tracer or None)."""
    fu = load_package()
    spec = load_spec()
    workload = workloads.WORKLOADS[workload_name]
    run_id = f"{workload_name}-seed{seed}-trace{int(trace)}"
    tracer = Tracer(run_id) if trace else None
    state = Run(fu, workload, seed, tracer)
    package_logger = logging.getLogger("femupdate")
    package_logger.addHandler(state.logs)
    try:
        state.setup()
        state.measure(seconds)
    finally:
        package_logger.removeHandler(state.logs)

    values = {}
    if state.correct:
        values = state.per_layer() if trace else state.end_to_end()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if state.correct and set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from "
                           "the BENCHMARK.json declarations")
    line = {
        "correct": state.correct,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }
    report = state.reference
    record = {
        "run_id": run_id,
        "workload": workload_name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload_name),
        "seed": seed,
        "program_seeds": workloads.program_seeds(seed),
        "config": asdict(state.cfg),
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_info(),
        "gate_failures": state.gate_failures,
        "expected_fe_evals": state.expected,
        "nonfinite_evals": state.nonfinite,
        "setup_s": _distribution(state.setup_s),
        "wall_s": _distribution(state.wall_s),
        "traced_wall_s": _distribution(state.traced_wall_s),
        "setup_s_samples": state.setup_s,
        "wall_s_samples": state.wall_s,
        "traced_wall_s_samples": state.traced_wall_s,
        # fe_evals / wall_s: reported, not gated, since both factors are
        "fe_evals_per_s": (report.fe_evaluations / _median(state.wall_s)
                           if report and state.wall_s else None),
        "initial_error_pct": report.mean_abs_initial_error_pct if report else None,
        "updated_error_pct": report.mean_abs_updated_error_pct if report else None,
        "final_cost": report.final_cost if report else None,
        "low_mac_pairings": state.logs.low_mac(),
        "result": line,
    }
    if tracer is not None:
        record["span_count"] = len(tracer.start)
    return line, record, tracer


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload, write its record and print its metrics; returns the exit code."""
    # the CLI's logging setup, so warnings cost what they cost a CLI user
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    line, record, tracer = run(workload, seed, seconds, trace)

    RESULTS_DIR.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.save(RESULTS_DIR / f"trace-{workload}.npz")
    (RESULTS_DIR / f"{record['run_id']}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n")
    machine = record["machine"]
    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          f"{machine['cpu_model']}, {machine['usable_cpus']}/{machine['nproc']} cpus, "
          f"python {machine['python']}, numpy {machine['numpy']}, scipy {machine['scipy']}, "
          f"BLAS {machine['numpy_blas']['name']} {machine['numpy_blas']['version']}, "
          f"threads {machine['thread_env']}")
    wall = record["wall_s"]
    print(f"update calls: {wall['count']} untraced, "
          f"{record['traced_wall_s']['count']} traced; untraced call time "
          f"min {wall.get('min')} s, median {wall.get('median')} s, p90 {wall.get('p90')} s")
    print(f"fe_evals_per_s {record['fe_evals_per_s']} 1/s, "
          f"updated_error_pct {record['updated_error_pct']} % "
          f"(initial {record['initial_error_pct']} %), "
          f"failed_evals_frac {line['failed'] / line['attempted']} ratio")
    for failure in record["gate_failures"]:
        print(f"GATE FAILED: {failure}")
    for name, m in line["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1

