"""Benchmark workloads: the library's public entry points on fixed inputs.

Each workload is ``build_scenario`` followed by ``rsm_update`` or
``ga_update``, as the package README shows. The workload seed N is
turned into program seeds the way ``femupdate run --seed N`` does it:
scenario N, sampler N+1, GA N+2 (SA N+3 too, but no workload runs SA).
The program only ever sees the resulting specs and configs.

Two workloads, each on its own side of the program: rsm-h12 spends its
time in the surrogate and the GA operators (Python-level work on small
arrays), ga-h48 in assembly and LAPACK/BLAS on the FE model. Together
they cover every layer. GA and SA on the full 12-element model are left
out: on a shared 2-CPU host, where a co-tenant can slow the core 1.5-2x
for minutes, four workloads left runs too short for their timing to
agree from run to run.

This module loads no numpy, so ``run.py`` can read a workload's BLAS
thread count before BLAS is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Workload:
    """One benchmark input set.

    ``refine`` multiplies every run's element count of the H fixture;
    the crossbar stays the damaged zone. ``overrides`` replace fields of
    the method's production config (GaConfig or RsmConfig).
    ``blas_threads`` is set in BLAS_THREAD_VARS before BLAS loads; None
    leaves the library default (or the caller's environment).
    """

    name: str
    method: str                 # "rsm" or "ga"
    refine: int = 1
    overrides: dict = field(default_factory=dict)
    inner_ga: dict = field(default_factory=dict)  # rsm only: inner GA overrides
    blas_threads: int | None = None


WORKLOADS = {
    w.name: w for w in (
        # Production settings. On 26 DOFs BLAS has nothing to split across
        # threads; a second OpenBLAS thread only spins, and on a 2-CPU host
        # it makes the timing follow the scheduler, so this runs on one.
        Workload("rsm-h12", "rsm", blas_threads=1),
        # Library default threads: the threading cost at 98 DOFs is part of
        # what this workload measures. 10 generations keep a call at a few
        # seconds, so a run holds about ten.
        Workload("ga-h48", "ga", refine=4, overrides={"generations": 10}),
    )
}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def blas_thread_env(workload: Workload) -> dict:
    """Environment that fixes the workload's BLAS thread count, if it has one."""
    if workload.blas_threads is None:
        return {}
    return {var: str(workload.blas_threads) for var in BLAS_THREAD_VARS}


def program_seeds(seed: int) -> dict:
    """Component seeds derived from one workload seed, as the CLI does."""
    return {"scenario": seed, "sampler": seed + 1, "ga": seed + 2}


def scenario_spec(fu, workload: Workload, seed: int):
    """The H fixture refined ``workload.refine`` times, crossbar damaged."""
    base = fu.ScenarioSpec()
    r = workload.refine
    left = base.left_flange_elements * r
    crossbar = base.crossbar_elements * r
    # Assembly walk: left flange up to the junction, then the crossbar
    # (see femupdate.scenario.h_beam_structure).
    first = round(0.4 * left)
    damaged = base.ground_truth_perturbations[0][1]
    return replace(
        base,
        left_flange_elements=left,
        right_flange_elements=base.right_flange_elements * r,
        crossbar_elements=crossbar,
        ground_truth_perturbations=tuple((i, damaged) for i in range(first, first + crossbar)),
        seed=program_seeds(seed)["scenario"],
    )


def method_config(fu, workload: Workload, seed: int):
    """Production config of the workload's method with its overrides."""
    seeds = program_seeds(seed)
    if workload.method == "ga":
        return replace(fu.GaConfig(seed=seeds["ga"]), **workload.overrides)
    if workload.method == "rsm":
        inner = replace(fu.GaConfig(seed=seeds["ga"]), **workload.inner_ga)
        return replace(fu.RsmConfig(ga=inner, sampler_seed=seeds["sampler"]),
                       **workload.overrides)
    raise ValueError(f"unknown method {workload.method!r}")


def run_update(fu, workload: Workload, problem, cfg):
    """Call the package's update entry point, looked up at call time."""
    update = getattr(fu, f"{workload.method}_update")
    return update(problem, cfg)


def expected_evaluations(workload: Workload, cfg) -> int:
    """FE evaluations the settings imply for one update call."""
    if workload.method == "rsm":
        return cfg.n_samples + cfg.max_iterations
    return cfg.population_size * cfg.generations
