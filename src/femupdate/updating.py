"""Updating strategies around a shared full-model objective.

Three routes tune per-element elastic moduli against measured modal
data: a response-surface loop (MLP surrogate refined by a GA and
re-anchored on the full model), a GA on the full model, and simulated
annealing on the full model. All FE evaluations pass through one
EvalBudget so the methods can be compared by evaluation count.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .beam import BeamStructure, assemble
from .modal import CostWeights, EigenSolveError, ModalData, cost, pair_modes, solve_modes
from .optimizers import (
    Bounds, EvalBudget, GaConfig, HistoryRecord, SaConfig, ga_optimize,
    row_by_row, sa_optimize,
)
from .surrogate import SurrogateNet, TrainingSet, forward, init_net, target_scaling, train

log = logging.getLogger(__name__)

# extra modes solved beyond the compared ones, covering rigid-body modes
RIGID_ALLOWANCE = 4


@dataclass
class UpdatingProblem:
    """A structure, its measured modal data and the updating search space.

    The parameters are the per-element elastic moduli; measured sets the
    number of compared modes.
    """

    structure: BeamStructure
    bounds: Bounds
    measured: ModalData
    weights: CostWeights
    target_cost: float = 0.0

    def __post_init__(self):
        if self.bounds.dim != self.n_params:
            raise ValueError(
                f"bounds dimension {self.bounds.dim} != parameter count {self.n_params}")
        if self.weights.gamma.size != self.n_modes:
            raise ValueError("need one gamma weight per compared mode")
        if self.target_cost < 0.0:
            raise ValueError("target_cost must be >= 0")

    @property
    def n_modes(self) -> int:
        return self.measured.n_modes

    @property
    def n_params(self) -> int:
        return self.structure.n_elements

    def initial_parameters(self) -> np.ndarray:
        return self.structure.moduli()


@dataclass
class RsmConfig:
    n_samples: int = 150
    max_iterations: int = 10
    initial_cycles: int = 150
    incremental_cycles: int = 5
    m_hidden: int = 8
    ga: GaConfig = field(default_factory=GaConfig)
    sampler_seed: int = 1  # seeds the LHS design and the net's initial weights

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.initial_cycles < 1 or self.incremental_cycles < 1:
            raise ValueError("training cycle counts must be >= 1")
        if self.sampler_seed < 0:
            raise ValueError("sampler_seed must be >= 0")


@dataclass
class UpdateReport:
    """Per-method updating outcome with enough detail to recompute it."""

    method: str
    initial_parameters: np.ndarray
    updated_parameters: np.ndarray
    measured_hz: np.ndarray
    initial_hz: np.ndarray
    updated_hz: np.ndarray
    initial_errors_pct: np.ndarray
    updated_errors_pct: np.ndarray
    mac_mean_initial: float
    mac_mean_updated: float
    initial_cost: float
    final_cost: float
    fe_evaluations: int  # charged: one per candidate asked for
    fe_solves: int       # model solves actually run, failed ones included
    history: list[HistoryRecord]
    wall_time_s: float
    seeds: dict
    config_echo: dict
    truncated: bool = False
    target_reached: bool = False
    surrogate: SurrogateNet | None = None
    design: tuple[np.ndarray, np.ndarray] | None = None  # final RSM training set
    design_best_cost: float | None = None  # RSM: lowest cost of the initial design

    def __post_init__(self):
        if self.fe_evaluations <= 0:
            raise ValueError("report must cover at least one FE evaluation")
        if np.any(self.measured_hz <= 0.0):
            raise ValueError("measured frequencies must be positive")

    @property
    def mean_abs_initial_error_pct(self) -> float:
        return float(np.mean(np.abs(self.initial_errors_pct)))

    @property
    def mean_abs_updated_error_pct(self) -> float:
        return float(np.mean(np.abs(self.updated_errors_pct)))


def full_objective(problem: UpdatingProblem, params: np.ndarray,
                   budget: EvalBudget) -> float:
    """Modal-distance cost of one parameter vector on the full FE model.

    Counts one FE evaluation in budget, which raises BudgetExhausted once
    its cap is reached. A parameter vector budget has already scored
    returns its stored cost without a new solve. Eigen failures yield
    +inf, are never stored, and so are solved and logged on every call;
    optimizers reject the candidate and keep running.
    """
    return budget.evaluate(params, lambda: _solve_cost(problem, params))


def _solve_cost(problem: UpdatingProblem, params: np.ndarray) -> float:
    try:
        calc = solve_observed(problem.structure, params, problem.n_modes,
                              problem.measured.coordinate_map)
    except (EigenSolveError, ValueError) as exc:
        log.warning("full objective failed for a candidate: %s", exc)
        return math.inf
    pairing = pair_modes(calc, problem.measured)
    return cost(calc, problem.measured, problem.weights, pairing=pairing)


def solve_observed(structure: BeamStructure, moduli: np.ndarray | None,
                   n_modes: int, observed) -> ModalData:
    """Lowest modes of the structure restricted to the observed DOFs.

    Solves n_modes plus RIGID_ALLOWANCE modes, so rigid-body modes do not
    crowd out compared ones, capped at the DOF count left after the
    boundary constraints. moduli=None uses the structure's stored moduli.
    """
    matrices = assemble(structure, moduli)
    modes = solve_modes(matrices, min(n_modes + RIGID_ALLOWANCE, matrices.dof_count))
    return modes.at_coordinates(observed)


def compute_gamma_weights(initial: ModalData, measured: ModalData) -> np.ndarray:
    """Per-mode frequency weights from the initial model's errors.

    gamma_i = (f_i^m - f_i^0)^2 in Hz^2, on already-paired sets. Squared
    errors in Hz keep the cost's frequency term comparable to the
    beta-weighted MAC term; relative errors would make it fourth-order
    small.
    """
    if initial.n_modes != measured.n_modes:
        raise ValueError("mode sets must be paired")
    return (measured.frequencies_hz - initial.frequencies_hz) ** 2


def sample_design(bounds: Bounds, n: int, seed: int) -> np.ndarray:
    """n Latin-hypercube design points in the box.

    Exactly one point falls in each 1/n stratum of every coordinate.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    u = np.empty((n, bounds.dim))
    for j in range(bounds.dim):
        u[:, j] = (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n
    return bounds.lower + u * bounds.range


def _modal_comparison(problem: UpdatingProblem, params: np.ndarray):
    """Paired frequencies (Hz), percent errors, mean MAC diagonal and cost."""
    solved = solve_observed(problem.structure, params, problem.n_modes,
                            problem.measured.coordinate_map)
    pairing = pair_modes(solved, problem.measured)
    idx, paired_mac = pairing
    meas = problem.measured
    hz = solved.frequencies_hz[idx]
    errors = 100.0 * (hz - meas.frequencies_hz) / meas.frequencies_hz
    return (hz, errors, float(paired_mac.mean()),
            cost(solved, meas, problem.weights, pairing=pairing))


def _build_report(problem: UpdatingProblem, method: str, best_x: np.ndarray,
                  final_cost: float, history, budget: EvalBudget,
                  wall_time_s: float, seeds: dict, config_echo: dict,
                  truncated: bool = False, target_reached: bool = False) -> UpdateReport:
    x0 = problem.initial_parameters()
    initial_hz, initial_err, mac0, initial_cost = _modal_comparison(problem, x0)
    updated_hz, updated_err, mac1, _ = _modal_comparison(problem, best_x)
    return UpdateReport(
        method=method,
        initial_parameters=np.asarray(x0, dtype=float),
        updated_parameters=np.asarray(best_x, dtype=float),
        measured_hz=problem.measured.frequencies_hz.copy(),
        initial_hz=initial_hz,
        updated_hz=updated_hz,
        initial_errors_pct=initial_err,
        updated_errors_pct=updated_err,
        mac_mean_initial=mac0,
        mac_mean_updated=mac1,
        initial_cost=initial_cost,
        final_cost=final_cost,
        fe_evaluations=budget.calls,
        fe_solves=budget.solves,
        history=list(history),
        wall_time_s=wall_time_s,
        seeds=dict(seeds),
        config_echo=dict(config_echo),
        truncated=truncated,
        target_reached=target_reached,
    )


def rsm_update(problem: UpdatingProblem, cfg: RsmConfig) -> UpdateReport:
    """Response-surface updating loop.

    1. Sample n_samples points (Latin hypercube) and evaluate them on the
       full model.
    2. Fit the MLP surrogate to (point, cost) pairs: initialized once,
       then warm-started with incremental_cycles per refinement.
    3. Run the GA on the surrogate prediction, one batch forward pass
       per generation.
    4. Evaluate the GA optimum on the full model (one FE evaluation);
       the history row records its predicted and full-model cost.
    5. If the cost still exceeds target_cost and iterations remain,
       replace the worst sample with the new pair and repeat from 2.

    Total FE evaluations are n_samples + (iterations performed), each
    one a full_objective call. The returned parameters are always
    full-model evaluated. A non-finite design cost, such as a failed
    solve, makes surrogate training raise ValueError.
    """
    t0 = time.perf_counter()
    budget = EvalBudget()
    d = problem.n_params

    X = sample_design(problem.bounds, cfg.n_samples, cfg.sampler_seed)
    t = np.array([full_objective(problem, x, budget) for x in X])

    best_i = int(np.argmin(t))
    best_x, best_cost = X[best_i].copy(), float(t[best_i])
    design_best_cost = best_cost

    center, scale = target_scaling(t)
    net = init_net(d, cfg.m_hidden, problem.bounds, seed=cfg.sampler_seed,
                   target_center=center, target_scale=scale)

    history: list[HistoryRecord] = []
    target_reached = False
    for it in range(1, cfg.max_iterations + 1):
        cycles = cfg.initial_cycles if it == 1 else cfg.incremental_cycles
        net = train(net, TrainingSet(inputs=X, targets=t), cycles)
        inner_cfg = replace(cfg.ga, seed=cfg.ga.seed + it)
        inner = ga_optimize(lambda X: forward(net, X), problem.bounds, inner_cfg)
        c_full = full_objective(problem, inner.best_x, budget)
        if c_full < best_cost:
            best_cost, best_x = c_full, inner.best_x.copy()
        history.append(HistoryRecord(step=it, best_cost=best_cost,
                                     mean_cost=float(np.mean(t)),
                                     evaluations=budget.calls,
                                     predicted_cost=inner.best_cost,
                                     full_cost=c_full))
        if c_full <= problem.target_cost:
            target_reached = True
            break
        # replace the worst-cost sample (first index on ties) with the new
        # pair; a pair worse than the current worst would only degrade the
        # set, so the design max never increases
        worst = int(np.argmax(t))
        if c_full <= t[worst]:
            X[worst] = inner.best_x
            t[worst] = c_full

    elapsed = time.perf_counter() - t0
    report = _build_report(
        problem, "rsm", best_x, best_cost, history, budget, elapsed,
        seeds={"sampler": cfg.sampler_seed, "ga": cfg.ga.seed},
        config_echo=asdict(cfg),
        target_reached=target_reached,
    )
    report.surrogate = net
    report.design = (X, t)
    report.design_best_cost = design_best_cost
    return report


def ga_update(problem: UpdatingProblem, cfg: GaConfig) -> UpdateReport:
    """Genetic algorithm directly on the full FE model, one FE evaluation per row."""
    t0 = time.perf_counter()
    budget = EvalBudget()
    res = ga_optimize(row_by_row(lambda x: full_objective(problem, x, budget)),
                      problem.bounds, cfg)
    return _build_report(
        problem, "ga", res.best_x, res.best_cost, res.history, budget,
        time.perf_counter() - t0, seeds={"ga": cfg.seed},
        config_echo=asdict(cfg), truncated=res.truncated)


def sa_update(problem: UpdatingProblem, cfg: SaConfig) -> UpdateReport:
    """Simulated annealing directly on the full FE model.

    The first annealing run starts from the initial model, so the best
    cost can never exceed the initial cost.
    """
    t0 = time.perf_counter()
    budget = EvalBudget()
    res = sa_optimize(lambda x: full_objective(problem, x, budget),
                      problem.bounds, cfg, x0=problem.initial_parameters())
    return _build_report(
        problem, "sa", res.best_x, res.best_cost, res.history, budget,
        time.perf_counter() - t0, seeds={"sa": cfg.seed},
        config_echo=asdict(cfg), truncated=res.truncated)
