"""Updating strategies around a shared full-model objective.

Three routes tune per-element elastic moduli against measured modal
data: a response-surface loop (MLP surrogate refined by a GA and
re-anchored on the full model), a GA on the full model, and simulated
annealing on the full model. Every FE evaluation is a full_objective
call, which records it in the update call's EvalBudget, so the methods
can be compared by evaluation count.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .beam import BeamStructure, SystemMatrices, assemble
from .modal import (
    TWO_PI, CostWeights, EigenSolveError, ModalData, coordinate_rows, modal_distance,
    pair_shapes, solve_modes,
)
from .optimizers import (
    Bounds, EvalBudget, GaConfig, HistoryRecord, OptimizeResult, SaConfig, check_count,
    ga_optimize, row_by_row, sa_optimize,
)
from .surrogate import (
    SurrogateNet, TrainingSet, check_net_fits, forward, init_net, target_scaling, train,
)

log = logging.getLogger(__name__)

# extra modes solved beyond the compared ones, covering rigid-body modes
RIGID_ALLOWANCE = 4


@dataclass
class UpdatingProblem:
    """A structure, its measured modal data and the updating search space.

    The parameters are the per-element elastic moduli; measured sets the
    number of compared modes. Building a problem finds the rows of the
    observed DOFs in the reduced DOF order, and raises ValueError if the
    measured data cannot be compared: an observed DOF the structure
    constrains, or a zero measured frequency.
    """

    structure: BeamStructure
    bounds: Bounds
    measured: ModalData
    weights: CostWeights
    _observed_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.bounds.dim != self.n_params:
            raise ValueError(
                f"bounds dimension {self.bounds.dim} != parameter count {self.n_params}")
        if self.weights.gamma.size != self.n_modes:
            raise ValueError("need one gamma weight per compared mode")
        if (self.measured.frequencies == 0.0).any():
            raise ValueError("measured frequencies must be non-zero")
        self._observed_rows = coordinate_rows(assemble(self.structure).dof_map,
                                              self.measured.coordinate_map)

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
        for name, least in (("n_samples", 2), ("m_hidden", 1), ("max_iterations", 1),
                            ("initial_cycles", 1), ("incremental_cycles", 1),
                            ("sampler_seed", 0)):
            check_count(name, getattr(self, name), least)


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

    Charges one FE evaluation to budget, which raises BudgetExhausted
    once its cap is reached. A parameter vector budget has already scored
    returns its stored cost without a new solve. Eigen failures yield
    +inf and are logged; only finite costs are stored, so a failing
    candidate is solved and logged on every call. Optimizers reject it
    and keep running.
    """
    budget.consume()
    key = np.asarray(params, dtype=float).tobytes()
    c = budget.costs.get(key)
    if c is None:
        budget.solves += 1
        try:
            modes = _observed_modes(problem, params)
        except (EigenSolveError, ValueError) as exc:
            log.warning("full objective failed for a candidate: %s", exc)
            return math.inf
        c = _paired_cost(problem, *modes)[1]
        if math.isfinite(c):
            budget.costs[key] = c
    return c


def _observed_modes(problem: UpdatingProblem, params: np.ndarray):
    """(frequencies, observed mode-shape rows, rigid flags) of one candidate.

    Equal, bit for bit, to the arrays of solve_observed on the problem's
    measured coordinates. Raises what solve_observed raises for a failed
    candidate: ValueError for invalid moduli, EigenSolveError.
    """
    modes = _lowest_modes(assemble(problem.structure, params), problem.n_modes)
    return modes.frequencies, modes.mode_shapes[problem._observed_rows], modes.rigid


def _paired_cost(problem: UpdatingProblem, frequencies, shapes, rigid):
    """(pairing, cost) of observed modes against the measured ones."""
    measured, weights = problem.measured, problem.weights
    pairing = pair_shapes(shapes, rigid, measured.mode_shapes)
    return pairing, modal_distance(frequencies, measured.frequencies, weights.gamma,
                                   weights.beta, pairing)


def _lowest_modes(matrices: SystemMatrices, n_modes: int) -> ModalData:
    """The lowest n_modes + RIGID_ALLOWANCE modes, capped at the DOF count."""
    return solve_modes(matrices, min(n_modes + RIGID_ALLOWANCE, matrices.dof_count))


def solve_observed(structure: BeamStructure, moduli: np.ndarray | None,
                   n_modes: int, observed) -> ModalData:
    """Lowest modes of the structure restricted to the observed DOFs.

    Solves n_modes plus RIGID_ALLOWANCE modes, so rigid-body modes do not
    crowd out compared ones, capped at the DOF count left after the
    boundary constraints. moduli=None uses the structure's stored moduli.
    """
    return _lowest_modes(assemble(structure, moduli), n_modes).at_coordinates(observed)


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
    frequencies, shapes, rigid = _observed_modes(problem, params)
    (idx, paired_mac), c = _paired_cost(problem, frequencies, shapes, rigid)
    meas = problem.measured
    hz = frequencies[idx] / TWO_PI
    errors = 100.0 * (hz - meas.frequencies_hz) / meas.frequencies_hz
    return hz, errors, float(paired_mac.mean()), c


def _build_report(problem: UpdatingProblem, method: str, res: OptimizeResult, cfg,
                  budget: EvalBudget, t0: float, seeds: dict) -> UpdateReport:
    """The report of an update call that began at perf_counter t0 and found res."""
    wall_time_s = time.perf_counter() - t0
    x0 = problem.initial_parameters()
    initial_hz, initial_err, mac0, initial_cost = _modal_comparison(problem, x0)
    updated_hz, updated_err, mac1, _ = _modal_comparison(problem, res.best_x)
    return UpdateReport(
        method=method,
        initial_parameters=np.asarray(x0, dtype=float),
        updated_parameters=np.asarray(res.best_x, dtype=float),
        measured_hz=problem.measured.frequencies_hz.copy(),
        initial_hz=initial_hz,
        updated_hz=updated_hz,
        initial_errors_pct=initial_err,
        updated_errors_pct=updated_err,
        mac_mean_initial=mac0,
        mac_mean_updated=mac1,
        initial_cost=initial_cost,
        final_cost=res.best_cost,
        fe_evaluations=budget.calls,
        fe_solves=budget.solves,
        history=list(res.history),
        wall_time_s=wall_time_s,
        seeds=seeds,
        config_echo=asdict(cfg),
        truncated=res.truncated,
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
    5. Replace the worst sample with the new pair, unless the pair is
       worse still, and repeat from 2 until max_iterations re-anchors
       are done.

    Total FE evaluations are n_samples + max_iterations, each one a
    full_objective call. The returned parameters are always
    full-model evaluated. A net with no fewer weights than n_samples
    raises ValueError before any solve. Design points with a non-finite
    cost, such as a failed solve, are dropped with a warning; training
    raises ValueError if too few points remain for the net.
    """
    t0 = time.perf_counter()
    budget = EvalBudget()
    d = problem.n_params
    check_net_fits(d, cfg.m_hidden, cfg.n_samples)

    X = sample_design(problem.bounds, cfg.n_samples, cfg.sampler_seed)
    t = np.array([full_objective(problem, x, budget) for x in X])
    finite = np.isfinite(t)
    if not finite.all():
        # as GA and SA reject such a candidate, the design goes on without it
        log.warning("RSM design: dropped %d of %d points with a non-finite cost",
                    t.size - finite.sum(), t.size)
        X, t = X[finite], t[finite]
        if not t.size:
            raise ValueError("no RSM design point has a finite cost")

    best_i = int(np.argmin(t))
    best_x, best_cost = X[best_i].copy(), float(t[best_i])
    design_best_cost = best_cost

    center, scale = target_scaling(t)
    net = init_net(d, cfg.m_hidden, problem.bounds, seed=cfg.sampler_seed,
                   target_center=center, target_scale=scale)

    history: list[HistoryRecord] = []
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
        # replace the worst-cost sample (first index on ties) with the new
        # pair; a pair worse than the current worst would only degrade the
        # set, so the design max never increases
        worst = int(np.argmax(t))
        if c_full <= t[worst]:
            X[worst] = inner.best_x
            t[worst] = c_full

    report = _build_report(problem, "rsm", OptimizeResult(best_x, best_cost, history), cfg,
                           budget, t0, seeds={"sampler": cfg.sampler_seed, "ga": cfg.ga.seed})
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
    return _build_report(problem, "ga", res, cfg, budget, t0, seeds={"ga": cfg.seed})


def sa_update(problem: UpdatingProblem, cfg: SaConfig) -> UpdateReport:
    """Simulated annealing directly on the full FE model.

    The first annealing run starts from the initial model, so the best
    cost can never exceed the initial cost.
    """
    t0 = time.perf_counter()
    budget = EvalBudget()
    res = sa_optimize(lambda x: full_objective(problem, x, budget),
                      problem.bounds, cfg, x0=problem.initial_parameters())
    return _build_report(problem, "sa", res, cfg, budget, t0, seeds={"sa": cfg.seed})
