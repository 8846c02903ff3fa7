"""Finite element model updating for beam structures.

Tunes per-element elastic moduli so model-predicted natural frequencies
and mode shapes match measured ones, by three strategies: a response
surface method (MLP surrogate optimized by a genetic algorithm and
re-anchored on the full model), a genetic algorithm on the full model,
and simulated annealing on the full model.
"""

from .beam import BeamElement, BeamStructure, SystemMatrices, assemble
from .modal import (
    CostWeights, EigenSolveError, ModalData, cost, mac, pair_modes, solve_modes,
)
from .optimizers import (
    Bounds, BudgetExhausted, EvalBudget, GaConfig, HistoryRecord, OptimizeResult,
    SaConfig, arithmetic_crossover, ga_optimize, geometric_select, metropolis_accept,
    nonuniform_mutate, row_by_row, sa_optimize,
)
from .scenario import ScenarioSpec, build_scenario, check_scenario, h_beam_structure
from .surrogate import SurrogateNet, TrainingSet, forward, grad, init_net, loss, train
from .updating import (
    RsmConfig, UpdateReport, UpdatingProblem, compute_gamma_weights,
    full_objective, ga_update, rsm_update, sa_update, sample_design,
)

__version__ = "0.1.0"

__all__ = [
    "BeamElement", "BeamStructure", "SystemMatrices", "assemble",
    "CostWeights", "EigenSolveError", "ModalData", "cost", "mac", "pair_modes",
    "solve_modes",
    "Bounds", "BudgetExhausted", "EvalBudget", "GaConfig", "HistoryRecord",
    "OptimizeResult", "SaConfig", "arithmetic_crossover", "ga_optimize", "geometric_select",
    "metropolis_accept", "nonuniform_mutate", "row_by_row", "sa_optimize",
    "ScenarioSpec", "build_scenario", "check_scenario", "h_beam_structure",
    "SurrogateNet", "TrainingSet", "forward", "grad", "init_net", "loss", "train",
    "RsmConfig", "UpdateReport", "UpdatingProblem", "compute_gamma_weights",
    "full_objective", "ga_update", "rsm_update", "sa_update",
    "sample_design",
]
