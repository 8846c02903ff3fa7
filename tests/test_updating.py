"""Full-model objective, design sampling and the three updating loops."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from femupdate.optimizers import (
    Bounds, BudgetExhausted, EvalBudget, GaConfig, SaConfig, ga_optimize, row_by_row,
    sa_optimize,
)
from femupdate.scenario import ScenarioSpec, build_scenario
from femupdate.updating import (
    RsmConfig, UpdatingProblem, compute_gamma_weights, full_objective, rsm_update,
    ga_update, sa_update, sample_design,
)
import femupdate.modal
import femupdate.updating
from femupdate.beam import BeamElement, BeamStructure
from femupdate.modal import CostWeights, EigenSolveError, ModalData, mac


@pytest.fixture(scope="module")
def default_problem():
    return build_scenario(ScenarioSpec())


def small_rsm_config(**overrides):
    kw = dict(
        n_samples=40, max_iterations=3, initial_cycles=30, incremental_cycles=5,
        m_hidden=2, sampler_seed=5,
        ga=GaConfig(population_size=12, generations=15, seed=3),
    )
    kw.update(overrides)
    return RsmConfig(**kw)


# ---------------------------------------------------------------- objective


def test_objective_zero_at_ground_truth(default_problem):
    problem, truth = default_problem
    assert full_objective(problem, truth, EvalBudget()) < 1e-10


def test_objective_positive_for_initial_model(default_problem):
    problem, _ = default_problem
    c = full_objective(problem, problem.initial_parameters(), EvalBudget())
    assert c > 0.0


def test_objective_increments_budget_by_one(default_problem):
    problem, truth = default_problem
    budget = EvalBudget()
    for expected in (1, 2, 3):
        full_objective(problem, truth, budget)
        assert budget.calls == expected


def test_objective_raises_when_budget_capped(default_problem):
    problem, truth = default_problem
    budget = EvalBudget(limit=1)
    full_objective(problem, truth, budget)
    with pytest.raises(BudgetExhausted):
        full_objective(problem, truth, budget)
    assert budget.calls == 1


@pytest.mark.parametrize("optimize, cfg", [
    (ga_optimize, GaConfig(population_size=10, generations=5, seed=1)),
    (sa_optimize, SaConfig(n_runs=1, seed=1)),
])
def test_capped_objective_truncates_optimizer(default_problem, optimize, cfg):
    # the objective's budget is the only counter: its cap ends the run
    problem, _ = default_problem
    budget = EvalBudget(limit=25)
    objective = lambda x: full_objective(problem, x, budget)
    if optimize is ga_optimize:  # the GA takes a batch objective
        objective = row_by_row(objective)
    res = optimize(objective, problem.bounds, cfg)
    assert res.truncated
    assert budget.calls == 25
    assert np.isfinite(res.best_cost)


def test_ga_truncated_mid_generation_keeps_paid_costs(default_problem):
    problem, _ = default_problem
    budget = EvalBudget(limit=5)
    paid = []

    def objective(x):
        c = full_objective(problem, x, budget)
        paid.append((x.copy(), c))
        return c

    res = ga_optimize(row_by_row(objective), problem.bounds,
                      GaConfig(population_size=10, generations=5, seed=1))
    assert res.truncated
    assert budget.calls == len(paid) == 5
    costs = [c for _, c in paid]
    assert res.best_cost == min(costs)
    assert any(np.array_equal(res.best_x, x) for x, _ in paid)
    assert len(res.history) == 1
    assert res.history[0].evaluations == 5
    assert res.history[0].best_cost == min(costs)


def test_objective_builds_one_mac_matrix(default_problem, monkeypatch):
    problem, _ = default_problem
    calls = []

    def counting_mac(a, b):
        calls.append(a.shape)
        return mac(a, b)

    monkeypatch.setattr(femupdate.modal, "mac", counting_mac)
    full_objective(problem, problem.initial_parameters(), EvalBudget())
    # pairing builds the matrix; the cost reads the paired MACs from it
    assert len(calls) == 1


def test_objective_infinite_on_solver_failure(default_problem):
    problem, truth = default_problem
    bad = truth.copy()
    bad[0] = np.nan
    # invalid moduli are rejected by assembly -> +inf sentinel, run continues
    assert full_objective(problem, bad, EvalBudget()) == np.inf


def test_objective_rejects_a_constrained_observed_dof():
    # a clamped 3-element beam; DOF 0 is fixed but listed as measured
    nodes = np.column_stack([np.linspace(0.0, 0.3, 4), np.zeros(4)])
    elements = [BeamElement(i, i + 1, 3.0e-4, 2.5e-9, 2700.0, 7.0e10) for i in range(3)]
    structure = BeamStructure(nodes=nodes, elements=elements, constrained_dofs=(0, 1))
    measured = ModalData(frequencies=[100.0, 600.0],
                         mode_shapes=np.random.default_rng(3).standard_normal((3, 2)),
                         coordinate_map=[0, 2, 4])
    with pytest.raises(ValueError, match="not observed coordinates"):
        UpdatingProblem(structure=structure,
                        bounds=Bounds(np.full(3, 6.0e10), np.full(3, 8.0e10)),
                        measured=measured, weights=CostWeights(gamma=[1.0, 1.0], beta=0.75))


def test_objective_rejects_a_zero_measured_frequency(default_problem):
    problem, _ = default_problem
    measured = replace(problem.measured,
                       frequencies=np.r_[0.0, problem.measured.frequencies[1:]])
    with pytest.raises(ValueError, match="non-zero"):
        replace(problem, measured=measured)


# ---------------------------------------------------------------- cost memo
# A fresh EvalBudget per call holds no stored costs: it is the oracle.


@pytest.fixture()
def counted_solves(monkeypatch):
    """Parameter vectors passed to the FE evaluation's solve, which runs as shipped."""
    seen = []
    solve = femupdate.updating._observed_modes

    def counting(problem, params):
        seen.append(np.array(params, dtype=float))
        return solve(problem, params)

    monkeypatch.setattr(femupdate.updating, "_observed_modes", counting)
    return seen


@pytest.fixture()
def counted_assembly(monkeypatch):
    """Moduli passed to assemble from updating, which runs as shipped."""
    seen = []
    assemble = femupdate.updating.assemble

    def counting(structure, moduli=None):
        seen.append(moduli)
        return assemble(structure, moduli)

    monkeypatch.setattr(femupdate.updating, "assemble", counting)
    return seen


def fresh_copy(problem, counted_assembly):
    """A newly built, never evaluated copy of problem; its build is not counted."""
    problem = replace(problem)
    counted_assembly.clear()
    return problem


@pytest.fixture()
def counted_objective(monkeypatch):
    """Parameter vectors passed to full_objective, which runs as shipped."""
    seen = []
    objective = femupdate.updating.full_objective

    def counting(problem, params, budget):
        seen.append(np.array(params, dtype=float))
        return objective(problem, params, budget)

    monkeypatch.setattr(femupdate.updating, "full_objective", counting)
    return seen


def oracle_objective(problem, budget=None):
    """full_objective with a fresh budget per call; budget, if given, only counts."""
    def objective(x):
        if budget is not None:
            budget.consume()
        return full_objective(problem, x, EvalBudget())
    return objective


def test_ga_update_matches_oracle_path(default_problem):
    problem, _ = default_problem
    cfg = GaConfig(population_size=10, generations=12, seed=8)
    report = ga_update(problem, cfg)
    oracle = ga_optimize(row_by_row(oracle_objective(problem)), problem.bounds, cfg)
    np.testing.assert_array_equal(report.updated_parameters, oracle.best_x)
    assert report.final_cost == oracle.best_cost
    assert report.history == oracle.history
    assert report.fe_solves < report.fe_evaluations == 120


def test_repeated_candidate_solved_once(default_problem, counted_solves, counted_assembly):
    truth = default_problem[1]
    problem = fresh_copy(default_problem[0], counted_assembly)
    x0 = problem.initial_parameters()
    budget = EvalBudget()
    costs = [full_objective(problem, x, budget) for x in (truth, x0, truth.copy(), x0, truth)]
    assert budget.calls == 5  # every repeat is still charged
    assert budget.solves == len(counted_solves) == 2
    # one assembly per solve, none to set up the evaluation
    assert len(counted_assembly) == 2
    assert costs[0] == costs[2] == costs[4] == full_objective(problem, truth, EvalBudget())
    assert costs[1] == costs[3] == full_objective(problem, x0, EvalBudget())


def test_nonfinite_candidate_solved_and_logged_every_time(default_problem, counted_solves,
                                                          caplog):
    problem, truth = default_problem
    bad = truth.copy()
    bad[0] = np.nan
    budget = EvalBudget()
    with caplog.at_level("WARNING", logger="femupdate.updating"):
        assert full_objective(problem, bad, budget) == np.inf
        assert full_objective(problem, bad.copy(), budget) == np.inf
    failures = [r for r in caplog.records if "failed for a candidate" in r.getMessage()]
    assert len(failures) == len(counted_solves) == budget.solves == budget.calls == 2
    assert budget.costs == {}


def test_nonfinite_cost_never_stored(default_problem, counted_solves, monkeypatch):
    problem, truth = default_problem
    monkeypatch.setattr(femupdate.updating, "modal_distance", lambda *args: np.nan)
    budget = EvalBudget()
    assert np.isnan(full_objective(problem, truth, budget))
    assert np.isnan(full_objective(problem, truth, budget))
    assert len(counted_solves) == budget.solves == 2
    assert budget.costs == {}


@pytest.mark.parametrize("limit", [5, 73, 120])
def test_capped_ga_truncates_on_the_oracle_row(default_problem, limit):
    problem, _ = default_problem
    cfg = GaConfig(population_size=10, generations=12, seed=8)
    budget = EvalBudget(limit=limit)
    res = ga_optimize(row_by_row(lambda x: full_objective(problem, x, budget)),
                      problem.bounds, cfg)
    counter = EvalBudget(limit=limit)
    oracle = ga_optimize(row_by_row(oracle_objective(problem, counter)),
                         problem.bounds, cfg)
    assert budget.calls == counter.calls == limit
    assert budget.solves <= limit
    assert res.truncated == oracle.truncated == (limit < 120)
    np.testing.assert_array_equal(res.best_x, oracle.best_x)
    assert res.best_cost == oracle.best_cost
    assert res.history == oracle.history


def test_ga_update_solves_each_distinct_candidate_once_per_call(default_problem,
                                                                counted_solves,
                                                                counted_objective,
                                                                counted_assembly):
    problem = fresh_copy(default_problem[0], counted_assembly)
    cfg = GaConfig(population_size=10, generations=12, seed=8)
    first = ga_update(problem, cfg)
    assert len(counted_objective) == first.fe_evaluations
    n_first = len(counted_solves)
    # the report's own two modal comparisons solve outside the budget
    distinct = {x.tobytes() for x in counted_solves[:-2]}
    assert first.fe_solves == n_first - 2 == len(distinct) < first.fe_evaluations
    second = ga_update(problem, cfg)
    assert len(counted_solves) == 2 * n_first
    # one assembly per solve, none to set up the evaluation
    assert len(counted_assembly) == len(counted_solves)
    assert second.fe_solves == first.fe_solves > 0
    assert second.final_cost == first.final_cost


@pytest.mark.parametrize("method", ["rsm", "sa"])
def test_rsm_and_sa_solve_every_charged_candidate(default_problem, counted_solves,
                                                  counted_objective, counted_assembly,
                                                  method):
    problem = fresh_copy(default_problem[0], counted_assembly)
    if method == "rsm":
        report = rsm_update(problem, small_rsm_config())
    else:
        report = sa_update(problem, SaConfig(n_runs=1, min_temperature=1e-2, seed=4))
    # every charged evaluation is one full_objective call
    assert len(counted_objective) == report.fe_evaluations
    # the report's two modal comparisons solve outside the budget
    assert len(counted_solves) == report.fe_solves + 2
    assert report.fe_solves == report.fe_evaluations  # neither repeats a candidate
    # one assembly per solve, none to set up the evaluation
    assert len(counted_assembly) == len(counted_solves)


# ---------------------------------------------------------------- gamma


def test_gamma_zero_when_initial_matches_measured():
    shapes = np.eye(3)
    a = ModalData(frequencies=[1.0, 2.0, 3.0], mode_shapes=shapes,
                  coordinate_map=np.arange(3))
    np.testing.assert_array_equal(compute_gamma_weights(a, a), np.zeros(3))


def test_gamma_hand_value():
    shapes = np.ones((2, 1))
    # 90 Hz against 100 Hz, given in rad/s
    init = ModalData(frequencies=[2.0 * np.pi * 90.0], mode_shapes=shapes,
                     coordinate_map=[0, 1])
    meas = ModalData(frequencies=[2.0 * np.pi * 100.0], mode_shapes=shapes,
                     coordinate_map=[0, 1])
    np.testing.assert_allclose(compute_gamma_weights(init, meas), [100.0])  # Hz^2


def test_gamma_largest_for_largest_mismatch():
    shapes = np.eye(3)
    init = ModalData(frequencies=[95.0, 180.0, 310.0], mode_shapes=shapes,
                     coordinate_map=np.arange(3))
    meas = ModalData(frequencies=[100.0, 200.0, 300.0], mode_shapes=shapes,
                     coordinate_map=np.arange(3))
    g = compute_gamma_weights(init, meas)
    assert np.argmax(g) == 1  # 20 rad/s error beats 5 and 10 rad/s


# ---------------------------------------------------------------- sampling


def test_sample_design_single_point():
    b = Bounds(lower=np.array([1.0, -1.0]), upper=np.array([2.0, 1.0]))
    x = sample_design(b, 1, seed=0)
    assert x.shape == (1, 2)
    assert b.contains(x[0])


def test_sample_design_lhs_stratification():
    b = Bounds(lower=np.full(12, 6.0e10), upper=np.full(12, 8.0e10))
    n = 150
    X = sample_design(b, n, seed=1)
    assert X.shape == (n, 12)
    for j in range(12):
        strata = np.floor((X[:, j] - 6.0e10) / (2.0e10 / n)).astype(int)
        np.testing.assert_array_equal(np.sort(strata), np.arange(n))


def test_sample_design_deterministic():
    b = Bounds(lower=np.zeros(3), upper=np.ones(3))
    np.testing.assert_array_equal(sample_design(b, 20, seed=9),
                                  sample_design(b, 20, seed=9))
    assert not np.array_equal(sample_design(b, 20, seed=9),
                              sample_design(b, 20, seed=10))


# ---------------------------------------------------------------- RSM loop


def test_rsm_runs_all_iterations(default_problem):
    problem, _ = default_problem
    cfg = small_rsm_config()
    report = rsm_update(problem, cfg)
    assert report.fe_evaluations == cfg.n_samples + cfg.max_iterations
    assert len(report.history) == cfg.max_iterations


def rsm_start_design(problem, cfg):
    """The design step 1 of rsm_update draws and scores, recomputed."""
    X0 = sample_design(problem.bounds, cfg.n_samples, cfg.sampler_seed)
    budget = EvalBudget()
    return X0, np.array([full_objective(problem, x, budget) for x in X0])


def test_rsm_replace_worst_keeps_design_size(default_problem):
    problem, _ = default_problem
    cfg = small_rsm_config()
    X0, t0 = rsm_start_design(problem, cfg)
    report = rsm_update(problem, cfg)
    X1, t1 = report.design
    assert X1.shape == X0.shape and t1.shape == t0.shape
    assert t1.max() <= t0.max()


def test_rsm_reports_design_best_cost(default_problem):
    problem, _ = default_problem
    cfg = small_rsm_config()
    _, t0 = rsm_start_design(problem, cfg)
    report = rsm_update(problem, cfg)
    assert report.design_best_cost == t0.min()
    assert report.final_cost <= report.design_best_cost


def test_rsm_report_self_consistent(default_problem):
    problem, _ = default_problem
    report = rsm_update(problem, small_rsm_config())
    recomputed = full_objective(problem, report.updated_parameters, EvalBudget())
    assert recomputed == pytest.approx(report.final_cost, rel=1e-10)
    assert problem.bounds.contains(report.updated_parameters)
    assert report.surrogate is not None


def test_rsm_deterministic(default_problem):
    problem, _ = default_problem
    cfg = small_rsm_config()
    r1 = rsm_update(problem, cfg)
    r2 = rsm_update(problem, cfg)
    np.testing.assert_array_equal(r1.updated_parameters, r2.updated_parameters)
    assert r1.final_cost == r2.final_cost
    assert r1.fe_evaluations == r2.fe_evaluations


def test_rsm_drops_a_failed_design_point(default_problem, monkeypatch, caplog):
    problem, _ = default_problem
    solve = femupdate.updating._observed_modes
    calls = []

    def failing_eighth(*args):
        calls.append(None)
        if len(calls) == 8:
            raise EigenSolveError("injected failure")
        return solve(*args)

    monkeypatch.setattr(femupdate.updating, "_observed_modes", failing_eighth)
    cfg = small_rsm_config()
    # a failed design solve costs +inf; the RSM goes on without that
    # point, as GA and SA go on without such a candidate
    with caplog.at_level("WARNING", logger="femupdate.updating"):
        report = rsm_update(problem, cfg)
    X, t = report.design
    assert X.shape == (cfg.n_samples - 1, problem.n_params) and t.shape == (cfg.n_samples - 1,)
    assert np.isfinite(t).all()
    dropped = [r for r in caplog.records if "non-finite cost" in r.getMessage()]
    assert [r.args[0] for r in dropped] == [1]
    assert report.fe_evaluations == report.fe_solves == cfg.n_samples + cfg.max_iterations
    # every design point was solved, plus the report's two modal comparisons
    assert len(calls) == report.fe_solves + 2
    assert np.isfinite(report.final_cost)


def test_rsm_raises_when_every_design_point_fails(default_problem, monkeypatch):
    problem, _ = default_problem

    def failing(*args):
        raise EigenSolveError("injected failure")

    monkeypatch.setattr(femupdate.updating, "_observed_modes", failing)
    with pytest.raises(ValueError, match="no RSM design point"):
        rsm_update(problem, small_rsm_config())


def test_rsm_rejects_oversized_net(default_problem):
    problem, _ = default_problem
    # 20 hidden units on 12 inputs make 281 weights for 40 design points
    with pytest.raises(ValueError, match="weights"):
        rsm_update(problem, small_rsm_config(m_hidden=20))


# ---------------------------------------------------------------- GA / SA


def test_ga_update_counts_pop_times_generations(default_problem):
    problem, _ = default_problem
    cfg = GaConfig(population_size=10, generations=12, seed=8)
    report = ga_update(problem, cfg)
    assert report.fe_evaluations == 120
    assert report.final_cost <= report.initial_cost
    recomputed = full_objective(problem, report.updated_parameters, EvalBudget())
    assert recomputed == pytest.approx(report.final_cost, rel=1e-10)


def test_sa_update_run_segments_and_accounting(default_problem):
    problem, _ = default_problem
    cfg = SaConfig(n_runs=3, steps_per_temperature=6, min_temperature=0.05,
                   cooling_factor=0.5, seed=9)
    report = sa_update(problem, cfg)
    assert sorted(set(h.run for h in report.history)) == [0, 1, 2]
    # per run: 1 start eval + levels * steps; levels: 1.0 * 0.5^k > 0.05 -> 5
    assert report.fe_evaluations == 3 * (1 + 5 * 6)
    assert report.final_cost <= report.initial_cost


def test_report_errors_recomputable(default_problem):
    problem, _ = default_problem
    report = ga_update(problem, GaConfig(population_size=8, generations=10, seed=4))
    errors = 100.0 * (report.updated_hz - report.measured_hz) / report.measured_hz
    np.testing.assert_allclose(errors, report.updated_errors_pct, atol=1e-9)
    errors0 = 100.0 * (report.initial_hz - report.measured_hz) / report.measured_hz
    np.testing.assert_allclose(errors0, report.initial_errors_pct, atol=1e-9)


def test_package_runs_without_scipy():
    # numpy and scipy each load their own OpenBLAS thread pool; an FE
    # evaluation must wake only numpy's
    code = """
import sys
import femupdate as fu
problem, _ = fu.build_scenario(fu.ScenarioSpec())
fu.full_objective(problem, problem.initial_parameters(), fu.EvalBudget())
fu.ga_update(problem, fu.GaConfig(population_size=10, generations=2))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=src, check=True)
    assert done.stdout.strip() == "[]"
