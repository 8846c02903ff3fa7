"""GA/SA operator statistics, convergence checks and budget accounting."""

import math
import re
import tracemalloc

import numpy as np
import pytest

import femupdate.optimizers
from femupdate.optimizers import (
    Bounds, BudgetExhausted, EvalBudget, GaConfig, HistoryRecord, OptimizeResult, SaConfig,
    _breeding_schedule, _geometric_ranks, _mutate, arithmetic_crossover,
    ga_optimize, geometric_select, metropolis_accept, nonuniform_mutate, row_by_row,
    sa_optimize,
)


def unit_box(d):
    return Bounds(lower=np.zeros(d), upper=np.ones(d))


class CountingObjective:
    """Counts calls, charging each to budget first when one is given."""

    def __init__(self, fn, budget=None):
        self.fn = fn
        self.budget = budget
        self.calls = 0

    def __call__(self, x):
        if self.budget is not None:
            self.budget.consume()
        self.calls += 1
        return self.fn(x)


# ---------------------------------------------------------------- crossover


class FixedUniform:
    """rng stub returning a preset uniform value."""

    def __init__(self, value):
        self.value = value

    def uniform(self):
        return self.value


def test_crossover_endpoints_and_midpoint():
    p1, p2 = np.array([0.0, 0.0]), np.array([1.0, 2.0])
    c1, c2 = arithmetic_crossover(p1, p2, FixedUniform(1.0))
    np.testing.assert_allclose(c1, p1)
    np.testing.assert_allclose(c2, p2)
    c1, c2 = arithmetic_crossover(p1, p2, FixedUniform(0.5))
    np.testing.assert_allclose(c1, [0.5, 1.0])
    np.testing.assert_allclose(c2, [0.5, 1.0])


def test_crossover_hand_value():
    p1, p2 = np.array([0.0, 0.0]), np.array([1.0, 2.0])
    c1, c2 = arithmetic_crossover(p1, p2, FixedUniform(0.25))
    np.testing.assert_allclose(c1, [0.75, 1.5])
    np.testing.assert_allclose(c2, [0.25, 0.5])


def test_crossover_children_stay_in_box():
    rng = np.random.default_rng(1)
    b = unit_box(4)
    for _ in range(200):
        p1 = rng.uniform(0.0, 1.0, 4)
        p2 = rng.uniform(0.0, 1.0, 4)
        c1, c2 = arithmetic_crossover(p1, p2, rng)
        assert b.contains(c1) and b.contains(c2)


# ---------------------------------------------------------------- mutation


def test_mutation_identity_at_final_generation():
    rng = np.random.default_rng(2)
    b = unit_box(3)
    x = np.array([0.2, 0.5, 0.9])
    for _ in range(50):
        np.testing.assert_array_equal(nonuniform_mutate(x, 100, 100, b, 2.0, rng), x)


def test_mutation_at_bound_toward_bound_is_identity():
    b = unit_box(1)

    class Stub:
        def integers(self, n):
            return 0

        def uniform(self):
            return 0.3  # < 0.5 -> toward upper

    out = nonuniform_mutate(np.array([1.0]), 1, 100, b, 2.0, Stub())
    assert out[0] == 1.0


def test_mutation_magnitude_contracts_with_generation():
    rng = np.random.default_rng(3)
    b = unit_box(1)
    x = np.array([0.5])

    def mean_abs_delta(t, t_max, n=10_000):
        return np.mean([abs(nonuniform_mutate(x, t, t_max, b, 2.0, rng)[0] - 0.5)
                        for _ in range(n)])

    early = mean_abs_delta(10, 100)
    late = mean_abs_delta(90, 100)
    assert late < early


def test_mutation_stays_in_box():
    rng = np.random.default_rng(4)
    b = Bounds(lower=np.array([-2.0, 0.0]), upper=np.array([3.0, 1.0]))
    x = np.array([0.5, 0.25])
    for t in (1, 25, 49):
        for _ in range(200):
            assert b.contains(nonuniform_mutate(x, t, 50, b, 2.0, rng))


# ---------------------------------------------------------------- selection


def test_select_single_individual():
    rng = np.random.default_rng(5)
    assert geometric_select([3.0], 0.3, rng) == 0


def test_select_two_individuals_analytic():
    # q' = 0.5 / (1 - 0.25) = 2/3
    rng = np.random.default_rng(6)
    draws = np.array([geometric_select([1.0, 2.0], 0.5, rng) for _ in range(100_000)])
    assert np.mean(draws == 0) == pytest.approx(2.0 / 3.0, abs=0.01)
    assert np.mean(draws == 1) == pytest.approx(1.0 / 3.0, abs=0.01)


def test_select_best_frequency_n50():
    q = 0.08
    n = 50
    q_norm = q / (1.0 - (1.0 - q) ** n)  # ~0.081255
    rng = np.random.default_rng(7)
    costs = list(range(n))
    draws = np.array([geometric_select(costs, q, rng) for _ in range(100_000)])
    assert np.mean(draws == 0) == pytest.approx(q_norm, abs=0.01)


def test_select_probabilities_sum_to_one():
    for n in (1, 2, 10, 50):
        for q in (0.05, 0.08, 0.5, 0.9):
            q_norm = q / (1.0 - (1.0 - q) ** n)
            total = sum(q_norm * (1.0 - q) ** r for r in range(n))
            assert total == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------- metropolis


def test_metropolis_always_accepts_downhill_and_equal():
    rng = np.random.default_rng(8)
    assert all(metropolis_accept(1.0, 0.5, 1e-12, rng) for _ in range(100))
    assert all(metropolis_accept(1.0, 1.0, 1.0, rng) for _ in range(100))


def test_metropolis_uphill_frozen_at_zero_temperature():
    rng = np.random.default_rng(9)
    assert not any(metropolis_accept(1.0, 1.5, 1e-300, rng) for _ in range(100))


def test_metropolis_uphill_acceptance_rate():
    rng = np.random.default_rng(10)
    accepted = sum(metropolis_accept(0.0, 0.5, 1.0, rng) for _ in range(100_000))
    assert accepted / 100_000 == pytest.approx(math.exp(-0.5), abs=0.01)


# ---------------------------------------------------------------- GA


def test_ga_sphere_convergence():
    # pop 50 x 200 generations; mutation 0.1 (the production default of
    # 0.003 is exploitation-heavy and stalls near 1e-2 on this function)
    target = np.full(5, 0.3)
    obj = lambda x: float(np.sum((x - target) ** 2))
    for seed in (0, 42):
        res = ga_optimize(row_by_row(obj), unit_box(5), GaConfig(mutation_rate=0.1, seed=seed))
        assert res.best_cost < 1e-3


def test_ga_one_dimensional_minimum():
    obj = lambda x: float((x[0] - 0.5) ** 2)
    res = ga_optimize(row_by_row(obj), unit_box(1), GaConfig(seed=1))
    assert abs(res.best_x[0] - 0.5) < 0.01


def test_ga_constant_objective():
    res = ga_optimize(row_by_row(lambda x: 7.25), unit_box(3),
                      GaConfig(population_size=10, generations=5, seed=2))
    assert res.best_cost == 7.25
    assert unit_box(3).contains(res.best_x)


def test_ga_counts_evaluations_exactly():
    budget = EvalBudget()
    obj = CountingObjective(lambda x: float(np.sum(x**2)), budget)
    cfg = GaConfig(population_size=12, generations=9, seed=3)
    res = ga_optimize(row_by_row(obj), unit_box(4), cfg)
    assert budget.calls == obj.calls == 12 * 9
    assert res.history[-1].evaluations == 12 * 9


def test_ga_candidates_stay_in_bounds():
    b = Bounds(lower=np.array([-1.0, 2.0]), upper=np.array([1.0, 5.0]))
    seen = []

    def obj(x):
        seen.append(x.copy())
        return float(np.sum(x**2))

    ga_optimize(row_by_row(obj), b, GaConfig(population_size=15, generations=20,
                                             mutation_rate=0.5, seed=4))
    assert all(b.contains(x) for x in seen)


def test_ga_best_history_non_increasing():
    obj = lambda x: float(np.sum((x - 0.2) ** 2))
    res = ga_optimize(row_by_row(obj), unit_box(3),
                      GaConfig(population_size=10, generations=30, seed=5))
    bests = [h.best_cost for h in res.history]
    assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))


def test_ga_deterministic_per_seed():
    obj = lambda x: float(np.sum(np.sin(5 * x) + x**2))
    cfg = GaConfig(population_size=8, generations=15, seed=99)
    r1 = ga_optimize(row_by_row(obj), unit_box(3), cfg)
    r2 = ga_optimize(row_by_row(obj), unit_box(3), cfg)
    np.testing.assert_array_equal(r1.best_x, r2.best_x)
    assert r1.best_cost == r2.best_cost
    assert [h.best_cost for h in r1.history] == [h.best_cost for h in r2.history]


def test_ga_budget_truncation():
    budget = EvalBudget(limit=25)
    obj = CountingObjective(lambda x: float(np.sum(x**2)), budget)
    res = ga_optimize(row_by_row(obj), unit_box(2),
                      GaConfig(population_size=10, generations=10, seed=6))
    assert res.truncated
    assert budget.calls == 25 == obj.calls
    assert np.isfinite(res.best_cost)


class Draws:
    """rng stub replaying preset uniform() and integers() values in order."""

    def __init__(self, uniforms, integers=()):
        self._uniforms = iter(uniforms)
        self._integers = iter(integers)

    def uniform(self):
        return float(next(self._uniforms))

    def integers(self, n):
        return int(next(self._integers))


def recorded_run(cfg, bounds, costs_seed):
    """ga_optimize on preset random costs, with a tie in every generation.

    Returns, per bred generation, (population, costs, incumbent best,
    generation, next population), and the rng that drew the initial
    population, left where breeding starts.
    """
    setup = np.random.default_rng(costs_seed)
    seen = []

    def objective(X):
        costs = setup.uniform(size=len(X))
        costs[1] = costs[3]  # a tie, broken by the stable sort
        seen.append((X.copy(), costs))
        return costs

    ga_optimize(objective, bounds, cfg)
    rng = np.random.default_rng(cfg.seed)
    np.testing.assert_array_equal(rng.uniform(bounds.lower, bounds.upper, seen[0][0].shape),
                                  seen[0][0])
    steps, best_cost = [], math.inf
    for gen, ((pop, costs), (new, _)) in enumerate(zip(seen, seen[1:]), start=1):
        if costs.min() < best_cost:
            best_cost, best_x = costs.min(), pop[np.argmin(costs)]
        steps.append((pop, costs, best_x, gen, new))
    assert len(steps) == cfg.generations - 1
    return steps, rng


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vector_generation_matches_scalar_operators(seed):
    # oracle: the scalar operators, fed the run's draws in the documented
    # order, breed bit-identical children in every generation
    size = 11
    cfg = GaConfig(population_size=size, generations=20, mutation_rate=0.4, seed=seed)
    b = Bounds(lower=np.array([-1.0, 0.0, 2.0]), upper=np.array([1.0, 5.0, 3.0]))
    steps, rng = recorded_run(cfg, b, 100 + seed)
    pairs = size // 2
    n_crossed = n_mutated = 0
    for pop, costs, best_x, gen, new in steps:
        order = np.argsort(costs, kind="stable")
        ranked, ranked_costs = pop[order], costs[order]
        u_select = rng.uniform(size=(pairs, 2))
        crossed = rng.uniform(size=pairs) < cfg.crossover_rate
        weights = iter(rng.uniform(size=int(crossed.sum())))
        children = []
        for k in range(pairs):
            i1, i2 = (geometric_select(ranked_costs, cfg.selection_q, Draws([u]))
                      for u in u_select[k])
            if crossed[k]:
                children += arithmetic_crossover(ranked[i1], ranked[i2],
                                                 Draws([next(weights)]))
            else:
                children += [ranked[i1], ranked[i2]]
        children = children[:size - 1]
        mutated = np.flatnonzero(rng.uniform(size=size - 1) < cfg.mutation_rate)
        if mutated.size:
            coords = rng.integers(b.dim, size=mutated.size)
            directions = rng.uniform(size=mutated.size)
            steps_u = rng.uniform(size=mutated.size)
        for j, k in enumerate(mutated):
            children[k] = nonuniform_mutate(children[k], gen, cfg.generations, b,
                                            cfg.mutation_shape_b,
                                            Draws([directions[j], steps_u[j]], [coords[j]]))
        np.testing.assert_array_equal(new, np.vstack([best_x, *children]))
        n_crossed += crossed.sum()
        n_mutated += mutated.size
    assert 0 < n_crossed < pairs * len(steps) and n_mutated > 0


def uniform_draws_next_generation(pop, costs, best_x, gen, cfg, bounds, rng):
    """The generation step as first written with rng.uniform draws: the oracle."""
    size, d = pop.shape
    ranked = pop[np.argsort(costs, kind="stable")]
    pairs = size // 2
    ranks = _geometric_ranks(rng.uniform(size=(pairs, 2)), cfg.selection_q, size).astype(int)
    c1, c2 = ranked[ranks[:, 0]], ranked[ranks[:, 1]]
    crossed = rng.uniform(size=pairs) < cfg.crossover_rate
    a = rng.uniform(size=(int(crossed.sum()), 1))
    c1[crossed], c2[crossed] = (a * c1[crossed] + (1.0 - a) * c2[crossed],
                                (1.0 - a) * c1[crossed] + a * c2[crossed])
    children = np.stack([c1, c2], axis=1).reshape(-1, d)[:size - 1]
    rows = np.flatnonzero(rng.uniform(size=size - 1) < cfg.mutation_rate)
    if rows.size:
        i = rng.integers(d, size=rows.size)
        toward_upper = rng.uniform(size=rows.size) < 0.5
        r = rng.uniform(size=rows.size)
        expo = (1.0 - gen / cfg.generations) ** cfg.mutation_shape_b
        children[rows, i] = _mutate(children[rows, i], bounds.lower[i], bounds.upper[i],
                                    toward_upper, r, expo)
    return np.vstack([best_x, children])


@pytest.mark.parametrize("size", [7, 8])
@pytest.mark.parametrize("crossover_rate", [0.0, 0.6, 1.0])
def test_next_generation_matches_uniform_draws_oracle(size, crossover_rate):
    cfg = GaConfig(population_size=size, generations=6, crossover_rate=crossover_rate,
                   mutation_rate=0.5, seed=77)
    b = Bounds(lower=np.linspace(-3.0, 1.0, 5), upper=np.linspace(2.0, 9.0, 5))
    steps, oracle_rng = recorded_run(cfg, b, size)
    for pop, costs, best_x, gen, new in steps:
        expected = uniform_draws_next_generation(pop, costs, best_x, gen, cfg, b, oracle_rng)
        np.testing.assert_array_equal(new, expected)
    # the same draws were made: both generators are in the same state
    rng = np.random.default_rng(cfg.seed)
    rng.uniform(b.lower, b.upper, (size, b.dim))
    _breeding_schedule(rng, cfg, b.dim, cfg.generations - 1)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def per_generation_ga(objective, bounds, cfg):
    """ga_optimize as first written, drawing each generation's breeding as
    it breeds it: the run-for-run oracle."""
    rng = np.random.default_rng(cfg.seed)
    size, d = cfg.population_size, bounds.dim
    pop = rng.uniform(bounds.lower, bounds.upper, (size, d))
    best_x, best_cost = pop[0].copy(), math.inf
    history, evaluations, truncated = [], 0, False
    for gen in range(1, cfg.generations + 1):
        try:
            costs = np.asarray(objective(pop), dtype=float)
        except BudgetExhausted as exc:
            truncated, costs = True, exc.paid
        if costs.size == 0:
            break
        evaluations += costs.size
        gen_best = int(np.argmin(costs))
        if costs[gen_best] < best_cost:
            best_cost, best_x = float(costs[gen_best]), pop[gen_best].copy()
        history.append(HistoryRecord(step=gen, best_cost=best_cost,
                                     mean_cost=float(costs.sum() / costs.size),
                                     evaluations=evaluations))
        if truncated:
            break
        if gen < cfg.generations:
            pop = per_generation_breed(pop, costs, best_x, gen, cfg, bounds, rng)
    return OptimizeResult(best_x=best_x, best_cost=best_cost, history=history,
                          truncated=truncated)


def per_generation_breed(pop, costs, best_x, gen, cfg, bounds, rng):
    size, d = pop.shape
    pairs = size // 2
    ranks = _geometric_ranks(rng.random((pairs, 2)), cfg.selection_q, size).astype(int)
    parents = pop[np.argsort(costs, kind="stable")[ranks]]
    crossed = rng.random(pairs) < cfg.crossover_rate
    a = rng.random((np.count_nonzero(crossed), 1))
    p1, p2 = parents[crossed, 0], parents[crossed, 1]
    parents[crossed, 0], parents[crossed, 1] = a * p1 + (1.0 - a) * p2, (1.0 - a) * p1 + a * p2
    children = parents.reshape(-1, d)[:size - 1]
    rows = (rng.random(size - 1) < cfg.mutation_rate).nonzero()[0]
    if rows.size:
        i = rng.integers(d, size=rows.size)
        toward_upper = rng.random(rows.size) < 0.5
        r = rng.random(rows.size)
        expo = (1.0 - gen / cfg.generations) ** cfg.mutation_shape_b
        children[rows, i] = _mutate(children[rows, i], bounds.lower[i], bounds.upper[i],
                                    toward_upper, r, expo)
    return np.concatenate([best_x[None], children])


def assert_same_run(optimize, oracle, make_objective):
    """optimize and oracle evaluate the same populations and return the same result."""
    seen, oracle_seen = [], []
    res = optimize(make_objective(seen))
    expected = oracle(make_objective(oracle_seen))
    assert len(seen) == len(oracle_seen)
    for X, Y in zip(seen, oracle_seen):
        np.testing.assert_array_equal(X, Y)
    np.testing.assert_array_equal(res.best_x, expected.best_x)
    assert res.best_cost == expected.best_cost
    assert res.history == expected.history
    assert res.truncated == expected.truncated


def wavy(X):
    """A multimodal cost over the last axis."""
    return np.sum(np.sin(3.0 * X) + (X - 0.1) ** 2, axis=-1)


def recording(seen):
    def objective(X):
        seen.append(X.copy())
        return wavy(X)
    return objective


NEGATIVE_BOX = Bounds(lower=np.array([-3.0, -1.0, 0.5]), upper=np.array([-1.0, 2.0, 4.0]))


@pytest.mark.parametrize("size", [2, 7, 50])
@pytest.mark.parametrize("generations", [1, 2, 200])
@pytest.mark.parametrize("crossover_rate", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("mutation_rate", [0.0, 0.5])
def test_ga_matches_per_generation_draws_run_for_run(size, generations, crossover_rate,
                                                     mutation_rate):
    cfg = GaConfig(population_size=size, generations=generations,
                   crossover_rate=crossover_rate, mutation_rate=mutation_rate, seed=size)
    assert_same_run(lambda f: ga_optimize(f, NEGATIVE_BOX, cfg),
                    lambda f: per_generation_ga(f, NEGATIVE_BOX, cfg), recording)


def test_budget_truncated_ga_matches_per_generation_draws():
    cfg = GaConfig(population_size=7, generations=10, mutation_rate=0.5, seed=3)

    def truncated(seen):
        budget = EvalBudget(limit=7 * 4 + 3)

        def cost(x):
            budget.consume()
            return float(wavy(x))

        batch = row_by_row(cost)

        def objective(X):
            seen.append(X.copy())
            return batch(X)
        return objective

    assert_same_run(lambda f: ga_optimize(f, NEGATIVE_BOX, cfg),
                    lambda f: per_generation_ga(f, NEGATIVE_BOX, cfg), truncated)
    res = ga_optimize(truncated([]), NEGATIVE_BOX, cfg)
    assert res.truncated and res.history[-1].evaluations == 7 * 4 + 3


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("generations", [4, 7, 30])
def test_ga_drawn_in_blocks_matches_the_one_block_run(monkeypatch, block, generations):
    cfg = GaConfig(population_size=7, generations=generations, mutation_rate=0.5, seed=5)

    def blocked(objective):
        with monkeypatch.context() as m:
            m.setattr(femupdate.optimizers, "SCHEDULE_BLOCK", block)
            return ga_optimize(objective, NEGATIVE_BOX, cfg)

    assert generations - 1 <= femupdate.optimizers.SCHEDULE_BLOCK
    assert_same_run(blocked, lambda f: ga_optimize(f, NEGATIVE_BOX, cfg), recording)


def schedule_memory(generations):
    """Bytes a GA run allocates beyond what it returns: its peak traced
    memory less the memory still held when it has returned."""
    b = Bounds(lower=np.zeros(12), upper=np.ones(12))
    cfg = GaConfig(population_size=50, generations=generations, seed=1)
    tracemalloc.start()
    try:
        res = ga_optimize(lambda X: np.sum(X * X, axis=1), b, cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.history) == generations
    return peak - held


def test_ga_schedule_memory_does_not_grow_with_generations():
    schedule_memory(10)  # warm up: import-time and first-call allocations
    short, long = schedule_memory(600), schedule_memory(2400)
    # drawn up front, the schedule would hold about 1.5 MB more per 1 000
    # generations of 50 individuals; one block of 256 is about 0.2 MB
    assert long < short + 250_000
    assert long < 1_500_000


def test_ga_evaluates_each_generation_in_one_batch():
    b = Bounds(lower=np.array([-1.0, 2.0]), upper=np.array([1.0, 5.0]))
    cfg = GaConfig(population_size=9, generations=12, mutation_rate=0.5, seed=7)
    seen = []

    def objective(X):
        seen.append((X.copy(), np.sum(X**2, axis=1)))
        return seen[-1][1]

    res = ga_optimize(objective, b, cfg)
    assert len(seen) == cfg.generations
    assert all(X.shape == (9, 2) and all(b.contains(x) for x in X) for X, _ in seen)
    # row 0 of every later generation is the best row evaluated so far
    for g in range(1, len(seen)):
        X = np.vstack([x for x, _ in seen[:g]])
        c = np.concatenate([c for _, c in seen[:g]])
        np.testing.assert_array_equal(seen[g][0][0], X[np.argmin(c)])
    assert res.history[-1].evaluations == 9 * 12


@pytest.mark.parametrize("returned", [np.zeros(8), np.zeros(10), np.zeros((9, 1)),
                                      np.float64(1.0)])
def test_ga_rejects_wrong_cost_shape(returned):
    with pytest.raises(ValueError, match="shape"):
        ga_optimize(lambda X: returned, unit_box(2),
                    GaConfig(population_size=9, generations=3, seed=0))


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population_size=1)
    with pytest.raises(ValueError):
        GaConfig(generations=0)
    with pytest.raises(ValueError):
        GaConfig(mutation_rate=1.5)
    for q in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="selection_q must lie strictly in"):
            GaConfig(selection_q=q)
    with pytest.raises(ValueError, match="mutation_shape_b must be >= 0 and finite"):
        GaConfig(mutation_shape_b=-1.0)
    GaConfig(mutation_shape_b=0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_bounds_reject_non_finite_entries(value):
    with pytest.raises(ValueError, match="bounds must be finite"):
        Bounds(lower=[0.0, value], upper=[1.0, 1.0])
    with pytest.raises(ValueError, match="bounds must be finite"):
        Bounds(lower=[0.0, 0.0], upper=[value, 1.0])


@pytest.mark.parametrize("lower, upper", [
    ([[1.0, 1.0, 1.0]], [[2.0, 2.0, 2.0]]),
    (1.0, 2.0),
    ([1.0, 1.0], [2.0, 2.0, 2.0]),
])
def test_bounds_are_two_one_dimensional_vectors_of_equal_length(lower, upper):
    # (1, 3) bounds would report dim 3 and fail at the GA's first mutation
    message = (f"bounds must be 1-D vectors of equal length, got shapes {np.shape(lower)} "
               f"and {np.shape(upper)}")
    with pytest.raises(ValueError, match=re.escape(message)):
        Bounds(lower=lower, upper=upper)


# ---------------------------------------------------------------- SA


def test_sa_finds_sphere_minimum():
    target = np.full(3, 0.6)
    obj = lambda x: float(np.sum((x - target) ** 2))
    res = sa_optimize(obj, unit_box(3), SaConfig(seed=11, n_runs=2))
    assert res.best_cost < 1e-3


def test_sa_history_has_run_segments():
    obj = lambda x: float(np.sum(x**2))
    cfg = SaConfig(n_runs=3, min_temperature=1e-2, seed=12)
    res = sa_optimize(obj, unit_box(2), cfg)
    assert sorted(set(h.run for h in res.history)) == [0, 1, 2]
    assert all(h.temperature is not None for h in res.history)


def test_sa_evaluation_accounting():
    budget = EvalBudget()
    obj = CountingObjective(lambda x: float(np.sum(x**2)), budget)
    cfg = SaConfig(n_runs=2, steps_per_temperature=5, min_temperature=1e-2,
                   cooling_factor=0.5, seed=13)
    sa_optimize(obj, unit_box(2), cfg)
    # temperature levels: 1.0 * 0.5^k > 1e-2 -> 7 levels; +1 start eval per run
    assert budget.calls == obj.calls == 2 * (1 + 7 * 5)


def test_sa_candidates_stay_in_bounds():
    b = Bounds(lower=np.array([2.0]), upper=np.array([3.0]))
    seen = []

    def obj(x):
        seen.append(x.copy())
        return float(x[0] ** 2)

    sa_optimize(obj, b, SaConfig(n_runs=1, min_temperature=0.1, seed=14))
    assert all(b.contains(x) for x in seen)


def test_sa_deterministic_per_seed():
    obj = lambda x: float(np.sum((x - 0.3) ** 2))
    cfg = SaConfig(n_runs=2, min_temperature=1e-3, seed=15)
    r1 = sa_optimize(obj, unit_box(2), cfg)
    r2 = sa_optimize(obj, unit_box(2), cfg)
    np.testing.assert_array_equal(r1.best_x, r2.best_x)
    assert [h.best_cost for h in r1.history] == [h.best_cost for h in r2.history]


def test_sa_best_non_increasing_and_nonfinite_rejected():
    calls = {"n": 0}

    def obj(x):
        calls["n"] += 1
        if calls["n"] % 17 == 0:
            return math.inf
        return float(np.sum(x**2))

    res = sa_optimize(obj, unit_box(2),
                      SaConfig(n_runs=1, min_temperature=1e-2, seed=16))
    bests = [h.best_cost for h in res.history]
    assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))
    assert math.isfinite(res.best_cost)


def test_sa_budget_truncation():
    budget = EvalBudget(limit=30)
    obj = CountingObjective(lambda x: float(np.sum(x**2)), budget)
    res = sa_optimize(obj, unit_box(2), SaConfig(n_runs=3, seed=17))
    assert res.truncated
    assert budget.calls == 30


def test_sa_all_nonfinite_costs_named_as_such():
    obj = CountingObjective(lambda x: math.inf)
    with pytest.raises(RuntimeError, match="no finite cost in") as exc:
        sa_optimize(obj, unit_box(2), SaConfig(n_runs=1, min_temperature=0.5))
    assert str(exc.value).endswith(f" {obj.calls} evaluations")
    assert obj.calls > 1


def test_sa_budget_exhausted_before_any_evaluation():
    obj = CountingObjective(lambda x: float(np.sum(x**2)), EvalBudget(limit=0))
    with pytest.raises(RuntimeError, match="budget exhausted before any evaluation"):
        sa_optimize(obj, unit_box(2), SaConfig(n_runs=1, min_temperature=0.5))
    assert obj.calls == 0


def test_sa_config_validation():
    with pytest.raises(ValueError):
        SaConfig(cooling_factor=1.0)
    with pytest.raises(ValueError):
        SaConfig(n_runs=0)
    with pytest.raises(ValueError):
        SaConfig(step_scale=0.0)
    # a start at min_temperature would anneal nothing
    with pytest.raises(ValueError, match="initial_temperature must exceed"):
        SaConfig(initial_temperature=1e-6, min_temperature=1e-6)


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(lower=np.array([0.0, 1.0]), upper=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Bounds(lower=np.zeros(2), upper=np.ones(3))
