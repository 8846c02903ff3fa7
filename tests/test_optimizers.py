"""GA/SA operator statistics, convergence checks and budget accounting."""

import math

import numpy as np
import pytest

from femupdate.optimizers import (
    Bounds, EvalBudget, GaConfig, SaConfig, _geometric_ranks, _mutate, _next_generation,
    arithmetic_crossover, ga_optimize, geometric_select, metropolis_accept,
    nonuniform_mutate, row_by_row, sa_optimize,
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vector_generation_matches_scalar_operators(seed):
    # oracle: the scalar operators, fed the vector generation's draws in
    # its documented order, breed bit-identical children
    size, gen = 11, 7
    cfg = GaConfig(population_size=size, generations=20, mutation_rate=0.4, seed=0)
    b = Bounds(lower=np.array([-1.0, 0.0, 2.0]), upper=np.array([1.0, 5.0, 3.0]))
    setup = np.random.default_rng(100 + seed)
    pop = setup.uniform(b.lower, b.upper, (size, b.dim))
    costs = setup.uniform(size=size)
    best_x = pop[np.argmin(costs)].copy()
    new = _next_generation(pop, costs, best_x, gen, cfg, b, np.random.default_rng(seed))

    rng = np.random.default_rng(seed)
    pairs = size // 2
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
            children += arithmetic_crossover(ranked[i1], ranked[i2], Draws([next(weights)]))
        else:
            children += [ranked[i1], ranked[i2]]
    children = children[:size - 1]
    mutated = np.flatnonzero(rng.uniform(size=size - 1) < cfg.mutation_rate)
    coords = rng.integers(b.dim, size=mutated.size)
    directions = rng.uniform(size=mutated.size)
    steps = rng.uniform(size=mutated.size)
    for j, k in enumerate(mutated):
        children[k] = nonuniform_mutate(children[k], gen, cfg.generations, b,
                                        cfg.mutation_shape_b,
                                        Draws([directions[j], steps[j]], [coords[j]]))
    assert crossed.any() and not crossed.all() and mutated.size > 0
    np.testing.assert_array_equal(new, np.vstack([best_x, *children]))


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
                   mutation_rate=0.5, seed=0)
    b = Bounds(lower=np.linspace(-3.0, 1.0, 5), upper=np.linspace(2.0, 9.0, 5))
    setup = np.random.default_rng(size)
    pop = setup.uniform(b.lower, b.upper, (size, b.dim))
    rng, oracle_rng = np.random.default_rng(77), np.random.default_rng(77)
    for gen in range(1, cfg.generations):
        costs = setup.uniform(size=size)
        costs[1] = costs[3]  # a tie, broken by the stable sort
        best_x = pop[np.argmin(costs)].copy()
        new = _next_generation(pop, costs, best_x, gen, cfg, b, rng)
        expected = uniform_draws_next_generation(pop, costs, best_x, gen, cfg, b, oracle_rng)
        np.testing.assert_array_equal(new, expected)
        # the same draws were made: both generators are in the same state
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        pop = new


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
