"""Box-constrained optimizers: real-coded GA and simulated annealing.

Both work on bounded parameter vectors, stop early when the objective
raises BudgetExhausted, and are bit-deterministic per seed. The GA takes
a batch objective, which maps a (P, d) population to (P,) costs and is
called once per generation; row_by_row lifts a scalar objective to one.
SA takes a scalar objective f(x) -> float, since its chain is
sequential. Every candidate handed to an objective lies inside the
bounds.

No GA breeding draw (selection, crossover, mutation) depends on a cost,
so a GA run makes them in blocks of SCHEDULE_BLOCK generations, each
just before the first generation it breeds; a generation is then a few
array operations. A block keeps about two eight-byte values per
generation and individual (0.2 MB at 256 x 50), twice that while it is
drawn, so the schedule's memory does not grow with generations.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

# generations whose GA breeding draws are made together: the production
# 200 generations are one block
SCHEDULE_BLOCK = 256


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError naming the field unless value is an integer >= least.

    Python and numpy integers pass. A bool, a float (nan and +-inf among
    them) and anything else fail, even where it compares >= least.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


@dataclass
class Bounds:
    """Component-wise lower/upper box bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape:
            raise ValueError("bound vectors must have equal length")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("bounds must be finite")
        if np.any(self.lower >= self.upper):
            raise ValueError("lower bounds must be strictly below upper bounds")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def range(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


@dataclass
class GaConfig:
    population_size: int = 50
    generations: int = 200
    selection_q: float = 0.08      # probability of picking the best-ranked parent
    mutation_rate: float = 0.003   # per-individual
    crossover_rate: float = 0.60   # per-pair
    mutation_shape_b: float = 2.0
    seed: int = 2

    def __post_init__(self):
        check_count("population_size", self.population_size, 2)
        check_count("generations", self.generations, 1)
        for name in ("mutation_rate", "crossover_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.selection_q < 1.0:
            raise ValueError("selection_q must lie strictly in (0, 1)")
        if not 0.0 <= self.mutation_shape_b < math.inf:
            raise ValueError("mutation_shape_b must be >= 0 and finite")
        check_count("seed", self.seed, 0)


@dataclass
class SaConfig:
    initial_temperature: float = 1.0
    cooling_factor: float = 0.9
    steps_per_temperature: int | None = None  # None -> 4 x dimension
    n_runs: int = 3
    step_scale: float = 0.1        # proposal std as a fraction of bound range
    min_temperature: float = 1.0e-6
    seed: int = 3

    def __post_init__(self):
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling_factor must lie in (0, 1)")
        check_count("n_runs", self.n_runs, 1)
        if not 0.0 < self.step_scale <= 1.0:
            raise ValueError("step_scale must lie in (0, 1]")
        if not 0.0 < self.min_temperature < math.inf:
            raise ValueError("temperatures must be positive and finite (min_temperature)")
        if not self.min_temperature < self.initial_temperature < math.inf:
            raise ValueError("initial_temperature must exceed min_temperature and be finite")
        if self.steps_per_temperature is not None:
            check_count("steps_per_temperature", self.steps_per_temperature, 1)
        check_count("seed", self.seed, 0)


class BudgetExhausted(RuntimeError):
    """Raised by EvalBudget.consume once its cap is reached.

    paid holds the costs a batch objective computed before the cap was
    hit, in row order (see row_by_row); it is empty otherwise.
    """

    def __init__(self, message: str = "", paid=()):
        super().__init__(message)
        self.paid = np.asarray(paid, dtype=float)


def row_by_row(objective):
    """Lift a scalar objective f(x) -> float to a batch one f(X) -> (P,).

    Rows are evaluated in order, one objective call each. When a call
    raises BudgetExhausted, it is re-raised carrying the costs of the
    rows before it.
    """

    def batch(X: np.ndarray) -> np.ndarray:
        paid = []
        for x in X:
            try:
                paid.append(float(objective(x)))
            except BudgetExhausted as exc:
                raise BudgetExhausted(str(exc), paid) from exc
        return np.array(paid)

    return batch


class EvalBudget:
    """One update call's record of FE evaluations, with optional cap; not thread-safe.

    full_objective writes it: calls counts the charged evaluations (see
    consume), solves the model solves actually run, and costs maps the
    float64 bytes of each parameter vector with a finite cost to that
    cost, so a repeated candidate is charged but not solved again.
    """

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self._calls = 0
        self.solves = 0
        self.costs: dict[bytes, float] = {}

    @property
    def calls(self) -> int:
        return self._calls

    def consume(self):
        """Reserve one evaluation; raises BudgetExhausted if the cap is reached."""
        if self.limit is not None and self._calls >= self.limit:
            raise BudgetExhausted(f"FE evaluation budget of {self.limit} exhausted")
        self._calls += 1


@dataclass
class HistoryRecord:
    """One optimizer progress row for reporting.

    RSM rows also carry the surrogate's predicted cost at the re-anchored
    point and that point's full-model cost.
    """

    step: int
    best_cost: float
    mean_cost: float
    evaluations: int
    temperature: float | None = None
    run: int | None = None
    predicted_cost: float | None = None
    full_cost: float | None = None


@dataclass
class OptimizeResult:
    best_x: np.ndarray
    best_cost: float
    history: list[HistoryRecord] = field(default_factory=list)
    truncated: bool = False


def arithmetic_crossover(p1: np.ndarray, p2: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate two parents along their connecting segment.

    Draws a in [0, 1] and returns the complementary pair
    a*p1 + (1-a)*p2 and (1-a)*p1 + a*p2, which stay inside any box
    containing the parents.
    """
    if p1.shape != p2.shape:
        raise ValueError("parents must have equal length")
    a = rng.uniform()
    b = 1.0 - a
    return a * p1 + b * p2, b * p1 + a * p2


def nonuniform_mutate(x: np.ndarray, t: int, t_max: int, bounds: Bounds,
                      b: float, rng) -> np.ndarray:
    """Non-uniform mutation of one random coordinate.

    Perturbs toward a randomly chosen bound by
    delta(t, y) = y * (1 - r^((1 - t/t_max)^b)), y being the distance to
    that bound. The perturbation contracts to zero as t approaches t_max.
    """
    if t > t_max:
        raise ValueError("generation exceeds maximum generation")
    i = int(rng.integers(x.size))
    toward_upper = rng.uniform() < 0.5
    r = rng.uniform()
    out = x.copy()
    # r as an array takes numpy's vector power, as a GA generation does;
    # the scalar power can differ from it in the last bit
    out[i] = _mutate(x[i], bounds.lower[i], bounds.upper[i], toward_upper, np.array([r]),
                     (1.0 - t / t_max) ** b)[0]
    return out


def _mutate(xi, lower, upper, toward_upper, r, expo):
    """Coordinate values xi moved by non-uniform mutation; scalars or arrays.

    Each moves toward upper where toward_upper, else toward lower, by the
    distance to that bound times 1 - r^expo.
    """
    step = 1.0 - r**expo
    return np.where(toward_upper, xi + (upper - xi) * step, xi - (xi - lower) * step)


def geometric_select(ranked_costs, q: float, rng) -> int:
    """Pick an index from an ascending-cost ranking.

    Rank r (0 = best) is chosen with the normalized geometric probability
    q' (1-q)^r, q' = q / (1 - (1-q)^n).
    """
    n = len(ranked_costs)
    if n == 0:
        raise ValueError("empty ranking")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly in (0, 1)")
    if n == 1:
        return 0
    return int(_geometric_ranks(rng.uniform(), q, n))


def _geometric_ranks(u, q: float, n: int):
    """Ranks in [0, n), as floats, for uniform draws u (scalar or array).

    By the geometric inverse CDF, the rank is the smallest r with
    u < (1 - (1-q)^(r+1)) / (1 - (1-q)^n).
    """
    r = np.floor(np.log1p(-u * (1.0 - (1.0 - q) ** n)) / math.log1p(-q))
    return np.minimum(r, n - 1.0)


def metropolis_accept(e_old: float, e_new: float, temperature: float, rng) -> bool:
    """Metropolis rule: always downhill, uphill with exp(-dE/T)."""
    de = e_new - e_old
    if de <= 0.0:
        return True
    arg = -de / temperature
    if arg < -700.0:
        return False
    return rng.uniform() < math.exp(arg)


def ga_optimize(objective, bounds: Bounds, cfg: GaConfig) -> OptimizeResult:
    """Real-coded genetic algorithm over a box.

    objective maps a (population_size, d) array to (population_size,)
    costs; it is called once per generation with the whole population,
    the carried-over elite included, so the run costs exactly
    population_size * generations evaluations. Any other return shape
    raises ValueError. An objective raising BudgetExhausted truncates the
    run; the costs it carries (the evaluated prefix of the population, as
    row_by_row records it) still count toward the best and get one
    history row. History rows carry per-generation best/mean cost and
    cumulative evaluations; the best-ever individual is returned.

    The run's breeding draws are made a block of generations at a time
    (see _breeding_schedule).
    """
    rng = np.random.default_rng(cfg.seed)
    size, d = cfg.population_size, bounds.dim

    pop = rng.uniform(bounds.lower, bounds.upper, (size, d))
    best_x = pop[0].copy()
    best_cost = math.inf
    history: list[HistoryRecord] = []
    evaluations = 0
    truncated = False

    for gen in range(1, cfg.generations + 1):
        try:
            costs = np.asarray(objective(pop), dtype=float)
        except BudgetExhausted as exc:
            truncated = True
            costs = exc.paid
            log.warning("GA stopped by evaluation budget at generation %d", gen)
        else:
            if costs.shape != (size,):
                raise ValueError(f"objective returned costs of shape {costs.shape} "
                                 f"for a population of {size}")
        if costs.size == 0:
            break
        # a truncated generation still reports the prefix it paid for
        evaluations += costs.size
        gen_best = costs.argmin()
        if costs[gen_best] < best_cost:
            best_cost = float(costs[gen_best])
            best_x = pop[gen_best].copy()
        history.append(HistoryRecord(step=gen, best_cost=best_cost,
                                     mean_cost=float(costs.sum() / costs.size),
                                     evaluations=evaluations))
        if truncated or gen == cfg.generations:
            break
        # the next population: the incumbent best (elitism of 1), then the
        # children of P // 2 selected pairs, the last one dropped when P is even
        g = (gen - 1) % SCHEDULE_BLOCK
        if g == 0:
            ranks, a, b, mutations = _breeding_schedule(
                rng, cfg, d, min(SCHEDULE_BLOCK, cfg.generations - gen))
        parents = pop.take(costs.argsort(kind="stable").take(ranks[g]), axis=0)  # (pairs, 2, d)
        nxt = np.empty((2 * len(parents) + 1, d))
        nxt[0] = best_x
        children = nxt[1:]
        by_pair = children.reshape(parents.shape)
        # a = 1, b = 0 returns an uncrossed pair exactly
        np.multiply(a[g], parents, out=by_pair)
        by_pair += b[g] * parents[:, ::-1]
        if g in mutations:
            rows, i, toward_upper, r = mutations[g]
            expo = (1.0 - gen / cfg.generations) ** cfg.mutation_shape_b
            children[rows, i] = _mutate(children[rows, i], bounds.lower[i], bounds.upper[i],
                                        toward_upper, r, expo)
        pop = nxt[:size]

    return OptimizeResult(best_x=best_x, best_cost=best_cost,
                          history=history, truncated=truncated)


def _breeding_schedule(rng, cfg: GaConfig, d: int, gens: int):
    """The breeding draws of the next gens generations of a GA run.

    Generation g breeds P - 1 children from P // 2 parent pairs; pair k
    gives children 2k and 2k + 1. Its draws are made in this order:
    selection uniforms (pairs, 2) and crossover gate uniforms (pairs,)
    as one draw; one crossover weight per gated pair and mutation gate
    uniforms (P - 1,) as one draw; then, when a child is mutated, the
    coordinates (integers) and the direction and step uniforms of the
    mutated children, in child order.

    Returns ranks (gens, pairs, 2), the selected ascending-cost ranks;
    crossover weights a and b = 1 - a, each (gens, pairs, 1, 1), with
    a = 1 for a pair not crossed; and a dict from the generation's index
    in the block to its mutated children: (rows, coordinates,
    toward_upper, r).
    """
    size = cfg.population_size
    pairs, n_gates = size // 2, size - 1
    select = np.empty((gens, 3 * pairs))  # selection uniforms, then crossover gates
    a = np.ones((gens, pairs))
    mutations = {}
    for g in range(gens):
        # rng.random draws the same numbers as rng.uniform(0, 1), at less cost
        head = select[g] = rng.random(3 * pairs)
        crossed = head[2 * pairs:] < cfg.crossover_rate
        c = np.count_nonzero(crossed)
        tail = rng.random(c + n_gates)
        a[g, crossed] = tail[:c]
        if tail[c:].min() < cfg.mutation_rate:
            rows = (tail[c:] < cfg.mutation_rate).nonzero()[0]
            i = rng.integers(d, size=rows.size)
            u = rng.random(2 * rows.size)
            mutations[g] = rows, i, u[:rows.size] < 0.5, u[rows.size:]

    ranks = _geometric_ranks(select[:, :2 * pairs], cfg.selection_q, size).astype(int)
    a = a.reshape(gens, pairs, 1, 1)
    return ranks.reshape(gens, pairs, 2), a, 1.0 - a, mutations


def sa_optimize(objective, bounds: Bounds, cfg: SaConfig,
                x0: np.ndarray | None = None) -> OptimizeResult:
    """Simulated annealing with geometric cooling and Gaussian proposals.

    Runs cfg.n_runs independent annealing chains from random in-box
    starts; when x0 is given, the first chain starts there instead. At
    each temperature level, steps_per_temperature proposals (all
    coordinates perturbed, std = step_scale * bound range, clipped to
    the box) are screened by the Metropolis rule; the temperature is
    then multiplied by cooling_factor until min_temperature. History has
    one row per temperature level, tagged with the run index. The global
    best over all runs is returned. An objective raising BudgetExhausted
    truncates the run. RuntimeError if no evaluated cost is finite.
    """
    rng = np.random.default_rng(cfg.seed)
    steps = cfg.steps_per_temperature or 4 * bounds.dim
    std = cfg.step_scale * bounds.range

    best_x = None
    best_cost = math.inf
    history: list[HistoryRecord] = []
    evaluations = 0
    truncated = False
    rejected_nonfinite = 0

    for run in range(cfg.n_runs):
        try:
            if run == 0 and x0 is not None:
                if not bounds.contains(np.asarray(x0, dtype=float)):
                    raise ValueError("x0 must lie inside the bounds")
                x = np.asarray(x0, dtype=float).copy()
            else:
                x = rng.uniform(bounds.lower, bounds.upper)
            e = float(objective(x))
            evaluations += 1
            if e < best_cost:
                best_cost, best_x = e, x.copy()
            temperature = cfg.initial_temperature
            level = 0
            while temperature > cfg.min_temperature:
                level_costs = []
                for _ in range(steps):
                    proposal = np.clip(x + rng.normal(0.0, 1.0, bounds.dim) * std,
                                       bounds.lower, bounds.upper)
                    e_new = float(objective(proposal))
                    evaluations += 1
                    if not math.isfinite(e_new):
                        rejected_nonfinite += 1
                        continue
                    level_costs.append(e_new)
                    if metropolis_accept(e, e_new, temperature, rng):
                        x, e = proposal, e_new
                    if e_new < best_cost:
                        best_cost, best_x = e_new, proposal.copy()
                level += 1
                history.append(HistoryRecord(
                    step=level, best_cost=best_cost,
                    mean_cost=float(np.mean(level_costs)) if level_costs else math.nan,
                    evaluations=evaluations, temperature=temperature, run=run))
                temperature *= cfg.cooling_factor
        except BudgetExhausted:
            truncated = True
            log.warning("SA stopped by evaluation budget in run %d", run)
            break

    if rejected_nonfinite:
        log.warning("SA rejected %d non-finite objective values", rejected_nonfinite)
    if best_x is None:
        if truncated and not evaluations:
            raise RuntimeError("SA budget exhausted before any evaluation")
        raise RuntimeError(f"SA found no finite cost in {evaluations} evaluations")
    return OptimizeResult(best_x=best_x, best_cost=best_cost,
                          history=history, truncated=truncated)
