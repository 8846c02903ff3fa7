"""Property tests: MAC range and scale invariance, cost sign, pairing validity,
the pairing as the one source of the cost's MAC values, the FE kernel
of full_objective against the ModalData path, and full_objective's
charge, solve and store rule against fresh budgets.

The hypothesis profile (derandomized, no database) is set in conftest.py.
"""

import math
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from femupdate.modal import CostWeights, ModalData, cost, mac, pair_modes
from femupdate.optimizers import BudgetExhausted, EvalBudget
from femupdate.scenario import ScenarioSpec, build_scenario
from femupdate.updating import full_objective, solve_observed

PROPERTY = settings(max_examples=75)

ENTRIES = st.floats(-10.0, 10.0)
FACTORS = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)


def shape_sets(n_coords, n_modes):
    """Mode-shape matrices whose columns all have a norm above 1e-3."""
    return arrays(float, (n_coords, n_modes), elements=ENTRIES).filter(
        lambda a: np.all(np.linalg.norm(a, axis=0) > 1e-3))


def frequency_sets(n_modes):
    return arrays(float, n_modes, elements=st.floats(0.1, 1e3)).map(np.sort)


@st.composite
def mac_inputs(draw):
    n_coords = draw(st.integers(1, 6))
    a = draw(shape_sets(n_coords, draw(st.integers(1, 4))))
    b = draw(shape_sets(n_coords, draw(st.integers(1, 4))))
    return a, b


@st.composite
def paired_sets(draw):
    n_coords = draw(st.integers(1, 6))
    n_modes = draw(st.integers(1, 4))

    def modal():
        return ModalData(frequencies=draw(frequency_sets(n_modes)),
                         mode_shapes=draw(shape_sets(n_coords, n_modes)),
                         coordinate_map=np.arange(n_coords))

    weights = CostWeights(gamma=draw(arrays(float, n_modes, elements=st.floats(0.0, 10.0))),
                          beta=draw(st.floats(0.0, 10.0)))
    return modal(), modal(), weights


@st.composite
def pairing_inputs(draw):
    n_coords = draw(st.integers(1, 6))
    n_measured = draw(st.integers(1, 4))
    rigid = np.array(draw(st.lists(st.booleans(), max_size=4)) + [False] * n_measured)
    rigid = rigid[draw(st.permutations(range(rigid.size)))]
    calc = ModalData(frequencies=draw(frequency_sets(rigid.size)),
                     mode_shapes=draw(shape_sets(n_coords, rigid.size)),
                     coordinate_map=np.arange(n_coords), rigid=rigid)
    measured = ModalData(frequencies=draw(frequency_sets(n_measured)),
                         mode_shapes=draw(shape_sets(n_coords, n_measured)),
                         coordinate_map=np.arange(n_coords))
    return calc, measured


@PROPERTY
@given(mac_inputs())
def test_mac_entries_lie_in_unit_interval(shapes):
    m = mac(*shapes)
    assert np.all(m >= -1e-12) and np.all(m <= 1.0 + 1e-12)


@PROPERTY
@given(mac_inputs(), st.booleans(), st.integers(0, 3), FACTORS)
def test_mac_invariant_to_column_scaling(shapes, scale_a, column, factor):
    a, b = (s.copy() for s in shapes)
    target = a if scale_a else b
    target[:, column % target.shape[1]] *= factor
    np.testing.assert_allclose(mac(a, b), mac(*shapes), rtol=0.0, atol=1e-12)


@PROPERTY
@given(paired_sets())
def test_cost_zero_for_identical_data(sets):
    d, _, weights = sets
    # identical columns may tie, so pair mode i with mode i
    pairing = np.arange(d.n_modes), np.diag(mac(d.mode_shapes, d.mode_shapes))
    assert cost(d, d, weights, pairing) == 0.0


@PROPERTY
@given(paired_sets())
def test_cost_nonnegative(sets):
    calc, measured, weights = sets
    assert cost(calc, measured, weights, pair_modes(calc, measured)) >= 0.0


@PROPERTY
@given(pairing_inputs())
def test_pairing_picks_distinct_elastic_modes(inputs):
    calc, measured = inputs
    pairing = pair_modes(calc, measured)[0]
    assert pairing.size == measured.n_modes
    assert np.unique(pairing).size == pairing.size
    assert not calc.rigid[pairing].any()


@PROPERTY
@given(pairing_inputs(), st.data())
def test_pairing_mac_and_cost_match_a_fresh_mac_matrix(inputs, data):
    calc, measured = inputs
    pairing, paired_mac = pair_modes(calc, measured)
    fresh = np.diag(mac(calc.mode_shapes[:, pairing], measured.mode_shapes))
    np.testing.assert_array_equal(paired_mac, fresh)
    weights = CostWeights(
        gamma=data.draw(arrays(float, measured.n_modes, elements=st.floats(0.0, 10.0))),
        beta=data.draw(st.floats(0.0, 10.0)))
    rel = (measured.frequencies - calc.frequencies[pairing]) / measured.frequencies
    expected = float(np.sum(weights.gamma * rel**2)
                     + weights.beta * np.sum(1.0 - np.clip(fresh, 0.0, 1.0)))
    assert cost(calc, measured, weights, pairing=(pairing, paired_mac)) == expected


KERNEL_FIXTURES = {
    "h12": ScenarioSpec(),
    "h12-noisy": ScenarioSpec(noise_std=0.02),
    "h12-descending-dofs": ScenarioSpec(observed_dofs=tuple(range(24, -1, -2))),
    # every run refined 4x, the crossbar (elements 6-17) damaged
    "h48": ScenarioSpec(left_flange_elements=16, right_flange_elements=20,
                        crossbar_elements=12,
                        ground_truth_perturbations=tuple((i, 6.3e10) for i in range(6, 18))),
}


@cache
def kernel_problem(name):
    return build_scenario(KERNEL_FIXTURES[name])[0]


@pytest.mark.parametrize("name", list(KERNEL_FIXTURES))
@settings(max_examples=40)
@given(data=st.data())
def test_kernel_cost_equals_the_modal_data_path(name, data):
    problem = kernel_problem(name)
    u = data.draw(arrays(float, problem.n_params, elements=st.floats(0.0, 1.0)))
    x = problem.bounds.lower + u * problem.bounds.range
    calc = solve_observed(problem.structure, x, problem.n_modes,
                          problem.measured.coordinate_map)
    oracle = cost(calc, problem.measured, problem.weights, pair_modes(calc, problem.measured))
    assert full_objective(problem, x, EvalBudget()) == oracle


@settings(max_examples=60)
@given(data=st.data())
def test_full_objective_charges_solves_and_stores_like_fresh_budgets(data):
    # a fresh EvalBudget per call holds no stored costs: it is the oracle
    problem = kernel_problem("h12")
    pool = []
    for _ in range(data.draw(st.integers(1, 4))):
        u = data.draw(arrays(float, problem.n_params, elements=st.floats(0.0, 1.0)))
        pool.append(problem.bounds.lower + u * problem.bounds.range)
    failing = pool[0].copy()
    failing[data.draw(st.integers(0, problem.n_params - 1))] = np.nan
    pool.append(failing)
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    limit = data.draw(st.none() | st.integers(0, len(picks)))

    budget = EvalBudget(limit=limit)
    charged, solves, stored = 0, 0, {}
    for i in picks:
        x = pool[i].copy()  # equal values, a new array
        if charged == limit:
            with pytest.raises(BudgetExhausted):
                full_objective(problem, x, budget)
            continue
        c = full_objective(problem, x, budget)
        oracle = full_objective(problem, x, EvalBudget())
        assert c == oracle or not (math.isfinite(c) or math.isfinite(oracle))
        charged += 1
        if x.tobytes() not in stored:
            solves += 1
            if math.isfinite(c):
                stored[x.tobytes()] = c
    assert budget.calls == charged
    assert budget.solves == solves
    assert budget.costs == stored
