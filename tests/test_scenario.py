"""Fixture construction: geometry, closed-loop identity, noise, determinism."""

import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from femupdate.beam import BeamElement, BeamStructure, assemble
from femupdate.modal import pair_modes, solve_modes
from femupdate.optimizers import EvalBudget, GaConfig, SaConfig
from femupdate.scenario import (
    ScenarioSpec, build_scenario, h_beam_structure,
)
from femupdate.updating import RsmConfig, full_objective, solve_observed


def test_default_geometry_counts():
    s = h_beam_structure(ScenarioSpec())
    assert s.n_elements == 12
    assert s.n_nodes == 13
    assert s.constrained_dofs == ()


def closure_h_beam_structure(spec):
    """(nodes, element node pairs) of the H built run by run: h_beam_structure's oracle."""
    nodes = []
    elements = []

    def add_run(points):
        start = len(nodes)
        nodes.extend(points)
        return list(range(start, start + len(points)))

    def connect(ids):
        for a, b in zip(ids[:-1], ids[1:]):
            elements.append((a, b))

    n_l = spec.left_flange_elements
    left_ids = add_run([(0.0, spec.left_flange_length * i / n_l)
                        for i in range(n_l + 1)])
    joint_left_pos = round(0.4 * n_l)
    connect(left_ids[:joint_left_pos + 1])

    n_r = spec.right_flange_elements
    n_c = spec.crossbar_elements
    right_start = len(nodes) + max(n_c - 1, 0)
    joint_right = right_start + round(0.4 * n_r)
    inner = add_run([(spec.crossbar_length * i / n_c, nodes[left_ids[joint_left_pos]][1])
                     for i in range(1, n_c)])
    connect([left_ids[joint_left_pos], *inner, joint_right])

    connect(left_ids[joint_left_pos:])
    right_ids = add_run([(spec.crossbar_length, spec.right_flange_length * i / n_r)
                         for i in range(n_r + 1)])
    connect(right_ids)
    return np.array(nodes, dtype=float), elements


@pytest.mark.parametrize("lengths", [(0.6, 0.48, 0.5), (0.37, 0.91, 0.73)])
def test_h_builder_matches_the_closure_builder(lengths):
    base = ScenarioSpec(crossbar_length=lengths[0], left_flange_length=lengths[1],
                        right_flange_length=lengths[2])
    for n_l, n_c, n_r in itertools.product(range(1, 12), repeat=3):  # 1 331 specs
        spec = replace(base, left_flange_elements=n_l, crossbar_elements=n_c,
                       right_flange_elements=n_r)
        s = h_beam_structure(spec)
        nodes, elements = closure_h_beam_structure(spec)
        assert s.nodes.tobytes() == nodes.tobytes(), (n_l, n_c, n_r)
        assert [(e.node_a, e.node_b) for e in s.elements] == elements, (n_l, n_c, n_r)
    assert {(e.area, e.second_moment, e.density, e.elastic_modulus) for e in s.elements} \
        == {(spec.area, spec.second_moment, spec.density, spec.nominal_modulus)}


def test_h_structure_has_two_rigid_modes():
    s = h_beam_structure(ScenarioSpec())
    modes = solve_modes(assemble(s), 8)
    assert list(modes.rigid[:3]) == [True, True, False]
    assert modes.frequencies[1] < 1e-3 * modes.frequencies[2]


def test_ground_truth_moduli_default_pattern():
    _, m = build_scenario(ScenarioSpec())
    np.testing.assert_allclose(m[[2, 3, 4]], 6.3e10)
    np.testing.assert_allclose(np.delete(m, [2, 3, 4]), 7.0e10)


def test_default_damage_zone_is_the_crossbar():
    spec = ScenarioSpec()
    s = h_beam_structure(spec)
    # elements 2-4 walk from the left junction across to the right flange
    first, last = s.elements[2], s.elements[4]
    assert s.nodes[first.node_a][0] == pytest.approx(0.0)
    assert s.nodes[last.node_b][0] == pytest.approx(spec.crossbar_length)
    xs = [s.nodes[s.elements[i].node_a][0] for i in (2, 3, 4)]
    xs.append(s.nodes[last.node_b][0])
    assert np.all(np.diff(xs) > 0)


def test_gamma_weights_in_hz_squared():
    problem, _ = build_scenario(ScenarioSpec())
    # squared frequency errors in Hz^2, not dimensionless relative ones
    assert problem.weights.gamma.max() > 1.0


def test_gamma_pairs_swapped_measured_modes_by_index():
    # two clamped beams side by side; softening the shorter one moves its
    # first mode below the longer one's, so the measured modes come swapped
    from femupdate.beam import BeamElement, BeamStructure

    xa, xb = np.linspace(0.0, 0.3, 4), np.linspace(0.0, 0.29, 4)
    twin = BeamStructure(
        nodes=np.vstack([np.column_stack([xa, np.zeros(4)]),
                         np.column_stack([xb, np.ones(4)])]),
        elements=[BeamElement(a, a + 1, 3e-4, 2.5e-9, 2700.0, 7e10)
                  for a in (0, 1, 2, 4, 5, 6)],
        constrained_dofs=(0, 1, 8, 9),
    )
    spec = ScenarioSpec(ground_truth_perturbations=((3, 6e10), (4, 6e10), (5, 6e10)),
                        n_modes=2)
    problem, _ = build_scenario(spec, structure=twin)
    initial = solve_observed(twin, None, 2, problem.measured.coordinate_map)
    assert initial.frequencies[0] < initial.frequencies[1]
    np.testing.assert_array_equal(pair_modes(initial, problem.measured)[0], [1, 0])
    np.testing.assert_array_equal(
        problem.weights.gamma,
        (problem.measured.frequencies_hz - initial.frequencies_hz[[1, 0]]) ** 2)


@pytest.mark.parametrize("noise_std", [0.05, 0.1, 0.2])
def test_noisy_scenarios_build_with_a_finite_initial_cost(noise_std):
    # noise swaps measured modes on some seeds (4, 8, 21, 32, 33 at 0.05)
    for seed in range(40):
        problem, _ = build_scenario(ScenarioSpec(noise_std=noise_std, seed=seed))
        assert np.isfinite(full_objective(problem, problem.initial_parameters(),
                                          EvalBudget()))


def test_noise_driving_a_frequency_below_zero_names_noise_std():
    with pytest.raises(ValueError, match=r"noise_std = 0\.6 drives measured mode 2 "
                                         r"to a frequency <= 0"):
        build_scenario(ScenarioSpec(noise_std=0.6, seed=3))


def test_no_perturbation_means_zero_initial_cost():
    spec = ScenarioSpec(ground_truth_perturbations=())
    problem, truth = build_scenario(spec)
    np.testing.assert_allclose(truth, spec.nominal_modulus)
    c = full_objective(problem, problem.initial_parameters(), EvalBudget())
    assert c == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_array_equal(problem.weights.gamma, np.zeros(spec.n_modes))


def test_default_scenario_initial_errors_are_modest_but_nonzero():
    problem, truth = build_scenario(ScenarioSpec())
    c = full_objective(problem, problem.initial_parameters(), EvalBudget())
    assert c > 0.0
    initial = solve_modes(assemble(problem.structure), 9).elastic()
    errors = np.abs(initial.frequencies[:5] - problem.measured.frequencies) \
        / problem.measured.frequencies
    assert 0.005 < errors.max() < 0.10  # a few percent, cf. cut emulation


def test_closed_loop_identity_without_noise():
    problem, truth = build_scenario(ScenarioSpec())
    assert full_objective(problem, truth, EvalBudget()) < 1e-10
    truth_modes = solve_modes(assemble(problem.structure, truth), 9).elastic()
    np.testing.assert_allclose(truth_modes.frequencies[:5],
                               problem.measured.frequencies, rtol=1e-14)


def test_same_spec_same_seed_bitwise_identical():
    p1, t1 = build_scenario(ScenarioSpec(noise_std=0.01, seed=7))
    p2, t2 = build_scenario(ScenarioSpec(noise_std=0.01, seed=7))
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_array_equal(p1.measured.frequencies, p2.measured.frequencies)
    np.testing.assert_array_equal(p1.measured.mode_shapes, p2.measured.mode_shapes)
    np.testing.assert_array_equal(p1.weights.gamma, p2.weights.gamma)


def test_noise_perturbs_measured_data():
    clean, _ = build_scenario(ScenarioSpec())
    noisy, truth = build_scenario(ScenarioSpec(noise_std=0.01, seed=3))
    assert not np.allclose(clean.measured.frequencies, noisy.measured.frequencies)
    # ground truth no longer reproduces the polluted data exactly
    assert full_objective(noisy, truth, EvalBudget()) > 1e-8


def test_observed_dofs_default_is_all_translations():
    problem, _ = build_scenario(ScenarioSpec())
    np.testing.assert_array_equal(problem.measured.coordinate_map,
                                  np.arange(0, 26, 2))


def test_spec_validation():
    with pytest.raises(ValueError, match="out of range"):
        build_scenario(ScenarioSpec(ground_truth_perturbations=((40, 6.3e10),)))
    with pytest.raises(ValueError, match="bounds"):
        build_scenario(ScenarioSpec(ground_truth_perturbations=((2, 5.0e10),)))
    with pytest.raises(ValueError):
        ScenarioSpec(left_flange_elements=0)
    with pytest.raises(ValueError):
        ScenarioSpec(noise_std=-0.1)
    for value in (math.nan, math.inf, 1e10):
        with pytest.raises(ValueError, match=f"perturbed modulus {value} outside the bounds"):
            ScenarioSpec(ground_truth_perturbations=((2, value),))


def two_node_beam(name, value):
    """A one-element beam with node 1's x or the element's `name` set to value."""
    nodes = [[0.0, 0.0], [0.5, 0.0]]
    section = {"area": 3e-4, "second_moment": 2.5e-9, "density": 2700.0,
               "elastic_modulus": 7e10}
    if name == "nodes":
        nodes[1][0] = value
    else:
        section[name] = value
    return BeamStructure(nodes=nodes, elements=[BeamElement(0, 1, **section)])


def setting(cls):
    return lambda name, value: cls(**{name: value})


# every float a setting or a structure holds, and how to build one holding value
FLOAT_VALUES = [
    *[pytest.param(setting(cls), f.name, id=f"{cls.__name__}.{f.name}")
      for cls in (ScenarioSpec, GaConfig, SaConfig) for f in fields(cls)
      if f.type == "float"],
    *[pytest.param(two_node_beam, name, id=f"BeamStructure.{name}")
      for name in ("nodes", "area", "second_moment", "density", "elastic_modulus")],
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build, name", FLOAT_VALUES)
def test_non_finite_value_rejected_where_it_is_held(build, name, value):
    assert len(FLOAT_VALUES) == 24  # 11 + 4 + 4 floats and 5 structure values
    with pytest.raises(ValueError, match=name):
        build(name, value)


# every integer a setting holds, with its least value
COUNT_FIELDS = [pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
                for cls in (ScenarioSpec, GaConfig, SaConfig, RsmConfig)
                for f in fields(cls) if f.type in ("int", "int | None")]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2.5, True])
@pytest.mark.parametrize("cls, name", COUNT_FIELDS)
def test_count_setting_rejects_a_non_integer(cls, name, value):
    assert len(COUNT_FIELDS) == 17  # 5 + 3 + 3 + 6
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name", COUNT_FIELDS)
def test_count_setting_accepts_numpy_integers(cls, name):
    default = getattr(cls(), name) or 1  # steps_per_temperature defaults to None
    assert getattr(cls(**{name: np.int64(default)}), name) == default
    with pytest.raises(ValueError, match=f"{name} must be >= "):
        cls(**{name: np.int32(-1)})


def test_bounds_cover_all_elements():
    problem, _ = build_scenario(ScenarioSpec())
    assert problem.bounds.dim == 12
    np.testing.assert_allclose(problem.bounds.lower, 6.0e10)
    np.testing.assert_allclose(problem.bounds.upper, 8.0e10)


def test_explicit_constrained_structure_observes_free_dofs_only():
    from femupdate.beam import BeamElement, BeamStructure

    xs = np.linspace(0.0, 0.5, 6)
    cantilever = BeamStructure(
        nodes=np.column_stack([xs, np.zeros_like(xs)]),
        elements=[BeamElement(i, i + 1, 3e-4, 2.5e-9, 2700.0, 7e10)
                  for i in range(5)],
        constrained_dofs=(0, 1),
    )
    spec = ScenarioSpec(ground_truth_perturbations=((2, 6.4e10),), n_modes=3)
    problem, truth = build_scenario(spec, structure=cantilever)
    assert 0 not in problem.measured.coordinate_map
    np.testing.assert_array_equal(problem.measured.coordinate_map,
                                  np.arange(2, 12, 2))
    assert full_objective(problem, truth, EvalBudget()) < 1e-10
    assert truth[2] == 6.4e10


def test_short_cantilever_solves_within_reduced_dofs():
    # 2 elements, clamped: 4 DOFs remain, fewer than n_modes + the rigid
    # allowance, and fewer than the 6 unconstrained DOFs
    from femupdate.beam import BeamElement, BeamStructure

    cantilever = BeamStructure(
        nodes=np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]),
        elements=[BeamElement(i, i + 1, 3e-4, 2.5e-9, 2700.0, 7e10) for i in range(2)],
        constrained_dofs=(0, 1),
    )
    spec = ScenarioSpec(ground_truth_perturbations=((1, 6.5e10),), n_modes=3)
    problem, truth = build_scenario(spec, structure=cantilever)
    assert problem.n_modes == 3
    np.testing.assert_array_equal(problem.measured.coordinate_map, [2, 4])
    assert full_objective(problem, truth, EvalBudget()) < 1e-10


def test_fewer_observed_dofs_than_modes_warns(caplog):
    from femupdate.beam import BeamElement, BeamStructure

    cantilever = BeamStructure(
        nodes=np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]),
        elements=[BeamElement(i, i + 1, 3e-4, 2.5e-9, 2700.0, 7e10) for i in range(2)],
        constrained_dofs=(0, 1),
    )
    spec = ScenarioSpec(ground_truth_perturbations=((1, 6.5e10),), n_modes=3)
    with caplog.at_level("WARNING", logger="femupdate.scenario"):
        build_scenario(ScenarioSpec())
        assert not caplog.records
        build_scenario(spec, structure=cantilever)
    assert [r.getMessage() for r in caplog.records] == [
        "2 observed DOFs for 3 compared modes; MAC pairing may confuse modes"]
