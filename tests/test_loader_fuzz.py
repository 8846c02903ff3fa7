"""Fuzz the config loader over [structure], [scenario] and [cost] text.

Each example is a config that is well formed except, optionally, for one
fault placed in a known section. cli._load must then do one of two
things: return a problem whose initial model costs a finite amount or
fails in its eigensolve, or raise ConfigError naming the faulty section.
A config with no placed fault may still ask for more than its structure
can supply (too many modes, noise that drives a frequency below zero);
that is a [scenario] error. Any other exception fails the test.
"""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from femupdate.cli import _load
from femupdate.config import H_FIXTURE_KEYS, ConfigError
from femupdate.modal import EigenSolveError
from femupdate.optimizers import EvalBudget
from femupdate.updating import full_objective, solve_observed
from test_metamorphic import beam_trees

NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])
NOT_A_NUMBER = st.sampled_from(["abc", "1,2", ""])

H_VALUES = {
    "crossbar_length": st.floats(0.4, 0.7),
    "left_flange_length": st.floats(0.4, 0.7),
    "right_flange_length": st.floats(0.4, 0.7),
    "left_flange_elements": st.integers(1, 4),
    "right_flange_elements": st.integers(1, 4),
    "crossbar_elements": st.integers(1, 4),
    "area": st.floats(1e-4, 5e-4),
    "second_moment": st.floats(1e-9, 5e-9),
    "density": st.floats(2000.0, 3000.0),
    "nominal_modulus": st.floats(6.5e10, 7.5e10),
}
H_COUNTS = {"left_flange_elements": 4, "right_flange_elements": 5, "crossbar_elements": 3}


@st.composite
def h_fixture(draw):
    """([structure] keys, element count, DOF count, constrained DOFs) of an H."""
    keys = draw(st.lists(st.sampled_from(H_FIXTURE_KEYS), unique=True, max_size=4))
    values = {key: draw(H_VALUES[key]) for key in keys}
    counts = {**H_COUNTS, **{k: v for k, v in values.items() if k in H_COUNTS}}
    n_elements = sum(counts.values())
    return values, n_elements, 2 * (n_elements + 1), ()


@st.composite
def explicit_tree(draw):
    """([structure] keys, ...) of a beam tree (see test_metamorphic), maybe clamped at node 0."""
    tree = draw(beam_trees(moduli=st.floats(6.5e10, 7.5e10)))
    constrained = draw(st.sampled_from([(), (0,), (0, 1)]))
    values = {"nodes": tree.nodes.tolist(),
              "elements": [[e.node_a, e.node_b, e.area, e.second_moment, e.density,
                            e.elastic_modulus] for e in tree.elements]}
    if constrained or draw(st.booleans()):
        values["constrained_dofs"] = constrained
    return values, tree.n_elements, tree.n_dofs, constrained


@st.composite
def scenario(draw, n_elements, n_dofs, constrained):
    values = {}
    if draw(st.booleans()):
        values["lower_bound"] = draw(st.floats(5.0e10, 6.4e10))
        values["upper_bound"] = draw(st.floats(7.6e10, 9.0e10))
    lower, upper = values.get("lower_bound", 6e10), values.get("upper_bound", 8e10)
    if n_elements < 5 or draw(st.booleans()):  # the default indices are 2, 3, 4
        indices = draw(st.lists(st.integers(0, n_elements - 1), unique=True, max_size=3))
        values["perturbations"] = ", ".join(f"{i}:{draw(st.floats(lower, upper))!r}"
                                            for i in indices)
    if draw(st.booleans()):
        values["n_modes"] = draw(st.integers(1, 6))
    if draw(st.booleans()):
        values["noise_std"] = draw(st.sampled_from([0.0, 0.01, 0.05, 0.3]))
        values["seed"] = draw(st.integers(0, 50))
    if draw(st.booleans()):
        free = [d for d in range(n_dofs) if d not in constrained]
        values["observed_dofs"] = draw(st.lists(st.sampled_from(free), unique=True,
                                                min_size=1, max_size=8))
    return values


def render(value):
    """Config text of a value: rows (nodes, elements) joined by ';', items by ','."""
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        if value and isinstance(value[0], (list, tuple)):
            return "; ".join(render(row) for row in value)
        return ",".join(render(v) for v in value)
    return repr(value)


@st.composite
def configs(draw):
    """(config text, section of the placed fault or None)."""
    explicit = draw(st.booleans())
    structure, n_elements, n_dofs, constrained = draw(explicit_tree() if explicit
                                                      else h_fixture())
    sections = {
        "structure": structure,
        "scenario": draw(scenario(n_elements, n_dofs, constrained)),
        "cost": {"beta": draw(st.floats(0.0, 2.0))} if draw(st.booleans()) else {},
    }
    fault = draw(st.sampled_from([None, "structure", "scenario", "cost"]))
    if fault == "cost":
        sections["cost"]["beta"] = draw(st.sampled_from(["-1", "-0.5"]) | NON_FINITE
                                        | NOT_A_NUMBER)
    elif fault == "scenario":
        place_scenario_fault(draw, sections["scenario"], n_elements, n_dofs, constrained)
    elif fault == "structure":
        place_structure_fault(draw, sections["structure"], explicit)
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {render(v)}\n" for k, v in keys.items())
                   for name, keys in sections.items())
    return text, fault


def place_scenario_fault(draw, keys, n_elements, n_dofs, constrained):
    lower = keys.get("lower_bound", 6e10)
    kind = draw(st.sampled_from(["index", "repeat", "value", "n_modes", "noise", "seed",
                                 "bounds", "observed", "unparsable"]))
    if kind == "index":
        keys["perturbations"] = f"{draw(st.integers(n_elements, n_elements + 5))}:{lower!r}"
    elif kind == "repeat":
        i = draw(st.integers(0, n_elements - 1))
        keys["perturbations"] = f"{i}:{lower!r}, {i}:{lower!r}"
    elif kind == "value":  # outside every drawn pair of bounds
        keys["perturbations"] = f"0:{draw(st.sampled_from(['1e10', '1e12', 'nan', 'inf']))}"
    elif kind == "n_modes":
        keys["n_modes"] = draw(st.integers(-2, 0))
    elif kind == "noise":
        keys["noise_std"] = draw(st.sampled_from(["-0.1"]) | NON_FINITE)
    elif kind == "seed":
        keys["seed"] = draw(st.integers(-10, -1))
    elif kind == "bounds":
        keys["lower_bound"], keys["upper_bound"] = draw(st.sampled_from(
            [(8e10, 6e10), (-1.0, 8e10), (6e10, "inf"), ("nan", 8e10), (7.6e10, 8e10)]))
    elif kind == "observed":
        bad = [n_dofs, n_dofs + 3, -1, *constrained]
        keys["observed_dofs"] = draw(st.sampled_from(
            [[draw(st.sampled_from(bad))], [0, 0] if 0 not in constrained else [2, 2], ""]))
    else:
        keys[draw(st.sampled_from(["n_modes", "seed", "noise_std", "lower_bound"]))] = \
            draw(NOT_A_NUMBER)


def place_structure_fault(draw, keys, explicit):
    if not explicit:
        key = draw(st.sampled_from(H_FIXTURE_KEYS))
        if key in H_COUNTS:
            keys[key] = draw(st.sampled_from(["0", "-1", "2.5"]) | NOT_A_NUMBER)
        else:
            keys[key] = draw(st.sampled_from(["0", "-1"]) | NON_FINITE | NOT_A_NUMBER)
        return
    nodes, elements = keys["nodes"], keys["elements"]
    kind = draw(st.sampled_from(["missing_node", "self_loop", "section", "coordinate",
                                 "duplicate_node", "constrained", "mixed", "no_elements",
                                 "row"]))
    element = elements[draw(st.integers(0, len(elements) - 1))]
    if kind == "missing_node":
        element[draw(st.integers(0, 1))] = len(nodes) + draw(st.integers(0, 3))
    elif kind == "self_loop":
        element[1] = element[0]
    elif kind == "section":
        element[draw(st.integers(2, 5))] = draw(st.sampled_from(["0", "-1"]) | NON_FINITE)
    elif kind == "coordinate":
        i = draw(st.integers(0, len(nodes) - 1))
        nodes[i] = (draw(NON_FINITE), nodes[i][1])
    elif kind == "duplicate_node":  # a zero-length element
        nodes[element[1]] = nodes[element[0]]
    elif kind == "constrained":
        keys["constrained_dofs"] = (2 * len(nodes) + draw(st.integers(0, 3)),)
    elif kind == "mixed":
        keys[draw(st.sampled_from(H_FIXTURE_KEYS))] = "1"
    elif kind == "no_elements":
        del keys["elements"]
    else:
        nodes[0] = (0.0, 0.0, 0.0)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "run.ini"


@settings(max_examples=300)
@given(configs())
def test_load_returns_a_costable_problem_or_names_the_faulty_section(config_path, config):
    text, fault = config
    config_path.write_text(text)
    try:
        _, problem, _ = _load(config_path)
    except ConfigError as exc:
        section = re.match(r"\[(\w+)\]", str(exc))
        assert section and section.group(1) == (fault or "scenario"), (str(exc), text)
        return
    assert fault is None, f"accepted a fault in [{fault}]:\n{text}"
    x0 = problem.initial_parameters()
    try:
        solve_observed(problem.structure, x0, problem.n_modes, problem.measured.coordinate_map)
    except EigenSolveError:
        return
    assert math.isfinite(full_objective(problem, x0, EvalBudget())), text
