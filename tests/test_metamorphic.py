"""Metamorphic oracles for assembly and the eigensolve on random beam trees.

Each test transforms random planar beam trees into a structure that must
give the same elastic spectrum (or a known multiple of it, or the union
of their spectra) and compares the two. A DOF-map or connectivity fault
that keeps K symmetric and positive semidefinite passes the closed-form
and brute-force oracles, but not these. Element lengths of 0.08-0.15 m keep every mode inside the
eigensolve's residual tolerance.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from femupdate.beam import BeamElement, BeamStructure, assemble
from femupdate.modal import solve_modes
from femupdate.optimizers import EvalBudget
from femupdate.scenario import ScenarioSpec, build_scenario
from femupdate.updating import UpdatingProblem, full_objective

RTOL = 1e-10
EXAMPLES = settings(max_examples=50)


@st.composite
def beam_trees(draw, moduli=st.floats(6e10, 8e10)):
    """A free-free planar tree of 3-13 nodes: node i > 0 hangs off an
    earlier node by an element of 0.08-0.15 m at any angle."""
    n_nodes = draw(st.integers(3, 13))
    nodes = [(0.0, 0.0)]
    elements = []
    for i in range(1, n_nodes):
        parent = draw(st.integers(0, i - 1))
        length = draw(st.floats(0.08, 0.15))
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        x, y = nodes[parent]
        nodes.append((x + length * math.cos(angle), y + length * math.sin(angle)))
        elements.append(BeamElement(parent, i, 3e-4, 2.5e-9, 2700.0, draw(moduli)))
    return BeamStructure(nodes=np.array(nodes), elements=elements)


def spectrum(structure, moduli=None):
    """All frequencies (rad/s) and rigid flags of the structure."""
    matrices = assemble(structure, moduli)
    modes = solve_modes(matrices, matrices.dof_count)
    return modes.frequencies, modes.rigid


def elastic_spectrum(structure, moduli=None):
    frequencies, rigid = spectrum(structure, moduli)
    return frequencies[~rigid]


def permuted_elements(structure, order):
    return BeamStructure(nodes=structure.nodes,
                         elements=[structure.elements[i] for i in order])


@EXAMPLES
@given(beam_trees())
def test_free_free_tree_has_two_rigid_modes(tree):
    frequencies, rigid = spectrum(tree)
    assert rigid.sum() == 2
    assert rigid[:2].all()


@EXAMPLES
@given(beam_trees(), beam_trees())
def test_disjoint_trees_have_the_union_of_their_spectra(first, second):
    # second's nodes follow first's, 10 m to the side; no element joins them
    offset = first.n_nodes
    both = BeamStructure(
        nodes=np.vstack([first.nodes, second.nodes + [10.0, 0.0]]),
        elements=first.elements + [
            BeamElement(e.node_a + offset, e.node_b + offset, e.area, e.second_moment,
                        e.density, e.elastic_modulus) for e in second.elements])
    frequencies, rigid = spectrum(both)
    # two rigid modes per connected component
    assert rigid.sum() == 4
    assert rigid[:4].all()
    union = np.sort(np.concatenate([elastic_spectrum(first), elastic_spectrum(second)]))
    np.testing.assert_allclose(frequencies[~rigid], union, rtol=RTOL)


@EXAMPLES
@given(beam_trees(), st.data())
def test_node_renumbering_keeps_the_spectrum(tree, data):
    new_of_old = np.array(data.draw(st.permutations(range(tree.n_nodes))))
    nodes = np.empty_like(tree.nodes)
    nodes[new_of_old] = tree.nodes
    renumbered = BeamStructure(
        nodes=nodes,
        elements=[BeamElement(int(new_of_old[e.node_a]), int(new_of_old[e.node_b]),
                              e.area, e.second_moment, e.density, e.elastic_modulus)
                  for e in tree.elements])
    np.testing.assert_allclose(elastic_spectrum(renumbered), elastic_spectrum(tree),
                               rtol=RTOL)


@EXAMPLES
@given(beam_trees(), st.data())
def test_element_reordering_with_permuted_moduli_keeps_the_spectrum(tree, data):
    order = data.draw(st.permutations(range(tree.n_elements)))
    moduli = data.draw(st.lists(st.floats(6e10, 8e10), min_size=tree.n_elements,
                                max_size=tree.n_elements))
    reordered = permuted_elements(tree, order)
    np.testing.assert_allclose(
        elastic_spectrum(reordered, np.array(moduli)[order]),
        elastic_spectrum(tree, np.array(moduli)), rtol=RTOL)


@EXAMPLES
@given(beam_trees(), st.floats(0.5, 2.0))
def test_uniform_modulus_scaling_scales_frequencies_by_its_root(tree, s):
    scaled = elastic_spectrum(tree, s * tree.moduli())
    np.testing.assert_allclose(scaled / math.sqrt(s), elastic_spectrum(tree), rtol=RTOL)


@EXAMPLES
@given(beam_trees(), st.floats(0.0, 2.0 * math.pi), st.floats(-5.0, 5.0),
       st.floats(-5.0, 5.0))
def test_rotation_and_translation_keep_the_spectrum(tree, angle, dx, dy):
    c, s = math.cos(angle), math.sin(angle)
    moved = BeamStructure(nodes=tree.nodes @ np.array([[c, s], [-s, c]]) + [dx, dy],
                          elements=tree.elements)
    np.testing.assert_allclose(elastic_spectrum(moved), elastic_spectrum(tree), rtol=RTOL)


@EXAMPLES
@given(beam_trees(), st.data())
def test_element_permutation_permutes_the_parameters_of_full_objective(tree, data):
    n_el = tree.n_elements
    damaged = data.draw(st.integers(0, n_el - 1))
    spec = ScenarioSpec(ground_truth_perturbations=((damaged, 6.5e10),),
                        n_modes=min(4, tree.n_nodes - 1))
    problem, _ = build_scenario(spec, structure=tree)
    order = data.draw(st.permutations(range(n_el)))
    permuted = UpdatingProblem(structure=permuted_elements(tree, order),
                               bounds=problem.bounds, measured=problem.measured,
                               weights=problem.weights)
    u = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_el, max_size=n_el))
    x = problem.bounds.lower + np.array(u) * problem.bounds.range
    expected = full_objective(problem, x, EvalBudget())
    assert math.isfinite(expected)
    assert math.isclose(full_objective(permuted, x[order], EvalBudget()), expected,
                        rel_tol=RTOL)
