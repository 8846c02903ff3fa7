"""Assembly tests against hand values and closed-form beam frequencies."""

import numpy as np
import pytest

import femupdate.beam
from femupdate.beam import (
    BeamElement, BeamStructure, assemble, element_mass, element_stiffness,
)
from femupdate.modal import solve_modes
from femupdate.scenario import ScenarioSpec, h_beam_structure

# Closed-form Euler-Bernoulli (beta*L) roots for the first two modes.
CANTILEVER_BETAL = (1.875104069, 4.694091133)
FREE_FREE_BETAL = (4.730040745, 7.853204624)


def uniform_beam(n_elements, length=1.0, area=3.0e-4, second_moment=2.5e-9,
                 density=2700.0, modulus=7.0e10, constrained_dofs=()):
    xs = np.linspace(0.0, length, n_elements + 1)
    nodes = np.column_stack([xs, np.zeros_like(xs)])
    elements = [
        BeamElement(i, i + 1, area, second_moment, density, modulus)
        for i in range(n_elements)
    ]
    return BeamStructure(nodes=nodes, elements=elements,
                         constrained_dofs=constrained_dofs)


def analytic_frequency_hz(beta_l, length, area, second_moment, density, modulus):
    return beta_l**2 * np.sqrt(modulus * second_moment
                               / (density * area * length**4)) / (2.0 * np.pi)


def test_element_matrices_hand_values():
    ke = element_stiffness(ei=2.0, length=2.0)
    # EI/L^3 = 0.25
    assert ke[0, 0] == pytest.approx(0.25 * 12.0)
    assert ke[0, 1] == pytest.approx(0.25 * 12.0)   # 6L = 12
    assert ke[1, 1] == pytest.approx(0.25 * 16.0)   # 4L^2 = 16
    me = element_mass(rho_a=420.0, length=1.0)
    assert me[0, 0] == pytest.approx(156.0)
    assert me[3, 3] == pytest.approx(4.0)
    for m in (ke, me):
        np.testing.assert_allclose(m, m.T)


def test_stiffness_linear_in_modulus_mass_unchanged():
    s = uniform_beam(1)
    base = assemble(s, np.array([7.0e10]))
    doubled = assemble(s, np.array([1.4e11]))
    np.testing.assert_allclose(doubled.stiffness, 2.0 * base.stiffness, rtol=1e-12)
    np.testing.assert_allclose(doubled.mass, base.mass)


def test_stiffness_linearity_random_moduli():
    s = uniform_beam(6)
    rng = np.random.default_rng(42)
    m = rng.uniform(6.0e10, 8.0e10, 6)
    a = assemble(s, m)
    b = assemble(s, 2.0 * m)
    np.testing.assert_allclose(b.stiffness, 2.0 * a.stiffness, rtol=1e-12)
    np.testing.assert_allclose(b.mass, a.mass)


def test_two_collinear_elements_symmetric_and_banded():
    s = uniform_beam(2)
    sys = assemble(s)
    for m in (sys.mass, sys.stiffness):
        np.testing.assert_allclose(m, m.T, atol=1e-10 * np.abs(m).max())
        # connectivity only couples neighbouring nodes: bandwidth <= 2*dofs_per_node
        n = m.shape[0]
        for i in range(n):
            for j in range(n):
                if abs(i - j) > 4:
                    assert m[i, j] == 0.0


def test_cantilever_first_frequency_matches_closed_form():
    length, area, inertia, rho, e_mod = 0.8, 3.0e-4, 2.5e-9, 2700.0, 7.0e10
    s = uniform_beam(20, length, area, inertia, rho, e_mod,
                     constrained_dofs=(0, 1))
    modes = solve_modes(assemble(s), 3)
    assert not modes.rigid.any()
    f_exact = analytic_frequency_hz(CANTILEVER_BETAL[0], length, area, inertia, rho, e_mod)
    assert modes.frequencies_hz[0] == pytest.approx(f_exact, rel=0.005)


def test_free_free_beam_rigid_modes_and_first_elastic():
    length, area, inertia, rho, e_mod = 1.2, 3.0e-4, 2.5e-9, 2700.0, 7.0e10
    s = uniform_beam(20, length, area, inertia, rho, e_mod)
    modes = solve_modes(assemble(s), 5)
    # planar bending free-free: translation + rotation rigid modes
    assert list(modes.rigid) == [True, True, False, False, False]
    assert modes.frequencies[0] < 1e-3 * modes.frequencies[2]
    f_exact = analytic_frequency_hz(FREE_FREE_BETAL[0], length, area, inertia, rho, e_mod)
    assert modes.frequencies_hz[2] == pytest.approx(f_exact, rel=0.01)


def test_assemble_errors():
    s = uniform_beam(3)
    with pytest.raises(ValueError):
        assemble(s, np.array([7.0e10, 7.0e10]))        # dimension mismatch
    with pytest.raises(ValueError):
        assemble(s, np.array([7.0e10, -1.0, 7.0e10]))  # non-positive modulus


def test_assemble_rejects_an_asymmetric_element_stiffness(monkeypatch):
    symmetric = element_stiffness

    def asymmetric(ei, length):
        k = symmetric(ei, length)
        k[0, 1] *= 1.5
        return k

    monkeypatch.setattr(femupdate.beam, "element_stiffness", asymmetric)
    with pytest.raises(ValueError, match="stiffness matrix is not symmetric"):
        assemble(uniform_beam(3))


def test_assembled_systems_share_read_only_mass_factor_and_dof_map():
    s = uniform_beam(4, constrained_dofs=(0, 1))
    a = assemble(s)
    b = assemble(s, 1.1 * s.moduli())
    mass, factor, dof_map = a.mass.copy(), a.mass_factor_inv.copy(), a.dof_map.copy()
    for name, values in (("mass", mass), ("mass_factor_inv", factor), ("dof_map", dof_map)):
        shared = getattr(a, name)
        assert getattr(b, name) is shared
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0
        np.testing.assert_array_equal(getattr(assemble(s), name), values)
    assert b.stiffness is not a.stiffness
    stiffness = a.stiffness.copy()
    a.stiffness[0, 0] = 0.0
    np.testing.assert_array_equal(assemble(s).stiffness, stiffness)


def test_structure_invariants():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0]])
    good = BeamElement(0, 1, 1e-4, 1e-9, 2700.0, 7e10)
    with pytest.raises(ValueError):
        BeamStructure(nodes, [BeamElement(0, 0, 1e-4, 1e-9, 2700.0, 7e10)])
    with pytest.raises(ValueError):
        BeamStructure(nodes, [BeamElement(0, 2, 1e-4, 1e-9, 2700.0, 7e10)])
    with pytest.raises(ValueError):
        BeamStructure(nodes, [BeamElement(0, 1, -1e-4, 1e-9, 2700.0, 7e10)])
    with pytest.raises(ValueError, match="element 0 length must be positive and finite, got 0"):
        BeamStructure(np.array([[0.0, 0.0], [0.0, 0.0]]), [good])
    with pytest.raises(ValueError):
        BeamStructure(nodes, [good], constrained_dofs=(9,))


# finite coordinates whose distance overflows, in the subtraction or in the norm
@pytest.mark.parametrize("nodes", [[[-1e308, 0.0], [-1e308, 1.0], [1e308, 0.0]],
                                   [[0.0, 0.0], [0.0, 1.0], [1e200, 0.0]]])
@pytest.mark.filterwarnings("error")
def test_overflowing_element_length_rejected_by_name(nodes):
    good = BeamElement(0, 1, 1e-4, 1e-9, 2700.0, 7e10)
    with pytest.raises(ValueError, match="element 1 length must be positive and finite, "
                                         "got inf"):  # not a RuntimeWarning
        BeamStructure(nodes, [good, BeamElement(1, 2, 1e-4, 1e-9, 2700.0, 7e10)])


def test_constrained_assembly_reduces_dofs():
    s = uniform_beam(4, constrained_dofs=(0, 1))
    sys = assemble(s)
    assert sys.dof_count == 8
    np.testing.assert_array_equal(sys.dof_map, np.arange(2, 10))


def test_branched_constrained_assembly_matches_element_sum():
    # T junction at node 1 (three elements share it), clamped at node 0,
    # rotation of node 3 also removed
    nodes = [[0.0, 0.0], [0.3, 0.0], [0.7, 0.0], [0.3, 0.25]]
    pairs = [(0, 1), (1, 2), (1, 3)]
    elements = [BeamElement(a, b, 3.0e-4, 2.5e-9, 2700.0, 7.0e10) for a, b in pairs]
    s = BeamStructure(nodes=nodes, elements=elements, constrained_dofs=(0, 1, 7))
    moduli = np.array([6.5e10, 7.0e10, 7.5e10])
    K = np.zeros((8, 8))
    M = np.zeros((8, 8))
    for idx, (a, b) in enumerate(pairs):
        dofs = np.ix_(*2 * [[2 * a, 2 * a + 1, 2 * b, 2 * b + 1]])
        L = s.element_length(idx)
        K[dofs] += element_stiffness(moduli[idx] * 2.5e-9, L)
        M[dofs] += element_mass(2700.0 * 3.0e-4, L)
    keep = np.ix_(*2 * [[2, 3, 4, 5, 6]])
    sys = assemble(s, moduli)
    np.testing.assert_array_equal(sys.dof_map, [2, 3, 4, 5, 6])
    np.testing.assert_allclose(sys.stiffness, K[keep], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(sys.mass, M[keep], rtol=1e-14, atol=0.0)
    # DOFs 4, 5 (node 2) and 6 (node 3) are coupled only through node 1
    assert sys.stiffness[2, 4] == 0.0 and sys.stiffness[3, 4] == 0.0


# ---------------------------------------------------------------- the H fixture


def refined_h():
    """The H fixture with every run refined 4x (48 elements, 98 DOFs)."""
    return h_beam_structure(ScenarioSpec(left_flange_elements=16, right_flange_elements=20,
                                         crossbar_elements=12))


def default_h():
    return h_beam_structure(ScenarioSpec())


@pytest.mark.parametrize("structure", [default_h, refined_h])
def test_assembled_stiffness_exactly_symmetric(structure):
    s = structure()
    rng = np.random.default_rng(31)
    for _ in range(20):
        K = assemble(s, rng.uniform(6.0e10, 8.0e10, s.n_elements)).stiffness
        np.testing.assert_array_equal(K, K.T)


def test_mass_factor_holds_no_subnormal_numbers():
    tiny = np.finfo(float).tiny
    m = assemble(refined_h())
    raw = np.linalg.inv(np.linalg.cholesky(m.mass))
    assert np.count_nonzero((raw != 0.0) & (np.abs(raw) < tiny)) > 0  # what the cut removes
    w = m.mass_factor_inv
    assert not ((w != 0.0) & (np.abs(w) < tiny)).any()
    # the entries kept are those of the plain inverse factor
    kept = w != 0.0
    np.testing.assert_array_equal(w[kept], raw[kept])


def test_mass_factor_of_the_default_h_is_the_plain_inverse():
    m = assemble(default_h())
    np.testing.assert_array_equal(m.mass_factor_inv,
                                  np.linalg.inv(np.linalg.cholesky(m.mass)))
