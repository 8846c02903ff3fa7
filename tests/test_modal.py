"""Eigensolver oracle checks, MAC, cost and mode pairing."""

import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from femupdate.beam import BeamElement, BeamStructure, SystemMatrices, assemble
from femupdate.modal import (
    RIGID_RATIO, CostWeights, EigenSolveError, ModalData, _count_rigid, cost, mac,
    pair_modes, pair_shapes, solve_modes,
)
from femupdate.optimizers import EvalBudget
from femupdate.scenario import ScenarioSpec, build_scenario, h_beam_structure
from femupdate.updating import RIGID_ALLOWANCE, full_objective, solve_observed
from test_metamorphic import beam_trees


def make_system(K, M):
    K = np.asarray(K, dtype=float)
    M = np.asarray(M, dtype=float)
    return SystemMatrices(mass=M, stiffness=K)


def random_spd(rng, n, diag_boost=1.0):
    A = rng.standard_normal((n, n))
    return A @ A.T + diag_boost * n * np.eye(n)


def oracle_eigenvalues(K, M):
    """Characteristic-polynomial roots of det(K - lam M) = 0 via M^-1 K."""
    A = np.linalg.inv(M) @ K
    return np.sort(np.roots(np.poly(A)).real)


def oracle_eigenvectors(K, M):
    """Dense QR eigendecomposition of M^-1 K with explicit inverse."""
    lam, vec = np.linalg.eig(np.linalg.inv(M) @ K)
    order = np.argsort(lam.real)
    return lam.real[order], vec.real[:, order]


def test_two_dof_hand_oracle():
    # det(K - lam I) = lam^2 - 3 lam + 1 -> lam = (3 -+ sqrt(5)) / 2
    sys = make_system([[2.0, -1.0], [-1.0, 1.0]], np.eye(2))
    modes = solve_modes(sys, 2)
    lam = modes.frequencies**2
    np.testing.assert_allclose(lam, [(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2],
                               rtol=1e-12)


def test_identity_pencil():
    rng = np.random.default_rng(3)
    M = random_spd(rng, 4)
    modes = solve_modes(make_system(M, M), 4)
    np.testing.assert_allclose(modes.frequencies**2, np.ones(4), rtol=1e-10)


def test_solver_matches_brute_force_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(25):
        n = int(rng.integers(2, 7))
        K = random_spd(rng, n)
        M = random_spd(rng, n)
        modes = solve_modes(make_system(K, M), n)
        lam_oracle = oracle_eigenvalues(K, M)
        np.testing.assert_allclose(modes.frequencies**2, lam_oracle, rtol=1e-8)
        _, vec_oracle = oracle_eigenvectors(K, M)
        m = mac(modes.mode_shapes, vec_oracle)
        np.testing.assert_allclose(np.diag(m), np.ones(n), atol=1e-8)


def test_mass_orthogonality_and_residual():
    rng = np.random.default_rng(7)
    K = random_spd(rng, 6)
    M = random_spd(rng, 6)
    modes = solve_modes(make_system(K, M), 6)
    gram = modes.mode_shapes.T @ M @ modes.mode_shapes
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)
    for i in range(6):
        phi = modes.mode_shapes[:, i]
        res = K @ phi - modes.frequencies[i]**2 * (M @ phi)
        assert np.linalg.norm(res) / np.linalg.norm(K @ phi) <= 1e-8


def test_mass_not_positive_definite():
    sys = SystemMatrices(mass=np.diag([1.0, 0.0]), stiffness=np.eye(2))
    with pytest.raises(EigenSolveError, match="positive definite"):
        solve_modes(sys, 1)


@pytest.mark.parametrize("refine", [1, 4])
def test_assembled_system_matches_hand_built(refine):
    # assemble() hands over the mass factor cached on the structure; a
    # hand-built system of the same matrices factors its mass on first use
    spec = ScenarioSpec(left_flange_elements=4 * refine,
                        right_flange_elements=5 * refine,
                        crossbar_elements=3 * refine)
    s = h_beam_structure(spec)
    assemble(s)  # fill the structure's cache with the nominal moduli
    rng = np.random.default_rng(refine)
    assembled = assemble(s, rng.uniform(spec.lower_bound, spec.upper_bound, s.n_elements))
    by_hand = SystemMatrices(mass=assembled.mass.copy(),
                             stiffness=assembled.stiffness.copy())
    a = solve_modes(assembled, 10)
    b = solve_modes(by_hand, 10)
    np.testing.assert_array_equal(a.rigid, b.rigid)
    elastic = ~a.rigid
    np.testing.assert_allclose(a.frequencies[elastic], b.frequencies[elastic], rtol=1e-10)
    m = mac(a.mode_shapes[:, elastic], b.mode_shapes[:, elastic])
    assert np.all(np.diag(m) > 1.0 - 1e-10)


def test_mass_factored_once_per_structure(monkeypatch):
    problem, truth = build_scenario(ScenarioSpec())
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    # a fresh structure, so building the problem factors its mass
    problem = replace(problem, structure=h_beam_structure(ScenarioSpec()))
    rng = np.random.default_rng(0)
    budget = EvalBudget()
    for _ in range(20):
        x = truth * rng.uniform(0.95, 1.05, truth.size)
        assert np.isfinite(full_objective(problem, x, budget))
    assert budget.calls == 20
    assert len(calls) == 1


def test_n_modes_bounds():
    sys = make_system(np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        solve_modes(sys, 3)
    with pytest.raises(ValueError):
        solve_modes(sys, 0)


# ---------------------------------------------------------------- rigid count


def first_seven_scan(eigenvalues):
    """Reference rigid count: the split scan over the first 7 eigenvalues,
    which covers up to 6 rigid-body modes."""
    lams = eigenvalues[:7].tolist()
    for i in range(len(lams) - 1, 0, -1):
        if lams[i] > 0.0 and all(abs(v) < RIGID_RATIO * lams[i] for v in lams[:i]):
            return i
    return 0


def eigenvalues(structure):
    """The whole spectrum of the mass-reduced pencil, as solve_modes computes it."""
    matrices = assemble(structure)
    W = matrices.mass_factor_inv
    A = W @ matrices.stiffness @ W.T
    return np.linalg.eigh(0.5 * (A + A.T))[0]


@settings(max_examples=50)
@given(st.lists(beam_trees(), min_size=1, max_size=3))
def test_rigid_count_matches_the_first_seven_scan_on_free_trees(trees):
    # the trees 10 m apart, no element joining them: 2 rigid modes each
    nodes, elements = [], []
    for k, tree in enumerate(trees):
        offset = sum(len(n) for n in nodes)
        nodes.append(tree.nodes + [10.0 * k, 0.0])
        elements += [BeamElement(e.node_a + offset, e.node_b + offset, e.area,
                                 e.second_moment, e.density, e.elastic_modulus)
                     for e in tree.elements]
    lam = eigenvalues(BeamStructure(nodes=np.vstack(nodes), elements=elements))
    assert _count_rigid(lam) == first_seven_scan(lam) == 2 * len(trees)


@pytest.mark.parametrize("spec", [
    ScenarioSpec(),
    ScenarioSpec(left_flange_elements=16, right_flange_elements=20, crossbar_elements=12),
], ids=["h12", "h48"])
def test_rigid_count_matches_the_first_seven_scan_on_the_h_fixtures(spec):
    lam = eigenvalues(h_beam_structure(spec))
    assert _count_rigid(lam) == first_seven_scan(lam) == 2
    # a NaN fails every split from its own index on
    lam[1] = np.nan
    assert _count_rigid(lam) == first_seven_scan(lam) == 0


# ---------------------------------------------------------------- MAC


def test_mac_identity_for_orthonormal_set():
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 3)))
    np.testing.assert_allclose(mac(q, q), np.eye(3), atol=1e-12)


def test_mac_scale_invariance():
    phi = np.array([[1.0], [-2.0], [0.5]])
    assert mac(phi, -3.7 * phi)[0, 0] == pytest.approx(1.0)


def test_mac_hand_value():
    assert mac(np.array([[1.0], [0.0]]), np.array([[1.0], [1.0]]))[0, 0] == pytest.approx(0.5)


def test_mac_bounds_and_unit_diagonal():
    rng = np.random.default_rng(11)
    for _ in range(10):
        A = rng.standard_normal((8, 4))
        B = rng.standard_normal((8, 5))
        m = mac(A, B)
        assert np.all(m >= 0.0) and np.all(m <= 1.0 + 1e-12)
        np.testing.assert_allclose(np.diag(mac(A, A)), np.ones(4), atol=1e-12)
        scale = rng.uniform(0.5, 2.0, 4)
        np.testing.assert_allclose(mac(A * scale, B), m, rtol=1e-10)


def test_mac_zero_norm_rejected():
    with pytest.raises(ValueError, match="zero-norm"):
        mac(np.zeros((3, 1)), np.ones((3, 1)))


def test_one_dimensional_mode_shapes_rejected():
    # one mode is a (n_coords, 1) column; a bare vector is a caller's slip
    with pytest.raises(ValueError, match=r"got shapes \(3,\) and \(3, 1\)"):
        mac(np.ones(3), np.ones((3, 1)))
    with pytest.raises(ValueError, match=r"got shapes \(3, 1\) and \(3,\)"):
        mac(np.ones((3, 1)), np.ones(3))
    with pytest.raises(ValueError, match=r"got shape \(2,\)"):
        ModalData(frequencies=[1.0], mode_shapes=[1.0, 0.0], coordinate_map=[0, 1])


@pytest.mark.parametrize("name", ["frequencies", "coordinate_map", "rigid"])
@pytest.mark.parametrize("bad", [[[0.0, 1.0]], 1.0], ids=["2-D", "0-D"])
def test_modal_data_per_mode_and_per_coordinate_fields_are_one_dimensional(name, bad):
    # a (1, 2) frequencies array would pass the per-mode counts and fail in elastic()
    fields = dict(frequencies=[1.0, 2.0], mode_shapes=np.eye(2), coordinate_map=[0, 1],
                  rigid=[False, False])
    fields[name] = bad
    shape = re.escape(str(np.shape(bad)))
    with pytest.raises(ValueError, match=f"{name} must be a 1-D array, got shape {shape}"):
        ModalData(**fields)


# ---------------------------------------------------------------- cost


def modal_from(freqs, shapes, **kw):
    shapes = np.asarray(shapes, dtype=float)
    return ModalData(frequencies=np.asarray(freqs, dtype=float),
                     mode_shapes=shapes,
                     coordinate_map=np.arange(shapes.shape[0]),
                     **kw)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_modal_data_rejects_non_finite_frequency_or_shape(value):
    shapes = np.array([[1.0, 0.2], [0.3, -1.0]])
    with pytest.raises(ValueError, match="frequencies must be non-negative and finite"):
        modal_from([1.0, value], shapes)
    shapes[1, 0] = value
    with pytest.raises(ValueError, match="mode shapes must be finite"):
        modal_from([1.0, 2.0], shapes)


def identity_pairing(calc, measured):
    """Mode i against mode i, with the MAC of each pair, for sets whose modes could tie."""
    paired_mac = np.diag(mac(calc.mode_shapes, measured.mode_shapes))
    return np.arange(paired_mac.size), paired_mac


def test_cost_zero_for_identical_data():
    shapes = np.array([[1.0, 0.2], [0.3, -1.0], [0.5, 0.4]])
    d = modal_from([10.0, 25.0], shapes)
    w = CostWeights(gamma=[1.0, 1.0], beta=0.75)
    assert cost(d, d, w, pair_modes(d, d)) == pytest.approx(0.0, abs=1e-15)


def test_cost_nonnegative_for_identical_random_shapes():
    # unclipped, 1 - MAC_ii rounds below zero for 609 of these 2000 sets
    rng = np.random.default_rng(29)
    w = CostWeights(gamma=[1.0, 1.0, 1.0], beta=0.75)
    for _ in range(2000):
        d = modal_from([10.0, 20.0, 30.0], rng.standard_normal((6, 3)))
        assert cost(d, d, w, identity_pairing(d, d)) >= 0.0


def test_cost_single_mode_hand_value():
    calc = modal_from([90.0], [[1.0], [0.0]])
    meas = modal_from([100.0], [[1.0], [0.0]])
    assert cost(calc, meas, CostWeights(gamma=[1.0], beta=0.0),
                pair_modes(calc, meas)) == pytest.approx(0.01)


def test_cost_zero_gamma_identical_shapes():
    shapes = np.array([[1.0], [2.0]])
    calc = modal_from([90.0], shapes)
    meas = modal_from([100.0], shapes)
    assert cost(calc, meas, CostWeights(gamma=[0.0], beta=0.75),
                pair_modes(calc, meas)) == pytest.approx(0.0)


def test_cost_scale_invariant_in_shapes_and_monotone_in_frequency():
    rng = np.random.default_rng(13)
    shapes = rng.standard_normal((5, 3))
    meas = modal_from([10.0, 20.0, 30.0], shapes)
    w = CostWeights(gamma=[1.0, 2.0, 0.5], beta=0.75)
    scaled = modal_from([9.0, 21.0, 30.0], shapes * np.array([2.0, -1.0, 0.3]))
    plain = modal_from([9.0, 21.0, 30.0], shapes)

    def paired_cost(calc):
        return cost(calc, meas, w, pair_modes(calc, meas))

    assert paired_cost(scaled) == pytest.approx(paired_cost(plain), rel=1e-12)
    worse = modal_from([8.0, 21.0, 30.0], shapes)
    assert paired_cost(worse) > paired_cost(plain)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_cost_weights_reject_negative_and_non_finite_values(bad):
    with pytest.raises(ValueError, match=r"weights must be non-negative and finite, "
                                         r"got gamma=\[.*\]"):
        CostWeights(gamma=[1.0, bad], beta=1.0)
    with pytest.raises(ValueError, match=f"weights must be non-negative and finite, "
                                         f"got beta={bad}"):
        CostWeights(gamma=[1.0], beta=bad)


def test_cost_errors():
    calc = modal_from([1.0], [[1.0], [0.0]])
    meas2 = modal_from([1.0, 2.0], np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        cost(calc, meas2, CostWeights(gamma=[1.0, 1.0], beta=0.0),
             identity_pairing(calc, meas2))
    zero = modal_from([0.0], [[1.0], [0.0]])
    with pytest.raises(ValueError, match="non-zero"):
        cost(calc, zero, CostWeights(gamma=[1.0], beta=0.0), identity_pairing(calc, zero))


# ---------------------------------------------------------------- pairing


def test_pair_modes_unswaps_columns():
    rng = np.random.default_rng(17)
    shapes = rng.standard_normal((6, 3))
    meas = modal_from([10.0, 20.0, 30.0], shapes)
    calc = modal_from([10.0, 20.0, 30.0], shapes[:, [2, 0, 1]])
    np.testing.assert_array_equal(pair_modes(calc, meas)[0], [1, 2, 0])


def test_pair_modes_identity():
    rng = np.random.default_rng(19)
    shapes = rng.standard_normal((6, 4))
    d = modal_from([1.0, 2.0, 3.0, 4.0], shapes)
    np.testing.assert_array_equal(pair_modes(d, d)[0], np.arange(4))


def test_pair_modes_skips_rigid():
    rng = np.random.default_rng(23)
    elastic = rng.standard_normal((8, 5))
    measured = modal_from(np.arange(1.0, 6.0), elastic)
    full_shapes = np.column_stack([rng.standard_normal((8, 2)), elastic, rng.standard_normal((8, 1))])
    calc = ModalData(frequencies=np.concatenate([[0.0, 0.0], np.arange(1.0, 6.0), [9.0]]),
                     mode_shapes=full_shapes,
                     coordinate_map=np.arange(8),
                     rigid=np.array([True, True, False, False, False, False, False, False]))
    pairing = pair_modes(calc, measured)[0]
    assert np.all(pairing >= 2)
    np.testing.assert_array_equal(pairing, [2, 3, 4, 5, 6])


def test_low_mac_pairing_logs_its_template(caplog):
    # the benchmark counts these records by logger name and template
    measured = np.array([[0.1], [0.1], [1.0]])  # MAC 0.0098 with either calc mode
    with caplog.at_level("WARNING", logger="femupdate.modal"):
        pair_shapes(np.eye(3)[:, :2], np.zeros(2, dtype=bool), measured)
    assert [(r.name, r.msg, r.args[0]) for r in caplog.records] == [
        ("femupdate.modal", "measured mode %d paired with MAC %.3f < 0.5", 0)]


def test_pair_modes_insufficient_elastic():
    d = modal_from([1.0], [[1.0], [0.0]])
    meas = modal_from([1.0, 2.0], np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="elastic"):
        pair_modes(d, meas)


# ---------------------------------------------------------------- coordinates


@pytest.mark.parametrize("seed", range(5))
def test_at_coordinates_follows_unsorted_map(seed):
    rng = np.random.default_rng(seed)
    cmap = rng.permutation(np.arange(0, 20, 2))
    shapes = rng.standard_normal((cmap.size, 3))
    data = ModalData(frequencies=[1.0, 2.0, 3.0], mode_shapes=shapes, coordinate_map=cmap)
    row_of = {int(dof): i for i, dof in enumerate(cmap)}
    for dofs in (rng.permutation(cmap), cmap[:1], rng.choice(cmap, 4, replace=False)):
        sub = data.at_coordinates(dofs)
        np.testing.assert_array_equal(sub.coordinate_map, dofs)
        np.testing.assert_array_equal(sub.mode_shapes, shapes[[row_of[int(d)] for d in dofs]])
    for missing in ([1], [cmap[0], 19], [-2], [20]):
        with pytest.raises(ValueError, match="not observed"):
            data.at_coordinates(missing)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=50)
@given(beam_trees(), st.data())
def test_solve_observed_on_every_dof_is_the_solve_through_the_checked_constructor(tree, data):
    matrices = assemble(tree)
    n_modes = data.draw(st.integers(1, matrices.dof_count))
    checked, built = ModalData.__post_init__, []
    with mock.patch.object(ModalData, "__post_init__",
                           lambda self: built.append(checked(self))):
        observed = solve_observed(tree, None, n_modes, matrices.dof_map)
    assert len(built) == 1
    solved = solve_modes(matrices, min(n_modes + RIGID_ALLOWANCE, matrices.dof_count))
    for name in ("frequencies", "mode_shapes", "rigid"):
        assert same_bits(getattr(observed, name), getattr(solved, name)), name
    assert same_bits(observed.coordinate_map, matrices.dof_map)


def test_objective_independent_of_observed_order():
    ascending = tuple(range(0, 26, 2))
    problems = [build_scenario(ScenarioSpec(observed_dofs=dofs))[0]
                for dofs in (ascending, ascending[::-1])]
    np.testing.assert_array_equal(problems[1].measured.coordinate_map, ascending[::-1])
    bounds = problems[0].bounds
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = bounds.lower + rng.uniform(size=bounds.dim) * bounds.range
        a, b = (full_objective(p, x, EvalBudget()) for p in problems)
        assert b == pytest.approx(a, rel=1e-12)
