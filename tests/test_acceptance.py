"""Acceptance criteria, one test per criterion.

Each test prints a single "ACCEPTANCE <n> <name>: PASS" line when its
assertions hold (run pytest -s to watch them stream). Criteria 6 and 7
share one set of five end-to-end runs at the production settings
(150-sample/10-iteration RSM, 50x200 GA, 3-run SA).
"""

import math

import numpy as np
import pytest

from femupdate.beam import BeamElement, BeamStructure, SystemMatrices, assemble
from femupdate.modal import TWO_PI, mac, solve_modes
from femupdate.optimizers import (
    Bounds, GaConfig, SaConfig, _geometric_ranks, _mutate, geometric_select,
    metropolis_accept, nonuniform_mutate,
)
from femupdate.scenario import ScenarioSpec, build_scenario
from femupdate.surrogate import SurrogateNet, TrainingSet, grad, loss
from femupdate.updating import RsmConfig, ga_update, rsm_update, sa_update
from femupdate.cli import main as cli_main


def report(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


# ------------------------------------------------------------ criterion 1


def test_criterion_1_eigensolver_oracle_equivalence():
    rng = np.random.default_rng(101)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n))
        K = A @ A.T + n * np.eye(n)
        B = rng.standard_normal((n, n))
        M = B @ B.T + n * np.eye(n)
        modes = solve_modes(SystemMatrices(mass=M, stiffness=K), n)
        # oracle: characteristic polynomial roots of inv(M) K ...
        lam_poly = np.sort(np.roots(np.poly(np.linalg.inv(M) @ K)).real)
        np.testing.assert_allclose(modes.frequencies**2, lam_poly, rtol=1e-8)
        # ... and dense QR eigenvectors of the same standard form
        lam_qr, vec = np.linalg.eig(np.linalg.inv(M) @ K)
        vec = vec.real[:, np.argsort(lam_qr.real)]
        np.testing.assert_allclose(np.diag(mac(modes.mode_shapes, vec)),
                                   np.ones(n), atol=1e-8)
    report("1 eigensolver-oracle-equivalence")


# ------------------------------------------------------------ criterion 2


def _uniform_beam(constrained):
    length, area, inertia, rho, e_mod = 1.1, 3.0e-4, 2.5e-9, 2700.0, 7.0e10
    xs = np.linspace(0.0, length, 21)
    nodes = np.column_stack([xs, np.zeros_like(xs)])
    elements = [BeamElement(i, i + 1, area, inertia, rho, e_mod) for i in range(20)]
    s = BeamStructure(nodes=nodes, elements=elements, constrained_dofs=constrained)
    scale = np.sqrt(e_mod * inertia / (rho * area * length**4)) / (2.0 * np.pi)
    return s, scale


def test_criterion_2_analytic_beam_frequencies():
    s, scale = _uniform_beam((0, 1))
    cant = solve_modes(assemble(s), 2)
    for i, beta_l in enumerate((1.875104069, 4.694091133)):
        assert cant.frequencies[i] / TWO_PI == pytest.approx(beta_l**2 * scale, rel=0.01)

    s, scale = _uniform_beam(())
    free = solve_modes(assemble(s), 4)
    assert list(free.rigid) == [True, True, False, False]
    for i, beta_l in enumerate((4.730040745, 7.853204624)):
        assert free.frequencies[2 + i] / TWO_PI == pytest.approx(beta_l**2 * scale, rel=0.01)
    report("2 analytic-beam-frequencies")


# ------------------------------------------------------------ criterion 3


def test_criterion_3_mlp_gradient_check():
    rng = np.random.default_rng(303)
    step = 1e-6
    for _ in range(20):
        d_in = int(rng.integers(1, 6))
        m_hidden = int(rng.integers(1, 5))
        net = SurrogateNet(
            w1=rng.standard_normal((m_hidden, d_in + 1)),
            w2=rng.standard_normal(m_hidden + 1),
            in_center=rng.standard_normal(d_in),
            in_half=rng.uniform(0.5, 2.0, d_in),
            out_center=float(rng.standard_normal()),
            out_scale=float(rng.uniform(0.5, 2.0)),
        )
        data = TrainingSet(inputs=rng.standard_normal((6, d_in)),
                           targets=rng.standard_normal(6))
        g = grad(net, data)
        w0 = net.flat_weights()
        g_fd = np.empty_like(w0)
        for i in range(w0.size):
            wp, wm = w0.copy(), w0.copy()
            wp[i] += step
            wm[i] -= step
            g_fd[i] = (loss(net.with_flat_weights(wp), data)
                       - loss(net.with_flat_weights(wm), data)) / (2.0 * step)
        denom = np.maximum(np.abs(g_fd), 1e-3 * np.abs(g_fd).max())
        assert np.max(np.abs(g - g_fd) / denom) < 1e-5
    report("3 mlp-gradient-backprop-vs-fd")


# ------------------------------------------------------------ criterion 4


def test_criterion_4_operator_statistics():
    rng = np.random.default_rng(404)
    n_trials = 100_000

    accepted = sum(metropolis_accept(0.0, 0.5, 1.0, rng) for _ in range(n_trials))
    assert abs(accepted / n_trials - math.exp(-0.5)) < 0.01

    q, n = 0.08, 50
    q_norm = q / (1.0 - (1.0 - q) ** n)
    draws = np.array([geometric_select(list(range(n)), q, rng)
                      for _ in range(n_trials)])
    assert abs(np.mean(draws == 0) - q_norm) < 0.01

    bounds = Bounds(lower=np.zeros(1), upper=np.ones(1))
    x = np.array([0.5])
    means = []
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        t = int(frac * 1000)
        deltas = [abs(nonuniform_mutate(x, t, 1000, bounds, 2.0, rng)[0] - 0.5)
                  for _ in range(10_000)]
        means.append(np.mean(deltas))
    assert all(b < a for a, b in zip(means, means[1:]))

    # the array forms a GA generation breeds with, at the same sizes and tolerances
    ranks = _geometric_ranks(rng.random(n_trials), q, n)
    assert abs(np.mean(ranks == 0) - q_norm) < 0.01
    means = []
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        expo = (1.0 - int(frac * 1000) / 1000) ** 2.0
        moved = _mutate(0.5, 0.0, 1.0, rng.random(10_000) < 0.5, rng.random(10_000), expo)
        means.append(np.mean(np.abs(moved - 0.5)))
    assert all(b < a for a, b in zip(means, means[1:]))
    report("4 operator-statistics")


# ------------------------------------------------------------ criteria 5-7


PRODUCTION_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def production_runs():
    """Five full runs of all three methods at production settings."""
    runs = []
    for seed in PRODUCTION_SEEDS:
        problem, _ = build_scenario(ScenarioSpec(seed=seed))
        r_rsm = rsm_update(problem, RsmConfig(ga=GaConfig(seed=seed + 2),
                                              sampler_seed=seed + 1))
        r_ga = ga_update(problem, GaConfig(seed=seed + 2))
        r_sa = sa_update(problem, SaConfig(seed=seed + 3))
        runs.append((r_rsm, r_ga, r_sa))
    return runs


@pytest.mark.slow
def test_criterion_5_evaluation_accounting(production_runs):
    for r_rsm, r_ga, _ in production_runs:
        assert r_rsm.fe_evaluations == 150 + 10
        assert r_ga.fe_evaluations == 50 * 200
    report("5 rsm-160-and-ga-10000-evaluations")


@pytest.mark.slow
def test_criterion_6_end_to_end_recovery(production_runs):
    passed = 0
    for r_rsm, r_ga, r_sa in production_runs:
        initial = r_ga.mean_abs_initial_error_pct
        improves = all(r.mean_abs_updated_error_pct < initial
                       for r in (r_rsm, r_ga, r_sa))
        ratio_ok = (r_rsm.mean_abs_updated_error_pct
                    <= 2.0 * r_ga.mean_abs_updated_error_pct)
        budget_ok = r_rsm.fe_evaluations < 0.05 * r_ga.fe_evaluations
        passed += improves and ratio_ok and budget_ok
    assert passed >= 4, f"end-to-end recovery held on only {passed}/5 seeds"
    report(f"6 end-to-end-recovery ({passed}/5 seeds)")


@pytest.mark.slow
def test_criterion_7_mac_improvement(production_runs):
    for r_rsm, r_ga, r_sa in production_runs:
        for r in (r_rsm, r_ga, r_sa):
            assert r.mac_mean_updated >= r.mac_mean_initial, (
                f"{r.method}: MAC {r.mac_mean_initial} -> {r.mac_mean_updated}")
    report("7 mac-diagonal-improvement")


# ------------------------------------------------------------ criterion 8


DETERMINISM_CONFIG = """\
[rsm]
n_samples = 60
max_iterations = 3
initial_cycles = 40
incremental_cycles = 5
m_hidden = 3

[ga]
population_size = 20
generations = 40

[sa]
cooling_factor = 0.8
min_temperature = 0.001
n_runs = 2
"""


@pytest.mark.slow
def test_criterion_8_deterministic_reports(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(DETERMINISM_CONFIG)
    outs = (tmp_path / "first", tmp_path / "second")
    for out in outs:
        code = cli_main(["run", "--config", str(cfg), "--method", "all",
                         "--out", str(out), "--seed", "99"])
        assert code == 0
    names = ["report_rsm.txt", "report_ga.txt", "report_sa.txt",
             "history_rsm.csv", "history_ga.csv", "history_sa.csv",
             "comparison_modes.csv", "comparison_summary.csv"]
    for name in names:
        a = [l for l in (outs[0] / name).read_text().splitlines()
             if not l.startswith("wall_time_s")]
        b = [l for l in (outs[1] / name).read_text().splitlines()
             if not l.startswith("wall_time_s")]
        assert a == b, f"{name} differs between identical runs"
    report("8 byte-identical-reports-modulo-timing")
