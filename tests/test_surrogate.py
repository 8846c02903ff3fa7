"""MLP response-surface tests: forward/loss oracles, gradient check, SCG."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from femupdate.optimizers import Bounds
from femupdate.surrogate import (
    SurrogateNet, TrainingSet, _flat_loss_and_grad, forward, grad, init_net, loss,
    target_scaling, train,
)


def identity_net(w1, w2, d_in):
    return SurrogateNet(w1=np.asarray(w1, dtype=float),
                        w2=np.asarray(w2, dtype=float),
                        in_center=np.zeros(d_in), in_half=np.ones(d_in))


def random_net(rng, d_in, m_hidden):
    return SurrogateNet(
        w1=rng.standard_normal((m_hidden, d_in + 1)),
        w2=rng.standard_normal(m_hidden + 1),
        in_center=rng.standard_normal(d_in),
        in_half=rng.uniform(0.5, 2.0, d_in),
        out_center=float(rng.standard_normal()),
        out_scale=float(rng.uniform(0.5, 2.0)),
    )


def fd_gradient(net, data, step=1e-6):
    w0 = net.flat_weights()
    g = np.empty_like(w0)
    for i in range(w0.size):
        wp, wm = w0.copy(), w0.copy()
        wp[i] += step
        wm[i] -= step
        g[i] = (loss(net.with_flat_weights(wp), data)
                - loss(net.with_flat_weights(wm), data)) / (2.0 * step)
    return g


# ---------------------------------------------------------------- forward


def test_forward_zero_weights_gives_output_bias():
    net = identity_net(np.zeros((3, 5)), np.zeros(4), d_in=4)
    net.out_center, net.out_scale = 1.5, 2.0
    assert forward(net, np.zeros((1, 4))) == pytest.approx([1.5])


def test_forward_zero_input_hand_case():
    net = identity_net([[1.0, 0.0]], [1.0, 0.0], d_in=1)
    assert forward(net, np.array([[0.0]])) == pytest.approx([0.0])


def test_forward_tanh_hand_value():
    net = identity_net([[1.0, 0.0]], [2.0, 0.5], d_in=1)
    assert forward(net, np.array([[1.0]])) == pytest.approx([2.0 * math.tanh(1.0) + 0.5],
                                                            rel=1e-12)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(0)
    net = random_net(rng, 3, 4)
    X = rng.standard_normal((6, 3))
    batch = forward(net, X)
    rows = np.concatenate([forward(net, X[i:i + 1]) for i in range(len(X))])
    np.testing.assert_allclose(batch, rows, rtol=1e-12)


def test_forward_dimension_and_finite_checks():
    net = identity_net([[1.0, 0.0]], [1.0, 0.0], d_in=1)
    with pytest.raises(ValueError):
        forward(net, np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        forward(net, np.array([[np.nan]]))


def test_forward_checks_batch_width():
    net = random_net(np.random.default_rng(1), 3, 4)
    with pytest.raises(ValueError, match="expected 3 inputs, got 5"):
        forward(net, np.zeros((4, 5)))
    with pytest.raises(ValueError, match=r"1-D input of shape \(3,\)"):
        forward(net, np.zeros(3))
    with pytest.raises(ValueError, match="3-D input"):
        forward(net, np.zeros((2, 4, 3)))


def test_forward_bounded_by_second_layer_weights():
    rng = np.random.default_rng(1)
    for _ in range(10):
        net = random_net(rng, 4, 6)
        x = rng.uniform(-5.0, 5.0, (1, 4))
        bias_term = net.w2[-1] * net.out_scale + net.out_center
        bound = np.abs(net.w2[:-1]).sum() * abs(net.out_scale)
        assert abs(forward(net, x)[0] - bias_term) <= bound + 1e-12


# ---------------------------------------------------------------- loss


def test_loss_zero_when_interpolating():
    rng = np.random.default_rng(2)
    net = random_net(rng, 2, 3)
    X = rng.standard_normal((5, 2))
    data = TrainingSet(inputs=X, targets=forward(net, X))
    assert loss(net, data) == pytest.approx(0.0, abs=1e-20)


def test_loss_hand_values():
    net = identity_net(np.zeros((2, 3)), np.zeros(3), d_in=2)
    one = TrainingSet(inputs=np.zeros((1, 2)), targets=np.array([1.0]))
    assert loss(net, one) == pytest.approx(1.0)
    # residuals 0.3 and -0.4 -> 0.09 + 0.16 = 0.25
    two = TrainingSet(inputs=np.zeros((2, 2)), targets=np.array([0.3, -0.4]))
    assert loss(net, two) == pytest.approx(0.25)


# ---------------------------------------------------------------- gradient


def test_gradient_zero_at_interpolation():
    rng = np.random.default_rng(3)
    net = random_net(rng, 3, 2)
    X = rng.standard_normal((5, 3))
    data = TrainingSet(inputs=X, targets=forward(net, X))
    np.testing.assert_allclose(grad(net, data), 0.0, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(25):
        d_in = int(rng.integers(1, 5))
        m_hidden = int(rng.integers(1, 4))
        net = random_net(rng, d_in, m_hidden)
        data = TrainingSet(inputs=rng.standard_normal((5, d_in)),
                           targets=rng.standard_normal(5))
        g = grad(net, data)
        g_fd = fd_gradient(net, data)
        # below ~1e-3 of the gradient scale the FD oracle's own rounding
        # noise (eps*|E|/step ~ 1e-8) dominates, so compare at that scale
        denom = np.maximum(np.abs(g_fd), 1e-3 * np.abs(g_fd).max())
        assert np.max(np.abs(g - g_fd) / denom) < 1e-5


def test_gradient_doubles_with_duplicated_samples():
    rng = np.random.default_rng(5)
    net = random_net(rng, 3, 2)
    X = rng.standard_normal((5, 3))
    t = rng.standard_normal(5)
    g1 = grad(net, TrainingSet(inputs=X, targets=t))
    g2 = grad(net, TrainingSet(inputs=np.vstack([X, X]),
                               targets=np.concatenate([t, t])))
    np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12)


# ---------------------------------------------------------------- init


def test_init_net_weight_count_and_scaling():
    b = Bounds(lower=np.full(12, 6.0e10), upper=np.full(12, 8.0e10))
    net = init_net(b, 8, seed=1)
    assert net.flat_weights().size == (12 + 1) * 8 + 8 + 1 == 113
    np.testing.assert_allclose(net.scale_inputs(np.full(12, 7.0e10)), 0.0, atol=1e-15)
    np.testing.assert_allclose(net.scale_inputs(np.full(12, 8.0e10)), 1.0)


def test_init_net_deterministic_per_seed():
    b = Bounds(lower=np.zeros(3), upper=np.ones(3))
    n1 = init_net(b, 4, seed=77)
    n2 = init_net(b, 4, seed=77)
    np.testing.assert_array_equal(n1.w1, n2.w1)
    np.testing.assert_array_equal(n1.w2, n2.w2)
    assert not np.array_equal(n1.w1, init_net(b, 4, seed=78).w1)


@pytest.mark.parametrize("name", ["in_center", "in_half", "out_center", "out_scale"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_net_rejects_a_non_finite_scaling(name, bad):
    net = random_net(np.random.default_rng(3), 2, 2)
    value = np.array([1.0, bad]) if name.startswith("in_") else bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        replace(net, **{name: value})


def test_scaling_round_trip():
    rng = np.random.default_rng(6)
    b = Bounds(lower=np.array([6.0e10, 1.0, -4.0]), upper=np.array([8.0e10, 3.0, -1.0]))
    net = init_net(b, 2, seed=9)
    for _ in range(20):
        x = rng.uniform(b.lower, b.upper)
        np.testing.assert_allclose(net.scale_inputs(x) * net.in_half + net.in_center, x,
                                   rtol=1e-12)


# ---------------------------------------------------------------- training


def test_train_keeps_interpolating_net_at_zero_loss():
    rng = np.random.default_rng(7)
    net = random_net(rng, 2, 2)
    X = rng.standard_normal((20, 2))
    data = TrainingSet(inputs=X, targets=forward(net, X))
    trained = train(net, data, cycles=10)
    assert loss(trained, data) <= 1e-12


def test_train_monotone_descent():
    rng = np.random.default_rng(8)
    for seed in range(5):
        b = Bounds(lower=-np.ones(2), upper=np.ones(2))
        net = init_net(b, 3, seed=seed)
        X = rng.uniform(-1.0, 1.0, (30, 2))
        data = TrainingSet(inputs=X, targets=np.sin(3.0 * X[:, 0]) + X[:, 1]**2)
        before = loss(net, data)
        after = loss(train(net, data, cycles=40), data)
        assert after <= before + 1e-12


def test_train_fits_quadratic():
    # smooth 1-D regression sanity check: y = x^2 on [-1, 1]
    rng = np.random.default_rng(9)
    x = rng.uniform(-1.0, 1.0, (150, 1))
    t = x[:, 0] ** 2
    b = Bounds(lower=np.array([-1.0]), upper=np.array([1.0]))
    center, scale = target_scaling(t)
    net = init_net(b, 8, seed=3, target_center=center, target_scale=scale)
    trained = train(net, TrainingSet(inputs=x, targets=t), cycles=150)
    rms = np.sqrt(loss(trained, TrainingSet(inputs=x, targets=t)) / 150.0)
    assert rms < 0.05


def test_train_warm_start_on_augmented_set():
    rng = np.random.default_rng(10)
    x = rng.uniform(-1.0, 1.0, (60, 1))
    t = np.cos(2.0 * x[:, 0])
    b = Bounds(lower=np.array([-1.0]), upper=np.array([1.0]))
    center, scale = target_scaling(t)
    net = init_net(b, 4, seed=5, target_center=center, target_scale=scale)
    net150 = train(net, TrainingSet(inputs=x, targets=t), cycles=150)
    x_aug = np.vstack([x, [[0.5]]])
    t_aug = np.concatenate([t, [np.cos(1.0)]])
    aug = TrainingSet(inputs=x_aug, targets=t_aug)
    net_plus = train(net150, aug, cycles=5)
    assert loss(net_plus, aug) <= loss(net150, aug) + 1e-12


def test_train_enforces_weight_count():
    b = Bounds(lower=np.zeros(3), upper=np.ones(3))
    net = init_net(b, 2, seed=0)  # 11 weights
    data = TrainingSet(inputs=np.zeros((5, 3)), targets=np.zeros(5))
    with pytest.raises(ValueError, match="weights"):
        train(net, data, cycles=1)


@pytest.mark.parametrize("inputs, targets", [
    (np.zeros((40, 3)), np.zeros((40, 1))),
    (np.zeros(3), np.zeros(1)),
    (np.zeros((40, 3)), np.zeros(39)),
])
def test_training_set_takes_n_by_d_inputs_and_n_targets(inputs, targets):
    # (40, 1) targets would pass the row count and fail inside the loss
    message = f"need (n, d) inputs and (n,) targets, got shapes {inputs.shape} and {targets.shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainingSet(inputs=inputs, targets=targets)


def test_train_does_not_mutate_input_net():
    rng = np.random.default_rng(11)
    b = Bounds(lower=-np.ones(2), upper=np.ones(2))
    net = init_net(b, 3, seed=1)
    w1_before = net.w1.copy()
    X = rng.uniform(-1.0, 1.0, (30, 2))
    train(net, TrainingSet(inputs=X, targets=X[:, 0]), cycles=20)
    np.testing.assert_array_equal(net.w1, w1_before)


@pytest.mark.parametrize("d_in, m_hidden, n", [(3, 2, 20), (12, 8, 150)])
def test_train_objective_is_loss_and_grad_bit_for_bit(d_in, m_hidden, n):
    rng = np.random.default_rng(43)
    net = random_net(rng, d_in, m_hidden)
    data = TrainingSet(inputs=rng.standard_normal((n, d_in)), targets=rng.standard_normal(n))
    f, df = _flat_loss_and_grad(net, data)
    for offset in range(4):
        # SCG hands over fresh vectors; a slice at an offset checks that
        # memory alignment does not change the sums
        w = rng.standard_normal(net.flat_weights().size + offset)[offset:]
        oracle = net.with_flat_weights(w)
        assert f(w) == loss(oracle, data)
        np.testing.assert_array_equal(df(w), grad(oracle, data))
    for bad in (np.nan, np.inf):
        w[-1] = bad
        for fn in (f, df, net.with_flat_weights):
            with pytest.raises(ValueError, match="weights must be finite"):
                fn(w)
