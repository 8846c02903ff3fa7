"""Single-hidden-layer perceptron response surface with SCG training.

The network maps updating-parameter vectors to a scalar cost prediction:
tanh hidden units, linear output. Inputs are affinely scaled to [-1, 1]
from the parameter bounds; the target scaling is fixed at initialization
so that warm-started training keeps the meaning of the weights.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

log = logging.getLogger(__name__)


@dataclass
class SurrogateNet:
    """MLP weights plus the input/output affine scalings.

    w1 has shape (m_hidden, d_in + 1) with the hidden biases in the last
    column; w2 has shape (m_hidden + 1,) with the output bias last.
    """

    w1: np.ndarray
    w2: np.ndarray
    in_center: np.ndarray
    in_half: np.ndarray
    out_center: float = 0.0
    out_scale: float = 1.0

    def __post_init__(self):
        self.w1 = np.atleast_2d(np.asarray(self.w1, dtype=float))
        self.w2 = np.atleast_1d(np.asarray(self.w2, dtype=float))
        self.in_center = np.atleast_1d(np.asarray(self.in_center, dtype=float))
        self.in_half = np.atleast_1d(np.asarray(self.in_half, dtype=float))
        if self.w1.shape != (self.m_hidden, self.d_in + 1):
            raise ValueError("w1 shape inconsistent with w2/in_center")
        if self.w2.shape != (self.m_hidden + 1,):
            raise ValueError("w2 must hold one weight per hidden unit plus a bias")
        if self.in_center.shape != self.in_half.shape or self.in_center.size != self.d_in:
            raise ValueError("input scaling must match d_in")
        if not (np.all(np.isfinite(self.w1)) and np.all(np.isfinite(self.w2))):
            raise ValueError("weights must be finite")
        for name in ("in_center", "in_half", "out_center", "out_scale"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if np.any(self.in_half <= 0.0) or self.out_scale == 0.0:
            raise ValueError("scaling ranges must be non-zero")

    @property
    def d_in(self) -> int:
        return self.in_center.size

    @property
    def m_hidden(self) -> int:
        return self.w2.size - 1

    def scale_inputs(self, x: np.ndarray) -> np.ndarray:
        return (x - self.in_center) / self.in_half

    def flat_weights(self) -> np.ndarray:
        """All weights as one vector: w1 rows first, then w2."""
        return np.concatenate([self.w1.ravel(), self.w2])

    def with_flat_weights(self, w: np.ndarray) -> "SurrogateNet":
        n1 = self.w1.size
        return replace(self, w1=w[:n1].reshape(self.w1.shape).copy(),
                       w2=w[n1:].copy())


@dataclass
class TrainingSet:
    """Sampled parameter vectors, (n, d) inputs, and their (n,) cost targets."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.inputs.ndim != 2 or self.targets.shape != self.inputs.shape[:1]:
            raise ValueError("need (n, d) inputs and (n,) targets, got shapes "
                             f"{self.inputs.shape} and {self.targets.shape}")
        if self.targets.size < 1:
            raise ValueError("training set is empty")
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.targets))):
            raise ValueError("training data must be finite")

    @property
    def n_samples(self) -> int:
        return self.targets.size


def _hidden(w1: np.ndarray, x_scaled: np.ndarray) -> np.ndarray:
    # x_scaled: (n, d) -> activations (n, m)
    return np.tanh(x_scaled @ w1[:, :-1].T + w1[:, -1])


def _output(z: np.ndarray, w2: np.ndarray, out_scale: float, out_center: float) -> np.ndarray:
    # activations (n, m) -> predictions in cost units (n,)
    return (z @ w2[:-1] + w2[-1]) * out_scale + out_center


def forward(net: SurrogateNet, X: np.ndarray) -> np.ndarray:
    """Network predictions in cost units: an (n, d_in) batch gives an (n,) array."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected an (n, {net.d_in}) batch, got {X.ndim}-D input "
                         f"of shape {X.shape}")
    if X.shape[1] != net.d_in:
        raise ValueError(f"expected {net.d_in} inputs, got {X.shape[1]}")
    if not np.isfinite(X).all():
        raise ValueError("non-finite input")
    return _output(_hidden(net.w1, net.scale_inputs(X)), net.w2, net.out_scale,
                   net.out_center)


def loss(net: SurrogateNet, data: TrainingSet) -> float:
    """Sum-of-squares error of the net over the training set."""
    r = data.targets - forward(net, data.inputs)
    return float(r @ r)


def grad(net: SurrogateNet, data: TrainingSet) -> np.ndarray:
    """Exact backpropagation gradient of loss() w.r.t. the flat weights."""
    return _grad(net.w1, net.w2, net.scale_inputs(data.inputs), data.targets,
                 net.out_scale, net.out_center)


def _grad(w1, w2, xs, targets, out_scale, out_center) -> np.ndarray:
    z = _hidden(w1, xs)                         # (n, m); xs is (n, d)
    r = targets - _output(z, w2, out_scale, out_center)  # (n,)
    dy = -2.0 * r * out_scale                   # dE/dy_scaled, (n,)
    g2 = np.concatenate([z.T @ dy, [dy.sum()]])
    da = np.outer(dy, w2[:-1]) * (1.0 - z**2)   # (n, m)
    g1 = np.column_stack([da.T @ xs, da.sum(axis=0)])
    return np.concatenate([g1.ravel(), g2])


def init_net(d_in: int, m_hidden: int, bounds, seed: int,
             target_center: float = 0.0, target_scale: float = 1.0) -> SurrogateNet:
    """Small random net with input scaling derived from parameter bounds.

    Weights are uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)]. `bounds` is
    anything with lower/upper arrays.
    """
    lower = np.asarray(bounds.lower, dtype=float)
    upper = np.asarray(bounds.upper, dtype=float)
    if lower.size != d_in:
        raise ValueError("bounds dimension must equal d_in")
    rng = np.random.default_rng(seed)
    a1 = 1.0 / np.sqrt(d_in + 1)
    a2 = 1.0 / np.sqrt(m_hidden + 1)
    return SurrogateNet(
        w1=rng.uniform(-a1, a1, (m_hidden, d_in + 1)),
        w2=rng.uniform(-a2, a2, m_hidden + 1),
        in_center=0.5 * (lower + upper),
        in_half=0.5 * (upper - lower),
        out_center=float(target_center),
        out_scale=float(target_scale),
    )


def target_scaling(targets: np.ndarray) -> tuple[float, float]:
    """Zero-mean / unit-range affine parameters for a target sample."""
    t = np.asarray(targets, dtype=float)
    span = float(t.max() - t.min())
    return float(t.mean()), span if span > 0.0 else 1.0


def _flat_loss_and_grad(net: SurrogateNet, data: TrainingSet):
    """f(w), df(w): loss() and grad() of net.with_flat_weights(w), bit for bit.

    They compute on slices of w, with the inputs scaled once, and raise
    ValueError("weights must be finite") where SurrogateNet would.
    """
    xs = net.scale_inputs(data.inputs)
    targets = data.targets
    shape1, n1 = net.w1.shape, net.w1.size
    out_scale, out_center = net.out_scale, net.out_center

    def split(w):
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        return w[:n1].reshape(shape1), w[n1:]

    def f(w):
        w1, w2 = split(w)
        r = targets - _output(_hidden(w1, xs), w2, out_scale, out_center)
        return float(r @ r)

    def df(w):
        return _grad(*split(w), xs, targets, out_scale, out_center)

    return f, df


def check_net_fits(d_in: int, m_hidden: int, n_samples: int):
    """Raise ValueError unless the net has fewer weights than training samples.

    A net of d_in inputs and m_hidden hidden units has
    m_hidden * (d_in + 2) + 1 weights.
    """
    n_weights = m_hidden * (d_in + 2) + 1
    if n_weights >= n_samples:
        raise ValueError(f"net has {n_weights} weights but only {n_samples} "
                         "training samples; need weights < samples")


def train(net: SurrogateNet, data: TrainingSet, cycles: int) -> SurrogateNet:
    """Scaled conjugate gradient training (Moller 1993), full batch.

    One cycle is one SCG iteration. Returns a new net holding the best
    weights seen; the loss never increases from first to last cycle. The
    input net is left untouched, so repeated calls warm-start naturally.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    check_net_fits(net.d_in, net.m_hidden, data.n_samples)

    f, df = _flat_loss_and_grad(net, data)
    w = net.flat_weights()
    n = w.size
    sigma0 = 1.0e-4
    lam = 1.0e-6
    lam_bar = 0.0
    e_w = f(w)
    g = df(w)
    r = -g
    p = r.copy()
    success = True
    best_w, best_e = w.copy(), e_w
    delta = 1.0
    p2 = float(p @ p)

    for k in range(1, cycles + 1):
        if success:
            p2 = float(p @ p)
            if p2 == 0.0 or not np.isfinite(p2):
                break
            sigma = sigma0 / np.sqrt(p2)
            s = (df(w + sigma * p) - g) / sigma
            delta = float(p @ s)
        delta += (lam - lam_bar) * p2
        if delta <= 0.0:  # make the Hessian estimate positive definite
            lam_bar = 2.0 * (lam - delta / p2)
            delta = -delta + lam * p2
            lam = lam_bar
        mu = float(p @ r)
        if mu <= 0.0:  # direction lost descent property: restart
            p = r.copy()
            mu = float(p @ r)
            if mu <= 0.0:
                break
            success = True
            continue
        alpha = mu / delta
        e_new = f(w + alpha * p)
        comp = 2.0 * delta * (e_w - e_new) / mu**2
        if comp >= 0.0 and np.isfinite(e_new):
            w = w + alpha * p
            e_w = e_new
            g = df(w)
            r_new = -g
            lam_bar = 0.0
            success = True
            if e_w < best_e:
                best_e, best_w = e_w, w.copy()
            if k % n == 0:
                p = r_new
            else:
                beta = float(r_new @ r_new - r_new @ r) / mu
                p = r_new + beta * p
            r = r_new
            if comp >= 0.75:
                lam = 0.25 * lam
        else:
            lam_bar = lam
            success = False
        if comp < 0.25:
            lam = lam + delta * (1.0 - comp) / p2
        if lam > 1.0e100:
            log.warning("SCG step damping diverged at cycle %d; "
                        "returning best-so-far weights", k)
            break
        if float(r @ r) < 1.0e-30:
            break

    return net.with_flat_weights(best_w)
