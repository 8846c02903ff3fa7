"""Modal solution, mode correlation and the modal-distance cost function.

The generalized eigenproblem K phi = omega^2 M phi is solved undamped.
The mass does not depend on the moduli, so its Cholesky factor is
computed once per structure (see beam.SystemMatrices.mass_factor_inv).
Each solve then runs on numpy's LAPACK alone, the BLAS build and thread
pool that assembly uses too: a second BLAS library in the evaluation
would bring a second thread pool, and the two spin against each other.

solve_modes returns a SolvedModes named tuple of plain arrays on the
reduced DOFs; updating.solve_observed restricts a solve to observed DOFs
and builds its one checked ModalData. Each array argument has one form:
ModalData's frequencies, coordinate_map and rigid are 1-D and its mode
shapes (n_coords, n_modes); select_modes and at_coordinates take 1-D
integer arrays; CostWeights takes a 1-D gamma and a scalar beta. Any
other shape, a scalar index included, raises ValueError naming it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .beam import SystemMatrices
from .optimizers import check_array

log = logging.getLogger(__name__)

TWO_PI = 2.0 * np.pi

# Eigenvalues this far below the first elastic eigenvalue count as rigid-body.
RIGID_RATIO = 1e-6
# Largest accepted |K phi - lambda M phi| / |K phi| of an elastic mode.
RESIDUAL_TOL = 1e-8


class EigenSolveError(RuntimeError):
    """Raised when the modal solve fails (mass not SPD, or residual too large)."""


@dataclass
class ModalData:
    """Natural frequencies and mass-normalized mode shapes.

    Parameters
    ----------
    frequencies : (n_modes,) array
        Natural frequencies in rad/s, ascending, non-negative and finite.
    mode_shapes : (n_coords, n_modes) array
        One column per mode, finite; rows follow coordinate_map.
    coordinate_map : (n_coords,) int array
        Global DOF index of each mode-shape row.
    rigid : (n_modes,) bool array, optional
        Flags rigid-body modes, default all False.
    """

    frequencies: np.ndarray
    mode_shapes: np.ndarray
    coordinate_map: np.ndarray
    rigid: np.ndarray = field(default=None)

    def __post_init__(self):
        self.frequencies = check_array("frequencies", self.frequencies, 1)
        self.mode_shapes = np.asarray(self.mode_shapes, dtype=float)
        self.coordinate_map = check_array("coordinate_map", self.coordinate_map, 1, int)
        n = self.n_modes
        self.rigid = check_array("rigid", np.zeros(n) if self.rigid is None else self.rigid,
                                 1, bool)
        if not np.all((self.frequencies >= 0.0) & (self.frequencies < np.inf)):
            raise ValueError("frequencies must be non-negative and finite")
        if np.any(np.diff(self.frequencies) < 0.0):
            raise ValueError("frequencies must be sorted ascending")
        if self.mode_shapes.shape[1:] != (n,):  # also rejects a 1-D or 3-D array
            raise ValueError(f"mode shapes must be (n_coords, {n}) for {n} frequencies, "
                             f"got shape {self.mode_shapes.shape}")
        if self.mode_shapes.shape[0] != self.coordinate_map.size:
            raise ValueError("mode-shape row count must match coordinate_map")
        if not np.isfinite(self.mode_shapes).all():
            raise ValueError("mode shapes must be finite")
        if self.rigid.size != n:
            raise ValueError("need one rigid flag per mode")

    @property
    def n_modes(self) -> int:
        return self.frequencies.size

    @property
    def frequencies_hz(self) -> np.ndarray:
        return self.frequencies / TWO_PI

    def select_modes(self, indices) -> "ModalData":
        """New ModalData holding the given modes (order preserved)."""
        idx = check_array("indices", indices, 1, int)
        return ModalData(
            frequencies=self.frequencies[idx],
            mode_shapes=self.mode_shapes[:, idx],
            coordinate_map=self.coordinate_map.copy(),
            rigid=self.rigid[idx],
        )

    def elastic(self) -> "ModalData":
        """Only the non-rigid modes."""
        return self.select_modes(np.flatnonzero(~self.rigid))

    def at_coordinates(self, dofs) -> "ModalData":
        """Restrict mode shapes to the given global DOF indices."""
        dofs = check_array("dofs", dofs, 1, int)
        rows = coordinate_rows(self.coordinate_map, dofs)
        return ModalData(
            frequencies=self.frequencies.copy(),
            mode_shapes=self.mode_shapes[rows, :],
            coordinate_map=dofs.copy(),
            rigid=self.rigid.copy(),
        )


def coordinate_rows(coordinate_map: np.ndarray, dofs: np.ndarray) -> np.ndarray:
    """Row of each of dofs in coordinate_map, which need not be ascending.

    Raises ValueError if a DOF is not in the map.
    """
    order = np.argsort(coordinate_map, kind="stable")
    pos = np.searchsorted(coordinate_map, dofs, sorter=order)
    if (pos >= coordinate_map.size).any() or (coordinate_map[rows := order[pos]] != dofs).any():
        raise ValueError("requested DOFs are not observed coordinates of this modal set")
    return rows


class SolvedModes(NamedTuple):
    """What solve_modes returns: arrays on the reduced DOFs, not yet restricted."""

    frequencies: np.ndarray  # (n_modes,) rad/s, ascending
    mode_shapes: np.ndarray  # (n_dofs, n_modes), rows in dof_map order
    rigid: np.ndarray        # (n_modes,) bool


@dataclass
class CostWeights:
    """Frequency weights gamma (one per mode) and mode-shape weight beta."""

    gamma: np.ndarray
    beta: float

    def __post_init__(self):
        self.gamma = check_array("gamma", self.gamma, 1)
        self.beta = float(check_array("beta", self.beta, 0))
        for name, w in (("gamma", self.gamma), ("beta", self.beta)):
            if not np.all((w >= 0.0) & (w < np.inf)):  # fails on nan too
                raise ValueError(f"weights must be non-negative and finite, got {name}={w}")


def _count_rigid(eigenvalues: np.ndarray) -> int:
    """Number of leading near-zero eigenvalues, split at a gap of RIGID_RATIO.

    The count is the largest i with eigenvalues[i] > 0 and every earlier
    |eigenvalue| below RIGID_RATIO * eigenvalues[i], so small positive noise
    eigenvalues of free-free models are still flagged. The gap is taken
    against each split point, not the largest eigenvalue: a refined model's
    spectrum spans more than 1 / RIGID_RATIO.
    """
    # the largest earlier |eigenvalue| at each split point i is >= 0, so
    # passing the gap test implies eigenvalues[i] > 0; a NaN propagates
    # through np.maximum and fails every split after it
    earlier = np.maximum.accumulate(np.abs(eigenvalues[:-1]))
    splits = np.flatnonzero(earlier < RIGID_RATIO * eigenvalues[1:])
    return int(splits[-1]) + 1 if splits.size else 0


def solve_modes(matrices: SystemMatrices, n_modes: int) -> SolvedModes:
    """Lowest n_modes eigenpairs of K phi = omega^2 M phi.

    With M = L L^T and W = L^-1 (matrices.mass_factor_inv, factored once
    per structure by assemble, or on first use for hand-built matrices),
    the pencil is reduced to the standard symmetric problem
    A = W K W^T and solved densely with numpy.linalg.eigh, so the whole
    solve stays on numpy's BLAS pool. Returned SolvedModes shapes are
    mass-normalized (phi^T M phi = 1). Rigid-body modes (omega ~ 0) stay
    in the spectrum and are flagged.

    Raises
    ------
    EigenSolveError
        If M is not positive definite, the dense solver fails, or any
        returned elastic mode violates RESIDUAL_TOL.
    """
    n = matrices.dof_count
    if not (1 <= n_modes <= n):
        raise ValueError(f"n_modes must be in [1, {n}], got {n_modes}")

    M = matrices.mass
    K = matrices.stiffness
    try:
        W = matrices.mass_factor_inv
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"mass matrix is not positive definite: {exc}") from exc

    # A = L^-1 K L^-T, symmetrized against roundoff
    A = W @ K @ W.T
    A = 0.5 * (A + A.T)
    try:
        lam, Y = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"dense symmetric eigensolver did not converge: {exc}") from exc

    rigid_count = _count_rigid(lam)
    lam_sel = lam[:n_modes]
    # phi = L^-T y keeps y^T y = 1 equivalent to phi^T M phi = 1
    phi = W.T @ Y[:, :n_modes]

    n_rigid = min(rigid_count, n_modes)
    rigid = np.zeros(n_modes, dtype=bool)
    rigid[:n_rigid] = True
    omega2 = np.where(rigid, np.maximum(lam_sel, 0.0), lam_sel)
    if (omega2 < 0.0).any():
        raise EigenSolveError(
            f"negative elastic eigenvalue {omega2.min():.3e}; model is not PSD")

    if n_rigid < n_modes:  # the elastic modes are the trailing ones
        phi_e = phi[:, n_rigid:]
        k_phi = K @ phi_e
        res = k_phi - (M @ phi_e) * lam_sel[n_rigid:]
        # column 2-norms, summed as numpy.linalg.norm(., axis=0) sums them
        rel = np.sqrt((res * res).sum(axis=0)) / np.sqrt((k_phi * k_phi).sum(axis=0))
        if (rel > RESIDUAL_TOL).any():
            i = int(np.argmax(rel))
            raise EigenSolveError(
                f"eigen residual {rel[i]:.3e} exceeds {RESIDUAL_TOL:.1e} "
                f"(worst of {n_modes - n_rigid} elastic modes)")

    return SolvedModes(np.sqrt(omega2), phi, rigid)


def mac(shapes_a: np.ndarray, shapes_b: np.ndarray) -> np.ndarray:
    """Modal assurance criterion matrix between two (n_coords, n_modes) shape sets.

    MAC_ij = |phi_ai . phi_bj|^2 / ((phi_ai . phi_ai)(phi_bj . phi_bj)),
    the correlation coefficient of Allemang & Brown (1982). Entries lie
    in [0, 1] and are invariant to per-column scaling of either input.
    """
    # Norms and cross products come from one summation form on one memory
    # layout, so they round alike: a set against itself gives MAC_ii == 1
    # exactly (a sum against a matmul, or C- against F-order, does not).
    A = np.ascontiguousarray(shapes_a, dtype=float)
    B = np.ascontiguousarray(shapes_b, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != B.shape[0]:
        raise ValueError("mode-shape sets must be (n_coords, n_modes) arrays on shared "
                         f"coordinates, got shapes {A.shape} and {B.shape}")
    na = np.einsum("ki,ki->i", A, A)
    nb = np.einsum("ki,ki->i", B, B)
    if np.count_nonzero(na) < na.size or np.count_nonzero(nb) < nb.size:
        raise ValueError("zero-norm mode shape")
    cross = np.einsum("ki,kj->ij", A, B)
    return cross**2 / (na[:, None] * nb)


def cost(calc: ModalData, measured: ModalData, weights: CostWeights,
         pairing: tuple[np.ndarray, np.ndarray]) -> float:
    """Modal-distance error between paired calculated and measured modes.

    The pairing is what pair_modes returns: one calc column index per
    measured mode, which may reorder modes as mode crossings swap the
    spectrum, and the MAC of each chosen pair. Checks the sets against
    each other, then evaluates modal_distance.
    """
    idx, paired_mac = pairing
    idx = np.asarray(idx, dtype=int)
    if idx.size != measured.n_modes:
        raise ValueError("need one paired calc mode per measured mode")
    if calc.mode_shapes.shape[0] != measured.mode_shapes.shape[0]:
        raise ValueError("mode shapes must share observed coordinates")
    if weights.gamma.size != measured.n_modes:
        raise ValueError("need one gamma weight per mode")
    if (measured.frequencies == 0.0).any():
        raise ValueError("measured frequencies must be non-zero")
    return modal_distance(calc.frequencies, measured.frequencies, weights.gamma,
                          weights.beta, (idx, paired_mac))


def modal_distance(frequencies: np.ndarray, measured_frequencies: np.ndarray,
                   gamma: np.ndarray, beta: float,
                   pairing: tuple[np.ndarray, np.ndarray]) -> float:
    """The cost formula on arrays, without checks (see cost).

    E = sum_i gamma_i ((w_i^m - w_i^calc) / w_i^m)^2
        + beta * sum_i (1 - MAC_i)

    where calc mode idx[i] is paired with measured mode i at MAC_i.
    """
    idx, paired_mac = pairing
    rel = (measured_frequencies - frequencies[idx]) / measured_frequencies
    # MAC lies in [0, 1]; clipping keeps roundoff from making the cost negative
    paired_mac = np.minimum(np.maximum(paired_mac, 0.0), 1.0)
    return float((gamma * rel**2).sum() + beta * (1.0 - paired_mac).sum())


def pair_modes(calc: ModalData, measured: ModalData) -> tuple[np.ndarray, np.ndarray]:
    """Greedy MAC-maximizing assignment of calculated modes to measured ones.

    Returns the selected calc-mode indices, one per measured mode, and
    the MAC of each selected pair (see pair_shapes).
    """
    return pair_shapes(calc.mode_shapes, calc.rigid, measured.mode_shapes)


def pair_shapes(shapes: np.ndarray, rigid: np.ndarray,
                measured_shapes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairing of pair_modes on arrays: calc shapes with rigid flags per column.

    Each measured mode, in order, takes the unused calculated elastic mode
    with the highest MAC (the first on ties). Rigid-body modes never
    participate. Both results come from one MAC matrix.
    """
    n = measured_shapes.shape[1]
    elastic_idx = (~rigid).nonzero()[0]
    if elastic_idx.size < n:
        raise ValueError(
            f"{elastic_idx.size} elastic calculated modes cannot cover "
            f"{n} measured modes")
    m = mac(shapes[:, elastic_idx], measured_shapes)
    chosen, paired = [], []
    for j, column in enumerate(m.T.tolist()):
        # np.argmax over the column with taken modes at -1: the first
        # maximum, or the first NaN
        i, best = 0, -math.inf
        for k, v in enumerate(column):
            if k in chosen:
                v = -1.0
            if v > best or v != v:
                i, best = k, v
                if v != v:
                    break
        chosen.append(i)
        paired.append(column[i])
        if column[i] < 0.5:
            log.warning("measured mode %d paired with MAC %.3f < 0.5", j, column[i])
    return elastic_idx[chosen], np.array(paired)
