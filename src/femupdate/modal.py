"""Modal solution, mode correlation and the modal-distance cost function.

The generalized eigenproblem K phi = omega^2 M phi is solved undamped.
The mass does not depend on the moduli, so its Cholesky factor is
computed once per structure (see beam.SystemMatrices.mass_factor_inv).
Each solve then runs on numpy's LAPACK alone, the BLAS build and thread
pool that assembly uses too: a second BLAS library in the evaluation
would bring a second thread pool, and the two spin against each other.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .beam import SystemMatrices

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
        Natural frequencies in rad/s, ascending and non-negative.
    mode_shapes : (n_coords, n_modes) array
        One column per mode; rows follow coordinate_map.
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
        self.frequencies = np.atleast_1d(np.asarray(self.frequencies, dtype=float))
        self.mode_shapes = np.asarray(self.mode_shapes, dtype=float)
        if self.mode_shapes.ndim == 1:
            self.mode_shapes = self.mode_shapes[:, None]
        self.coordinate_map = np.atleast_1d(np.asarray(self.coordinate_map, dtype=int))
        n = self.n_modes
        if self.rigid is None:
            self.rigid = np.zeros(n, dtype=bool)
        self.rigid = np.atleast_1d(np.asarray(self.rigid, dtype=bool))
        if np.any(self.frequencies < 0.0):
            raise ValueError("frequencies must be non-negative")
        if np.any(np.diff(self.frequencies) < 0.0):
            raise ValueError("frequencies must be sorted ascending")
        if self.mode_shapes.shape[1] != n:
            raise ValueError("mode-shape column count must equal frequency count")
        if self.mode_shapes.shape[0] != self.coordinate_map.size:
            raise ValueError("mode-shape row count must match coordinate_map")
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
        idx = np.atleast_1d(np.asarray(indices, dtype=int))
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
        dofs = np.atleast_1d(np.asarray(dofs, dtype=int))
        cmap = self.coordinate_map
        # the map need not be ascending: look rows up through its sort order
        order = np.argsort(cmap, kind="stable")
        pos = np.searchsorted(cmap, dofs, sorter=order)
        if np.any(pos >= cmap.size) or np.any(cmap[rows := order[pos]] != dofs):
            raise ValueError("requested DOFs are not observed coordinates of this modal set")
        return ModalData(
            frequencies=self.frequencies.copy(),
            mode_shapes=self.mode_shapes[rows, :],
            coordinate_map=dofs.copy(),
            rigid=self.rigid.copy(),
        )


@dataclass
class CostWeights:
    """Frequency weights gamma (one per mode) and mode-shape weight beta."""

    gamma: np.ndarray
    beta: float

    def __post_init__(self):
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if np.any(self.gamma < 0.0) or self.beta < 0.0:
            raise ValueError("weights must be non-negative")


def _count_rigid(eigenvalues: np.ndarray) -> int:
    """Number of leading near-zero eigenvalues, split at a gap of RIGID_RATIO.

    Scans candidate split points from the most inclusive down, so small
    positive noise eigenvalues of free-free models are still flagged.
    """
    n = eigenvalues.size
    limit = min(n, 7)
    for i in range(limit - 1, -1, -1):
        lam = eigenvalues[i]
        if lam <= 0.0:
            continue
        if i == 0 or np.max(np.abs(eigenvalues[:i])) < RIGID_RATIO * lam:
            return i
    return 0


def solve_modes(matrices: SystemMatrices, n_modes: int) -> ModalData:
    """Lowest n_modes eigenpairs of K phi = omega^2 M phi.

    With M = L L^T and W = L^-1 (matrices.mass_factor_inv, factored once
    per structure by assemble, or on first use for hand-built matrices),
    the pencil is reduced to the standard symmetric problem
    A = W K W^T and solved densely with numpy.linalg.eigh, so the whole
    solve stays on numpy's BLAS pool. Returned shapes are
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

    rigid = np.zeros(n_modes, dtype=bool)
    rigid[:min(rigid_count, n_modes)] = True
    omega2 = np.where(rigid, np.maximum(lam_sel, 0.0), lam_sel)
    if np.any(omega2 < 0.0):
        raise EigenSolveError(
            f"negative elastic eigenvalue {omega2.min():.3e}; model is not PSD")

    elastic = ~rigid
    if np.any(elastic):
        k_phi = K @ phi[:, elastic]
        res = k_phi - (M @ phi[:, elastic]) * lam_sel[elastic]
        rel = np.linalg.norm(res, axis=0) / np.linalg.norm(k_phi, axis=0)
        if np.any(rel > RESIDUAL_TOL):
            i = int(np.argmax(rel))
            raise EigenSolveError(
                f"eigen residual {rel[i]:.3e} exceeds {RESIDUAL_TOL:.1e} "
                f"(worst of {int(elastic.sum())} elastic modes)")

    return ModalData(
        frequencies=np.sqrt(omega2),
        mode_shapes=phi,
        coordinate_map=matrices.dof_map.copy(),
        rigid=rigid,
    )


def mac(shapes_a: np.ndarray, shapes_b: np.ndarray) -> np.ndarray:
    """Modal assurance criterion matrix between two mode-shape sets.

    MAC_ij = |phi_ai . phi_bj|^2 / ((phi_ai . phi_ai)(phi_bj . phi_bj)),
    the correlation coefficient of Allemang & Brown (1982). Entries lie
    in [0, 1] and are invariant to per-column scaling of either input.
    """
    # Norms and cross products come from one summation form on one memory
    # layout, so they round alike: a set against itself gives MAC_ii == 1
    # exactly (a sum against a matmul, or C- against F-order, does not).
    A = np.ascontiguousarray(shapes_a, dtype=float)
    B = np.ascontiguousarray(shapes_b, dtype=float)
    if A.ndim == 1:
        A = A[:, None]
    if B.ndim == 1:
        B = B[:, None]
    if A.shape[0] != B.shape[0]:
        raise ValueError("mode-shape sets must share observed coordinates")
    na = np.einsum("ki,ki->i", A, A)
    nb = np.einsum("ki,ki->i", B, B)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise ValueError("zero-norm mode shape")
    cross = np.einsum("ki,kj->ij", A, B)
    return cross**2 / np.outer(na, nb)


def cost(calc: ModalData, measured: ModalData, weights: CostWeights,
         pairing: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """Modal-distance error between paired calculated and measured modes.

    E = sum_i gamma_i ((w_i^m - w_i^calc) / w_i^m)^2
        + beta * sum_i (1 - MAC_i)

    Without a pairing, calc and measured are compared mode-for-mode and
    must have equal mode counts. A pairing is what pair_modes returns:
    one calc column index per measured mode, which may reorder modes as
    mode crossings swap the spectrum, and the MAC of each chosen pair,
    which the cost then uses instead of building the MAC matrix again.
    """
    if pairing is None:
        if calc.n_modes != measured.n_modes:
            raise ValueError("mode counts must match (pair modes first)")
        idx, paired_mac = np.arange(measured.n_modes), None
    else:
        idx, paired_mac = pairing
        idx = np.asarray(idx, dtype=int)
        if idx.size != measured.n_modes:
            raise ValueError("need one paired calc mode per measured mode")
    if calc.mode_shapes.shape[0] != measured.mode_shapes.shape[0]:
        raise ValueError("mode shapes must share observed coordinates")
    if weights.gamma.size != measured.n_modes:
        raise ValueError("need one gamma weight per mode")
    if np.any(measured.frequencies == 0.0):
        raise ValueError("measured frequencies must be non-zero")
    if paired_mac is None:
        paired_mac = np.diag(mac(calc.mode_shapes, measured.mode_shapes))
    rel = (measured.frequencies - calc.frequencies[idx]) / measured.frequencies
    # MAC lies in [0, 1]; clipping keeps roundoff from making the cost negative
    paired_mac = np.clip(paired_mac, 0.0, 1.0)
    return float(np.sum(weights.gamma * rel**2) + weights.beta * np.sum(1.0 - paired_mac))


def pair_modes(calc: ModalData, measured: ModalData) -> tuple[np.ndarray, np.ndarray]:
    """Greedy MAC-maximizing assignment of calculated modes to measured ones.

    Each measured mode, in order, takes the unused calculated elastic mode
    with the highest MAC. Rigid-body modes never participate. Returns the
    selected calc-mode indices, one per measured mode, and the MAC of
    each selected pair, both taken from one MAC matrix.
    """
    elastic_idx = np.flatnonzero(~calc.rigid)
    if elastic_idx.size < measured.n_modes:
        raise ValueError(
            f"{elastic_idx.size} elastic calculated modes cannot cover "
            f"{measured.n_modes} measured modes")
    m = mac(calc.mode_shapes[:, elastic_idx], measured.mode_shapes)
    used = np.zeros(elastic_idx.size, dtype=bool)
    chosen = np.empty(measured.n_modes, dtype=int)
    for j in range(measured.n_modes):
        col = np.where(used, -1.0, m[:, j])
        i = int(np.argmax(col))
        used[i] = True
        chosen[j] = i
        if m[i, j] < 0.5:
            log.warning("measured mode %d paired with MAC %.3f < 0.5", j, m[i, j])
    return elastic_idx[chosen], m[chosen, np.arange(measured.n_modes)]
