"""Planar Euler-Bernoulli beam structures and system matrix assembly.

Each node carries two degrees of freedom (transverse translation and
bending rotation). Elements are 2-node Euler-Bernoulli bending elements
with consistent mass; axial and shear deformation are not modelled.
Branched structures share both nodal DOFs at a junction, so geometry
enters the model only through element lengths.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DOFS_PER_NODE = 2  # transverse translation w, bending rotation theta


@dataclass(frozen=True)
class BeamElement:
    """One 2-node bending element with its section and material data."""

    node_a: int
    node_b: int
    area: float            # m^2
    second_moment: float   # m^4
    density: float         # kg/m^3
    elastic_modulus: float  # N/m^2


@dataclass
class BeamStructure:
    """Node coordinates, element table and boundary conditions.

    Parameters
    ----------
    nodes : (n_nodes, 2) array
        Planar node positions in metres.
    elements : list of BeamElement
        Element connectivity and per-element properties.
    constrained_dofs : tuple of int
        Global DOF indices removed by the boundary conditions
        (empty tuple = free-free). DOF numbering: node i owns
        DOFs 2*i (translation) and 2*i + 1 (rotation).
    """

    nodes: np.ndarray
    elements: list[BeamElement]
    constrained_dofs: tuple[int, ...] = ()

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise ValueError("nodes must be an (n_nodes, 2) coordinate array")
        if not np.isfinite(self.nodes).all():
            raise ValueError("nodes must have finite coordinates")
        if not self.elements:
            raise ValueError("structure has no elements")
        n = self.n_nodes
        with np.errstate(over="ignore"):  # far-apart nodes: length inf, rejected below
            for idx, e in enumerate(self.elements):
                if e.node_a == e.node_b:
                    raise ValueError(f"element {idx} connects node {e.node_a} to itself")
                if not (0 <= e.node_a < n and 0 <= e.node_b < n):
                    raise ValueError(f"element {idx} references a missing node")
                for name in ("area", "second_moment", "density", "elastic_modulus"):
                    if not 0.0 < getattr(e, name) < np.inf:  # fails on nan too
                        raise ValueError(f"element {idx}: {name} must be strictly "
                                         "positive and finite")
                length = self.element_length(idx)
                if not 0.0 < length < np.inf:
                    raise ValueError(f"element {idx} length must be positive and finite, "
                                     f"got {length:g}")
        ends = [k for e in self.elements for k in (e.node_a, e.node_b)]
        unused = np.flatnonzero(np.bincount(ends, minlength=n) == 0)
        if unused.size:  # its DOFs would carry no mass, so M would be singular
            raise ValueError(f"node {unused[0]} belongs to no element")
        for dof in self.constrained_dofs:
            if not (0 <= dof < self.n_dofs):
                raise ValueError(f"constrained DOF {dof} out of range")

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_dofs(self) -> int:
        return DOFS_PER_NODE * self.n_nodes

    def element_length(self, index: int) -> float:
        e = self.elements[index]
        return float(np.linalg.norm(self.nodes[e.node_b] - self.nodes[e.node_a]))

    def moduli(self) -> np.ndarray:
        """Per-element elastic moduli as stored on the elements."""
        return np.array([e.elastic_modulus for e in self.elements])


@dataclass
class SystemMatrices:
    """Assembled global mass and stiffness matrices.

    dof_map holds the global DOF index of each matrix row, so systems
    reduced by boundary constraints keep track of which DOFs remain.
    """

    mass: np.ndarray
    stiffness: np.ndarray
    dof_map: np.ndarray = field(default=None)

    def __post_init__(self):
        n = self.dof_count
        if self.dof_map is None:
            self.dof_map = np.arange(n)
        for name, m in (("mass", self.mass), ("stiffness", self.stiffness)):
            if m.shape != (n, n):
                raise ValueError(f"{name} matrix shape {m.shape} != ({n}, {n})")
            scale = np.abs(m).max()
            if scale > 0 and np.abs(m - m.T).max() > 1e-10 * scale:
                raise ValueError(f"{name} matrix is not symmetric")

    @property
    def dof_count(self) -> int:
        return self.mass.shape[0]

    @cached_property
    def mass_factor_inv(self) -> np.ndarray:
        """W = L^-1 for the Cholesky factor M = L L^T, computed on first use.

        Assembled systems share the factor of their structure's cached
        template, so the mass is factored once per structure rather than
        once per solve. Raises numpy.linalg.LinAlgError if the mass is
        not positive definite.
        """
        return _inverse_cholesky(self.mass)


def _inverse_cholesky(mass: np.ndarray) -> np.ndarray:
    """W = L^-1 with entries below sqrt(tiny) * max|W| in magnitude set to 0.

    On fine meshes L^-1 decays to subnormal numbers far from the diagonal,
    and every product with a subnormal operand runs many times slower. A
    dropped entry changes W K W^T by less than 1e-150 relative, far below
    the backward error of the eigensolver.
    """
    w = np.linalg.inv(np.linalg.cholesky(mass))
    magnitude = np.abs(w)
    w[magnitude < np.sqrt(np.finfo(float).tiny) * magnitude.max()] = 0.0
    return w


def element_stiffness(ei: float, length: float) -> np.ndarray:
    """4x4 Euler-Bernoulli bending stiffness for DOFs (w_a, th_a, w_b, th_b)."""
    L = length
    L2 = L * L
    return (ei / L**3) * np.array([
        [12.0, 6.0 * L, -12.0, 6.0 * L],
        [6.0 * L, 4.0 * L2, -6.0 * L, 2.0 * L2],
        [-12.0, -6.0 * L, 12.0, -6.0 * L],
        [6.0 * L, 2.0 * L2, -6.0 * L, 4.0 * L2],
    ])


def element_mass(rho_a: float, length: float) -> np.ndarray:
    """4x4 consistent mass matrix for DOFs (w_a, th_a, w_b, th_b)."""
    L = length
    L2 = L * L
    return (rho_a * L / 420.0) * np.array([
        [156.0, 22.0 * L, 54.0, -13.0 * L],
        [22.0 * L, 4.0 * L2, 13.0 * L, -3.0 * L2],
        [54.0, 13.0 * L, 156.0, -22.0 * L],
        [-13.0 * L, -3.0 * L2, -22.0 * L, 4.0 * L2],
    ])


def _assembly_blocks(structure: BeamStructure):
    """Moduli-independent assembly data, validated and cached on the structure.

    Returns (template, k_unit, entries). template is a SystemMatrices
    holding the reduced global mass, its inverse Cholesky factor (left
    to solve_modes to report if the mass is not positive definite) and
    the retained DOF indices, all read-only and shared by every
    assembled system; its stiffness is zero. k_unit holds, per element,
    its unit-modulus stiffness at the flat indices `entries` of the
    reduced-stiffness entries that any element fills, so the stiffness
    is K.flat[entries] = moduli @ k_unit (dense (n_elements, n, n)
    blocks would grow with the cube of the mesh). Raises ValueError
    unless every filled entry's mirror is filled from an identical
    k_unit column, which makes K exactly symmetric for every moduli
    vector. Structures are treated as immutable once assembled.
    """
    cached = getattr(structure, "_assembly_cache", None)
    if cached is not None:
        return cached
    n = structure.n_dofs
    ke, me, dofs = [], [], []
    for idx, e in enumerate(structure.elements):
        L = structure.element_length(idx)
        ke.append(element_stiffness(e.second_moment, L))  # unit elastic modulus
        me.append(element_mass(e.density * e.area, L))
        dofs.append((2 * e.node_a, 2 * e.node_a + 1, 2 * e.node_b, 2 * e.node_b + 1))
    ke, me, dofs = np.array(ke), np.array(me), np.array(dofs)
    M = np.zeros((n, n))
    np.add.at(M, (dofs[:, :, None], dofs[:, None, :]), me)  # element by element, in order
    keep = np.setdiff1d(np.arange(n), np.array(structure.constrained_dofs, dtype=int))
    reduced = np.full(n, -1)
    reduced[keep] = np.arange(keep.size)
    r = reduced[dofs]
    filled = (r[:, :, None] >= 0) & (r[:, None, :] >= 0)
    flat = (r[:, :, None] * keep.size + r[:, None, :])[filled]
    entries = np.unique(flat)
    k_unit = np.zeros((len(dofs), entries.size))
    k_unit[np.nonzero(filled)[0], np.searchsorted(entries, flat)] = ke[filled]
    row, col = np.divmod(entries, keep.size)
    transposed = col * keep.size + row
    if not (np.array_equal(np.sort(transposed), entries)
            and np.array_equal(k_unit[:, np.searchsorted(entries, transposed)], k_unit)):
        raise ValueError("stiffness matrix is not symmetric")
    mass = M[np.ix_(keep, keep)]
    template = SystemMatrices(mass=mass, stiffness=np.zeros(mass.shape), dof_map=keep)
    try:
        template.mass_factor_inv.flags.writeable = False
    except np.linalg.LinAlgError:
        pass
    mass.flags.writeable = False
    keep.flags.writeable = False
    cached = (template, k_unit, entries)
    structure._assembly_cache = cached
    return cached


def assemble(structure: BeamStructure, moduli: np.ndarray | None = None) -> SystemMatrices:
    """Assemble global consistent-mass and bending-stiffness matrices.

    Parameters
    ----------
    structure : BeamStructure
    moduli : array or None
        Per-element elastic moduli (N/m^2) overriding the element table.
        None uses the moduli stored on the elements. The mass matrix does
        not depend on the moduli; the stiffness is linear in each entry.

    Returns
    -------
    SystemMatrices
        Matrices reduced by the structure's constrained DOFs. The
        systems of a structure share one read-only mass, mass factor and
        DOF map (see _assembly_blocks); each gets its own stiffness.

    Raises ValueError unless there is one finite, positive modulus per
    element.
    """
    if moduli is None:
        moduli = structure.moduli()
    moduli = np.asarray(moduli, dtype=float)
    if moduli.shape != (structure.n_elements,):
        raise ValueError(
            f"expected {structure.n_elements} moduli, got shape {moduli.shape}")
    # fails on a NaN too: min() then is NaN
    if not (moduli.min() > 0.0 and moduli.max() < np.inf):
        raise ValueError("all moduli must be finite and strictly positive")
    template, k_unit, entries = _assembly_blocks(structure)
    matrices = copy.copy(template)
    matrices.stiffness = np.zeros(template.mass.shape)
    matrices.stiffness.flat[entries] = moduli @ k_unit
    return matrices
