"""Reproducible updating fixtures: an H-shaped beam with synthetic data.

The default fixture is an asymmetrical H of three aluminum beam runs
discretized into 12 elements. "Measured" modal data comes from a
ground-truth model whose chosen elements have reduced stiffness, so the
updating problem has a known answer and, with noise off, the exact
closed-loop identity: the ground-truth moduli reproduce the measured
data with zero cost.

Fixture conventions (the geometry is a convention, not a claim):
- element numbering is 0-based and follows an assembly walk: left
  flange from its base up to the junction (0-1 by default), crossbar
  left-to-right (2-4), remainder of the left flange (5-6), right flange
  base-to-tip (7-11);
- the default damage zone, elements 2-4, is therefore the crossbar: one
  contiguous region whose stiffness couples the two flanges and shifts
  every low mode, emulating saw cuts through a single area;
- junction nodes share both nodal DOFs between runs, so the model is an
  abstract branched bending network whose geometry enters through
  element lengths (see beam module);
- gamma frequency weights are the initial model's squared frequency
  errors in Hz^2, so the cost's frequency term is not fourth-order
  small next to the beta-weighted MAC term.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .beam import BeamElement, BeamStructure
from .modal import CostWeights, ModalData, pair_modes
from .optimizers import Bounds, check_count
from .updating import UpdatingProblem, solve_observed

log = logging.getLogger(__name__)


@dataclass
class ScenarioSpec:
    """Geometry, damage pattern and measurement emulation for one fixture."""

    crossbar_length: float = 0.6          # m
    left_flange_length: float = 0.48      # m
    right_flange_length: float = 0.5      # m
    left_flange_elements: int = 4
    right_flange_elements: int = 5
    crossbar_elements: int = 3
    area: float = 3.0e-4                  # m^2 (rectangular section)
    second_moment: float = 2.5e-9         # m^4
    density: float = 2700.0               # kg/m^3 (aluminum)
    nominal_modulus: float = 7.0e10       # N/m^2
    lower_bound: float = 6.0e10           # N/m^2
    upper_bound: float = 8.0e10           # N/m^2
    ground_truth_perturbations: tuple = ((2, 6.3e10), (3, 6.3e10), (4, 6.3e10))
    observed_dofs: tuple | None = None    # None -> all transverse DOFs
    n_modes: int = 5
    noise_std: float = 0.0                # relative, on frequencies and shapes
    beta: float = 0.75
    seed: int = 2024

    def __post_init__(self):
        # each float condition fails on nan and +-inf as well
        for name in ("crossbar_length", "left_flange_length", "right_flange_length"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"run lengths must be positive and finite ({name})")
        for name in ("left_flange_elements", "right_flange_elements", "crossbar_elements",
                     "n_modes"):
            check_count(name, getattr(self, name), 1)
        for name in ("area", "second_moment", "density", "nominal_modulus"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError("area, second_moment, density and nominal_modulus "
                                 f"must be positive and finite ({name})")
        if not 0.0 < self.lower_bound < self.upper_bound < np.inf:
            raise ValueError("need 0 < lower_bound < upper_bound, both finite")
        for _, value in self.ground_truth_perturbations:
            if not self.lower_bound <= value <= self.upper_bound:
                raise ValueError(f"perturbed modulus {value} outside the bounds")
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be >= 0 and finite")
        if not 0.0 <= self.beta < np.inf:
            raise ValueError("beta must be >= 0 and finite")
        check_count("seed", self.seed, 0)


def h_beam_structure(spec: ScenarioSpec) -> BeamStructure:
    """Free-free H-shaped structure: two flanges joined by a crossbar.

    The crossbar meets each flange at the flange node closest to 40% of
    its height, so the H is asymmetric whenever the flange lengths
    differ. With n_l, n_c and n_r elements on the left flange, crossbar
    and right flange, the node ids are:
    - 0..n_l: the left flange, base to tip;
    - n_l+1 .. n_l+n_c-1: the crossbar's interior, left to right;
    - n_l+n_c .. n_l+n_c+n_r: the right flange, base to tip.
    Elements are numbered along an assembly walk: left flange up to the
    junction, crossbar, rest of the left flange, right flange. With the
    default discretization the crossbar is elements 2-4.
    """
    n_l, n_c, n_r = spec.left_flange_elements, spec.crossbar_elements, spec.right_flange_elements
    joint_left = round(0.4 * n_l)
    right = n_l + n_c  # first right-flange node
    joint_y = spec.left_flange_length * joint_left / n_l
    nodes = ([(0.0, spec.left_flange_length * i / n_l) for i in range(n_l + 1)]
             + [(spec.crossbar_length * i / n_c, joint_y) for i in range(1, n_c)]
             + [(spec.crossbar_length, spec.right_flange_length * i / n_r)
                for i in range(n_r + 1)])
    crossbar = [joint_left, *range(n_l + 1, right), right + round(0.4 * n_r)]
    elements = [*[(i, i + 1) for i in range(joint_left)],
                *zip(crossbar, crossbar[1:]),
                *[(i, i + 1) for i in range(joint_left, n_l)],
                *[(i, i + 1) for i in range(right, right + n_r)]]
    return BeamStructure(
        nodes=np.array(nodes, dtype=float),
        elements=[BeamElement(a, b, spec.area, spec.second_moment, spec.density,
                              spec.nominal_modulus) for a, b in elements])


def check_scenario(spec: ScenarioSpec, structure: BeamStructure) -> None:
    """Raise ValueError unless the spec's inputs fit the structure it updates.

    Every perturbation must name a distinct element, every initial
    (stored) element modulus must lie within [lower_bound, upper_bound]
    (ScenarioSpec checks the perturbed moduli), and observed_dofs, when
    given, must list distinct unconstrained DOFs of the structure, at
    least one. Cheap: nothing is assembled or solved.
    """
    n_el = structure.n_elements
    perturbed = set()
    for idx, _ in spec.ground_truth_perturbations:
        if not 0 <= idx < n_el:
            raise ValueError(f"perturbation index {idx} out of range for "
                             f"{n_el} elements")
        if idx in perturbed:
            raise ValueError(f"perturbation index {idx} repeated")
        perturbed.add(idx)
    moduli = structure.moduli()
    outside = (moduli < spec.lower_bound) | (moduli > spec.upper_bound)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"initial modulus {moduli[i]:g} of element {i} lies outside "
                         f"the bounds [{spec.lower_bound:g}, {spec.upper_bound:g}]")
    if spec.observed_dofs is not None and not spec.observed_dofs:
        raise ValueError("observed_dofs is empty")
    constrained = set(structure.constrained_dofs)
    observed = set()
    for dof in spec.observed_dofs or ():
        if not 0 <= dof < structure.n_dofs:
            raise ValueError(f"observed DOF {dof} out of range for "
                             f"{structure.n_dofs} DOFs")
        if dof in constrained:
            raise ValueError(f"observed DOF {dof} is constrained")
        if dof in observed:
            raise ValueError(f"observed DOF {dof} repeated")
        observed.add(dof)


def build_scenario(spec: ScenarioSpec,
                   structure: BeamStructure | None = None) -> tuple[UpdatingProblem, np.ndarray]:
    """Assemble the updating problem and return it with the true moduli.

    The structure defaults to the H fixture of the spec. Its stored
    moduli are the initial model, and the true moduli are those with the
    spec's perturbations applied. The measured ModalData is the
    ground-truth model's elastic modes restricted to the observed DOFs,
    optionally polluted with independent Gaussian relative noise; noise
    that drives a frequency to zero or below raises ValueError. Gamma
    weights come from the initial model's frequency errors against the
    MAC-paired measured modes, which may come in another order. Inputs
    that do not fit the structure raise ValueError (check_scenario)
    before any solve. An elastic measured or initial-model mode with no
    motion at the observed DOFs, which MAC cannot pair, raises ValueError.
    """
    if structure is None:
        structure = h_beam_structure(spec)
    check_scenario(spec, structure)
    truth = structure.moduli()
    for idx, value in spec.ground_truth_perturbations:
        truth[idx] = value

    if spec.observed_dofs is None:
        translations = np.arange(0, structure.n_dofs, 2)
        observed = np.setdiff1d(  # transverse DOFs not removed by constraints
            translations, np.asarray(structure.constrained_dofs, dtype=int))
    else:
        observed = np.asarray(spec.observed_dofs, dtype=int)
    if observed.size < spec.n_modes:
        # fewer coordinates than modes: the measured shapes cannot all be
        # independent, so MAC pairing may not tell some modes apart
        log.warning("%d observed DOFs for %d compared modes; MAC pairing may "
                    "confuse modes", observed.size, spec.n_modes)

    elastic = solve_observed(structure, truth, spec.n_modes, observed).elastic()
    if elastic.n_modes < spec.n_modes:
        raise ValueError("model yields fewer elastic modes than requested")
    measured = elastic.select_modes(np.arange(spec.n_modes))

    if spec.noise_std > 0.0:
        rng = np.random.default_rng(spec.seed)
        freqs = measured.frequencies * (1.0 + spec.noise_std * rng.standard_normal(spec.n_modes))
        if (freqs <= 0.0).any():
            i = int(np.argmax(freqs <= 0.0))
            raise ValueError(f"noise_std = {spec.noise_std:g} drives measured mode {i + 1} "
                             f"to a frequency <= 0 ({freqs[i]:.3g} rad/s)")
        shapes = measured.mode_shapes * (
            1.0 + spec.noise_std * rng.standard_normal(measured.mode_shapes.shape))
        order = np.argsort(freqs)
        measured = ModalData(frequencies=freqs[order], mode_shapes=shapes[:, order],
                             coordinate_map=measured.coordinate_map)

    initial_modes = solve_observed(structure, None, spec.n_modes, observed)
    for model, modes in (("measured", measured), ("initial-model", initial_modes)):
        shapes = modes.mode_shapes[:, ~modes.rigid]
        blind = ~(shapes * shapes).any(axis=0)  # the zero norm mac rejects
        if blind.any():
            raise ValueError(f"observed_dofs {observed.tolist()} see no motion of "
                             f"{model} mode {int(np.argmax(blind)) + 1}")
    # each measured mode against its MAC-paired initial mode, which need not be the i-th
    pairing, _ = pair_modes(initial_modes, measured)
    gamma = (measured.frequencies_hz - initial_modes.frequencies_hz[pairing]) ** 2

    n_el = structure.n_elements
    problem = UpdatingProblem(
        structure=structure,
        bounds=Bounds(lower=np.full(n_el, spec.lower_bound),
                      upper=np.full(n_el, spec.upper_bound)),
        measured=measured,
        weights=CostWeights(gamma=gamma, beta=spec.beta),
    )
    return problem, truth
