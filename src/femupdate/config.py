"""INI-style run configuration for the command-line front end.

Sections: [structure], [scenario], [cost] (together ScenarioSpec),
[rsm], [ga], [sa]. Each key fills the dataclass field of its name and an
unset key keeps the field's default, so an empty file describes the
default fixture at production settings. Unknown sections and keys are
errors. The loader only parses: the dataclass a value fills checks it,
finiteness included, and the error names the value's section. See the
README for the full schema and units.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace

import numpy as np

from .beam import BeamElement, BeamStructure
from .optimizers import GaConfig, SaConfig
from .scenario import ScenarioSpec
from .updating import RsmConfig


class ConfigError(Exception):
    """Config file problem, annotated with section/field context."""


@dataclass
class RunSettings:
    """Everything a command needs: fixture spec plus method configs."""

    spec: ScenarioSpec
    structure: BeamStructure | None
    rsm: RsmConfig
    ga: GaConfig
    sa: SaConfig

    def with_global_seed(self, seed: int | None) -> "RunSettings":
        """Derive all component seeds from one global seed."""
        if seed is None:
            return self
        return RunSettings(
            spec=replace(self.spec, seed=seed),
            structure=self.structure,
            rsm=replace(self.rsm, sampler_seed=seed + 1,
                        ga=replace(self.rsm.ga, seed=seed + 2)),
            ga=replace(self.ga, seed=seed + 2),
            sa=replace(self.sa, seed=seed + 3),
        )

    def all_seeds(self) -> dict:
        return {"scenario": self.spec.seed, "sampler": self.rsm.sampler_seed,
                "ga": self.ga.seed, "sa": self.sa.seed}


def _field_names(cls, *skip) -> tuple:
    return tuple(f.name for f in fields(cls) if f.name not in skip)


# [structure] keys: the H fixture's fill ScenarioSpec fields; the explicit
# ones fill no field, _load_structure reads them
H_FIXTURE_KEYS = ("crossbar_length", "left_flange_length", "right_flange_length",
                  "left_flange_elements", "right_flange_elements",
                  "crossbar_elements", "area", "second_moment", "density",
                  "nominal_modulus")
EXPLICIT_KEYS = ("nodes", "elements", "constrained_dofs")

# section -> (dataclass it fills, its keys)
SECTIONS = {
    "structure": (ScenarioSpec, H_FIXTURE_KEYS + EXPLICIT_KEYS),
    "scenario": (ScenarioSpec, ("perturbations", "n_modes", "noise_std", "seed",
                                "lower_bound", "upper_bound", "observed_dofs")),
    "cost": (ScenarioSpec, ("beta",)),
    "rsm": (RsmConfig, _field_names(RsmConfig, "ga")),  # the inner GA is [ga]
    "ga": (GaConfig, _field_names(GaConfig)),
    "sa": (SaConfig, _field_names(SaConfig)),
}

# keys named differently from the field they fill
FIELD_OF_KEY = {"perturbations": "ground_truth_perturbations"}


def _get(parser, section, key, cast):
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} ({exc})") from exc


def _parse_perturbations(raw: str) -> tuple:
    out = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        idx, _, value = chunk.partition(":")
        out.append((int(idx), float(value)))
    return tuple(out)


def _parse_int_list(raw: str) -> tuple:
    return tuple(int(v) for v in raw.replace(";", ",").split(",") if v.strip())


def _parse_steps(raw: str) -> int | None:
    return None if raw.strip().lower() == "auto" else int(raw)


def _parse_nodes(raw: str) -> np.ndarray:
    rows = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        x, y = (float(v) for v in chunk.split(","))
        rows.append((x, y))
    return np.array(rows)


def _parse_elements(raw: str) -> list[BeamElement]:
    out = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        a, b, area, inertia, rho, e_mod = chunk.split(",")
        out.append(BeamElement(int(a), int(b), *map(float, (area, inertia, rho, e_mod))))
    return out


# keys whose text is not one scalar of the field's default type, int or float
PARSERS = {
    "perturbations": _parse_perturbations,
    "observed_dofs": _parse_int_list,
    "steps_per_temperature": _parse_steps,
}


def _set_fields(parser, section) -> dict:
    """Field values for the keys that section sets."""
    cls, keys = SECTIONS[section]
    defaults = {f.name: f.default for f in fields(cls)}
    out = {}
    for key in keys:
        name = FIELD_OF_KEY.get(key, key)
        if name in defaults and parser.has_option(section, key):
            cast = PARSERS.get(key) or type(defaults[name])
            out[name] = _get(parser, section, key, cast)
    return out


def _build(cls, section, values):
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"[{section}] invalid: {exc}") from exc


def _load_structure(parser) -> BeamStructure | None:
    """The explicit structure of [structure], or None for the H fixture.

    [structure] describes an explicit structure exactly when it sets one
    of EXPLICIT_KEYS, and then it may set no H-fixture key.
    """
    if not any(parser.has_option("structure", key) for key in EXPLICIT_KEYS):
        return None
    for key in H_FIXTURE_KEYS:
        if parser.has_option("structure", key):
            raise ConfigError(f"[structure] {key} describes the H fixture and cannot "
                              "be combined with nodes, elements or constrained_dofs")
    if not parser.has_option("structure", "nodes") or \
            not parser.has_option("structure", "elements"):
        raise ConfigError("[structure] explicit structures need nodes and elements")
    constrained = (_get(parser, "structure", "constrained_dofs", _parse_int_list)
                   if parser.has_option("structure", "constrained_dofs") else ())
    try:
        return BeamStructure(
            nodes=_get(parser, "structure", "nodes", _parse_nodes),
            elements=_get(parser, "structure", "elements", _parse_elements),
            constrained_dofs=constrained,
        )
    except ValueError as exc:
        raise ConfigError(f"[structure] invalid explicit structure: {exc}") from exc


def load_settings(path) -> RunSettings:
    """Parse a config file into run settings.

    Raises ConfigError with section/field diagnostics on any problem,
    including a section or key the schema does not have. The fit to the
    structure is checked where the problem is built (cli._load).
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error in {path}: {exc}") from exc

    # configparser copies [DEFAULT] keys into every other section
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in SECTIONS[section][1]:
                raise ConfigError(f"[{section}] unknown key '{key}'")

    # one section at a time, so an invalid value is reported under its own section
    spec = ScenarioSpec()
    for section in ("structure", "scenario", "cost"):
        spec = _build(ScenarioSpec, section, {**vars(spec), **_set_fields(parser, section)})
    structure = _load_structure(parser)
    ga = _build(GaConfig, "ga", _set_fields(parser, "ga"))
    rsm = _build(RsmConfig, "rsm", {**_set_fields(parser, "rsm"), "ga": ga})
    sa = _build(SaConfig, "sa", _set_fields(parser, "sa"))
    return RunSettings(spec=spec, structure=structure, rsm=rsm, ga=ga, sa=sa)
