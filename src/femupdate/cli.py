"""Command-line front end.

    femupdate run --config run.ini --method all --out results/ [--seed N]
    femupdate sample --config run.ini --out design.csv
    femupdate modes --config run.ini [--out modes.txt]

Exit codes: 0 success, 1 runtime failure (partial reports kept),
2 unreadable or invalid configuration.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from .config import ConfigError, RunSettings, load_settings
from .optimizers import EvalBudget
from .report import (
    render_modes_summary, write_comparison, write_design, write_history,
    write_report,
)
from .scenario import build_scenario, h_beam_structure
from .surrogate import check_net_fits
from .updating import (
    full_objective, ga_update, rsm_update, sa_update, sample_design, solve_observed,
)

log = logging.getLogger(__name__)

METHODS = ("rsm", "ga", "sa")


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="femupdate",
        description="Finite element model updating of beam structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one or all updating methods")
    run_p.add_argument("--config", required=True, help="path to the INI config")
    run_p.add_argument("--method", default="all", choices=(*METHODS, "all"))
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=_seed, default=None,
                       help="global seed overriding all configured seeds")

    sample_p = sub.add_parser("sample", help="write the design points and costs")
    sample_p.add_argument("--config", required=True)
    sample_p.add_argument("--out", required=True, help="output CSV file")

    modes_p = sub.add_parser("modes", help="modal summary of the fixture models")
    modes_p.add_argument("--config", required=True)
    modes_p.add_argument("--out", default=None, help="optional output file")
    return parser


def _load(config_path: str, seed: int | None = None):
    """(settings, problem, ground truth) of a config file.

    Builds the structure once. An RSM net too large for it and a scenario
    that does not fit it are configuration errors raised before any solve,
    and so is one it cannot supply, such as more elastic modes than it
    has; an eigensolve failure is not.
    """
    settings = load_settings(config_path).with_global_seed(seed)
    structure = settings.structure or h_beam_structure(settings.spec)
    try:
        check_net_fits(structure.n_elements, settings.rsm.m_hidden, settings.rsm.n_samples)
    except ValueError as exc:
        raise ConfigError(f"[rsm] invalid: {exc}") from exc
    try:
        problem, truth = build_scenario(settings.spec, structure)
    except ValueError as exc:
        raise ConfigError(f"[scenario] does not fit the structure: {exc}") from exc
    return settings, problem, truth


def _echo_with_seeds(settings: RunSettings, report):
    # replayability: every report carries the complete resolved config,
    # an explicit structure in the config file's own row syntax
    report.config_echo = {
        "scenario": asdict(settings.spec),
        "rsm": asdict(settings.rsm),
        "ga": asdict(settings.ga),
        "sa": asdict(settings.sa),
    }
    if settings.structure is not None:
        report.config_echo["structure"] = {
            "nodes": settings.structure.nodes.tolist(),
            "elements": [astuple(e) for e in settings.structure.elements],
            "constrained_dofs": settings.structure.constrained_dofs,
        }
    report.seeds.update(settings.all_seeds())


def cmd_run(args) -> int:
    settings, problem, _ = _load(args.config, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    selected = METHODS if args.method == "all" else (args.method,)

    reports = []
    failures = []
    for method in selected:
        try:
            if method == "rsm":
                report = rsm_update(problem, settings.rsm)
            elif method == "ga":
                report = ga_update(problem, settings.ga)
            else:
                report = sa_update(problem, settings.sa)
        except Exception as exc:  # keep going; partial output + exit 1
            log.error("method %s failed: %s", method, exc)
            failures.append((method, exc))
            continue
        _echo_with_seeds(settings, report)
        write_report(report, out / f"report_{method}.txt")
        write_history(report.history, out / f"history_{method}.csv")
        reports.append(report)

    if reports:
        write_comparison(reports, out / "comparison_modes.csv",
                         out / "comparison_summary.csv")
    if failures:
        for method, exc in failures:
            print(f"{method} failed: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_sample(args) -> int:
    settings, problem, _ = _load(args.config)
    cfg = settings.rsm
    X = sample_design(problem.bounds, cfg.n_samples, cfg.sampler_seed)
    budget = EvalBudget()
    costs = np.array([full_objective(problem, x, budget) for x in X])
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    write_design(X, costs, out)
    return 0


def cmd_modes(args) -> int:
    _, problem, truth = _load(args.config)
    structure = problem.structure
    observed = problem.measured.coordinate_map

    def summarize(moduli):
        modes = solve_observed(structure, moduli, problem.n_modes, observed)
        shown = int(modes.rigid.sum()) + problem.n_modes  # rigid + compared elastic
        return modes.select_modes(np.arange(min(shown, modes.n_modes)))

    text = render_modes_summary(summarize(structure.moduli()), summarize(truth))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sample":
            return cmd_sample(args)
        return cmd_modes(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
