"""Report serialization: structured text plus comma-delimited rows.

Everything written here is deterministic for a fixed config and seed;
the only varying content is the wall-time fields, which always sit on
lines starting with "wall_time_s" so reruns can be diffed around them.
Delimited files use comma separators, '.' decimals, a header row and LF
line endings.
"""

from __future__ import annotations

import numpy as np

from .updating import UpdateReport


def fmt(value) -> str:
    """Shortest round-trip decimal form of a scalar."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def fmt_list(values) -> str:
    return ",".join(fmt(v) for v in np.asarray(values).ravel())


def _flat_config(prefix: str, mapping: dict, lines: list):
    for key in sorted(mapping):
        value = mapping[key]
        if isinstance(value, dict):
            _flat_config(f"{prefix}{key}.", value, lines)
        elif isinstance(value, (tuple, list)) and value \
                and isinstance(value[0], (tuple, list)):
            pairs = ";".join(",".join(fmt(v) for v in row) for row in value)
            lines.append(f"{prefix}{key}: {pairs}")
        elif isinstance(value, (tuple, list, np.ndarray)):
            lines.append(f"{prefix}{key}: {fmt_list(value)}")
        else:
            lines.append(f"{prefix}{key}: {fmt(value)}")


def render_report(report: UpdateReport) -> str:
    lines = [
        "femupdate update report",
        f"method: {report.method}",
        f"truncated: {fmt(report.truncated)}",
        "",
        "[result]",
        f"initial_cost: {fmt(report.initial_cost)}",
        f"final_cost: {fmt(report.final_cost)}",
    ]
    if report.design_best_cost is not None:
        lines.append(f"design_best_cost: {fmt(report.design_best_cost)}")
    lines += [
        f"fe_evaluations: {report.fe_evaluations}",
        f"fe_solves: {report.fe_solves}",
        f"mean_abs_initial_error_pct: {fmt(report.mean_abs_initial_error_pct)}",
        f"mean_abs_updated_error_pct: {fmt(report.mean_abs_updated_error_pct)}",
        f"wall_time_s: {fmt(report.wall_time_s)}",
        "",
        "[parameters]",
        "index,initial,updated",
    ]
    for i, (a, b) in enumerate(zip(report.initial_parameters,
                                   report.updated_parameters)):
        lines.append(f"{i},{fmt(a)},{fmt(b)}")
    lines += [
        "",
        "[modes]",
        "mode,measured_hz,initial_hz,updated_hz,initial_error_pct,updated_error_pct",
    ]
    for i in range(report.measured_hz.size):
        lines.append(",".join([
            str(i + 1), fmt(report.measured_hz[i]), fmt(report.initial_hz[i]),
            fmt(report.updated_hz[i]), fmt(report.initial_errors_pct[i]),
            fmt(report.updated_errors_pct[i]),
        ]))
    lines += [
        "",
        "[mac]",
        f"mean_diagonal_initial: {fmt(report.mac_mean_initial)}",
        f"mean_diagonal_updated: {fmt(report.mac_mean_updated)}",
        "",
        "[seeds]",
    ]
    for key in sorted(report.seeds):
        lines.append(f"{key}: {fmt(report.seeds[key])}")
    lines += ["", "[config]"]
    _flat_config("", report.config_echo, lines)
    if report.surrogate is not None:
        net = report.surrogate
        lines += [
            "",
            "[surrogate]",
            f"d_in: {net.d_in}",
            f"m_hidden: {net.m_hidden}",
            f"out_center: {fmt(net.out_center)}",
            f"out_scale: {fmt(net.out_scale)}",
            f"in_center: {fmt_list(net.in_center)}",
            f"in_half: {fmt_list(net.in_half)}",
            f"w1: {fmt_list(net.w1)}",
            f"w2: {fmt_list(net.w2)}",
        ]
    return "\n".join(lines) + "\n"


def write_report(report: UpdateReport, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_report(report))


def write_history(history, path):
    """One row per optimizer step: cost progress, evaluations, temperature.

    RSM rows add the surrogate's prediction at the re-anchored point and
    its full-model cost; fields a method does not record are left blank.
    """
    def opt(value):
        return "" if value is None else fmt(value)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("step,best_cost,mean_cost,evaluations,temperature,run,"
                 "predicted_cost,full_cost\n")
        for h in history:
            fh.write(",".join([
                str(h.step), fmt(h.best_cost), fmt(h.mean_cost),
                str(h.evaluations), opt(h.temperature), opt(h.run),
                opt(h.predicted_cost), opt(h.full_cost),
            ]) + "\n")


def write_design(inputs: np.ndarray, costs: np.ndarray, path):
    """Design points, (n, d) inputs, with their (n,) full-model costs (sample output)."""
    inputs = np.asarray(inputs)
    if inputs.ndim != 2 or np.shape(costs) != inputs.shape[:1]:
        raise ValueError("need (n, d) inputs and (n,) costs, got shapes "
                         f"{inputs.shape} and {np.shape(costs)}")
    names = [f"modulus_{j:02d}" for j in range(inputs.shape[1])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names + ["cost"]) + "\n")
        for row, c in zip(inputs, costs):
            fh.write(",".join(fmt(v) for v in row) + f",{fmt(c)}\n")


def write_comparison(reports: list[UpdateReport], modes_path, summary_path):
    """Side-by-side frequency table and summary metrics for all methods run."""
    base = reports[0]
    with open(modes_path, "w", encoding="utf-8", newline="") as fh:
        header = ["mode", "measured_hz", "initial_hz", "initial_error_pct"]
        for r in reports:
            header += [f"{r.method}_hz", f"{r.method}_error_pct"]
        fh.write(",".join(header) + "\n")
        for i in range(base.measured_hz.size):
            row = [str(i + 1), fmt(base.measured_hz[i]), fmt(base.initial_hz[i]),
                   fmt(base.initial_errors_pct[i])]
            for r in reports:
                row += [fmt(r.updated_hz[i]), fmt(r.updated_errors_pct[i])]
            fh.write(",".join(row) + "\n")

    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("metric,initial," + ",".join(r.method for r in reports) + "\n")
        rows = [
            ("mean_abs_error_pct", fmt(base.mean_abs_initial_error_pct),
             [fmt(r.mean_abs_updated_error_pct) for r in reports]),
            ("mac_mean_diagonal", fmt(base.mac_mean_initial),
             [fmt(r.mac_mean_updated) for r in reports]),
            ("final_cost", fmt(base.initial_cost),
             [fmt(r.final_cost) for r in reports]),
            ("fe_evaluations", "",
             [str(r.fe_evaluations) for r in reports]),
            ("fe_solves", "",
             [str(r.fe_solves) for r in reports]),
            ("wall_time_s", "",
             [fmt(r.wall_time_s) for r in reports]),
        ]
        for name, first, values in rows:
            fh.write(",".join([name, first] + values) + "\n")


def render_modes_summary(initial, truth) -> str:
    """Text summary of initial vs ground-truth modal data (units: Hz)."""
    lines = ["femupdate modal summary", "units: Hz", ""]
    for tag, modal in (("initial", initial), ("ground_truth", truth)):
        lines.append(f"[{tag}]")
        lines.append("mode,frequency_hz,rigid_body")
        for i in range(modal.n_modes):
            lines.append(f"{i + 1},{fmt(modal.frequencies_hz[i])},"
                         f"{'yes' if modal.rigid[i] else 'no'}")
        lines.append("shape rows: observed_dof," +
                     ",".join(f"mode{i + 1}" for i in range(modal.n_modes)))
        for dof, shape_row in zip(modal.coordinate_map, modal.mode_shapes):
            lines.append(f"{dof}," + ",".join(fmt(v) for v in shape_row))
        lines.append("")
    return "\n".join(lines) + "\n"
