"""CLI commands: run/sample/modes, file shapes, exit codes, determinism."""

import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from femupdate.cli import _load, main
from femupdate.config import ConfigError, load_settings
from femupdate.optimizers import GaConfig, SaConfig
from femupdate.scenario import ScenarioSpec, build_scenario
from femupdate.updating import RsmConfig

README = Path(__file__).resolve().parents[1] / "README.md"

SMALL_CONFIG = """\
[scenario]
seed = 11

[rsm]
n_samples = 40
max_iterations = 2
initial_cycles = 20
incremental_cycles = 5
m_hidden = 2
sampler_seed = 1

[ga]
population_size = 30
generations = 30
seed = 2

[sa]
initial_temperature = 0.5
cooling_factor = 0.5
steps_per_temperature = 6
min_temperature = 0.01
n_runs = 2
seed = 3
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG)
    return path


def read_nontiming(path):
    lines = path.read_text().splitlines()
    return [l for l in lines if not l.startswith("wall_time_s")]


# ---------------------------------------------------------------- config


def test_load_settings_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    s = load_settings(path)
    assert s.spec.n_modes == 5
    assert s.rsm.n_samples == 150
    assert s.ga.population_size == 50
    assert s.sa.n_runs == 3
    assert s.structure is None
    # the dataclasses hold the only copy of the defaults
    assert s.spec == ScenarioSpec()
    assert s.rsm == RsmConfig()
    assert s.ga == GaConfig() == s.rsm.ga
    assert s.sa == SaConfig()
    assert s.all_seeds() == {"scenario": 2024, "sampler": 1, "ga": 2, "sa": 3}


def test_readme_config_block_is_the_defaults(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    documented, empty = tmp_path / "readme.ini", tmp_path / "empty.ini"
    documented.write_text(block)
    empty.write_text("")
    assert load_settings(documented) == load_settings(empty)


ALL_KEYS_CONFIG = """\
[structure]
crossbar_length = 0.7
left_flange_length = 0.5
right_flange_length = 0.45
left_flange_elements = 3
right_flange_elements = 4
crossbar_elements = 2
area = 2.0e-4
second_moment = 3.0e-9
density = 2800
nominal_modulus = 7.1e10

[scenario]
perturbations = 1:6.6e10, 2:6.8e10
n_modes = 4
noise_std = 0.01
seed = 9
lower_bound = 6.5e10
upper_bound = 7.5e10
observed_dofs = 0, 2, 4, 6

[cost]
beta = 0.5

[rsm]
n_samples = 50
max_iterations = 3
initial_cycles = 30
incremental_cycles = 2
m_hidden = 4
sampler_seed = 11

[ga]
population_size = 10
generations = 5
selection_q = 0.1
mutation_rate = 0.01
crossover_rate = 0.5
mutation_shape_b = 3.0
seed = 12

[sa]
initial_temperature = 2.0
cooling_factor = 0.8
steps_per_temperature = 7
n_runs = 2
step_scale = 0.2
min_temperature = 1.0e-4
seed = 13
"""


def test_load_settings_every_key_lands_on_its_field(tmp_path):
    path = tmp_path / "all.ini"
    path.write_text(ALL_KEYS_CONFIG)
    s = load_settings(path)
    ga = GaConfig(population_size=10, generations=5, selection_q=0.1,
                  mutation_rate=0.01, crossover_rate=0.5, mutation_shape_b=3.0,
                  seed=12)
    assert s.spec == ScenarioSpec(
        crossbar_length=0.7, left_flange_length=0.5, right_flange_length=0.45,
        left_flange_elements=3, right_flange_elements=4, crossbar_elements=2,
        area=2.0e-4, second_moment=3.0e-9, density=2800.0,
        nominal_modulus=7.1e10, lower_bound=6.5e10, upper_bound=7.5e10,
        ground_truth_perturbations=((1, 6.6e10), (2, 6.8e10)),
        observed_dofs=(0, 2, 4, 6), n_modes=4, noise_std=0.01, beta=0.5, seed=9)
    assert s.rsm == RsmConfig(n_samples=50, max_iterations=3, initial_cycles=30,
                              incremental_cycles=2, m_hidden=4, ga=ga,
                              sampler_seed=11)
    assert s.ga == ga
    assert s.sa == SaConfig(initial_temperature=2.0, cooling_factor=0.8,
                            steps_per_temperature=7, n_runs=2, step_scale=0.2,
                            min_temperature=1.0e-4, seed=13)
    # every field was moved off its default, so none can be silently dropped
    for got, default in ((s.spec, ScenarioSpec()), (s.rsm, RsmConfig()),
                         (s.ga, GaConfig()), (s.sa, SaConfig())):
        for f in fields(default):
            assert getattr(got, f.name) != getattr(default, f.name), f.name

    path.write_text(ALL_KEYS_CONFIG.replace("steps_per_temperature = 7",
                                            "steps_per_temperature = AUTO"))
    assert load_settings(path).sa.steps_per_temperature is None


@pytest.mark.parametrize("section, key", [
    ("structure", "crossbar_lenght"),
    ("scenario", "perturbation"),
    ("cost", "gama_mode"),
    ("rsm", "ga"),
    ("ga", "populaton_size"),
    ("sa", "n_run"),
])
def test_unknown_key_rejected(tmp_path, capsys, section, key):
    path = tmp_path / "typo.ini"
    path.write_text(f"[{section}]\n{key} = 1\n")
    message = f"[{section}] unknown key '{key}'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_settings(path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--method", "ga",
                 "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("cost", "gamma_mode", "absolute"),  # gamma is always in Hz^2
    ("rsm", "sampler", "lhs"),           # the design is always a Latin hypercube
    ("cost", "target_cost", "0.001"),    # the rsm always runs every re-anchor
])
def test_removed_option_rejected(tmp_path, capsys, section, key, value):
    path = tmp_path / "removed.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    assert main(["run", "--config", str(path), "--method", "ga",
                 "--out", str(tmp_path / "out")]) == 2
    assert f"[{section}] unknown key '{key}'" in capsys.readouterr().err


def test_default_section_rejected(tmp_path):
    # configparser would copy these keys into every other section
    path = tmp_path / "default.ini"
    path.write_text("[DEFAULT]\nseed = 5\n\n[scenario]\nn_modes = 4\n")
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        load_settings(path)


def test_load_settings_explicit_structure(tmp_path):
    path = tmp_path / "explicit.ini"
    path.write_text("""\
[structure]
nodes = 0,0; 0.1,0; 0.2,0; 0.3,0
elements = 0,1,3e-4,2.5e-9,2700,7e10; 1,2,3e-4,2.5e-9,2700,7e10; 2,3,3e-4,2.5e-9,2700,7e10
constrained_dofs = 0,1

[scenario]
perturbations = 1:6.5e10
n_modes = 2
""")
    s = load_settings(path)
    assert s.structure is not None
    assert s.structure.n_elements == 3
    assert s.structure.constrained_dofs == (0, 1)


def explicit_beam(path, n_elements, modulus="7e10", extra=""):
    """Config of a straight beam of 0.1-m elements, followed by extra."""
    nodes = "; ".join(f"{0.1 * i:g},0" for i in range(n_elements + 1))
    elements = "; ".join(f"{i},{i + 1},3e-4,2.5e-9,2700,{modulus}"
                         for i in range(n_elements))
    path.write_text(f"[structure]\nnodes = {nodes}\nelements = {elements}\n{extra}")
    return path


def test_perturbation_index_checked_against_explicit_structure(tmp_path):
    # index 13 does not fit the 12-element H fixture but fits this beam
    path = explicit_beam(tmp_path / "beam15.ini", 15,
                         extra="\n[scenario]\nperturbations = 13:6.5e10\n")
    s = load_settings(path)
    problem, truth = build_scenario(s.spec, structure=s.structure)
    assert problem.n_params == 15
    assert truth[13] == 6.5e10


def test_nodes_and_elements_describe_explicit_structure(tmp_path):
    path = explicit_beam(tmp_path / "beam3.ini", 3,
                         extra="\n[scenario]\nperturbations = 1:6.5e10\nn_modes = 2\n")
    assert load_settings(path).structure.n_elements == 3
    out = tmp_path / "modes.txt"
    assert main(["modes", "--config", str(path), "--out", str(out)]) == 0
    initial = out.read_text().split("[initial]")[1].split("[ground_truth]")[0]
    rows = initial.split("shape rows:")[1].splitlines()[1:]
    assert [r.split(",")[0] for r in rows if r] == ["0", "2", "4", "6"]


def test_default_perturbations_outside_short_cantilever_exit_2(tmp_path, capsys):
    # the default perturbations 2, 3, 4 name elements a 2-element beam lacks
    path = explicit_beam(tmp_path / "cantilever.ini", 2,
                         extra="constrained_dofs = 0,1\n\n[scenario]\nn_modes = 3\n")
    with pytest.raises(ConfigError, match="perturbation index 2 out of range"):
        _load(path)
    assert main(["modes", "--config", str(path)]) == 2
    assert "perturbation index 2 out of range" in capsys.readouterr().err


def test_initial_moduli_outside_bounds_exit_2(tmp_path, capsys):
    steel = explicit_beam(tmp_path / "steel.ini", 3, modulus="2e11",
                          extra="\n[scenario]\nperturbations = 1:7e10\nn_modes = 2\n")
    message = "initial modulus 2e+11 of element 0 lies outside the bounds [6e+10, 8e+10]"
    for method in ("sa", "ga"):
        out = tmp_path / method
        assert main(["run", "--config", str(steel), "--method", method,
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    with pytest.raises(ValueError, match="outside the bounds"):
        build_scenario(ScenarioSpec(nominal_modulus=9e10))
    # bounds around the beam's own modulus fit it
    explicit_beam(steel, 3, modulus="2e11", extra="""
[scenario]
perturbations = 1:1.9e11
n_modes = 2
lower_bound = 1.8e11
upper_bound = 2.2e11
""")
    s = load_settings(steel)
    problem, truth = build_scenario(s.spec, structure=s.structure)
    np.testing.assert_array_equal(truth, [2e11, 1.9e11, 2e11])


@pytest.mark.parametrize("structure, observed, message", [
    ("", "0,2,4,6,8,100", "observed DOF 100 out of range for 26 DOFs"),
    ("cantilever", "0,2,4", "observed DOF 0 is constrained"),
    ("", "0,0,2,4,6,8", "observed DOF 0 repeated"),
    ("", "", "observed_dofs is empty"),
])
def test_observed_dof_outside_structure_exit_2(tmp_path, capsys, structure,
                                               observed, message):
    scenario = f"[scenario]\nobserved_dofs = {observed}\n"
    path = tmp_path / "observed.ini"
    if structure:
        explicit_beam(path, 2, extra="constrained_dofs = 0,1\n\n"
                      f"{scenario}perturbations = 1:6.5e10\nn_modes = 1\n")
    else:
        path.write_text(scenario)
    with pytest.raises(ConfigError, match=re.escape(message)):
        _load(path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--method", "ga",
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, setting, message", [
    ("scenario", "perturbations = 2:6.3e10, 2:7.5e10", "perturbation index 2 repeated"),
    ("scenario", "seed = -5", "[scenario] invalid: seed must be >= 0"),
    ("rsm", "sampler_seed = -5", "[rsm] invalid: sampler_seed must be >= 0"),
    ("ga", "seed = -5", "[ga] invalid: seed must be >= 0"),
    ("sa", "seed = -5", "[sa] invalid: seed must be >= 0"),
    ("structure", "crossbar_length = -1", "[structure] invalid: run lengths must be positive"),
    ("scenario", "n_modes = 0", "[scenario] invalid: n_modes must be >= 1"),
    ("cost", "beta = -1", "[cost] invalid: beta must be >= 0"),
    ("rsm", "m_hidden = 0", "[rsm] invalid: m_hidden must be >= 1"),
    ("rsm", "m_hidden = -1", "[rsm] invalid: m_hidden must be >= 1"),
    # on the default H's 12 elements, checked before any FE solve
    ("rsm", "m_hidden = 20", "[rsm] invalid: net has 281 weights but only 150 training"),
    ("rsm", "n_samples = 20", "[rsm] invalid: net has 113 weights but only 20 training"),
    ("sa", "initial_temperature = 1e-7",
     "[sa] invalid: initial_temperature must exceed min_temperature"),
    ("ga", "mutation_shape_b = -1", "[ga] invalid: mutation_shape_b must be >= 0 and finite"),
])
def test_invalid_run_setting_exit_2(tmp_path, capsys, section, setting, message):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{setting}\n")
    with pytest.raises(ConfigError, match=re.escape(message)):
        _load(path)
    assert main(["modes", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_load_builds_the_h_fixture_once_and_checks_it_once(tmp_path, monkeypatch):
    import femupdate.cli
    import femupdate.scenario
    import femupdate.updating

    calls = []

    def counted(name, module):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module in (femupdate.cli, femupdate.scenario):
        counted("h_beam_structure", module)
    counted("check_scenario", femupdate.scenario)
    counted("solve_modes", femupdate.updating)
    path = tmp_path / "run.ini"
    path.write_text("[scenario]\nnoise_std = 0.01\n")
    _load(path)
    assert sorted(set(calls)) == ["check_scenario", "h_beam_structure", "solve_modes"]
    assert calls.count("h_beam_structure") == calls.count("check_scenario") == 1
    # an oversized net is refused before the scenario is checked or solved
    calls.clear()
    path.write_text("[rsm]\nm_hidden = 20\n")
    with pytest.raises(ConfigError, match=re.escape("[rsm] invalid: net has 281 weights")):
        _load(path)
    assert calls == ["h_beam_structure"]


def test_noise_driving_a_frequency_below_zero_exit_2(tmp_path, capsys):
    path = tmp_path / "noisy.ini"
    path.write_text("[scenario]\nnoise_std = 0.6\nseed = 3\n")
    assert main(["modes", "--config", str(path)]) == 2
    assert "noise_std = 0.6 drives measured mode 2 to a frequency <= 0" \
        in capsys.readouterr().err


def test_run_with_swapped_measured_modes(tmp_path):
    # seed 4 at this noise swaps two measured modes against the initial model's
    path = tmp_path / "noisy.ini"
    path.write_text("[scenario]\nnoise_std = 0.05\n")
    assert main(["run", "--config", str(path), "--method", "ga",
                 "--out", str(tmp_path / "out"), "--seed", "4"]) == 0
    # one observed coordinate pairs the modes out of order too
    path.write_text("[scenario]\nobserved_dofs = 0\n")
    assert main(["modes", "--config", str(path), "--out", str(tmp_path / "m.txt")]) == 0


TWO_ELEMENTS = "elements = 0,1,3e-4,2.5e-9,2700,{e}; 1,2,3e-4,2.5e-9,2700,7e10\n"


# each once misrouted: exit 1, a run on NaN costs, or another section's name
@pytest.mark.parametrize("text, message", [
    ("[structure]\narea = 0\n", "[structure] invalid: area, second_moment, density "
                                  "and nominal_modulus must be positive"),
    ("[structure]\narea = nan\n", "[structure] invalid: area, second_moment, density "
                                    "and nominal_modulus must be positive and finite (area)"),
    ("[structure]\nnominal_modulus = nan\n",
     "[structure] invalid: area, second_moment, density and nominal_modulus must be "
     "positive and finite (nominal_modulus)"),
    ("[structure]\nnodes = 0,0; 0.1,0; inf,0\n" + TWO_ELEMENTS.format(e="7e10"),
     "[structure] invalid explicit structure: nodes must have finite coordinates"),
    ("[structure]\nnodes = 0,0; 0.1,0; 0.2,0; 5,5\n" + TWO_ELEMENTS.format(e="7e10"),
     "[structure] invalid explicit structure: node 3 belongs to no element"),
    ("[structure]\nnodes = 0,0; 0.1,0; 0.2,0\n" + TWO_ELEMENTS.format(e="inf"),
     "[structure] invalid explicit structure: element 0: elastic_modulus must be "
     "strictly positive and finite"),
    ("[scenario]\nnoise_std = nan\n", "[scenario] invalid: noise_std must be >= 0 and finite"),
    ("[scenario]\nupper_bound = inf\n",
     "[scenario] invalid: need 0 < lower_bound < upper_bound, both finite"),
    ("[cost]\nbeta = nan\n", "[cost] invalid: beta must be >= 0 and finite"),
])
def test_config_error_names_the_section_of_the_bad_key(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(message)):
        _load(path)
    assert main(["modes", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_negative_seed_flag_exit_2(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(small_config), "--method", "rsm",
              "--out", str(out), "--seed", "-4"])
    assert exc.value.code == 2
    assert "seed must be >= 0, got -4" in capsys.readouterr().err
    assert not out.exists()


def test_h_fixture_key_with_explicit_structure_exit_2(tmp_path, capsys):
    path = explicit_beam(tmp_path / "mixed.ini", 3, extra="area = 2e-4\n")
    message = "[structure] area describes the H fixture"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_settings(path)
    assert main(["modes", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_kind_key_rejected(tmp_path, capsys):
    path = explicit_beam(tmp_path / "kind.ini", 3, extra="kind = explicit\n")
    with pytest.raises(ConfigError, match=re.escape("[structure] unknown key 'kind'")):
        load_settings(path)
    assert main(["modes", "--config", str(path)]) == 2
    assert "unknown key 'kind'" in capsys.readouterr().err


def test_load_settings_bad_field(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[ga]\npopulation_size = fifty\n")
    with pytest.raises(ConfigError, match=r"\[ga\] population_size"):
        load_settings(path)


def test_load_settings_unknown_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[turbo]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_settings(path)


def test_global_seed_derivation(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(SMALL_CONFIG)
    s = load_settings(path).with_global_seed(100)
    assert s.spec.seed == 100
    assert s.rsm.sampler_seed == 101
    assert s.ga.seed == 102 == s.rsm.ga.seed
    assert s.sa.seed == 103


# ---------------------------------------------------------------- run


def test_run_all_writes_reports_and_comparison(small_config, tmp_path):
    out = tmp_path / "results"
    assert main(["run", "--config", str(small_config), "--method", "all",
                 "--out", str(out)]) == 0
    for m in ("rsm", "ga", "sa"):
        assert (out / f"report_{m}.txt").exists()
        assert (out / f"history_{m}.csv").exists()
    assert (out / "comparison_modes.csv").exists()
    summary = (out / "comparison_summary.csv").read_text().splitlines()
    assert summary[0] == "metric,initial,rsm,ga,sa"
    fe_row = next(l for l in summary if l.startswith("fe_evaluations"))
    fe = fe_row.split(",")
    rsm_evals, ga_evals = int(fe[2]), int(fe[3])
    assert rsm_evals == 40 + 2
    assert ga_evals == 30 * 30
    # the design-plus-refinements count stays under 5% of the GA's budget
    assert rsm_evals < 0.05 * ga_evals
    # solves sit next to the charge; the GA repeats candidates it carries forward
    solves = summary[summary.index(fe_row) + 1].split(",")
    assert solves[:2] == ["fe_solves", ""]
    assert int(solves[2]) == rsm_evals
    assert 0 < int(solves[3]) < ga_evals
    assert int(solves[4]) == int(fe[4])
    for m, n in zip(("rsm", "ga", "sa"), solves[2:]):
        report = (out / f"report_{m}.txt").read_text().splitlines()
        at = next(i for i, l in enumerate(report) if l.startswith("fe_evaluations: "))
        assert report[at + 1] == f"fe_solves: {n}"


def test_run_single_method(small_config, tmp_path):
    out = tmp_path / "only_ga"
    assert main(["run", "--config", str(small_config), "--method", "ga",
                 "--out", str(out)]) == 0
    assert (out / "report_ga.txt").exists()
    assert not (out / "report_rsm.txt").exists()
    header = (out / "comparison_summary.csv").read_text().splitlines()[0]
    assert header == "metric,initial,ga"


def test_run_missing_config_exits_2(tmp_path):
    out = tmp_path / "nothing"
    assert main(["run", "--config", str(tmp_path / "absent.ini"),
                 "--method", "ga", "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


def test_run_deterministic_reports(small_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["run", "--config", str(small_config), "--method", "all",
                     "--out", str(out), "--seed", "7"]) == 0
    for name in ("report_rsm.txt", "report_ga.txt", "report_sa.txt",
                 "comparison_modes.csv", "history_rsm.csv", "history_ga.csv",
                 "history_sa.csv"):
        assert read_nontiming(out1 / name) == read_nontiming(out2 / name), name
    s1 = [l for l in (out1 / "comparison_summary.csv").read_text().splitlines()
          if not l.startswith("wall_time_s")]
    s2 = [l for l in (out2 / "comparison_summary.csv").read_text().splitlines()
          if not l.startswith("wall_time_s")]
    assert s1 == s2


def test_report_embeds_config_and_seeds(small_config, tmp_path):
    out = tmp_path / "echo"
    assert main(["run", "--config", str(small_config), "--method", "ga",
                 "--out", str(out), "--seed", "42"]) == 0
    text = (out / "report_ga.txt").read_text()
    assert "[config]" in text and "[seeds]" in text
    assert "scenario.seed: 42" in text
    assert "ga: 44" in text
    assert "ga.population_size: 30" in text
    assert "rsm.n_samples: 40" in text
    assert "sa.seed: 45" in text
    assert "structure." not in text  # the H fixture is echoed by its spec alone


def test_report_echoes_an_explicit_structure_that_loads_back(tmp_path):
    # a clamped beam on coordinates that only round-trip in full precision
    nodes = "; ".join(f"{i / 30!r},{i * i / 7e3!r}" for i in range(5))
    elements = "; ".join(f"{i},{i + 1},3e-4,2.5e-9,2700,{7e10 + i / 3!r}" for i in range(4))
    path = tmp_path / "clamped.ini"
    path.write_text(f"[structure]\nnodes = {nodes}\nelements = {elements}\n"
                    "constrained_dofs = 0,1\n\n[scenario]\nperturbations = 1:6.5e10\n"
                    "n_modes = 2\n\n[ga]\npopulation_size = 10\ngenerations = 3\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--method", "ga", "--out", str(out)]) == 0
    echoed = dict(line.removeprefix("structure.").split(": ")
                  for line in (out / "report_ga.txt").read_text().splitlines()
                  if line.startswith("structure."))
    assert sorted(echoed) == ["constrained_dofs", "elements", "nodes"]
    replay = tmp_path / "replay.ini"
    replay.write_text("[structure]\n" + "".join(f"{k} = {v}\n" for k, v in echoed.items()))
    got, want = load_settings(replay).structure, load_settings(path).structure
    assert got.nodes.tobytes() == want.nodes.tobytes()
    assert got.elements == want.elements
    assert got.constrained_dofs == want.constrained_dofs == (0, 1)


def test_comparison_errors_recompute(small_config, tmp_path):
    out = tmp_path / "recompute"
    assert main(["run", "--config", str(small_config), "--method", "ga",
                 "--out", str(out)]) == 0
    rows = (out / "comparison_modes.csv").read_text().splitlines()
    header = rows[0].split(",")
    i_meas = header.index("measured_hz")
    i_hz = header.index("ga_hz")
    i_err = header.index("ga_error_pct")
    for row in rows[1:]:
        parts = row.split(",")
        measured, hz, err = (float(parts[i]) for i in (i_meas, i_hz, i_err))
        assert abs(100.0 * (hz - measured) / measured - err) < 1e-9


def test_rsm_report_gives_design_best_cost(small_config, tmp_path):
    out, design = tmp_path / "best", tmp_path / "design.csv"
    assert main(["run", "--config", str(small_config), "--method", "all",
                 "--out", str(out)]) == 0
    assert main(["sample", "--config", str(small_config), "--out", str(design)]) == 0
    report = (out / "report_rsm.txt").read_text()
    section = report.split("[result]\n")[1].split("\n\n")[0]
    result = dict(line.split(": ") for line in section.splitlines())
    # the sample command writes the design the RSM run starts from
    design_costs = np.loadtxt(design, delimiter=",", skiprows=1)[:, -1]
    assert float(result["design_best_cost"]) == design_costs.min()
    assert float(result["design_best_cost"]) >= float(result["final_cost"])
    for method in ("ga", "sa"):
        assert "design_best_cost" not in (out / f"report_{method}.txt").read_text()


# ---------------------------------------------------------------- sample


def test_sample_writes_design_with_costs(small_config, tmp_path):
    out = tmp_path / "design.csv"
    assert main(["sample", "--config", str(small_config), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == ",".join([f"modulus_{j:02d}" for j in range(12)] + ["cost"])
    assert len(rows) == 1 + 40
    assert all(len(r.split(",")) == 13 for r in rows[1:])


def test_sample_deterministic(small_config, tmp_path):
    out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    for out in (out1, out2):
        assert main(["sample", "--config", str(small_config), "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------- modes


def test_modes_summary(small_config, tmp_path, capsys):
    assert main(["modes", "--config", str(small_config)]) == 0
    text = capsys.readouterr().out
    assert "units: Hz" in text
    assert "[initial]" in text and "[ground_truth]" in text
    # 5 elastic + rigid-body rows are listed, flagged
    assert text.count("yes") >= 2


def test_modes_short_constrained_structure(tmp_path, capsys):
    # 4 DOFs remain after clamping; more modes than that were requested before
    path = tmp_path / "cantilever.ini"
    path.write_text("""\
[structure]
nodes = 0,0; 0.1,0; 0.2,0
elements = 0,1,3e-4,2.5e-9,2700,7e10; 1,2,3e-4,2.5e-9,2700,7e10
constrained_dofs = 0,1

[scenario]
perturbations = 1:6.5e10
n_modes = 3
""")
    assert main(["modes", "--config", str(path)]) == 0
    text = capsys.readouterr().out
    assert "[initial]" in text and "[ground_truth]" in text


def test_more_modes_than_the_structure_has_exit_2(tmp_path, capsys):
    # 4 DOFs remain after clamping, so 5 elastic modes cannot be measured
    path = explicit_beam(tmp_path / "cantilever.ini", 2,
                         extra="constrained_dofs = 0,1\n\n[scenario]\n"
                               "perturbations = 1:6.5e10\nn_modes = 5\n")
    message = ("[scenario] does not fit the structure: "
               "model yields fewer elastic modes than requested")
    for command, out in (("run", tmp_path / "out"), ("sample", tmp_path / "design.csv"),
                         ("modes", tmp_path / "modes.txt")):
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_mode_the_observed_dofs_cannot_see_exit_2(tmp_path, capsys):
    # two branches clamped at node 0 do not couple: the first mode bends the
    # long branch alone, and DOF 4 lies on the short one
    path = tmp_path / "blind.ini"
    path.write_text("""\
[structure]
nodes = 0,0; 0.3,0; 0,0.1
elements = 0,1,3e-4,2.5e-9,2700,7e10; 0,2,3e-4,2.5e-9,2700,7e10
constrained_dofs = 0,1
[scenario]
observed_dofs = 4
n_modes = 1
perturbations = 0:6.3e10
""")
    message = ("[scenario] does not fit the structure: "
               "observed_dofs [4] see no motion of measured mode 1")
    assert main(["modes", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    # seen on the other branch, the measured mode moves, but the initial
    # model has a mode there that DOF 2 cannot see
    path.write_text(path.read_text().replace("observed_dofs = 4", "observed_dofs = 2"))
    with pytest.raises(ConfigError, match=re.escape(
            "observed_dofs [2] see no motion of initial-model mode")):
        _load(path)


def test_modes_to_file_differs_between_models(small_config, tmp_path):
    out = tmp_path / "modes.txt"
    assert main(["modes", "--config", str(small_config), "--out", str(out)]) == 0
    text = out.read_text()
    init_block = text.split("[initial]")[1].split("[ground_truth]")[0]
    truth_block = text.split("[ground_truth]")[1]
    freq_init = [l.split(",")[1] for l in init_block.splitlines()
                 if l and l[0].isdigit()]
    freq_truth = [l.split(",")[1] for l in truth_block.splitlines()
                  if l and l[0].isdigit()]
    assert freq_init != freq_truth
