"""CLI harness: config round-trips, CSV artifacts, exit codes, determinism."""
import ast
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import pcs_shaper
from pcs_shaper.cli import (
    EXIT_CONFIG,
    EXIT_DEGRADED,
    EXIT_INFEASIBLE,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    ExperimentConfig,
    default_paper_config,
    main,
    resolve_point,
    run,
)
from pcs_shaper.exceptions import ConfigError, NonConvergenceError


def mini_config(**overrides) -> dict:
    cfg = default_paper_config().to_dict()
    cfg["modulation_order"] = 4
    cfg["power_dbm"] = [24.0, 30.0]
    cfg["solver"] = {**cfg["solver"], "n_starts": 4}
    cfg["montecarlo"] = {"n_symbols": 20_000, "seed": 7}
    cfg.update(overrides)
    return cfg


def write_config(tmp_path: Path, cfg: dict, name: str = "cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_paper_config_round_trips():
    cfg = default_paper_config()
    text = json.dumps(cfg.to_dict(), sort_keys=True)
    back = ExperimentConfig.from_dict(json.loads(text))
    assert json.dumps(back.to_dict(), sort_keys=True) == text


def test_paper_config_carries_standard_constants():
    cfg = default_paper_config()
    assert cfg.constraints["pre_fec_threshold"] == 3.8e-3
    assert cfg.constraints["flicker_alpha"] == 0.01
    assert cfg.solver["rel_tol"] == 1e-2
    assert cfg.led["semi_angle_half_power_deg"] == 60.0
    assert cfg.noise["bandwidth"] == 20e6
    assert cfg.receiver["fov_deg"] == 70.0


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"scenario": "sweep_power", "bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"scenario": "fly_me"})


def test_sweep_runs_and_is_deterministic(tmp_path):
    cfg = mini_config(output="sweep.csv")
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path / "a")) == EXIT_OK
    assert run(str(path), out_dir=str(tmp_path / "b")) == EXIT_OK
    a = (tmp_path / "a" / "sweep.csv").read_bytes()
    b = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert a == b
    text = a.decode()
    header, columns = text.splitlines()[0], text.splitlines()[1]
    assert header.startswith("# config: ")
    assert json.loads(header[len("# config: "):]) == cfg
    assert columns == "power_dbm,scheme,secrecy_bits,ber_analytic,ber_montecarlo,feasible"
    rows = text.splitlines()[2:]
    assert len(rows) == 4
    assert all(row.split(",")[5] == "true" for row in rows if ",pcs," in row)


def test_sweep_rows_draw_their_own_monte_carlo_streams(tmp_path):
    cfg = mini_config(output="sweep.csv", power_dbm=[20.0, 20.0])
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path / "a")) == EXIT_OK
    assert run(str(path), out_dir=str(tmp_path / "b")) == EXIT_OK
    text = (tmp_path / "a" / "sweep.csv").read_text()
    assert (tmp_path / "b" / "sweep.csv").read_text() == text
    first, second = [row.split(",") for row in text.splitlines()[2:] if ",uniform," in row]
    assert first[:4] == second[:4]
    assert first[4] != second[4]                    # ber_montecarlo


@pytest.mark.parametrize("key, value", [("seed", -1), ("n_symbols", 0)])
def test_montecarlo_value_out_of_range_exits_before_solving(tmp_path, monkeypatch,
                                                            key, value):
    def unreachable(problem, settings):
        raise AssertionError("a malformed config reached the solver")
    monkeypatch.setattr("pcs_shaper.cli.solve", unreachable)
    cfg = mini_config(output="sweep.csv")
    cfg["montecarlo"] = {**cfg["montecarlo"], key: value}
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path)) == EXIT_CONFIG
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("by_flag", [False, True])
def test_solver_seed_out_of_range_exits_before_solving(tmp_path, monkeypatch, capsys,
                                                       seed, by_flag):
    def unreachable(problem, settings):
        raise AssertionError("a malformed config reached the solver")
    monkeypatch.setattr("pcs_shaper.cli.solve", unreachable)
    cfg = mini_config(scenario="design_known", power_dbm=[28.0], output="dist.csv")
    if not by_flag:
        cfg["solver"] = {**cfg["solver"], "seed": seed}
    path = write_config(tmp_path, cfg)
    argv = ["run", str(path), "--out", str(tmp_path)]
    assert main(argv + ["--seed", str(seed)] if by_flag else argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "dist.csv").exists()


def test_design_scenario_writes_distribution(tmp_path):
    cfg = mini_config(scenario="design_known", power_dbm=[28.0],
                      output="dist.csv")
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path)) == EXIT_OK
    lines = (tmp_path / "dist.csv").read_text().splitlines()
    assert lines[1] == "power_dbm,symbol_index,amplitude,probability"
    data = [line.split(",") for line in lines[2:]]
    assert len(data) == 4
    probs = [float(row[3]) for row in data]
    assert abs(sum(probs) - 1.0) < 1e-5


def test_design_unknown_symmetric_dispatch(tmp_path):
    cfg = mini_config(scenario="design_unknown", power_dbm=[27.0],
                      output="dist.csv")
    cfg["constraints"] = {**cfg["constraints"], "mode": "symmetric"}
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path)) == EXIT_OK
    lines = (tmp_path / "dist.csv").read_text().splitlines()
    probs = [float(row.split(",")[3]) for row in lines[2:]]
    assert probs == pytest.approx(probs[::-1], abs=1e-9)


def test_qos_design_scenario(tmp_path):
    cfg = mini_config(scenario="design_qos", power_dbm=[27.0], output="qos.csv")
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path)) == EXIT_OK


def test_convergence_trace_scenario(tmp_path):
    cfg = mini_config(scenario="convergence_trace", power_dbm=[25.0],
                      output="conv.csv")
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path)) == EXIT_OK
    lines = (tmp_path / "conv.csv").read_text().splitlines()
    assert lines[1] == "power_dbm,start_index,iterations,converged,objective"
    assert len(lines) > 2


def test_validate_scenario_passes(tmp_path):
    cfg = mini_config(scenario="validate_ber")
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path)) == EXIT_OK


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(str(bad)) == EXIT_CONFIG
    cfg = mini_config(scenario="warp_drive")
    path = write_config(tmp_path, cfg, "bad2.json")
    assert run(str(path)) == EXIT_CONFIG
    assert run(str(tmp_path / "missing.json")) == EXIT_CONFIG


def test_misspelt_solver_key_is_a_config_error(tmp_path):
    cfg = mini_config()
    cfg["solver"] = {**cfg["solver"], "max_iter": 5}
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path)) == EXIT_CONFIG


@pytest.mark.parametrize("section, key", [
    ("led", "hieght"), ("receiver", "fov"), ("noise", "bandwith"), ("bob", "offset"),
    ("eve", "quality"), ("constraints", "pre_fec_treshold"), ("montecarlo", "n_symbol"),
])
def test_misspelt_section_key_is_a_config_error(tmp_path, section, key):
    cfg = mini_config()
    cfg[section] = {**cfg[section], key: 10}
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path)) == EXIT_CONFIG


@pytest.mark.parametrize("scenario, section, key, value", [
    ("design_known", "led", "height", "abc"),
    ("design_known", "eve", "quality_ratio", "abc"),
    ("design_known", "solver", "seed", "x"),
    ("design_known", "noise", "bandwidth", None),
    ("design_known", "solver", "n_starts", 2.5),
    ("sweep_power", "montecarlo", "n_symbols", "x"),
])
def test_section_value_of_the_wrong_type_is_a_config_error(tmp_path, scenario, section,
                                                           key, value):
    cfg = mini_config(scenario=scenario, power_dbm=[28.0])
    cfg[section] = {**cfg[section], key: value}
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path)) == EXIT_CONFIG


def test_nan_constraint_is_a_config_error(tmp_path):
    # json writes and reads the non-standard literal NaN
    cfg = mini_config(scenario="design_known", power_dbm=[28.0])
    cfg["constraints"] = {**cfg["constraints"], "flicker_alpha": float("nan")}
    path = write_config(tmp_path, cfg)
    assert "NaN" in path.read_text()
    assert run(str(path), out_dir=str(tmp_path)) == EXIT_CONFIG


def test_eve_takes_a_position_or_a_quality_ratio_not_both(tmp_path):
    cfg = mini_config()
    cfg["eve"] = {"quality_ratio": 10.0, "radial_offset": 1.0}
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path)) == EXIT_CONFIG


def test_omitted_section_keys_take_the_paper_values():
    full = default_paper_config()
    sparse = ExperimentConfig.from_dict({
        **full.to_dict(), "led": {"height": 3.0}, "receiver": {}, "noise": {},
        "bob": {}, "constraints": {"mode": "flicker"}, "montecarlo": {}})
    want, got = resolve_point(full, 26.0).problem, resolve_point(sparse, 26.0).problem
    assert got.bob_link == want.bob_link and got.eve_link == want.eve_link
    assert got.constraints == want.constraints and got.dc_bias == want.dc_bias
    assert sparse.montecarlo == full.montecarlo


def test_omitted_solver_keys_take_the_paper_values():
    full = default_paper_config()
    sparse = ExperimentConfig.from_dict({"power_dbm": [25.0], "solver": {"n_starts": 2}})
    assert sparse.solver == {**full.solver, "n_starts": 2}
    assert sparse.solver["seed"] == 2024


@pytest.mark.parametrize("key, value", [
    ("power_dbm", ["abc"]), ("power_dbm", [None]), ("power_dbm", 25.0),
    ("power_dbm", {"start": 20, "stop": 21, "step": 0}),
    ("modulation_order", 8.5), ("modulation_order", "8"),
    ("peak_amplitude", "abc"), ("output", 5),
])
def test_malformed_top_level_value_is_a_config_error(tmp_path, key, value):
    cfg = mini_config(**{"scenario": "design_known", "power_dbm": [28.0], key: value})
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path)) == EXIT_CONFIG


def test_replace_checks_the_config_again():
    with pytest.raises(ConfigError):
        replace(default_paper_config(), power_dbm=[])


def test_csv_header_is_the_resolved_config(tmp_path):
    sparse = {"scenario": "design_qos", "modulation_order": 4, "power_dbm": [27.0],
              "eve": {"quality_ratio": 10.0}, "solver": {"n_starts": 2},
              "output": "qos.csv"}
    path = write_config(tmp_path, sparse)
    assert run(str(path), out_dir=str(tmp_path)) == EXIT_OK
    header = (tmp_path / "qos.csv").read_text().splitlines()[0]
    resolved = json.loads(header[len("# config: "):])
    full = default_paper_config().to_dict()
    assert resolved == {**full, **sparse, "variant": "qos_max_eve_ber",
                        "solver": {**full["solver"], "n_starts": 2}}


def test_infeasible_exit_code(tmp_path):
    # 12 dBm with the default threshold admits no reliable design
    cfg = mini_config(power_dbm=[12.0], modulation_order=8)
    cfg["solver"] = {**cfg["solver"], "n_starts": 2}
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path)) == EXIT_INFEASIBLE


def test_degraded_regime_exit_code(tmp_path):
    # an eavesdropper twice as good as the legitimate receiver
    cfg = mini_config(power_dbm=[28.0])
    cfg["eve"] = {"quality_ratio": 0.5}
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path)) == EXIT_DEGRADED


def test_nonconvergence_exit_code(tmp_path, monkeypatch):
    def stalled(problem, settings):
        raise NonConvergenceError("inner solve stalled")
    monkeypatch.setattr("pcs_shaper.cli.solve", stalled)
    cfg = mini_config(scenario="design_known", power_dbm=[28.0])
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path)) == EXIT_NONCONVERGENCE


def test_main_paper_config_and_validate(capsys):
    assert main(["paper-config"]) == EXIT_OK
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["constraints"]["pre_fec_threshold"] == 3.8e-3
    assert main(["validate"]) == EXIT_OK


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "pcs_shaper.cli", "paper-config"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["scenario"] == "sweep_power"


def test_import_loads_no_scipy():
    # scipy serves only the tests; a module-level import of it would cost
    # most of the package's import time
    code = ("import sys, pcs_shaper, pcs_shaper.cli; "
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_builds_no_quadrature_rule():
    # the 96-node rule behind channel.hyp2f1 costs an eigen-solve of about
    # 8 ms that only the unknown-CSI designs need
    code = ("import pcs_shaper.cli; from pcs_shaper.channel import _legendre_rule; "
            "print(_legendre_rule.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_no_package_module_imports_scipy():
    # the package's only runtime dependency is numpy; unlike the subprocess
    # check above, this also sees imports inside functions, run or not
    found = []
    for path in sorted(Path(pcs_shaper.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in modules
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_cli_seed_and_starts_overrides(tmp_path):
    cfg = mini_config(output="s.csv", power_dbm=[28.0])
    path = write_config(tmp_path, cfg)
    assert run(str(path), out_dir=str(tmp_path / "x"), seed=1, starts=2) == EXIT_OK
    header = (tmp_path / "x" / "s.csv").read_text().splitlines()[0]
    resolved = json.loads(header[len("# config: "):])
    assert resolved["solver"]["seed"] == 1
    assert resolved["solver"]["n_starts"] == 2
