import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlslab
import nlslab.cli as cli_mod
from nlslab.cli import (
    ConfigError,
    config_hash,
    config_text,
    default_config,
    load_config,
    main,
    parse_config_text,
    run,
    run_sweep,
    write_search_history,
)
from nlslab.grid import Field, build_grid, load_field, save_field
from nlslab.ground_state import rescale, solve_ground_state
from nlslab.soliton import SolitonParams, functionals, soliton_field, threshold_report


# --------------------------------------------------------------- config file

def test_config_round_trip(tmp_path):
    cfg = default_config()
    cfg["p"] = 7.0
    cfg["v"] = (1.0, 2.0)
    path = tmp_path / "run.cfg"
    path.write_text(config_text(cfg))
    assert load_config(path) == cfg


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config_text("bogus=1\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="dt"):
        parse_config_text("dt=fast\n")


def test_comments_and_blank_lines_ok():
    cfg = parse_config_text("# a comment\n\np=7  # inline\n")
    assert cfg == {"p": 7.0}


# ------------------------------------------------------------------ run/exit

def test_ground_state_run(tmp_path):
    cfg = default_config()
    code = run("ground-state", cfg, tmp_path)
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["q0"] == pytest.approx(np.sqrt(2.0), abs=1e-10)
    first = (tmp_path / "profile.csv").read_text().splitlines()[0]
    assert first.startswith("# config=")


def test_precondition_exit_code(tmp_path):
    cfg = default_config()
    cfg["v"] = (1.0, 1.0)  # wrong dimension
    assert run("fixed-point", cfg, tmp_path) == 2


def test_numerical_failure_exit_code(tmp_path, gs3):
    # violating the dt accuracy bound raises inside evolve and maps to 3
    grid = build_grid(1, 20.0, 511)
    u0 = soliton_field(SolitonParams(1.0, (1.0,), 3.0), gs3, 0.0, grid)
    save_field(tmp_path / "u0.bin", u0)
    cfg = default_config()
    cfg.update({"t0": 0.0, "t1": 20.0, "dt": 10.0, "v": (1.0,)})
    code = run("evolve", cfg, tmp_path / "out", in_path=tmp_path / "u0.bin")
    assert code == 3
    assert (tmp_path / "out" / "failure.json").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--dt", "-0.01", "dt is a positive magnitude"),
    ("--snapshot-every", "0", "snapshot_every must be >= 1"),
])
def test_evolve_bad_stepping_argument_is_precondition(tmp_path, capsys, gs3, flag,
                                                      value, message):
    grid = build_grid(1, 20.0, 511)
    save_field(tmp_path / "u0.bin",
               soliton_field(SolitonParams(1.0, (1.0,), 3.0), gs3, 0.0, grid))
    code = main(["evolve", "--in", str(tmp_path / "u0.bin"), flag, value,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "failure.json").exists()


def test_evolve_overflowing_energy_is_numerical_failure(tmp_path):
    # |u|^(p+1) of a 1e38 field overflows: the energy column would read -inf
    grid = build_grid(1, 10.0, 255)
    x = grid.coordinate(0)
    save_field(tmp_path / "u0.bin", Field(grid, 1e38 * np.exp(-x**2)))
    with np.errstate(over="ignore"):
        code = main(["evolve", "--in", str(tmp_path / "u0.bin"), "--p", "9",
                     "--v", "0", "--dt", "0.002", "--t1", "0.004",
                     "--out", str(tmp_path / "out")])
    assert code == 3
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["type"] == "EvolveError"
    assert not (tmp_path / "out" / "summary.json").exists()


def test_ground_state_bad_p_is_precondition(tmp_path, capsys):
    assert main(["ground-state", "--p", "1", "--out", str(tmp_path)]) == 2
    assert "need p > 1" in capsys.readouterr().err
    assert not (tmp_path / "failure.json").exists()


@pytest.mark.parametrize("arg, message", [
    ("--dim=0", "need dim 1, 2 or 3"), ("--dim=4", "need dim 1, 2 or 3"),
    ("--dim=3 --p=5", "energy-critical"), ("--dim=3 --p=6", "energy-critical"),
    ("--dim=3 --p=11", "energy-critical")])
def test_ground_state_bad_dim_or_tol_is_precondition(tmp_path, capsys, arg, message):
    assert main(["ground-state", *arg.split(), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "failure.json").exists()


@pytest.mark.parametrize("p, dim", [("4", "3"), ("11", "1"), ("11", "2")])
def test_ground_state_below_energy_critical_runs(tmp_path, p, dim):
    assert main(["ground-state", "--dim", dim, "--p", p, "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "summary.json").read_text())["q0"] > 0


def test_fixed_point_too_few_iters_is_precondition(tmp_path, capsys):
    assert main(["fixed-point", "--iters", "2", "--n", "255", "--a", "1",
                 "--out", str(tmp_path)]) == 2
    assert "at least 3 iterations" in capsys.readouterr().err


def _no_ground_state(*args, **kwargs):
    raise AssertionError("a precondition must be checked before the ground state")


@pytest.mark.parametrize("arg, message", [
    ("--delta=0", "finite delta > 0"), ("--delta=-1", "finite delta > 0"),
    ("--delta=nan", "finite delta > 0"), ("--delta=inf", "finite delta > 0"),
    ("--Tmax=inf", "finite T0 < Tmax"), ("--Tmax=nan", "finite T0 < Tmax"),
    ("--Tmax=0", "finite T0 < Tmax"), ("--Tmax=0.5", "finite T0 < Tmax"),
    ("--T0=nan", "finite T0 < Tmax"), ("--T0=-inf --Tmax=1", "finite T0 < Tmax")])
def test_fixed_point_bad_horizon_or_delta_is_precondition(tmp_path, capsys,
                                                         monkeypatch, arg, message):
    monkeypatch.setattr("nlslab.ground_state.solve_ground_state", _no_ground_state)
    assert main(["fixed-point", *arg.split(), "--n", "255",
                 "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "failure.json").exists()


def test_fixed_point_without_obstacle_is_refused(tmp_path, capsys, monkeypatch):
    # without an obstacle the soliton is exact and every iterate would be zero
    monkeypatch.setattr("nlslab.ground_state.solve_ground_state", _no_ground_state)
    assert main(["fixed-point", "--Tmax", "0.6", "--T0", "0.5", "--n", "255",
                 "--L", "20", "--out", str(tmp_path)]) == 2
    assert "fixed-point needs an obstacle (a > 0)" in capsys.readouterr().err
    assert not (tmp_path / "failure.json").exists()


@pytest.mark.parametrize("omegas", ["1,1", "1,2,1", "0,1", "-1,2", "1,nan", "1,inf"])
def test_spectrum_bad_omegas_is_precondition(tmp_path, capsys, monkeypatch, omegas):
    monkeypatch.setattr("nlslab.ground_state.solve_ground_state", _no_ground_state)
    assert main(["spectrum", "--p", "7", f"--omegas={omegas}",
                 "--out", str(tmp_path)]) == 2
    assert "omegas must be distinct, finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "failure.json").exists()


def _no_sweep(*args, **kwargs):
    raise AssertionError("a precondition must be checked before the Picard sweeps")


@pytest.mark.parametrize("argv, message", [
    # the soliton's centre nears the box edge before Tmax (1d and 2d)
    ("--p 3 --v 8 --a 1 --L 25 --n 1279 --iters 4", "too close to the box edge"),
    ("--dim 2 --v 8,0 --a 1 --L 16 --n 127 --dt 0.005 --T0 0.5 --Tmax 1.5",
     "too close to the box edge"),
    # one step: too short for the residual's centred time difference
    ("--a 1 --n 255 --L 20 --T0 0.5 --Tmax 0.501", "at least 3 mesh times")],
    ids=["edge-1d", "edge-2d", "one-step"])
def test_fixed_point_refused_before_the_sweeps(tmp_path, capsys, monkeypatch, argv,
                                               message):
    monkeypatch.setattr("nlslab.fixedpoint._sweep", _no_sweep)
    assert main(["fixed-point", *argv.split(), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "failure.json").exists()


def test_picard_arrays_above_physical_memory_are_refused(tmp_path, capsys,
                                                         monkeypatch):
    # 51 mesh times of 255 active points: two arrays of 208 kB
    monkeypatch.setattr("nlslab.fixedpoint.physical_memory", lambda: 10**5)
    monkeypatch.setattr("nlslab.fixedpoint._MeshSources", _no_sweep)
    assert main(["fixed-point", "--a", "1", "--n", "255", "--L", "20", "--T0", "0.5",
                 "--Tmax", "0.6", "--out", str(tmp_path)]) == 2
    assert "GB, above physical memory" in capsys.readouterr().err


def _no_grid(*args, **kwargs):
    raise AssertionError("a precondition must be checked before the grid")


@pytest.mark.parametrize("sub", ["spectrum", "fixed-point --a=1"])
def test_lattice_above_physical_memory_is_refused(tmp_path, capsys, monkeypatch, sub):
    # a 64^2 lattice needs 65.5 kB; the refusal comes before any array
    monkeypatch.setattr("nlslab.grid.physical_memory", lambda: 65535)
    monkeypatch.setattr("nlslab.ground_state.solve_ground_state", _no_ground_state)
    argv = [*sub.split(), "--dim=2", "--v=2,0", "--n=64", "--L=20"]
    assert _contract_code(tmp_path, argv) == 2
    assert "a 64^2 lattice of complex values needs" in capsys.readouterr().err


@pytest.mark.parametrize("memory, code", [(24_575_999, 2), (24_576_000, 3)])
def test_spectrum_lattice_beyond_its_factorization_is_refused(tmp_path, capsys,
                                                              monkeypatch, memory, code):
    # 64^2 points at 6 kB each: 24.576 MB; one byte more gets to the ground state
    monkeypatch.setattr("nlslab.cli.physical_memory", lambda: memory)
    monkeypatch.setattr("nlslab.ground_state.solve_ground_state", _no_ground_state)
    assert _contract_code(tmp_path, ["spectrum", "--dim=2", "--n=64"]) == code
    refused = "factoring the spectrum's operators on 4096 points needs about 0.0246 GB"
    assert (refused in capsys.readouterr().err) == (code == 2)


def _no_eigensolve(*args, **kwargs):
    raise AssertionError("every frequency's lattice must be checked before an eigensolve")


@pytest.mark.parametrize("argv, omega", [
    # Q_omega is Q narrowed by sqrt(omega): the 127^2 lattice over L = 6 holds
    # the potential at omega = 1 (jump 0.17), not at the default omegas 2 and 4
    ("--dim=2 --p=4 --L=6 --n=127", "2.0"),
    ("--dim=2 --p=4 --L=6 --n=127 --omega=4 --omegas=1,4", "4.0"),
    ("--p=7 --L=30 --n=127 --omegas=1", "1.0")], ids=["omegas", "omega", "1d"])
def test_spectrum_refuses_a_coarse_frequency_before_any_eigensolve(tmp_path, capsys,
                                                                   monkeypatch, argv, omega):
    monkeypatch.setattr("nlslab.linearized.solve_unstable_pair", _no_eigensolve)
    assert _contract_code(tmp_path, ["spectrum", *argv.split()]) == 2
    assert f"varies more than 20% per cell at omega={omega}" in capsys.readouterr().err


@pytest.mark.parametrize("dim, v", [("2", "2,0"), ("3", "2,0,0")])
def test_shoot_outside_1d_is_refused_before_the_grid(tmp_path, capsys, monkeypatch,
                                                     dim, v):
    monkeypatch.setattr("nlslab.ground_state.solve_ground_state", _no_ground_state)
    monkeypatch.setattr("nlslab.cli._grid_from", _no_grid)
    assert _contract_code(tmp_path, ["shoot", "--a=1", f"--dim={dim}", f"--v={v}"]) == 2
    assert f"shoot runs in 1d only (its spectral grid has 4095 points per axis), " \
        f"got dim={dim}" in capsys.readouterr().err


# ------------------------------------------------------ exit-code contract

def _contract_code(tmp_path, argv):
    """main's exit code for argv, which must be 0, 2 or 3, with failure.json
    exactly on 3; an exception out of main fails the test."""
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    assert code in (0, 2, 3)
    assert (out / "failure.json").exists() == (code == 3)
    return code


def _field_file(path):
    grid = build_grid(1, 20.0, 255)
    save_field(path, Field(grid, np.sqrt(2.0) / np.cosh(grid.coordinate(0))))
    return path


_EDGE = ("0", "-1", "nan", "inf", "1e300", "1e-300")
_INT_EDGE = ("0", "-1", "1", "2")

# One key at a time at an edge value, refused before any numerics (outside
# `ground-state`, before the ground state).  {in} is a valid field file.
EDGE_REFUSED = [
    *(f"ground-state --{key}={val}" for key in ("p", "omega")
      for val in ("0", "-1", "nan", "inf")),
    "ground-state --dim=0", "ground-state --dim=-1",
    *(f"{sub} --L={val}" for sub in ("spectrum", "fixed-point", "fixed-point --a=1",
                                     "shoot --a=1")
      for val in _EDGE),
    *(f"{sub} --n={val}" for sub in ("spectrum", "fixed-point", "fixed-point --a=1",
                                     "shoot --a=1")
      for val in _INT_EDGE),
    *(f"{sub} --a={val}" for sub in ("fixed-point", "shoot") for val in ("inf", "1e300")),
    *(f"{sub} --a={val}" for sub in ("fixed-point", "shoot") for val in ("0", "-1", "nan")),
    *(f"{sub} --a=1 --{key}={val}" for sub in ("fixed-point", "shoot")
      for key in ("R1", "R2") for val in _EDGE),
    *(f"{sub} --dim={val}" for sub in ("spectrum", "fixed-point", "fixed-point --a=1",
                                       "shoot --a=1")
      for val in ("0", "-1")),
    *(f"{sub} --omega={val}" for sub in ("fixed-point", "shoot --a=1", "functionals --in={in}")
      for val in ("0", "-1", "nan", "inf")),
    "functionals --in={in} --v=1,5",
    *(f"{sub} --v={val}" for sub in ("fixed-point", "shoot --a=1")
      for val in ("nan", "inf", "1e300")),
    "fixed-point --v=0",
    *(f"{sub} --dt={val}" for sub in ("fixed-point", "shoot --a=1", "evolve --in={in}")
      for val in ("0", "-1", "nan")),
    *(f"fixed-point --snapshot-every={val}" for val in ("0", "-1")),
    "spectrum --seed=-1",
    "spectrum --dim=2",   # 2047^2 points: about 25 GB of LU factors
    *(f"shoot --a=1 --T0={val}" for val in ("0", "-1", "nan", "inf", "1e300")),
    *(f"shoot --a=1 --Tn={val}" for val in ("0", "-1", "nan", "1e-300")),
    *(f"shoot --a=1 --log-every={val}" for val in ("0", "-1")),
    *(f"shoot --a=1 --delta={val}" for val in ("0", "-0.4", "nan", "inf", "1e300")),
    "shoot --a=1 --v=0",
    *(f"evolve --in={{in}} --{key}={val}" for key in ("t0", "t1") for val in ("nan", "inf")),
    *(f"evolve --in={{in}} --snapshot-every={val}" for val in ("0", "-1")),
    *(f"evolve --in={{in}} {v}--p={val}" for v in ("", "--v=0,0 ")
      for val in ("0", "-1", "1", "1e-300", "nan", "inf")),
    # more than evolve.MAX_STEPS steps
    "evolve --in={in} --dt=1e-300", "evolve --in={in} --t1=1e300",
    "shoot --a=1 --dt=1e-300", "fixed-point --Tmax=1e300",
]


@pytest.mark.parametrize("argv", EDGE_REFUSED)
def test_edge_value_is_refused(tmp_path, monkeypatch, argv):
    # the lattice sizes refused here are refused on any desk of 8 GB or less
    monkeypatch.setattr("nlslab.cli.physical_memory", lambda: 8 * 10**9)
    if not argv.startswith("ground-state"):
        monkeypatch.setattr("nlslab.ground_state.solve_ground_state", _no_ground_state)
    argv = argv.format(**{"in": _field_file(tmp_path / "u0.bin")})
    assert _contract_code(tmp_path, argv.split()) == 2


# Inputs that ended in a traceback, or (shoot) in exit 3 for a refused p.
@pytest.mark.parametrize("argv, code", [
    ("ground-state --p=1e300", 3), ("ground-state --omega=1e300", 3),
    ("spectrum --p=1e300", 3), ("spectrum --L=1e-300", 2),
    ("fixed-point --L=1e300", 2), ("fixed-point --a=1 --L=1e300", 2),
    ("functionals --in={in} --p=-1", 2),
    ("shoot --a=1 --p=3", 2)])
def test_former_traceback_keeps_the_contract(tmp_path, argv, code):
    argv = argv.format(**{"in": _field_file(tmp_path / "u0.bin")})
    assert _contract_code(tmp_path, argv.split()) == code


@pytest.mark.parametrize("arg", ["--p=1e300", "--omega=1e300"])
def test_ground_state_overflow_names_its_shot(tmp_path, arg):
    assert _contract_code(tmp_path, ["ground-state", arg]) == 3
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["type"] == "GroundStateError"
    assert "q0=" in failure["error"]


def test_evolve_zero_span_reports_the_step_it_ran(tmp_path):
    argv = ["evolve", "--in", str(_field_file(tmp_path / "u0.bin")),
            "--t0", "0.5", "--t1", "0.5"]
    assert _contract_code(tmp_path, argv) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["steps"] == 1
    assert summary["snapshots"] == 2


@pytest.mark.parametrize("sub", ["evolve", "functionals"])
@pytest.mark.parametrize("content", [
    None, b"no header line", b'{"dim": 1}\n',
    b'{"L": 10.0, "dim": 1, "n": 16, "obstacle_a": 0.0}\n'
    + np.full(16, np.nan, "<c8").tobytes()],
    ids=["missing", "no-header", "short-header", "non-finite"])
def test_unreadable_input_file_is_precondition(tmp_path, capsys, sub, content):
    path = tmp_path / "u0.bin"
    if content is not None:
        path.write_bytes(content)
    assert _contract_code(tmp_path, [sub, "--in", str(path)]) == 2
    assert "u0.bin" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["evolve", "functionals"])
def test_no_input_file_is_precondition(tmp_path, capsys, sub):
    assert _contract_code(tmp_path, [sub]) == 2
    assert f"{sub} needs --in" in capsys.readouterr().err


def test_sweep_bad_value_is_precondition(tmp_path, capsys):
    code = main(["sweep", "--sub", "ground-state", "--param", "p",
                 "--values", "3,abc", "--out", str(tmp_path)])
    assert code == 2
    assert "abc" in capsys.readouterr().err
    assert not (tmp_path / "aggregate.csv").exists()


def test_fixed_point_writes_iteration_diagnostics(tmp_path):
    cfg = default_config()
    cfg.update({"v": (8.0,), "n": 255, "a": 1.0, "dt": 0.004, "iters": 4,
                "snapshot_every": 100})
    assert run("fixed-point", cfg, tmp_path) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "diff_norms" not in summary
    lines = (tmp_path / "picard_iterations.csv").read_text().splitlines()
    assert lines[0] == f"# config={config_hash(cfg)}"
    assert lines[1] == "iteration,iterate_norm,diff_norm,ratio"
    rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
    assert [r[0] for r in rows] == list(range(len(summary["iterate_norms"])))
    assert [r[1] for r in rows] == summary["iterate_norms"]
    assert np.isnan(rows[0][2]) and np.isnan(rows[1][3])
    assert all(r[2] > 0 for r in rows[1:])
    assert [r[3] for r in rows[2:]] == summary["contraction_ratios"]


def test_search_history_csv(tmp_path, winning_search):
    path = tmp_path / "search_history.csv"
    write_search_history(path, winning_search.history, "abc123")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config=abc123"
    assert lines[1] == "shot,alpha,exit_time,exit_reason,alpha_plus_exit"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == len(winning_search.history)
    for k, (row, shot) in enumerate(zip(rows, winning_search.history)):
        alpha, exit_time, reason, alpha_plus = shot
        assert row[0] == str(k)
        assert float(row[1]) == alpha and float(row[2]) == exit_time
        assert row[3] == reason
        assert float(row[4]) == alpha_plus
    assert rows[-1][3] == "reached_T0"


# p=7 at |v|=2 on a short horizon: the search finds T0 after four shots, and
# the single shot at alpha+ = 0 exits through the alpha bound
_SHOOT = ("shoot --p=7 --v=2 --a=1 --R1=1.5 --R2=3 --L=30 --n=1535 --T0=7.5 "
          "--Tn=8 --delta=0.4 --dt=0.004").split()


def _shoot_failure(tmp_path, monkeypatch, name):
    """failure.json of a short shot whose 40th phase rotation turns NaN."""
    import nlslab.evolve as evolve_mod
    rotate, calls = evolve_mod._rotate, []

    def poisoned(vals, h, p):
        calls.append(h)
        out = rotate(vals, h, p)
        return out * np.nan if len(calls) == 40 else out

    monkeypatch.setattr(evolve_mod, "_rotate", poisoned)
    with np.errstate(invalid="ignore"):
        assert _contract_code(tmp_path / name, _SHOOT) == 3
    return (tmp_path / name / "out" / "failure.json").read_bytes()


def test_shoot_worker_error_is_the_serial_failure(tmp_path, monkeypatch):
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    forked = _shoot_failure(tmp_path, monkeypatch, "forked")
    assert len(forks) == (len(os.sched_getaffinity(0)) >= 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = _shoot_failure(tmp_path, monkeypatch, "serial")
    assert forked == serial
    assert json.loads(serial)["type"] == "LinearSolveError"


def _summary_and_csv(out, name):
    summary = json.loads((out / "summary.json").read_text())
    lines = (out / name).read_text().splitlines()
    assert lines[0] == f"# config={summary['config_hash']}"
    return summary, [line.split(",") for line in lines[2:]]


def test_shoot_search_writes_the_winning_shot(tmp_path):
    assert _contract_code(tmp_path, [*_SHOOT, "--search=1"]) == 0
    out = tmp_path / "out"
    summary, history = _summary_and_csv(out, "search_history.csv")
    assert summary["found"] is True
    assert summary["shoots"] == len(history)
    assert history[-1][3] == "reached_T0" == summary["exit_reason"]
    assert {"fitted_C", "lyapunov_fit", "alpha_minus_max_ratio"} <= set(summary)
    assert summary["Mprime"] == summary["M"] ** 2
    _, rows = _summary_and_csv(out, "shoot_log.csv")
    assert float(rows[-1][0]) == summary["exit_time"]


def test_single_shoot_fits_the_growth_rate(tmp_path):
    assert _contract_code(tmp_path, _SHOOT) == 0
    summary, _ = _summary_and_csv(tmp_path / "out", "shoot_log.csv")
    assert summary["exit_reason"] == "alpha_bound"
    assert np.isfinite(summary["fitted_growth_rate"])
    assert summary["Mprime"] == summary["M"] ** 2


def test_functionals_run_reports_the_field(tmp_path):
    path = _field_file(tmp_path / "u0.bin")
    assert _contract_code(tmp_path, ["functionals", "--in", str(path), "--p=3",
                                     "--v=1"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    u = load_field(path)[0]
    f = functionals(u, SolitonParams(omega=1.0, v=(1.0,), p=3.0))
    assert [summary[k] for k in ("M", "E", "P", "lyapunov")] == \
        [f.mass, f.energy, list(f.momentum), f.lyapunov]
    rep = threshold_report(u, 3.0, solve_ground_state(3.0, 1.0, 1))
    assert summary["s"] == rep.s
    assert summary["thresholds"] == {
        "grad_quantity": rep.grad_quantity,
        "mass_energy_quantity": rep.mass_energy_quantity,
        "grad_threshold": rep.grad_threshold,
        "mass_energy_threshold": rep.mass_energy_threshold,
        "p_in_range": rep.in_range,
    }


def test_missing_input_rejected(tmp_path):
    assert run("functionals", default_config(), tmp_path) == 2


def test_determinism_byte_identical(tmp_path):
    cfg = default_config()
    cfg["p"] = 7.0
    run("ground-state", cfg, tmp_path / "a")
    run("ground-state", cfg, tmp_path / "b")
    assert (tmp_path / "a/summary.json").read_bytes() == \
        (tmp_path / "b/summary.json").read_bytes()


def test_spectrum_run_and_determinism(tmp_path):
    cfg = default_config()
    cfg.update({"p": 7.0, "L": 15.0, "n": 1023, "omegas": ()})
    assert run("spectrum", cfg, tmp_path / "a") == 0
    assert run("spectrum", cfg, tmp_path / "b") == 0
    sa = (tmp_path / "a/summary.json").read_bytes()
    assert sa == (tmp_path / "b/summary.json").read_bytes()
    summary = json.loads(sa)
    assert summary["e0"] == pytest.approx(2.908, abs=0.01)
    assert summary["lambda_min"] > 0


def test_spectrum_defaults_p7(tmp_path):
    # L=40, n=2047, omegas 1,2,4: the certificate runs on the full grid
    assert main(["spectrum", "--p", "7", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["lambda_min"] > 0
    assert len(summary["scaling_rates"]) == 3


def test_spectrum_in_2d(tmp_path):
    # the lattice passes assemble's 20% check (jump 0.17)
    argv = ["spectrum", "--dim=2", "--p=4", "--L=6", "--n=127", "--omegas=1"]
    assert _contract_code(tmp_path, argv) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["e0"] == pytest.approx(3.90657, rel=1e-5)
    assert summary["lambda_min"] > 0
    assert max(summary["eigen_residuals"].values()) < 1e-10


def test_spectrum_solves_its_own_frequency_once(tmp_path, monkeypatch):
    import nlslab.linearized as linearized

    solved = []
    real = linearized.solve_unstable_pair

    def counting(pair, *args, **kwargs):
        solved.append(pair.ground.omega)
        return real(pair, *args, **kwargs)

    monkeypatch.setattr(linearized, "solve_unstable_pair", counting)
    cfg = default_config()
    cfg.update({"p": 7.0, "L": 15.0, "n": 1023, "omegas": (1.0, 2.0, 4.0)})
    assert run("spectrum", cfg, tmp_path) == 0
    assert solved == [1.0, 2.0, 4.0]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["scaling_rates"][0] == summary["e0"]
    gs = solve_ground_state(7.0, 1.0, 1)
    grid = build_grid(1, 15.0, 1023)
    for om, rate in zip(cfg["omegas"], summary["scaling_rates"]):
        alone = real(linearized.assemble(rescale(gs, om), grid)).e0
        assert rate == pytest.approx(alone, rel=1e-10)


def test_spectrum_certificate_no_convergence_exits_3(tmp_path, monkeypatch):
    import nlslab.linearized as linearized

    def stalling(*args, **kwargs):
        raise linearized.spla.ArpackNoConvergence("stalled", [], [])

    monkeypatch.setattr(linearized.spla, "eigsh", stalling)
    cfg = default_config()
    cfg.update({"p": 7.0, "L": 15.0, "n": 1023, "omegas": ()})
    assert run("spectrum", cfg, tmp_path) == 3
    failure = json.loads((tmp_path / "failure.json").read_text())
    assert failure["type"] == "SpectralError"


# --------------------------------------------------------------------- sweep

def test_sweep_aggregate(tmp_path, monkeypatch):
    cfg = default_config()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    code = run_sweep("ground-state", cfg, "p", ["3", "7"], tmp_path)
    assert code == 0
    lines = (tmp_path / "aggregate.csv").read_text().splitlines()
    assert lines[0].startswith("# config=")
    assert lines[1] == "p,status,summary"
    assert len(lines) == 4
    assert all(",ok," in line for line in lines[2:])


def test_sweep_records_failures(tmp_path, monkeypatch):
    cfg = default_config()
    cfg["v"] = (1.0, 1.0)  # invalid for every run
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    code = run_sweep("fixed-point", cfg, "p", ["3"], tmp_path)
    assert code == 0
    lines = (tmp_path / "aggregate.csv").read_text().splitlines()
    assert "precondition_error" in lines[2]


def test_sweep_single_point_equals_run(tmp_path, monkeypatch):
    cfg = default_config()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    run_sweep("ground-state", cfg, "p", ["3"], tmp_path / "sweep")
    run("ground-state", {**cfg, "p": 3.0}, tmp_path / "single")
    swept = json.loads((tmp_path / "sweep/p_3/summary.json").read_text())
    single = json.loads((tmp_path / "single/summary.json").read_text())
    assert swept == single


def test_sweep_on_two_cores_is_the_one_core_sweep(tmp_path, monkeypatch):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the sweep takes its process pool only with two usable cores")
    pools = []

    class Recorded(cli_mod.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", Recorded)
    cfg = default_config()
    assert run_sweep("ground-state", cfg, "p", ["3", "7"], tmp_path / "pool") == 0
    assert pools == [2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run_sweep("ground-state", cfg, "p", ["3", "7"], tmp_path / "serial") == 0
    assert pools == [2]
    for name in ("aggregate.csv", "p_3/summary.json", "p_7/summary.json"):
        assert ((tmp_path / "pool" / name).read_bytes()
                == (tmp_path / "serial" / name).read_bytes())


_STATUS_RUNS = {0: ["ground-state", "--p=3"], 2: ["ground-state", "--p=0"],
                3: ["ground-state", "--p=1e300"]}


@pytest.mark.parametrize("first, second", [(3, 0), (0, 3), (3, 2), (0, 2)])
def test_a_run_leaves_only_its_own_status_file(tmp_path, first, second):
    for code in (first, second):
        assert main([*_STATUS_RUNS[code], "--out", str(tmp_path)]) == code
    assert (tmp_path / "summary.json").exists() == (second == 0)
    assert (tmp_path / "failure.json").exists() == (second == 3)


# A rerun with a larger stride writes fewer numbered files; it must leave only
# its own, and no file of a name the program does not write is touched.
def test_fixed_point_rerun_leaves_only_its_own_snapshots(tmp_path):
    argv = ["fixed-point", "--v", "8", "--n", "255", "--a", "1", "--dt", "0.004",
            "--iters", "3", "--out", str(tmp_path)]
    (tmp_path / "r1.bin").write_text("not a snapshot")
    for every in ("100", "200"):
        assert main([*argv, "--snapshot-every", every]) == 0
    rows = (tmp_path / "remainder_norms.csv").read_text().splitlines()[2:]
    assert len(rows) >= 2
    assert {p.name for p in tmp_path.glob("r*.bin")} == \
        {"r1.bin"} | {f"r{200 * j:05d}.bin" for j in range(len(rows))}


def test_evolve_rerun_leaves_only_its_own_snapshots(tmp_path):
    argv = ["evolve", "--in", str(_field_file(tmp_path / "u0.bin")), "--t1", "0.4",
            "--dt", "0.004", "--out", str(tmp_path / "out")]
    snaps = tmp_path / "out" / "snapshots"
    snaps.mkdir(parents=True)
    (snaps / "snap1.bin").write_text("not a snapshot")
    for every in ("10", "20"):
        assert main([*argv, "--snapshot-every", every]) == 0
    count = json.loads((tmp_path / "out" / "summary.json").read_text())["snapshots"]
    assert count == 6
    assert {p.name for p in snaps.iterdir()} == \
        {"snap1.bin"} | {f"snap{k:05d}.bin" for k in range(count)}


def test_sweep_point_does_not_report_an_earlier_summary(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run("ground-state", default_config(), tmp_path / "p_1e300") == 0
    assert run_sweep("ground-state", default_config(), "p", ["1e300"], tmp_path) == 0
    row = (tmp_path / "aggregate.csv").read_text().splitlines()[2]
    assert row == "1e300,numerical_failure,{}"


def test_empty_sweep_rejected(tmp_path):
    assert run_sweep("ground-state", default_config(), "p", [], tmp_path) == 2


# -------------------------------------------------------------- entry point

def _child_env():
    """The environment in which `python -m nlslab.cli` imports this nlslab,
    installed or not."""
    path = [str(Path(nlslab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_console_entry_point(tmp_path):
    r = subprocess.run(
        [sys.executable, "-m", "nlslab.cli", "ground-state", "--p", "3",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert r.returncode == 0
    assert (tmp_path / "summary.json").exists()


def test_cli_rejects_unknown_config_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense=1\n")
    r = subprocess.run(
        [sys.executable, "-m", "nlslab.cli", "ground-state", "--config",
         str(bad), "--out", str(tmp_path)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert r.returncode == 2
    assert "nonsense" in r.stderr
