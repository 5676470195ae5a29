import json
import os
import subprocess
import sys

import numpy as np
import pytest

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
from nlslab.grid import build_grid, save_field
from nlslab.soliton import SolitonParams, soliton_field


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


def test_ground_state_bad_p_is_precondition(tmp_path, capsys):
    assert main(["ground-state", "--p", "1", "--out", str(tmp_path)]) == 2
    assert "need p > 1" in capsys.readouterr().err
    assert not (tmp_path / "failure.json").exists()


def test_fixed_point_too_few_iters_is_precondition(tmp_path, capsys):
    assert main(["fixed-point", "--iters", "2", "--n", "255",
                 "--out", str(tmp_path)]) == 2
    assert "at least 3 iterations" in capsys.readouterr().err


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
        assert float(row[0]) == k
        assert float(row[1]) == alpha and float(row[2]) == exit_time
        assert row[3] == reason
        assert float(row[4]) == alpha_plus
    assert rows[-1][3] == "reached_T0"


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
    # L=40, n=2047, omegas 1,2,4: at omega=4 the coarse growth estimate needs
    # the narrowed box, and the certificate runs on the full grid
    assert main(["spectrum", "--p", "7", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["lambda_min"] > 0
    assert len(summary["scaling_rates"]) == 3


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

def test_sweep_aggregate(tmp_path):
    cfg = default_config()
    env_backup = os.environ.get("OSL_THREADS")
    os.environ["OSL_THREADS"] = "1"
    try:
        code = run_sweep("ground-state", cfg, "p", ["3", "7"], tmp_path)
    finally:
        if env_backup is None:
            os.environ.pop("OSL_THREADS", None)
        else:
            os.environ["OSL_THREADS"] = env_backup
    assert code == 0
    lines = (tmp_path / "aggregate.csv").read_text().splitlines()
    assert lines[0].startswith("# config=")
    assert lines[1] == "p,status,summary"
    assert len(lines) == 4
    assert all(",ok," in line for line in lines[2:])


def test_sweep_records_failures(tmp_path):
    cfg = default_config()
    cfg["v"] = (1.0, 1.0)  # invalid for every run
    os.environ["OSL_THREADS"] = "1"
    try:
        code = run_sweep("fixed-point", cfg, "p", ["3"], tmp_path)
    finally:
        os.environ.pop("OSL_THREADS", None)
    assert code == 0
    lines = (tmp_path / "aggregate.csv").read_text().splitlines()
    assert "precondition_error" in lines[2]


def test_sweep_single_point_equals_run(tmp_path):
    cfg = default_config()
    os.environ["OSL_THREADS"] = "1"
    try:
        run_sweep("ground-state", cfg, "p", ["3"], tmp_path / "sweep")
    finally:
        os.environ.pop("OSL_THREADS", None)
    run("ground-state", {**cfg, "p": 3.0}, tmp_path / "single")
    swept = json.loads((tmp_path / "sweep/p_3/summary.json").read_text())
    single = json.loads((tmp_path / "single/summary.json").read_text())
    assert swept == single


def test_empty_sweep_rejected(tmp_path):
    assert run_sweep("ground-state", default_config(), "p", [], tmp_path) == 2


# -------------------------------------------------------------- entry point

def test_console_entry_point(tmp_path):
    r = subprocess.run(
        [sys.executable, "-m", "nlslab.cli", "ground-state", "--p", "3",
         "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert (tmp_path / "summary.json").exists()


def test_cli_rejects_unknown_config_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense=1\n")
    r = subprocess.run(
        [sys.executable, "-m", "nlslab.cli", "ground-state", "--config",
         str(bad), "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert r.returncode == 2
    assert "nonsense" in r.stderr
