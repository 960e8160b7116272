"""Command-line interface: determinism, schemas, exit codes."""

import json
import warnings

import numpy as np
import pytest

from ergodrive import (DEFAULT_TOLS, DensityMatrix, HamiltonianOp, Schedule, cli, drives,
                       majorizes, matrix_to_json, optimize_phases, solve_beta_for_energy,
                       synthesize_drive)
from helpers import random_hermitian

RHO2 = {"rho_i": matrix_to_json(np.diag([0.3, 0.7]).astype(complex)),
        "h_i": matrix_to_json(np.diag([0.0, 1.0]).astype(complex)),
        "h_f": matrix_to_json(np.diag([0.0, 0.5]).astype(complex))}


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return cli.main(args)


def test_fmt_and_writers(tmp_path, capsys):
    assert cli._fmt(0.1) == "0.10000000000000001"
    assert cli._fmt(1.0) == "1"
    cli.write_csv(["a", "b"], [(1.0, 0.5)], None)
    out = capsys.readouterr().out
    assert out == "a,b\n1,0.5\n"
    path = tmp_path / "t.csv"
    cli.write_csv(["a"], [(2.0,)], str(path))
    assert path.read_bytes() == b"a\n2\n"
    assert cli.load_config(None) == {}


def test_ergotropy_command_schema(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "e.json", RHO2)
    assert run(["ergotropy", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"e_nc", "e_inc", "e_pas", "e_coh", "delta_e_nc",
                           "gain_g", "upper_bound", "majorization_holds",
                           "beta_same_energy", "negative_temperature_flag"}
    # diag(0.3, 0.7) on these levels is population inverted: negative beta
    assert report["negative_temperature_flag"] is True


def test_drive_synth_command(tmp_path, capsys):
    rng = np.random.default_rng(70)
    cfg_dict = {"rho_i": matrix_to_json(np.diag([0.2, 0.8]).astype(complex)),
                "h_i": matrix_to_json(random_hermitian(rng, 2)),
                "h_f": matrix_to_json(random_hermitian(rng, 2)),
                "tau": 1.0, "phases": "analytic2"}
    cfg = write_cfg(tmp_path, "d.json", cfg_dict)
    assert run(["drive-synth", "--config", cfg, "--steps", "2048"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"chi", "thetas", "phases_phi", "w", "w_min", "residuals"}
    assert set(out["residuals"]) == {"final_energy_residual", "state_distance"}
    assert out["residuals"]["state_distance"] <= 1e-6
    assert out["w"] >= out["w_min"] - 1e-12
    assert len(out["thetas"]) == 2
    # explicit phase list is honored
    cfg_dict["phases"] = [0.0, 1.0]
    cfg = write_cfg(tmp_path, "d2.json", cfg_dict)
    assert run(["drive-synth", "--config", cfg, "--steps", "2048"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["phases_phi"] == [0.0, 1.0]


def test_drive_synth_propagates_u0_once_per_grid(monkeypatch):
    rng = np.random.default_rng(72)
    cfg = {"rho_i": matrix_to_json(np.diag([0.2, 0.8]).astype(complex)),
           "h_i": matrix_to_json(random_hermitian(rng, 2)),
           "h_f": matrix_to_json(random_hermitian(rng, 2)),
           "tau": 1.0, "phases": "analytic2"}
    grids = []
    propagate = drives.propagate_u0

    def counting(h_i, h_f, sched, tols=DEFAULT_TOLS):
        grids.append(sched.n_steps)
        return propagate(h_i, h_f, sched, tols)

    monkeypatch.setattr(cli, "propagate_u0", counting)
    monkeypatch.setattr(drives, "propagate_u0", counting)
    out = cli.run_drive_synth(cfg, 2048)
    assert grids == [2048, 4096]   # synthesis, then verification's own grid
    monkeypatch.undo()
    # the same numbers as optimizer and synthesizer each propagating U0 themselves
    rho, h_i, h_f, _ = cli._load_instance(cfg)
    sched = Schedule.linear(1.0, n_steps=2048)
    phases = optimize_phases(rho, h_i, h_f, sched, mode="analytic2").phases
    assert out["w_min"] == synthesize_drive(rho, h_i, h_f, sched, phases).w_min
    assert out["phases_phi"] == phases.tolist()


def test_drive_synth_crude_grid_fails_verification(tmp_path, capsys):
    rng = np.random.default_rng(71)
    cfg = write_cfg(tmp_path, "bad.json",
                    {"rho_i": matrix_to_json(np.diag([0.2, 0.8]).astype(complex)),
                     "h_i": matrix_to_json(random_hermitian(rng, 2, 3.0)),
                     "h_f": matrix_to_json(random_hermitian(rng, 2, 3.0))})
    assert run(["drive-synth", "--config", cfg, "--steps", "8"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "VerificationFailed"
    assert "residuals" in err


def test_fig1_deterministic_and_crossover_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "f1.json",
                    {"p_points": 24, "c_points": 8, "mc_draws": 16})
    outs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
        path = tmp_path / name
        assert run(["fig1", "--config", cfg, "--out", str(path),
                    "--seed", "3", "--threads", threads]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    assert "crossover_p = " in capsys.readouterr().err
    lines = outs[0].decode().splitlines()
    assert lines[0] == "p_i,c_abs,delta_enc,g,w_min,w_mc_mean,w_mc_stderr"
    assert len(lines) == 1 + 24 * 8
    assert b"\r" not in outs[0]
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(first["p_i"]) == 0.0


def test_fig1_no_draws_emits_nan_columns(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "f1n.json",
                    {"p_points": 4, "c_points": 3, "mc_draws": 0})
    assert run(["fig1", "--config", cfg]) == 0
    out = capsys.readouterr().out
    row = out.splitlines()[1].split(",")
    assert row[5] == "nan" and row[6] == "nan"


def test_fig2_schema_and_content(tmp_path):
    cfg = write_cfg(tmp_path, "f2.json", {"ot_points": 4, "ots_points": 3})
    path = tmp_path / "f2.csv"
    assert run(["fig2", "--config", cfg, "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == ("omega0_tau,omega0_taustar,w_sta,w_min_lower,"
                        "delta_enc,g,delta_e_sta")
    assert len(lines) == 1 + 4 * 3
    ot, ots, w_sta = (float(x) for x in lines[1].split(",")[:3])
    # w_sta = |mu| omega_bar / tau = pi / (2 tau*) for the quarter-period sweep
    assert abs(w_sta - np.pi / (2 * ots)) < 1e-12


def test_fig3_schema_and_bounds(tmp_path):
    cfg = write_cfg(tmp_path, "f3.json", {"mu_points": 5, "ob_points": 4})
    path = tmp_path / "f3.csv"
    assert run(["fig3", "--config", cfg, "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == ("mu,omega_bar,w_sta,w_min_lower,w_min_upper,"
                        "delta_enc,delta_e_sta")
    assert len(lines) == 1 + 5 * 4
    for line in lines[1:]:
        row = [float(x) for x in line.split(",")]
        assert abs(row[4] - np.sqrt(2.0) * np.pi) < 1e-12   # tau = 1
        assert row[3] <= row[4] + 1e-12
        assert np.isfinite(row[6])


def test_counterexample_command(tmp_path):
    path = tmp_path / "ce.csv"
    assert run(["counterexample", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "beta,e2i,e2f,q1,q2,q3,pth1,pth2,pth3,delta_e_nc"
    assert len(lines) == 7
    deltas = [float(line.split(",")[-1]) for line in lines[1:]]
    assert all(d < 0 for d in deltas[:-1]) and deltas[-1] > 0
    q = [float(x) for x in lines[1].split(",")[3:6]]
    assert np.allclose(q, [0.565, 0.217, 0.218], atol=1e-3)


def test_exit_codes_for_bad_inputs(tmp_path, capsys):
    # missing file
    assert run(["ergotropy", "--config", str(tmp_path / "absent.json")]) == 2
    # malformed json
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run(["ergotropy", "--config", str(broken)]) == 2
    # missing required key
    cfg = write_cfg(tmp_path, "missing.json", {"h_i": RHO2["h_i"]})
    assert run(["ergotropy", "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ParamOutOfRange"
    assert "rho_i" in err["message"]
    # dimension mismatch between the state and the Hamiltonians
    bad = dict(RHO2)
    bad["rho_i"] = matrix_to_json(np.eye(3) / 3)
    cfg = write_cfg(tmp_path, "dim.json", bad)
    assert run(["ergotropy", "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DimMismatch"


def test_crossover_helper():
    ps = [0.0, 0.1, 0.2, 0.3]
    assert cli.fig1_crossover(ps, [1.0, 1.0, 1.0, 1.0], [0.5] * 4) == 0.0
    assert cli.fig1_crossover(ps, [0.0, 0.4, 1.0, 1.0], [0.5] * 4) == 0.2
    assert np.isnan(cli.fig1_crossover(ps, [0.0] * 4, [0.5] * 4))


def test_json_output_is_sorted_and_stable(tmp_path):
    cfg = write_cfg(tmp_path, "e.json", RHO2)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["ergotropy", "--config", cfg, "--out", str(a)]) == 0
    assert run(["ergotropy", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    keys = list(json.loads(a.read_text()))
    assert keys == sorted(keys)


@pytest.mark.parametrize("command, cfg, message", [
    ("fig1", {"p_points": 0}, "p_points must be >= 1"),
    ("fig1", {"c_points": 0}, "c_points must be >= 1"),
    ("fig1", {"p_points": 3, "c_points": 3, "mc_draws": 0, "tau": 0}, "tau must be > 0"),
    ("fig1", {"p_points": 2, "c_points": 2, "mc_draws": 1}, "mc_draws must be 0 or >= 2"),
    ("fig1", {"p_points": 2, "c_points": 2, "mc_draws": -4}, "mc_draws must be 0 or >= 2"),
    ("fig1", {"p_points": 3, "c_points": 3, "mc_draws": 0, "p_min": -0.1},
     "population p = -0.1 outside [0, 1]"),
    ("fig1", {"p_points": 3, "c_points": 3, "mc_draws": 0, "p_max": 1.5},
     "population p = 1.5 outside [0, 1]"),
    ("fig2", {"ot_points": 0}, "ot_points must be >= 1"),
    ("fig2", {"ots_points": 0}, "ots_points must be >= 1"),
    ("fig2", {"ot_min": 0}, "need tau > 0 and omega_bar >= 0"),
    ("fig2", {"ots_min": 0}, "need omega0 > 0 and tau_star > 0"),
    ("fig2", {"omega0": -1.0}, "omega0 must be > 0"),
    ("fig2", {"omega0": 0.0}, "omega0 must be > 0"),
    ("fig3", {"mu_points": 0}, "mu_points must be >= 1"),
    ("fig3", {"ob_points": 0}, "ob_points must be >= 1"),
    ("fig3", {"tau": 0}, "tau must be > 0"),
    ("fig3", {"ob_min": -0.5}, "need tau > 0 and omega_bar >= 0"),
    ("ergotropy", dict(RHO2, tolerances={"bogus": 1e-9}), "unknown tolerance 'bogus'"),
    ("ergotropy", dict(RHO2, tolerances={"reconstruction": 1e-9}),
     "unknown tolerance 'reconstruction'"),
    ("ergotropy", dict(RHO2, tolerances={"trace": -1e-9}),
     "tolerance trace must be a finite number >= 0"),
    ("ergotropy", dict(RHO2, tolerances={"trace": float("nan")}),
     "tolerance trace must be a finite number >= 0"),
    ("ergotropy", dict(RHO2, tolerances={"trace": float("inf")}),
     "tolerance trace must be a finite number >= 0"),
    ("ergotropy", dict(RHO2, tolerances={"trace": "1e-9"}),
     "tolerance trace must be a finite number >= 0"),
    ("ergotropy", dict(RHO2, tolerances={"trace": True}),
     "tolerance trace must be a finite number >= 0"),
    ("ergotropy", dict(RHO2, tolerances=[1e-9]), "tolerances must be an object"),
    ("drive-synth", dict(RHO2, tolerances={"bogus": 1e-9}), "unknown tolerance 'bogus'"),
])
def test_degenerate_sweep_configs_are_refused(tmp_path, capsys, command, cfg, message):
    path = write_cfg(tmp_path, "bad.json", cfg)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", path, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ParamOutOfRange", "message": err["message"]}
    assert message in err["message"]
    assert not out.exists()


def test_majorization_slack_override_is_honored(tmp_path, capsys):
    rho = DensityMatrix(np.diag([0.5, 0.25, 0.25]))
    h = HamiltonianOp(np.diag([0.0, 1.0, 1.2]))
    p_th = solve_beta_for_energy(h, h.energy(rho)).populations
    assert not majorizes(rho.populations_desc(), p_th)
    assert majorizes(rho.populations_desc(), p_th, slack=0.05)
    base = {"rho_i": matrix_to_json(rho.mat), "h_i": matrix_to_json(h.mat),
            "h_f": matrix_to_json(h.mat)}
    held = []
    for extra in ({}, {"tolerances": {"majorization_slack": 0.5}}):
        cfg = write_cfg(tmp_path, "slack.json", dict(base, **extra))
        assert run(["ergotropy", "--config", cfg]) == 0
        held.append(json.loads(capsys.readouterr().out)["majorization_holds"])
    assert held == [False, True]


def test_zero_steps_are_refused(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "d.json", RHO2)
    assert run(["drive-synth", "--config", cfg, "--steps", "0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ParamOutOfRange", "message": "n_steps must be positive"}


@pytest.mark.parametrize("command, flags", [
    ("ergotropy", ["--seed", "1"]),
    ("ergotropy", ["--steps", "64"]),
    ("ergotropy", ["--threads", "2"]),
    ("drive-synth", ["--seed", "1"]),
    ("drive-synth", ["--threads", "2"]),
    ("fig1", ["--steps", "64"]),
    ("fig2", ["--steps", "64"]),
    ("fig3", ["--steps", "64"]),
    ("counterexample", ["--steps", "64"]),
])
def test_flags_belong_to_the_commands_that_take_them(command, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command] + flags)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_every_figure_command_takes_seed_and_threads(tmp_path):
    configs = {"fig1": {"p_points": 2, "c_points": 2, "mc_draws": 2},
               "fig2": {"ot_points": 2, "ots_points": 2},
               "fig3": {"mu_points": 2, "ob_points": 2}, "counterexample": {}}
    for command, cfg in configs.items():
        path = write_cfg(tmp_path, f"{command}.json", cfg)
        assert run([command, "--config", path, "--out", str(tmp_path / "o.csv"),
                    "--seed", "5", "--threads", "2"]) == 0


def test_write_csv_formats_cells_as_the_per_cell_formatter(capsys):
    row = (float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 3, -7, True,
           np.float64(0.1), np.float32(0.1), np.int64(12), np.float64(-0.0), 1e-310, 2.0**70)
    header = [f"c{k}" for k in range(len(row))]
    cli.write_csv(header, [row, list(reversed(row))])
    want = [",".join(header), ",".join(cli._fmt(v) for v in row),
            ",".join(cli._fmt(v) for v in reversed(row))]
    assert capsys.readouterr().out == "\n".join(want) + "\n"
    assert want[1].startswith("nan,inf,-inf,-0,0,3,-7,1,0.10000000000000001,")
