"""Command-line interface: determinism, schemas, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ergodrive
from ergodrive import (DensityMatrix, HamiltonianOp, Schedule, cli, drives, ergotropy,
                       matrix_to_json, optimize_phases, synthesize_drive)
from ergodrive.errors import ParamOutOfRange
from ergodrive.tolerances import REPORT_ROUNDING_REL
from helpers import (count_exponentials, open_drive_exponentials, random_hermitian,
                     random_instance)

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
    cli.write_csv(["a", "b"], [(1.0,), (0.5,)], None)
    out = capsys.readouterr().out
    assert out == "a,b\n1,0.5\n"
    path = tmp_path / "t.csv"
    cli.write_csv(["a"], [(2.0,)], str(path))
    assert path.read_bytes() == b"a\n2\n"
    cli.write_csv(["x", "k"], (np.array([0.5, 2.0]), 7.0))   # scalars broadcast
    assert capsys.readouterr().out == "x,k\n0.5,7\n2,7\n"
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
    lengths = count_exponentials(monkeypatch)
    out = cli.run_drive_synth(cfg, 2048)
    # the steps of U0 on the synthesis grid, whose last sample the analytic
    # phases take; then verification's own U0 on its grid of 2n steps and
    # H0 + V on the n-step grid
    assert lengths == [2048, 4096, 2048]
    monkeypatch.undo()
    # the same numbers as optimizer and synthesizer each propagating U0 themselves
    rho, h_i, h_f = cli._load_instance(cfg)
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
    assert run(["drive-synth", "--config", cfg, "--steps", "4"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "VerificationFailed"
    assert err["residuals"]["state_distance"] > 1e-6


def test_drive_synth_steps_below_the_verification_stencil(tmp_path, capsys):
    # rho is passive for h_i = h_f diagonal: the drive only corrects phases,
    # commutes with H0 and verifies on any grid from the stencil's minimum
    # up; one step is refused, not crashed on
    cfg = write_cfg(tmp_path, "d.json",
                    {"rho_i": matrix_to_json(np.diag([0.7, 0.3]).astype(complex)),
                     "h_i": RHO2["h_f"], "h_f": RHO2["h_f"]})
    assert run(["drive-synth", "--config", cfg, "--steps", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParamOutOfRange" and "n_steps >= 2" in err["message"]
    for steps in ("2", "3"):
        assert run(["drive-synth", "--config", cfg, "--steps", steps]) == 0
        assert json.loads(capsys.readouterr().out)["residuals"]["state_distance"] < 1e-12


def test_drive_synth_step_count_is_exact_or_estimated(monkeypatch):
    rng = np.random.default_rng(73)
    cfg = {"rho_i": matrix_to_json(np.diag([0.2, 0.8]).astype(complex)),
           "h_i": matrix_to_json(random_hermitian(rng, 2)),
           "h_f": matrix_to_json(random_hermitian(rng, 2)), "tau": 1.0}
    lengths = count_exponentials(monkeypatch)
    chosen = cli.run_drive_synth(cfg)
    # U0's count n0 from one estimate, whose grids double up to it; then one
    # driven estimate per count tried, from n0 up to the verified n
    n0 = next(a for a, b in zip(lengths, lengths[1:]) if b < a)
    n = lengths[-1]
    counts = [n0 * 2**k for k in range((n // n0).bit_length())]
    assert n0 in (64, 128, 256) and lengths == open_drive_exponentials(n0, counts)
    # an explicit count, from --steps or the config, is honoured with no
    # estimate: one U0 trace, then verification's two grids
    lengths.clear()
    assert cli.run_drive_synth(cfg, n) == chosen
    assert cli.run_drive_synth(dict(cfg, n_steps=n)) == chosen
    cli.run_drive_synth(dict(cfg, n_steps=100), 33)
    assert lengths == [n, 2 * n, n] * 2 + [33, 66, 33]


def test_open_drive_forms_each_grids_steps_once(monkeypatch):
    # at n = 128 the U0 estimate forms 32 + 64 + 128 steps, and the synthesis
    # multiplies the last 128 of them into its U0 trace instead of forming
    # them again; the driven estimate forms 64 + 32 and verification its own
    # 256 + 128: 704 in all, and the same bytes as the fixed-count drive
    rng = np.random.default_rng(73)
    cfg = {"rho_i": matrix_to_json(np.diag([0.2, 0.8]).astype(complex)),
           "h_i": matrix_to_json(random_hermitian(rng, 2)),
           "h_f": matrix_to_json(random_hermitian(rng, 2)), "tau": 1.0}
    lengths = count_exponentials(monkeypatch)
    out = cli.run_drive_synth(cfg)
    assert lengths == [32, 64, 128, 64, 32, 256, 128]
    assert (sum(lengths[:3]), sum(lengths[3:5]), sum(lengths[5:])) == (224, 96, 384)
    assert sum(lengths) == 704
    assert cli.run_drive_synth(cfg, 128) == out


def test_propagations_only_ever_get_a_fixed_step_count(monkeypatch):
    # drive-synth's default count, whose driven estimate doubles 64 to 512
    # steps here, forms every grid's steps at an integer count; a grid phase
    # scan on a schedule that leaves its count open takes U0(tau) from the
    # count's estimate and propagates nothing
    h = matrix_to_json(np.diag([0.0, 20.0]).astype(complex))
    cfg = {"rho_i": matrix_to_json(np.array([[0.6, 0.3 + 0.1j], [0.3 - 0.1j, 0.4]])),
           "h_i": h, "h_f": h, "tau": 1.0}
    verified = []
    verify = cli.verify_drive

    def verifying(synth, rho, h_i, h_f, sched):
        verified.append(len(synth.v_samples) - 1)   # sched leaves the count open
        return verify(synth, rho, h_i, h_f, sched)

    lengths = count_exponentials(monkeypatch)
    monkeypatch.setattr(cli, "verify_drive", verifying)
    cli.run_drive_synth(cfg)
    # U0 is exact here, so its estimate picks 64; one U0 trace per grid
    # tried, the first of them the estimate's own steps, and one driven
    # estimate on each
    assert lengths == [32, 64, 32, 16, 128, 64, 32, 256, 128, 64, 512, 256, 128, 1024, 512]
    assert lengths == open_drive_exponentials(64, [64, 128, 256, 512]) and verified == [512]
    rho, h_i, h_f = random_instance(np.random.default_rng(74), 3)
    lengths.clear()
    n, _ = drives.final_unitary(h_i, h_f, Schedule.linear(1.0))
    estimate = lengths.copy()
    lengths.clear()
    optimize_phases(rho, h_i, h_f, Schedule.linear(1.0), mode="grid", grid_points=4)
    assert lengths == estimate == [32 * 2**k for k in range(n.bit_length() - 5)]


@pytest.mark.parametrize("width", [20.0, 50.0])
def test_drive_synth_default_grid_resolves_the_drive(tmp_path, capsys, width):
    # h_i = h_f commute, so U0 is exact on any grid and its estimate picks 64
    # steps; V = -fdot U0 chi U0^dag still rotates at the gap, and the default
    # count must resolve the propagation of H0 + V that verification integrates
    h = matrix_to_json(np.diag([0.0, width]).astype(complex))
    cfg = write_cfg(tmp_path, "gap.json",
                    {"rho_i": matrix_to_json(np.array([[0.6, 0.3 + 0.1j], [0.3 - 0.1j, 0.4]])),
                     "h_i": h, "h_f": h, "tau": 1.0})
    assert run(["drive-synth", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["residuals"]["state_distance"] <= 1e-8


def test_drive_synth_default_grid_refuses_past_the_step_cap(tmp_path, capsys):
    # a gap of 1e4 would need several 1e5 steps to resolve H0 + V
    h = matrix_to_json(np.diag([0.0, 1e4]).astype(complex))
    cfg = write_cfg(tmp_path, "wide.json",
                    {"rho_i": matrix_to_json(np.array([[0.6, 0.3], [0.3, 0.4]])),
                     "h_i": h, "h_f": h, "tau": 1.0})
    assert run(["drive-synth", "--config", cfg]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoConvergence" and "driven propagation" in err["message"]
    assert "more than 65536 steps" in err["message"]


@pytest.mark.parametrize("steps", ["32769", str(10**19), None])
def test_drive_synth_refuses_explicit_counts_past_the_step_cap(tmp_path, capsys, monkeypatch,
                                                                steps):
    # verification propagates 2n steps, at most 65536: 32769 is one count
    # past that, and 10**19 or a config's 1e8 steps would not even fit their
    # time grids in memory; each is refused before anything is sampled
    monkeypatch.setattr(Schedule, "times", lambda *args: pytest.fail("sampled a refused grid"))
    rng = np.random.default_rng(70)
    cfg = {"rho_i": matrix_to_json(np.diag([0.2, 0.8]).astype(complex)),
           "h_i": matrix_to_json(random_hermitian(rng, 2)),
           "h_f": matrix_to_json(random_hermitian(rng, 2)), "tau": 1.0, "phases": "analytic2"}
    argv = ["drive-synth", "--config"]
    if steps is None:
        argv.append(write_cfg(tmp_path, "cap.json", dict(cfg, n_steps=1e8)))
    else:
        argv += [write_cfg(tmp_path, "cap.json", cfg), "--steps", steps]
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParamOutOfRange" and "more than 65536" in err["message"]


@pytest.mark.parametrize("phases, dim, tau, error", [
    ("grid", 2, 1e30, "ParamOutOfRange"),
    ([0.1, 0.2, 0.3], 2, 1e4, "LengthMismatch"),
    ("analytic2", 3, 1.0, "DimTooLarge")])
def test_drive_synth_refuses_bad_phases_before_propagating(tmp_path, capsys, monkeypatch,
                                                           phases, dim, tau, error):
    # at tau = 1e30 U0's first estimate is NaN (exit 3), and at tau = 1e4 it
    # runs to the step cap: the phases are refused before either is sampled
    monkeypatch.setattr(Schedule, "times", lambda *args: pytest.fail("sampled a grid"))
    h_f = np.array([[0.0, 0.2], [0.2, 1.5]]) if dim == 2 else np.diag([0.0, 0.4, 1.1])
    cfg = {"rho_i": matrix_to_json(np.diag(np.arange(1.0, dim + 1) / (dim * (dim + 1) / 2))),
           "h_i": matrix_to_json(np.diag(np.arange(float(dim)))),
           "h_f": matrix_to_json(h_f), "tau": tau, "phases": phases}
    assert run(["drive-synth", "--config", write_cfg(tmp_path, "phases.json", cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == error


def _pinned_drive_cfg(seed, d, **extra):
    rho, h_i, h_f = random_instance(np.random.default_rng([75, seed, d]), d)
    return dict({"rho_i": matrix_to_json(rho.mat), "h_i": matrix_to_json(h_i.mat),
                 "h_f": matrix_to_json(h_f.mat), "tau": 1.0}, **extra)


PINNED_DRIVES = {
    "d2_analytic2_open": _pinned_drive_cfg(1, 2, phases="analytic2"),
    "d3_phases": _pinned_drive_cfg(2, 3, phases=[0.4, -1.1, 2.5]),
    "d4_zeros": _pinned_drive_cfg(3, 4, phases="zeros"),
    "d3_4096_steps": _pinned_drive_cfg(4, 3, phases=[-0.3, 0.0, 1.7], n_steps=4096),
    # partial last blocks: the scan (2 blocks, 4 when verified), and the
    # sequential in-block loop (16 blocks, 32 when verified)
    "d2_100_steps": _pinned_drive_cfg(5, 2, phases="analytic2", n_steps=100),
    "d4_1000_steps": _pinned_drive_cfg(6, 4, phases="zeros", n_steps=1000),
    # an open count whose driven estimate doubles it from 64 to 512 steps:
    # the synthesis propagates U0 afresh on every count after the first
    "d2_doubled_to_512": {
        "rho_i": matrix_to_json(np.array([[0.6, 0.3 + 0.1j], [0.3 - 0.1j, 0.4]])),
        "h_i": matrix_to_json(np.diag([0.0, 20.0])),
        "h_f": matrix_to_json(np.diag([0.0, 20.0])), "tau": 1.0},
}
# sha256 of cli.run_drive_synth's JSON (as write_json prints it) for every
# config above, recorded before the propagations' scratch stacks became fresh
# arrays (the two partial-block ones before the kernels returned their own
# arrays, the doubled one before the synthesis reused the steps of U0's
# estimate on its first count); they pin the bytes independently of any oracle
PINNED_DRIVE_SHA256 = {
    "d2_100_steps": "28013a7350e1003b7bf2c753d7018059de2adb3e1ab6924231dd395edd1e1089",
    "d2_analytic2_open": "b32e576006a2aa270bd863e7f5283fc308e56280c191398e5133493d22f8e916",
    "d2_doubled_to_512": "9aaa46b0a47b7b93cf959d3aebc4de235b039a5b5f3cd5919d963e530d74ffed",
    "d3_4096_steps": "ddebad67bd27f1baef5df88c6686d3cf6f2db3bb1908cf0a3886685a93460db9",
    "d3_phases": "9aeb9129421d0b8933c17653a2fab11c0cef1a8f245f6198c2a31f51605deb83",
    "d4_1000_steps": "ace625802ced415ec97ffab8190b424f57602789547f2502206508d4eb0377bb",
    "d4_zeros": "621e1d80fd7d2d1698908aaee0a9f844e009de328d0d42eb9f71fa8b6f1aa2c2",
}


@pytest.mark.parametrize("case", sorted(PINNED_DRIVES))
def test_drive_synth_json_matches_its_recorded_digest(case):
    text = json.dumps(cli.run_drive_synth(PINNED_DRIVES[case]), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DRIVE_SHA256[case]


# sha256 of synthesize_drive's JSON (as write_json prints it) and of its V
# samples' bytes on a rotating schedule with the endpoints of
# test_converged_final_unitary, recorded when the cos/sin drive became its
# constant-mu (mu, omega_bar)
ROTATING_DRIVE_SHA256 = {
    "json": "f8d8afbbce6cc8ddd0dc2b2645a1c37c3935305ac652609a72776ef59bf994f7",
    "v_samples": "863f9cecd2a2ccf64990d760f91f1ea1a486172b759f2d5a4bca9db5e3cbe855",
}


def test_rotating_drive_matches_its_recorded_digest():
    angle = np.pi * 2.0 / (2 * 0.7)
    sz, sx = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    h_i = HamiltonianOp(0.5 * sz)
    h_f = HamiltonianOp(0.5 * (np.cos(angle) * sz + np.sin(angle) * sx))
    rho = DensityMatrix(np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]]))
    sched = Schedule.rotating_cos_sin(1.0, tau=2.0, tau_star=0.7, n_steps=512)
    synth = synthesize_drive(rho, h_i, h_f, sched, [0.4, -1.3])
    text = json.dumps(synth.to_json(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == ROTATING_DRIVE_SHA256["json"]
    assert (hashlib.sha256(synth.v_samples.tobytes()).hexdigest()
            == ROTATING_DRIVE_SHA256["v_samples"])


def test_drive_synth_is_the_library_drive_on_an_open_schedule():
    # the CLI maps the config and verifies; the step count and the analytic
    # phases are the library's
    cfg = PINNED_DRIVES["d2_analytic2_open"]
    rho, h_i, h_f = cli._load_instance(cfg)
    out = cli.run_drive_synth(cfg)
    del out["residuals"]
    assert synthesize_drive(rho, h_i, h_f, Schedule.linear(1.0), "analytic2").to_json() == out


@pytest.mark.parametrize("command, cfg, message", [
    ("fig1", {"p_points": 10**7, "c_points": 10**7, "mc_draws": 0},
     "a 10000000 x 10000000 grid has more than 262144 cells"),
    ("fig1", {"p_points": 4, "c_points": 4, "mc_draws": 10**13},
     "mc_draws must be at most 65536, got 10000000000000"),
    ("fig2", {"ot_points": 1024, "ots_points": 257}, "more than 262144 cells"),
    ("fig3", {"mu_points": 513, "ob_points": 512}, "more than 262144 cells")])
def test_oversized_figure_configs_are_refused_before_allocating(tmp_path, capsys, command,
                                                                cfg, message):
    # the first two would need hundreds of TiB for the grid or for fig1's
    # draw blocks: each is refused with exit 2 before an array is formed
    path, out = write_cfg(tmp_path, "big.json", cfg), tmp_path / "big.csv"
    tracemalloc.start()
    try:
        assert run([command, "--config", path, "--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParamOutOfRange" and message in err["message"]
    assert not out.exists()


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


@pytest.mark.parametrize("exponent", [400, 5000])
def test_integers_beyond_float_range_are_refused_in_process(exponent):
    # 10**5000 has no repr under Python's 4300-digit limit
    with pytest.raises(ParamOutOfRange, match="p_points must be a finite number, got an "
                                              "integer beyond float range"):
        cli.run_fig1({"p_points": 10**exponent}, 0)


def _with_entry(matrix, value):
    return dict(matrix, re=[value] + matrix["re"][1:])


@pytest.mark.parametrize("command, text, error", [
    # beyond float range: math.isfinite and float conversion overflow
    ("fig1", '{"p_points": 1' + "0" * 400 + "}", "ParamOutOfRange"),
    ("ergotropy", json.dumps(dict(RHO2, rho_i=_with_entry(RHO2["rho_i"], 10**400))),
     "DimMismatch"),
    # past Python's 4300-digit limit, json.load raises a plain ValueError
    ("drive-synth", '{"tau": ' + "1" * 5001 + "}", "ParamOutOfRange"),
    ("drive-synth", '{"tau": 1.0,', "JSONDecodeError"),
])
def test_oversized_json_integers_exit_2(tmp_path, capsys, command, text, error):
    path = tmp_path / "big.json"
    path.write_text(text)
    assert run([command, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == error


@pytest.mark.parametrize("command, key, value, error", [
    ("ergotropy", "rho_i", float("nan"), "NotAState"),
    ("drive-synth", "rho_i", float("nan"), "NotAState"),
    ("drive-synth", "h_i", float("nan"), "NotHermitian"),
    ("drive-synth", "h_i", float("inf"), "NotHermitian"),
    ("ergotropy", "h_f", float("-inf"), "NotHermitian"),
])
def test_non_finite_matrix_entries_exit_2(tmp_path, capsys, command, key, value, error):
    # json writes NaN and Infinity, and json.load reads them back
    cfg = write_cfg(tmp_path, "nan.json", dict(RHO2, **{key: _with_entry(RHO2[key], value)}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", cfg]) == 2
    out, err = capsys.readouterr()
    payload = json.loads(err)
    assert out == "" and set(payload) == {"error", "message"}
    assert payload["error"] == error and "non-finite" in payload["message"]


@pytest.mark.parametrize("command, dim", [
    ("ergotropy", -1), ("ergotropy", 0), ("ergotropy", 2.5), ("ergotropy", True),
    ("ergotropy", "2"), ("ergotropy", None), ("drive-synth", -1), ("drive-synth", False),
])
def test_bad_matrix_dims_exit_2(tmp_path, capsys, command, dim):
    cfg = write_cfg(tmp_path, "dim.json", dict(RHO2, rho_i=dict(RHO2["rho_i"], dim=dim)))
    assert run([command, "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "DimMismatch",
                               "message": f"dim must be an integer >= 1, got {dim!r}"}


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
    # the thresholds are fixed: a config that still sets any is refused
    ("ergotropy", dict(RHO2, tolerances={"trace": 1e-9}), "tolerances key is no longer accepted"),
    ("ergotropy", dict(RHO2, tolerances={}), "tolerances key is no longer accepted"),
    ("drive-synth", dict(RHO2, tolerances={"branch_cut": 7.0}),
     "tolerances key is no longer accepted"),
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


@pytest.mark.parametrize("command, cfg, flags, message", [
    # a grid spacing below the smallest normal float, on the open count and
    # on a fixed one, is refused before anything is sampled
    ("drive-synth", dict(RHO2, tau=5e-324), [], "spaced below the smallest normal float"),
    ("drive-synth", dict(RHO2, tau=1e-320), [], "spaced below the smallest normal float"),
    ("drive-synth", dict(RHO2, tau=1e-320), ["--steps", "8"],
     "8 steps on tau = 1e-320 are spaced below the smallest normal float"),
    # a negative seed, with or without Monte Carlo columns
    ("fig1", {"p_points": 2, "c_points": 2, "mc_draws": 0}, ["--seed", "-1"],
     "seed must be an integer >= 0, got -1"),
    ("fig1", {"p_points": 2, "c_points": 2, "mc_draws": 4}, ["--seed", "-1"],
     "seed must be an integer >= 0, got -1"),
])
def test_subnormal_grids_and_negative_seeds_are_refused(tmp_path, capsys, command, cfg, flags,
                                                        message):
    path = write_cfg(tmp_path, "bad.json", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", path, *flags]) == 2
    out, err = capsys.readouterr()
    payload = json.loads(err)
    assert out == "" and payload == {"error": "ParamOutOfRange", "message": payload["message"]}
    assert message in payload["message"]


@pytest.mark.parametrize("command, cfg, message", [
    ("fig3", [1, 2], "config must be a JSON object, got list"),
    ("fig3", {"tau": "x"}, "tau must be a finite number, got 'x'"),
    ("fig3", {"tau": None}, "tau must be a finite number, got None"),
    ("fig3", {"mu_points": "abc"}, "mu_points must be a finite number, got 'abc'"),
    ("counterexample", {"e2f_list": 3}, "e2f_list must be a list of numbers, got 3"),
    ("counterexample", {"e2f_list": ["a"]}, "e2f_list entry must be a finite number, got 'a'"),
    ("fig2", {"c_abs": "1+"}, "c_abs must be a finite number, got '1+'"),
    ("drive-synth", dict(RHO2, tau="abc"), "tau must be a finite number, got 'abc'"),
    ("fig1", {"p_points": 2, "c_points": 2, "mc_draws": 2.5}, "mc_draws must be an integer, got 2.5"),
])
def test_configs_of_the_wrong_json_type_are_refused(tmp_path, capsys, command, cfg, message):
    path = write_cfg(tmp_path, "bad.json", cfg)
    assert run([command, "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "ParamOutOfRange", "message": message}


def test_package_imports_no_scipy():
    code = ("import sys, ergodrive, ergodrive.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(ergodrive.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout == "[]\n"


def test_zero_steps_are_refused(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "d.json", RHO2)
    assert run(["drive-synth", "--config", cfg, "--steps", "0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ParamOutOfRange", "message": "n_steps must be an integer >= 1, got 0"}


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
    cli.write_csv(header, list(zip(row, reversed(row))))
    want = [",".join(header), ",".join(cli._fmt(v) for v in row),
            ",".join(cli._fmt(v) for v in reversed(row))]
    assert capsys.readouterr().out == "\n".join(want) + "\n"
    assert want[1].startswith("nan,inf,-inf,-0,0,3,-7,1,0.10000000000000001,")


_NAN_PAYLOADS = np.array([0x7FF8000000000001, -0x0008000000000000], dtype=np.int64).view(float)


@pytest.mark.parametrize("columns", [
    # integers and bools are cast to float before their bits are compared
    [np.arange(-3, 4), np.full(7, 7), np.array([2**62, -2**63, 0, 1, 2**53 + 1, 5, 5])],
    [np.array([True, False, True]), np.array([False, False, True])],
    [np.array([0.0, -0.0, 0.0, -0.0]), np.array([-0.0, -0.0, 0.0, 0.0])],
    [np.array([np.nan, np.inf, -np.inf, np.nan]), np.array([-np.inf, np.nan, np.inf, np.inf]),
     np.array([np.inf, -np.inf, *_NAN_PAYLOADS])],
    [np.array([5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 1e-310])],
    [np.full(5, 0.1), np.linspace(0.0, 1.0, 5), np.full(5, 0.1)],
], ids=["ints", "bools", "signed-zeros", "nan-inf", "subnormal", "one-value-column"])
def test_write_csv_formats_each_distinct_value_as_the_per_cell_formatter(columns, capsys):
    header = [f"c{k}" for k in range(len(columns))]
    cli.write_csv(header, columns)
    want = [",".join(header)] + [",".join(cli._fmt(v) for v in row) for row in zip(*columns)]
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def test_main_shares_one_parser_and_no_state_between_calls(tmp_path, capsys):
    configs = {"fig1": {"p_points": 3, "c_points": 2, "mc_draws": 4},
               "fig3": {"mu_points": 3, "ob_points": 2}, "counterexample": {}}
    paths = {name: write_cfg(tmp_path, f"{name}.json", cfg) for name, cfg in configs.items()}
    out = tmp_path / "o.csv"

    def once(command, seed):
        flags = [] if seed is None else ["--seed", seed]
        assert run([command, "--config", paths[command], "--out", str(out)] + flags) == 0
        return out.read_bytes()

    fresh = {}
    for command in configs:
        for seed in ("5", None):
            cli.build_parser.cache_clear()
            fresh[command, seed] = once(command, seed)
    assert fresh["fig1", "5"] != fresh["fig1", None]   # the seed reaches fig1's draws
    cli.build_parser.cache_clear()
    for k in range(12):   # each (command, seed given or not) twice, alternating
        command, seed = ("fig1", "fig3", "counterexample")[k % 3], ("5", None)[k % 2]
        assert once(command, seed) == fresh[command, seed]
    assert cli.build_parser.cache_info().misses == 1
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run(["fig1", "--seed", "five"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
    assert once("fig1", None) == fresh["fig1", None]


def test_rho2_bound_is_not_reported_below_delta(tmp_path, capsys, monkeypatch):
    # delta_e_nc and upper_bound are both exactly 0 on RHO2, and the bound
    # computes a unit of roundoff below delta: within the rounding floor
    # (the largest |energy| is 1) the report lifts it to delta
    cfg = write_cfg(tmp_path, "e.json", RHO2)
    assert run(["ergotropy", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["delta_e_nc"] <= report["upper_bound"]
    assert abs(report["delta_e_nc"]) <= REPORT_ROUNDING_REL
    assert abs(report["upper_bound"]) <= REPORT_ROUNDING_REL
    assert report["gain_g"] >= 0.0
    # a shortfall beyond the floor is reported as computed
    monkeypatch.setattr(ergotropy, "REPORT_ROUNDING_REL", 0.0)
    assert run(["ergotropy", "--config", cfg]) == 0
    raw = json.loads(capsys.readouterr().out)
    assert raw["upper_bound"] < raw["delta_e_nc"] == report["delta_e_nc"]
