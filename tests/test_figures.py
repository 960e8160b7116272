"""Whole-grid figure sweeps against the per-point oracle, byte for byte."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from ergodrive import MuDynParams, cli, ergotropy, states, tls
from helpers import csv_text, fig1_oracle, fig2_oracle, fig3_oracle

HEADERS = {
    "fig1": ["p_i", "c_abs", "delta_enc", "g", "w_min", "w_mc_mean", "w_mc_stderr"],
    "fig2": ["omega0_tau", "omega0_taustar", "w_sta", "w_min_lower", "delta_enc", "g",
             "delta_e_sta"],
    "fig3": ["mu", "omega_bar", "w_sta", "w_min_lower", "w_min_upper", "delta_enc",
             "delta_e_sta"],
}

FIG1 = {
    "benchmark": ({"p_points": 24, "c_points": 24, "mc_draws": 1024}, 0),
    "benchmark_seed": ({"p_points": 24, "c_points": 24, "mc_draws": 1024}, 20210611),
    "default": ({"mc_draws": 0}, 0),
    "one_p": ({"p_points": 1, "c_points": 7, "mc_draws": 8}, 2),
    "one_c": ({"p_points": 7, "c_points": 1, "mc_draws": 8}, 2),
    "one_cell": ({"p_points": 1, "c_points": 1, "mc_draws": 2}, 2),
    # p in {0, 1/4, 1/2, 3/4, 1}, |c| in {0, max/2, max}: (1/2, 0) is maximally mixed
    "edges": ({"p_points": 5, "c_points": 3, "mc_draws": 16}, 3),
    "negative_gap": ({"p_points": 9, "c_points": 5, "mc_draws": 4, "lam_f_omega": -2.0,
                      "tau": 0.3}, 4),
    "zero_gap": ({"p_points": 9, "c_points": 5, "mc_draws": 0, "lam_f_omega": 0.0}, 0),
    "inner_range": ({"p_points": 61, "c_points": 37, "mc_draws": 0, "p_min": 0.2,
                     "p_max": 0.8, "lam_f_omega": 3.7, "tau": 2.5}, 0),
}
FIG2 = {
    "benchmark": {"ot_points": 28, "ots_points": 28},
    "default": {},
    "one_ot": {"ot_points": 1, "ots_points": 5},
    "one_ots": {"ot_points": 5, "ots_points": 1},
    "maximally_mixed": {"p_i": 0.5, "c_abs": 0.0, "ot_points": 9, "ots_points": 7},
    "ground": {"p_i": 0.0, "c_abs": 0.0, "ot_points": 9, "ots_points": 7},
    "excited": {"p_i": 1.0, "c_abs": 0.0, "ot_points": 9, "ots_points": 7, "omega0": 2.5},
    "wide": {"p_i": 0.3, "c_abs": 0.2, "ot_points": 31, "ots_points": 29, "omega0": 0.7,
             "ot_max": 60.0, "ots_min": 0.1},
}
FIG3 = {
    "benchmark": {"mu_points": 61, "ob_points": 61},
    "default": {},
    "one_mu": {"mu_points": 1, "ob_points": 5},
    "one_ob": {"mu_points": 5, "ob_points": 1},
    # mu = 0 sits mid-grid, omega_bar = 0 on its edge, nu runs past 4 pi
    "signed_mu": {"mu_min": -3.0, "mu_max": 3.0, "mu_points": 31, "ob_points": 33,
                  "ob_max": 12.0},
    "maximally_mixed": {"p_i": 0.5, "c_abs": 0.0, "mu_points": 9, "ob_points": 9},
    "negative_omega_f": {"omega_f": -5.0, "tau": 2.0, "p_i": 1.0, "c_abs": 0.0,
                         "mu_points": 11, "ob_points": 9},
    "ground": {"p_i": 0.0, "c_abs": 0.0, "tau": 0.5, "mu_min": -1.0, "mu_points": 11,
               "ob_points": 9},
}

# sha256 of the CSV text followed by the stderr text of every case above, as
# the per-point sweeps (one set of objects per grid cell) printed them before
# the sweeps became array programs. The oracle shares its closed-form kernels
# with the sweeps; these digests pin the bytes independently of them.
RECORDED_SHA256 = {
    "fig1/benchmark": "6d18ad8be2f82947d011d7de624807b5936a7f63b6843f73db475f0c23945779",
    "fig1/benchmark_seed": "c8343690f51c339f03881b9c8bceab533b3aa90767372af834ce02d4f06b3fcf",
    "fig1/default": "4162d39ac5f6999948ddb78ae850b3571337fe941c8039f8d04a358e56a2b8b0",
    "fig1/edges": "ac1a5462d7410c6394bdb51cb59f13d2607f95a93d0da53acdc47d0a044aab8a",
    "fig1/inner_range": "3784e3f45f14926d083716e546772e4f4947be51bb83ba5748e9cbd75a80f51f",
    "fig1/negative_gap": "d3ac52c8ea0b17b8bf8264576608341a8abe3f242c0db06ed0b9982963f2e821",
    "fig1/one_c": "fd0ca690480ea900a759db373b72f4d240c3ca7690f56dd7fd0ea2b9daf78759",
    "fig1/one_cell": "d406fd0195111efe99fdeecf1152aa98e07401e4e2ed32e814417dc369fdd6a3",
    "fig1/one_p": "481adf97032c29425c98ef814cc8468d479995f7a4e63ad6add74b105e61aef3",
    "fig1/zero_gap": "caa047ea1d817c9281b1bf1df5b59b7dd146ab27d886c1a293fc827922012621",
    "fig2/benchmark": "b468d2b150f2b447776a2d3cc690c6e16d16998624c93886683df8b38b5ec03c",
    "fig2/default": "4cb6fb43ca4ca5b3e7d7a3872cb1e4e002bb9ffe30478dfe812ba11cbefdac8e",
    "fig2/excited": "2dc09c8e0a47a60d26c3c159925996096ac9be1f6fe33ca7bcb29bfb59abe46e",
    "fig2/ground": "a04fd8ab88b8107ae99bafac708fd443bb540f8ba2d8279bfc7218a24cc19f98",
    "fig2/maximally_mixed": "94e3291595c2ec02ba0b944390a23c7cf6359a43cbe0141e244f05d01eb4de03",
    "fig2/one_ot": "e4696e1966e67cde7ed8c8ae9f03c2f5506fe118ecbd59b20b99c4f8bcb6d949",
    "fig2/one_ots": "d53ed7d15c0f3329f1ffb5e5ab44f3bf9671b5cda6957f04ef44f6436abee956",
    "fig2/wide": "815d1bd7e608490e1c86375c4fbc7579027b9b37fce83b5f1c6a098bd9c934ee",
    "fig3/benchmark": "e661bc22465f8e20dc5212e1e25c0f1b7fbf16293bff623701d74ef64d7d8d8b",
    "fig3/default": "ce2066c3e182785a7fe500f0d7e1aeac369dfcd8e0e56b4fd2edd2c56f581f33",
    "fig3/ground": "5d4815cac1f0725437884f6e93ba1383cefd83fcf36570e5a94ee0b640cbef33",
    "fig3/maximally_mixed": "d0da09a01ccf322322f709517a5ca988c135914649d88258e36d30c6189f308a",
    "fig3/negative_omega_f": "48e431259be2023b63a61b64d5bdf7cd6f43f2cd06a4cf18e648173dc64c3578",
    "fig3/one_mu": "aef160307ffd32e33a96b92f27e6c90928f89e0bed67d64eda88fe89722bbeae",
    "fig3/one_ob": "483f4e7840d176782b5a47b1391e470303508f54217e98fbb567974a80da3d93",
    "fig3/signed_mu": "3b5816c78725228321836e3e1d2553a9d5aede99a98935cc4ea796b3f9cf3ebb",
}


def run_cli(tmp_path, capsys, name, cfg, seed=0):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / f"{name}.csv"
    capsys.readouterr()
    assert cli.main([name, "--config", str(cfg_path), "--out", str(out),
                     "--seed", str(seed)]) == 0
    return out.read_text(), capsys.readouterr().err


def digest(text, err=""):
    return hashlib.sha256((text + err).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(FIG1))
def test_fig1_matches_the_per_point_oracle(tmp_path, capsys, case):
    cfg, seed = FIG1[case]
    text, err = run_cli(tmp_path, capsys, "fig1", cfg, seed)
    rows, crossover = fig1_oracle(cfg, seed)
    assert text == csv_text(HEADERS["fig1"], rows)
    assert err == "crossover_p = %.17g\n" % crossover
    assert digest(text, err) == RECORDED_SHA256[f"fig1/{case}"]


@pytest.mark.parametrize("case", sorted(FIG2))
def test_fig2_matches_the_per_point_oracle(tmp_path, capsys, case):
    text, _ = run_cli(tmp_path, capsys, "fig2", FIG2[case])
    assert text == csv_text(HEADERS["fig2"], fig2_oracle(FIG2[case]))
    assert digest(text) == RECORDED_SHA256[f"fig2/{case}"]


@pytest.mark.parametrize("case", sorted(FIG3))
def test_fig3_matches_the_per_point_oracle(tmp_path, capsys, case):
    text, _ = run_cli(tmp_path, capsys, "fig3", FIG3[case])
    assert text == csv_text(HEADERS["fig3"], fig3_oracle(FIG3[case]))
    assert digest(text) == RECORDED_SHA256[f"fig3/{case}"]


def test_oracle_grids_reach_both_signs_of_sin_nu():
    def sin_nu(params):
        return np.sin(tls.nu(params.mu, params.omega_bar))

    fig2 = [sin_nu(MuDynParams.cos_sin(1.0, ot, ots))
            for ot in np.linspace(0.5, 20.0, 40) for ots in np.linspace(0.5, 20.0, 40)]
    cfg = FIG3["signed_mu"]
    fig3 = [sin_nu(MuDynParams(mu=mu, omega_bar=ob, omega_f=20.0, eps_f=0.0, tau=1.0))
            for mu in np.linspace(cfg["mu_min"], cfg["mu_max"], cfg["mu_points"])
            for ob in np.linspace(0.0, cfg["ob_max"], cfg["ob_points"])]
    for signs in (fig2, fig3):
        assert min(signs) < 0 < max(signs)


@pytest.fixture
def counts(monkeypatch):
    """Objects built and per-point closed forms called while a sweep runs."""
    seen = {"DensityMatrix": 0, "HamiltonianOp": 0, "gain_g": 0, "example1_phase_average": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in (states.DensityMatrix, states.HamiltonianOp):
        monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))
    monkeypatch.setattr(ergotropy, "gain_g", counting("gain_g", ergotropy.gain_g))
    monkeypatch.setattr(tls, "example1_phase_average",
                        counting("example1_phase_average", tls.example1_phase_average))
    return seen


@pytest.mark.parametrize("name, small, large, most", [
    ("fig1", {"p_points": 2, "c_points": 2, "mc_draws": 2},
     {"p_points": 60, "c_points": 50, "mc_draws": 2},
     {"DensityMatrix": 0, "HamiltonianOp": 1, "example1_phase_average": 1}),
    ("fig2", {"ot_points": 2, "ots_points": 2}, {"ot_points": 60, "ots_points": 50},
     {"DensityMatrix": 1, "HamiltonianOp": 1}),
    ("fig3", {"mu_points": 2, "ob_points": 2}, {"mu_points": 60, "ob_points": 50},
     {"DensityMatrix": 0, "HamiltonianOp": 0}),
])
def test_sweeps_build_a_fixed_number_of_objects(counts, name, small, large, most):
    run = {"fig1": cli.run_fig1, "fig2": cli.run_fig2, "fig3": cli.run_fig3}[name]
    seen = []
    for cfg in (small, large):
        for key in counts:
            counts[key] = 0
        run(cfg)
        seen.append(dict(counts))
    assert seen[0] == seen[1] == dict(dict.fromkeys(counts, 0), **most)


def test_fig1_monte_carlo_runs_in_blocks_of_cells_not_on_the_whole_grid():
    # the phase draws of all 48 x 48 cells at once would take 37.7 MB
    cfg = {"p_points": 48, "c_points": 48, "mc_draws": 1024}
    tracemalloc.start()
    try:
        cli.run_fig1(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
