"""Command-line front end: scenario execution, figure sweeps, CSV/JSON output.

Output is deterministic: a fixed config and seed give byte-identical files.
CSV cells are printed with 17 significant digits and LF line endings; Monte
Carlo columns draw from a generator seeded per grid point as [seed, i, j],
so results do not depend on the thread count. Exit codes: 0 success,
2 validation error, 3 convergence failure (error JSON goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import ergotropy, tls
from .drives import Schedule, optimize_phases, synthesize_drive, verify_drive
from .errors import ConvergenceError, ParamOutOfRange, ValidationError, VerificationFailed
from .states import DensityMatrix, HamiltonianOp, matrix_from_json
from .tolerances import DEFAULT_TOLS

_SZ = np.diag([1.0, -1.0]).astype(complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _fmt(v) -> str:
    return "%.17g" % float(v)


def write_csv(header, rows, path=None):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def write_json(obj, path=None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ParamOutOfRange(f"config is missing required key {key!r}")
    return cfg[key]


def _tols(cfg: dict):
    return DEFAULT_TOLS.with_(**cfg.get("tolerances", {}))


def _map_ordered(worker, items, threads):
    """Run worker over items, results in item order regardless of scheduling."""
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(worker, items))
    return [worker(it) for it in items]


def _load_instance(cfg: dict):
    tols = _tols(cfg)
    rho = DensityMatrix(matrix_from_json(_require(cfg, "rho_i")), tols)
    h_i = HamiltonianOp(matrix_from_json(_require(cfg, "h_i")), tols)
    h_f = HamiltonianOp(matrix_from_json(_require(cfg, "h_f")), tols)
    return rho, h_i, h_f, tols


# ----------------------------------------------------------------- scenarios

def run_ergotropy(cfg: dict) -> dict:
    rho, h_i, h_f, _ = _load_instance(cfg)
    return ergotropy.full_report(rho, h_i, h_f).to_json()


def run_drive_synth(cfg: dict, n_steps=None) -> dict:
    rho, h_i, h_f, tols = _load_instance(cfg)
    tau = float(cfg.get("tau", 1.0))
    sched = Schedule.linear(tau, n_steps=int(n_steps or cfg.get("n_steps", 4096)))
    phases_cfg = cfg.get("phases", "zeros")
    if phases_cfg == "analytic2":
        phases = optimize_phases(rho, h_i, h_f, sched, mode="analytic2", tols=tols).phases
    elif phases_cfg == "zeros":
        phases = np.zeros(rho.dim)
    else:
        phases = np.asarray(phases_cfg, dtype=float)
    synth = synthesize_drive(rho, h_i, h_f, sched, phases, tols)
    energy_res, dist = verify_drive(synth, rho, h_i, h_f, sched, tols)
    return synth.to_json({"final_energy_residual": energy_res,
                          "state_distance": dist})


def fig1_crossover(ps, deltas, wmins) -> float:
    """Smallest grid population above which the gain stays >= the cost."""
    viol = np.nonzero(np.asarray(deltas) < np.asarray(wmins))[0]
    if viol.size == 0:
        return float(ps[0])
    k = viol[-1] + 1
    return float(ps[k]) if k < len(ps) else float("nan")


def run_fig1(cfg: dict, seed: int = 0, threads: int = 1):
    """Gain vs cost over the (p_i, |c_i|) disk for proportional Hamiltonians."""
    tau = float(cfg.get("tau", 10.0))
    lam_f_omega = float(cfg.get("lam_f_omega", 1.0))
    n_p = int(cfg.get("p_points", 200))
    n_c = int(cfg.get("c_points", 200))
    draws = int(cfg.get("mc_draws", 4096))
    ps = np.linspace(float(cfg.get("p_min", 0.0)), float(cfg.get("p_max", 1.0)), n_p)
    fracs = np.linspace(0.0, 1.0, n_c)
    h = HamiltonianOp(0.5 * lam_f_omega * _SZ)

    def point(ij):
        i, j = ij
        p = float(ps[i])
        c = float(fracs[j] * np.sqrt(max(p * (1.0 - p), 0.0)))
        s = tls.TlsState(p, c)
        delta = tls.example1_delta(s, lam_f_omega)
        g = ergotropy.gain_g(s.density(), h, h)
        w_min = tls.example1_wmin(s, tau)
        if draws > 0:
            rng = np.random.default_rng([seed, i, j])
            mean, err = tls.example1_phase_average(s, tau, draws, rng)
        else:
            mean = err = float("nan")
        return (p, c, delta, g, w_min, mean, err)

    rows = _map_ordered(point, [(i, j) for i in range(n_p) for j in range(n_c)], threads)
    top = [rows[i * n_c + (n_c - 1)] for i in range(n_p)]   # maximal-coherence slice
    crossover = fig1_crossover(ps, [r[2] for r in top], [r[4] for r in top])
    header = ["p_i", "c_abs", "delta_enc", "g", "w_min", "w_mc_mean", "w_mc_stderr"]
    return header, rows, crossover


def run_fig2(cfg: dict, threads: int = 1):
    """STA cost vs optimal cost for the quarter-period rotating drive."""
    omega0 = float(cfg.get("omega0", 1.0))
    s = tls.TlsState(float(cfg.get("p_i", 0.4)),
                     complex(cfg.get("c_abs", np.sqrt(0.24))))
    ots = np.linspace(float(cfg.get("ot_min", 0.5)), float(cfg.get("ot_max", 20.0)),
                      int(cfg.get("ot_points", 40)))
    otss = np.linspace(float(cfg.get("ots_min", 0.5)), float(cfg.get("ots_max", 20.0)),
                       int(cfg.get("ots_points", 40)))
    h_i = HamiltonianOp(0.5 * omega0 * _SZ)

    def point(ij):
        i, j = ij
        tau, tau_star = float(ots[i]) / omega0, float(otss[j]) / omega0
        params = tls.MuDynParams.cos_sin(omega0, tau, tau_star)
        split = tls.example2_theta_split(s, params)
        h_f = HamiltonianOp(0.5 * (params.omega_f * _SZ + params.eps_f * _SX))
        g = ergotropy.gain_g(s.density(), h_i, h_f)
        return (float(ots[i]), float(otss[j]), tls.counterdiabatic_rate(params),
                split.wmin_range[0], tls.example1_delta(s, params.Omega_f), g,
                tls.delta_e_sta(s.p, params))

    rows = _map_ordered(point, [(i, j) for i in range(len(ots)) for j in range(len(otss))],
                        threads)
    header = ["omega0_tau", "omega0_taustar", "w_sta", "w_min_lower",
              "delta_enc", "g", "delta_e_sta"]
    return header, rows


def run_fig3(cfg: dict, threads: int = 1):
    """Cost landscape over (mu, omega_bar) with a fixed final-gap conversion."""
    tau = float(cfg.get("tau", 1.0))
    omega_f = float(cfg.get("omega_f", 20.0 / tau))
    s = tls.TlsState(float(cfg.get("p_i", 0.4)),
                     complex(cfg.get("c_abs", np.sqrt(0.24))))
    mus = np.linspace(float(cfg.get("mu_min", 0.0)), float(cfg.get("mu_max", 4.0)),
                      int(cfg.get("mu_points", 41)))
    obs = np.linspace(float(cfg.get("ob_min", 0.0)), float(cfg.get("ob_max", 4.0)),
                      int(cfg.get("ob_points", 41)))

    def point(ij):
        i, j = ij
        params = tls.MuDynParams(mu=float(mus[i]), omega_bar=float(obs[j]),
                                 omega_f=omega_f, eps_f=0.0, tau=tau)
        split = tls.example2_theta_split(s, params)
        return (float(mus[i]), float(obs[j]), tls.counterdiabatic_rate(params),
                split.wmin_range[0], split.wmin_range[1],
                tls.example1_delta(s, params.Omega_f), tls.delta_e_sta(s.p, params))

    rows = _map_ordered(point, [(i, j) for i in range(len(mus)) for j in range(len(obs))],
                        threads)
    header = ["mu", "omega_bar", "w_sta", "w_min_lower", "w_min_upper",
              "delta_enc", "delta_e_sta"]
    return header, rows


def run_counterexample(cfg: dict):
    """Same-energy populations whose ergotropy drops below the thermal one."""
    beta = float(cfg.get("beta", 1.0))
    e2i = float(cfg.get("e2i", 0.9))
    e2fs = cfg.get("e2f_list", [0.1, 0.3, 0.5, 0.7, 0.85, 0.95])
    rows = []
    for e2f in e2fs:
        ce = ergotropy.counterexample_populations(beta, e2i, float(e2f))
        rows.append((beta, e2i, float(e2f), *ce.q, *ce.p_th, ce.delta_e_nc))
    header = ["beta", "e2i", "e2f", "q1", "q2", "q3",
              "pth1", "pth2", "pth3", "delta_e_nc"]
    return header, rows


# ----------------------------------------------------------------- plumbing

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ergodrive",
        description="Work extraction reports, drive synthesis, and figure sweeps.")
    sub = ap.add_subparsers(dest="command", required=True)
    helps = {
        "ergotropy": "full work-extraction report for one (rho_i, h_i, h_f) instance",
        "drive-synth": "synthesize and verify the correction drive for one instance",
        "fig1": "gain vs cost sweep over the (p_i, |c_i|) disk",
        "fig2": "STA vs optimal cost sweep over (omega0 tau, omega0 tau*)",
        "fig3": "cost sweep over (mu, omega_bar)",
        "counterexample": "equal-energy populations with lower ergotropy",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--seed", type=int, default=0, help="PRNG seed")
        p.add_argument("--steps", type=int, default=None, help="integrator steps override")
        p.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    return ap


def _emit_error(exc: Exception):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, VerificationFailed) and exc.residuals:
        payload["residuals"] = {k: float(v) for k, v in exc.residuals.items()}
    sys.stderr.write(json.dumps(payload) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "ergotropy":
            write_json(run_ergotropy(cfg), args.out)
        elif args.command == "drive-synth":
            write_json(run_drive_synth(cfg, args.steps), args.out)
        elif args.command == "fig1":
            header, rows, crossover = run_fig1(cfg, args.seed, args.threads)
            write_csv(header, rows, args.out)
            sys.stderr.write("crossover_p = %s\n" % _fmt(crossover))
        elif args.command == "fig2":
            header, rows = run_fig2(cfg, args.threads)
            write_csv(header, rows, args.out)
        elif args.command == "fig3":
            header, rows = run_fig3(cfg, args.threads)
            write_csv(header, rows, args.out)
        elif args.command == "counterexample":
            header, rows = run_counterexample(cfg)
            write_csv(header, rows, args.out)
    except ValidationError as exc:
        _emit_error(exc)
        return 2
    except ConvergenceError as exc:
        _emit_error(exc)
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        _emit_error(exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
