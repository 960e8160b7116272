"""Command-line front end: scenario execution, figure sweeps, CSV/JSON output.

Output is deterministic: a fixed config and seed give byte-identical files.
CSV cells are printed with 17 significant digits and LF line endings. The
figure sweeps evaluate the two-level closed forms on the whole parameter grid
at once; fig1's Monte Carlo columns draw from a generator seeded per grid
point as [seed, i, j]. ``--steps`` belongs to drive-synth; ``--seed`` and
``--threads`` to the four figure commands, where ``--threads`` has no effect.
Exit codes: 0 success, 2 validation error, 3 convergence failure (error JSON
goes to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import ergotropy, states, tls
from .drives import (Schedule, optimize_phases, propagate_u0, synthesize_drive,
                     verify_drive)
from .errors import ConvergenceError, ParamOutOfRange, ValidationError, VerificationFailed
from .linalg import hermitian_eigvals
from .states import DensityMatrix, HamiltonianOp, matrix_from_json
from .tolerances import DEFAULT_TOLS

_SZ = np.diag([1.0, -1.0]).astype(complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _fmt(v) -> str:
    return "%.17g" % float(v)


def write_csv(header, rows, path=None):
    """Header and rows as CSV; every cell is formatted as _fmt formats it."""
    row_fmt = ",".join(["%.17g"] * len(header)) + "\n"
    text = "".join([",".join(header) + "\n"] + [row_fmt % tuple(row) for row in rows])
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
    """DEFAULT_TOLS with cfg's "tolerances" overrides, each naming a field and
    giving it a finite number >= 0."""
    over = cfg.get("tolerances", {})
    if not isinstance(over, dict):
        raise ParamOutOfRange(f"tolerances must be an object, got {over!r}")
    fields = [f.name for f in dataclasses.fields(DEFAULT_TOLS)]
    for key, v in over.items():
        if key not in fields:
            raise ParamOutOfRange(f"unknown tolerance {key!r}; known: {', '.join(fields)}")
        if type(v) not in (int, float) or not 0 <= v < np.inf:
            raise ParamOutOfRange(f"tolerance {key} must be a finite number >= 0, got {v!r}")
    return DEFAULT_TOLS.with_(**{key: float(v) for key, v in over.items()})


def _points(cfg: dict, key: str, default: int) -> int:
    n = int(cfg.get(key, default))
    if n < 1:
        raise ParamOutOfRange(f"{key} must be >= 1, got {n}")
    return n


def _positive(cfg: dict, key: str, default: float) -> float:
    v = float(cfg.get(key, default))
    if not v > 0:
        raise ParamOutOfRange(f"{key} must be > 0, got {v}")
    return v


def _grid(cfg: dict, axis: str, lo: float, hi: float, n: int) -> np.ndarray:
    """linspace over cfg's {axis}_min, {axis}_max, {axis}_points."""
    return np.linspace(float(cfg.get(f"{axis}_min", lo)), float(cfg.get(f"{axis}_max", hi)),
                       _points(cfg, f"{axis}_points", n))


def _cells(a, b):
    """Every (a[i], b[j]) pair, i-major, as two flat arrays."""
    aa, bb = np.meshgrid(a, b, indexing="ij")
    return aa.ravel(), bb.ravel()


def _fixed_state(cfg: dict) -> tls.TlsState:
    """The initial state of the fig2 and fig3 sweeps."""
    return tls.TlsState(float(cfg.get("p_i", 0.4)), complex(cfg.get("c_abs", np.sqrt(0.24))))


def _rows(*columns) -> list:
    return list(zip(*(c.tolist() for c in np.broadcast_arrays(*columns))))


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
    n_steps = cfg.get("n_steps", 4096) if n_steps is None else n_steps
    sched = Schedule.linear(tau, n_steps=int(n_steps))
    trace = propagate_u0(h_i, h_f, sched, tols)
    phases_cfg = cfg.get("phases", "zeros")
    if phases_cfg == "analytic2":
        phases = optimize_phases(rho, h_i, h_f, sched, mode="analytic2",
                                 u_f=trace.u_samples[-1], tols=tols).phases
    elif phases_cfg == "zeros":
        phases = np.zeros(rho.dim)
    else:
        phases = np.asarray(phases_cfg, dtype=float)
    synth = synthesize_drive(rho, h_i, h_f, sched, phases, tols, trace)
    del trace   # verify_drive propagates on its own grid: free U0 before it
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


def run_fig1(cfg: dict, seed: int = 0):
    """Gain vs cost over the (p_i, |c_i|) disk for proportional Hamiltonians."""
    tau = _positive(cfg, "tau", 10.0)
    lam_f_omega = float(cfg.get("lam_f_omega", 1.0))
    draws = int(cfg.get("mc_draws", 4096))
    if draws < 0 or draws == 1:
        raise ParamOutOfRange(f"mc_draws must be 0 or >= 2, got {draws}")
    ps = _grid(cfg, "p", 0.0, 1.0, 200)
    fracs = np.linspace(0.0, 1.0, _points(cfg, "c_points", 200))
    p, frac = _cells(ps, fracs)
    c = frac * np.sqrt(np.maximum(p * (1.0 - p), 0.0))
    tls.check_bloch(p, c)
    h = HamiltonianOp(0.5 * lam_f_omega * _SZ)
    rho = tls.density_matrices(p, c)
    g = ergotropy.transport_gain(states.basis_populations(rho, h.basis),
                                 states.populations_desc_stack(rho), h.energies)
    delta = tls.delta_enc(p, c, lam_f_omega)
    w_min = tls.cost(tls.theta1(p, c), tau)
    mean = np.full(p.shape, np.nan)
    err = np.full(p.shape, np.nan)
    if draws > 0:
        n_c = len(fracs)
        for k, a_k in enumerate(tls.overlaps(p, c)[0].tolist()):
            rng = np.random.default_rng([seed, k // n_c, k % n_c])
            mean[k], err[k] = tls.example1_phase_average(a_k, tau, draws, rng)
    top = slice(len(fracs) - 1, None, len(fracs))   # maximal-coherence slice
    crossover = fig1_crossover(ps, delta[top], w_min[top])
    header = ["p_i", "c_abs", "delta_enc", "g", "w_min", "w_mc_mean", "w_mc_stderr"]
    return header, _rows(p, c, delta, g, w_min, mean, err), crossover


def run_fig2(cfg: dict):
    """STA cost vs optimal cost for the quarter-period rotating drive."""
    omega0 = _positive(cfg, "omega0", 1.0)
    s = _fixed_state(cfg)
    ot, ots = _cells(_grid(cfg, "ot", 0.5, 20.0, 40), _grid(cfg, "ots", 0.5, 20.0, 40))
    tau = ot / omega0
    mu, omega_bar, omega_f, eps_f = tls.cos_sin_drive(omega0, tau, ots / omega0)
    tls.check_drive(tau, omega_bar)
    gap = np.hypot(omega_f, eps_f)
    h_i = HamiltonianOp(0.5 * omega0 * _SZ)
    rho = s.density()
    e_f = hermitian_eigvals(0.5 * (omega_f[:, None, None] * _SZ + eps_f[:, None, None] * _SX))
    g = ergotropy.transport_gain(states.energy_populations(rho, h_i),
                                 rho.populations_desc(), e_f)
    w_min_lower = tls.cost_floor(tls.theta1(s.p, abs(s.c)), tls.theta2(mu, omega_bar), tau)
    rows = _rows(ot, ots, tls.cd_rate(mu, omega_bar, tau), w_min_lower,
                 tls.delta_enc(s.p, abs(s.c), gap), g,
                 tls.sta_delta(gap, s.p, mu, omega_bar))
    header = ["omega0_tau", "omega0_taustar", "w_sta", "w_min_lower",
              "delta_enc", "g", "delta_e_sta"]
    return header, rows


def run_fig3(cfg: dict):
    """Cost landscape over (mu, omega_bar) with a fixed final-gap conversion."""
    tau = _positive(cfg, "tau", 1.0)
    gap = float(np.hypot(float(cfg.get("omega_f", 20.0 / tau)), 0.0))
    s = _fixed_state(cfg)
    mu, omega_bar = _cells(_grid(cfg, "mu", 0.0, 4.0, 41), _grid(cfg, "ob", 0.0, 4.0, 41))
    tls.check_drive(tau, omega_bar)
    w_min_lower = tls.cost_floor(tls.theta1(s.p, abs(s.c)), tls.theta2(mu, omega_bar), tau)
    rows = _rows(mu, omega_bar, tls.cd_rate(mu, omega_bar, tau), w_min_lower,
                 tls.worst_cost(tau), tls.delta_enc(s.p, abs(s.c), gap),
                 tls.sta_delta(gap, s.p, mu, omega_bar))
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
        if name == "drive-synth":
            p.add_argument("--steps", type=int, default=None, help="integrator steps override")
        if name not in ("ergotropy", "drive-synth"):   # the four figure commands
            p.add_argument("--seed", type=int, default=0,
                           help="PRNG seed of fig1's Monte Carlo columns")
            p.add_argument("--threads", type=int, default=1,
                           help="accepted for compatibility; sweeps run single-threaded")
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
            header, rows, crossover = run_fig1(cfg, args.seed)
            write_csv(header, rows, args.out)
            sys.stderr.write("crossover_p = %s\n" % _fmt(crossover))
        elif args.command == "fig2":
            header, rows = run_fig2(cfg)
            write_csv(header, rows, args.out)
        elif args.command == "fig3":
            header, rows = run_fig3(cfg)
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
