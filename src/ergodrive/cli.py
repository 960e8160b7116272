"""Command-line front end: scenario execution, figure sweeps, CSV/JSON output.

Output is deterministic: a fixed config and seed give byte-identical files.
CSV cells are printed with 17 significant digits and LF line endings, each
distinct value formatted once and reused wherever it recurs. The
figure sweeps evaluate the two-level closed forms on the whole parameter grid
at once; fig1's Monte Carlo columns are one call over the grid, evaluated in
blocks of cells, each drawing from a generator seeded per grid point as
[seed, i, j]. ``--steps`` belongs to drive-synth; ``--seed`` and
``--threads`` to the four figure commands, where ``--threads`` has no effect.
Each command reads the config keys CONFIG_KEYS names for it and refuses any
other. Exit codes: 0 success, 2 validation error, 3 convergence failure
(error JSON goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import sys

import numpy as np

from . import ergotropy, states, tls
from .drives import Schedule, synthesize_drive, verify_drive
from .errors import ConvergenceError, ParamOutOfRange, ValidationError, VerificationFailed
from .linalg import hermitian_eigvals
from .states import DensityMatrix, HamiltonianOp, matrix_from_json
from .tolerances import FIGURE_MAX_CELLS, FIGURE_MAX_DRAWS

_SZ = np.diag([1.0, -1.0]).astype(complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _fmt(v) -> str:
    return "%.17g" % float(v)


def write_csv(header, columns, path=None):
    """Header and columns, broadcast to one length, as CSV; every cell is
    formatted as _fmt formats it, once per distinct float64 bit pattern."""
    table = np.column_stack(np.broadcast_arrays(*columns)).astype(np.float64, copy=False)
    bits, index = np.unique(table.ravel().view(np.int64), return_inverse=True)
    distinct = ("%.17g\n" * len(bits) % tuple(bits.view(np.float64).tolist())).split("\n")
    cells = np.array(distinct, dtype=object)[index].tolist()
    row_fmt = ",".join(["%s"] * len(header)) + "\n"
    text = ",".join(header) + "\n" + (row_fmt * len(table)) % tuple(cells)
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
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError:
            raise
        except ValueError as exc:    # e.g. an integer past Python's digit limit
            raise ParamOutOfRange(f"config is not readable: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParamOutOfRange(f"config must be a JSON object, got {type(cfg).__name__}")
    return cfg


# every config key of each command; its run_* refuses any other
_INSTANCE_KEYS = ("rho_i", "h_i", "h_f")
CONFIG_KEYS = {
    "ergotropy": _INSTANCE_KEYS,
    "drive-synth": _INSTANCE_KEYS + ("tau", "n_steps", "phases"),
    "fig1": ("tau", "lam_f_omega", "mc_draws", "p_min", "p_max", "p_points", "c_points"),
    "fig2": ("omega0", "p_i", "c_abs", "ot_min", "ot_max", "ot_points",
             "ots_min", "ots_max", "ots_points"),
    "fig3": ("tau", "omega_f", "p_i", "c_abs", "mu_min", "mu_max", "mu_points",
             "ob_min", "ob_max", "ob_points"),
    "counterexample": ("beta", "e2i", "e2f_list"),
}


def _check_keys(cfg: dict, command: str) -> None:
    """Refuse a key of cfg that command does not read (ParamOutOfRange), so a
    misspelled one is never run at its default. The thresholds are fixed, so
    a config that still sets "tolerances" is refused rather than run without
    them."""
    if "tolerances" in cfg:
        raise ParamOutOfRange("the tolerances key is no longer accepted: "
                              "the thresholds are fixed")
    for key in cfg:
        if key not in CONFIG_KEYS[command]:
            raise ParamOutOfRange(f"{command} config has unknown key {key!r}")


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ParamOutOfRange(f"config is missing required key {key!r}")
    return cfg[key]


def _real(v, name: str) -> float:
    """v as a float; anything but a finite real number (a bool included, or an
    integer beyond float range) is refused."""
    try:
        if not isinstance(v, bool) and isinstance(v, numbers.Real) and math.isfinite(v):
            return float(v)
    except OverflowError:    # its repr may be too long to form
        raise ParamOutOfRange(f"{name} must be a finite number, got an integer "
                              f"beyond float range") from None
    raise ParamOutOfRange(f"{name} must be a finite number, got {v!r}")


def _number(cfg: dict, key: str, default: float) -> float:
    return _real(cfg.get(key, default), key)


def _count(cfg: dict, key: str, default: int) -> int:
    v = _number(cfg, key, default)
    if not v.is_integer():
        raise ParamOutOfRange(f"{key} must be an integer, got {cfg[key]!r}")
    return int(v)


def _numbers(cfg: dict, key: str, default) -> list:
    v = cfg.get(key, default)
    if not isinstance(v, list):
        raise ParamOutOfRange(f"{key} must be a list of numbers, got {v!r}")
    return [_real(x, f"{key} entry") for x in v]


def _points(cfg: dict, key: str, default: int) -> int:
    n = _count(cfg, key, default)
    if n < 1:
        raise ParamOutOfRange(f"{key} must be >= 1, got {n}")
    return n


def _positive(cfg: dict, key: str, default: float) -> float:
    v = _number(cfg, key, default)
    if not v > 0:
        raise ParamOutOfRange(f"{key} must be > 0, got {v}")
    return v


def _grid(cfg: dict, axis: str, lo: float, hi: float, n: int) -> tuple:
    """linspace's (start, stop, num) from cfg's {axis}_min, {axis}_max,
    {axis}_points, for _cells."""
    return (_number(cfg, f"{axis}_min", lo), _number(cfg, f"{axis}_max", hi),
            _points(cfg, f"{axis}_points", n))


def _cells(a: tuple, b: tuple):
    """Every pair of points of the linspace axes a and b, a-major, as two flat
    arrays. More than FIGURE_MAX_CELLS pairs are refused before either axis
    is formed."""
    if a[2] * b[2] > FIGURE_MAX_CELLS:
        raise ParamOutOfRange(f"a {a[2]} x {b[2]} grid has more than "
                              f"{FIGURE_MAX_CELLS} cells")
    aa, bb = np.meshgrid(np.linspace(*a), np.linspace(*b), indexing="ij")
    return aa.ravel(), bb.ravel()


def _fixed_state(cfg: dict) -> tls.TlsState:
    """The initial state of the fig2 and fig3 sweeps."""
    return tls.TlsState(_number(cfg, "p_i", 0.4), complex(_number(cfg, "c_abs", np.sqrt(0.24))))


def _load_instance(cfg: dict):
    """(rho_i, h_i, h_f) from cfg."""
    rho = DensityMatrix(matrix_from_json(_require(cfg, "rho_i")))
    h_i = HamiltonianOp(matrix_from_json(_require(cfg, "h_i")))
    h_f = HamiltonianOp(matrix_from_json(_require(cfg, "h_f")))
    return rho, h_i, h_f


# ----------------------------------------------------------------- scenarios

def run_ergotropy(cfg: dict) -> dict:
    _check_keys(cfg, "ergotropy")
    rho, h_i, h_f = _load_instance(cfg)
    return ergotropy.full_report(rho, h_i, h_f).to_json()


def _phases(cfg: dict):
    """cfg's phases as synthesize_drive takes them, which checks them before
    any propagation: "zeros" is None, another name is passed on as given,
    and a list must hold finite numbers."""
    phases = cfg.get("phases", "zeros")
    if phases == "zeros":
        return None
    return phases if isinstance(phases, str) else _numbers(cfg, "phases", None)


def run_drive_synth(cfg: dict, n_steps=None) -> dict:
    """Synthesize and verify one drive. The step count is n_steps, else the
    config's n_steps, used exactly; with neither, synthesize_drive picks it
    by its error targets for U0 and for the propagation of H0 + V that
    verification integrates, and verify_drive checks the drive on that grid."""
    _check_keys(cfg, "drive-synth")
    rho, h_i, h_f = _load_instance(cfg)
    tau = _number(cfg, "tau", 1.0)
    if n_steps is None and "n_steps" in cfg:
        n_steps = _count(cfg, "n_steps", None)
    sched = Schedule.linear(tau, n_steps=n_steps)
    synth = synthesize_drive(rho, h_i, h_f, sched, _phases(cfg))
    energy_res, dist = verify_drive(synth, rho, h_i, h_f, sched)
    return dict(synth.to_json(),
                residuals={"final_energy_residual": energy_res, "state_distance": dist})


def fig1_crossover(ps, deltas, wmins) -> float:
    """Smallest grid population above which the gain stays >= the cost."""
    viol = np.nonzero(np.asarray(deltas) < np.asarray(wmins))[0]
    if viol.size == 0:
        return float(ps[0])
    k = viol[-1] + 1
    return float(ps[k]) if k < len(ps) else float("nan")


def fig1_least_tau(draws: int) -> float:
    """The least tau at which fig1's cost columns stay finite with ``draws``
    Monte Carlo draws per cell.

    Every cost is at most sqrt2 pi / tau (w_min's half-angle is at most
    pi / 2, and each drawn eigenphase at most pi in size), and the standard
    error sums up to ``draws`` squared deviations of such costs: tau must
    keep that sum, doubled for rounding, below the largest float.
    """
    return 2.0 * math.pi * math.sqrt(max(draws, 1) / sys.float_info.max)


def run_fig1(cfg: dict, seed: int = 0):
    """Gain vs cost over the (p_i, |c_i|) disk for proportional Hamiltonians."""
    _check_keys(cfg, "fig1")
    tls.check_count(seed, "seed", 0)
    tau = _positive(cfg, "tau", 10.0)
    lam_f_omega = _number(cfg, "lam_f_omega", 1.0)
    draws = _count(cfg, "mc_draws", 4096)
    if draws < 0 or draws == 1:
        raise ParamOutOfRange(f"mc_draws must be 0 or >= 2, got {draws}")
    if draws > FIGURE_MAX_DRAWS:
        raise ParamOutOfRange(f"mc_draws must be at most {FIGURE_MAX_DRAWS}, got {draws}")
    least_tau = fig1_least_tau(draws)
    if not tau >= least_tau:
        raise ParamOutOfRange(f"tau must be >= {least_tau:.6g} with {draws} Monte Carlo "
                              f"draws, got {tau}: the cost columns would overflow")
    p_axis, n_c = _grid(cfg, "p", 0.0, 1.0, 200), _points(cfg, "c_points", 200)
    p, frac = _cells(p_axis, (0.0, 1.0, n_c))
    c = frac * np.sqrt(np.maximum(p * (1.0 - p), 0.0))
    tls.check_bloch(p, c)
    h = HamiltonianOp(0.5 * lam_f_omega * _SZ)
    rho = tls.density_matrices(p, c)
    g = ergotropy.transport_gain(states.basis_populations(rho, h.basis),
                                 states.populations_desc_stack(rho), h.energies)
    delta = tls.delta_enc(p, c, lam_f_omega)
    w_min = tls.cost(tls.theta1(p, c), tau)
    mean = err = np.full(p.shape, np.nan)
    if draws > 0:
        rngs = [np.random.default_rng([seed, i, j]) for i in range(p_axis[2]) for j in range(n_c)]
        mean, err = tls.example1_phase_average(tls.overlaps(p, c)[0], tau, draws, rngs)
    top = slice(n_c - 1, None, n_c)   # maximal-coherence slice
    crossover = fig1_crossover(p[::n_c], delta[top], w_min[top])
    header = ["p_i", "c_abs", "delta_enc", "g", "w_min", "w_mc_mean", "w_mc_stderr"]
    return header, (p, c, delta, g, w_min, mean, err), crossover


def run_fig2(cfg: dict):
    """STA cost vs optimal cost for the quarter-period rotating drive."""
    _check_keys(cfg, "fig2")
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
    header = ["omega0_tau", "omega0_taustar", "w_sta", "w_min_lower",
              "delta_enc", "g", "delta_e_sta"]
    return header, (ot, ots, tls.cd_rate(mu, omega_bar, tau), w_min_lower,
                    tls.delta_enc(s.p, abs(s.c), gap), g,
                    tls.sta_delta(gap, s.p, mu, omega_bar))


def run_fig3(cfg: dict):
    """Cost landscape over (mu, omega_bar) with a fixed final-gap conversion."""
    _check_keys(cfg, "fig3")
    tau = _positive(cfg, "tau", 1.0)
    gap = float(np.hypot(_number(cfg, "omega_f", 20.0 / tau), 0.0))
    s = _fixed_state(cfg)
    mu, omega_bar = _cells(_grid(cfg, "mu", 0.0, 4.0, 41), _grid(cfg, "ob", 0.0, 4.0, 41))
    tls.check_drive(tau, omega_bar)
    w_min_lower = tls.cost_floor(tls.theta1(s.p, abs(s.c)), tls.theta2(mu, omega_bar), tau)
    header = ["mu", "omega_bar", "w_sta", "w_min_lower", "w_min_upper",
              "delta_enc", "delta_e_sta"]
    return header, (mu, omega_bar, tls.cd_rate(mu, omega_bar, tau), w_min_lower,
                    tls.worst_cost(tau), tls.delta_enc(s.p, abs(s.c), gap),
                    tls.sta_delta(gap, s.p, mu, omega_bar))


def run_counterexample(cfg: dict):
    """Same-energy populations whose ergotropy drops below the thermal one."""
    _check_keys(cfg, "counterexample")
    beta = _number(cfg, "beta", 1.0)
    e2i = _number(cfg, "e2i", 0.9)
    rows = []
    for e2f in _numbers(cfg, "e2f_list", [0.1, 0.3, 0.5, 0.7, 0.85, 0.95]):
        ce = ergotropy.counterexample_populations(beta, e2i, e2f)
        rows.append((beta, e2i, e2f, *ce.q, *ce.p_th, ce.delta_e_nc))
    header = ["beta", "e2i", "e2f", "q1", "q2", "q3",
              "pth1", "pth2", "pth3", "delta_e_nc"]
    return header, np.reshape(rows, (-1, len(header))).T


# ----------------------------------------------------------------- plumbing

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one
    (parse_args keeps no state between calls)."""
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
            header, columns, crossover = run_fig1(cfg, args.seed)
            write_csv(header, columns, args.out)
            sys.stderr.write("crossover_p = %s\n" % _fmt(crossover))
        elif args.command == "fig2":
            header, columns = run_fig2(cfg)
            write_csv(header, columns, args.out)
        elif args.command == "fig3":
            header, columns = run_fig3(cfg)
            write_csv(header, columns, args.out)
        elif args.command == "counterexample":
            header, columns = run_counterexample(cfg)
            write_csv(header, columns, args.out)
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
