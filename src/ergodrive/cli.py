"""Command-line front end: scenario execution, figure sweeps, CSV/JSON output.

Output is deterministic: a fixed config and seed give byte-identical files.
CSV cells are printed with 17 significant digits and LF line endings, each
distinct value formatted once and reused wherever it recurs. The
figure sweeps evaluate the two-level closed forms on the whole parameter grid
at once; fig1's Monte Carlo columns are one call over the grid, evaluated in
blocks of cells, each drawing from a generator seeded per grid point as
[seed, i, j]. ``--steps`` belongs to drive-synth; ``--seed`` and
``--threads`` to the four figure commands, where ``--threads`` has no effect.
CONFIG_KEYS holds every config key of each command, with its parser and
default; a command refuses any other key. A figure sweep refuses a config at
which a column, or a step of the arithmetic behind it, would leave the float
range (_finite_sweep, the one float-range rule). Exit codes: 0
success, 2 validation error, 3 convergence failure (error JSON goes to
stderr).
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


REQUIRED = object()     # the CONFIG_KEYS default of a key that a config must set


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


def _positive(v, name: str) -> float:
    x = _real(v, name)
    if not x > 0:
        raise ParamOutOfRange(f"{name} must be > 0, got {x}")
    return x


def _count(v, name: str) -> int:
    x = _real(v, name)
    if not x.is_integer():
        raise ParamOutOfRange(f"{name} must be an integer, got {v!r}")
    return int(x)


def _points(v, name: str) -> int:
    n = _count(v, name)
    if n < 1:
        raise ParamOutOfRange(f"{name} must be >= 1, got {n}")
    return n


def _draws(v, name: str) -> int:
    n = _count(v, name)
    if n < 0 or n == 1:
        raise ParamOutOfRange(f"{name} must be 0 or >= 2, got {n}")
    if n > FIGURE_MAX_DRAWS:
        raise ParamOutOfRange(f"{name} must be at most {FIGURE_MAX_DRAWS}, got {n}")
    return n


def _numbers(v, name: str) -> list:
    if not isinstance(v, list):
        raise ParamOutOfRange(f"{name} must be a list of numbers, got {v!r}")
    return [_real(x, f"{name} entry") for x in v]


def _phases(v, name: str):
    """v as synthesize_drive takes it, which checks it before any propagation:
    "zeros" is None, another name is passed on as given, and a list must hold
    finite numbers."""
    if v == "zeros":
        return None
    return v if isinstance(v, str) else _numbers(v, name)


# every config key of each command, in order, as (parser, default): the
# default is a config value, REQUIRED, or None for a key that stays unset
_INSTANCE_KEYS = {
    "rho_i": (lambda v, name: DensityMatrix(matrix_from_json(v)), REQUIRED),
    "h_i": (lambda v, name: HamiltonianOp(matrix_from_json(v)), REQUIRED),
    "h_f": (lambda v, name: HamiltonianOp(matrix_from_json(v)), REQUIRED)}
_STATE_KEYS = {"p_i": (_real, 0.4), "c_abs": (_real, math.sqrt(0.24))}
CONFIG_KEYS = {
    "ergotropy": _INSTANCE_KEYS,
    "drive-synth": {**_INSTANCE_KEYS, "tau": (_real, 1.0), "n_steps": (_count, None),
                    "phases": (_phases, "zeros")},
    "fig1": {"tau": (_positive, 10.0), "lam_f_omega": (_real, 1.0), "mc_draws": (_draws, 4096),
             "p_min": (_real, 0.0), "p_max": (_real, 1.0), "p_points": (_points, 200),
             "c_points": (_points, 200)},
    "fig2": {"omega0": (_positive, 1.0), **_STATE_KEYS,
             "ot_min": (_real, 0.5), "ot_max": (_real, 20.0), "ot_points": (_points, 40),
             "ots_min": (_real, 0.5), "ots_max": (_real, 20.0), "ots_points": (_points, 40)},
    "fig3": {"tau": (_positive, 1.0), "omega_f": (_real, None), **_STATE_KEYS,
             "mu_min": (_real, 0.0), "mu_max": (_real, 4.0), "mu_points": (_points, 41),
             "ob_min": (_real, 0.0), "ob_max": (_real, 4.0), "ob_points": (_points, 41)},
    "counterexample": {"beta": (_real, 1.0), "e2i": (_real, 0.9),
                       "e2f_list": (_numbers, [0.1, 0.3, 0.5, 0.7, 0.85, 0.95])},
}


def _config(cfg: dict, command: str) -> dict:
    """Every key of command, parsed from cfg or from its default. A key that
    command does not read is refused (ParamOutOfRange), so a misspelled one
    is never run at its default; the thresholds are fixed, so a config that
    still sets "tolerances" is refused rather than run without them."""
    if "tolerances" in cfg:
        raise ParamOutOfRange("the tolerances key is no longer accepted: "
                              "the thresholds are fixed")
    keys = CONFIG_KEYS[command]
    for key in cfg:
        if key not in keys:
            raise ParamOutOfRange(f"{command} config has unknown key {key!r}")
    conf = {}
    for key, (parse, default) in keys.items():
        if key in cfg:
            conf[key] = parse(cfg[key], key)
        elif default is REQUIRED:
            raise ParamOutOfRange(f"config is missing required key {key!r}")
        else:
            conf[key] = None if default is None else parse(default, key)
    return conf


def _axis(conf: dict, name: str) -> tuple:
    """linspace's (start, stop, num) from conf's {name}_min, {name}_max and
    {name}_points, for _cells."""
    return conf[f"{name}_min"], conf[f"{name}_max"], conf[f"{name}_points"]


def _cells(a: tuple, b: tuple):
    """Every pair of points of the linspace axes a and b, a-major, as two flat
    arrays. More than FIGURE_MAX_CELLS pairs are refused before either axis
    is formed."""
    if a[2] * b[2] > FIGURE_MAX_CELLS:
        raise ParamOutOfRange(f"a {a[2]} x {b[2]} grid has more than "
                              f"{FIGURE_MAX_CELLS} cells")
    aa, bb = np.meshgrid(np.linspace(*a), np.linspace(*b), indexing="ij")
    return aa.ravel(), bb.ravel()


def _finite_sweep(run):
    """run_fig1, run_fig2 or run_fig3 with NumPy's overflow, invalid-value and
    divide-by-zero signals raised: a config at which the sweep would signal
    one, so a column could come out inf or NaN, is refused (ParamOutOfRange)
    at that operation, with no RuntimeWarning, naming the keys the config
    sets. This is the sweeps' one float-range rule; where nothing is
    signalled the columns keep their bits."""
    command = run.__name__.removeprefix("run_")

    @functools.wraps(run)
    def checked(cfg, *args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return run(cfg, *args, **kwargs)
        except FloatingPointError as exc:
            keys = ", ".join(k for k in CONFIG_KEYS[command] if k in cfg)
            raise ParamOutOfRange(f"the {command} sweep leaves the float range at the "
                                  f"config's {keys}: {exc}") from None
    return checked


# ----------------------------------------------------------------- scenarios

def run_ergotropy(cfg: dict) -> dict:
    conf = _config(cfg, "ergotropy")
    return ergotropy.full_report(conf["rho_i"], conf["h_i"], conf["h_f"]).to_json()


def run_drive_synth(cfg: dict, n_steps=None) -> dict:
    """Synthesize and verify one drive. The step count is n_steps, else the
    config's n_steps, used exactly; with neither, synthesize_drive picks it
    by its error targets for U0 and for the propagation of H0 + V that
    verification integrates, and verify_drive checks the drive on that grid."""
    conf = _config(cfg, "drive-synth")
    rho, h_i, h_f = conf["rho_i"], conf["h_i"], conf["h_f"]
    sched = Schedule.linear(conf["tau"], n_steps=conf["n_steps"] if n_steps is None else n_steps)
    synth = synthesize_drive(rho, h_i, h_f, sched, conf["phases"])
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


@_finite_sweep
def run_fig1(cfg: dict, seed: int = 0):
    """Gain vs cost over the (p_i, |c_i|) disk for proportional Hamiltonians."""
    conf = _config(cfg, "fig1")
    tls.check_count(seed, "seed", 0)
    tau, lam_f_omega, draws = conf["tau"], conf["lam_f_omega"], conf["mc_draws"]
    n_p, n_c = conf["p_points"], conf["c_points"]
    p, frac = _cells(_axis(conf, "p"), (0.0, 1.0, n_c))
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
        rngs = [np.random.default_rng([seed, i, j]) for i in range(n_p) for j in range(n_c)]
        mean, err = tls.example1_phase_average(tls.overlaps(p, c)[0], tau, draws, rngs)
    top = slice(n_c - 1, None, n_c)   # maximal-coherence slice
    crossover = fig1_crossover(p[::n_c], delta[top], w_min[top])
    header = ["p_i", "c_abs", "delta_enc", "g", "w_min", "w_mc_mean", "w_mc_stderr"]
    return header, (p, c, delta, g, w_min, mean, err), crossover


@_finite_sweep
def run_fig2(cfg: dict):
    """STA cost vs optimal cost for the quarter-period rotating drive."""
    conf = _config(cfg, "fig2")
    omega0 = conf["omega0"]
    s = tls.TlsState(conf["p_i"], complex(conf["c_abs"]))
    ot, ots = _cells(_axis(conf, "ot"), _axis(conf, "ots"))
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


@_finite_sweep
def run_fig3(cfg: dict):
    """Cost landscape over (mu, omega_bar) with a fixed final-gap conversion."""
    conf = _config(cfg, "fig3")
    tau = conf["tau"]
    # the default is formed only where it is read, as a NumPy float, so its
    # overflow at a tiny tau is signalled
    omega_f = 20.0 / np.float64(tau) if conf["omega_f"] is None else conf["omega_f"]
    gap = float(np.hypot(omega_f, 0.0))
    s = tls.TlsState(conf["p_i"], complex(conf["c_abs"]))
    mu, omega_bar = _cells(_axis(conf, "mu"), _axis(conf, "ob"))
    tls.check_drive(tau, omega_bar)
    w_min_lower = tls.cost_floor(tls.theta1(s.p, abs(s.c)), tls.theta2(mu, omega_bar), tau)
    header = ["mu", "omega_bar", "w_sta", "w_min_lower", "w_min_upper",
              "delta_enc", "delta_e_sta"]
    return header, (mu, omega_bar, tls.cd_rate(mu, omega_bar, tau), w_min_lower,
                    tls.worst_cost(tau), tls.delta_enc(s.p, abs(s.c), gap),
                    tls.sta_delta(gap, s.p, mu, omega_bar))


def run_counterexample(cfg: dict):
    """Same-energy populations whose ergotropy drops below the thermal one."""
    conf = _config(cfg, "counterexample")
    beta, e2i = conf["beta"], conf["e2i"]
    rows = []
    for e2f in conf["e2f_list"]:
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
