"""Benchmark workloads: seeded inputs, one operation each, and output checks.

Every workload is a closed loop with one caller: the next op starts when the
previous one returns. Inputs come only from the workload seed; the program
receives the generated configs and nothing else. Checks run outside the timed
region and report a failed check as a string.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
from pathlib import Path

import numpy as np

from ergodrive import cli, drives, states

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

WORKLOADS = ("instance-reports", "drive-synth", "figure-sweeps")
# Per-workload tag mixed into every generator so workloads never share draws.
_TAGS = {"instance-reports": 101, "drive-synth": 202, "figure-sweeps": 303}
REF_SEED = 7_000_001   # generator seed of the recorded reference instances

# ---------------------------------------------------------------- matrices


def mat_to_json(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "re": m.real.ravel().tolist(),
            "im": m.imag.ravel().tolist()}


def mat_from_json(obj: dict) -> np.ndarray:
    d = obj["dim"]
    return (np.asarray(obj["re"]) + 1j * np.asarray(obj["im"])).reshape(d, d)


def _ginibre(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _unitary(rng, d):
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _hermitian(rng, d):
    g = _ginibre(rng, d, d)
    return 0.5 * (g + g.conj().T) / np.sqrt(d)


def _density(rng, d, rank=None, mix=0.0):
    """Wishart state of the given rank, mixed with weight `mix` into the
    maximally mixed state on its own support (so the rank is kept)."""
    g = _ginibre(rng, d, rank or d)
    m = g @ g.conj().T
    m = m / np.trace(m).real
    if mix:
        q, _ = np.linalg.qr(g)
        m = (1 - mix) * m + mix * (q @ q.conj().T) / q.shape[1]
    return m


def _from_spectrum(rng, values):
    u = _unitary(rng, len(values))
    m = (u * np.asarray(values, dtype=float)) @ u.conj().T
    return 0.5 * (m + m.conj().T)


# --------------------------------------------------------- instance-reports

DIMS = (2, 3, 4, 5)
EDGE_EVERY = 8   # op k with k % 8 == 0 comes from the documented edge domain
REF_EVERY = 8    # op k with k % 8 == 4 is a recorded reference instance
REPORT_POOL = 256
REFERENCE_REPORTS = 32
# Edge classes that every report handles at this commit. Pure, near-pure and
# other low-entropy states are in the domain too, but their upper bound
# aborts with NoConvergence today (ROADMAP 4a), so they are run by
# edge_probe_instances() instead of as timed ops, and the timed states are
# mixed with weight REPORT_MIX into the flat state on their support.
EDGE_KINDS = ("rank_deficient", "degenerate_rho", "degenerate_h", "maximally_mixed")
REPORT_MIX = 0.5


def _edge_instance(rng, kind, d):
    h_i, h_f = _hermitian(rng, d), _hermitian(rng, d)
    if kind == "rank_deficient":
        rho = _density(rng, d, rank=d - 1, mix=REPORT_MIX)
    elif kind == "degenerate_rho":
        vals = rng.exponential(size=d)
        vals[1] = vals[0]
        rho = _from_spectrum(rng, (1 - REPORT_MIX) * vals / vals.sum() + REPORT_MIX / d)
    elif kind == "degenerate_h":
        rho = _density(rng, d, mix=REPORT_MIX)
        levels = np.sort(rng.normal(size=d))
        levels[1] = levels[0]
        h_i = _from_spectrum(rng, levels)
    else:
        rho = np.eye(d, dtype=complex) / d
    return kind, rho, h_i, h_f


def report_instances(rng, n):
    """n (kind, config) pairs; d cycles over 2..5, one in EDGE_EVERY is an edge case."""
    out = []
    for k in range(n):
        if k % EDGE_EVERY == 0:
            j = k // EDGE_EVERY
            kind = EDGE_KINDS[j % len(EDGE_KINDS)]
            # rank 2 in d = 3 caps the entropy at ln 2, which a clustered h_f
            # turns into the low-entropy failure: rank-deficient states use d >= 4
            dims = (4, 5) if kind == "rank_deficient" else (3, 4, 5)
            kind, rho, h_i, h_f = _edge_instance(rng, kind, dims[(j // len(EDGE_KINDS)) % len(dims)])
        else:
            d = DIMS[k % len(DIMS)]
            kind, rho = "random", _density(rng, d, mix=REPORT_MIX)
            h_i, h_f = _hermitian(rng, d), _hermitian(rng, d)
        out.append({"kind": kind, "cfg": {"rho_i": mat_to_json(rho), "h_i": mat_to_json(h_i),
                                          "h_f": mat_to_json(h_f)}})
    return out


def reference_report_instances():
    return report_instances(np.random.default_rng([_TAGS["instance-reports"], REF_SEED]),
                            REFERENCE_REPORTS)


def edge_probe_instances():
    """Low-entropy instances whose report aborts at this commit (ROADMAP 4a).

    The README's pure superposition, diag(1 - eps, eps, 0) at two eps, and a
    mixed state whose entropy-matched Gibbs state on a clustered h_f gives
    the top level a weight below the relative-entropy support cutoff.
    """
    h_i = np.diag([0.0, 1.0, 2.0]).astype(complex)
    h_f = np.diag([0.0, 0.4, 1.1]).astype(complex)
    psi = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    cases = {"pure_superposition": (np.outer(psi, psi).astype(complex), h_f)}
    for eps in (1e-5, 1e-11):
        cases[f"near_pure_{eps:g}"] = (np.diag([1.0 - eps, eps, 0.0]).astype(complex), h_f)
    cases["low_entropy_clustered_hf"] = (np.diag([0.82, 0.18, 0.0]).astype(complex),
                                         np.diag([0.0, 0.1, 2.3]).astype(complex))
    return [{"kind": kind, "cfg": {"rho_i": mat_to_json(rho), "h_i": mat_to_json(h_i),
                                   "h_f": mat_to_json(hf)}}
            for kind, (rho, hf) in cases.items()]


# -------------------------------------------------------------- drive-synth

DRIVE_DIMS = (2, 3, 4)
DRIVE_POOL = 48
DRIVE_WIDTH = 1.5      # spectral width of every generated Hamiltonian
GRID_POINTS = 16       # d = 3 phase scan: 16^3 phase vectors


def _scaled_hermitian(rng, d):
    h = _hermitian(rng, d)
    w = np.linalg.eigvalsh(h)
    return h * (DRIVE_WIDTH / (w[-1] - w[0]))


def drive_instances(rng, n):
    out = []
    for k in range(n):
        d = DRIVE_DIMS[k % len(DRIVE_DIMS)]
        cfg = {"rho_i": mat_to_json(_density(rng, d)),
               "h_i": mat_to_json(_scaled_hermitian(rng, d)),
               "h_f": mat_to_json(_scaled_hermitian(rng, d)), "tau": 1.0}
        cfg["phases"] = {2: "analytic2", 3: "grid", 4: "zeros"}[d]
        out.append({"kind": f"d{d}", "cfg": cfg})
    return out


# ------------------------------------------------------------ figure-sweeps

# fig1 keeps both the per-cell object path and the seeded Monte Carlo draws
# busy; fig3 is enlarged beyond its 41 x 41 default.
FIGURE_CONFIGS = {
    "fig1": {"p_points": 24, "c_points": 24, "mc_draws": 1024},
    "fig2": {"ot_points": 28, "ots_points": 28},
    "fig3": {"mu_points": 61, "ob_points": 61},
    "counterexample": {},
}
FIGURE_HEADERS = {
    "fig1": ["p_i", "c_abs", "delta_enc", "g", "w_min", "w_mc_mean", "w_mc_stderr"],
    "fig2": ["omega0_tau", "omega0_taustar", "w_sta", "w_min_lower", "delta_enc", "g",
             "delta_e_sta"],
    "fig3": ["mu", "omega_bar", "w_sta", "w_min_lower", "w_min_upper", "delta_enc",
             "delta_e_sta"],
    "counterexample": ["beta", "e2i", "e2f", "q1", "q2", "q3", "pth1", "pth2", "pth3",
                       "delta_e_nc"],
}
FIG1_MC_COLUMNS = 5   # columns from here on depend on the Monte Carlo seed
REFERENCE_FIG1_SEED = 0


def figure_round(fig1_seed):
    """One round: every figure command, fig1's Monte Carlo seeded with fig1_seed."""
    return [{"kind": name, "cfg": cfg, "seed": fig1_seed if name == "fig1" else 0}
            for name, cfg in FIGURE_CONFIGS.items()]


# ------------------------------------------------------------------ inputs


def make_inputs(workload: str, seed: int) -> list:
    """The op list of a workload, a pure function of (workload, seed)."""
    rng = np.random.default_rng([_TAGS[workload], seed])
    if workload == "instance-reports":
        pool = report_instances(rng, REPORT_POOL)
        refs = reference_report_instances()
        for k in range(REF_EVERY // 2, len(pool), REF_EVERY):
            j = (k // REF_EVERY) % len(refs)
            pool[k] = dict(refs[j], ref=j)
        return pool
    if workload == "drive-synth":
        return drive_instances(rng, DRIVE_POOL)
    if workload == "figure-sweeps":
        return figure_round(int(rng.integers(0, 2**31 - 1)))
    raise ValueError(f"unknown workload {workload!r}")


def inputs_bytes(ops: list) -> bytes:
    return json.dumps(ops, sort_keys=True).encode()


# ---------------------------------------------------------------- the ops


def run_report(op):
    return cli.run_ergotropy(op["cfg"])


def run_drive(op):
    cfg = op["cfg"]
    if cfg["phases"] == "grid":
        rho = states.DensityMatrix(mat_from_json(cfg["rho_i"]))
        h_i = states.HamiltonianOp(mat_from_json(cfg["h_i"]))
        h_f = states.HamiltonianOp(mat_from_json(cfg["h_f"]))
        sched = drives.Schedule.linear(cfg["tau"])
        res = drives.optimize_phases(rho, h_i, h_f, sched, mode="grid",
                                     grid_points=GRID_POINTS)
        cfg = dict(cfg, phases=[float(p) for p in res.phases])
    return cli.run_drive_synth(cfg)


class FigureRunner:
    """Runs figure commands through cli.main with configs and CSVs in workdir."""

    def __init__(self, workdir: Path, configs=FIGURE_CONFIGS):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, cfg in configs.items():
            (self.workdir / f"{name}.json").write_text(json.dumps(cfg))

    def csv_path(self, name):
        return self.workdir / f"{name}.csv"

    def __call__(self, op, threads=1):
        name = op["kind"]
        argv = [name, "--config", str(self.workdir / f"{name}.json"),
                "--out", str(self.csv_path(name)), "--seed", str(op["seed"]),
                "--threads", str(threads)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"{name} exited {rc}: {err.getvalue().strip()}")
        return {"csv": self.csv_path(name).read_bytes(), "stderr": err.getvalue()}


# ---------------------------------------------------------------- checks

REPORT_FIELDS = {"e_nc", "e_inc", "e_pas", "e_coh", "delta_e_nc", "gain_g", "upper_bound",
                 "majorization_holds", "beta_same_energy", "negative_temperature_flag"}


def _widths(cfg):
    w = []
    for key in ("h_i", "h_f"):
        e = np.linalg.eigvalsh(mat_from_json(cfg[key]))
        w.append(float(e[-1] - e[0]))
    return w


def check_report(op, out, reference=None):
    """None when the report passes every check, else the first failure."""
    if set(out) != REPORT_FIELDS:
        return f"report fields {sorted(out)}"
    cfg = op["cfg"]
    width = max(_widths(cfg))
    scale = max(1.0, width)
    parts = out["e_inc"] + out["e_pas"] + out["e_coh"]
    if not abs(parts - out["e_nc"]) <= 1e-10 * scale:
        return f"decomposition off by {parts - out['e_nc']:.3e}"
    if not out["gain_g"] >= -1e-12 * scale:
        return f"gain_g = {out['gain_g']:.3e} < 0"
    if out["delta_e_nc"] is not None and out["upper_bound"] is not None:
        if not out["delta_e_nc"] <= out["upper_bound"] + 1e-10 * scale:
            return f"delta_e_nc {out['delta_e_nc']} above bound {out['upper_bound']}"
    # independent e_nc: Tr[rho h_i] minus descending rho spectrum on ascending h_f
    rho, h_i = mat_from_json(cfg["rho_i"]), mat_from_json(cfg["h_i"])
    r = np.sort(np.clip(np.linalg.eigvalsh(rho), 0.0, None))[::-1]
    e_nc = float(np.trace(rho @ h_i).real - r @ np.linalg.eigvalsh(mat_from_json(cfg["h_f"])))
    if not abs(e_nc - out["e_nc"]) <= 1e-9 * scale:
        return f"e_nc {out['e_nc']} != independent {e_nc}"
    if reference is not None:
        for key, want in reference.items():
            got = out[key]
            if isinstance(want, bool) or want is None:
                if got != want:
                    return f"{key} = {got}, reference {want}"
            elif got is None or not abs(got - want) <= 1e-9 * width:
                return f"{key} = {got}, reference {want}"
    return None


def _canonical_eigh(m):
    """Ascending eigenpairs with each column's largest entry real positive."""
    values, vectors = np.linalg.eigh(0.5 * (m + m.conj().T))
    for n in range(vectors.shape[1]):
        z = vectors[int(np.argmax(np.abs(vectors[:, n]))), n]
        vectors[:, n] *= np.conj(z) / abs(z)
    return values, vectors


def drive_wmin_oracle(cfg, phases, n_steps=512):
    """w_min from a fourth-order Magnus propagator, independent of the package.

    U0(tau) for H0(t) = (1 - t/tau) h_i + (t/tau) h_f; the target maps the
    descending eigenvectors of rho onto the ascending h_f basis with the
    given phases, and w_min is the norm of the principal eigenphases of
    U0^dag R over tau.
    """
    rho, h_i, h_f = (mat_from_json(cfg[k]) for k in ("rho_i", "h_i", "h_f"))
    h_i, h_f = 0.5 * (h_i + h_i.conj().T), 0.5 * (h_f + h_f.conj().T)
    tau = float(cfg["tau"])
    dt = tau / n_steps
    t0 = np.arange(n_steps) * dt
    off = np.sqrt(3.0) / 6.0
    lam1 = (t0 + dt * (0.5 - off)) / tau
    lam2 = (t0 + dt * (0.5 + off)) / tau
    h1 = (1 - lam1)[:, None, None] * h_i + lam1[:, None, None] * h_f
    h2 = (1 - lam2)[:, None, None] * h_i + lam2[:, None, None] * h_f
    k = 0.5 * dt * (h1 + h2) + 1j * (np.sqrt(3.0) / 12.0) * dt**2 * (h1 @ h2 - h2 @ h1)
    w, v = np.linalg.eigh(k)
    steps = (v * np.exp(-1j * w)[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    u = np.eye(rho.shape[0], dtype=complex)
    for s in steps:
        u = s @ u
    r_vals, r_vecs = _canonical_eigh(rho)
    order = np.argsort(-np.clip(r_vals, 0.0, None), kind="stable")
    _, f_vecs = _canonical_eigh(h_f)
    target = (f_vecs * np.exp(1j * np.asarray(phases))[None, :]) @ r_vecs[:, order].conj().T
    thetas = np.angle(np.linalg.eigvals(u.conj().T @ target))
    return float(np.linalg.norm(thetas)) / tau


def check_drive(op, out):
    res = out.get("residuals", {})
    if not res.get("state_distance", math.inf) <= 1e-6:
        return f"state distance {res.get('state_distance')}"
    thetas = np.asarray(out["thetas"])
    tau = op["cfg"]["tau"]
    if not abs(np.linalg.norm(thetas) / tau - out["w_min"]) <= 1e-12 * max(1.0, out["w_min"]):
        return "w_min is not |thetas| / tau"
    want = drive_wmin_oracle(op["cfg"], out["phases_phi"])
    if not abs(out["w_min"] - want) <= 1e-6 * max(want, 1e-12):
        return f"w_min {out['w_min']} != independent {want}"
    return None


# ---- figure sweeps


def _read_gz(path):
    with gzip.open(path, "rb") as fh:
        return fh.read()


def load_figure_references():
    refs = {name: _read_gz(REFERENCE_DIR / f"{name}.csv.gz") for name in FIGURE_CONFIGS}
    values = json.loads((REFERENCE_DIR / "values.json").read_text())
    return refs, values["fig1_crossover"]


def _cells(text: bytes):
    lines = text.decode().split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with LF")
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]]


def _cell_ok(got: str, want: str) -> bool:
    g, w = float(got), float(want)
    if math.isnan(w):
        return math.isnan(g)
    return abs(g - w) <= 1e-12 * max(1.0, abs(w))


def _eig_overlap_a(p, c_abs):
    """Overlap a of the rho eigenbasis with the energy basis, as tls states it."""
    disc = np.hypot(p - 0.5, c_abs)
    r1, r0 = 0.5 - disc, 0.5 + disc
    if r0 - r1 < 1e-15:
        return 1.0
    big = disc + abs(p - 0.5)
    small = c_abs**2 / big if big > 0.0 else 0.0
    return np.sqrt((big if p <= 0.5 else small) / (r0 - r1))


def fig1_mc_oracle(cfg, seed):
    """Monte Carlo columns of fig1 recomputed cell by cell, seeded as [seed, i, j]."""
    tau = float(cfg.get("tau", 10.0))
    n_p, n_c, draws = cfg["p_points"], cfg["c_points"], cfg["mc_draws"]
    ps = np.linspace(float(cfg.get("p_min", 0.0)), float(cfg.get("p_max", 1.0)), n_p)
    fracs = np.linspace(0.0, 1.0, n_c)
    rows = []
    for i in range(n_p):
        p = float(ps[i])
        for j in range(n_c):
            a = _eig_overlap_a(p, float(fracs[j] * np.sqrt(max(p * (1.0 - p), 0.0))))
            phi = np.random.default_rng([seed, i, j]).uniform(-np.pi, np.pi, size=(2, draws))
            sig = 0.5 * (phi[0] + phi[1])
            gam = np.arccos(np.clip(a * np.cos(0.5 * (phi[0] - phi[1])), -1.0, 1.0))
            tp = (sig + gam + np.pi) % (2 * np.pi) - np.pi
            tm = (sig - gam + np.pi) % (2 * np.pi) - np.pi
            w = np.sqrt(tp**2 + tm**2) / tau
            rows.append(["%.17g" % float(w.mean()),
                         "%.17g" % float(w.std(ddof=1) / np.sqrt(draws))])
    return rows


class FigureChecker:
    """Checks figure CSVs against the references recorded for these configs."""

    def __init__(self):
        self.refs, self.crossover = load_figure_references()
        self._mc = {}

    def __call__(self, op, out):
        """(failure or None, number of cells not byte-identical to the reference)."""
        name = op["kind"]
        header, rows = _cells(out["csv"])
        ref_header, ref_rows = _cells(self.refs[name])
        if header != FIGURE_HEADERS[name] or header != ref_header:
            return f"{name} header {header}", 0
        if len(rows) != len(ref_rows):
            return f"{name} has {len(rows)} rows, reference {len(ref_rows)}", 0
        n_fixed = len(header)
        if name == "fig1":
            n_fixed = FIG1_MC_COLUMNS
            if op["seed"] not in self._mc:
                self._mc[op["seed"]] = fig1_mc_oracle(op["cfg"], op["seed"])
            ref_rows = [r[:n_fixed] + mc for r, mc in zip(ref_rows, self._mc[op["seed"]])]
        changed, failure = 0, None
        for row, ref in zip(rows, ref_rows):
            if len(row) != len(header):
                return f"{name} row has {len(row)} cells", changed
            for got, want in zip(row, ref):
                if got != want:
                    changed += 1
                    if failure is None and not _cell_ok(got, want):
                        failure = f"{name} cell {got} != reference {want}"
        if name == "fig1" and out["stderr"] != f"crossover_p = {self.crossover}\n":
            failure = failure or f"fig1 stderr {out['stderr']!r}"
        return failure, changed

