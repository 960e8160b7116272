"""Random problem instances and oracles shared across the test modules."""

import dataclasses

import numpy as np

from ergodrive import (DensityMatrix, HamiltonianOp, MuDynParams, TlsState, cli,
                       energy_populations, example1_phase_average, example2_theta_split,
                       gain_g, hermitian_eig, propagate_u0, thermal_populations,
                       von_neumann_entropy)
from ergodrive.errors import NoConvergence
from ergodrive.linalg import polar_project, unitarity_defect
from ergodrive.tls import cd_rate, cost, delta_enc, overlaps, sta_delta, theta1

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_unitary(rng, d):
    """Haar-distributed unitary via QR with phase-fixed diagonal."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_hermitian(rng, d, scale=1.0):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (z + z.conj().T)


def random_density(rng, d):
    """Full-rank density matrix from a complex Wishart draw."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = z @ z.conj().T + 1e-6 * np.eye(d)
    return DensityMatrix(m / np.trace(m).real)


def random_instance(rng, d, scale=1.0):
    """One (rho_i, h_i, h_f) problem instance."""
    return (random_density(rng, d),
            HamiltonianOp(random_hermitian(rng, d, scale)),
            HamiltonianOp(random_hermitian(rng, d, scale)))


def random_probs(rng, d):
    p = rng.exponential(size=d)
    return p / p.sum()


def near_pure_state(eps):
    """rho = [[1 - eps, c], [c, eps]] + [0] with c = 0.999 sqrt(eps (1 - eps)),
    and its relative entropy of coherence in the computational basis, from
    stable two-point entropies of rho_D and of rho's small eigenvalue."""
    c = 0.999 * np.sqrt(eps * (1 - eps))
    rho = np.zeros((3, 3))
    rho[:2, :2] = [[1 - eps, c], [c, eps]]
    small = (eps * (1 - eps) - c * c) / (0.5 + np.sqrt(0.25 - eps * (1 - eps) + c * c))

    def two_point(x):
        return -x * np.log(x) - (1 - x) * np.log1p(-x)

    return DensityMatrix(rho), two_point(eps) - two_point(small)


def thermal_state(h, beta):
    """Gibbs state of h at inverse temperature beta (beta < 0 allowed), as a
    DensityMatrix built on h's eigenbasis: oracle for the population-vector
    thermal references."""
    v = h.basis
    return DensityMatrix((v * thermal_populations(h.energies, beta)) @ v.conj().T, h.tols)


def dephase(rho, h):
    """rho with its coherences in h's eigenbasis removed, as a DensityMatrix:
    oracle for the dephased populations behind coherence_rel_entropy."""
    v = h.basis
    return DensityMatrix((v * energy_populations(rho, h)) @ v.conj().T, rho.tols)


def relative_entropy(rho, sigma, support_atol=1e-12):
    """S(rho || sigma) in nats by the general matrix formula, +inf when rho has
    weight outside supp(sigma): oracle for coherence_rel_entropy and
    gibbs_relative_entropy."""
    svals, svecs = sigma.eig()
    weights = np.einsum("in,ij,jn->n", svecs.conj(), rho.mat, svecs).real
    null = svals <= support_atol
    if weights[null].sum() > support_atol * rho.dim:
        return float("inf")
    keep = ~null
    return -von_neumann_entropy(rho) - float((weights[keep] * np.log(svals[keep])).sum())


def herm_expi(h, dt=1.0):
    """exp(-i h dt) for Hermitian h, via the spectral decomposition."""
    eig = hermitian_eig(h)
    return (eig.vectors * np.exp(-1j * eig.values * dt)) @ eig.vectors.conj().T


def pauli_expi(h, dt):
    """exp(-i h dt) over a stack h[..., 2, 2] of Hermitian matrices, by the
    Pauli closed form cos(|v| dt) - i sin(|v| dt) v.sigma / |v| times the
    trace phase; dt a scalar or broadcast against the stack."""
    h = np.asarray(h, dtype=complex)
    dt = np.asarray(dt, dtype=float)
    a = 0.5 * (h[..., 0, 0] + h[..., 1, 1]).real
    vz = 0.5 * (h[..., 0, 0] - h[..., 1, 1]).real
    vx = h[..., 0, 1].real
    vy = -h[..., 0, 1].imag
    vn = np.sqrt(vx**2 + vy**2 + vz**2)
    ang = vn * dt
    sinc = np.where(vn > 0, np.sin(ang) / np.where(vn > 0, vn, 1.0), dt)
    cosang = np.cos(ang)
    out = np.empty(np.broadcast_shapes(h.shape[:-2], dt.shape) + (2, 2), dtype=complex)
    out[..., 0, 0] = cosang - 1j * sinc * vz
    out[..., 0, 1] = -1j * sinc * (vx - 1j * vy)
    out[..., 1, 0] = -1j * sinc * (vx + 1j * vy)
    out[..., 1, 1] = cosang + 1j * sinc * vz
    return np.exp(-1j * a * dt)[..., None, None] * out


def sequential_products(steps):
    """(samples, drift) of the step product formed one step at a time.

    samples[k] = steps[k-1] ... steps[0], re-unitarized after every 64th
    step; drift is the worst unitarity defect seen before each
    re-unitarization and at the end. Oracle for the blocked kernel behind
    propagate_u0 and verify_drive.
    """
    d = steps.shape[-1]
    u = np.eye(d, dtype=complex)
    samples = np.empty((steps.shape[0] + 1, d, d), dtype=complex)
    samples[0] = u
    drift = 0.0
    for k in range(steps.shape[0]):
        u = steps[k] @ u
        if (k + 1) % 64 == 0:
            drift = max(drift, unitarity_defect(u))
            u = polar_project(u)[0]
        samples[k + 1] = u
    drift = max(drift, unitarity_defect(u))
    return samples, drift


def eigenphases(m):
    """Principal eigenphases on [-pi, pi), ascending, of a stack of unitaries
    m[..., d, d], from a general eigensolver: the oracle of
    drives.eigenphases_from_trace_det."""
    th = np.angle(np.linalg.eigvals(m))
    return np.sort(np.where(th >= np.pi, th - 2 * np.pi, th), axis=-1)


def phase_costs_oracle(a_mat, v_r, phases, tau):
    """drives._phase_costs from eigvals of every M = A diag(e^{i phi}) V^dag."""
    m = (a_mat * np.exp(1j * phases)[:, None, :]) @ v_r.conj().T
    return np.sqrt((eigenphases(m) ** 2).sum(axis=-1)) / tau


def phase_cost_inputs(m0):
    """(det_angle, c, a_mat, v_r) of drives._phase_costs for M(phi) = m0 diag(e^{i phi})."""
    return float(np.angle(np.linalg.det(m0))), np.diagonal(m0).copy(), m0, np.eye(len(m0))


def converged_final_unitary(h_i, h_f, sched, rtol=1e-8, n_limit=100_000):
    """U0(t_f) with the grid doubled until it moves by <= rtol (Frobenius)."""
    n = sched.n_steps
    prev = propagate_u0(h_i, h_f, sched).u_samples[-1]
    while True:
        n *= 2
        cur = propagate_u0(h_i, h_f, dataclasses.replace(sched, n_steps=n)).u_samples[-1]
        if np.linalg.norm(cur - prev) <= rtol:
            return cur, n
        if n >= n_limit:
            raise NoConvergence(f"U(t_f) still moves by {np.linalg.norm(cur - prev):.3e} "
                                f"under grid doubling at n_steps = {n}")
        prev = cur


# ------------------------------------------------------------- figure oracle
# The figure sweeps evaluated point by point, the tls kernels on floats and
# one TlsState, MuDynParams, DensityMatrix and HamiltonianOp per grid cell,
# with the same defaults as the CLI.

def _linspace(cfg, axis, lo, hi, n):
    return np.linspace(float(cfg.get(f"{axis}_min", lo)), float(cfg.get(f"{axis}_max", hi)),
                       int(cfg.get(f"{axis}_points", n)))


def fig1_oracle(cfg, seed=0):
    """(rows, crossover) of fig1."""
    tau = float(cfg.get("tau", 10.0))
    lam_f_omega = float(cfg.get("lam_f_omega", 1.0))
    draws = int(cfg.get("mc_draws", 4096))
    ps = _linspace(cfg, "p", 0.0, 1.0, 200)
    fracs = np.linspace(0.0, 1.0, int(cfg.get("c_points", 200)))
    h = HamiltonianOp(0.5 * lam_f_omega * SZ)
    rows = []
    for i, p in enumerate(ps.tolist()):
        for j, frac in enumerate(fracs):
            c = float(frac * np.sqrt(max(p * (1.0 - p), 0.0)))
            s = TlsState(p, c)
            mean = err = float("nan")
            if draws > 0:
                rng = np.random.default_rng([seed, i, j])
                mean, err = example1_phase_average(float(overlaps(p, c)[0]), tau, draws, rng)
            rows.append((p, c, delta_enc(p, c, lam_f_omega), gain_g(s.density(), h, h),
                         cost(theta1(p, c), tau), mean, err))
    top = rows[len(fracs) - 1::len(fracs)]
    return rows, cli.fig1_crossover(ps, [r[2] for r in top], [r[4] for r in top])


def _fixed_state(cfg):
    return TlsState(float(cfg.get("p_i", 0.4)), complex(cfg.get("c_abs", np.sqrt(0.24))))


def fig2_oracle(cfg):
    omega0 = float(cfg.get("omega0", 1.0))
    s = _fixed_state(cfg)
    h_i = HamiltonianOp(0.5 * omega0 * SZ)
    rows = []
    for ot in _linspace(cfg, "ot", 0.5, 20.0, 40).tolist():
        for ots in _linspace(cfg, "ots", 0.5, 20.0, 40).tolist():
            params = MuDynParams.cos_sin(omega0, ot / omega0, ots / omega0)
            h_f = HamiltonianOp(0.5 * (params.omega_f * SZ + params.eps_f * SX))
            rows.append((ot, ots, cd_rate(params.mu, params.omega_bar, params.tau),
                         example2_theta_split(s, params).wmin_range[0],
                         delta_enc(s.p, abs(s.c), params.Omega_f),
                         gain_g(s.density(), h_i, h_f),
                         sta_delta(params.Omega_f, s.p, params.mu, params.omega_bar)))
    return rows


def fig3_oracle(cfg):
    tau = float(cfg.get("tau", 1.0))
    omega_f = float(cfg.get("omega_f", 20.0 / tau))
    s = _fixed_state(cfg)
    rows = []
    for mu in _linspace(cfg, "mu", 0.0, 4.0, 41).tolist():
        for ob in _linspace(cfg, "ob", 0.0, 4.0, 41).tolist():
            params = MuDynParams(mu=mu, omega_bar=ob, omega_f=omega_f, eps_f=0.0, tau=tau)
            split = example2_theta_split(s, params)
            rows.append((mu, ob, cd_rate(params.mu, params.omega_bar, params.tau),
                         *split.wmin_range, delta_enc(s.p, abs(s.c), params.Omega_f),
                         sta_delta(params.Omega_f, s.p, params.mu, params.omega_bar)))
    return rows


def csv_text(header, rows):
    """CSV as the CLI writes it, formatting one cell at a time."""
    lines = [",".join(header)] + [",".join("%.17g" % float(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"
