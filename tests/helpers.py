"""Random problem instances and oracles shared across the test modules."""

from typing import NamedTuple, Tuple

import numpy as np
from scipy.linalg import schur
from scipy.optimize import brentq

from ergodrive import (DensityMatrix, HamiltonianOp, MuDynParams, TlsState, cli, decompose,
                       drives, energy_populations, example1_phase_average, gain_g,
                       hermitian_eig, linalg, states, thermal_populations,
                       von_neumann_entropy)
from ergodrive.errors import NegativeBeta
from ergodrive.linalg import (REUNITARIZE_EVERY, _canonicalize, dagger, matmul_t,
                              polar_project, unitarity_defect)
from ergodrive.states import _shannon
from ergodrive.tls import (_eig_split, _thetas, alpha_beta, cd_rate, cost, cost_floor, delta_enc,
                           nu, overlaps, sta_delta, theta1, theta2, worst_cost)

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
    return DensityMatrix((v * thermal_populations(h.energies, beta)) @ v.conj().T)


def thermal_populations_max_reduce(energies, beta):
    """Gibbs weights exp(-beta e_n)/Z shifted by the max-reduce of the
    exponents, on energies in any order: the oracle of
    states.thermal_populations, which shifts by an end of ascending ones."""
    x = -beta * np.asarray(energies, dtype=float)
    x -= np.maximum.reduce(x)
    np.exp(x, out=x)
    x /= np.add.reduce(x)
    return x


def dephase(rho, h):
    """rho with its coherences in h's eigenbasis removed, as a DensityMatrix:
    oracle for the dephased populations behind coherence_rel_entropy."""
    v = h.basis
    return DensityMatrix((v * energy_populations(rho, h)) @ v.conj().T)


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


def principal_log_oracle(u):
    """(chi, phases) of linalg.principal_log_unitary from the complex Schur
    form of u, which is diagonal for a unitary with a unitary Schur basis even
    at degenerate phases; ordered and canonicalized as the package does."""
    t, z = schur(u, output="complex")
    phases = np.angle(np.diagonal(t))
    phases = np.where(phases >= np.pi, phases - 2 * np.pi, phases)
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vectors = _canonicalize(phases, z[:, order], 1.0)
    chi = (vectors * phases) @ dagger(vectors)
    return 0.5 * (chi + dagger(chi)), phases


def brentq_oracle(f, a, b, xtol, rtol, maxiter=100):
    """SciPy's brentq on f over [a, b] as (root, converged, evaluations), with
    no exception at the iteration limit: the oracle of states._brent. A
    same-sign bracket raises ValueError."""
    r = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter, full_output=True,
               disp=False)[1]
    return r.root, r.converged, r.function_calls


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


def count_exponentials(monkeypatch):
    """A list that receives the stack length of every herm_expi_batch call
    from then on: what the propagations form, whichever function forms it."""
    lengths = []
    expi = linalg.herm_expi_batch

    def counting(h, dt):
        lengths.append(int(np.prod(np.shape(h)[:-2])))
        return expi(h, dt)

    for module in (linalg, drives):
        monkeypatch.setattr(module, "herm_expi_batch", counting)
    return lengths


def open_drive_exponentials(u0_count, counts):
    """The stack lengths an open-count drive and its verification form: the
    U0 estimate's grids 32, 64, ..., u0_count; on each count tried, a U0
    trace (none on the first, which multiplies the estimate's own steps) and
    the driven estimate's two coarser grids; then verification's 2n and n
    on the last count n."""
    out = [32 * 2**k for k in range(u0_count.bit_length() - 5)]
    for i, n in enumerate(counts):
        out += ([n] if i else []) + [n // 2, n // 4]
    return out + [2 * counts[-1], counts[-1]]


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


def ordered_products_sequential(steps):
    """linalg.ordered_products as it was before the in-block scan, on a
    time-innermost (d, d, n) step stack: the products inside every block
    formed one position at a time (63 broadcast products) in an
    identity-padded sample buffer, and the heads multiplied in place a row
    at a time. The oracle of the scan, and the same bits as the kernel's
    sequential branch."""
    d, n = steps.shape[0], steps.shape[-1]
    m = REUNITARIZE_EVERY
    nb = -(-n // m)
    eye = np.eye(d)[..., None]
    buf = np.empty((d, d, nb * m + 1), dtype=complex)
    buf[..., :1] = buf[..., n + 1:] = eye
    buf[..., 1:n + 1] = steps
    blocks = buf[..., 1:].reshape(d, d, nb, m, copy=False)
    prod = np.empty((d, d, nb), dtype=complex)
    for j in range(1, min(m, n)):
        blocks[..., j] = matmul_t(blocks[..., j], blocks[..., j - 1], prod)
    last = np.minimum(np.arange(1, nb + 1) * m, n)   # buffer index of each block's end
    ends = np.ascontiguousarray(np.moveaxis(buf[..., last], -1, 0))
    for b in range(1, nb):
        ends[b] = ends[b] @ ends[b - 1]
    ends, drift = polar_project(ends)
    heads, rest = np.moveaxis(ends[:-1], 0, -1)[..., None], blocks[:, :, 1:]
    row = np.empty((1,) + rest.shape[1:], dtype=complex)
    for i in range(d):    # rest <- rest heads in place, a row at a time
        rest[i] = matmul_t(rest[i:i + 1], heads, row)[0]
    buf[..., last] = np.moveaxis(ends, 0, -1)
    return np.moveaxis(buf[..., :n + 1], -1, 0), drift


def magnus4_gauss_final(h_i, h_f, sched, n_steps):
    """U0(tau) of a linear schedule by n_steps Gauss-Legendre Magnus-4 steps,
    formed one step at a time: with H1, H2 at the Gauss nodes
    t_k + dt (1/2 -+ sqrt(3)/6), each step is exp(-i Omega) with
    Omega = dt (H1 + H2) / 2 + i (sqrt(3)/12) dt^2 [H1, H2], exponentiated
    through numpy's eigh. The oracle of the Simpson-node propagator."""
    dt = sched.tau / n_steps
    t0 = np.arange(n_steps) * dt
    hs = []
    for t in (t0 + dt * (0.5 - np.sqrt(3.0) / 6.0), t0 + dt * (0.5 + np.sqrt(3.0) / 6.0)):
        s = (t / sched.tau)[:, None, None]
        hs.append((1.0 - s) * h_i.mat + s * h_f.mat)
    h1, h2 = hs
    omega = 0.5 * dt * (h1 + h2) + 1j * (np.sqrt(3.0) / 12.0) * dt**2 * (h1 @ h2 - h2 @ h1)
    w, v = np.linalg.eigh(omega)
    steps = (v * np.exp(-1j * w)[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    u = np.eye(h_i.dim, dtype=complex)
    for step in steps:
        u = step @ u
    return u


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


def wrap_pi_oracle(x):
    """(x + pi) % 2pi - pi, elementwise through numpy's remainder: the form
    that tls.wrap_pi reproduces bit for bit."""
    return (np.asarray(x) + np.pi) % (2 * np.pi) - np.pi


def phase_average_oracle(a, tau, n_draws, rng):
    """tls.example1_phase_average for one float a, on 1-D phase arrays."""
    phi = rng.uniform(-np.pi, np.pi, size=(2, n_draws))
    sig = 0.5 * (phi[0] + phi[1])
    gam = np.arccos(np.clip(a * np.cos(0.5 * (phi[0] - phi[1])), -1.0, 1.0))
    w = np.sqrt(wrap_pi_oracle(sig + gam)**2 + wrap_pi_oracle(sig - gam)**2) / tau
    return float(w.mean()), float(w.std(ddof=1) / np.sqrt(n_draws))


def counterdiabatic_cost_oracle(sched):
    """(w_sta, norm_trace) of a rotating schedule along the instantaneous
    eigenvectors: eigh of every sample of H = (omega sz + eps sx) / 2, with
    (omega, eps) = A (cos, -sin)(mu A t), A = omega_bar / tau, the gauge fixed
    by parallel transport between samples, and second-order differences of
    the vectors in (2 sum_n <edot_n|edot_n>)^{1/2}. The oracle of the
    closed form tls.cd_rate."""
    ts = sched.times()
    om0 = sched.omega_bar / sched.tau
    om, ep = om0 * np.cos(sched.mu * om0 * ts), -om0 * np.sin(sched.mu * om0 * ts)
    _, vecs = np.linalg.eigh(0.5 * (om[:, None, None] * SZ + ep[:, None, None] * SX))
    overlaps = np.einsum("tij,tij->tj", vecs[:-1].conj(), vecs[1:])
    gamma = np.ones((len(ts), 2), dtype=complex)
    gamma[1:] = np.exp(-1j * np.cumsum(np.angle(overlaps), axis=0))
    vecs = vecs * gamma[:, None, :]
    dt = sched.tau / sched.n_steps
    dv = np.empty_like(vecs)
    dv[1:-1] = (vecs[2:] - vecs[:-2]) / (2 * dt)
    dv[0] = (-3 * vecs[0] + 4 * vecs[1] - vecs[2]) / (2 * dt)
    dv[-1] = (3 * vecs[-1] - 4 * vecs[-2] + vecs[-3]) / (2 * dt)
    norm_trace = np.sqrt(2.0 * np.einsum("tij,tij->t", dv.conj(), dv).real)
    return float(np.trapezoid(norm_trace, ts)) / sched.tau, norm_trace


# ------------------------------------------------------ closed-form oracles
# Per-state and scalar forms of the package's closed forms, which only the
# tests call: the two-level eigenbasis, eigenphases, final state and cost
# split, the relative entropy of coherence, and the smoothstep ramp.

def smoothstep(s):
    """3s^2 - 2s^3 on [0, 1]: monotone, flat at both ends."""
    s = np.asarray(s, dtype=float)
    return s * s * (3.0 - 2.0 * s)


def coherence_rel_entropy(rho: DensityMatrix, h: HamiltonianOp) -> float:
    """Relative entropy of coherence C(rho) = S(rho || rho_D) = S(rho_D) - S(rho),
    rho_D dephased in h's eigenbasis (Baumgratz, Cramer & Plenio, PRL 113,
    140401 (2014)), from the energy populations and rho's spectrum: finite,
    and no state built or diagonalized."""
    return _shannon(energy_populations(rho, h)) - _shannon(rho.eig().values)


def eigs_r(s: TlsState):
    """Eigenvalues r1 <= r0 of rho and eigenvectors, columns [|r1>, |r0>].

    |r1> = a|1> - e^{-i psi} b|0>, |r0> = e^{i psi} b|1> + a|0>, with
    a = sqrt((r0-p)/(r0-r1)), b = sqrt((p-r1)/(r0-r1)). The maximally mixed
    point returns the computational basis.
    """
    r1, r0, a, b, mixed = _eig_split(s.p, abs(s.c))
    if mixed:
        return r1, r0, np.eye(2, dtype=complex)
    phase = np.exp(1j * s.psi)
    vecs = np.array([[a, phase * b],
                     [-np.conj(phase) * b, a]], dtype=complex)
    return r1, r0, vecs


def example1_thetas(a, phi1, phi0):
    """Principal eigenphases (theta_plus, theta_minus) of the correction log.

    The state enters only through its overlap magnitude a = overlaps(p, |c|)[0].
    Vectorized over phase arrays; the relative phases the bare drive adds can
    be absorbed into (phi1, phi0), so they do not appear here.
    """
    shape = np.broadcast_shapes(np.shape(a), np.shape(phi1), np.shape(phi0))
    tp, tm = _thetas(a, phi1, phi0, np.empty((5,) + shape))
    return tp[()], tm[()]


def final_basis(params: MuDynParams) -> np.ndarray:
    """Final-Hamiltonian eigenbasis, columns [e1, e0], fixed sign convention.

    e1 is the positive multiple of (omega_f + Omega_f, eps_f), e0 of
    (omega_f - Omega_f, eps_f); evaluated in half-angle form for stability.
    At eps_f = 0 the convention is the directional limit from eps_f > 0.
    """
    chi = np.arctan2(params.eps_f, params.omega_f)
    e1 = np.array([np.cos(chi / 2), np.sin(chi / 2)], dtype=complex)
    e0 = np.array([-np.sin(chi / 2), np.cos(chi / 2)], dtype=complex)
    if params.eps_f < 0:
        e0 = -e0
    if abs(chi) == np.pi:   # omega_f < 0, eps_f = 0: excited state is |0>
        e1 = np.array([0.0, 1.0], dtype=complex)
        e0 = np.array([1.0, 0.0], dtype=complex)
    return np.column_stack([e1, e0])


def constmu_final_state(p_i: float, params: MuDynParams) -> TlsState:
    """Final (p, c) of an initially diagonal state, in the final eigenbasis.

    c is reported in the final_basis convention; coherent initial states have
    no closed form here and go through the numeric propagator instead.
    """
    mu, ang = params.mu, nu(params.mu, params.omega_bar)
    nc, ns = np.cos(ang), np.sin(ang)
    den = 1 + mu**2
    p_f = (2 * p_i + mu**2 - mu**2 * nc * (1 - 2 * p_i)) / (2 * den)
    sgn = 1.0 if params.eps_f >= 0 else -1.0
    c_f = -(mu * (1 - 2 * p_i) / (2 * den)) * sgn * (ns * np.sqrt(den) - 1j * (1 - nc))
    return TlsState(float(p_f), complex(c_f))


def overlap_w(s: TlsState, params: MuDynParams) -> float:
    """|W| = |A e^{-i phi_alpha} + B e^{i psi_i}| controlling the optimal cost."""
    a, b = overlaps(s.p, abs(s.c))
    alpha_exp, beta = alpha_beta(params.mu, params.omega_bar)
    w = a * np.conj(alpha_exp) + b * beta * np.exp(1j * s.psi)
    return float(abs(w))


def example2_wmin(s: TlsState, params: MuDynParams) -> float:
    """Minimal cost with optimal target phases at the state's coherence phase."""
    return float(cost(np.arccos(np.clip(overlap_w(s, params), 0.0, 1.0)), params.tau))


class ThetaSplit(NamedTuple):
    theta1: float                    # state rotation half-angle
    theta2: float                    # bare-drive rotation half-angle
    wmin_range: Tuple[float, float]  # phase-optimal best ... no-control worst
    w_psi: float                     # phase-optimal cost at this psi_i
    psi_band: Tuple[float, float]    # w_psi range as psi_i + phi_alpha varies


def example2_theta_split(s: TlsState, params: MuDynParams) -> ThetaSplit:
    """Cost landscape split into the two rotation angles theta1, theta2.

    With optimal target phases the cost is (sqrt2/tau) arccos|W|, bounded
    between sqrt2|theta1 - theta2|/tau (aligned coherence phase) and
    sqrt2(theta1 + theta2)/tau (anti-aligned); with no phase control at all
    the worst case is sqrt2 pi/tau.
    """
    t1, t2 = float(theta1(s.p, abs(s.c))), float(theta2(params.mu, params.omega_bar))
    lo = float(cost_floor(t1, t2, params.tau))
    return ThetaSplit(
        theta1=t1, theta2=t2,
        wmin_range=(lo, float(worst_cost(params.tau))),
        w_psi=example2_wmin(s, params),
        psi_band=(lo, float(cost(t1 + t2, params.tau))),
    )


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


def coherent_entropy_identity_residual(rho_i, h_i, h_f, beta):
    """Residual of the entropic identity for the coherent part at beta > 0.

    e_coh = (C(rho_i) + S(passive(rho_D)_f || tau_f) - S(passive(rho_i)_f || tau_f)) / beta
    with tau_f the Gibbs state of h_f at beta. Exact for any beta > 0; the
    returned residual is numerical error only.
    """
    if beta <= 0:
        raise NegativeBeta("identity requires beta > 0")
    e_coh = decompose(rho_i, h_i, h_f).e_coh
    c = coherence_rel_entropy(rho_i, h_i)
    r_d = states._clamped_spectrum(states.energy_populations(rho_i, h_i))[1]
    s_d = states.gibbs_relative_entropy(r_d, h_f.energies, beta)
    s_r = states.gibbs_relative_entropy(rho_i.populations_desc(), h_f.energies, beta)
    return abs(e_coh - (c + s_d - s_r) / beta)


def constmu_final_density(p_i, params):
    """Final density matrix of the constant-mu drive in the computational
    basis (diagonal input), from its closed-form final state."""
    s = constmu_final_state(p_i, params)
    v = final_basis(params)
    m = (v @ np.array([[s.p, s.c], [np.conj(s.c), 1 - s.p]], dtype=complex)
         @ v.conj().T)
    return DensityMatrix(m)
