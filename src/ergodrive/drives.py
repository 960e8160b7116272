"""Time-dependent drive machinery.

Schedules interpolate H0(t) between an initial and a final Hamiltonian (or
rotate a two-level gap). The bare propagator U0 is one blocked ordered
product of midpoint exponential steps, projected onto the unitaries every 64
steps; the same kernel propagates H0 + V in verify_drive. Every stack of
small matrices on a time grid is kept time-innermost, as a (d, d, n) array
(handed out as (n, d, d) views): the step exponentials are one Taylor
kernel over the stack, and every product or conjugation U X U^dag is d
broadcast multiply-adds over length-n vectors (linalg.matmul_t), not n
small matmuls. A target unitary R maps the
state's descending eigenvectors onto the ascending final energy basis,
chi = principal log of U0(t_f)^dag R generates the correction
V(t) = -fdot(t) U0 chi U0^dag, and the cost functionals w, w_min follow
from chi's eigenphases. The phase optimizers scan w_min over the free target
phases phi: the eigenphases of M(phi) = U0(t_f)^dag R(phi) at d = 2, 3 come
from tr M and det M alone (eigenphases_from_trace_det, one broadcast root
solve over the batch), and only rows with nearly repeated eigenphases, or
d >= 4, form M for a general eigensolver. synthesize_drive takes a U0 trace
a caller already propagated. Everything here is in hbar = 1 units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np
from scipy.integrate import trapezoid

from .errors import (DimMismatch, DimTooLarge, GaugeFailure, LengthMismatch,
                     ParamInconsistent, ParamOutOfRange, VerificationFailed)
from .linalg import (dagger, herm_expi_batch, matmul_t, polar_project,
                     principal_log_unitary, rmatmul_t, trace_distance)
from .states import DensityMatrix, HamiltonianOp, matrix_to_json, passive_energy, passive_state
from .tls import MuDynParams, wrap_pi
from .tolerances import DEFAULT_TOLS, EIGENPHASE_SEPARATION, Tolerances

_SZ = np.diag([1.0, -1.0]).astype(complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

_BOUNDARY_ATOL = 1e-12
_REUNITARIZE_EVERY = 64


def smoothstep(s):
    """3s^2 - 2s^3 on [0, 1]: monotone, flat at both ends."""
    s = np.asarray(s, dtype=float)
    return s * s * (3.0 - 2.0 * s)


def smoothstep_dot(s):
    """d/ds of smoothstep."""
    s = np.asarray(s, dtype=float)
    return 6.0 * s * (1.0 - s)


def _sample(fn: Callable, ts: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized callable on a time grid; a scalar result is constant."""
    try:
        out = np.asarray(fn(ts), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParamOutOfRange(f"schedule callables must accept a time array: {exc}") from exc
    if out.ndim == 0:
        return np.full(ts.shape, float(out))
    if out.shape != ts.shape:
        raise ParamOutOfRange(f"schedule callable returned shape {out.shape} "
                              f"on a grid of shape {ts.shape}")
    return out


@dataclass(frozen=True)
class Schedule:
    """Drive schedule on [t_i, t_f].

    kind "interp": H0(t) = lam_i(t) h_i + lam_f(t) h_f, boundary values
    lam_i: 1 -> 0 and lam_f: 0 -> 1 (checked to 1e-12). kind "rotating":
    H0(t) = (omega(t) sz + eps(t) sx)/2, two-level only; mu and omega_bar are
    optional metadata used for closed-form cross-checks. ramp_f drives the
    correction V(t); it must run 0 -> 1 with flat endpoints.
    """

    t_i: float
    t_f: float
    kind: str = "interp"
    lam_i: Optional[Callable] = None
    lam_f: Optional[Callable] = None
    omega: Optional[Callable] = None
    eps: Optional[Callable] = None
    ramp_f: Optional[Callable] = None
    ramp_fdot: Optional[Callable] = None
    n_steps: int = 4096
    mu: Optional[float] = None
    omega_bar: Optional[float] = None

    def __post_init__(self):
        if not self.t_f > self.t_i:
            raise ParamOutOfRange(f"need t_f > t_i, got [{self.t_i}, {self.t_f}]")
        if self.n_steps < 1:
            raise ParamOutOfRange("n_steps must be positive")
        tau = self.t_f - self.t_i
        if self.kind == "interp":
            if self.lam_i is None:
                object.__setattr__(self, "lam_i", lambda t: 1.0 - (t - self.t_i) / tau)
            if self.lam_f is None:
                object.__setattr__(self, "lam_f", lambda t: (t - self.t_i) / tau)
            for fn, at, want in ((self.lam_i, self.t_i, 1.0), (self.lam_i, self.t_f, 0.0),
                                 (self.lam_f, self.t_i, 0.0), (self.lam_f, self.t_f, 1.0)):
                if abs(float(fn(at)) - want) > _BOUNDARY_ATOL:
                    raise ParamInconsistent(f"lambda({at}) = {float(fn(at))}, expected {want}")
        elif self.kind == "rotating":
            if self.omega is None or self.eps is None:
                raise ParamOutOfRange("rotating schedule needs omega(t) and eps(t)")
        else:
            raise ParamOutOfRange(f"unknown schedule kind {self.kind!r}")
        if self.ramp_f is None:
            object.__setattr__(self, "ramp_f", lambda t: smoothstep((t - self.t_i) / tau))
            object.__setattr__(self, "ramp_fdot", lambda t: smoothstep_dot((t - self.t_i) / tau) / tau)
        elif self.ramp_fdot is None:
            raise ParamOutOfRange("a custom ramp_f needs its derivative ramp_fdot")
        for fn, at, want in ((self.ramp_f, self.t_i, 0.0), (self.ramp_f, self.t_f, 1.0),
                             (self.ramp_fdot, self.t_i, 0.0), (self.ramp_fdot, self.t_f, 0.0)):
            if abs(float(fn(at)) - want) > _BOUNDARY_ATOL:
                raise ParamInconsistent(f"ramp({at}) = {float(fn(at))}, expected {want}")

    @property
    def tau(self) -> float:
        return self.t_f - self.t_i

    def times(self, n_steps: Optional[int] = None) -> np.ndarray:
        n = self.n_steps if n_steps is None else n_steps
        return np.linspace(self.t_i, self.t_f, n + 1)

    def h0_batch(self, h_i: HamiltonianOp, h_f: HamiltonianOp, ts: np.ndarray) -> np.ndarray:
        """H0 sampled on ts, shape (len(ts), d, d): a view of a time-innermost
        (d, d, len(ts)) array."""
        if self.kind == "interp":
            h = h_i.mat[..., None] * _sample(self.lam_i, ts)
            h += h_f.mat[..., None] * _sample(self.lam_f, ts)
        else:
            h = _SZ[..., None] * _sample(self.omega, ts)
            h += _SX[..., None] * _sample(self.eps, ts)
            h *= 0.5
        return _time_first(h)

    def validate_against(self, h_i: HamiltonianOp, h_f: HamiltonianOp):
        if h_i.dim != h_f.dim:
            raise DimMismatch(f"h_i is {h_i.dim}-dim, h_f is {h_f.dim}-dim")
        if self.kind == "rotating":
            if h_i.dim != 2:
                raise DimMismatch("rotating schedules are two-level only")
            scale = max(1.0, float(np.abs(h_i.mat).max()), float(np.abs(h_f.mat).max()))
            ends = self.h0_batch(h_i, h_f, np.array([self.t_i, self.t_f]))
            if (np.abs(ends[0] - h_i.mat).max() > 1e-10 * scale
                    or np.abs(ends[1] - h_f.mat).max() > 1e-10 * scale):
                raise ParamInconsistent("rotating schedule endpoints disagree with h_i/h_f")

    # ------------------------------------------------------------ factories

    @classmethod
    def linear(cls, tau: float, n_steps: int = 4096, t_i: float = 0.0) -> "Schedule":
        return cls(t_i=t_i, t_f=t_i + tau, kind="interp", n_steps=n_steps)

    @classmethod
    def from_lambdas(cls, lam_i: Callable, lam_f: Callable, tau: float,
                     n_steps: int = 4096, t_i: float = 0.0, **kw) -> "Schedule":
        return cls(t_i=t_i, t_f=t_i + tau, kind="interp",
                   lam_i=lam_i, lam_f=lam_f, n_steps=n_steps, **kw)

    @classmethod
    def rotating_callables(cls, omega: Callable, eps: Callable, tau: float,
                           n_steps: int = 4096, t_i: float = 0.0,
                           mu: Optional[float] = None,
                           omega_bar: Optional[float] = None) -> "Schedule":
        return cls(t_i=t_i, t_f=t_i + tau, kind="rotating", omega=omega, eps=eps,
                   n_steps=n_steps, mu=mu, omega_bar=omega_bar)

    @classmethod
    def rotating_constant_mu(cls, params: MuDynParams, n_steps: int = 4096,
                             t_i: float = 0.0) -> "Schedule":
        """Constant gap Omega = omega_bar/tau, Bloch angle phi(t) = -mu Omega t."""
        om0 = params.omega_bar / params.tau
        mu = params.mu

        def omega(t):
            return om0 * np.cos(mu * om0 * (np.asarray(t, dtype=float) - t_i))

        def eps(t):
            return -om0 * np.sin(mu * om0 * (np.asarray(t, dtype=float) - t_i))

        return cls(t_i=t_i, t_f=t_i + params.tau, kind="rotating", omega=omega,
                   eps=eps, n_steps=n_steps, mu=mu, omega_bar=params.omega_bar)

    @classmethod
    def rotating_cos_sin(cls, omega0: float, tau: float, tau_star: float,
                         n_steps: int = 4096, t_i: float = 0.0) -> "Schedule":
        """Quarter-period sweep omega0 (cos, sin)(pi (t - t_i)/(2 tau*))."""
        params = MuDynParams.cos_sin(omega0, tau, tau_star)

        def omega(t):
            return omega0 * np.cos(np.pi * (np.asarray(t, dtype=float) - t_i) / (2 * tau_star))

        def eps(t):
            return omega0 * np.sin(np.pi * (np.asarray(t, dtype=float) - t_i) / (2 * tau_star))

        return cls(t_i=t_i, t_f=t_i + tau, kind="rotating", omega=omega, eps=eps,
                   n_steps=n_steps, mu=params.mu, omega_bar=params.omega_bar)


class PropagatorTrace(NamedTuple):
    times: np.ndarray
    u_samples: np.ndarray      # (n_steps + 1, d, d); u_samples[0] = identity
    unitarity_drift: float     # worst defect of a chained 64-step block total before projection


def _time_first(a: np.ndarray) -> np.ndarray:
    """(..., n) time-innermost stack as an (n, ...) view."""
    return np.moveaxis(a, -1, 0)


def _time_last(a: np.ndarray) -> np.ndarray:
    """(n, ...) stack as a time-innermost (..., n) view."""
    return np.moveaxis(a, 0, -1)


def _conjugate(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """u x u^dag = u (u x)^dag over a time-innermost stack u[d, d, n], for a
    constant Hermitian x[d, d]."""
    tmp = np.empty((1,) + u.shape[1:], dtype=complex)
    ux = matmul_t(u, x[..., None], np.empty(u.shape, dtype=complex), tmp)
    return matmul_t(u, np.swapaxes(np.conj(ux, out=ux), 0, 1),
                    np.empty(u.shape, dtype=complex), tmp)


def _ordered_products(steps: np.ndarray,
                      tols: Tolerances = DEFAULT_TOLS) -> Tuple[np.ndarray, float]:
    """Running products steps[k-1] ... steps[0] for k = 0..n, and the drift.

    The steps are copied into one identity-padded time-innermost buffer and
    cut into blocks of _REUNITARIZE_EVERY. The products inside every block
    are formed side by side and in place, one broadcast product per
    position. The block totals are chained in order and the chained totals
    projected onto the unitaries in one batched SVD; drift is the worst
    defect ||s^2 - 1|| before that projection. Each block's running products
    are then multiplied, in place, by the projected total of the blocks
    before it (its head), and every 64th sample and the last one are the
    projected totals themselves, unitary to rounding. Returns the samples as
    an (n + 1, d, d) view of the buffer.
    """
    n, d = steps.shape[0], steps.shape[-1]
    m = _REUNITARIZE_EVERY
    nb = -(-n // m)
    buf = np.empty((d, d, nb * m + 1), dtype=complex)
    eye = np.eye(d)[..., None]
    buf[..., :1] = buf[..., n + 1:] = eye
    buf[..., 1:n + 1] = _time_last(steps)
    blocks = buf[..., 1:].reshape(d, d, nb, m)
    prod, tmp = np.empty((2, d, d, nb), dtype=complex)
    for j in range(1, min(m, n)):
        blocks[..., j] = matmul_t(blocks[..., j], blocks[..., j - 1], prod, tmp)
    last = np.minimum(np.arange(1, nb + 1) * m, n)   # buffer index of each block's end
    ends = np.ascontiguousarray(_time_first(buf[..., last]))
    for b in range(1, nb):
        ends[b] = ends[b] @ ends[b - 1]
    ends, drift = polar_project(ends, tols)
    rmatmul_t(blocks[:, :, 1:], _time_last(ends[:-1])[..., None])
    buf[..., last] = _time_last(ends)
    return _time_first(buf[..., :n + 1]), drift


def propagate_u0(h_i: HamiltonianOp, h_f: HamiltonianOp, sched: Schedule,
                 tols: Tolerances = DEFAULT_TOLS) -> PropagatorTrace:
    """Bare propagator by midpoint exponential stepping, sampled on the grid."""
    sched.validate_against(h_i, h_f)
    ts = sched.times()
    dt = sched.tau / sched.n_steps
    steps = herm_expi_batch(sched.h0_batch(h_i, h_f, ts[:-1] + 0.5 * dt), dt)
    return PropagatorTrace(ts, *_ordered_products(steps, tols))


def _descending_eigvectors(rho: DensityMatrix) -> Tuple[np.ndarray, np.ndarray]:
    vals, vecs = rho.eig()
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def target_unitary(rho_i: DensityMatrix, h_f: HamiltonianOp,
                   phases_phi) -> np.ndarray:
    """R = sum_n e^{i phi_n} |e_n^f><r_n|, descending r_n onto ascending e_n^f.

    R rho_i R^dag is the passive state of rho_i for h_f, for any phases.
    """
    if rho_i.dim != h_f.dim:
        raise DimMismatch(f"state is {rho_i.dim}-dim, hamiltonian {h_f.dim}-dim")
    phases = np.asarray(phases_phi, dtype=float)
    if phases.shape != (rho_i.dim,):
        raise LengthMismatch(f"need {rho_i.dim} phases, got shape {phases.shape}")
    _, v_r = _descending_eigvectors(rho_i)
    return (h_f.basis * np.exp(1j * phases)[None, :]) @ dagger(v_r)


@dataclass(frozen=True)
class DriveSynthesis:
    """Correction-drive synthesis record."""

    chi: np.ndarray             # Hermitian generator
    thetas: np.ndarray          # its eigenphases in [-pi, pi), ascending
    phases_phi: np.ndarray      # target phases used
    v_samples: np.ndarray       # V(t) on the schedule grid
    w: float                    # time-averaged Frobenius cost of V
    w_min: float                # (sum theta^2)^{1/2} / tau
    final_state: DensityMatrix  # R rho_i R^dag
    target_passive: DensityMatrix

    def to_json(self, residuals: Optional[dict] = None) -> dict:
        out = {
            "chi": matrix_to_json(self.chi),
            "thetas": [float(t) for t in self.thetas],
            "phases_phi": [float(p) for p in self.phases_phi],
            "w": self.w,
            "w_min": self.w_min,
        }
        if residuals is not None:
            out["residuals"] = {k: float(v) for k, v in residuals.items()}
        return out


def synthesize_drive(rho_i: DensityMatrix, h_i: HamiltonianOp, h_f: HamiltonianOp,
                     sched: Schedule, phases_phi=None,
                     tols: Tolerances = DEFAULT_TOLS,
                     trace: Optional[PropagatorTrace] = None) -> DriveSynthesis:
    """Build V(t) = -fdot(t) U0 chi U0^dag reaching the passive target.

    chi is the principal log of U0(t_f)^dag R. The cost w integrates
    ||V||_F = |fdot| (sum theta^2)^{1/2}; for a monotone ramp the integral
    of |fdot| telescopes to f(t_f) - f(t_i) and w equals w_min exactly,
    otherwise it is done by trapezoid on the grid. ``trace`` is U0 on
    sched's grid, as propagate_u0(h_i, h_f, sched, tols) returns it, for a
    caller that already has it; by default it is propagated here.
    """
    if phases_phi is None:
        phases_phi = np.zeros(rho_i.dim)
    if trace is None:
        trace = propagate_u0(h_i, h_f, sched, tols)
    elif not np.array_equal(trace.times, sched.times()):
        raise ParamInconsistent("the trace is not sampled on the schedule's grid")
    r = target_unitary(rho_i, h_f, phases_phi)
    chi, modes = principal_log_unitary(dagger(trace.u_samples[-1]) @ r, tols)
    thetas = modes.phases
    w_min = float(np.linalg.norm(thetas)) / sched.tau
    fdot = _sample(sched.ramp_fdot, trace.times)
    v = _conjugate(_time_last(trace.u_samples), chi)
    v *= -fdot
    if np.all(fdot >= -1e-12):
        w = w_min * float(sched.ramp_f(sched.t_f) - sched.ramp_f(sched.t_i))
    else:
        w = w_min * float(trapezoid(np.abs(fdot), trace.times))
    final_state = DensityMatrix(r @ rho_i.mat @ dagger(r), tols)
    return DriveSynthesis(chi=chi, thetas=thetas,
                          phases_phi=np.asarray(phases_phi, dtype=float),
                          v_samples=_time_first(v), w=w, w_min=w_min,
                          final_state=final_state,
                          target_passive=passive_state(rho_i, h_f))


def verify_drive(synth: DriveSynthesis, rho_i: DensityMatrix, h_i: HamiltonianOp,
                 h_f: HamiltonianOp, sched: Schedule,
                 tols: Tolerances = DEFAULT_TOLS) -> Tuple[float, float]:
    """Propagate H0(t) + V(t) end to end and check it does what it promises.

    Returns (final_energy_residual, state_distance). Raises VerificationFailed
    (with all residuals attached) when the final state is not the passive
    target to 1e-6 trace distance, the final energy is off the passive
    minimum by more than 1e-8 x spectral width, the endpoint Hamiltonians
    are not h_i/h_f, or the explicit work integral of rho(t) dH/dt does not
    telescope to the total energy change.
    """
    sched.validate_against(h_i, h_f)
    n = sched.n_steps
    ts = sched.times()
    dt = sched.tau / n
    mids = ts[:-1] + 0.5 * dt

    # each (d, d, n) buffer is dropped once consumed, which bounds peak memory
    fine = propagate_u0(h_i, h_f, replace(sched, n_steps=2 * n), tols)
    v_mid = _conjugate(_time_last(fine.u_samples[1::2]), synth.chi)
    del fine
    v_mid *= -_sample(sched.ramp_fdot, mids)
    h_mid = _time_last(sched.h0_batch(h_i, h_f, mids))
    h_mid += v_mid
    del v_mid
    u_samples, _ = _ordered_products(herm_expi_batch(_time_first(h_mid), dt), tols)
    del h_mid
    u = u_samples[-1]

    rho_f = DensityMatrix(u @ rho_i.mat @ dagger(u), tols)
    state_distance = trace_distance(rho_f.mat, synth.target_passive.mat)
    energy_residual = abs(h_f.energy(rho_f) - passive_energy(rho_i, h_f))

    ends = sched.h0_batch(h_i, h_f, np.array([sched.t_i, sched.t_f]))
    endpoint_residual = max(
        float(np.abs(ends[0] + synth.v_samples[0] - h_i.mat).max()),
        float(np.abs(ends[1] + synth.v_samples[-1] - h_f.mat).max()))

    h_tot = _time_last(sched.h0_batch(h_i, h_f, ts))
    h_tot += _time_last(synth.v_samples)
    hdot = np.empty_like(h_tot)
    hdot[..., 1:-1] = (h_tot[..., 2:] - h_tot[..., :-2]) / (2 * dt)
    hdot[..., 0] = (-3 * h_tot[..., 0] + 4 * h_tot[..., 1] - h_tot[..., 2]) / (2 * dt)
    hdot[..., -1] = (3 * h_tot[..., -1] - 4 * h_tot[..., -2] + h_tot[..., -3]) / (2 * dt)
    del h_tot
    rho_t = _conjugate(_time_last(u_samples), rho_i.mat)
    work = float(trapezoid(np.einsum("ijt,jit->t", rho_t, hdot).real, ts))
    work_residual = abs(work - (h_f.energy(rho_f) - h_i.energy(rho_i)))

    h_scale = max(1.0, float(np.abs(h_i.mat).max()), float(np.abs(h_f.mat).max()))
    e_scale = max(1.0, h_i.spectral_width, h_f.spectral_width)
    width = max(h_f.spectral_width, 1e-12)
    residuals = {
        "state_distance": state_distance,
        "final_energy_residual": energy_residual,
        "endpoint_residual": endpoint_residual,
        "work_integral_residual": work_residual,
    }
    if (state_distance > 1e-6 or energy_residual > 1e-8 * width
            or endpoint_residual > 1e-12 * h_scale or work_residual > 1e-6 * e_scale):
        raise VerificationFailed("drive verification out of contract", residuals=residuals)
    return energy_residual, state_distance


class PhaseOptResult(NamedTuple):
    phases: Optional[np.ndarray]   # None in monte_carlo mode
    value: float                   # w_min at the phases, or the phase average
    stderr: Optional[float] = None


_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi / 3 * np.arange(3))


def eigenphases_from_trace_det(tr, det_angle, d: int):
    """Eigenphases of d x d unitaries (d = 2, 3) from tr M and arg det M.

    With s = e^{i a/d}, a = det_angle on [-pi, pi), the eigenvalues of M are
    s z_k, where z_k are the roots of z^2 - u z + 1 (d = 2) or of
    z^3 - u z^2 + conj(u) z - 1 (d = 3), u = tr M / s: a unitary's
    characteristic polynomial depends only on its trace and determinant.
    The quadratic is solved as z = e^{+-i arccos(Re u / 2)}; the cubic by
    Cardano and two Newton steps. Returns (phases[..., d], ok[...]): the
    phases are on [-pi, pi), in no particular order, and valid only where ok.
    ok is False where two roots lie closer than EIGENPHASE_SEPARATION, where
    Newton loses its quadratic convergence (and at a triple root, where
    Cardano's cube root vanishes); such rows need a general eigensolver.
    """
    a = wrap_pi(det_angle) / d
    u = np.asarray(tr, dtype=complex) * np.exp(-1j * a)
    if d == 2:
        gam = np.arccos(np.clip(0.5 * u.real, -1.0, 1.0))
        psi = np.stack([gam, -gam], axis=-1)
        ok = 2.0 * np.sin(gam) >= EIGENPHASE_SEPARATION   # |e^{i gam} - e^{-i gam}|
        return wrap_pi(a[..., None] + psi), ok
    if d != 3:
        raise DimTooLarge(f"trace-determinant eigenphases cover d = 2, 3, not {d}")
    uc = np.conj(u)
    p = uc - u * u / 3.0                        # z = y + u/3: y^3 + p y + q = 0
    q = (u * uc).real / 3.0 - 1.0 - 2.0 / 27.0 * u**3
    half_q = -0.5 * q
    disc = np.sqrt(half_q * half_q + p**3 / 27.0)
    w = np.where((np.conj(half_q) * disc).real >= 0.0, half_q + disc, half_q - disc)
    root = np.abs(w) ** (1.0 / 3.0) * np.exp(1j / 3.0 * np.angle(w))
    triple = root == 0.0
    root = np.where(triple, 1.0, root)[..., None] * _CUBE_ROOTS_OF_UNITY
    z = root - p[..., None] / (3.0 * root) + u[..., None] / 3.0
    sep = np.minimum(np.minimum(abs(z[..., 0] - z[..., 1]), abs(z[..., 0] - z[..., 2])),
                     abs(z[..., 1] - z[..., 2]))
    ok = (sep >= EIGENPHASE_SEPARATION) & ~triple
    u, uc = u[..., None], uc[..., None]
    for _ in range(2):
        slope = (3.0 * z - 2.0 * u) * z + uc   # |slope| >= separation^2 where ok
        z = z - (((z - u) * z + uc) * z - 1.0) / np.where(ok[..., None], slope, 1.0)
    return wrap_pi(a[..., None] + np.angle(z)), ok


def _phase_costs(m0_det_angle: float, c: np.ndarray, a_mat: np.ndarray,
                 v_r: np.ndarray, phases: np.ndarray, tau: float) -> np.ndarray:
    """(sum theta^2)^{1/2}/tau for a batch of phase vectors.

    theta are the eigenphases of M = A diag(e^{i phi}) V^dag, whose trace is
    sum_n e^{i phi_n} c_n and whose determinant has phase
    m0_det_angle + sum_n phi_n. For d = 2, 3 they come from
    eigenphases_from_trace_det; the rows it does not serve, and every row
    at other d, form M and call eigvals.
    """
    d = c.shape[0]
    if d in (2, 3):
        th, ok = eigenphases_from_trace_det((np.exp(1j * phases) * c[None, :]).sum(axis=1),
                                            m0_det_angle + phases.sum(axis=1), d)
        rows = np.flatnonzero(~ok)
    else:
        th, rows = np.empty(phases.shape), np.arange(phases.shape[0])
    v_r_dag = dagger(v_r)
    for lo in range(0, rows.size, 8192):
        r = rows[lo:lo + 8192]
        m = (a_mat[None, :, :] * np.exp(1j * phases[r])[:, None, :]) @ v_r_dag[None, :, :]
        th[r] = np.angle(np.linalg.eigvals(m))
    return np.sqrt((th**2).sum(axis=1)) / tau


def optimize_phases(rho_i: DensityMatrix, h_i: HamiltonianOp, h_f: HamiltonianOp,
                    sched: Schedule, mode: str = "analytic2", n_draws: int = 10_000,
                    rng: Optional[np.random.Generator] = None, grid_points: int = 64,
                    u_f: Optional[np.ndarray] = None,
                    tols: Tolerances = DEFAULT_TOLS) -> PhaseOptResult:
    """Pick (or average over) the free target phases phi_n.

    "analytic2": closed-form minimizer for d = 2. "grid": exhaustive scan,
    d <= 3. "monte_carlo": mean and standard error of (sum theta^2)^{1/2}/tau
    over n_draws uniform phase vectors (phases are then reported as None).
    """
    if u_f is None:
        u_f = propagate_u0(h_i, h_f, sched, tols).u_samples[-1]
    _, v_r = _descending_eigvectors(rho_i)
    a_mat = dagger(u_f) @ h_f.basis
    c = np.einsum("in,in->n", v_r.conj(), a_mat)
    det_angle = float(np.angle(np.linalg.det(a_mat @ dagger(v_r))))
    d = rho_i.dim
    tau = sched.tau

    if mode == "analytic2":
        if d != 2:
            raise DimTooLarge("the analytic phase minimizer covers d = 2 only")
        delta = 0.5 * (np.angle(c[0]) - np.angle(c[1]))
        phases = np.array([-det_angle / 2 - delta, -det_angle / 2 + delta])
        if ((np.exp(1j * phases) * c).sum()).real < 0:
            phases += np.array([-np.pi, np.pi])
        phases = wrap_pi(phases)
        value = np.sqrt(2.0) / tau * np.arccos(
            np.clip(0.5 * (abs(c[0]) + abs(c[1])), 0.0, 1.0))
        return PhaseOptResult(phases, float(value))

    if mode == "grid":
        if d > 3:
            raise DimTooLarge(f"grid phase scan over d = {d} axes is not supported")
        axis = np.linspace(-np.pi, np.pi, grid_points, endpoint=False)
        mesh = np.stack(np.meshgrid(*([axis] * d), indexing="ij"),
                        axis=-1).reshape(-1, d)
        costs = _phase_costs(det_angle, c, a_mat, v_r, mesh, tau)
        k = int(np.argmin(costs))
        return PhaseOptResult(mesh[k].copy(), float(costs[k]))

    if mode == "monte_carlo":
        rng = np.random.default_rng(0) if rng is None else rng
        draws = rng.uniform(-np.pi, np.pi, size=(n_draws, d))
        costs = _phase_costs(det_angle, c, a_mat, v_r, draws, tau)
        mean = float(costs.mean())
        stderr = float(costs.std(ddof=1) / np.sqrt(n_draws))
        return PhaseOptResult(None, mean, stderr)

    raise ParamOutOfRange(f"unknown phase optimization mode {mode!r}")


def counterdiabatic_cost(sched: Schedule,
                         tols: Tolerances = DEFAULT_TOLS) -> Tuple[float, np.ndarray]:
    """Cost of transitionless driving for a rotating two-level schedule.

    norm_trace[k] = (2 sum_n <edot_n|edot_n>)^{1/2} from gauge-fixed finite
    differences of the instantaneous eigenvectors; w_sta is its time average.
    When the schedule carries constant-mu metadata the result is cross-checked
    against |mu| omega_bar / tau.
    """
    if sched.kind != "rotating":
        raise ParamOutOfRange("counterdiabatic cost is defined for rotating schedules")
    ts = sched.times()
    if len(ts) < 3:
        raise ParamOutOfRange("need at least 2 steps for eigenvector derivatives")
    om = _sample(sched.omega, ts)
    ep = _sample(sched.eps, ts)
    if np.hypot(om, ep).min() <= 0.0:
        raise ParamOutOfRange("the gap must stay positive on the grid")
    h = 0.5 * (om[:, None, None] * _SZ + ep[:, None, None] * _SX)
    _, vecs = np.linalg.eigh(h)

    overlaps = np.einsum("tij,tij->tj", vecs[:-1].conj(), vecs[1:])
    if float(np.abs(overlaps).min()) < 1e-8:
        raise GaugeFailure("consecutive eigenvectors nearly orthogonal; refine the grid")
    gamma = np.ones((len(ts), 2), dtype=complex)
    gamma[1:] = np.exp(-1j * np.cumsum(np.angle(overlaps), axis=0))
    vecs = vecs * gamma[:, None, :]

    dt = sched.tau / sched.n_steps
    dv = np.empty_like(vecs)
    dv[1:-1] = (vecs[2:] - vecs[:-2]) / (2 * dt)
    dv[0] = (-3 * vecs[0] + 4 * vecs[1] - vecs[2]) / (2 * dt)
    dv[-1] = (3 * vecs[-1] - 4 * vecs[-2] + vecs[-3]) / (2 * dt)
    norm_trace = np.sqrt(2.0 * np.einsum("tij,tij->t", dv.conj(), dv).real)
    w_sta = float(trapezoid(norm_trace, ts)) / sched.tau

    if sched.mu is not None and sched.omega_bar is not None:
        expected = abs(sched.mu) * sched.omega_bar / sched.tau
        if abs(w_sta - expected) > 1e-6 * max(1.0, expected):
            raise VerificationFailed(
                "counterdiabatic cost disagrees with the constant-mu closed form",
                residuals={"w_sta": w_sta, "closed_form": expected})
    return w_sta, norm_trace
