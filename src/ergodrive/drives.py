"""Time-dependent drive machinery.

Schedules run on [0, tau] and interpolate H0(t) between an initial and a
final Hamiltonian, or rotate a two-level gap at a constant rate mu (the
constant-mu family of tls.MuDynParams). Every propagation takes
Simpson-node fourth-order Magnus steps: on [t_k, t_k + dt], with
K1 = dt (H(t_k) + 4 H(t_k + dt/2) + H(t_k + dt)) / 6 and
K2 = dt (H(t_k + dt) - H(t_k)), the step is exp(-i H_eff dt) with
H_eff dt = K1 + (i/12) [K1, K2] (Blanes, Casas, Oteo & Ros, Phys. Rep.
470, 151 (2009)), so an n-step grid samples H at its 2n + 1 Simpson nodes.
The bare propagator U0 is one blocked ordered product of those steps,
projected onto the unitaries every 64 steps (linalg.ordered_products, whose
kernels return their own arrays); the same kernel propagates U0 on
verify_drive's grid of 2n steps, whose samples are U0 at every Simpson node
of the n-step grid, and then H0 + V on the n-step grid, so a verified n
is at most PROPAGATION_MAX_STEPS / 2. verify_drive samples H0 once, at the
Simpson nodes of its 2n-step grid, and takes the n-step grid's nodes from
every other one: linspace(0, tau, 2m + 1)[::2] is linspace(0, tau, m + 1)
bit for bit, and H0 is elementwise in t. A Schedule's n_steps is explicit, or
left open for synthesize_drive, the one home of the step-count rule:
final_unitary returns (n, U_n(tau)), the least n = 64 * 2^k at which the
step-doubling estimate of U0(tau)'s error, from U_{n/2} and U_n (pairwise
products of the step stacks), is at most PROPAGATION_ERROR, and U0(tau)
there; for a drive the count doubles while _driven_error, the same estimate
for H0 + V from the drive's samples, is above DRIVEN_PROPAGATION_ERROR.
propagate_u0 refuses an open count and one above PROPAGATION_MAX_STEPS.
Every stack of small matrices on a time grid is kept time-innermost, as a
(d, d, n) array (handed out as (n, d, d) views): the step exponentials are
one Taylor kernel over the stack, and every product or conjugation
U X U^dag is d broadcast multiply-adds over length-n vectors
(linalg.matmul_t), not n small matmuls. Every scratch stack of a drive is
a fresh array. A target unitary R maps the state's descending eigenvectors
onto the ascending final energy basis, chi = principal log of U0(tau)^dag R
generates the correction V(t) = -fdot(t) U0 chi U0^dag, and the cost
functionals w, w_min follow from chi's eigenphases. The phase optimizers
scan w_min over the free target phases phi: the eigenphases of
M(phi) = U0(tau)^dag R(phi) at d = 2, 3 come from tr M and det M alone
(eigenphases_from_trace_det, one broadcast root solve over the batch), and
only rows with nearly repeated eigenphases, or d >= 4, form M for a general
eigensolver. M(phi + s 1) = e^{is} M(phi), so a grid scan over P points
per axis solves the eigenphases at only P^(d-1) points, one per class of
index offsets, and shifts them by the multiples of 2 pi / P to cost every
other point of the class. synthesize_drive forms one U0 trace per count it
tries and resolves its target phases there: on the count final_unitary
picks, the trace is the running products of the steps its estimate formed
on that grid; on each doubled count, those of steps formed from H0 sampled
once at its Simpson nodes. Either way the driven estimate takes H0 from
every other one of those nodes. optimize_phases takes
the final U0 a caller already has; otherwise it takes U0(tau) from
final_unitary on a schedule that leaves its count open, propagating nothing,
and from propagate_u0 on a fixed one.
verify_drive forms the passive target it checks against itself.
Every threshold is a constant of the tolerances module. Everything here is
in hbar = 1 units.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import (DimMismatch, DimTooLarge, LengthMismatch, NoConvergence, ParamInconsistent,
                     ParamOutOfRange, VerificationFailed)
from .linalg import (dagger, herm_expi_batch, matmul_t, ordered_products, principal_log_unitary,
                     time_first, time_last, trace_distance)
from .states import DensityMatrix, HamiltonianOp, matrix_to_json, passive_energy, passive_state
from .tls import MuDynParams, check_count, check_drive, wrap_pi
from .tolerances import (DRIVEN_PROPAGATION_ERROR, EIGENPHASE_SEPARATION, GRID_SHIFT_MARGIN,
                         PROPAGATION_ERROR, PROPAGATION_MAX_STEPS, ROTATING_ENDPOINT_REL,
                         VERIFY_ENDPOINT_REL, VERIFY_ENERGY_REL, VERIFY_STATE_DISTANCE,
                         VERIFY_WIDTH_FLOOR, VERIFY_WORK_REL)

_SZ = np.diag([1.0, -1.0]).astype(complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def smoothstep_dot(s):
    """6s(1 - s): d/ds of the smoothstep ramp 3s^2 - 2s^3, monotone on [0, 1]."""
    s = np.asarray(s, dtype=float)
    return 6.0 * s * (1.0 - s)


@dataclass(frozen=True)
class Schedule:
    """Drive schedule on [0, tau].

    H0(t) = (1 - t/tau) h_i + (t/tau) h_f, unless mu and omega_bar are given:
    then the schedule is the constant-mu rotating two-level drive
    H0(t) = (A/2)(cos(mu A t) sz - sin(mu A t) sx), A = omega_bar/tau, a
    constant gap whose Bloch angle turns at the rate -mu A (tls.MuDynParams);
    mu must be finite and omega_bar finite and >= 0, and giving only one of
    them is refused, as is a gap A or an angle mu A tau that overflows. The
    correction V(t) follows the ramp f = 3s^2 - 2s^3, s = t/tau, which runs
    0 -> 1 with flat ends. n_steps is an integer >= 1, or None (the default)
    to leave the count to the error targets: synthesize_drive then picks it.
    """

    tau: float
    n_steps: Optional[int] = None
    mu: Optional[float] = None
    omega_bar: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise ParamOutOfRange(f"need 0 < tau < inf, got {self.tau}")
        if self.n_steps is not None:
            check_count(self.n_steps, "n_steps", 1)
        if (self.mu is None) != (self.omega_bar is None):
            raise ParamOutOfRange("a rotating schedule needs both mu and omega_bar")
        if self.rotating:
            check_drive(self.tau, self.omega_bar)
            if not np.isfinite(self.mu):
                raise ParamOutOfRange(f"need a finite mu, got {self.mu}")
            # the gap A and the angle mu A t at t = tau, as _h0_stack forms
            # them, in Python floats, which overflow to inf without a warning
            tau, gap = float(self.tau), float(self.omega_bar) / float(self.tau)
            if not (math.isfinite(gap) and math.isfinite(float(self.mu) * gap * tau)):
                raise ParamOutOfRange(
                    f"the gap omega_bar / tau and the angle mu omega_bar t / tau up to "
                    f"t = tau must be finite, got mu = {self.mu}, omega_bar = "
                    f"{self.omega_bar}, tau = {self.tau}")

    @property
    def rotating(self) -> bool:
        return self.mu is not None

    def ramp_fdot(self, ts: np.ndarray) -> np.ndarray:
        """The ramp's derivative on ts: smoothstep_dot(t/tau) / tau."""
        return smoothstep_dot(ts / self.tau) / self.tau

    def times(self, n_steps: Optional[int] = None) -> np.ndarray:
        """The n + 1 points of the n-step grid on [0, tau], n = n_steps or the
        schedule's own; a grid spacing below the smallest normal float is
        refused (ParamOutOfRange), as is an open count. The points are
        k (tau / n) with the last one set to tau, the bits of
        np.linspace(0, tau, n + 1) without its Python overhead."""
        n = self.n_steps if n_steps is None else n_steps
        if n is None:
            raise ParamOutOfRange("the schedule leaves n_steps to the error targets: "
                                  "fix it first (drives.synthesize_drive picks one)")
        if self.tau / n < np.finfo(float).tiny:
            raise ParamOutOfRange(f"{n} steps on tau = {self.tau} are spaced below "
                                  f"the smallest normal float")
        ts = np.arange(n + 1) * (self.tau / n)
        ts[-1] = self.tau
        return ts

    def h0_batch(self, h_i: HamiltonianOp, h_f: HamiltonianOp, ts: np.ndarray) -> np.ndarray:
        """H0 sampled on ts, shape (len(ts), d, d): a view of a time-innermost
        (d, d, len(ts)) array."""
        return time_first(self._h0_stack(h_i, h_f, ts))

    def _h0_stack(self, h_i: HamiltonianOp, h_f: HamiltonianOp, ts: np.ndarray) -> np.ndarray:
        """H0 on ts as a fresh time-innermost stack [d, d, len(ts)]. The second
        term is added one row at a time, so no second full stack is formed,
        only one row's worth [d, len(ts)]. A rotating schedule's two terms
        are sz and sx times (omega, eps) = A (cos, -sin)(mu A t)."""
        if self.rotating:
            gap = self.omega_bar / self.tau
            angle = self.mu * gap * ts
            (m0, m1), (c0, c1) = (_SZ, _SX), (gap * np.cos(angle), -gap * np.sin(angle))
        else:
            (m0, c0), (m1, c1) = (h_i.mat, 1.0 - ts / self.tau), (h_f.mat, ts / self.tau)
        out = np.multiply(m0[..., None], c0)
        for i in range(len(m1)):
            out[i] += np.multiply(m1[i, :, None], c1)
        if self.rotating:
            out *= 0.5
        return out

    def validate_against(self, h_i: HamiltonianOp, h_f: HamiltonianOp):
        if h_i.dim != h_f.dim:
            raise DimMismatch(f"h_i is {h_i.dim}-dim, h_f is {h_f.dim}-dim")
        if self.rotating:
            if h_i.dim != 2:
                raise DimMismatch("rotating schedules are two-level only")
            scale = max(1.0, float(np.abs(h_i.mat).max()), float(np.abs(h_f.mat).max()))
            ends = self.h0_batch(h_i, h_f, np.array([0.0, self.tau]))
            if (np.abs(ends[0] - h_i.mat).max() > ROTATING_ENDPOINT_REL * scale
                    or np.abs(ends[1] - h_f.mat).max() > ROTATING_ENDPOINT_REL * scale):
                raise ParamInconsistent("rotating schedule endpoints disagree with h_i/h_f")

    # ------------------------------------------------------------ factories

    @classmethod
    def linear(cls, tau: float, n_steps: Optional[int] = None) -> "Schedule":
        return cls(tau, n_steps=n_steps)

    @classmethod
    def rotating_constant_mu(cls, params: MuDynParams,
                             n_steps: Optional[int] = None) -> "Schedule":
        """Constant gap Omega = omega_bar/tau, Bloch angle phi(t) = -mu Omega t."""
        return cls(params.tau, n_steps, params.mu, params.omega_bar)

    @classmethod
    def rotating_cos_sin(cls, omega0: float, tau: float, tau_star: float,
                         n_steps: Optional[int] = None) -> "Schedule":
        """Quarter-period sweep omega0 (cos, sin)(pi t/(2 tau*)): constant mu
        = -pi/(2 omega0 tau*) (tls.MuDynParams.cos_sin)."""
        return cls.rotating_constant_mu(MuDynParams.cos_sin(omega0, tau, tau_star), n_steps)


class PropagatorTrace(NamedTuple):
    times: np.ndarray
    u_samples: np.ndarray      # (n_steps + 1, d, d); u_samples[0] = identity
    unitarity_drift: float     # worst defect of a chained 64-step block total before projection


def _conjugate(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """u x u^dag = u (u x)^dag over a time-innermost stack u[d, d, n], for a
    constant Hermitian x[d, d], as a fresh stack."""
    ux = matmul_t(u, x[..., None], np.empty(u.shape, dtype=complex))
    return matmul_t(u, np.swapaxes(np.conj(ux, out=ux), 0, 1),
                    np.empty(u.shape, dtype=complex))


def _magnus_exponent(h_nodes: np.ndarray, dt: float) -> np.ndarray:
    """H_eff of the Simpson-node Magnus-4 step on every interval of a grid.

    h_nodes[d, d, 2n + 1] is H at the grid's Simpson nodes t_0, t_0 + dt/2,
    t_1, ..., t_n. Per interval, with the node average
    Hbar = (H(t_k) + 4 H(t_k + dt/2) + H(t_{k+1})) / 6 and the difference
    D = H(t_{k+1}) - H(t_k), H_eff = Hbar + (i dt / 12) [Hbar, D], which is
    K1 + (i/12) [K1, K2] over dt, as a fresh (d, d, n) stack. For Hermitian
    Hbar and D, s [Hbar, D] = s Hbar D + (s Hbar D)^dag with s = i dt / 12,
    so the commutator takes one product.
    """
    left, mid, right = h_nodes[..., :-1:2], h_nodes[..., 1::2], h_nodes[..., 2::2]
    h_bar = np.multiply(mid, 4.0)
    h_bar += left
    h_bar += right
    h_bar *= 1.0 / 6.0
    diff = np.subtract(right, left)
    comm = matmul_t(h_bar, diff, np.empty(diff.shape, dtype=complex))
    comm *= 1j * dt / 12.0
    h_bar += comm
    h_bar += np.swapaxes(np.conj(comm, out=comm), 0, 1)
    return h_bar


def _magnus_steps(h_nodes: np.ndarray, tau: float) -> np.ndarray:
    """The m Magnus steps exp(-i H_eff dt), dt = tau / m, of a grid on
    [0, tau] (see _magnus_exponent), from H at its 2m + 1 Simpson nodes
    h_nodes[d, d, 2m + 1], as a fresh time-innermost stack [d, d, m]."""
    dt = tau / ((h_nodes.shape[-1] - 1) // 2)
    return time_last(herm_expi_batch(time_first(_magnus_exponent(h_nodes, dt)), dt))


def propagate_u0(h_i: HamiltonianOp, h_f: HamiltonianOp, sched: Schedule) -> PropagatorTrace:
    """Bare propagator by Simpson-node Magnus-4 steps on sched's fixed grid of
    at most PROPAGATION_MAX_STEPS steps (ParamOutOfRange before sampling)."""
    sched.validate_against(h_i, h_f)
    n = sched.n_steps
    if n is not None and n > PROPAGATION_MAX_STEPS:
        raise ParamOutOfRange(f"propagating {n} steps is more than {PROPAGATION_MAX_STEPS}")
    return _u0_trace(h_i, h_f, sched)[0]


def _u0_trace(h_i: HamiltonianOp, h_f: HamiltonianOp, sched: Schedule):
    """propagate_u0's trace on sched's grid, unchecked, and the H0 Simpson
    nodes [d, d, 2n + 1] it took its steps from, sampled once."""
    ts = sched.times()
    h_nodes = sched._h0_stack(h_i, h_f, sched.times(2 * sched.n_steps))
    return PropagatorTrace(ts, *ordered_products(_magnus_steps(h_nodes, sched.tau))), h_nodes


def _final_product(h_nodes: np.ndarray, tau: float) -> Tuple[np.ndarray, np.ndarray]:
    """(U(tau), steps): the product of the m Magnus steps on [0, tau] (see
    _magnus_steps) from H at the grid's 2m + 1 Simpson nodes
    h_nodes[d, d, 2m + 1], later steps on the left, without the samples
    before it, and the stack of those steps, which the product leaves as it
    is. Each pass multiplies neighbouring pairs into a stack half as long."""
    steps = _magnus_steps(h_nodes, tau)
    d, n = steps.shape[0], steps.shape[-1]
    prod = steps
    while n > 1:
        half, odd = divmod(n, 2)
        pairs = np.empty((d, d, half + odd), dtype=complex)
        matmul_t(prod[..., 1:2 * half:2], prod[..., :2 * half:2], pairs[..., :half])
        if odd:
            pairs[..., half] = prod[..., n - 1]
        prod, n = pairs, half + odd
    return prod[..., 0], steps


# final_unitary's first step count; later ones double it
FIRST_ESTIMATE_STEPS = 64


def final_unitary(h_i: HamiltonianOp, h_f: HamiltonianOp,
                  sched: Schedule) -> Tuple[int, np.ndarray]:
    """(n, U_n(tau)): the least step count n = 64 * 2^k at which the
    step-doubling estimate of U0(tau)'s error is at most PROPAGATION_ERROR,
    and U0(tau) on that grid, the pairwise product of its steps that the
    estimate formed (see _final_product).

    For a fourth-order step, U_{n/2}(tau) - U(tau) = 16 (U_n(tau) - U(tau))
    to leading order, so the estimate of U_n's error is
    max |U_{n/2}(tau) - U_n(tau)| / 15 over the entries, read off the
    coarser grid as in _driven_error: no grid finer than the n returned is
    formed. Only sched's tau and Hamiltonian are read, not its n_steps.
    Raises NoConvergence at the first estimate that is not a finite number,
    and at a failed one once verifying the next count would need more than
    PROPAGATION_MAX_STEPS steps, so the largest n tried is a quarter of that.
    """
    return _final_unitary(h_i, h_f, sched)[:2]


def _final_unitary(h_i: HamiltonianOp, h_f: HamiltonianOp, sched: Schedule):
    """final_unitary's (n, U_n(tau)), and the H0 Simpson nodes and Magnus
    steps of the n-step grid that it formed them from."""
    sched.validate_against(h_i, h_f)
    # each grid of m steps from H0 at its 2m + 1 Simpson nodes, times(2m)
    n = FIRST_ESTIMATE_STEPS
    coarse, _ = _final_product(sched._h0_stack(h_i, h_f, sched.times(n)), sched.tau)
    while True:
        h_nodes = sched._h0_stack(h_i, h_f, sched.times(2 * n))
        u, steps = _final_product(h_nodes, sched.tau)
        error = float(np.abs(coarse - u).max()) / 15.0
        if error <= PROPAGATION_ERROR:
            return n, u, h_nodes, steps
        if not np.isfinite(error):
            raise NoConvergence(f"estimated U0(tau) error at {n} steps is {error}, "
                                f"not a finite number")
        if 4 * n > PROPAGATION_MAX_STEPS:    # verification takes 2n steps
            raise NoConvergence(f"estimated U0(tau) error {error:.3e} at {n} steps is above "
                                f"{PROPAGATION_ERROR:.0e}, and verifying a finer grid needs "
                                f"more than {PROPAGATION_MAX_STEPS} steps")
        n, coarse = 2 * n, u


def _check_verifiable(n: int) -> None:
    """Refuse n steps whose verification grid of 2n exceeds PROPAGATION_MAX_STEPS."""
    if 2 * n > PROPAGATION_MAX_STEPS:
        raise ParamOutOfRange(f"verifying {n} steps needs a propagation of {2 * n} steps, "
                              f"more than {PROPAGATION_MAX_STEPS}")


def _descending_eigvectors(rho: DensityMatrix) -> Tuple[np.ndarray, np.ndarray]:
    vals, vecs = rho.eig()
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def _checked_phases(rho_i: DensityMatrix, h_f: HamiltonianOp, phases_phi):
    """phases_phi as d finite numbers (None is zeros; LengthMismatch, or
    ParamOutOfRange for a non-finite one), or the name "analytic2" (d = 2,
    DimTooLarge; other names ParamOutOfRange)."""
    d = rho_i.dim
    if d != h_f.dim:
        raise DimMismatch(f"state is {d}-dim, hamiltonian {h_f.dim}-dim")
    if phases_phi is None:
        return np.zeros(d)
    if isinstance(phases_phi, str):
        if phases_phi != "analytic2":
            raise ParamOutOfRange(f"unknown target phases {phases_phi!r}")
        if d != 2:
            raise DimTooLarge("the analytic phase minimizer covers d = 2 only")
        return phases_phi
    phases = np.asarray(phases_phi, dtype=float)
    if phases.shape != (d,):
        raise LengthMismatch(f"need {d} phases, got shape {phases.shape}")
    if not np.isfinite(phases).all():
        raise ParamOutOfRange(f"target phases must be finite, got {phases}")
    return phases


def target_unitary(rho_i: DensityMatrix, h_f: HamiltonianOp,
                   phases_phi) -> np.ndarray:
    """R = sum_n e^{i phi_n} |e_n^f><r_n|, descending r_n onto ascending e_n^f.

    R rho_i R^dag is the passive state of rho_i for h_f, for any phases;
    phases_phi is d numbers (or None, see _checked_phases).
    """
    phases = _checked_phases(rho_i, h_f, phases_phi)
    if isinstance(phases, str):
        raise ParamOutOfRange(f"target_unitary takes {rho_i.dim} numbers, not {phases!r}")
    _, v_r = _descending_eigvectors(rho_i)
    return (h_f.basis * np.exp(1j * phases)[None, :]) @ dagger(v_r)


@dataclass(frozen=True)
class DriveSynthesis:
    """Correction-drive synthesis record."""

    chi: np.ndarray             # Hermitian generator
    thetas: np.ndarray          # its eigenphases in [-pi, pi), ascending
    phases_phi: np.ndarray      # target phases used
    v_samples: np.ndarray       # V(t) on the schedule grid
    w: float                    # time-averaged Frobenius cost of V: w_min, as int |fdot| dt = 1
    w_min: float                # (sum theta^2)^{1/2} / tau

    def to_json(self) -> dict:
        return {
            "chi": matrix_to_json(self.chi),
            "thetas": [float(t) for t in self.thetas],
            "phases_phi": [float(p) for p in self.phases_phi],
            "w": self.w,
            "w_min": self.w_min,
        }


def synthesize_drive(rho_i: DensityMatrix, h_i: HamiltonianOp, h_f: HamiltonianOp,
                     sched: Schedule, phases_phi=None) -> DriveSynthesis:
    """Build V(t) = -fdot(t) U0 chi U0^dag reaching the passive target.

    chi is the principal log of U0(tau)^dag R(phi), for phases_phi checked
    before anything is sampled (see _checked_phases); "analytic2" is
    optimize_phases' closed-form minimizer of w_min at each grid's U0(tau).
    An explicit n_steps is used exactly, or refused before anything is
    sampled when verifying it needs more than PROPAGATION_MAX_STEPS steps
    (ParamOutOfRange). An open one starts at final_unitary's count and
    doubles while _driven_error is above DRIVEN_PROPAGATION_ERROR, up to a
    verification of that many steps (NoConvergence, as at the first
    estimate that is not a finite number): one U0 per count tried, the first
    of them the running products of the steps that final_unitary's estimate
    formed at that count, each later one from H0 sampled once at its
    Simpson nodes, and verify_drive takes the open schedule. The cost
    w is the time average of ||V||_F = |fdot| (sum theta^2)^{1/2}; the ramp
    is monotone from 0 to 1, so the integral of |fdot| is 1 and w is w_min.
    """
    phases = _checked_phases(rho_i, h_f, phases_phi)
    fixed = sched.n_steps is not None
    if fixed:
        _check_verifiable(sched.n_steps)
        sched.validate_against(h_i, h_f)
        trace, _ = _u0_trace(h_i, h_f, sched)
    else:
        n, _, h_nodes, steps = _final_unitary(h_i, h_f, sched)
        sched = dataclasses.replace(sched, n_steps=n)
        trace = PropagatorTrace(sched.times(), *ordered_products(steps))
    while True:
        phi = phases if not isinstance(phases, str) else optimize_phases(
            rho_i, h_i, h_f, sched, mode="analytic2", u_f=trace.u_samples[-1]).phases
        r = target_unitary(rho_i, h_f, phi)
        chi, modes = principal_log_unitary(dagger(trace.u_samples[-1]) @ r)
        w_min = float(np.linalg.norm(modes.phases)) / sched.tau
        v = _conjugate(time_last(trace.u_samples), chi)
        v *= -sched.ramp_fdot(trace.times)
        synth = DriveSynthesis(chi=chi, thetas=modes.phases, phases_phi=phi,
                               v_samples=time_first(v), w=w_min, w_min=w_min)
        if fixed:
            return synth
        # H0 on the grid: times(2n)[::2] is times(n) bit for bit
        error = _driven_error(h_nodes[..., ::2], v, sched.tau)
        if error <= DRIVEN_PROPAGATION_ERROR:
            return synth
        if not np.isfinite(error):
            raise NoConvergence(f"estimated error of the driven propagation at "
                                f"{sched.n_steps} steps is {error}, not a finite number")
        if 4 * sched.n_steps > PROPAGATION_MAX_STEPS:    # verification takes 2n steps
            raise NoConvergence(
                f"estimated error {error:.3e} of the driven propagation at "
                f"{sched.n_steps} steps is above {DRIVEN_PROPAGATION_ERROR:.0e}, and "
                f"verifying on a finer grid needs more than {PROPAGATION_MAX_STEPS} steps")
        sched = dataclasses.replace(sched, n_steps=2 * sched.n_steps)
        trace, h_nodes = _u0_trace(h_i, h_f, sched)


def _driven_error(h0: np.ndarray, v: np.ndarray, tau: float) -> float:
    """Step-doubling estimate of the largest entry error of U(tau), the
    propagator of H0 + V that verify_drive integrates on a grid of n steps,
    n a multiple of 4, from time-innermost stacks h0[d, d, n + 1] and
    v[d, d, n + 1] on its points, neither written. V rotates at the Bohr
    frequencies of H0, so U can need a finer grid than U0. The points are
    the Simpson nodes of a grid of n/2 steps, every other one those of n/4
    steps, so no U0 is propagated. A fourth-order U_m errs by
    |U_m - U_2m| / 15 to leading order, 16 times U_2m's, so the estimate
    is max |U_{n/4}(tau) - U_{n/2}(tau)| / 240 over the entries.
    """
    h = np.add(h0, v)
    # every point: n/2 steps; every other point: n/4 steps
    finals = [_final_product(h[..., ::stride], tau)[0] for stride in (1, 2)]
    return float(np.abs(finals[0] - finals[1]).max()) / 240.0


# fewest steps of a grid that verify_drive's work integral takes: its
# one-sided differences at either end read five Simpson nodes
VERIFY_MIN_STEPS = 2


def _grid_derivative(h_nodes: np.ndarray, dt: float) -> np.ndarray:
    """dH/dt at the n + 1 points of a grid, as a fresh stack [d, d, n + 1], from
    H at its 2n + 1 Simpson nodes (spacing dt / 2) by fourth-order differences:
    central five-point inside, one-sided five-point at the two ends."""
    d, n = h_nodes.shape[0], (h_nodes.shape[-1] - 1) // 2
    out = np.empty((d, d, n + 1), dtype=complex)
    inner = out[..., 1:-1]
    np.subtract(h_nodes[..., 3:-1:2], h_nodes[..., 1:-3:2], out=inner)
    inner *= 8.0
    inner += h_nodes[..., :-4:2]
    inner -= h_nodes[..., 4::2]
    one_sided = np.array([-25.0, 48.0, -36.0, 16.0, -3.0])
    out[..., 0] = h_nodes[..., :5] @ one_sided
    out[..., -1] = -(h_nodes[..., :-6:-1] @ one_sided)
    out *= 1.0 / (6.0 * dt)    # 1 / (12 h) at node spacing h = dt / 2
    return out


def _simpson_weights(n: int, dt: float) -> np.ndarray:
    """Weights of a fourth-order rule on the n + 1 points of a grid, n >= 2:
    composite Simpson, with the 3/8 rule on the last three intervals when n
    is odd."""
    w = np.zeros(n + 1)
    m = n - 3 if n % 2 else n    # the intervals that Simpson's rule covers
    if m:
        w[1:m:2] = 4.0 / 3.0
        w[2:m:2] = 2.0 / 3.0
        w[0] = w[m] = 1.0 / 3.0
    if n % 2:
        w[m:] += np.array([3.0, 9.0, 9.0, 3.0]) / 8.0
    return w * dt


def verify_drive(synth: DriveSynthesis, rho_i: DensityMatrix, h_i: HamiltonianOp,
                 h_f: HamiltonianOp, sched: Schedule) -> Tuple[float, float]:
    """Propagate H0(t) + V(t) end to end and check it does what it promises.

    U0 comes from 2n Magnus steps of H0, whose samples are U0 at every
    Simpson node of sched's n-step grid; V there is formed from them and chi,
    and H0 + V takes n Magnus steps. The work integral is composite Simpson
    (with the 3/8 rule on the last three intervals when n is odd) over the
    n-step grid, with dH/dt from fourth-order differences of H at the
    Simpson nodes, so n_steps below VERIFY_MIN_STEPS is refused
    (ParamOutOfRange), as is n_steps above PROPAGATION_MAX_STEPS / 2. The
    synthesizer's U0 is never read, and the passive target is
    passive_state(rho_i, h_f), formed here.

    Returns (final_energy_residual, state_distance). Raises VerificationFailed
    (with all residuals attached) when the final state is not the passive
    target to VERIFY_STATE_DISTANCE trace distance, the final energy is off
    the passive minimum by more than VERIFY_ENERGY_REL x spectral width, the
    endpoint Hamiltonians are not h_i/h_f to VERIFY_ENDPOINT_REL x their
    largest entry, or the explicit work integral of rho(t) dH/dt does not
    telescope to the total energy change to VERIFY_WORK_REL x the energy
    scale (constants of the tolerances module). A schedule that leaves the
    count open is verified on the drive's own grid.
    """
    sched.validate_against(h_i, h_f)
    n = len(synth.v_samples) - 1 if sched.n_steps is None else sched.n_steps
    if n < VERIFY_MIN_STEPS:
        raise ParamOutOfRange(f"verify_drive needs n_steps >= {VERIFY_MIN_STEPS} "
                              f"for its fourth-order work integral, got {n}")
    _check_verifiable(n)
    dt = sched.tau / n
    nodes = sched.times(2 * n)

    h_fine = sched._h0_stack(h_i, h_f, sched.times(4 * n))
    fine, _ = ordered_products(_magnus_steps(h_fine, sched.tau))
    v = _conjugate(time_last(fine), synth.chi)
    v *= -sched.ramp_fdot(nodes)
    h_nodes = np.add(h_fine[..., ::2], v)    # H0 + V at the Simpson nodes of the n-step grid
    u_samples, _ = ordered_products(_magnus_steps(h_nodes, sched.tau))
    u = u_samples[-1]

    rho_f = DensityMatrix(u @ rho_i.mat @ dagger(u))
    state_distance = trace_distance(rho_f.mat, passive_state(rho_i, h_f).mat)
    energy_residual = abs(h_f.energy(rho_f) - passive_energy(rho_i, h_f))

    # H0 at t = 0 and tau: the ends of the fine grid's samples
    endpoint_residual = max(
        float(np.abs(h_fine[..., 0] + synth.v_samples[0] - h_i.mat).max()),
        float(np.abs(h_fine[..., -1] + synth.v_samples[-1] - h_f.mat).max()))

    rho_t = _conjugate(time_last(u_samples), rho_i.mat)
    hdot = _grid_derivative(h_nodes, dt)
    work = float(_simpson_weights(n, dt) @ np.einsum("ijt,jit->t", rho_t, hdot).real)
    work_residual = abs(work - (h_f.energy(rho_f) - h_i.energy(rho_i)))

    h_scale = max(1.0, float(np.abs(h_i.mat).max()), float(np.abs(h_f.mat).max()))
    e_scale = max(1.0, h_i.spectral_width, h_f.spectral_width)
    width = max(h_f.spectral_width, VERIFY_WIDTH_FLOOR)
    residuals = {
        "state_distance": state_distance,
        "final_energy_residual": energy_residual,
        "endpoint_residual": endpoint_residual,
        "work_integral_residual": work_residual,
    }
    # each test states the accepted region, so a NaN residual is refused
    if not (state_distance <= VERIFY_STATE_DISTANCE
            and energy_residual <= VERIFY_ENERGY_REL * width
            and endpoint_residual <= VERIFY_ENDPOINT_REL * h_scale
            and work_residual <= VERIFY_WORK_REL * e_scale):
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
    Rows that pass are not all accurate to roundoff: at d = 3 with all three
    eigenphases within a few 1e-3 of each other, the error grows as
    eps / sep^2, up to about 1e-9 in a phase (GRID_SHIFT_MARGIN allows for it).
    """
    a = wrap_pi(det_angle) / d
    # np.multiply, not the operator: on a large batch numpy reuses the
    # right-hand temporary of an operator and swaps the factors, and complex
    # products (fused multiply-adds) then differ in the last bit, so a row's
    # phases would depend on the size of its batch
    u = np.multiply(np.asarray(tr, dtype=complex), np.exp(-1j * a))
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


def _eigenphases(m0_det_angle: float, c: np.ndarray, a_mat: np.ndarray,
                 v_r: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Eigenphases theta[n, d] of M = A diag(e^{i phi}) V^dag for a batch of
    phase vectors phi[n, d], in no particular order.

    M's trace is sum_n e^{i phi_n} c_n and its determinant has phase
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
    return th


def _cost(thetas: np.ndarray, tau: float) -> np.ndarray:
    """(sum theta^2)^{1/2}/tau over the last axis of an eigenphase array."""
    return np.sqrt((thetas**2).sum(axis=-1)) / tau


def _phase_costs(m0_det_angle: float, c: np.ndarray, a_mat: np.ndarray,
                 v_r: np.ndarray, phases: np.ndarray, tau: float) -> np.ndarray:
    """(sum theta^2)^{1/2}/tau for a batch of phase vectors, theta the
    eigenphases of M = A diag(e^{i phi}) V^dag (see _eigenphases)."""
    return _cost(_eigenphases(m0_det_angle, c, a_mat, v_r, phases), tau)


def _grid_scan(m0_det_angle: float, c: np.ndarray, a_mat: np.ndarray, v_r: np.ndarray,
               points: int, tau: float) -> PhaseOptResult:
    """The first point of the mesh axis^d, axis = linspace(-pi, pi, points,
    endpoint=False), in C order, at which _phase_costs is least, and that cost.

    M(phi + s 1) = e^{is} M(phi), so adding s to every phase adds s to every
    eigenphase (mod 2 pi), and adding m to every index adds m 2 pi / points
    to every phase of the uniform axis, mapping the mesh onto itself. So the
    eigenphases are solved once per class of index offsets, at its point
    (axis[0], axis[j_2], ..., axis[j_d]): points^(d-1) rows. The points
    (m, m + j_2, ..., m + j_d) mod points of a class cost
    wrap_pi(theta + m 2 pi / points), one elementwise pass over all classes.
    Every point whose shifted cost is within GRID_SHIFT_MARGIN / tau of the
    least is costed again by _phase_costs at its own mesh phases, and the
    first of them at the least cost wins, so the point and the value are
    those of _phase_costs over the whole mesh.
    """
    d = c.shape[0]
    axis = np.linspace(-np.pi, np.pi, points, endpoint=False)
    classes = np.indices((1,) + (points,) * (d - 1)).reshape(d, -1).T   # (0, j_2, ..., j_d)
    thetas = _eigenphases(m0_det_angle, c, a_mat, v_r, axis[classes])
    shifts = np.arange(points) * (2.0 * np.pi / points)
    shifted = _cost(wrap_pi(thetas[:, None, :] + shifts[None, :, None]), tau)
    cls, m = np.nonzero(shifted <= shifted.min() + GRID_SHIFT_MARGIN / tau)
    index = (classes[cls] + m[:, None]) % points
    phases = axis[index[np.argsort(np.ravel_multi_index(index.T, (points,) * d))]]
    costs = _phase_costs(m0_det_angle, c, a_mat, v_r, phases, tau)
    k = int(np.argmin(costs))
    return PhaseOptResult(phases[k], float(costs[k]))


def optimize_phases(rho_i: DensityMatrix, h_i: HamiltonianOp, h_f: HamiltonianOp,
                    sched: Schedule, mode: str = "analytic2", n_draws: int = 10_000,
                    rng: Optional[np.random.Generator] = None, grid_points: int = 64,
                    u_f: Optional[np.ndarray] = None) -> PhaseOptResult:
    """Pick (or average over) the free target phases phi_n.

    "analytic2": closed-form minimizer for d = 2. "grid": exhaustive scan,
    d <= 3. "monte_carlo": mean and standard error of (sum theta^2)^{1/2}/tau
    over n_draws uniform phase vectors (phases are then reported as None).
    Refuses an unknown mode, a dimension the mode does not cover, n_draws < 2
    and grid_points < 1 before any propagation. ``u_f`` is U0(tau); by
    default it is propagate_u0's on sched's fixed grid, or, when sched leaves
    the count open, final_unitary's at the count it picks.
    The grid scan costs P^(d-1) eigenphase solves for P^d points (see
    _grid_scan).
    """
    if mode not in ("analytic2", "grid", "monte_carlo"):
        raise ParamOutOfRange(f"unknown phase optimization mode {mode!r}")
    d = rho_i.dim
    if mode == "analytic2" and d != 2:
        raise DimTooLarge("the analytic phase minimizer covers d = 2 only")
    if mode == "grid" and d > 3:
        raise DimTooLarge(f"grid phase scan over d = {d} axes is not supported")
    check_count(n_draws, "n_draws", 2)
    check_count(grid_points, "grid_points", 1)
    if u_f is None and sched.n_steps is None:
        u_f = final_unitary(h_i, h_f, sched)[1]
    elif u_f is None:
        u_f = propagate_u0(h_i, h_f, sched).u_samples[-1]
    _, v_r = _descending_eigvectors(rho_i)
    a_mat = dagger(u_f) @ h_f.basis
    c = np.einsum("in,in->n", v_r.conj(), a_mat)
    det_angle = float(np.angle(np.linalg.det(a_mat @ dagger(v_r))))
    tau = sched.tau

    if mode == "analytic2":
        delta = 0.5 * (np.angle(c[0]) - np.angle(c[1]))
        phases = np.array([-det_angle / 2 - delta, -det_angle / 2 + delta])
        if ((np.exp(1j * phases) * c).sum()).real < 0:
            phases += np.array([-np.pi, np.pi])
        phases = wrap_pi(phases)
        # arccos of the mean |c_n| = |W_nn|, W = V^dag A, without its loss near 1
        w_abs = np.abs(dagger(v_r) @ a_mat)
        value = np.sqrt(2.0) / tau * np.arctan2(w_abs[0, 1] + w_abs[1, 0], abs(c[0]) + abs(c[1]))
        return PhaseOptResult(phases, float(value))

    if mode == "grid":
        return _grid_scan(det_angle, c, a_mat, v_r, grid_points, tau)

    # mode == "monte_carlo"
    rng = np.random.default_rng(0) if rng is None else rng
    draws = rng.uniform(-np.pi, np.pi, size=(n_draws, d))
    costs = _phase_costs(det_angle, c, a_mat, v_r, draws, tau)
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / np.sqrt(n_draws))
    return PhaseOptResult(None, mean, stderr)
