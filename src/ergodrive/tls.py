"""Closed forms for the driven two-level system.

Conventions: computational basis ordered [|1>, |0>] (excited first), so
rho = [[p, c], [conj(c), 1-p]] and H = (omega sz + eps sx)/2 with sz = diag(1,-1).
Rotating drives keep mu = (d omega/dt eps - d eps/dt omega)/Omega^3 constant;
nu = Omega_bar sqrt(1 + mu^2) is the total precession angle in the rotating
frame, nu_c = cos(nu), nu_s = sin(nu).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import ParamInconsistent, ParamOutOfRange
from .states import DensityMatrix
from .tolerances import DEFAULT_TOLS


def wrap_pi(x):
    """Map angles to the principal branch [-pi, pi)."""
    return (np.asarray(x) + np.pi) % (2 * np.pi) - np.pi


@dataclass(frozen=True)
class TlsState:
    """Qubit state by excited population p and coherence c = <1|rho|0>."""

    p: float
    c: complex = 0.0

    def __post_init__(self):
        if not (-1e-14 <= self.p <= 1 + 1e-14):
            raise ParamOutOfRange(f"population p = {self.p} outside [0, 1]")
        if abs(self.c) ** 2 > self.p * (1 - self.p) + 1e-14:
            raise ParamOutOfRange("coherence exceeds the Bloch ball: "
                                  f"|c|^2 = {abs(self.c)**2} > p(1-p) = {self.p*(1-self.p)}")

    @property
    def psi(self) -> float:
        """Coherence phase arg(c)."""
        return float(np.angle(self.c))

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.array([[self.p, self.c],
                                       [np.conj(self.c), 1 - self.p]], dtype=complex))

    @classmethod
    def from_density(cls, rho: DensityMatrix) -> "TlsState":
        if rho.dim != 2:
            raise ParamOutOfRange("TlsState needs a qubit")
        return cls(float(rho.mat[0, 0].real), complex(rho.mat[0, 1]))


@dataclass(frozen=True)
class MuDynParams:
    """Constant-mu rotating drive summary.

    mu is signed; omega_bar = integral of Omega(t) over the drive; (omega_f,
    eps_f) are the final Hamiltonian components. tau_star is only meaningful
    for the quarter-period cos/sin schedule and is carried as metadata.
    """

    mu: float
    omega_bar: float
    omega_f: float
    eps_f: float
    tau: float
    tau_star: Optional[float] = None
    Omega_f: Optional[float] = None

    def __post_init__(self):
        if self.tau <= 0 or self.omega_bar < 0:
            raise ParamOutOfRange("need tau > 0 and omega_bar >= 0")
        hyp = float(np.hypot(self.omega_f, self.eps_f))
        if self.Omega_f is None:
            object.__setattr__(self, "Omega_f", hyp)
        elif abs(self.Omega_f - hyp) > 1e-12 * max(1.0, hyp):
            raise ParamInconsistent(f"Omega_f = {self.Omega_f} but "
                                    f"hypot(omega_f, eps_f) = {hyp}")

    @classmethod
    def constant_rate(cls, mu: float, omega_bar: float, tau: float) -> "MuDynParams":
        """Constant gap Omega = omega_bar/tau, Bloch angle phi(t) = -mu Omega t."""
        om = omega_bar / tau
        phi_f = -mu * omega_bar
        return cls(mu=mu, omega_bar=omega_bar, tau=tau,
                   omega_f=om * np.cos(phi_f), eps_f=om * np.sin(phi_f))

    @classmethod
    def cos_sin(cls, omega0: float, tau: float, tau_star: float) -> "MuDynParams":
        """omega = omega0 cos(pi t / 2 tau*), eps = omega0 sin(pi t / 2 tau*)."""
        if omega0 <= 0 or tau_star <= 0:
            raise ParamOutOfRange("need omega0 > 0 and tau_star > 0")
        ang = np.pi * tau / (2 * tau_star)
        return cls(mu=-np.pi / (2 * omega0 * tau_star), omega_bar=omega0 * tau,
                   tau=tau, tau_star=tau_star,
                   omega_f=omega0 * np.cos(ang), eps_f=omega0 * np.sin(ang))

    @property
    def nu(self) -> float:
        return float(self.omega_bar * np.sqrt(1 + self.mu**2))

    @property
    def nu_c(self) -> float:
        return float(np.cos(self.nu))

    @property
    def nu_s(self) -> float:
        return float(np.sin(self.nu))


# ------------------------------------------------------------ state algebra

def _eig_gaps(p: float, c_abs: float, disc: float):
    """Stable (r0 - p, p - r1): the small gap is |c|^2 over the large one.

    Direct subtraction loses half the digits when |c| << |p - 1/2|; the
    conjugate identity disc^2 - (p - 1/2)^2 = |c|^2 avoids it, so diagonal
    states get an exactly zero small gap.
    """
    big = disc + abs(p - 0.5)
    small = c_abs**2 / big if big > 0.0 else 0.0
    return (big, small) if p <= 0.5 else (small, big)


def _eig_split(s: TlsState):
    """(r1, r0, a, b): eigenvalues r1 <= r0 of rho and the overlap magnitudes
    a = sqrt((r0-p)/(r0-r1)), b = sqrt((p-r1)/(r0-r1)); a = b = None at the
    maximally mixed point, where the eigenbasis is arbitrary."""
    disc = np.hypot(s.p - 0.5, abs(s.c))
    r1, r0 = 0.5 - disc, 0.5 + disc
    if r0 - r1 < 1e-15:
        return r1, r0, None, None
    up, dn = _eig_gaps(s.p, abs(s.c), disc)
    return r1, r0, np.sqrt(up / (r0 - r1)), np.sqrt(dn / (r0 - r1))


def eigs_r(s: TlsState):
    """Eigenvalues r1 <= r0 of rho and eigenvectors, columns [|r1>, |r0>].

    |r1> = a|1> - e^{-i psi} b|0>, |r0> = e^{i psi} b|1> + a|0>, with
    a = sqrt((r0-p)/(r0-r1)), b = sqrt((p-r1)/(r0-r1)). The maximally mixed
    point returns the computational basis.
    """
    r1, r0, a, b = _eig_split(s)
    if a is None:
        return r1, r0, np.eye(2, dtype=complex)
    phase = np.exp(1j * s.psi)
    vecs = np.array([[a, phase * b],
                     [-np.conj(phase) * b, a]], dtype=complex)
    return r1, r0, vecs


def ab_overlaps(s: TlsState) -> Tuple[float, float]:
    """(a, b) overlap magnitudes of the rho eigenbasis with the energy basis."""
    _, _, a, b = _eig_split(s)
    if a is None:
        return 1.0, 0.0
    return float(a), float(b)


# ------------------------------------------------- proportional-drive example

def example1_delta(s: TlsState, lam_f_omega: float) -> float:
    """Ergotropy difference for proportional Hamiltonians, final gap lam_f_omega."""
    disc = np.sqrt((s.p - 0.5) ** 2 + abs(s.c) ** 2)
    return float(lam_f_omega * (disc - 0.5 + s.p))


def theta1_min(s: TlsState) -> float:
    """Smallest rotation half-angle reaching the passive basis: arctan(b/a)."""
    a, b = ab_overlaps(s)
    return float(np.arctan2(b, a))


def example1_wmin(s: TlsState, tau: float) -> float:
    """Minimal drive cost for the proportional example, optimal phases."""
    return np.sqrt(2.0) / tau * theta1_min(s)


def example1_thetas(s: TlsState, phi1, phi0):
    """Principal eigenphases (theta_plus, theta_minus) of the correction log.

    Vectorized over phase arrays; the relative phases the bare drive adds can
    be absorbed into (phi1, phi0), so they do not appear here.
    """
    a, _ = ab_overlaps(s)
    sig = 0.5 * (np.asarray(phi1) + np.asarray(phi0))
    gam = np.arccos(np.clip(a * np.cos(0.5 * (np.asarray(phi1) - np.asarray(phi0))), -1.0, 1.0))
    return wrap_pi(sig + gam), wrap_pi(sig - gam)


def example1_phase_average(s: TlsState, tau: float, n_draws: int,
                           rng: np.random.Generator):
    """Monte Carlo mean and standard error of the cost over uniform phases."""
    phi = rng.uniform(-np.pi, np.pi, size=(2, n_draws))
    tp, tm = example1_thetas(s, phi[0], phi[1])
    w = np.sqrt(tp**2 + tm**2) / tau
    return float(w.mean()), float(w.std(ddof=1) / np.sqrt(n_draws))


# ---------------------------------------------------- constant-mu closed form

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
    mu, nc, ns = params.mu, params.nu_c, params.nu_s
    den = 1 + mu**2
    p_f = (2 * p_i + mu**2 - mu**2 * nc * (1 - 2 * p_i)) / (2 * den)
    sgn = 1.0 if params.eps_f >= 0 else -1.0
    c_f = -(mu * (1 - 2 * p_i) / (2 * den)) * sgn * (ns * np.sqrt(den) - 1j * (1 - nc))
    return TlsState(float(p_f), complex(c_f))


def constmu_final_density(p_i: float, params: MuDynParams) -> DensityMatrix:
    """Final density matrix in the computational basis (diagonal input)."""
    s = constmu_final_state(p_i, params)
    v = final_basis(params)
    m = (v @ np.array([[s.p, s.c], [np.conj(s.c), 1 - s.p]], dtype=complex)
         @ v.conj().T)
    return DensityMatrix(m)


def delta_e_sta(p_i: float, params: MuDynParams) -> float:
    """Ergotropy difference produced by the bare rotating drive alone.

    Equals Omega_f (p_f - p_i): only the population moved into the upper
    final level counts, and it vanishes as mu -> 0 (adiabatic limit).
    """
    mu, nc = params.mu, params.nu_c
    return float(params.Omega_f * (0.5 - p_i) * mu**2 * (1 - nc) / (1 + mu**2))


def counterdiabatic_rate(params: MuDynParams) -> float:
    """|mu| Omega_bar / tau: the time-averaged counterdiabatic coupling norm."""
    return abs(params.mu) * params.omega_bar / params.tau


# --------------------------------------------- rotating-drive minimal cost

def alpha_beta_phase(params: MuDynParams):
    """(alpha e^{i phi_alpha}, beta) of the bare-drive transported basis.

    Exact rotating-frame result: up to a global sign that cancels in the
    overlap, alpha e^{i phi_alpha} = [sign(nu_s) sqrt((1+nu_c)(1+mu^2))
    - i sqrt(1-nu_c)] / sqrt(2(1+mu^2)) and beta = mu sqrt((1-nu_c)/(2(1+mu^2))).
    """
    mu, nc, ns = params.mu, params.nu_c, params.nu_s
    den = np.sqrt(2 * (1 + mu**2))
    s_sign = 1.0 if ns >= 0 else -1.0
    alpha_exp = (s_sign * np.sqrt(max((1 + nc) * (1 + mu**2), 0.0))
                 - 1j * np.sqrt(max(1 - nc, 0.0))) / den
    beta = mu * np.sqrt(max(1 - nc, 0.0)) / den
    return complex(alpha_exp), float(beta)


def theta2_min(params: MuDynParams) -> float:
    """Bare-drive rotation half-angle: arctan(|beta| / alpha)."""
    alpha_exp, beta = alpha_beta_phase(params)
    return float(np.arctan2(abs(beta), abs(alpha_exp)))


def overlap_w(s: TlsState, params: MuDynParams) -> float:
    """|W| = |A e^{-i phi_alpha} + B e^{i psi_i}| controlling the optimal cost."""
    a, b = ab_overlaps(s)
    alpha_exp, beta = alpha_beta_phase(params)
    w = a * np.conj(alpha_exp) + b * beta * np.exp(1j * s.psi)
    return float(abs(w))


def example2_wmin(s: TlsState, params: MuDynParams) -> float:
    """Minimal cost with optimal target phases at the state's coherence phase."""
    return float(np.sqrt(2.0) / params.tau * np.arccos(np.clip(overlap_w(s, params), 0.0, 1.0)))


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
    t1, t2 = theta1_min(s), theta2_min(params)
    lo = np.sqrt(2.0) / params.tau * abs(t1 - t2)
    return ThetaSplit(
        theta1=float(t1), theta2=float(t2),
        wmin_range=(float(lo), float(np.sqrt(2.0) * np.pi / params.tau)),
        w_psi=example2_wmin(s, params),
        psi_band=(float(lo), float(np.sqrt(2.0) / params.tau * (t1 + t2))),
    )
