"""Closed forms for the driven two-level system.

Conventions: computational basis ordered [|1>, |0>] (excited first), so
rho = [[p, c], [conj(c), 1-p]] and H = (omega sz + eps sx)/2 with sz = diag(1,-1).
Rotating drives keep mu = (d omega/dt eps - d eps/dt omega)/Omega^3 constant;
nu = Omega_bar sqrt(1 + mu^2) is the total precession angle in the rotating
frame.

Each closed form is written once, as a kernel that broadcasts over arrays of
its parameters (overlaps, theta1, theta2, nu, delta_enc, sta_delta, cost, ...);
sweeps pass whole grids, scalar callers pass floats. The cost split into the
state and drive rotation half-angles is theta1, theta2, cost_floor and
worst_cost. TlsState and MuDynParams are validated inputs of the closed forms.
Squares go through sq(), so every array element rounds as the same kernel does
on floats.
The Monte Carlo phase average runs over blocks of cells, each cell drawing
from its own generator, so a batch gives the bytes of one call per cell; each
block is evaluated in place, in scratch arrays allocated once per call.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParamInconsistent, ParamOutOfRange
from .states import DensityMatrix
from .tolerances import BLOCH_ATOL, MIXED_WIDTH_MIN


_TWO_PI = 2 * np.pi


def wrap_pi(x):
    """Map angles to the principal branch [-pi, pi); bit for bit
    ``(x + pi) % 2pi - pi``.

    For y = x + pi in [-2pi, 4pi) the remainder is one exact shift: y - 2pi
    where y >= 2pi (exact by Sterbenz's lemma), y + 2pi where y < 0 (as
    numpy's divmod rounds it), y otherwise. Only elements outside that range,
    or NaN, go through ``%``.
    """
    y = np.asarray(np.asarray(x) + np.pi)
    out = np.empty(y.shape)
    _wrap_shifted(y, out, np.empty(y.shape))
    return out[()]


def _wrap_shifted(y, out, tmp):
    """wrap_pi's body, given y = x + pi: writes wrap_pi(x) to ``out``, with
    ``tmp`` as scratch. Both are float arrays of y's shape, neither of them y,
    so the Monte Carlo kernel can wrap into buffers it allocated once."""
    np.multiply(y < 0, _TWO_PI, out=out)
    np.add(y, out, out=out)
    np.multiply(y >= _TWO_PI, _TWO_PI, out=tmp)
    np.subtract(out, tmp, out=out)
    if y.size and not (y.min() >= -_TWO_PI and y.max() < 2 * _TWO_PI):
        np.remainder(y, _TWO_PI, out=out, where=~((y >= -_TWO_PI) & (y < 2 * _TWO_PI)))
    np.subtract(out, np.pi, out=out)


def sq(x):
    """x**2 rounded as libm pow rounds it, which is what ``x ** 2`` does for a
    float scalar; an array's ``x ** 2`` is x*x, which differs in the last bit
    for about one value in a thousand."""
    return x ** 2 if type(x) is float else np.float_power(x, 2)


def _first_outside(ok, *values):
    """None if ``ok`` holds everywhere, else ``values`` at its first (broadcast)
    point where it fails. On scalar arguments ``ok`` is a bool and no numpy call is made."""
    if isinstance(ok, bool):
        return None if ok else values
    if ok.all():
        return None
    bad = ~ok
    return tuple(np.broadcast_to(x, bad.shape)[bad].flat[0] for x in values)


def check_bloch(p, c_abs):
    """Refuse populations outside [0, 1] or coherences outside the Bloch ball.

    Broadcasts; raises ParamOutOfRange naming the first offending point. Each
    test states the valid region, so NaN falls outside it.
    """
    bad = _first_outside((p >= -BLOCH_ATOL) & (p <= 1 + BLOCH_ATOL), p)
    if bad is not None:
        raise ParamOutOfRange(f"population p = {bad[0]} outside [0, 1]")
    c2, p1p = sq(c_abs), p * (1 - p)
    bad = _first_outside(c2 <= p1p + BLOCH_ATOL, c2, p1p)
    if bad is not None:
        raise ParamOutOfRange(f"coherence outside the Bloch ball: |c|^2 = {bad[0]}, "
                              f"p(1-p) = {bad[1]}")


def check_drive(tau, omega_bar):
    """Refuse anything but finite tau > 0 and omega_bar >= 0 in (broadcast) arrays."""
    if _first_outside((tau > 0) & (tau < np.inf) & (omega_bar >= 0)
                      & (omega_bar < np.inf)) is not None:
        raise ParamOutOfRange("need tau > 0 and omega_bar >= 0, both finite")


def check_count(n, name: str, least: int):
    """Refuse anything but an integer n >= least (a bool is not one)."""
    if isinstance(n, bool) or not (isinstance(n, numbers.Integral) and n >= least):
        raise ParamOutOfRange(f"{name} must be an integer >= {least}, got {n!r}")


def density_matrices(p, c):
    """[[p, c], [conj(c), 1 - p]], stacked over the broadcast shape of p and c."""
    p, c = np.broadcast_arrays(p, c)
    m = np.empty(p.shape + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = p, c, np.conj(c), 1 - p
    return m


@dataclass(frozen=True)
class TlsState:
    """Qubit state by excited population p and coherence c = <1|rho|0>."""

    p: float
    c: complex = 0.0

    def __post_init__(self):
        check_bloch(self.p, abs(self.c))

    @property
    def psi(self) -> float:
        """Coherence phase arg(c)."""
        return float(np.angle(self.c))

    def density(self) -> DensityMatrix:
        return DensityMatrix(density_matrices(self.p, self.c))


@dataclass(frozen=True)
class MuDynParams:
    """Constant-mu rotating drive summary.

    mu is signed; omega_bar = integral of Omega(t) over the drive; (omega_f,
    eps_f) are the final Hamiltonian components, and the final gap Omega_f
    is derived from them. Refuses anything but finite mu, omega_f and eps_f,
    finite tau > 0 and finite omega_bar >= 0.
    """

    mu: float
    omega_bar: float
    omega_f: float
    eps_f: float
    tau: float

    def __post_init__(self):
        check_drive(self.tau, self.omega_bar)
        if not np.isfinite([self.mu, self.omega_f, self.eps_f]).all():
            raise ParamOutOfRange(f"need finite mu, omega_f and eps_f, got "
                                  f"{self.mu}, {self.omega_f}, {self.eps_f}")

    @property
    def Omega_f(self) -> float:
        """Final gap hypot(omega_f, eps_f)."""
        return float(np.hypot(self.omega_f, self.eps_f))

    @classmethod
    def constant_rate(cls, mu: float, omega_bar: float, tau: float) -> "MuDynParams":
        """Constant gap Omega = omega_bar/tau, Bloch angle phi(t) = -mu Omega t."""
        check_drive(tau, omega_bar)
        om = omega_bar / tau
        phi_f = -mu * omega_bar
        return cls(mu=mu, omega_bar=omega_bar, tau=tau,
                   omega_f=om * np.cos(phi_f), eps_f=om * np.sin(phi_f))

    @classmethod
    def cos_sin(cls, omega0: float, tau: float, tau_star: float) -> "MuDynParams":
        """omega = omega0 cos(pi t / 2 tau*), eps = omega0 sin(pi t / 2 tau*)."""
        mu, omega_bar, omega_f, eps_f = cos_sin_drive(omega0, tau, tau_star)
        return cls(mu=mu, omega_bar=omega_bar, tau=tau, omega_f=omega_f, eps_f=eps_f)


def cos_sin_drive(omega0, tau, tau_star):
    """(mu, omega_bar, omega_f, eps_f) of the quarter-period cos/sin drive.

    Broadcasts over tau and tau_star; refuses anything but finite omega0 > 0
    and tau_star > 0.
    """
    if _first_outside((omega0 > 0) & (omega0 < np.inf) & (tau_star > 0)
                      & (tau_star < np.inf)) is not None:
        raise ParamOutOfRange("need omega0 > 0 and tau_star > 0, both finite")
    ang = np.pi * tau / (2 * tau_star)
    return (-np.pi / (2 * omega0 * tau_star), omega0 * tau,
            omega0 * np.cos(ang), omega0 * np.sin(ang))


def nu(mu, omega_bar):
    """Total rotating-frame precession angle omega_bar sqrt(1 + mu^2); broadcasts."""
    return omega_bar * np.sqrt(1 + sq(mu))


# ------------------------------------------------------------ state algebra

def _eig_split(p, c_abs):
    """(r1, r0, a, b, mixed) of rho(p, |c|), broadcast over arrays.

    r1 <= r0 are the eigenvalues and a = sqrt((r0-p)/(r0-r1)),
    b = sqrt((p-r1)/(r0-r1)) the overlap magnitudes of its eigenbasis with the
    energy basis. ``mixed`` marks the maximally mixed points, where that basis
    is arbitrary and (a, b) = (1, 0). The gaps (r0 - p, p - r1) are evaluated
    stably: direct subtraction loses half the digits when |c| << |p - 1/2|,
    while the conjugate identity disc^2 - (p - 1/2)^2 = |c|^2 makes the small
    gap |c|^2 over the large one, exactly zero for diagonal states.
    """
    disc = np.hypot(p - 0.5, c_abs)
    r1, r0 = 0.5 - disc, 0.5 + disc
    width = r0 - r1
    mixed = width < MIXED_WIDTH_MIN
    big = disc + np.abs(p - 0.5)
    # adding the mask keeps the mixed points (the only ones where big or width
    # can be 0) away from 0 / 0; their (a, b) is then set to (1, 0)
    small = sq(c_abs) / (big + mixed)
    a, b = np.sqrt(np.where(p <= 0.5, (big, small), (small, big)) / (width + mixed))
    return r1, r0, np.where(mixed, 1.0, a), np.where(mixed, 0.0, b), mixed


def overlaps(p, c_abs):
    """(a, b) overlap magnitudes of the rho(p, |c|) eigenbasis with the energy
    basis; broadcasts."""
    _, _, a, b, _ = _eig_split(p, c_abs)
    return a, b


def theta1(p, c_abs):
    """State rotation half-angle arctan(b/a) reaching the passive basis; broadcasts."""
    a, b = overlaps(p, c_abs)
    return np.arctan2(b, a)


def cost(theta, tau):
    """Drive cost sqrt2 theta / tau of a rotation by half-angle theta; broadcasts."""
    return np.sqrt(2.0) / tau * theta


def cost_floor(theta1, theta2, tau):
    """sqrt2 |theta1 - theta2| / tau: the phase-optimal cost at aligned
    coherence phase, the lower end of the w_min range; broadcasts."""
    return cost(np.abs(theta1 - theta2), tau)


def worst_cost(tau):
    """sqrt2 pi / tau: the cost with no phase control at all; broadcasts."""
    return np.sqrt(2.0) * np.pi / tau


# ------------------------------------------------- proportional-drive example

def delta_enc(p, c_abs, gap):
    """Ergotropy difference gap (disc - 1/2 + p) for proportional Hamiltonians
    with final gap ``gap``, disc = sqrt((p - 1/2)^2 + |c|^2); broadcasts."""
    return gap * (np.sqrt(sq(p - 0.5) + sq(c_abs)) - 0.5 + p)


def _thetas(a, phi1, phi0, work):
    """Principal eigenphases (theta_plus, theta_minus) of the correction log
    at overlap magnitude a and target phases (phi1, phi0), evaluated in place
    in ``work``, a float stack (5, *shape) over the broadcast shape of the
    arguments; returns its views. It takes the operations of
    sig = 0.5 (phi1 + phi0), gam = arccos(clip(a cos(0.5 (phi1 - phi0)), -1, 1)),
    theta = wrap_pi(sig +- gam) in their order, so it rounds as they do."""
    tp, tm, gam, y, tmp = (work[k, ...] for k in range(5))   # views, 0-d ones too
    np.add(phi1, phi0, out=tm)
    np.multiply(0.5, tm, out=tm)          # sig, held in tm until theta_minus
    np.subtract(phi1, phi0, out=gam)
    np.multiply(0.5, gam, out=gam)
    np.cos(gam, out=gam)
    np.multiply(a, gam, out=gam)
    np.clip(gam, -1.0, 1.0, out=gam)
    np.arccos(gam, out=gam)
    np.add(tm, gam, out=y)
    np.add(y, np.pi, out=y)
    _wrap_shifted(y, tp, tmp)
    np.subtract(tm, gam, out=y)
    np.add(y, np.pi, out=y)
    _wrap_shifted(y, tm, tmp)
    return tp, tm


# Grid cells per Monte Carlo block: the block's phase draws, (B, 2, n_draws),
# and the temporaries derived from them stay cache-sized at the figure sweeps'
# draw counts; larger blocks, and stacking the whole grid, run slower.
PHASE_BLOCK = 16


def example1_phase_average(a, tau: float, n_draws: int, rng):
    """Monte Carlo mean and standard error of the cost over uniform phases,
    for the state of overlap magnitude a, eigenphases as in _thetas.

    Broadcasts over a. ``rng`` is one Generator for a scalar a, or a sequence
    of one Generator per element of a (flat order); each element draws its
    phases as ``rng.uniform(-pi, pi, size=(2, n_draws))``. Cells are evaluated
    PHASE_BLOCK at a time, and every element's result is bit for bit that of
    a call with it alone. A scalar a returns two floats, an array two arrays
    of its shape. Refuses n_draws < 2.
    """
    if np.ndim(a) == 0:
        mean, err = example1_phase_average(np.reshape(a, 1), tau, n_draws, [rng])
        return float(mean[0]), float(err[0])
    check_count(n_draws, "n_draws", 2)
    a = np.asarray(a, dtype=float)
    if len(rng) != a.size:
        raise ParamInconsistent(f"{len(rng)} generators for {a.size} cells")
    flat = a.ravel()
    mean, err = np.empty(flat.size), np.empty(flat.size)
    rows = min(PHASE_BLOCK, flat.size)
    phi, work = np.empty((rows, 2, n_draws)), np.empty((5, rows, n_draws))
    for lo in range(0, flat.size, PHASE_BLOCK):
        cells = slice(lo, min(lo + PHASE_BLOCK, flat.size))
        block = phi[:cells.stop - lo]
        for k, gen in enumerate(rng[cells]):
            block[k] = gen.uniform(-np.pi, np.pi, size=(2, n_draws))
        w, tm = _thetas(flat[cells, None], block[:, 0], block[:, 1], work[:, :len(block)])
        np.square(w, out=w)                      # w = sqrt(tp^2 + tm^2) / tau
        np.square(tm, out=tm)
        np.add(w, tm, out=w)
        np.sqrt(w, out=w)
        np.divide(w, tau, out=w)
        # w.mean(-1), then w.std(-1, ddof=1) from that mean in numpy's order:
        # deviations, squares, sum, / (n - 1), sqrt
        m = np.add.reduce(w, axis=-1, out=mean[cells])
        np.divide(m, n_draws, out=m)
        np.subtract(w, m[:, None], out=w)
        np.square(w, out=w)
        e = np.add.reduce(w, axis=-1, out=err[cells])
        np.divide(e, n_draws - 1, out=e)
        np.sqrt(e, out=e)
        np.divide(e, np.sqrt(n_draws), out=e)
    return mean.reshape(a.shape), err.reshape(a.shape)


# ---------------------------------------------------- constant-mu closed form

def sta_delta(gap, p_i, mu, omega_bar):
    """Ergotropy difference Omega_f (p_f - p_i) of the bare constant-mu drive
    alone, with final gap Omega_f = ``gap``; broadcasts over every argument.

    Only the population moved into the upper final level counts, and it
    vanishes as mu -> 0 (adiabatic limit).
    """
    return (gap * (0.5 - p_i) * sq(mu) * (1 - np.cos(nu(mu, omega_bar)))
            / (1 + sq(mu)))


def cd_rate(mu, omega_bar, tau):
    """|mu| Omega_bar / tau, the cost w_sta of transitionless driving (STA)
    along the constant-mu drive; broadcasts.

    The eigenvectors e_n of H = (omega sz + eps sx) / 2 turn by half the
    mixing angle theta = atan2(eps, omega), so the counterdiabatic term
    H_cd = i sum_n |edot_n><e_n| has ||H_cd|| = (2 sum_n <edot_n|edot_n>)^{1/2}
    = |theta dot| (Berry, J. Phys. A 42, 365303 (2009)). Along the drive,
    theta = -mu A t with A = Omega_bar / tau, so ||H_cd|| = |mu| A at every
    t, and its time average w_sta is the same.
    """
    return np.abs(mu) * omega_bar / tau


# --------------------------------------------- rotating-drive minimal cost

def alpha_beta(mu, omega_bar):
    """(alpha e^{i phi_alpha}, beta) of the bare-drive transported basis; broadcasts.

    Exact rotating-frame result: up to a global sign that cancels in the
    overlap, alpha e^{i phi_alpha} = [sign(sin nu) sqrt((1+cos nu)(1+mu^2))
    - i sqrt(1-cos nu)] / sqrt(2(1+mu^2)) and beta = mu sqrt((1-cos nu)/(2(1+mu^2))).
    """
    ang = nu(mu, omega_bar)
    nc = np.cos(ang)
    mu2 = 1 + sq(mu)
    den = np.sqrt(2 * mu2)
    s_sign = np.where(np.sin(ang) >= 0, 1.0, -1.0)
    alpha_exp = (s_sign * np.sqrt(np.maximum((1 + nc) * mu2, 0.0))
                 - 1j * np.sqrt(np.maximum(1 - nc, 0.0))) / den
    return alpha_exp, mu * np.sqrt(np.maximum(1 - nc, 0.0)) / den


def theta2(mu, omega_bar):
    """Bare-drive rotation half-angle arctan(|beta| / |alpha|); broadcasts."""
    alpha_exp, beta = alpha_beta(mu, omega_bar)
    # hypot, as the scalar abs() of a complex: np.abs rounds differently
    return np.arctan2(np.abs(beta), np.hypot(alpha_exp.real, alpha_exp.imag))
