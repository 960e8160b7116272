"""Density matrices, Hamiltonians, passive states, entropies, thermal solvers.

Conventions: hbar = 1, entropies in nats, inverse temperature beta may be
negative where an energy constraint demands it (population inversion); the
entropy-matched solver is restricted to beta >= 0 where the map is monotone.
Every state and Hamiltonian is diagonalized once, when it is built, and hands
out its spectrum as read-only arrays. Gibbs, passive and dephased references
are population vectors on a known energy basis; passive_state alone builds
one as a matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (DimMismatch, EnergyOutOfRange, EntropyOutOfRange, LengthMismatch,
                     NoConvergence, NotAState)
from .linalg import HermEig, dagger, hermitian_eig
from .tolerances import (BETA_MAX_SCALE, BETA_RESIDUAL, BETA_RTOL, BETA_XTOL_SCALE, EIG_FLOOR,
                         ENTROPY_RANGE_ATOL, HERMITICITY, MAJORIZATION_SLACK, ROUNDING, TRACE)

_LOG1P_FLOOR = -1.0 + np.finfo(float).eps   # keeps log1p(f / tail) finite
BRACKET_GROWTH = 16.0  # the bracket search multiplies its trial point by this


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix.

    Finite, Hermitian to tolerance, unit trace, eigenvalues >= -EIG_FLOOR (small
    negatives are clamped to zero wherever eigenvalues are consumed).
    """

    mat: np.ndarray

    def __post_init__(self):
        m = linalg.as_square(self.mat, "density matrix")
        if not np.isfinite(m).all():
            raise NotAState("density matrix has a non-finite entry")
        if linalg.hermiticity_defect(m) > HERMITICITY:
            raise NotAState("density matrix is not Hermitian within tolerance")
        m = linalg.hermitian_part(m)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE:
            raise NotAState(f"trace {tr} is not 1 within {TRACE}")
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "_spectrum", None)
        self.eig()   # the one eigendecomposition, which also checks positivity

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def eig(self) -> HermEig:
        """Ascending eigenvalues (clamped to >= 0) and canonical eigenvectors.

        Computed once, during construction; the arrays are read-only. The
        vectors are canonicalized on their first read, on the unclamped values.
        """
        if self._spectrum is None:
            eig = hermitian_eig(self.mat, scale=linalg.entry_scale(self.mat))
            if float(eig.values[0]) < -EIG_FLOOR:
                raise NotAState("density matrix has a negative eigenvalue beyond tolerance")
            values, desc = _clamped_spectrum(eig.values)
            object.__setattr__(self, "_spectrum",
                               HermEig(_read_only(values), lambda: eig.vectors))
            object.__setattr__(self, "_populations_desc", _read_only(desc))
        return self._spectrum

    def populations_desc(self) -> np.ndarray:
        """Eigenvalues sorted descending with a stable tie-break (read-only)."""
        return self._populations_desc


@dataclass(frozen=True)
class HamiltonianOp:
    """Finite Hermitian Hamiltonian with its cached ascending spectrum."""

    mat: np.ndarray

    def __post_init__(self):
        m = linalg.as_square(self.mat, "hamiltonian")
        scale = linalg.check_hermitian(m)
        m = linalg.hermitian_part(m)   # symmetrized once, for mat and the spectrum
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "_spectrum", hermitian_eig(m, scale=scale))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def energies(self) -> np.ndarray:
        """Ascending energies (read-only)."""
        return self._spectrum.values

    @property
    def basis(self) -> np.ndarray:
        """Canonical eigenbasis, columns ordered by ascending energy (read-only),
        canonicalized on its first read."""
        return self._spectrum.vectors

    @property
    def spectral_width(self) -> float:
        e = self.energies
        return float(e[-1] - e[0])

    def energy(self, rho: DensityMatrix) -> float:
        _check_dims(rho, self)
        return float(np.trace(rho.mat @ self.mat).real)


class ThermalSolveResult(NamedTuple):
    beta: float              # may be negative (energy matching above the midpoint)
    populations: np.ndarray  # Gibbs weights on the ascending energies
    residual: float          # |target - achieved| in the solved quantity


def _clamped_spectrum(values: np.ndarray):
    """(values clamped to >= 0, the clamped values sorted descending with a
    stable tie-break), along the last axis of a spectrum or a stack of them.

    Negation is exact, so -sort(-v) holds the same elements, signed zeros
    included, as v indexed by its stable descending argsort, at half the cost
    of np.take_along_axis on the small spectra of a report. np.maximum is the
    ufunc that np.clip(values, 0.0, None) calls, without its Python wrapper.
    """
    values = np.maximum(values, 0.0)
    return values, -np.sort(-values, axis=-1, kind="stable")


def _check_dims(rho: DensityMatrix, h: HamiltonianOp):
    if rho.dim != h.dim:
        raise DimMismatch(f"state dim {rho.dim} != hamiltonian dim {h.dim}")


# ---------------------------------------------------------------- operations

def energy_populations(rho: DensityMatrix, h: HamiltonianOp) -> np.ndarray:
    """Diagonal of rho in the energy eigenbasis, ascending-energy order."""
    _check_dims(rho, h)
    return basis_populations(rho.mat, h.basis)


def basis_populations(mats: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The real diagonals <v_n|m|v_n> of a matrix or a stack mats[..., d, d]
    in the basis columns v_n."""
    return np.einsum("in,...ij,jn->...n", basis.conj(), mats, basis).real


def populations_desc_stack(mats: np.ndarray) -> np.ndarray:
    """DensityMatrix.populations_desc over a stack mats[..., d, d] of density
    matrices built valid by the caller, with no object, validation or
    eigenvectors kept; row k is bit-equal to that of DensityMatrix(mats[k]).
    """
    return _clamped_spectrum(linalg.hermitian_eigvals(mats))[1]


def passive_state(rho: DensityMatrix, h: HamiltonianOp) -> DensityMatrix:
    """Passive rearrangement: descending populations on ascending energies."""
    _check_dims(rho, h)
    v = h.basis
    return DensityMatrix((v * rho.populations_desc()) @ dagger(v))


def passive_energy(rho: DensityMatrix, h: HamiltonianOp) -> float:
    """Energy of the passive rearrangement of rho with respect to h."""
    _check_dims(rho, h)
    return float(rho.populations_desc() @ h.energies)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -Tr rho ln rho in nats, with 0 ln 0 = 0."""
    return _shannon(rho.eig().values)


def thermal_populations(energies, beta: float) -> np.ndarray:
    """Gibbs weights exp(-beta e_n)/Z on ascending energies (an array, list
    or tuple of reals; the order is not checked), overflow-guarded by an
    energy shift.

    Rounding is monotone, so on ascending energies the largest exponent
    -beta e_n is the first one for beta >= 0 and the last one for beta < 0:
    subtracting it subtracts the float that a max-reduce would find. In place
    on the one fresh array, with the ufunc reduction that the .sum() method
    calls.
    """
    x = -beta * np.asarray(energies, dtype=float)
    x -= x[0] if beta >= 0 else x[-1]
    np.exp(x, out=x)
    x /= np.add.reduce(x)
    return x


def gibbs_relative_entropy(p: np.ndarray, energies: np.ndarray, beta: float) -> float:
    """S(p || tau) = sum_{p > 0} p (ln p - ln tau) against the Gibbs weights tau
    of the energies at beta, with ln tau = -beta e - ln Z finite where tau underflows."""
    x = -beta * energies
    return -_shannon(p) - float(p @ (x - np.logaddexp.reduce(x)))


def _shannon(p: np.ndarray) -> float:
    """-sum p ln p in nats, with 0 ln 0 = 0."""
    p = p[p > 0.0]
    terms = np.log(p)
    terms *= p
    return float(-np.add.reduce(terms))


def _div(num: float, den: float) -> float:
    """num / den as IEEE 754 divides it: inf or nan, not an exception, at den = 0."""
    try:
        return num / den
    except ZeroDivisionError:
        if num == 0 or num != num:
            return math.nan
        return math.copysign(math.inf, num) * math.copysign(1.0, den)


def _brent(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f in the bracket [a, b] by Brent's method.

    A line-for-line port of brentq in SciPy's Zeros/brentq.c: the same
    iterates and the same evaluations of f, and the iterate x is accepted
    once the bracket half-width is below (xtol + rtol |x|) / 2. Raises
    NoConvergence when f(a) and f(b) have one sign, when f returns NaN or
    after ``maxiter`` iterations.
    """
    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if math.isnan(fpre) or math.isnan(fcur):
        raise NoConvergence("root solve: f returned NaN")
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NoConvergence("root solve: f(a) and f(b) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:    # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:               # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry    # good short step
            else:
                spre = scur = sbis         # bisect
        else:
            spre = scur = sbis             # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise NoConvergence("root solve: f returned NaN")
    raise NoConvergence(f"root solve: no convergence after {maxiter} iterations, "
                        f"value is {xcur!r}")


def _decreasing_root(evaluate, known: dict, tail: float, noise: float, stop: float,
                     xtol: float) -> tuple:
    """Root x in (0, stop] of a decreasing f with f(0) > 0 and f -> -tail,
    returned as (x, f(x), the Gibbs weights formed at x).

    evaluate(x) is (f(x), the Gibbs weights formed at x). ``known``, the
    solve's one table of evaluated points, maps x = 0 and any other point
    the solve evaluated to that pair; each point the search evaluates joins
    it, so none is evaluated twice. x is dimensionless (beta times the
    spectral width, or its square). f(0) is read as formed; elsewhere
    |f| <= ``noise``, the rounding error of f, is read as 0, a root. The
    bracket grows geometrically from x = 1 until f changes sign. Brent's
    method (_brent, rtol 4 eps, absolute ``xtol``) then runs on
    log1p(f / tail), which has the sign of f and is nearly linear where f
    nears an exponential tail, so a target near a spectrum edge costs about
    as many evaluations as a central one. Both return only evaluated points.
    Raises NoConvergence when f(stop) > 0 or Brent's iteration limit is hit.
    """
    def f(x):
        if x not in known:
            known[x] = evaluate(x)
        fx = known[x][0]
        return 0.0 if x != 0 and abs(fx) <= noise else fx

    lo, hi = 0.0, 1.0
    while hi < stop:
        f_hi = f(hi)
        if f_hi <= 0:
            break
        lo = hi
        hi *= BRACKET_GROWTH
    else:
        hi = stop
        f_hi = f(hi)
    if f_hi > 0:
        raise NoConvergence("root not bracketed")
    if f_hi != 0:
        hi = _brent(lambda x: math.log1p(max(f(x) / tail, _LOG1P_FLOOR)), lo, hi, xtol,
                    BETA_RTOL)
    return (hi, *known[hi])


def solve_beta_for_energy(h: HamiltonianOp, energy: float) -> ThermalSolveResult:
    """Inverse temperature whose Gibbs state on h has the given mean energy.

    Mean energy is strictly decreasing in beta, so the solution in
    [-beta_max, beta_max] is unique; beta < 0 corresponds to energies above
    the flat-state mean (population inversion). The sign of beta is that of
    f(0) = mean_energy(0) - energy, so beta is exactly 0.0 when the flat
    state matches, and a bracketed Brent solve on that half of the interval
    finds |beta|. The residual is held to BETA_RESIDUAL x spectral width.
    The flat state seeds _decreasing_root's table of evaluated points, and
    the solve returns the Gibbs weights and residual that the table holds at
    the root, so it forms no Gibbs state after finding it (+-x / width is
    the beta the objective formed at x). h's energies are ascending, as
    thermal_populations needs.
    """
    en = h.energies
    width = h.spectral_width
    if width <= 0 or not (en[0] < energy < en[-1]):
        raise EnergyOutOfRange(f"energy {energy} not strictly inside "
                               f"({en[0]}, {en[-1]})")
    noise = ROUNDING * max(abs(en[0]), abs(en[-1]))
    p = thermal_populations(en, 0.0)
    v = float(p @ en) - energy
    beta = 0.0
    if v > 0 or v < 0:
        # |beta| width solves sign (mean_energy(sign |beta|) - energy) = 0,
        # decreasing in |beta|; negation is exact, so the sign flips no bit
        sign = math.copysign(1.0, v)

        def evaluate(x):
            p = thermal_populations(en, sign * x / width)
            return sign * (float(p @ en) - energy), p

        x, v, p = _decreasing_root(evaluate, {0.0: (sign * v, p)},
                                   energy - en[0] if sign > 0 else en[-1] - energy,
                                   noise, BETA_MAX_SCALE, BETA_XTOL_SCALE)
        beta = sign * x / width
    residual = abs(v)
    if not residual <= BETA_RESIDUAL * width:   # NaN is refused too
        raise NoConvergence(f"energy residual {residual:.3e} exceeds "
                            f"{BETA_RESIDUAL * width:.3e}")
    return ThermalSolveResult(beta, p, residual)


def solve_beta_for_entropy(h: HamiltonianOp, entropy: float) -> ThermalSolveResult:
    """Inverse temperature beta >= 0 whose Gibbs state has the given entropy.

    Restricted to the beta >= 0 branch where S(beta) is monotone (ln d at
    beta = 0 down to the ground-degeneracy entropy) and solved there by the
    same bracketed Brent solve as the energy match. Targets below the
    beta_max floor return beta_max with the residual reported rather than
    raising: the caller sees how far the saturated solver landed. The
    residual of a solved beta is held to BETA_RESIDUAL. As in the energy
    match, the root's Gibbs weights and residual are read from the table of
    evaluated points (sqrt(y) / width is the objective's beta), which the
    flat state and the beta_max weights, the bracket's stop, seed.
    """
    en = h.energies
    width = h.spectral_width
    d = len(en)
    if width <= 0:
        raise EntropyOutOfRange("degenerate spectrum: entropy is constant in beta")
    if not (-ENTROPY_RANGE_ATOL <= entropy <= np.log(d) + ENTROPY_RANGE_ATOL):
        raise EntropyOutOfRange(f"entropy {entropy} outside [0, ln {d}]")
    beta_max = BETA_MAX_SCALE / width
    p_max = thermal_populations(en, beta_max)
    s_floor = _shannon(p_max)
    if entropy <= s_floor:
        return ThermalSolveResult(beta_max, p_max, abs(s_floor - entropy))
    # S is quadratic in beta at 0, so the solve runs in y = (beta width)^2;
    # sqrt(BETA_MAX_SCALE**2) is BETA_MAX_SCALE, so y's stop is at beta_max
    y_max = BETA_MAX_SCALE**2
    p = thermal_populations(en, 0.0)
    v = _shannon(p) - entropy
    y = 0.0   # beta = 0 also for targets up to the slack above the computed ln d
    if v > 0:
        def evaluate(y):
            p = thermal_populations(en, math.sqrt(y) / width)
            return _shannon(p) - entropy, p

        y, v, p = _decreasing_root(evaluate, {0.0: (v, p), y_max: (s_floor - entropy, p_max)},
                                   entropy, ROUNDING * np.log(d), y_max, BETA_XTOL_SCALE**2)
    residual = abs(v)
    if not residual <= BETA_RESIDUAL:   # NaN is refused too
        raise NoConvergence(f"entropy residual {residual:.3e}")
    return ThermalSolveResult(math.sqrt(y) / width, p, residual)


def majorizes(p, q) -> bool:
    """True when p majorizes q: descending partial sums of p dominate q's,
    to MAJORIZATION_SLACK."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise LengthMismatch(f"shapes {p.shape} and {q.shape} differ")
    cp = np.cumsum(np.sort(p)[::-1])
    cq = np.cumsum(np.sort(q)[::-1])
    return bool(np.all(cp >= cq - MAJORIZATION_SLACK))


# ------------------------------------------------------------- serialization

def matrix_to_json(m: np.ndarray) -> dict:
    """Complex matrix as {"dim": n, "re": [...], "im": [...]}, row-major."""
    m = linalg.as_square(m)
    return {"dim": m.shape[0],
            "re": m.real.ravel().tolist(),
            "im": m.imag.ravel().tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of matrix_to_json, with shape validation: dim must be an
    integer >= 1 (a bool is not one), and re, and im where it is given,
    must hold dim^2 numbers. A missing im is formed as zeros, after that
    check."""
    try:
        dim = obj["dim"]
        if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
            raise DimMismatch(f"dim must be an integer >= 1, got {dim!r}")
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float) if "im" in obj else None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DimMismatch(f"bad matrix object: {exc}") from exc
    n = dim * dim
    if re.size != n or (im is not None and im.size != n):
        raise DimMismatch(f"matrix payload length {re.size}/{n if im is None else im.size} "
                          f"!= dim^2 = {n}")
    return (re + 1j * (np.zeros(n) if im is None else im)).reshape(dim, dim)
