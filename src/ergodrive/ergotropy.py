"""Non-cyclic ergotropy, its decomposition, gain, bounds, and the
three-level activation counterexample.

The non-cyclic extraction allows the final Hamiltonian h_f to differ from the
initial h_i; energies are always reported in the units of the Hamiltonians
passed in (hbar = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import states
from .errors import (EnergyOutOfRange, EntropyOutOfRange, NegativeBeta, NoConvergence,
                     ParamOutOfRange)
from .states import DensityMatrix, HamiltonianOp
from .tolerances import (BETA_RESIDUAL, BOUND_FORMS_REL, BOUND_SCALE_FLOOR,
                         COUNTEREXAMPLE_ENERGY_ATOL, ENTROPY_CEILING_ATOL, IDENTITY_RESIDUAL,
                         REPORT_ROUNDING_REL)


class Decomposition(NamedTuple):
    e_inc: float  # incoherent part: population disorder in the h_i basis
    e_pas: float  # passive-transport part: h_i -> h_f spectrum change
    e_coh: float  # coherent part: basis mismatch of rho_i with h_i


@dataclass(frozen=True)
class ErgotropyReport:
    """Everything the CLI emits for one (rho_i, h_i, h_f) instance."""

    e_nc: float
    e_inc: float
    e_pas: float
    e_coh: float
    delta_e_nc: Optional[float]
    gain_g: float
    upper_bound: Optional[float]
    majorization_holds: bool
    beta_same_energy: Optional[float]
    negative_temperature_flag: bool

    def to_json(self) -> dict:
        return {k: (None if v is None else (bool(v) if isinstance(v, (bool, np.bool_)) else float(v)))
                for k, v in self.__dict__.items()}


class DeltaResult(NamedTuple):
    value: float
    beta: float
    negative_temperature: bool


class UpperBoundResult(NamedTuple):
    value: float            # Tr[passive(rho_th) h_f] - Tr[thermal_f(beta_i) h_f]
    entropic_value: float   # (dS + S(P || T)) / beta_i, equal by identity
    beta_i: float           # entropy-matched inverse temperature on h_f
    delta_s: float          # S(rho_th) - S(rho_i) >= 0


def noncyclic_ergotropy(rho_i: DensityMatrix, h_i: HamiltonianOp,
                        h_f: HamiltonianOp) -> float:
    """Maximal work extracted evolving rho_i from h_i into the passive state of h_f."""
    return _noncyclic(h_i.energy(rho_i), states.passive_energy(rho_i, h_f))


def _noncyclic(energy_i: float, passive_f: float) -> float:
    """e_nc from Tr[rho_i h_i] and the passive energy of rho_i on h_f."""
    return energy_i - passive_f


def decompose(rho_i: DensityMatrix, h_i: HamiltonianOp,
              h_f: HamiltonianOp) -> Decomposition:
    """Split e_nc into incoherent, passive-transport, and coherent parts.

    The three terms telescope: their sum is noncyclic_ergotropy exactly, and
    each term is individually nonnegative (permutation minimality for e_inc,
    Schur-Horn majorization for e_coh).
    """
    return _decompose(h_i.energy(rho_i), states.energy_populations(rho_i, h_i),
                      states.passive_energy(rho_i, h_f), h_i.energies, h_f.energies)


def _decompose(energy_i: float, populations_i: np.ndarray, passive_f: float,
               e_i: np.ndarray, e_f: np.ndarray) -> Decomposition:
    """decompose from Tr[rho_i h_i], rho_i's h_i populations, its passive
    energy on h_f and the ascending energies of h_i and h_f."""
    r_d = states._clamped_spectrum(populations_i)[1]   # passive rho_D
    on_i, on_f = r_d @ e_i, r_d @ e_f
    return Decomposition(energy_i - on_i, on_i - on_f, on_f - passive_f)


def delta_noncyclic(rho_i: DensityMatrix, h_i: HamiltonianOp, h_f: HamiltonianOp,
                    same_energy: Optional[states.ThermalSolveResult] = None) -> DeltaResult:
    """Ergotropy difference between rho_i and the same-energy thermal state.

    The matching inverse temperature may come out negative (mean energy above
    the flat-state value); the result is still computed and flagged.
    ``same_energy`` passes in that state's solve when the caller already has it.
    """
    if same_energy is None:
        same_energy = states.solve_beta_for_energy(h_i, h_i.energy(rho_i))
    p_f = states._clamped_spectrum(same_energy.populations)[1]
    return _delta(same_energy, p_f, h_f.energies, states.passive_energy(rho_i, h_f))


def _delta(same_energy: states.ThermalSolveResult, p_f: np.ndarray, e_f: np.ndarray,
           passive_f: float) -> DeltaResult:
    """delta_noncyclic from the same-energy solve, its passive populations
    p_f, h_f's energies and rho_i's passive energy on h_f."""
    return DeltaResult(float(p_f @ e_f - passive_f), same_energy.beta, same_energy.beta < 0)


def gain_g(rho_i: DensityMatrix, h_i: HamiltonianOp, h_f: HamiltonianOp) -> float:
    """Cyclic ergotropy of the population-transported state at h_f.

    Populations of rho_i (ascending h_i energy order) ride across to the
    ascending h_f levels; G is the work a cyclic process then extracts, so
    G >= 0 and G is insensitive to the coherences' phases.
    """
    return _gain(states.energy_populations(rho_i, h_i), rho_i, h_f.energies)


def _gain(populations_i: np.ndarray, rho_i: DensityMatrix, e_f: np.ndarray) -> float:
    """gain_g from rho_i's h_i populations and h_f's energies."""
    return float(transport_gain(populations_i, rho_i.populations_desc(), e_f))


def transport_gain(p, r, e_f):
    """G = (p - r) . e_f from the energy populations p (ascending h_i order),
    the descending eigenvalues r and the ascending final energies e_f.

    Broadcasts over leading axes, one G per row. np.vecdot runs the same dot
    kernel per row as a single 1-D product, so each G is bit-equal to its own
    gain_g; a stacked matmul or einsum sums in another order.
    """
    return np.vecdot(np.subtract(p, r), e_f)


def upper_bound_delta(rho_i: DensityMatrix, h_i: HamiltonianOp, h_f: HamiltonianOp,
                      same_energy: Optional[states.ThermalSolveResult] = None
                      ) -> UpperBoundResult:
    """Upper bound on delta_noncyclic from the same-energy thermal state.

    value = Tr[passive(rho_th)_f h_f] - Tr[tau_f(beta_i) h_f], with rho_th the
    same-energy Gibbs state of h_i and beta_i >= 0 matching S(rho_i) on h_f.
    The equivalent entropic form beta_i^{-1}[dS + S(passive(rho_th)_f || tau_f)]
    is evaluated as a cross-check; the two must agree to identity tolerance.
    Both states are population vectors on h_f's eigenbasis; the relative
    entropy takes tau_f's log weights. ``same_energy`` passes in the solve
    for rho_th when the caller already has it. There is no bound, and a typed
    refusal, when rho_i's energy has no Gibbs match on h_i (EnergyOutOfRange),
    rho_i is maximally mixed (NegativeBeta), or S(rho_i) is below h_f's
    entropy floor, as at a (nearly) degenerate ground level (EntropyOutOfRange).
    """
    s_i = _entropy_below_ceiling(rho_i)
    if same_energy is None:
        same_energy = states.solve_beta_for_energy(h_i, h_i.energy(rho_i))
    p_f = states._clamped_spectrum(same_energy.populations)[1]
    return _upper_bound(s_i, h_f, same_energy, p_f)


def _entropy_below_ceiling(rho_i: DensityMatrix) -> float:
    """S(rho_i), refused (NegativeBeta) at the entropy ceiling ln d: there
    beta_i -> 0 and 1/beta_i amplifies roundoff past any cross-check, so the
    flat corner is rejected outright."""
    s_i = states.von_neumann_entropy(rho_i)
    if s_i >= np.log(rho_i.dim) - ENTROPY_CEILING_ATOL:
        raise NegativeBeta("entropy-matched beta_i must be positive; "
                           "the input is maximally mixed")
    return s_i


def _upper_bound(s_i: float, h_f: HamiltonianOp, same_energy: states.ThermalSolveResult,
                 p_f: np.ndarray) -> UpperBoundResult:
    """upper_bound_delta from S(rho_i), the same-energy solve and its
    passive populations p_f on h_f."""
    scale = max(h_f.spectral_width, BOUND_SCALE_FLOOR)
    solve_s = states.solve_beta_for_entropy(h_f, s_i)
    if not solve_s.residual <= BETA_RESIDUAL:   # NaN is refused too
        raise EntropyOutOfRange(f"S(rho_i) = {s_i} is below the entropy floor of h_f")
    beta_i = solve_s.beta
    if beta_i <= 0:
        raise NegativeBeta("entropy-matched beta_i must be positive")
    value = float(p_f @ h_f.energies - solve_s.populations @ h_f.energies)
    delta_s = states._shannon(same_energy.populations) - s_i
    entropic = (delta_s + states.gibbs_relative_entropy(p_f, h_f.energies, beta_i)) / beta_i
    if not abs(value - entropic) <= IDENTITY_RESIDUAL * scale + abs(value) * BOUND_FORMS_REL:
        raise NoConvergence(f"bound forms disagree: {value} vs {entropic}")
    return UpperBoundResult(value, entropic, beta_i, delta_s)


def full_report(rho_i: DensityMatrix, h_i: HamiltonianOp,
                h_f: HamiltonianOp) -> ErgotropyReport:
    """Assemble the complete ergotropy report for one instance, building no state.

    Each intermediate that several fields read (Tr[rho_i h_i], rho_i's h_i
    populations, its passive energy on h_f, the same-energy solve and its
    passive populations) is formed once, and each field by the formula of its
    public function. delta_e_nc and beta_same_energy are null when rho_i's
    energy has no Gibbs match on h_i; upper_bound is null then and wherever
    upper_bound_delta refuses: rho_i maximally mixed or S(rho_i) below h_f's
    entropy floor.
    delta_e_nc <= upper_bound and gain_g >= 0 hold exactly, but where they
    hold with equality (every qubit saturates the bound) the computed values
    can cross by roundoff. A bound below delta_e_nc, or a negative gain_g, by
    at most the rounding floor REPORT_ROUNDING_REL x the largest absolute
    energy of h_i and h_f is reported as delta_e_nc, or 0; a larger shortfall
    is reported as computed, so a real violation still shows.
    """
    e_i, e_f = h_i.energies, h_f.energies   # ascending: the ends hold the largest |e|
    floor = REPORT_ROUNDING_REL * float(max(-e_i[0], e_i[-1], -e_f[0], e_f[-1]))
    populations_i = states.energy_populations(rho_i, h_i)
    energy_i = h_i.energy(rho_i)
    passive_f = states.passive_energy(rho_i, h_f)
    g = _gain(populations_i, rho_i, e_f)
    parts = dict(e_nc=_noncyclic(energy_i, passive_f),
                 gain_g=0.0 if -floor <= g < 0.0 else g,
                 **_decompose(energy_i, populations_i, passive_f, e_i, e_f)._asdict())
    try:
        same_energy = states.solve_beta_for_energy(h_i, energy_i)
    except EnergyOutOfRange:
        return ErgotropyReport(**parts, delta_e_nc=None, upper_bound=None,
                               majorization_holds=False, beta_same_energy=None,
                               negative_temperature_flag=False)
    p_f = states._clamped_spectrum(same_energy.populations)[1]
    d = _delta(same_energy, p_f, e_f, passive_f)
    try:
        bound = _upper_bound(_entropy_below_ceiling(rho_i), h_f, same_energy, p_f).value
    except (NegativeBeta, EntropyOutOfRange):
        bound = None
    if bound is not None and d.value - floor <= bound < d.value:
        bound = d.value
    return ErgotropyReport(
        **parts, delta_e_nc=d.value, upper_bound=bound,
        majorization_holds=states.majorizes(rho_i.populations_desc(), same_energy.populations),
        beta_same_energy=d.beta, negative_temperature_flag=d.negative_temperature)


class Counterexample(NamedTuple):
    p_th: np.ndarray        # thermal populations, ascending-energy order
    q: np.ndarray           # perturbed populations, same order, same energy
    energies_i: np.ndarray  # (0, e2i, 1)
    energies_f: np.ndarray  # (0, e2f, 1)
    delta_e_nc: float       # ergotropy difference of diag(q) vs thermal


def counterexample_populations(beta: float, e2i: float, e2f: float) -> Counterexample:
    """Three-level populations with thermal mean energy but smaller ergotropy.

    Spectrum (0, e2i, 1); the perturbation moves alpha = exp(-beta) beta
    (e2i - e2i^2)/3 of weight so the mean energy is untouched while the
    sorted populations cross the thermal ones, so the ergotropy difference
    can go negative: energy matching alone does not order extractable work.
    """
    if beta <= 0:
        raise ParamOutOfRange("beta must be positive")
    if not (0.0 < e2i < 1.0) or not (0.0 <= e2f <= 1.0):
        raise ParamOutOfRange("middle levels must satisfy 0 < e2i < 1, 0 <= e2f <= 1")
    en_i = np.array([0.0, e2i, 1.0])   # ascending, as thermal_populations takes them
    p_th = states.thermal_populations(en_i, beta)
    alpha = np.exp(-beta) * beta * (e2i - e2i**2) / 3.0
    q = p_th + np.array([alpha / e2i - alpha, -alpha / e2i, alpha])
    if q.min() < 0:
        raise ParamOutOfRange(f"perturbed populations not a distribution: {q}")
    if abs(q @ en_i - p_th @ en_i) > COUNTEREXAMPLE_ENERGY_ATOL:
        raise NoConvergence("energy matching broken in counterexample construction")
    en_f = np.array([0.0, e2f, 1.0])
    delta = float(np.sort(p_th)[::-1] @ np.sort(en_f)
                  - np.sort(q)[::-1] @ np.sort(en_f))
    return Counterexample(p_th, q, en_i, en_f, delta)
