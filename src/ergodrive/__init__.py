"""Work extraction from quantum states under Hamiltonian quenches.

Passive states, non-cyclic ergotropy and its decomposition, thermal
references and bounds, optimal correction drives with their energetic cost,
counterdiabatic comparisons for driven two-level systems, and a CLI for
reports and figure sweeps.
"""

from .drives import (DriveSynthesis, PhaseOptResult, PropagatorTrace, Schedule, final_unitary,
                     optimize_phases, propagate_u0, smoothstep_dot, synthesize_drive,
                     target_unitary, verify_drive)
from .ergotropy import (Counterexample, Decomposition, DeltaResult, ErgotropyReport,
                        UpperBoundResult, counterexample_populations, decompose, delta_noncyclic,
                        full_report, gain_g, noncyclic_ergotropy, upper_bound_delta)
from .errors import (BranchAmbiguity, ConvergenceError, ErgodriveError,
                     ValidationError, VerificationFailed)
from .linalg import (HermEig, UnitaryPhases, dagger, herm_expi_batch,
                     hermitian_eig, principal_log_unitary, trace_distance)
from .states import (DensityMatrix, HamiltonianOp, ThermalSolveResult, energy_populations,
                     majorizes, matrix_from_json, matrix_to_json, passive_energy,
                     passive_state, solve_beta_for_energy,
                     solve_beta_for_entropy, thermal_populations, von_neumann_entropy)
from .tls import MuDynParams, TlsState, example1_phase_average

__all__ = [name for name in dir() if not name.startswith("_")]
