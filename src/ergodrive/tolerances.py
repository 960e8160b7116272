"""Every numerical threshold of the package, one module constant each.

The paper's quantities are exact identities; these thresholds only decide
whether a computed number is accepted. Each is read where it is used, by
name; none is carried by an object or passed as an argument.
"""

import numpy as np

HERMITICITY = 1e-12          # max-entry defect |m - m^dag| (check_hermitian: per unit of scale)
UNITARITY = 1e-10            # Frobenius defect |u^dag u - 1| (principal_log_unitary)
TRACE = 1e-12                # |Tr rho - 1|
EIG_FLOOR = 1e-12            # negative-eigenvalue clamp window
BRANCH_CUT = 1e-10           # warn when a log phase sits this close to -pi
UNITARY_DEFECT_MAX = 0.1     # polar projection refuses beyond this
BETA_RESIDUAL = 1e-10        # beta solve residual: energy per unit spectral width; entropy in nats
MAJORIZATION_SLACK = 1e-12   # majorizes: slack on the partial sums
IDENTITY_RESIDUAL = 1e-9     # energy-identity cross checks, units of spectral width
BETA_MAX_SCALE = 1e4         # beta solvers' bracket: |beta| <= BETA_MAX_SCALE / spectral width
# absolute beta tolerance of the solvers, in units of 1 / spectral width: below
# it the Gibbs weights round to their beta = 0 values, so a solve never stops
# on beta = 0 itself unless the flat state already matches its target
BETA_XTOL_SCALE = 1e-18
BETA_RTOL = 4 * np.finfo(float).eps   # relative beta tolerance of the solvers
ROUNDING = 4 * np.finfo(float).eps    # rounding error of a mean energy or entropy, relative

# Eigenvalues of a Hermitian matrix (or eigenphases of a unitary) this many
# units of roundoff of its scale apart share one canonical eigenbasis. Pairing
# a vector with the wrong value of such a block costs at most the block width,
# so it must stay at roundoff; exactly degenerate matrices come out of LAPACK
# split by up to about 13 units.
DEGENERATE_ULPS = 32
# The trace-and-determinant eigenphase kernel hands a row to eigvals when two
# of its eigenvalues are closer than this on the unit circle, where its Newton
# polish loses accuracy.
EIGENPHASE_SEPARATION = 1e-3
# drives.optimize_phases' grid scan takes each mesh point's cost from the
# eigenphases at the first point of its class, shifted by a multiple of
# 2 pi / P, and costs again at its own phases every point whose shifted cost
# is within GRID_SHIFT_MARGIN / tau of the least. tau times a cost,
# (sum theta^2)^{1/2}, moves by at most |d theta|_2 when the eigenphases move
# by d theta on the circle. A unitary's eigenphases are perfectly
# conditioned, so d theta is the error of the solves alone: at most
# delta ~ 16 eps / EIGENPHASE_SEPARATION^2 = 3.6e-9 per phase, Newton's
# residual over the least |p'(z)| of a cubic whose roots are all
# EIGENPHASE_SEPARATION apart (9.6e-10 was seen against eigvals on such
# clusters). A point's shifted and direct costs then differ by at most
# 2 sqrt(3) delta / tau, and the first point at the least direct cost is
# within twice that, 2.5e-8 / tau, of the least shifted cost.
GRID_SHIFT_MARGIN = 1e-7
# Acceptance limits of drives.verify_drive: the final state's trace distance
# from the passive target; the final-energy residual per unit of final
# spectral width; the endpoint-Hamiltonian residual per unit of the largest
# Hamiltonian entry (at least 1); the work-integral residual per unit of the
# larger spectral width (at least 1).
VERIFY_STATE_DISTANCE = 1e-6
VERIFY_ENERGY_REL = 1e-8
VERIFY_ENDPOINT_REL = 1e-12
VERIFY_WORK_REL = 1e-6
# drive-synth's default step count: drives.final_unitary doubles it until
# the step-doubling estimate of U0(tau)'s largest entry error is at most
# PROPAGATION_ERROR, and drives.synthesize_drive doubles it further while the
# same estimate for the propagator of H0 + V that verify_drive integrates is above
# DRIVEN_PROPAGATION_ERROR. That propagator only feeds the verification, so
# its target is a hundredth of VERIFY_STATE_DISTANCE rather than
# PROPAGATION_ERROR. No propagation of either has more than
# PROPAGATION_MAX_STEPS steps.
PROPAGATION_ERROR = 1e-10
DRIVEN_PROPAGATION_ERROR = VERIFY_STATE_DISTANCE / 100
PROPAGATION_MAX_STEPS = 2**16
# The figure commands refuse, before forming any grid or draw array, a
# parameter grid of more than FIGURE_MAX_CELLS cells (512 x 512; each cell
# becomes a CSV row, and a fig1 cell with Monte Carlo columns its own
# generator) and more than FIGURE_MAX_DRAWS Monte Carlo draws per fig1 cell
# (whose scratch blocks take 896 bytes per draw).
FIGURE_MAX_CELLS = 2**18
FIGURE_MAX_DRAWS = 2**16
# A rotating schedule's endpoint Hamiltonians must match h_i and h_f to this
# many units of their largest entry (at least 1).
ROTATING_ENDPOINT_REL = 1e-10
# verify_drive measures the final-energy residual in units of h_f's spectral
# width, but of at least this much.
VERIFY_WIDTH_FLOOR = 1e-12
# full_report reports an upper bound below delta_e_nc as delta_e_nc, and a
# negative gain_g as 0, when the shortfall is at most this many units of the
# largest absolute energy of h_i and h_f (about 45 units of roundoff); a
# larger one is reported as computed.
REPORT_ROUNDING_REL = 1e-14
# Thresholds of single checks elsewhere, named here with their values unchanged:
BOUND_SCALE_FLOOR = 1e-300       # upper_bound_delta: floor of its cross-check scale, h_f's width
ENTROPY_CEILING_ATOL = 1e-12     # upper_bound_delta: S(rho_i) this close to ln d is refused
BOUND_FORMS_REL = 1e-9           # upper_bound_delta: its two forms' slack, relative to the value
COUNTEREXAMPLE_ENERGY_ATOL = 1e-12   # counterexample_populations: mean-energy check
BLOCK_BASIS_NORM_MIN = 1e-8      # _canonical_block_basis: least norm of a kept basis vector
ENTROPY_RANGE_ATOL = 1e-12       # solve_beta_for_entropy: slack on the range [0, ln d]
BLOCH_ATOL = 1e-14               # tls.check_bloch: slack on 0 <= p <= 1 and |c|^2 <= p (1 - p)
MIXED_WIDTH_MIN = 1e-15          # tls: a qubit state with a smaller eigenvalue gap is flat
