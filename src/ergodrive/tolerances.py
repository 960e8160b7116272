"""Numerical tolerance settings used across the package."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """One record for every overridable numerical threshold.

    All checks in the package route through an instance of this class so a
    single override changes behaviour consistently. The constants below it
    are part of the algorithms and are not overridable.
    """

    hermiticity: float = 1e-12      # max-entry defect |m - m^dag|
    unitarity: float = 1e-10        # Frobenius defect |u^dag u - 1|
    trace: float = 1e-12            # |Tr rho - 1|
    eig_floor: float = 1e-12        # negative-eigenvalue clamp window
    branch_cut: float = 1e-10       # warn when a log phase sits this close to -pi
    unitary_defect_max: float = 0.1  # polar projection refuses beyond this
    beta_residual: float = 1e-10    # thermal solver residual, units of spectral width
    majorization_slack: float = 1e-12
    identity_residual: float = 1e-9  # energy-identity cross checks, units of spectral width

    def with_(self, **kw) -> "Tolerances":
        """Copy with selected fields overridden."""
        return replace(self, **kw)


DEFAULT_TOLS = Tolerances()

# Fixed numerical constants of the algorithms themselves, not overridable:
# eigenvalues of a Hermitian matrix (or eigenphases of a unitary) this many
# units of roundoff of its scale apart share one canonical eigenbasis. Pairing
# a vector with the wrong value of such a block costs at most the block width,
# so it must stay at roundoff; exactly degenerate matrices come out of LAPACK
# split by up to about 13 units.
DEGENERATE_ULPS = 32
# The trace-and-determinant eigenphase kernel hands a row to eigvals when two
# of its eigenvalues are closer than this on the unit circle, where its Newton
# polish loses accuracy.
EIGENPHASE_SEPARATION = 1e-3
