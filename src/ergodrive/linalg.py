"""Dense Hermitian / unitary matrix kernels.

Everything downstream (states, ergotropy, drive synthesis) goes through these
few routines, so their contracts are deliberately strict: inputs are checked
against the tolerance record and eigenbases are made deterministic (canonical
phase and degenerate-subspace handling) so repeated runs agree bit-for-bit.

Stacks of small matrices on a time grid are laid out time-innermost, as
(d, d, n) arrays, so that a product of two stacks (matmul_t, rmatmul_t) is d
broadcast multiply-adds over length-n vectors instead of n tiny matmuls.
herm_expi_batch exponentiates such a stack with one scaled-and-squared
Taylor kernel whose degree comes from a 1-norm bound on the remainder
(Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)); at the
step norms of a propagator, ||H dt||_1 ~ 1e-3, that is degree 3 to 5 with
no squaring. polar_project re-unitarizes a whole stack in one batched SVD.
"""

from __future__ import annotations

import bisect
import math
import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import BranchAmbiguity, DimMismatch, NotHermitian, NotUnitary, TooFarFromUnitary
from .tolerances import DEFAULT_TOLS, DEGENERATE_ULPS, Tolerances


class HermEig(NamedTuple):
    """Spectral decomposition of a Hermitian matrix; values ascending."""

    values: np.ndarray   # (d,) real
    vectors: np.ndarray  # (d, d) complex, orthonormal columns


class UnitaryPhases(NamedTuple):
    """Principal-branch eigenphases of a unitary; phases ascending in [-pi, pi)."""

    phases: np.ndarray   # (d,) real
    vectors: np.ndarray  # (d, d) complex, orthonormal columns


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


def as_square(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatch(f"{name} must be square, got shape {m.shape}")
    return m


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entry of |m - m^dag|."""
    return float(np.abs(m - dagger(m)).max()) if m.size else 0.0


def unitarity_defect(u: np.ndarray) -> float:
    """Frobenius norm of u^dag u - 1."""
    d = u.shape[0]
    return frob(dagger(u) @ u - np.eye(d))


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column of an orthonormal basis so its largest-magnitude
    entry is real positive."""
    z = v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])]
    return v * (z.conj() / np.hypot(z.real, z.imag))   # hypot: abs() of one scalar


def _degenerate_blocks(values: np.ndarray, atol: float):
    """Index ranges [i, j) of groups of equal-within-atol sorted values."""
    blocks = []
    i = 0
    d = len(values)
    while i < d:
        j = i + 1
        while j < d and values[j] - values[j - 1] <= atol:
            j += 1
        blocks.append((i, j))
        i = j
    return blocks


def _canonical_block_basis(vecs: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(vecs) via projected Gram-Schmidt.

    Projects the standard basis vectors onto the subspace in index order and
    orthonormalizes, so the result does not depend on eigensolver internals.
    """
    d, k = vecs.shape
    proj = vecs @ dagger(vecs)
    out = []
    for j in range(d):
        cand = proj[:, j].copy()
        for u in out:
            cand -= u * np.vdot(u, cand)
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            out.append(cand / nrm)
        if len(out) == k:
            break
    if len(out) < k:   # pathological cancellation: keep solver basis
        return vecs
    return np.column_stack(out)


def _canonicalize(values: np.ndarray, vectors: np.ndarray, scale: float) -> np.ndarray:
    """Canonical basis on every block of values split only by roundoff, and
    canonical column phases. A block wider than roundoff keeps the solver's
    vectors: re-basing it would pair values with vectors of other values."""
    atol = DEGENERATE_ULPS * np.finfo(float).eps * max(scale, 1.0)
    for i, j in _degenerate_blocks(values, atol):
        if j - i > 1:
            vectors[:, i:j] = _canonical_block_basis(vectors[:, i:j])
    return _fix_column_phases(vectors)


def hermitian_eig(m, tols: Tolerances = DEFAULT_TOLS, *, checked: bool = False) -> HermEig:
    """Eigendecomposition of a Hermitian matrix, ascending, canonical basis.

    Raises NotHermitian if the max-entry defect exceeds ``tols.hermiticity``
    relative to the matrix scale. ``checked=True`` is for callers that have
    already checked m and made it exactly Hermitian: the check and the
    symmetrization are skipped (symmetrizing such an m would not change it).
    """
    m = as_square(m)
    scale = max(float(np.abs(m).max()), 1.0) if m.size else 1.0
    if checked:
        values, vectors = np.linalg.eigh(m)
    elif hermiticity_defect(m) > tols.hermiticity * scale:
        raise NotHermitian(f"hermiticity defect {hermiticity_defect(m):.3e} "
                           f"exceeds {tols.hermiticity * scale:.3e}")
    else:
        values, vectors = _symmetrized_eigh(m)
    vectors = _canonicalize(values, np.asarray(vectors, dtype=complex), scale)
    return HermEig(values, vectors)


def hermitian_eigvals(m) -> np.ndarray:
    """Ascending eigenvalues of a stack m[..., d, d] of Hermitian matrices.

    Row k is bit-equal to hermitian_eig(m[k]).values: a batched eigh gives the
    same bits as one call per matrix (eigvalsh, another LAPACK path, does not).
    No hermiticity check: callers build the stack Hermitian.
    """
    return _symmetrized_eigh(np.asarray(m, dtype=complex))[0]


def _symmetrized_eigh(m: np.ndarray):
    """LAPACK eigh of the Hermitian part (m + m^dag) / 2 of m[..., d, d]."""
    return np.linalg.eigh(0.5 * (m + np.conj(np.swapaxes(m, -1, -2))))


def principal_log_unitary(u, tols: Tolerances = DEFAULT_TOLS):
    """Hermitian chi with u = exp(i chi), eigenphases on the principal branch.

    Returns ``(chi, UnitaryPhases)`` with phases in [-pi, pi), ascending.
    Warns with BranchAmbiguity when a phase sits within ``tols.branch_cut``
    of the -pi cut, where the branch choice is numerically unstable.
    """
    u = as_square(u, "unitary")
    if unitarity_defect(u) > tols.unitarity:
        raise NotUnitary(f"unitarity defect {unitarity_defect(u):.3e} "
                         f"exceeds {tols.unitarity:.3e}")
    # a unitary is normal, so its complex Schur form is diagonal with an
    # orthonormal (unitary) eigenvector matrix even for degenerate phases
    t, z = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diagonal(t))
    phases = np.where(phases >= np.pi, phases - 2 * np.pi, phases)  # [-pi, pi)
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vectors = np.asarray(z, dtype=complex)[:, order]
    if np.any(np.abs(phases + np.pi) < tols.branch_cut):
        warnings.warn("eigenphase within branch-cut tolerance of -pi; "
                      "principal log is ill-conditioned here", BranchAmbiguity)
    vectors = _canonicalize(phases, vectors, 1.0)
    chi = (vectors * phases) @ dagger(vectors)
    chi = 0.5 * (chi + dagger(chi))
    return chi, UnitaryPhases(phases, vectors)


# Largest theta = ||A||_1 at which the Taylor tail sum_{k>m} A^k / k! is below
# the unit roundoff 2^-53 for degree m = 1..12 (bounded by theta^(m+1)/(m+1)!
# / (1 - theta/(m+2)); values rounded down).
_TAYLOR_THETA = (1.49e-8, 8.73e-6, 2.27e-4, 1.67e-3, 6.56e-3, 1.77e-2,
                 3.81e-2, 6.99e-2, 1.14e-1, 1.73e-1, 2.47e-1, 3.35e-1)


def matmul_t(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out[i, j, ...] = sum_k a[i, k, ...] b[k, j, ...] over time-innermost stacks.

    a and b are (d, d, ...) arrays whose trailing axes broadcast; every
    product is d multiply-adds over whole stacks instead of one small matmul
    per stack element. out has the broadcast shape and must not overlap a
    or b. The product is formed r rows at a time, r = len(tmp): tmp is a
    scratch array of shape (r,) + out.shape[1:]. One row at a time keeps
    the scratch small and in cache on long stacks; all rows at once costs
    fewer calls on short ones.
    """
    r = tmp.shape[0]
    for i in range(0, out.shape[0], r):
        o = out[i:i + r]
        t = tmp[:len(o)]
        np.multiply(a[i:i + r, 0, None], b[None, 0], out=o)
        for k in range(1, a.shape[1]):
            np.multiply(a[i:i + r, k, None], b[None, k], out=t)
            o += t
    return out


def rmatmul_t(p: np.ndarray, b: np.ndarray) -> np.ndarray:
    """p <- p b in place over time-innermost stacks (see matmul_t).

    Row i of p b needs only row i of p, so the product is formed one row at
    a time into a one-row scratch and copied back.
    """
    row, tmp = np.empty((2, 1) + p.shape[1:], dtype=complex)
    for i in range(p.shape[0]):
        p[i] = matmul_t(p[i:i + 1], b, row, tmp)[0]
    return p


def _expm_taylor(a: np.ndarray) -> np.ndarray:
    """exp(a) over a time-innermost stack a[d, d, n], scaled and squared Taylor.

    One degree m and squaring count s serve the whole stack: s halves the
    largest 1-norm theta until it is at most _TAYLOR_THETA[-1], and m is the
    least degree whose tail bound at theta / 2^s is below the unit roundoff.
    The series is summed by Horner's rule, multiplying by a from the right
    in place. a is overwritten.
    """
    d = a.shape[0]
    theta = float(np.abs(a).sum(axis=0).max(initial=0.0))
    s = max(0, math.ceil(math.log2(theta / _TAYLOR_THETA[-1]))) if 0.0 < theta < math.inf else 0
    if s:
        a *= 0.5**s
    m = bisect.bisect_left(_TAYLOR_THETA, theta * 0.5**s) + 1
    p = a * (1.0 / math.factorial(m))
    diag = p.reshape(d * d, -1)[::d + 1]    # the (i, i) rows, a view
    diag += 1.0 / math.factorial(m - 1)
    for k in range(m - 2, -1, -1):
        rmatmul_t(p, a)
        diag += 1.0 / math.factorial(k)
    if s:
        q, tmp = np.empty_like(p), np.empty_like(p[:1])
        for _ in range(s):
            p, q = matmul_t(p, p, q, tmp), p
    return p


def herm_expi_batch(h: np.ndarray, dt) -> np.ndarray:
    """exp(-i h dt) over a stack of Hermitian matrices h[..., d, d].

    ``dt`` may be a scalar or broadcast against the stack dimensions. No
    hermiticity check (hot path); callers guarantee Hermitian input. The
    stack is laid out time-innermost, (d, d, n), and exponentiated by one
    scaled-and-squared Taylor kernel for every d; the result is a
    (..., d, d) view of that layout.
    """
    h = np.asarray(h, dtype=complex)
    dt = np.asarray(dt, dtype=float)
    d = h.shape[-1]
    stack = np.broadcast_shapes(h.shape[:-2], dt.shape)
    h = h.reshape((1,) * (len(stack) + 2 - h.ndim) + h.shape)
    a = np.empty((d, d) + stack, dtype=complex)
    np.multiply(np.moveaxis(h, (-2, -1), (0, 1)), -1j * dt, out=a)
    out = _expm_taylor(a.reshape(d, d, -1)).reshape(a.shape)
    return np.moveaxis(out, (0, 1), (-2, -1))


def polar_project(u: np.ndarray, tols: Tolerances = DEFAULT_TOLS):
    """Nearest unitaries in Frobenius norm over a stack u[..., d, d], and the drift.

    Polar factors via one batched SVD. The drift is the largest
    ||u^dag u - 1||_F = ||s^2 - 1|| over the stack. Refuses a matrix farther
    than ``tols.unitary_defect_max`` from the unitary manifold (||s - 1||):
    that is an integration bug, not drift to be papered over.
    """
    p, s, qh = np.linalg.svd(u)
    dist = float(np.linalg.norm(s - 1.0, axis=-1).max(initial=0.0))
    if dist > tols.unitary_defect_max:
        raise TooFarFromUnitary(f"distance to unitary manifold {dist:.3e} "
                                f"exceeds {tols.unitary_defect_max}")
    drift = float(np.linalg.norm(s * s - 1.0, axis=-1).max(initial=0.0))
    return p @ qh, drift


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b."""
    diff = 0.5 * ((a - b) + dagger(a - b))
    vals = np.linalg.eigvalsh(diff)
    return 0.5 * float(np.abs(vals).sum())
