"""Dense Hermitian / unitary matrix kernels.

Everything downstream (states, ergotropy, drive synthesis) goes through these
few routines, so their contracts are deliberately strict: inputs are checked
against the tolerance record and eigenbases are made deterministic (canonical
phase and degenerate-subspace handling) so repeated runs agree bit-for-bit.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import BranchAmbiguity, DimMismatch, NotHermitian, NotUnitary, TooFarFromUnitary
from .tolerances import DEFAULT_TOLS, Tolerances


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
    atol = 1e-10 * max(scale, 1.0)
    for i, j in _degenerate_blocks(values, atol):
        if j - i > 1:
            vectors[:, i:j] = _canonical_block_basis(vectors[:, i:j])
    return _fix_column_phases(vectors)


def hermitian_eig(m, tols: Tolerances = DEFAULT_TOLS) -> HermEig:
    """Eigendecomposition of a Hermitian matrix, ascending, canonical basis.

    Raises NotHermitian if the max-entry defect exceeds ``tols.hermiticity``
    relative to the matrix scale.
    """
    m = as_square(m)
    scale = max(float(np.abs(m).max()), 1.0) if m.size else 1.0
    if hermiticity_defect(m) > tols.hermiticity * scale:
        raise NotHermitian(f"hermiticity defect {hermiticity_defect(m):.3e} "
                           f"exceeds {tols.hermiticity * scale:.3e}")
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


def herm_expi_batch(h: np.ndarray, dt) -> np.ndarray:
    """exp(-i h dt) over a stack of Hermitian matrices h[..., d, d].

    ``dt`` may be a scalar or broadcast against the stack dimensions. No
    hermiticity check (hot path); callers guarantee Hermitian input.
    d = 2 uses the exact Pauli closed form, larger d a batched eigh.
    """
    h = np.asarray(h, dtype=complex)
    dt = np.asarray(dt, dtype=float)
    d = h.shape[-1]
    if d == 2:
        a = 0.5 * (h[..., 0, 0] + h[..., 1, 1]).real
        vz = 0.5 * (h[..., 0, 0] - h[..., 1, 1]).real
        vx = h[..., 0, 1].real
        vy = -h[..., 0, 1].imag
        vn = np.sqrt(vx**2 + vy**2 + vz**2)
        ang = vn * dt
        sinc = np.where(vn > 0, np.sin(ang) / np.where(vn > 0, vn, 1.0), dt)
        cosang = np.cos(ang)
        out = np.empty(np.broadcast_shapes(h.shape[:-2], dt.shape) + (2, 2), dtype=complex)
        out[..., 0, 0] = cosang - 1j * sinc * vz
        out[..., 0, 1] = -1j * sinc * (vx - 1j * vy)
        out[..., 1, 0] = -1j * sinc * (vx + 1j * vy)
        out[..., 1, 1] = cosang + 1j * sinc * vz
        return np.exp(-1j * a * dt)[..., None, None] * out
    w, v = np.linalg.eigh(h)
    phase = np.exp(-1j * w * dt[..., None])
    return (v * phase[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def reunitarize(u, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Nearest unitary in Frobenius norm (polar factor via SVD).

    Refuses inputs farther than ``tols.unitary_defect_max`` from the unitary
    manifold: those are integration bugs, not drift to be papered over.
    """
    u = as_square(u, "unitary")
    p, s, qh = np.linalg.svd(u)
    dist = float(np.linalg.norm(s - 1.0))
    if dist > tols.unitary_defect_max:
        raise TooFarFromUnitary(f"distance to unitary manifold {dist:.3e} "
                                f"exceeds {tols.unitary_defect_max}")
    return p @ qh


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b."""
    diff = 0.5 * ((a - b) + dagger(a - b))
    vals = np.linalg.eigvalsh(diff)
    return 0.5 * float(np.abs(vals).sum())
