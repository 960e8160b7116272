"""Dense Hermitian / unitary matrix kernels.

Everything downstream (states, ergotropy, drive synthesis) goes through these
few routines, so their contracts are deliberately strict: inputs are checked
against the tolerances module and eigenbases are made deterministic (canonical
phase and degenerate-subspace handling) so repeated runs agree bit-for-bit.
hermitian_eig canonicalizes a basis when its vectors are first read, so a
caller that reads only the values never pays for it.

Stacks of small matrices on a time grid are laid out time-innermost, as
(d, d, n) arrays, so that a product of two stacks (matmul_t) is d
broadcast multiply-adds over length-n vectors instead of n tiny matmuls.
herm_expi_batch exponentiates such a stack with one scaled-and-squared
Taylor kernel whose degree comes from a 1-norm bound on the remainder
(Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)); at the
step sizes of the propagations, that is degree 5 to 12 (mostly 5 to 7, and
rarely one squaring) at the 64 to 256 steps that drives.synthesize_drive
picks by default, and degree 3 to 5 at 4096 steps. polar_project re-unitarizes a
whole stack in one batched SVD; ordered_products chains a stack of step
exponentials into running products, projecting the chained total of every
64-step block with it. Its steps are drives' Simpson-node fourth-order
Magnus steps: herm_expi_batch exponentiates their effective Hamiltonians
H_eff = (K1 + (i/12) [K1, K2]) / dt, which drives forms from H at the
nodes t_k, t_k + dt/2, t_k + dt (the commutator by matmul_t).
matmul_t forms all rows of a product at once at every stack length. On
short stacks NumPy's per-call cost dominates, so one module constant picks a
kernel by shape: a log-depth in-block scan in ordered_products up to
SCAN_MAX_BLOCKS[d] blocks, one position at a time above that.
principal_log_unitary takes a unitary's eigenvectors from eigh of a Cayley
transform, shifted so that I + u is well conditioned, and its eigenphases
from their Rayleigh quotients. Everything here is NumPy (LAPACK) only.
Every propagation kernel returns the array that holds its result, and every
scratch stack is a fresh array of the call that uses it: herm_expi_batch
returns fresh exponentials, and ordered_products overwrites the step stack
it is given and writes the samples into an array of its own.
"""

from __future__ import annotations

import bisect
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import (BranchAmbiguity, DimMismatch, NotHermitian, NotUnitary, ParamOutOfRange,
                     TooFarFromUnitary)
from .tolerances import (BLOCK_BASIS_NORM_MIN, BRANCH_CUT, DEGENERATE_ULPS, HERMITICITY,
                         UNITARITY, UNITARY_DEFECT_MAX)


class HermEig:
    """Spectral decomposition of a Hermitian matrix; values ascending.

    ``values`` (d,) real, is set when the object is built. ``vectors``, the
    canonical orthonormal eigenvectors as the (d, d) complex columns, are
    formed by ``basis()`` on their first read and cached read-only, so a
    caller that reads only the values never canonicalizes. Unpacks as
    ``(values, vectors)``.
    """

    __slots__ = ("values", "_basis", "_vectors")

    def __init__(self, values: np.ndarray, basis):
        self.values = values
        self._basis = basis
        self._vectors = None

    @property
    def vectors(self) -> np.ndarray:
        if self._vectors is None:
            vectors = self._basis()
            vectors.flags.writeable = False
            self._vectors, self._basis = vectors, None
        return self._vectors

    def __iter__(self):
        yield self.values
        yield self.vectors

    def __repr__(self):
        return f"HermEig(values={self.values!r}, vectors={self.vectors!r})"


class UnitaryPhases(NamedTuple):
    """Principal-branch eigenphases of a unitary; phases ascending in [-pi, pi)."""

    phases: np.ndarray   # (d,) real
    vectors: np.ndarray  # (d, d) complex, orthonormal columns


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


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
    return float(np.linalg.norm(dagger(u) @ u - np.eye(u.shape[0]), "fro"))


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
        if nrm > BLOCK_BASIS_NORM_MIN:
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


def entry_scale(m: np.ndarray) -> float:
    """max(1, largest |m_ij|): the scale of m's hermiticity and degeneracy
    tolerances."""
    return max(float(np.abs(m).max()), 1.0) if m.size else 1.0


def check_hermitian(m: np.ndarray) -> float:
    """entry_scale(m) of a square m, after refusing (NotHermitian) a
    non-finite entry or a max-entry hermiticity defect above HERMITICITY
    times that scale."""
    if not np.isfinite(m).all():
        raise NotHermitian("hermitian matrix has a non-finite entry")
    scale = entry_scale(m)
    if hermiticity_defect(m) > HERMITICITY * scale:
        raise NotHermitian(f"hermiticity defect {hermiticity_defect(m):.3e} "
                           f"exceeds {HERMITICITY * scale:.3e}")
    return scale


def hermitian_eig(m, *, scale: float | None = None) -> HermEig:
    """Eigendecomposition of a Hermitian matrix, ascending, canonical basis.

    Raises what check_hermitian raises for m, and ParamOutOfRange if its
    spectral width overflows to infinity. ``scale`` is for callers that have
    already checked m and made it exactly Hermitian (hermitian_part): it is
    the entry_scale of the matrix they checked, which sets the degeneracy
    cutoff of the canonical basis, and the checks and the symmetrization
    are skipped (symmetrizing such an m would not change it). The values are
    read-only; the canonical basis is formed when the result's vectors are
    first read.
    """
    m = as_square(m)
    if scale is None:
        scale = check_hermitian(m)
        m = hermitian_part(m)
    values, vectors = np.linalg.eigh(m)
    # Python floats: the width overflows to inf without a warning
    if values.size and not math.isfinite(float(values[-1]) - float(values[0])):
        raise ParamOutOfRange(f"spectral width {values[-1]:.6g} - ({values[0]:.6g}) "
                              f"is not a finite number")
    values.flags.writeable = False
    return HermEig(values, lambda: _canonicalize(values, np.asarray(vectors, dtype=complex),
                                                 scale))


def hermitian_eigvals(m) -> np.ndarray:
    """Ascending eigenvalues of a stack m[..., d, d] of Hermitian matrices.

    Row k is bit-equal to hermitian_eig(m[k]).values: a batched eigh gives the
    same bits as one call per matrix (eigvalsh, another LAPACK path, does not).
    No hermiticity check: callers build the stack Hermitian.
    """
    return np.linalg.eigh(hermitian_part(np.asarray(m, dtype=complex)))[0]


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """The Hermitian part m / 2 + (m / 2)^dag of m[..., d, d], halved first so
    that the sum of entries near the float maximum does not overflow. Halving
    is exact in the normal range, so there it has the bits of (m + m^dag) / 2."""
    half = 0.5 * m
    return half + np.conj(np.swapaxes(half, -1, -2))


def _unitary_eigenvectors(u: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors of a unitary u, also for degenerate phases.

    u times a phase, v, has the middle of the widest gap between u's
    eigenphases at -1, so I + v is well conditioned (its smallest singular
    value is at least 2 sin(pi / 2d)). The Cayley transform
    i (I - v)(I + v)^-1 is then Hermitian, with eigenvalue tan(phi / 2) for
    each eigenphase phi of v, and eigh gives its eigenvectors orthonormal.
    """
    d = u.shape[0]
    theta = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.diff(theta, append=theta[0] + 2 * np.pi)
    k = int(gaps.argmax())
    v = u * np.exp(1j * (np.pi - theta[k] - 0.5 * gaps[k]))
    eye = np.eye(d)
    a = 1j * np.linalg.solve(eye + v, eye - v)
    return np.linalg.eigh(0.5 * (a + dagger(a)))[1]


def principal_log_unitary(u):
    """Hermitian chi with u = exp(i chi), eigenphases on the principal branch.

    Returns ``(chi, UnitaryPhases)`` with phases in [-pi, pi), ascending.
    Raises NotUnitary if u has a non-finite entry or its unitarity defect
    exceeds UNITARITY.
    Warns with BranchAmbiguity when a phase sits within BRANCH_CUT
    of the -pi cut, where the branch choice is numerically unstable.
    """
    u = as_square(u, "unitary")
    if not np.isfinite(u).all():
        raise NotUnitary("unitary has a non-finite entry")
    if unitarity_defect(u) > UNITARITY:
        raise NotUnitary(f"unitarity defect {unitarity_defect(u):.3e} "
                         f"exceeds {UNITARITY:.3e}")
    vectors = _unitary_eigenvectors(u)
    # Rayleigh quotients v^dag u v: the eigenvalues, to rounding, of the basis
    phases = np.angle((vectors.conj() * (u @ vectors)).sum(axis=0))
    phases = np.where(phases >= np.pi, phases - 2 * np.pi, phases)  # [-pi, pi)
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vectors = vectors[:, order]
    if np.any(np.abs(phases + np.pi) < BRANCH_CUT):
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


def time_first(a: np.ndarray) -> np.ndarray:
    """(..., n) time-innermost stack as an (n, ...) view (np.moveaxis's, cheaper)."""
    return a.transpose(a.ndim - 1, *range(a.ndim - 1))


def time_last(a: np.ndarray) -> np.ndarray:
    """(n, ...) stack as a time-innermost (..., n) view."""
    return a.transpose(*range(1, a.ndim), 0)


def matmul_t(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i, j, ...] = sum_k a[i, k, ...] b[k, j, ...] over time-innermost stacks.

    a and b are (d, d, ...) arrays whose trailing axes broadcast; every
    product is d multiply-adds over whole stacks, all rows at once, instead
    of one small matmul per stack element. out has the broadcast shape and
    must not overlap a or b. The d - 1 terms after the first share one
    scratch stack: a fresh one per term is up to 1.15 times slower at d = 4
    on 4096-step grids. np.multiply, not the operator, for the reason given
    at drives.eigenphases_from_trace_det.
    """
    term = np.empty(out.shape, dtype=complex)
    np.multiply(a[:, 0, None], b[None, 0], out=out)
    for k in range(1, a.shape[1]):
        out += np.multiply(a[:, k, None], b[None, k], out=term)
    return out


def _expm_taylor(a: np.ndarray) -> np.ndarray:
    """exp(a) over a time-innermost stack a[d, d, n], scaled and squared Taylor.

    One degree m and squaring count s serve the whole stack: s halves the
    largest 1-norm theta until it is at most _TAYLOR_THETA[-1], and m is the
    least degree whose tail bound at theta / 2^s is below the unit roundoff.
    The series is summed by Horner's rule, each step one out-of-place
    product by a from the right, and squared s times; both alternate between
    two fresh stacks, and the last one written is returned. Each identity
    term is added through a view of the written stack's diagonal, made once
    per stack. a is scaled in place.
    """
    d = a.shape[0]
    col, absval = np.empty((2,) + a.shape[1:])
    np.abs(a[0], out=col)     # column 1-norms, summed over rows in order
    for i in range(1, d):
        col += np.abs(a[i], out=absval)
    theta = float(col.max(initial=0.0))
    s = max(0, math.ceil(math.log2(theta / _TAYLOR_THETA[-1]))) if 0.0 < theta < math.inf else 0
    if s:
        a *= 0.5**s
    m = bisect.bisect_left(_TAYLOR_THETA, theta * 0.5**s) + 1
    acc, spare = np.multiply(a, 1.0 / math.factorial(m)), np.empty(a.shape, dtype=complex)
    # the (i, i) rows of each stack, as views
    acc_diag, spare_diag = (x.reshape(d * d, -1, copy=False)[::d + 1] for x in (acc, spare))
    acc_diag += 1.0 / math.factorial(m - 1)
    for k in range(m - 2, -1, -1):
        acc, spare = matmul_t(acc, a, spare), acc
        acc_diag, spare_diag = spare_diag, acc_diag
        acc_diag += 1.0 / math.factorial(k)
    for _ in range(s):
        acc, spare = matmul_t(acc, acc, spare), acc
    return acc


def herm_expi_batch(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) over a stack of Hermitian matrices h[..., d, d], one step dt.

    No hermiticity check (hot path); callers guarantee Hermitian input. The
    stack is laid out time-innermost, (d, d, n), and exponentiated by one
    scaled-and-squared Taylor kernel for every d. The result is a fresh
    array, handed out as a (..., d, d) view of a time-innermost one.
    """
    h = np.asarray(h, dtype=complex)
    d, k = h.shape[-1], h.ndim - 2
    a = np.empty((d, d) + h.shape[:-2], dtype=complex)
    np.multiply(h.transpose(k, k + 1, *range(k)), -1j * dt, out=a)
    p = _expm_taylor(a.reshape(d, d, -1)).reshape(a.shape)
    return p.transpose(*range(2, k + 2), 0, 1)


def polar_project(u: np.ndarray):
    """Nearest unitaries in Frobenius norm over a stack u[..., d, d], and the drift.

    Polar factors via one batched SVD. The drift is the largest
    ||u^dag u - 1||_F = ||s^2 - 1|| over the stack. Refuses a matrix farther
    than UNITARY_DEFECT_MAX from the unitary manifold (||s - 1||):
    that is an integration bug, not drift to be papered over.
    """
    p, s, qh = np.linalg.svd(u)
    dist = float(np.linalg.norm(s - 1.0, axis=-1).max(initial=0.0))
    if dist > UNITARY_DEFECT_MAX:
        raise TooFarFromUnitary(f"distance to unitary manifold {dist:.3e} "
                                f"exceeds {UNITARY_DEFECT_MAX}")
    drift = float(np.linalg.norm(s * s - 1.0, axis=-1).max(initial=0.0))
    return p @ qh, drift


REUNITARIZE_EVERY = 64   # steps per block of ordered_products
# _block_products scans stacks of at most SCAN_MAX_BLOCKS[d] blocks (indexed
# by d, the last entry for larger d): the measured crossover of the scan.
SCAN_MAX_BLOCKS = (0, 0, 48, 20, 12, 8, 6)


def _block_products(steps: np.ndarray, width: int) -> np.ndarray:
    """Running products steps[..., j] ... steps[..., 0] inside every block of
    steps[d, d, nb, m] (the identity from position width on); steps is
    overwritten, and may be the stack returned. Few blocks take a
    Hillis-Steele scan (CACM 29, 1170 (1986)): pass s = 1, 2, ..., 32
    multiplies each position j >= s by position j - s, 6 broadcast products
    instead of 63 at 5 times the arithmetic, alternating between steps and
    one fresh stack. More blocks go one position at a time into a fresh stack.
    """
    d, nb = steps.shape[0], steps.shape[2]
    if nb <= SCAN_MAX_BLOCKS[min(d, len(SCAN_MAX_BLOCKS) - 1)]:
        src, dst = steps, np.empty(steps.shape, dtype=complex)
        for s in [2**k for k in range((width - 1).bit_length())]:
            matmul_t(src[..., s:], src[..., :-s], dst[..., s:])
            dst[..., :s] = src[..., :s]
            src, dst = dst, src
        return src
    # contiguous scratch: strided output in all 2d - 1 passes is slower
    run = np.empty(steps.shape, dtype=complex)
    run[..., 0] = steps[..., 0]
    prod = np.empty((d, d, nb), dtype=complex)
    for j in range(1, width):
        run[..., j] = matmul_t(steps[..., j], run[..., j - 1], prod)
    return run


def ordered_products(steps: np.ndarray):
    """Running products steps[k-1] ... steps[0] for k = 0..n, and the drift.

    steps is a time-innermost (d, d, n) stack, overwritten if contiguous,
    cut into blocks of REUNITARIZE_EVERY, a partial last block padded with
    the identity. The products inside every block are formed side by side
    (_block_products). The block totals are chained in order and the chained
    totals projected onto the unitaries in one batched SVD; drift is the
    worst defect ||s^2 - 1|| before that projection. Each block's running
    products are then multiplied by the projected total of the blocks before
    it (its head) into a fresh (d, d, nb m + 1) sample array that starts
    with the identity, and every 64th sample and the last one are the
    projected totals themselves, unitary to rounding. Returns the samples as
    an (n + 1, d, d) view.
    """
    d, n = steps.shape[0], steps.shape[-1]
    m = REUNITARIZE_EVERY
    nb = -(-n // m)
    eye = np.eye(d)[..., None]
    if n % m:
        steps = np.concatenate((steps, np.broadcast_to(eye, (d, d, nb * m - n))), axis=-1)
    run = _block_products(steps.reshape(d, d, nb, m), min(m, n))
    last = np.minimum(np.arange(1, nb + 1) * m, n)   # sample index of each block's end
    ends = np.ascontiguousarray(time_first(run.reshape(d, d, -1)[..., last - 1]))
    for b in range(1, nb):
        ends[b] = ends[b] @ ends[b - 1]
    ends, drift = polar_project(ends)
    samples = np.empty((d, d, nb * m + 1), dtype=complex)
    samples[..., :1] = eye
    blocks = samples[..., 1:].reshape(d, d, nb, m, copy=False)
    blocks[:, :, 0] = run[:, :, 0]
    matmul_t(run[:, :, 1:], time_last(ends[:-1])[..., None], blocks[:, :, 1:])
    samples[..., last] = time_last(ends)
    return time_first(samples[..., :n + 1]), drift


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b."""
    diff = 0.5 * ((a - b) + dagger(a - b))
    vals = np.linalg.eigvalsh(diff)
    return 0.5 * float(np.abs(vals).sum())
