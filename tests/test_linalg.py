"""Dense linear-algebra kernels against independent oracles."""

import numpy as np
import pytest

from ergodrive import linalg
from ergodrive.errors import (BranchAmbiguity, NotHermitian, NotUnitary,
                              TooFarFromUnitary, ValidationError)
from helpers import herm_expi, random_hermitian, random_unitary


def expm_taylor(a, terms=40, squarings=12):
    """Scaling-and-squaring Taylor series; oracle independent of eigh."""
    a = a / 2.0**squarings
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def test_herm_expi_matches_taylor_series():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4, 6):
        for scale in (0.1, 1.0, 5.0):
            h = random_hermitian(rng, d, scale)
            dt = rng.uniform(0.1, 2.0)
            got = herm_expi(h, dt)
            want = expm_taylor(-1j * h * dt)
            assert np.abs(got - want).max() < 1e-10


def test_herm_expi_batch_matches_single():
    rng = np.random.default_rng(2)
    for d in (2, 3, 5):
        hs = np.stack([random_hermitian(rng, d) for _ in range(7)])
        dt = 0.37
        batch = linalg.herm_expi_batch(hs, dt)
        for k in range(7):
            assert np.abs(batch[k] - herm_expi(hs[k], dt)).max() < 1e-12


def test_herm_expi_batch_broadcast_dt():
    rng = np.random.default_rng(3)
    hs = np.stack([random_hermitian(rng, 2) for _ in range(4)])
    dts = np.array([0.1, 0.2, 0.3, 0.4])
    batch = linalg.herm_expi_batch(hs, dts)
    for k in range(4):
        assert np.abs(batch[k] - herm_expi(hs[k], dts[k])).max() < 1e-12


def test_herm_expi_batch_small_norm_limit():
    # the d = 2 closed form must not divide by a vanishing Bloch norm
    h = np.zeros((1, 2, 2), dtype=complex)
    out = linalg.herm_expi_batch(h, 0.5)
    assert np.abs(out[0] - np.eye(2)).max() < 1e-15
    h[0, 0, 1] = h[0, 1, 0] = 1e-300
    out = linalg.herm_expi_batch(h, 0.5)
    assert np.isfinite(out).all()


def test_hermitian_eig_ascending_orthonormal_reconstructs():
    rng = np.random.default_rng(4)
    for d in (2, 3, 5):
        h = random_hermitian(rng, d)
        vals, vecs = linalg.hermitian_eig(h)
        assert np.all(np.diff(vals) >= 0)
        assert np.abs(vecs.conj().T @ vecs - np.eye(d)).max() < 1e-12
        assert np.abs((vecs * vals) @ vecs.conj().T - h).max() < 1e-12


def test_hermitian_eig_deterministic_and_degenerate():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 4)
    a = linalg.hermitian_eig(h)
    b = linalg.hermitian_eig(h.copy())
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)
    # identity: fully degenerate spectrum, canonical basis is the identity
    vals, vecs = linalg.hermitian_eig(np.eye(3, dtype=complex))
    assert np.allclose(vals, 1.0)
    assert np.abs(vecs - np.eye(3)).max() < 1e-12


def fix_column_phases_loop(v):
    """Column-by-column reference for linalg._fix_column_phases."""
    v = v.copy()
    for n in range(v.shape[1]):
        z = v[int(np.argmax(np.abs(v[:, n]))), n]
        v[:, n] *= np.conj(z) / abs(z)
    return v


def test_column_phase_fix_matches_the_loop_bit_for_bit():
    rng = np.random.default_rng(6)
    for d in (1, 2, 3, 5, 8):
        for _ in range(50):
            v = random_unitary(rng, d)
            got = linalg._fix_column_phases(v)
            assert got.tobytes() == fix_column_phases_loop(v).tobytes()
            peak = got[np.abs(got).argmax(axis=0), np.arange(d)]
            assert np.abs(peak.imag).max() < 1e-15 and np.all(peak.real > 0.0)


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_principal_log_round_trip_and_branch():
    rng = np.random.default_rng(6)
    for d in (2, 3, 5):
        u = random_unitary(rng, d)
        chi, modes = linalg.principal_log_unitary(u)
        assert np.abs(chi - chi.conj().T).max() < 1e-12
        assert np.all(modes.phases >= -np.pi) and np.all(modes.phases < np.pi)
        assert np.all(np.diff(modes.phases) >= 0)
        back = herm_expi(chi, -1.0)  # exp(i chi)
        assert np.abs(back - u).max() < 1e-11


def test_principal_log_warns_on_branch_cut():
    with pytest.warns(BranchAmbiguity):
        linalg.principal_log_unitary(np.diag([-1.0, 1.0]).astype(complex))


def test_principal_log_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        linalg.principal_log_unitary(np.diag([2.0, 1.0]).astype(complex))


def test_reunitarize_projects_and_refuses():
    rng = np.random.default_rng(7)
    u = random_unitary(rng, 3)
    drifted = u + 1e-6 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    fixed = linalg.reunitarize(drifted)
    assert linalg.unitarity_defect(fixed) < 1e-13
    assert np.abs(fixed - u).max() < 1e-5
    with pytest.raises(TooFarFromUnitary):
        linalg.reunitarize(3.0 * u)


def test_trace_distance_values():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sig = np.diag([0.0, 1.0]).astype(complex)
    assert abs(linalg.trace_distance(rho, sig) - 1.0) < 1e-15
    assert linalg.trace_distance(rho, rho) == 0.0
    a = np.diag([0.7, 0.3]).astype(complex)
    b = np.diag([0.4, 0.6]).astype(complex)
    assert abs(linalg.trace_distance(a, b) - 0.3) < 1e-15


def test_defects_and_square_check():
    assert linalg.hermiticity_defect(np.eye(2)) == 0.0
    assert linalg.unitarity_defect(np.eye(3)) < 1e-15
    with pytest.raises(ValidationError):
        linalg.as_square(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        linalg.as_square(np.zeros(4))
