"""Random problem instances and oracles shared across the test modules."""

import numpy as np

from ergodrive import DensityMatrix, HamiltonianOp, hermitian_eig


def random_unitary(rng, d):
    """Haar-distributed unitary via QR with phase-fixed diagonal."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_hermitian(rng, d, scale=1.0):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (z + z.conj().T)


def random_density(rng, d):
    """Full-rank density matrix from a complex Wishart draw."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = z @ z.conj().T + 1e-6 * np.eye(d)
    return DensityMatrix(m / np.trace(m).real)


def random_instance(rng, d, scale=1.0):
    """One (rho_i, h_i, h_f) problem instance."""
    return (random_density(rng, d),
            HamiltonianOp(random_hermitian(rng, d, scale)),
            HamiltonianOp(random_hermitian(rng, d, scale)))


def random_probs(rng, d):
    p = rng.exponential(size=d)
    return p / p.sum()


def herm_expi(h, dt=1.0):
    """exp(-i h dt) for Hermitian h, via the spectral decomposition."""
    eig = hermitian_eig(h)
    return (eig.vectors * np.exp(-1j * eig.values * dt)) @ eig.vectors.conj().T
