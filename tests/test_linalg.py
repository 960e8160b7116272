"""Dense linear-algebra kernels against independent oracles."""

import math
import warnings

import numpy as np
import pytest

from ergodrive import linalg
from ergodrive.errors import (BranchAmbiguity, NotHermitian, NotUnitary, ParamOutOfRange,
                              TooFarFromUnitary, ValidationError)
from ergodrive.tolerances import DEGENERATE_ULPS
from helpers import (herm_expi, pauli_expi, principal_log_oracle, random_hermitian,
                     random_unitary)


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


def test_herm_expi_batch_small_norm_limit():
    # a vanishing norm must give the identity, a denormal-scale one stay finite
    h = np.zeros((1, 2, 2), dtype=complex)
    out = linalg.herm_expi_batch(h, 0.5)
    assert np.abs(out[0] - np.eye(2)).max() < 1e-15
    h[0, 0, 1] = h[0, 1, 0] = 1e-300
    out = linalg.herm_expi_batch(h, 0.5)
    assert np.isfinite(out).all()


def test_taylor_degree_table_meets_its_remainder_bound():
    # the tail of exp beyond degree m at 1-norm theta is at most
    # theta^(m+1)/(m+1)! / (1 - theta/(m+2)); the table keeps it below 2^-53
    thetas = linalg._TAYLOR_THETA
    assert np.all(np.diff(thetas) > 0)
    for m, theta in enumerate(thetas, start=1):
        assert theta**(m + 1) / math.factorial(m + 1) / (1 - theta / (m + 2)) <= 2.0**-53


def _unit_one_norm_stack(rng, d, k):
    hs = np.stack([random_hermitian(rng, d) for _ in range(k)])
    return hs / np.abs(hs).sum(axis=-2).max(axis=-1)[:, None, None]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_herm_expi_batch_matches_oracles_from_zero_to_squaring_norms(d):
    # ||h dt||_1 = dt here; from 0.34 on the kernel scales and squares
    rng = np.random.default_rng([70, d])
    for norm in (0.0, 1e-8, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 5.0, 50.0, 120.0):
        hs = _unit_one_norm_stack(rng, d, 8)
        got = linalg.herm_expi_batch(hs, norm)
        assert got.shape == hs.shape
        bound = 1e-14 * max(1.0, norm)
        for k in range(len(hs)):
            assert np.abs(got[k] - herm_expi(hs[k], norm)).max() <= bound
        if d == 2:
            assert np.abs(got - pauli_expi(hs, norm)).max() <= bound


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_herm_expi_batch_is_unitary_to_rounding_at_step_norms(d):
    rng = np.random.default_rng([71, d])
    for norm in (1e-6, 1e-4, 1e-3, 1e-2):
        for u in linalg.herm_expi_batch(_unit_one_norm_stack(rng, d, 64), norm):
            assert linalg.unitarity_defect(u) <= 1e-14


@pytest.mark.parametrize("d", [3, 5])
def test_herm_expi_batch_zero_and_denormal_scale_inputs(d):
    h = np.zeros((2, d, d), dtype=complex)
    assert np.array_equal(linalg.herm_expi_batch(h, 0.5), np.broadcast_to(np.eye(d), h.shape))
    h[1, 0, d - 1] = h[1, d - 1, 0] = 1e-300
    out = linalg.herm_expi_batch(h, 0.5)
    assert np.isfinite(out).all()
    assert np.abs(out - np.eye(d)).max() <= 1e-300


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_matmul_t_forms_give_the_same_bits(d):
    # all rows at once at every stack length, on plain stacks, 4-d stacks and
    # a broadcast right factor; a long stack multiplied whole gives the bits
    # of its 64-matrix slices multiplied one at a time
    rng = np.random.default_rng([75, d])
    for shape in ((5,), (1024,), (1025,), (4096,), (3, 64)):
        a, b = (rng.normal(size=(d, d) + shape) + 1j * rng.normal(size=(d, d) + shape)
                for _ in range(2))
        for right in (b, b[..., :1]):
            got = linalg.matmul_t(a, right, np.empty(a.shape, dtype=complex))
            assert np.abs(got - np.einsum("ik...,kj...->ij...", a, right)).max() < 1e-13
            if shape == (4096,):
                for i in range(0, 4096, 64):
                    cut = slice(i, i + 64) if right.shape[-1] > 1 else slice(None)
                    piece = linalg.matmul_t(a[..., i:i + 64], right[..., cut],
                                            np.empty((d, d, 64), dtype=complex))
                    assert np.array_equal(piece, got[..., i:i + 64])


def test_herm_expi_batch_runs_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("herm_expi_batch called an eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    rng = np.random.default_rng(73)
    for d in (2, 3, 4):
        linalg.herm_expi_batch(np.stack([random_hermitian(rng, d) for _ in range(3)]), 0.7)


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


def test_near_degenerate_blocks_keep_every_eigen_residual_at_roundoff():
    # values 1e-11 apart were once one block, re-based so that 0 got the
    # vector of 1e-11: a residual of 1e-11
    ulp = np.finfo(float).eps
    m = np.diag([1 - 1e-11, 1e-11, 0.0]).astype(complex)
    vals, vecs = linalg.hermitian_eig(m)
    assert np.linalg.norm(m @ vecs - vecs * vals, axis=0).max() <= ulp
    rng = np.random.default_rng(8)
    for width in (0.0, 1e-16, 1e-15, 1e-13, 1e-11, 1e-9):
        for d, scale in ((2, 1.0), (3, 30.0), (5, 1.0)):
            vals = np.sort(rng.uniform(-1.0, 1.0, d)) * scale
            vals[1] = vals[0] + width * scale
            u = random_unitary(rng, d)
            m = (u * vals) @ u.conj().T
            got, vecs = linalg.hermitian_eig(m)
            bound = 2 * DEGENERATE_ULPS * ulp * max(np.abs(m).max(), 1.0)
            assert np.linalg.norm(m @ vecs - vecs * got, axis=0).max() <= bound
            w = (u * np.exp(2j * vals / scale)) @ u.conj().T
            _, modes = linalg.principal_log_unitary(w)
            resid = w @ modes.vectors - modes.vectors * np.exp(1j * modes.phases)
            assert np.linalg.norm(resid, axis=0).max() <= 2 * DEGENERATE_ULPS * ulp
    # a block of bit-equal values keeps the canonical basis
    vals, vecs = linalg.hermitian_eig(np.diag([0.3, 0.4, 0.3]).astype(complex))
    assert vals[0] == vals[1] and np.array_equal(vecs, np.eye(3)[:, [0, 2, 1]])


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
    # a non-finite entry, in the real or the imaginary part, kept Hermitian
    for bad in (np.nan, np.inf, -np.inf):
        for i, j, z in ((0, 0, bad), (0, 1, bad), (1, 1, bad), (0, 1, complex(1.0, bad))):
            m = np.array([[0.0, 1.0], [1.0, 2.0]], dtype=complex)
            m[i, j], m[j, i] = z, np.conj(z)
            with pytest.raises(NotHermitian, match="non-finite"):
                linalg.hermitian_eig(m)


def _eager_basis(m):
    """hermitian_eig's canonical basis, formed at once from the same eigh."""
    m = np.asarray(m, dtype=complex)
    values, vectors = np.linalg.eigh(linalg.hermitian_part(m))
    return linalg._canonicalize(values, vectors, max(float(np.abs(m).max()), 1.0))


def test_lazy_vectors_are_the_eager_basis_read_only_and_formed_once(monkeypatch):
    rng = np.random.default_rng(9)
    for m in (random_hermitian(rng, 4), np.diag([0.3, 0.4, 0.3]), np.eye(3)):
        want = _eager_basis(m).tobytes()
        formed = []
        canonicalize = linalg._canonicalize
        monkeypatch.setattr(linalg, "_canonicalize",
                            lambda *a: formed.append(1) or canonicalize(*a))
        eig = linalg.hermitian_eig(m)
        assert formed == []   # values alone: no basis yet
        first = eig.vectors
        assert first.tobytes() == want
        values, vectors = eig
        assert values is eig.values and vectors is first and eig.vectors is first
        assert formed == [1]
        for a in (eig.values, first):
            with pytest.raises(ValueError):
                a[0] = 0.0
        monkeypatch.undo()


def test_hermitian_part_keeps_the_bits_of_the_plain_sum_in_the_normal_range():
    rng = np.random.default_rng(10)
    for d in (1, 2, 5):
        m = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        want = 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))
        assert linalg.hermitian_part(m).tobytes() == want.tobytes()


def test_hermitian_eig_refuses_a_width_that_overflows():
    # finite entries near the float maximum: the symmetrization halves before
    # it adds, so it does not overflow, and a spectral width beyond the float
    # range is refused before the degenerate-block scan subtracts the values
    huge = np.diag([1e308, -1e308]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert linalg.hermitian_eigvals(huge).tolist() == [-1e308, 1e308]
        with pytest.raises(ParamOutOfRange, match="spectral width 1e[+]308 - [(]-1e[+]308[)]"):
            linalg.hermitian_eig(huge)
        # a width just below the float maximum is still a spectrum
        assert linalg.hermitian_eig(np.diag([0.9e308, -0.8e308])).values.tolist() == [-0.8e308,
                                                                                    0.9e308]


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


def log_cases(seed, d, per_kind=40):
    """(kind, u) unitaries of dimension d: Haar, exactly degenerate and
    near-degenerate phases, a phase near +-pi, and +-identity."""
    rng = np.random.default_rng([seed, d])
    for kind in ("haar", "degenerate", "near-degenerate", "near the cut"):
        for _ in range(per_kind):
            q = random_unitary(rng, d)
            if kind == "haar":
                yield kind, q
                continue
            phases = rng.uniform(-np.pi, np.pi, d)
            if kind == "degenerate":
                phases = rng.choice(phases[:2], d)
            elif kind == "near-degenerate":
                gap = rng.choice([1e-9, 1e-11, 1e-13, 1e-15, 3e-16])
                phases = phases[0] + gap * rng.integers(0, 2, d)
            else:
                phases[0] = rng.choice([-1.0, 1.0]) * (np.pi - 10.0 ** rng.uniform(-14.0, -6.0))
            yield kind, (q * np.exp(1j * phases)) @ q.conj().T
    for sign in (1.0, -1.0):
        yield "identity", sign * np.eye(d, dtype=complex)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_principal_log_matches_the_schur_oracle(d):
    eps = np.finfo(float).eps
    for kind, u in log_cases(11, d):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BranchAmbiguity)
            chi, modes = linalg.principal_log_unitary(u)
            chi_oracle, phases_oracle = principal_log_oracle(u)
        vecs = modes.vectors
        assert np.abs(vecs.conj().T @ vecs - np.eye(d)).max() <= 20 * eps, kind
        assert np.abs(herm_expi(chi, -1.0) - u).max() <= 64 * eps, kind
        assert np.all(np.diff(modes.phases) >= 0), kind
        if np.abs(np.abs(phases_oracle) - np.pi).min() > 1e-5:
            assert np.abs(modes.phases - phases_oracle).max() <= 8 * eps, kind
            assert np.abs(chi - chi_oracle).max() <= 128 * eps, kind
        else:   # the same phases up to 2 pi: a phase at the cut may wrap either way
            wrapped = np.angle(np.exp(1j * (modes.phases[:, None] - phases_oracle)))
            assert np.abs(wrapped).min(axis=1).max() <= 8 * eps, kind
            assert np.abs(wrapped).min(axis=0).max() <= 8 * eps, kind


def test_principal_log_warns_on_branch_cut():
    with pytest.warns(BranchAmbiguity):
        linalg.principal_log_unitary(np.diag([-1.0, 1.0]).astype(complex))


def test_principal_log_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        linalg.principal_log_unitary(np.diag([2.0, 1.0]).astype(complex))
    for bad in (np.nan, np.inf, -np.inf):
        for i, j, z in ((0, 0, bad), (0, 1, bad), (1, 1, complex(0.0, bad))):
            u = np.eye(2, dtype=complex)
            u[i, j] = z
            with pytest.raises(NotUnitary, match="non-finite"):
                linalg.principal_log_unitary(u)


def test_reunitarize_projects_and_refuses():
    rng = np.random.default_rng(7)
    u = random_unitary(rng, 3)
    drifted = u + 1e-6 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    fixed = linalg.polar_project(drifted)[0]
    assert linalg.unitarity_defect(fixed) < 1e-13
    assert np.abs(fixed - u).max() < 1e-5
    with pytest.raises(TooFarFromUnitary):
        linalg.polar_project(3.0 * u)


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
