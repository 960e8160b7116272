"""States, passivity, entropies, and thermal solvers."""

import itertools
import warnings

import numpy as np
import pytest

from ergodrive import (DensityMatrix, HamiltonianOp, states,
                       energy_populations, majorizes, matrix_from_json,
                       matrix_to_json, passive_energy, passive_state,
                       solve_beta_for_energy,
                       solve_beta_for_entropy, thermal_populations,
                       von_neumann_entropy)
from ergodrive.errors import (DimMismatch, EnergyOutOfRange, EntropyOutOfRange,
                              LengthMismatch, NotAState, NotHermitian)
from helpers import (coherence_rel_entropy, dephase, near_pure_state, random_density,
                     random_hermitian, random_instance, random_probs, relative_entropy,
                     thermal_state)


def test_density_matrix_validation():
    with pytest.raises(NotAState):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))       # not Hermitian
    with pytest.raises(NotAState):
        DensityMatrix(np.diag([0.7, 0.7]))                       # trace 1.4
    with pytest.raises(NotAState):
        DensityMatrix(np.diag([1.2, -0.2]))                      # negative eigenvalue
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    assert rho.dim == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan, 1j * np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
def test_non_finite_entries_are_refused_before_any_arithmetic(bad, entry):
    m = np.diag([0.3, 0.7]).astype(complex)
    m[entry] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotAState, match="non-finite"):
            DensityMatrix(m)
        with pytest.raises(NotHermitian, match="non-finite"):
            HamiltonianOp(m)


def test_populations_desc_sorted():
    rho = DensityMatrix(np.diag([0.25, 0.5, 0.25]))
    assert np.array_equal(rho.populations_desc(), [0.5, 0.25, 0.25])


def test_clamped_spectrum_matches_argsort_indexing_bit_for_bit():
    rng = np.random.default_rng(4)
    levels = [0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, -3e-16, 0.25, 0.5, 1.0]
    spectra = np.sort(rng.choice(levels, size=(400, 4)), axis=-1)
    clamped, desc = states._clamped_spectrum(spectra)
    for row, c, got in zip(spectra, clamped, desc):
        want = np.clip(row, 0.0, None)
        assert c.tobytes() == want.tobytes()
        assert got.tobytes() == want[np.argsort(-want, kind="stable")].tobytes()
        assert states._clamped_spectrum(row)[1].tobytes() == got.tobytes()


def test_hamiltonian_spectrum():
    h = HamiltonianOp(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(h.energies, [-1.0, 1.0])
    assert abs(h.spectral_width - 2.0) < 1e-15
    rho = DensityMatrix(np.eye(2) / 2)
    assert abs(h.energy(rho)) < 1e-15
    with pytest.raises(DimMismatch):
        h.energy(DensityMatrix(np.eye(3) / 3))


def test_entropy_anchors():
    assert abs(von_neumann_entropy(DensityMatrix(np.diag([0.4, 0.6])))
               - 0.6730116670092565) < 1e-14
    assert von_neumann_entropy(DensityMatrix(np.diag([1.0, 0.0]))) == 0.0
    for d in (2, 3, 5):
        rho = DensityMatrix(np.eye(d) / d)
        assert abs(von_neumann_entropy(rho) - np.log(d)) < 1e-12


def test_entropy_unitary_invariant():
    rng = np.random.default_rng(10)
    rho = random_density(rng, 4)
    h = HamiltonianOp(random_hermitian(rng, 4))
    v = h.basis
    rotated = DensityMatrix(v @ rho.mat @ v.conj().T)
    assert abs(von_neumann_entropy(rho) - von_neumann_entropy(rotated)) < 1e-12


def test_relative_entropy_properties():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 3)
    sig = random_density(rng, 3)
    assert relative_entropy(rho, rho) < 1e-12
    assert relative_entropy(rho, sig) > -1e-12
    # commuting diagonal case against the classical formula
    p = np.array([0.2, 0.3, 0.5])
    q = np.array([0.5, 0.25, 0.25])
    got = relative_entropy(DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q)))
    assert abs(got - float(np.sum(p * np.log(p / q)))) < 1e-12


def test_relative_entropy_support_violation_is_inf():
    up = DensityMatrix(np.diag([1.0, 0.0]))
    dn = DensityMatrix(np.diag([0.0, 1.0]))
    assert relative_entropy(up, dn) == np.inf


def test_gibbs_relative_entropy_matches_the_matrix_form():
    rng = np.random.default_rng(16)
    for d in (2, 3, 5):
        h = HamiltonianOp(random_hermitian(rng, d))
        p = np.sort(random_probs(rng, d))[::-1]
        p[-1] = 0.0
        p /= p.sum()
        for beta in (-0.7, 0.0, 1.9):
            want = relative_entropy(passive_state(DensityMatrix(np.diag(p)), h),
                                    thermal_state(h, beta))
            assert abs(states.gibbs_relative_entropy(p, h.energies, beta) - want) < 1e-12
    # Gibbs weights that underflow to 0 leave the log-space form finite
    en = np.array([0.0, 1.0, 2.0])
    p = np.array([0.9, 0.1, 0.0])
    beta = 800.0
    assert thermal_populations(en, beta)[1] == 0.0
    got = states.gibbs_relative_entropy(p, en, beta)
    assert abs(got - (0.9 * np.log(0.9) + 0.1 * (np.log(0.1) + beta))) < 1e-12 * beta


def test_coherence_zero_for_diagonal_log2_for_plus():
    h = HamiltonianOp(np.diag([0.0, 1.0]))
    diag = DensityMatrix(np.diag([0.3, 0.7]))
    assert coherence_rel_entropy(diag, h) < 1e-12
    plus = DensityMatrix(np.full((2, 2), 0.5))
    assert abs(coherence_rel_entropy(plus, h) - np.log(2)) < 1e-12


def test_coherence_matches_the_relative_entropy_oracle():
    rng = np.random.default_rng(17)
    for d in (2, 3, 4, 5):
        for _ in range(100):
            rho, h_i, _ = random_instance(rng, d)
            want = relative_entropy(rho, dephase(rho, h_i))
            assert abs(coherence_rel_entropy(rho, h_i) - want) < 1e-14


@pytest.mark.parametrize("eps", [1e-11, 1e-13])
def test_coherence_of_near_pure_states(eps):
    # the dephased state's support is wider than rho's; C(rho) ~ eps ln(1/eps)
    rho, want = near_pure_state(eps)
    got = coherence_rel_entropy(rho, HamiltonianOp(np.diag([0.0, 1.0, 2.0])))
    assert abs(got - want) <= 1e-3 * want


def test_dephase_keeps_populations_kills_coherences():
    rng = np.random.default_rng(12)
    rho, h_i, _ = random_instance(rng, 4)
    rho_d = dephase(rho, h_i)
    v = h_i.basis
    in_basis = v.conj().T @ rho_d.mat @ v
    off = in_basis - np.diag(np.diagonal(in_basis))
    assert np.abs(off).max() < 1e-12
    assert np.allclose(np.diagonal(in_basis).real, energy_populations(rho, h_i))


def test_passive_state_minimizes_over_permutations():
    rng = np.random.default_rng(13)
    for d in (2, 3, 4):
        for _ in range(20):
            rho, _, h = random_instance(rng, d)
            e = h.energies
            pops = rho.eig().values
            best = min(float(np.asarray(perm) @ e)
                       for perm in itertools.permutations(pops))
            got = passive_energy(rho, h)
            assert got <= best + 1e-12
            assert abs(got - best) < 1e-10


def test_passive_state_structure():
    rng = np.random.default_rng(14)
    rho, _, h = random_instance(rng, 4)
    pas = passive_state(rho, h)
    v = h.basis
    in_basis = v.conj().T @ pas.mat @ v
    off = in_basis - np.diag(np.diagonal(in_basis))
    assert np.abs(off).max() < 1e-12
    pops = np.diagonal(in_basis).real
    assert np.all(np.diff(pops) <= 1e-12)    # non-increasing on ascending energies
    assert abs(h.energy(pas) - passive_energy(rho, h)) < 1e-12


def test_thermal_populations_and_state():
    en = np.array([0.0, 1.0])
    p = thermal_populations(en, np.log(2.0))
    assert np.allclose(p, [2.0 / 3.0, 1.0 / 3.0])
    h = HamiltonianOp(np.diag(en))
    tau = thermal_state(h, np.log(2.0))
    assert np.abs(tau.mat - np.diag([2.0 / 3.0, 1.0 / 3.0])).max() < 1e-12
    # beta = 0 is flat, large beta concentrates on the ground state
    assert np.allclose(thermal_populations(en, 0.0), [0.5, 0.5])
    assert thermal_populations(en, 1e4)[0] >= 1.0 - 1e-12


def test_solve_beta_for_energy_both_signs():
    h = HamiltonianOp(np.diag([0.0, 1.0]))
    res = solve_beta_for_energy(h, 1.0 / 3.0)
    assert abs(res.beta - np.log(2.0)) < 1e-9
    assert res.residual < 1e-10
    res = solve_beta_for_energy(h, 2.0 / 3.0)
    assert abs(res.beta + np.log(2.0)) < 1e-9
    with pytest.raises(EnergyOutOfRange):
        solve_beta_for_energy(h, 1.5)
    with pytest.raises(EnergyOutOfRange):
        solve_beta_for_energy(h, 0.0)   # boundary is excluded


def test_solve_beta_for_entropy():
    h = HamiltonianOp(np.diag([0.0, 1.0]))
    s_target = np.log(3.0) - (2.0 / 3.0) * np.log(2.0)  # entropy of (2/3, 1/3)
    res = solve_beta_for_entropy(h, s_target)
    assert abs(res.beta - np.log(2.0)) < 1e-9
    # entropy is flat to second order at beta = 0: the root is only sqrt(eps) sharp
    flat = solve_beta_for_entropy(h, np.log(2.0))
    assert flat.beta < 1e-6
    assert flat.residual < 1e-12
    saturated = solve_beta_for_entropy(h, 0.0)                 # below the floor
    assert saturated.beta == 1e4
    with pytest.raises(EntropyOutOfRange):
        solve_beta_for_entropy(h, np.log(2.0) + 1e-6)


def test_majorizes():
    assert majorizes([1.0, 0.0], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [1.0, 0.0])
    assert majorizes([0.4, 0.6], [0.6, 0.4])    # order-insensitive
    with pytest.raises(LengthMismatch):
        majorizes([0.5, 0.5], [1.0, 0.0, 0.0])


def test_matrix_json_round_trip():
    rng = np.random.default_rng(15)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = matrix_from_json(matrix_to_json(m))
    assert np.abs(back - m).max() < 1e-15
    with pytest.raises(DimMismatch):
        matrix_from_json({"dim": 2, "re": [1.0, 2.0, 3.0]})
    with pytest.raises(DimMismatch):
        matrix_from_json({"re": [1.0]})
    # real payload without "im" defaults to a real matrix
    real = matrix_from_json({"dim": 1, "re": [2.5]})
    assert real[0, 0] == 2.5
    # its zeros are formed only after the length check: a huge dim with a
    # short payload is refused without forming dim^2 of them
    with pytest.raises(DimMismatch, match=r"length 1/1000000000000 != dim\^2"):
        matrix_from_json({"dim": 10**6, "re": [1.0]})
