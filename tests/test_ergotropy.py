"""Work-extraction quantities: decomposition, gains, bounds, counterexample."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodrive import (DensityMatrix, HamiltonianOp, counterexample_populations, decompose, delta_noncyclic,
                       full_report, gain_g, majorizes, noncyclic_ergotropy,
                       solve_beta_for_energy, states, thermal_populations, upper_bound_delta)
from ergodrive.errors import (EnergyOutOfRange, EntropyOutOfRange, NegativeBeta, NoConvergence,
                              ParamOutOfRange)
from ergodrive.tolerances import IDENTITY_RESIDUAL, REPORT_ROUNDING_REL
from helpers import (coherent_entropy_identity_residual, dephase, near_pure_state,
                     random_density, random_hermitian, random_instance, random_probs,
                     random_unitary, thermal_state)


def test_pure_excited_qubit_anchor():
    rho = DensityMatrix(np.diag([0.0, 1.0]))
    h = HamiltonianOp(np.diag([0.0, 0.4]))
    assert abs(noncyclic_ergotropy(rho, h, h) - 0.4) < 1e-15
    # passive input extracts nothing in the cyclic case
    ground = DensityMatrix(np.diag([0.9, 0.1]))
    assert abs(noncyclic_ergotropy(ground, h, h)) < 1e-15


def test_decomposition_telescopes_and_is_nonnegative():
    rng = np.random.default_rng(20)
    for d in (2, 3, 4, 5):
        for _ in range(40):
            rho, h_i, h_f = random_instance(rng, d)
            dec = decompose(rho, h_i, h_f)
            total = noncyclic_ergotropy(rho, h_i, h_f)
            assert abs(total - (dec.e_inc + dec.e_pas + dec.e_coh)) < 1e-12
            assert dec.e_inc > -1e-12
            assert dec.e_coh > -1e-12


def test_cyclic_case_has_no_transport_part():
    rng = np.random.default_rng(21)
    rho, h, _ = random_instance(rng, 3)
    dec = decompose(rho, h, h)
    assert abs(dec.e_pas) < 1e-12


def test_incoherent_state_has_no_coherent_part():
    rng = np.random.default_rng(22)
    rho, h_i, h_f = random_instance(rng, 4)
    rho_d = dephase(rho, h_i)
    dec = decompose(rho_d, h_i, h_f)
    assert abs(dec.e_coh) < 1e-12
    assert abs(dec.e_inc) < 1e-10 or dec.e_inc >= 0.0


def test_coherent_entropy_identity():
    rng = np.random.default_rng(23)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        rho, h_i, h_f = random_instance(rng, d)
        for beta in (0.8, 1.7):
            assert coherent_entropy_identity_residual(rho, h_i, h_f, beta) < 1e-9
    with pytest.raises(NegativeBeta):
        coherent_entropy_identity_residual(rho, h_i, h_f, 0.0)


@pytest.mark.parametrize("eps", [1e-11, 1e-13])
def test_coherent_entropy_identity_near_pure_states(eps):
    # rho_D has weight where rho has (almost) none; the identity stays finite
    rho, _ = near_pure_state(eps)
    h_i = HamiltonianOp(np.diag([0.0, 1.0, 2.0]))
    h_f = HamiltonianOp(np.diag([0.0, 0.4, 1.1]))
    for beta in (0.8, 1.7):
        assert coherent_entropy_identity_residual(rho, h_i, h_f, beta) < 1e-9


def test_delta_vanishes_for_thermal_input():
    rng = np.random.default_rng(24)
    _, h_i, h_f = random_instance(rng, 3)
    tau = thermal_state(h_i, 1.3)
    res = delta_noncyclic(tau, h_i, h_f)
    assert abs(res.value) < 1e-10
    assert abs(res.beta - 1.3) < 1e-8
    assert not res.negative_temperature


def test_delta_negative_temperature_flagged():
    h = HamiltonianOp(np.diag([0.0, 1.0]))
    hot = DensityMatrix(np.diag([0.2, 0.8]))   # population inverted
    res = delta_noncyclic(hot, h, h)
    assert res.negative_temperature
    assert res.beta < 0


def test_gain_nonnegative_and_phase_free():
    rng = np.random.default_rng(25)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        rho, h_i, h_f = random_instance(rng, d)
        g = gain_g(rho, h_i, h_f)
        assert g > -1e-12
        # scrambling coherence phases in the h_i eigenbasis leaves G unchanged
        v = h_i.basis
        in_basis = v.conj().T @ rho.mat @ v
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, d))
        scrambled = DensityMatrix(v @ (np.outer(phases, phases.conj()) * in_basis)
                                  @ v.conj().T)
        assert abs(gain_g(scrambled, h_i, h_f) - g) < 1e-12


def test_gain_equals_delta_for_thermal_diagonal_with_coherence():
    rng = np.random.default_rng(26)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        _, h_i, h_f = random_instance(rng, d)
        beta = rng.uniform(0.3, 2.0)
        pth = thermal_populations(h_i.energies, beta)
        i, j = sorted(rng.choice(d, size=2, replace=False))
        m = np.diag(pth).astype(complex)
        c = (rng.uniform(0.05, 0.95) * np.sqrt(pth[i] * pth[j])
             * np.exp(1j * rng.uniform(-np.pi, np.pi)))
        m[i, j] = c
        m[j, i] = np.conj(c)
        v = h_i.basis
        rho = DensityMatrix(v @ m @ v.conj().T)
        g = gain_g(rho, h_i, h_f)
        delta = delta_noncyclic(rho, h_i, h_f).value
        assert abs(g - delta) < 1e-10


def test_majorization_implies_nonnegative_delta():
    rng = np.random.default_rng(27)
    held = 0
    for _ in range(200):
        d = int(rng.integers(2, 6))
        rho, h_i, h_f = random_instance(rng, d)
        res = delta_noncyclic(rho, h_i, h_f)
        pth = thermal_populations(h_i.energies, res.beta)
        if majorizes(rho.populations_desc(), pth):
            held += 1
            assert res.value > -1e-12
    assert held > 50   # the premise must actually fire


def test_upper_bound_dominates_delta():
    rng = np.random.default_rng(28)
    for d in (2, 3):
        for _ in range(50):
            rho, h_i, h_f = random_instance(rng, d)
            delta = delta_noncyclic(rho, h_i, h_f).value
            ub = upper_bound_delta(rho, h_i, h_f)
            scale = max(1.0, h_f.spectral_width)
            assert delta <= ub.value + 1e-10 * scale
            assert ub.delta_s > -1e-12
            assert ub.beta_i > 0
            assert abs(ub.value - ub.entropic_value) < 1e-9 * scale
            if d == 2:
                assert abs(ub.value - delta) < 1e-10   # qubit saturates the bound


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5))
def test_report_has_delta_at_most_bound_and_nonnegative_gain(seed, d):
    # every qubit saturates the bound, so about half of them compute a bound
    # a unit of roundoff below delta before the report's rounding floor
    rho, h_i, h_f = random_instance(np.random.default_rng(seed), d)
    report = full_report(rho, h_i, h_f)
    assert report.gain_g >= 0.0
    if report.delta_e_nc is not None and report.upper_bound is not None:
        assert report.delta_e_nc <= report.upper_bound


def test_upper_bound_rejects_maximally_mixed():
    h = HamiltonianOp(np.diag([0.0, 0.5, 1.0]))
    flat = DensityMatrix(np.eye(3) / 3)
    with pytest.raises(NegativeBeta):
        upper_bound_delta(flat, h, h)


_PSI = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
_H_F = np.diag([0.0, 0.4, 1.1])
LOW_ENTROPY_EDGE = {   # rho_i, h_f; h_i = diag(0, 1, 2)
    "pure_superposition": (np.outer(_PSI, _PSI), _H_F),
    "near_pure_1e-05": (np.diag([1.0 - 1e-5, 1e-5, 0.0]), _H_F),
    "near_pure_1e-11": (np.diag([1.0 - 1e-11, 1e-11, 0.0]), _H_F),
    "low_entropy_clustered_hf": (np.diag([0.82, 0.18, 0.0]), np.diag([0.0, 0.1, 2.3])),
}


@pytest.mark.parametrize("case", sorted(LOW_ENTROPY_EDGE))
def test_low_entropy_edge_has_a_finite_bound(case):
    # the Gibbs weights matching these entropies underflow to 0 on h_f's top
    # levels; the entropic form takes their logs in log space
    mat, hf = LOW_ENTROPY_EDGE[case]
    rho = DensityMatrix(mat)
    h_i = HamiltonianOp(np.diag([0.0, 1.0, 2.0]))
    h_f = HamiltonianOp(hf)
    report = full_report(rho, h_i, h_f)
    assert report.upper_bound is not None and np.isfinite(report.upper_bound)
    scale = max(1.0, h_f.spectral_width)
    assert report.delta_e_nc <= report.upper_bound + 1e-10 * scale
    ub = upper_bound_delta(rho, h_i, h_f)
    assert abs(ub.value - ub.entropic_value) <= IDENTITY_RESIDUAL * scale


@pytest.mark.parametrize("gap", [0.0, 1e-13])
def test_bound_refused_below_the_entropy_floor_of_h_f(gap):
    # a (nearly) doubly degenerate ground level keeps every Gibbs state of
    # h_f above ln 2 > S(rho): no entropy-matched beta_i exists
    rho = DensityMatrix(np.diag([0.9, 0.1, 0.0]))
    h_i = HamiltonianOp(np.diag([0.0, 1.0, 2.0]))
    h_f = HamiltonianOp(np.diag([0.0, gap, 1.0]))
    with pytest.raises(EntropyOutOfRange):
        upper_bound_delta(rho, h_i, h_f)
    report = full_report(rho, h_i, h_f)
    assert report.upper_bound is None
    assert report.delta_e_nc is not None


def test_bound_refuses_a_nan_entropy_residual(monkeypatch):
    rho, h_i, h_f = random_instance(np.random.default_rng(28), 3)
    solve = states.solve_beta_for_entropy
    monkeypatch.setattr(states, "solve_beta_for_entropy",
                        lambda h, s: solve(h, s)._replace(residual=float("nan")))
    with pytest.raises(EntropyOutOfRange):
        upper_bound_delta(rho, h_i, h_f)
    monkeypatch.undo()
    assert upper_bound_delta(rho, h_i, h_f).beta_i > 0


def test_bound_refuses_a_nan_entropic_form(monkeypatch):
    rho, h_i, h_f = random_instance(np.random.default_rng(28), 3)
    monkeypatch.setattr(states, "gibbs_relative_entropy", lambda p, e, beta: float("nan"))
    with pytest.raises(NoConvergence, match="bound forms disagree"):
        upper_bound_delta(rho, h_i, h_f)


def test_counterexample_reproduces_populations_and_sign_change():
    signs = {}
    for e2f in (0.1, 0.3, 0.5, 0.7, 0.85, 0.95):
        ce = counterexample_populations(1.0, 0.9, e2f)
        signs[e2f] = ce.delta_e_nc
    ce = counterexample_populations(1.0, 0.9, 0.5)
    assert np.allclose(ce.p_th, [0.564, 0.229, 0.207], atol=1e-3)
    assert np.allclose(ce.q, [0.565, 0.217, 0.218], atol=1e-3)
    assert abs(ce.q @ ce.energies_i - ce.p_th @ ce.energies_i) < 1e-12
    for e2f in (0.1, 0.3, 0.5, 0.7, 0.85):
        assert signs[e2f] < 0
    assert signs[0.95] > 0
    # against the generic machinery: diag(q) vs diag(p_th) on the same levels
    h_i = HamiltonianOp(np.diag(ce.energies_i))
    h_f = HamiltonianOp(np.diag(ce.energies_f))
    rho = DensityMatrix(np.diag(ce.q))
    assert abs(delta_noncyclic(rho, h_i, h_f).value - ce.delta_e_nc) < 1e-10


def test_counterexample_validation():
    with pytest.raises(ParamOutOfRange):
        counterexample_populations(-1.0, 0.9, 0.5)
    with pytest.raises(ParamOutOfRange):
        counterexample_populations(1.0, 1.5, 0.5)


def test_full_report_fields_and_flags():
    rng = np.random.default_rng(29)
    rho, h_i, h_f = random_instance(rng, 3)
    report = full_report(rho, h_i, h_f).to_json()
    assert set(report) == {"e_nc", "e_inc", "e_pas", "e_coh", "delta_e_nc",
                           "gain_g", "upper_bound", "majorization_holds",
                           "beta_same_energy", "negative_temperature_flag"}
    assert abs(report["e_nc"] - (report["e_inc"] + report["e_pas"] + report["e_coh"])) < 1e-10
    assert report["gain_g"] > -1e-12
    # maximally mixed input: delta = 0 at beta = 0, bound unavailable
    flat = DensityMatrix(np.eye(3) / 3)
    rep = full_report(flat, h_i, h_f).to_json()
    assert abs(rep["delta_e_nc"]) < 1e-10
    assert abs(rep["beta_same_energy"]) < 1e-9
    assert rep["upper_bound"] is None
    assert not rep["negative_temperature_flag"]


H_NULL_I, H_NULL_F = np.diag([0.0, 1.0, 2.0]), np.diag([0.0, 0.4, 1.1])


@pytest.mark.parametrize("rho, h_i", [
    (np.diag([1.0, 0.0, 0.0]), H_NULL_I),          # ground state: beta = +inf
    (np.diag([0.0, 0.0, 1.0]), H_NULL_I),          # top state: beta = -inf
    (np.diag([0.5, 0.3, 0.2]), 0.7 * np.eye(3)),   # flat h_i: every beta matches
])
def test_full_report_without_a_gibbs_match_is_null(rho, h_i):
    # rho's energy has no Gibbs match on h_i: the comparisons that need one
    # are null, and the flags false
    rep = full_report(DensityMatrix(rho), HamiltonianOp(h_i), HamiltonianOp(H_NULL_F)).to_json()
    assert rep["delta_e_nc"] is None and rep["upper_bound"] is None
    assert rep["beta_same_energy"] is None
    assert rep["majorization_holds"] is False and rep["negative_temperature_flag"] is False


def test_full_report_with_a_flat_final_hamiltonian_has_no_bound():
    # entropy does not depend on beta on a flat h_f, so no beta_i matches S(rho_i)
    rho, flat = DensityMatrix(np.diag([0.5, 0.3, 0.2])), HamiltonianOp(0.7 * np.eye(3))
    with pytest.raises(EntropyOutOfRange, match="degenerate spectrum"):
        states.solve_beta_for_entropy(flat, states.von_neumann_entropy(rho))
    rep = full_report(rho, HamiltonianOp(H_NULL_I), flat).to_json()
    assert rep["upper_bound"] is None
    assert rep["delta_e_nc"] is not None and rep["beta_same_energy"] is not None


def _edge_instances(rng, d):
    """A rank-deficient rho, a degenerate rho, a degenerate h_i and the
    maximally mixed rho, each with random Hamiltonians otherwise."""
    h_i, h_f = HamiltonianOp(random_hermitian(rng, d)), HamiltonianOp(random_hermitian(rng, d))
    u = random_unitary(rng, d)

    def state(p):
        return DensityMatrix((u * (p / p.sum())) @ u.conj().T)

    rank_deficient = state(np.append(random_probs(rng, d - 1), 0.0))
    p = random_probs(rng, d)
    p[1] = p[0]
    levels = np.sort(rng.normal(size=d))
    levels[1] = levels[0]
    h_deg = HamiltonianOp((u * levels) @ u.conj().T)
    flat = DensityMatrix(np.eye(d) / d)
    return [(rank_deficient, h_i, h_f), (state(p), h_i, h_f),
            (random_density(rng, d), h_deg, h_f), (flat, h_i, h_f)]


def _bits(v):
    return v if v is None or isinstance(v, (bool, np.bool_)) else float(v).hex()


def test_report_fields_are_their_public_functions_bit_for_bit():
    # full_report forms each shared intermediate once; every field must still
    # be the bits of its public function, after the documented floor rule
    rng = np.random.default_rng(38)
    instances = [random_instance(rng, d) for d in (2, 3, 4, 5) for _ in range(8)]
    instances += [inst for d in (2, 3, 4, 5) for inst in _edge_instances(rng, d)]
    instances.append((DensityMatrix(np.diag([1.0, 0.0, 0.0])), HamiltonianOp(H_NULL_I),
                      HamiltonianOp(H_NULL_F)))   # no Gibbs match on h_i
    kinds = set()
    for rho, h_i, h_f in instances:
        e = np.concatenate([h_i.energies, h_f.energies])
        floor = REPORT_ROUNDING_REL * float(np.abs(e).max())
        g = gain_g(rho, h_i, h_f)
        want = dict(e_nc=noncyclic_ergotropy(rho, h_i, h_f), gain_g=0.0 if -floor <= g < 0.0 else g,
                    **decompose(rho, h_i, h_f)._asdict())
        try:
            solve = solve_beta_for_energy(h_i, h_i.energy(rho))
        except EnergyOutOfRange:
            kinds.add("no match")
            want.update(delta_e_nc=None, upper_bound=None, majorization_holds=False,
                        beta_same_energy=None, negative_temperature_flag=False)
        else:
            delta = delta_noncyclic(rho, h_i, h_f)
            try:
                bound = upper_bound_delta(rho, h_i, h_f).value
                kinds.add("bound")
            except (NegativeBeta, EntropyOutOfRange) as exc:
                kinds.add(type(exc).__name__)
                bound = None
            if bound is not None and delta.value - floor <= bound < delta.value:
                bound = delta.value
            want.update(delta_e_nc=delta.value, upper_bound=bound,
                        majorization_holds=majorizes(rho.populations_desc(), solve.populations),
                        beta_same_energy=delta.beta,
                        negative_temperature_flag=delta.negative_temperature)
        got = full_report(rho, h_i, h_f).__dict__
        assert {k: _bits(v) for k, v in got.items()} == {k: _bits(want[k]) for k in got}
    assert kinds == {"no match", "bound", "NegativeBeta"}
