"""Two-level closed forms against matrix computations and the integrator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodrive import (HamiltonianOp, MuDynParams, Schedule, TlsState, delta_noncyclic,
                       example1_phase_average, final_unitary, gain_g, propagate_u0,
                       trace_distance)
from ergodrive.errors import ParamInconsistent, ParamOutOfRange
from ergodrive.tls import (alpha_beta, cd_rate, check_bloch, check_drive, cos_sin_drive, cost,
                           delta_enc, nu, overlaps, sta_delta, theta1, theta2, wrap_pi, PHASE_BLOCK)
from helpers import (constmu_final_density, constmu_final_state, eigs_r, example1_thetas,
                     example2_theta_split, example2_wmin, final_basis, overlap_w,
                     phase_average_oracle, wrap_pi_oracle)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def overlap_a(s):
    """The overlap magnitude a of a TlsState, as a float."""
    return float(overlaps(s.p, abs(s.c))[0])


def random_tls(rng, p_lo=0.02, p_hi=0.98):
    p = rng.uniform(p_lo, p_hi)
    c = (rng.uniform(0.0, 1.0) * np.sqrt(p * (1 - p))
         * np.exp(1j * rng.uniform(-np.pi, np.pi)))
    return TlsState(p, c)


def test_wrap_pi():
    assert wrap_pi(np.pi) == -np.pi
    assert wrap_pi(-np.pi) == -np.pi
    assert abs(wrap_pi(1.5 * np.pi) + 0.5 * np.pi) < 1e-15
    out = wrap_pi(np.array([0.0, 2 * np.pi, -3 * np.pi]))
    assert np.allclose(out, [0.0, 0.0, -np.pi])


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def _neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


WRAP_EDGES = [v for x in (0.0, np.pi, 3 * np.pi) for s in (1.0, -1.0) for v in _neighbours(s * x)]
WRAP_EDGES += [-0.0, 2 * np.pi, -2 * np.pi, 4 * np.pi, -4 * np.pi, 1e300, -1e300, 5e-324,
               np.inf, -np.inf, np.nan]


def test_wrap_pi_is_the_remainder_form_bit_for_bit_at_edges():
    with np.errstate(invalid="ignore"):   # inf % 2pi is NaN on both sides
        assert same_bits(wrap_pi(np.array(WRAP_EDGES)), wrap_pi_oracle(np.array(WRAP_EDGES)))
        for x in WRAP_EDGES:
            got, want = wrap_pi(x), wrap_pi_oracle(x)
            assert type(got) is type(want) and same_bits(got, want)
    assert same_bits(wrap_pi(np.empty((0, 3))), np.empty((0, 3)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(-4 * np.pi, 4 * np.pi), st.floats()), max_size=64))
def test_wrap_pi_is_the_remainder_form_bit_for_bit(xs):
    x = np.array(xs, dtype=float)
    with np.errstate(invalid="ignore"):
        assert same_bits(wrap_pi(x), wrap_pi_oracle(x))


@pytest.mark.parametrize("n_draws", [2, 1024])
@pytest.mark.parametrize("cells", [1, PHASE_BLOCK - 1, PHASE_BLOCK, PHASE_BLOCK + 1,
                                   2 * PHASE_BLOCK + 1])
def test_phase_average_over_cells_equals_one_call_per_cell(cells, n_draws):
    a = np.random.default_rng(cells).uniform(0.0, 1.0, cells)
    a[0] = 1.0                        # the aligned (diagonal) state
    mean, err = example1_phase_average(
        a, 1.7, n_draws, [np.random.default_rng([3, k]) for k in range(cells)])
    for one_cell in (example1_phase_average, phase_average_oracle):
        want = [one_cell(float(a_k), 1.7, n_draws, np.random.default_rng([3, k]))
                for k, a_k in enumerate(a)]
        assert same_bits(mean, [m for m, _ in want]) and same_bits(err, [e for _, e in want])


def test_phase_average_tail_block_and_draw_counts_match_the_oracle():
    # a full block, then a short tail at a = 0, 1e-300 and 1; the calls run
    # back to back with other draw counts, so a scratch array sized or filled
    # by the call before would show
    a = np.concatenate([np.random.default_rng(8).uniform(0.0, 1.0, PHASE_BLOCK),
                        [0.0, 1e-300, 1.0]])
    for n_draws in (1025, 2, 1025, 3):
        mean, err = example1_phase_average(
            a, 0.9, n_draws, [np.random.default_rng([4, k]) for k in range(a.size)])
        want = [phase_average_oracle(float(a_k), 0.9, n_draws, np.random.default_rng([4, k]))
                for k, a_k in enumerate(a)]
        assert same_bits(mean, [m for m, _ in want]) and same_bits(err, [e for _, e in want])


def test_phase_average_keeps_the_shape_of_a_and_wants_one_generator_per_cell():
    a = np.linspace(0.1, 0.9, 6).reshape(2, 3)
    mean, err = example1_phase_average(a, 1.0, 8, [np.random.default_rng(k) for k in range(6)])
    assert mean.shape == err.shape == (2, 3)
    with pytest.raises(ParamInconsistent):
        example1_phase_average(a, 1.0, 8, [np.random.default_rng(0)] * 5)
    for n_draws in (0, 1, 8.0):   # one draw has no standard error
        with pytest.raises(ParamOutOfRange, match="n_draws must be an integer >= 2"):
            example1_phase_average(0.5, 1.0, n_draws, np.random.default_rng(0))


def test_tls_state_validation_and_round_trip():
    with pytest.raises(ParamOutOfRange):
        TlsState(1.2, 0.0)
    with pytest.raises(ParamOutOfRange):
        TlsState(0.5, 0.6)          # |c|^2 > p(1-p)
    s = TlsState(0.3, 0.2 * np.exp(1j * 0.7))
    assert abs(s.psi - 0.7) < 1e-15
    m = s.density().mat     # p and c read back from the density's entries
    assert abs(m[0, 0].real - s.p) < 1e-15 and abs(m[0, 1] - s.c) < 1e-15


def test_eigs_r_diagonalizes_the_density():
    rng = np.random.default_rng(30)
    for _ in range(100):
        s = random_tls(rng)
        r1, r0, vecs = eigs_r(s)
        rho = s.density().mat
        assert r1 <= r0
        assert abs(r1 + r0 - 1.0) < 1e-14
        assert np.abs(rho @ vecs[:, 0] - r1 * vecs[:, 0]).max() < 1e-12
        assert np.abs(rho @ vecs[:, 1] - r0 * vecs[:, 1]).max() < 1e-12
        assert np.abs(vecs.conj().T @ vecs - np.eye(2)).max() < 1e-12
    # maximally mixed point falls back to the computational basis
    _, _, vecs = eigs_r(TlsState(0.5, 0.0))
    assert np.array_equal(vecs, np.eye(2))


def test_ab_overlaps_normalized():
    rng = np.random.default_rng(31)
    for _ in range(50):
        s = random_tls(rng)
        a, b = overlaps(s.p, abs(s.c))
        assert abs(a * a + b * b - 1.0) < 1e-12
        assert a >= 0 and b >= 0
    a, b = overlaps(0.5, 0.0)
    assert a == 1.0 and b == 0.0


def test_example1_delta_equals_gain_everywhere():
    rng = np.random.default_rng(32)
    for _ in range(100):
        s = random_tls(rng)
        lfw = rng.uniform(0.2, 3.0)
        h_i = HamiltonianOp(0.5 * 0.7 * SZ)
        h_f = HamiltonianOp(0.5 * lfw * SZ)
        assert abs(gain_g(s.density(), h_i, h_f) - delta_enc(s.p, abs(s.c), lfw)) < 1e-12


def test_example1_delta_vs_thermal_reference():
    # below half filling the gain and the thermal-reference difference agree;
    # in the inverted regime the thermal reference uses |p - 1/2| instead
    rng = np.random.default_rng(33)
    for _ in range(100):
        s = random_tls(rng)
        lfw = rng.uniform(0.2, 3.0)
        h_i = HamiltonianOp(0.5 * SZ)
        h_f = HamiltonianOp(0.5 * lfw * SZ)
        delta = delta_noncyclic(s.density(), h_i, h_f).value
        disc = np.sqrt((s.p - 0.5) ** 2 + abs(s.c) ** 2)
        want = lfw * (disc - abs(s.p - 0.5))
        assert abs(delta - want) < 1e-12
        if s.p < 0.5:
            assert abs(delta - delta_enc(s.p, abs(s.c), lfw)) < 1e-12


def test_theta1_and_wmin_anchors():
    # full inversion costs pi/(sqrt2 tau); the balanced pure state half that
    assert abs(theta1(1.0, 0.0) - np.pi / 2) < 1e-15
    for tau in (1.0, 3.7, 10.0):
        assert abs(cost(theta1(1.0, 0.0), tau) - np.pi / (np.sqrt(2.0) * tau)) < 1e-10
        assert abs(cost(theta1(0.5, 0.5), tau) - np.sqrt(2.0) * np.pi / (4.0 * tau)) < 1e-10
    # passive states cost nothing
    assert cost(theta1(0.2, 0.0), 1.0) < 1e-15


def test_example1_thetas_matches_matrix_eigenphases():
    rng = np.random.default_rng(34)
    for _ in range(200):
        s = random_tls(rng, 0.05, 0.95)
        _, _, vecs = eigs_r(s)
        ph1, ph0 = rng.uniform(-np.pi, np.pi, 2)
        m = np.diag([np.exp(1j * ph1), np.exp(1j * ph0)]) @ vecs.conj().T
        th = np.angle(np.linalg.eigvals(m))
        th = np.where(th >= np.pi, th - 2 * np.pi, th)
        tp, tm = example1_thetas(overlap_a(s), ph1, ph0)
        assert np.abs(np.sort(th) - np.sort([tp, tm])).max() < 1e-12


def test_example1_thetas_zero_phases_and_vectorization():
    s = TlsState(0.62, 0.3 * np.exp(1j * 1.1))
    a = overlap_a(s)
    tp, tm = example1_thetas(a, 0.0, 0.0)
    t1 = theta1(s.p, abs(s.c))
    assert abs(tp - t1) < 1e-14 and abs(tm + t1) < 1e-14
    phi1 = np.linspace(-3.0, 3.0, 17)
    phi0 = np.linspace(-2.0, 2.0, 17)
    tps, tms = example1_thetas(a, phi1, phi0)
    for k in (0, 7, 16):
        tp, tm = example1_thetas(a, float(phi1[k]), float(phi0[k]))
        assert abs(tps[k] - tp) < 1e-15 and abs(tms[k] - tm) < 1e-15


def test_phase_average_near_zero_coherence_closed_form():
    # r-basis aligned with the energy basis: the mean cost over uniform phases
    # is the mean radius of a square, pi (sqrt2 + ln(1 + sqrt2)) / 3 per tau
    s = TlsState(0.3, 1e-12)
    mean, stderr = example1_phase_average(overlap_a(s), 1.0, 200_000,
                                          np.random.default_rng(5))
    want = np.pi * (np.sqrt(2.0) + np.log(1.0 + np.sqrt(2.0))) / 3.0
    assert abs(mean - want) < 5 * stderr
    assert stderr < 0.01


def test_phase_average_deterministic_under_seed():
    s = TlsState(0.6, 0.3)
    a = example1_phase_average(overlap_a(s), 2.0, 1000, np.random.default_rng(9))
    b = example1_phase_average(overlap_a(s), 2.0, 1000, np.random.default_rng(9))
    assert a == b


def test_mudyn_params_validation():
    with pytest.raises(ParamOutOfRange):
        MuDynParams(mu=1.0, omega_bar=1.0, omega_f=1.0, eps_f=0.0, tau=0.0)
    with pytest.raises(ParamOutOfRange):
        MuDynParams(mu=1.0, omega_bar=-1.0, omega_f=1.0, eps_f=0.0, tau=1.0)
    p = MuDynParams(mu=1.0, omega_bar=1.0, omega_f=3.0, eps_f=4.0, tau=1.0)
    assert abs(p.Omega_f - 5.0) < 1e-12


def test_constant_rate_factory():
    p = MuDynParams.constant_rate(mu=0.8, omega_bar=2.0, tau=4.0)
    om = 2.0 / 4.0
    assert abs(np.hypot(p.omega_f, p.eps_f) - om) < 1e-12
    phi_f = np.arctan2(p.eps_f, p.omega_f)
    assert abs(wrap_pi(phi_f - (-0.8 * 2.0))) < 1e-12
    assert abs(nu(p.mu, p.omega_bar) - 2.0 * np.sqrt(1 + 0.64)) < 1e-12


def test_cos_sin_factory():
    omega0, tau, tau_star = 1.3, 2.0, 0.7
    p = MuDynParams.cos_sin(omega0, tau, tau_star)
    assert abs(p.mu + np.pi / (2 * omega0 * tau_star)) < 1e-12
    assert abs(p.omega_bar - omega0 * tau) < 1e-12
    assert abs(p.Omega_f - omega0) < 1e-12
    ang = np.pi * tau / (2 * tau_star)
    assert abs(p.omega_f - omega0 * np.cos(ang)) < 1e-12
    assert abs(p.eps_f - omega0 * np.sin(ang)) < 1e-12
    with pytest.raises(ParamOutOfRange):
        MuDynParams.cos_sin(-1.0, tau, tau_star)


def test_final_basis_diagonalizes_h_f():
    rng = np.random.default_rng(35)
    for _ in range(100):
        p = MuDynParams(mu=rng.normal(), omega_bar=rng.uniform(0, 4),
                        omega_f=rng.normal(), eps_f=rng.normal(), tau=1.0)
        if p.Omega_f < 1e-6:
            continue
        v = final_basis(p)
        h = 0.5 * (p.omega_f * SZ + p.eps_f * SX)
        assert np.abs(h @ v[:, 0] - 0.5 * p.Omega_f * v[:, 0]).max() < 1e-12
        assert np.abs(h @ v[:, 1] + 0.5 * p.Omega_f * v[:, 1]).max() < 1e-12
        assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-12
    up = final_basis(MuDynParams(mu=0, omega_bar=1, omega_f=1, eps_f=0, tau=1))
    assert np.allclose(up, np.eye(2))
    down = final_basis(MuDynParams(mu=0, omega_bar=1, omega_f=-1, eps_f=0, tau=1))
    assert np.allclose(down, np.array([[0, 1], [1, 0]]))


def test_constmu_adiabatic_limit_and_purity():
    rng = np.random.default_rng(36)
    still = MuDynParams(mu=0.0, omega_bar=2.0, omega_f=1.0, eps_f=0.5, tau=1.0)
    s = constmu_final_state(0.3, still)
    assert abs(s.p - 0.3) < 1e-14 and abs(s.c) < 1e-14
    for _ in range(50):
        p_i = rng.uniform(0.05, 0.95)
        params = MuDynParams(mu=rng.normal(), omega_bar=rng.uniform(0.1, 4),
                             omega_f=rng.normal(), eps_f=rng.normal(), tau=1.0)
        m = constmu_final_density(p_i, params).mat
        want = p_i**2 + (1 - p_i) ** 2
        assert abs(np.trace(m @ m).real - want) < 1e-12


def test_constmu_closed_form_matches_integrator():
    rng = np.random.default_rng(37)
    for _ in range(10):
        mu = rng.uniform(-4.0, 4.0)
        ob = rng.uniform(0.2, 4.0)
        p_i = rng.uniform(0.05, 0.95)
        params = MuDynParams.constant_rate(mu, ob, tau=1.0)
        sched = Schedule.rotating_constant_mu(params, n_steps=2048)
        h_i = HamiltonianOp(0.5 * (ob / 1.0) * SZ)
        h_f = HamiltonianOp(0.5 * (params.omega_f * SZ + params.eps_f * SX))
        n, _ = final_unitary(h_i, h_f, sched)
        u = propagate_u0(h_i, h_f, Schedule.rotating_constant_mu(params, n)).u_samples[-1]
        rho_i = np.diag([p_i, 1 - p_i]).astype(complex)
        rho_f = u @ rho_i @ u.conj().T
        closed = constmu_final_density(p_i, params)
        assert trace_distance(rho_f, closed.mat) < 1e-8


def test_delta_e_sta_identity_and_limits():
    rng = np.random.default_rng(38)
    for _ in range(50):
        p_i = rng.uniform(0.05, 0.95)
        params = MuDynParams(mu=rng.normal(), omega_bar=rng.uniform(0.1, 4),
                             omega_f=rng.normal(scale=2), eps_f=rng.normal(scale=2),
                             tau=1.0)
        p_f = constmu_final_state(p_i, params).p
        delta = sta_delta(params.Omega_f, p_i, params.mu, params.omega_bar)
        assert abs(delta - params.Omega_f * (p_f - p_i)) < 1e-12
    adiabatic = MuDynParams(mu=0.0, omega_bar=1.0, omega_f=1.0, eps_f=0.0, tau=1.0)
    assert sta_delta(adiabatic.Omega_f, 0.3, adiabatic.mu, adiabatic.omega_bar) == 0.0


def test_counterdiabatic_rate_formula():
    p = MuDynParams(mu=-1.5, omega_bar=2.0, omega_f=1.0, eps_f=0.0, tau=4.0)
    assert abs(cd_rate(p.mu, p.omega_bar, p.tau) - 1.5 * 2.0 / 4.0) < 1e-15


def test_alpha_beta_unit_norm_and_signs():
    rng = np.random.default_rng(39)
    for _ in range(100):
        params = MuDynParams(mu=rng.normal(scale=2), omega_bar=rng.uniform(0, 4),
                             omega_f=1.0, eps_f=0.0, tau=1.0)
        alpha_exp, beta = alpha_beta(params.mu, params.omega_bar)
        assert abs(abs(alpha_exp) ** 2 + beta**2 - 1.0) < 1e-12
        assert np.sign(beta) in (0.0, np.sign(params.mu))
    # adiabatic limit carries the full weight in alpha
    a, b = alpha_beta(0.0, 2.0)
    assert b == 0.0 and abs(abs(a) - 1.0) < 1e-12


def test_theta2_closed_form():
    rng = np.random.default_rng(40)
    for _ in range(100):
        mu = rng.normal(scale=2)
        params = MuDynParams(mu=mu, omega_bar=rng.uniform(0, 4),
                             omega_f=1.0, eps_f=0.0, tau=1.0)
        nc = np.cos(nu(params.mu, params.omega_bar))
        want = np.arctan(abs(mu) * np.sqrt(max(1 - nc, 0.0))
                         / np.sqrt(2 + mu**2 * (1 + nc)))
        assert abs(theta2(params.mu, params.omega_bar) - want) < 1e-12


def test_example2_wmin_zero_coherence_reduces_to_theta2():
    rng = np.random.default_rng(41)
    for _ in range(50):
        params = MuDynParams(mu=rng.normal(scale=2), omega_bar=rng.uniform(0.1, 4),
                             omega_f=1.0, eps_f=0.0, tau=rng.uniform(0.5, 3))
        s = TlsState(rng.uniform(0.02, 0.48), 0.0)
        want = np.sqrt(2.0) * theta2(params.mu, params.omega_bar) / params.tau
        assert abs(example2_wmin(s, params) - want) < 1e-12


def test_theta_split_orderings():
    rng = np.random.default_rng(42)
    for _ in range(100):
        params = MuDynParams(mu=rng.normal(scale=2), omega_bar=rng.uniform(0, 4),
                             omega_f=rng.normal(), eps_f=rng.normal(), tau=1.0)
        s = random_tls(rng)
        split = example2_theta_split(s, params)
        assert 0.0 <= split.theta1 <= np.pi / 2 + 1e-12
        assert 0.0 <= split.theta2 <= np.pi / 2 + 1e-12
        lo, hi = split.wmin_range
        assert abs(hi - np.sqrt(2.0) * np.pi / params.tau) < 1e-12
        assert lo - 1e-12 <= split.w_psi <= hi + 1e-12
        blo, bhi = split.psi_band
        assert blo == lo
        assert blo - 1e-12 <= split.w_psi <= bhi + 1e-12
        assert abs(overlap_w(s, params)) <= 1.0 + 1e-12


@pytest.mark.parametrize("check, scalar", [
    (check_bloch, (1.5, 0.0)),
    (check_bloch, (-0.25, 0.0)),
    (check_bloch, (float("nan"), 0.0)),
    (check_bloch, (0.5, 0.6)),
    (check_drive, (0.0, 1.0)),
    (check_drive, (1.0, -0.5)),
    (check_bloch, (0.5, float("nan"))),
    (check_bloch, (float("inf"), 0.0)),
    (check_bloch, (0.5, float("inf"))),
    (check_drive, (float("nan"), 1.0)),
    (check_drive, (1.0, float("nan"))),
    (check_drive, (float("inf"), 1.0)),
    (check_drive, (1.0, float("inf"))),
])
def test_scalar_and_array_inputs_are_refused_alike(check, scalar):
    with pytest.raises(ParamOutOfRange) as one:
        check(*scalar)
    # the same point as the second of three, among valid ones
    arrays = [np.array([good, x, good]) for x, good in zip(scalar, (0.5, 0.1))]
    with pytest.raises(ParamOutOfRange) as many:
        check(*arrays)
    assert str(one.value) == str(many.value)
    check(*[a[[0, 2]] for a in arrays])     # the valid points pass
    check(0.5, 0.1)


def test_non_finite_states_and_drives_are_refused():
    nan = float("nan")
    with pytest.raises(ParamOutOfRange, match="Bloch ball"):
        TlsState(0.4, nan)
    with pytest.raises(ParamOutOfRange, match="outside"):
        TlsState(nan, 0.0)
    for args in [(1.0, nan, 1.0), (1.0, 1.0, nan), (1.0, float("inf"), 1.0), (1.0, 1.0, 0.0)]:
        with pytest.raises(ParamOutOfRange, match="both finite"):
            MuDynParams.constant_rate(*args)
    with pytest.raises(ParamOutOfRange, match="finite mu, omega_f and eps_f"):
        MuDynParams.constant_rate(nan, 1.0, 1.0)
    for omega_f, eps_f in [(nan, 0.0), (1.0, float("inf"))]:
        with pytest.raises(ParamOutOfRange, match="finite mu, omega_f and eps_f"):
            MuDynParams(mu=1.0, omega_bar=1.0, omega_f=omega_f, eps_f=eps_f, tau=1.0)
    for args in [(1.0, 1.0, nan), (nan, 1.0, 1.0), (float("inf"), 1.0, 1.0),
                 (1.0, 1.0, float("inf"))]:
        with pytest.raises(ParamOutOfRange, match="both finite"):
            MuDynParams.cos_sin(*args)
        with pytest.raises(ParamOutOfRange, match="both finite"):
            cos_sin_drive(*args)
