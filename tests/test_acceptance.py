"""Acceptance suite: one test per release criterion, quantitative anchors only.

Each test prints a single "ACCEPTANCE <n> ...: PASS" line once all of its
assertions hold, so a verbose run gives one pass/fail line per criterion.
"""

import itertools
import time

import numpy as np

from ergodrive import (DensityMatrix, HamiltonianOp, MuDynParams, Schedule,
                       cli,
                       counterexample_populations, decompose, delta_noncyclic,
                       example1_phase_average, gain_g, majorizes,
                       noncyclic_ergotropy, passive_energy, principal_log_unitary,
                       propagate_u0, synthesize_drive,
                       thermal_populations, trace_distance, upper_bound_delta,
                       verify_drive)
from ergodrive.errors import NegativeBeta
from ergodrive.tls import cd_rate, cost, overlaps, theta1
from helpers import (coherent_entropy_identity_residual, constmu_final_density,
                     counterdiabatic_cost_oracle, random_hermitian, random_instance,
                     random_unitary)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_acceptance_1_three_level_counterexample():
    t0 = time.perf_counter()
    e2fs = [0.1, 0.3, 0.5, 0.7, 0.85, 0.95]
    deltas = []
    for e2f in e2fs:
        ce = counterexample_populations(1.0, 0.9, e2f)
        assert np.all(np.abs(np.asarray(ce.p_th) - [0.564, 0.229, 0.207]) <= 1e-3)
        assert np.all(np.abs(np.asarray(ce.q) - [0.565, 0.217, 0.218]) <= 1e-3)
        deltas.append(ce.delta_e_nc)
    assert all(d < 0 for d in deltas[:-1])
    assert deltas[-1] > 0
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print("\nACCEPTANCE 1 (three-level counterexample): PASS (%.3fs)" % dt)


def test_acceptance_2_crossover_population_and_swap_cost():
    t0 = time.perf_counter()
    _, columns, crossover = cli.run_fig1({"mc_draws": 0})
    assert [np.shape(col) for col in columns] == [(200 * 200,)] * 7
    assert abs(crossover - 0.025) <= 0.005
    for tau in (1.0, 3.7, 10.0):
        w = cost(theta1(1.0, 0.0), tau)
        assert abs(w - np.pi / (np.sqrt(2.0) * tau)) <= 1e-10
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print("\nACCEPTANCE 2 (gain/cost crossover, swap cost): PASS (%.2fs)" % dt)


def test_acceptance_3_random_phase_cost_band():
    t0 = time.perf_counter()
    tau = 1.0
    ps = np.linspace(0.35, 0.95, 10)
    fracs = np.linspace(0.55, 1.0, 10)
    lo, hi = 0.77 * np.pi / tau, 0.89 * np.pi / tau
    for i, p in enumerate(ps):
        for j, frac in enumerate(fracs):
            c = frac * np.sqrt(p * (1.0 - p))
            rng = np.random.default_rng([0, i, j])
            a = overlaps(float(p), float(c))[0]
            mean, stderr = example1_phase_average(float(a), tau, 100_000, rng)
            assert stderr < 0.005 * np.pi / tau
            assert lo <= mean <= hi
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print("\nACCEPTANCE 3 (random-phase cost band): PASS (%.2fs)" % dt)


def test_acceptance_4_synthesized_drives_reach_passive_state():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    sched = Schedule.linear(1.0, n_steps=8192)
    for k in range(50):
        d = 2 + k % 3
        rho, h_i, h_f = random_instance(rng, d)
        synth = synthesize_drive(rho, h_i, h_f, sched)
        energy_res, dist = verify_drive(synth, rho, h_i, h_f, sched)
        assert dist <= 1e-6
        assert energy_res <= 1e-8 * max(h_f.spectral_width, 1e-12)
        assert np.max(np.abs(synth.v_samples[0])) <= 1e-12
        assert np.max(np.abs(synth.v_samples[-1])) <= 1e-12
    dt = time.perf_counter() - t0
    print("\nACCEPTANCE 4 (drive synthesis end-to-end): PASS (%.2fs)" % dt)


def test_acceptance_5_rotating_drive_propagator_and_sta_cost():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    pairs = [(0.0, 2.0)]
    pairs += [(rng.uniform(0.0, 4.0), rng.uniform(0.05, 4.0)) for _ in range(99)]
    for mu, ob in pairs:
        params = MuDynParams.constant_rate(mu, ob, tau=1.0)
        sched = Schedule.rotating_constant_mu(params, n_steps=32768)
        h_i = HamiltonianOp(0.5 * ob * SZ)
        h_f = HamiltonianOp(0.5 * (params.omega_f * SZ + params.eps_f * SX))
        u = propagate_u0(h_i, h_f, sched).u_samples[-1]
        p_i = rng.uniform(0.05, 0.95)
        rho_i = np.diag([p_i, 1.0 - p_i]).astype(complex)
        dist = trace_distance(u @ rho_i @ u.conj().T,
                              constmu_final_density(p_i, params).mat)
        assert dist <= 1e-8
        w_sta = cd_rate(params.mu, params.omega_bar, params.tau)
        assert abs(w_sta - abs(mu) * ob) <= 1e-6
        assert abs(w_sta - counterdiabatic_cost_oracle(sched)[0]) <= 1e-6
    for omega0, tau, tau_star in [(1.0, 2.0, 0.7), (1.0, 1.0, 1.5), (2.0, 3.0, 0.9)]:
        sched = Schedule.rotating_cos_sin(omega0, tau, tau_star, n_steps=65536)
        w_sta = cd_rate(sched.mu, sched.omega_bar, sched.tau)
        assert abs(w_sta - np.pi / (2.0 * tau_star)) <= 1e-8
        assert abs(w_sta - counterdiabatic_cost_oracle(sched)[0]) <= 1e-8
    dt = time.perf_counter() - t0
    print("\nACCEPTANCE 5 (rotating-drive propagator and cost): PASS (%.2fs)" % dt)


def test_acceptance_6_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    dims = (2, 3, 4, 5)
    per_d = 2500
    held = 0
    for d in dims:
        perms = np.array(list(itertools.permutations(range(d))))
        sqrt_d_pi = np.pi * np.sqrt(d) + 1e-9
        for _ in range(per_d):
            p = rng.dirichlet(np.ones(d))
            e_i = np.sort(rng.normal(size=d))
            u = random_unitary(rng, d)
            rho = DensityMatrix(u @ (p[:, None] * u.conj().T))
            h_i = HamiltonianOp(np.diag(e_i).astype(complex))
            h_f = HamiltonianOp(random_hermitian(rng, d))

            # passive energy is the brute-force permutation minimum and no
            # sampled unitary reshuffle does better
            e_pas = passive_energy(rho, h_i)
            perm_min = (p[perms] * e_i).sum(axis=-1).min()
            assert abs(e_pas - perm_min) <= 1e-12
            v = random_unitary(rng, d)
            sampled = e_i @ (np.abs(v) ** 2 @ p)
            assert sampled >= e_pas - 1e-12

            # decomposition identity
            dec = decompose(rho, h_i, h_f)
            e_nc = noncyclic_ergotropy(rho, h_i, h_f)
            assert abs(e_nc - dec.e_inc - dec.e_pas - dec.e_coh) <= 1e-10

            # majorization over the matched thermal state implies no deficit
            delta = delta_noncyclic(rho, h_i, h_f)
            q_th = np.sort(thermal_populations(h_i.energies, delta.beta))[::-1]
            if majorizes(rho.populations_desc(), q_th):
                held += 1
                assert delta.value >= -1e-12

            # coherent part matches its entropic form at two temperatures
            assert coherent_entropy_identity_residual(rho, h_i, h_f, 0.8) <= 1e-9
            assert coherent_entropy_identity_residual(rho, h_i, h_f, 1.7) <= 1e-9

            # gain is nonnegative
            assert gain_g(rho, h_i, h_f) >= -1e-12

            # rotation angles from any unitary stay inside the principal ball
            _, phase_dec = principal_log_unitary(random_unitary(rng, d))
            assert np.linalg.norm(phase_dec.phases) <= sqrt_d_pi

            # coherence-only input: gain and deficit coincide, deficit >= 0
            beta_c = rng.uniform(0.3, 2.5)
            pth = thermal_populations(e_i, beta_c)
            m = np.diag(pth).astype(complex)
            a, b = sorted(rng.choice(d, size=2, replace=False))
            m[a, b] = (rng.uniform(0.05, 0.95) * np.sqrt(pth[a] * pth[b])
                       * np.exp(1j * rng.uniform(-np.pi, np.pi)))
            m[b, a] = np.conj(m[a, b])
            rho_c = DensityMatrix(m)
            delta_c = delta_noncyclic(rho_c, h_i, h_f)
            g_c = gain_g(rho_c, h_i, h_f)
            assert abs(g_c - delta_c.value) <= 1e-10
            assert delta_c.value >= -1e-12
    assert held >= 100
    # synthesized drives respect the same angle bound through w_min
    sched = Schedule.linear(1.0, n_steps=256)
    for k in range(100):
        d = 2 + k % 4
        rho, h_i, h_f = random_instance(rng, d)
        synth = synthesize_drive(rho, h_i, h_f, sched)
        assert abs(synth.w_min - np.linalg.norm(synth.thetas)) <= 1e-12
        assert synth.w_min <= np.pi * np.sqrt(d) + 1e-9
    dt = time.perf_counter() - t0
    print("\nACCEPTANCE 6 (property suites, 10^4 instances): PASS (%.1fs)" % dt)


def test_acceptance_7_entropic_upper_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    for d in (2, 3):
        done = skipped = 0
        while done < 500:
            rho, h_i, h_f = random_instance(rng, d)
            try:
                bound = upper_bound_delta(rho, h_i, h_f)
            except NegativeBeta:
                skipped += 1
                assert skipped < 100
                continue
            delta = delta_noncyclic(rho, h_i, h_f)
            assert delta.value <= bound.value + 1e-10
            assert bound.delta_s >= -1e-12
            if d == 2:
                assert abs(bound.value - delta.value) <= 1e-10
            done += 1
    dt = time.perf_counter() - t0
    print("\nACCEPTANCE 7 (entropic upper bound): PASS (%.2fs)" % dt)
