"""Schedules, propagators, drive synthesis, verification, phase optimization."""

import dataclasses
import math

import numpy as np
import pytest

from ergodrive import (DEFAULT_TOLS, DensityMatrix, HamiltonianOp, MuDynParams, Schedule,
                       TlsState, counterdiabatic_cost, drives,
                       herm_expi_batch, optimize_phases,
                       passive_state, propagate_u0, smoothstep, smoothstep_dot,
                       synthesize_drive, target_unitary, trace_distance,
                       verify_drive)
from ergodrive.errors import (DimMismatch, DimTooLarge, GaugeFailure,
                              LengthMismatch, NoConvergence, ParamInconsistent,
                              ParamOutOfRange, TooFarFromUnitary, VerificationFailed)
from ergodrive.linalg import unitarity_defect
from ergodrive.tls import cost, theta1
from helpers import (converged_final_unitary, herm_expi, random_density, random_instance,
                     sequential_products)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_smoothstep_shape():
    assert smoothstep(0.0) == 0.0 and smoothstep(1.0) == 1.0
    assert smoothstep_dot(0.0) == 0.0 and smoothstep_dot(1.0) == 0.0
    s = np.linspace(0, 1, 101)
    f = smoothstep(s)
    assert np.all(np.diff(f) > 0)
    fd = (smoothstep(s[2:]) - smoothstep(s[:-2])) / (s[2] - s[0])
    assert np.abs(fd - smoothstep_dot(s[1:-1])).max() < 1e-3


def test_schedule_validation():
    with pytest.raises(ParamOutOfRange):
        Schedule(t_i=1.0, t_f=1.0)
    with pytest.raises(ParamOutOfRange):
        Schedule(t_i=0.0, t_f=1.0, n_steps=0)
    with pytest.raises(ParamOutOfRange):
        Schedule(t_i=0.0, t_f=1.0, kind="wiggle")
    with pytest.raises(ParamInconsistent):
        Schedule.from_lambdas(lambda t: 0.5, lambda t: t, tau=1.0)
    with pytest.raises(ParamOutOfRange):
        Schedule(t_i=0.0, t_f=1.0, ramp_f=lambda t: t)   # derivative missing
    with pytest.raises(ParamInconsistent):
        Schedule(t_i=0.0, t_f=1.0, ramp_f=lambda t: t, ramp_fdot=lambda t: 1.0)
    with pytest.raises(ParamOutOfRange):
        Schedule(t_i=0.0, t_f=1.0, kind="rotating")      # omega/eps missing
    sched = Schedule.linear(2.0, n_steps=100)
    assert sched.tau == 2.0
    assert len(sched.times()) == 101
    assert abs(sched.lam_i(0.0) - 1.0) < 1e-15 and abs(sched.lam_f(2.0) - 1.0) < 1e-15


def test_validate_against_dimension_rules():
    h2 = HamiltonianOp(0.5 * SZ)
    h3 = HamiltonianOp(np.diag([0.0, 1.0, 2.0]))
    sched = Schedule.linear(1.0)
    with pytest.raises(DimMismatch):
        sched.validate_against(h2, h3)
    rot = Schedule.rotating_callables(lambda t: 1.0 + 0 * t, lambda t: 0 * t, tau=1.0)
    with pytest.raises(DimMismatch):
        rot.validate_against(h3, h3)
    with pytest.raises(ParamInconsistent):
        rot.validate_against(h2, HamiltonianOp(0.3 * SZ))   # endpoint mismatch


def test_propagator_exact_for_constant_hamiltonian():
    h = HamiltonianOp(np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.1]]))
    sched = Schedule.from_lambdas(lambda t: 1.0 - t / 2.0, lambda t: t / 2.0,
                                  tau=2.0)
    trace = propagate_u0(h, h, sched)
    exact = herm_expi(h.mat, 2.0)
    assert np.abs(trace.u_samples[-1] - exact).max() < 1e-12
    assert np.abs(trace.u_samples[0] - np.eye(2)).max() == 0.0
    assert trace.unitarity_drift < 1e-10


def test_propagator_exact_for_commuting_schedule():
    a = np.array([0.3, -0.2, 0.9])
    b = np.array([-0.5, 0.1, 0.4])
    h_i = HamiltonianOp(np.diag(a))
    h_f = HamiltonianOp(np.diag(b))
    sched = Schedule.linear(2.0, n_steps=4096)
    trace = propagate_u0(h_i, h_f, sched)
    exact = np.diag(np.exp(-1j * (a + b)))   # both ramps integrate to tau/2 = 1
    assert np.abs(trace.u_samples[-1] - exact).max() < 1e-12


def _midpoint_steps(h_i, h_f, sched):
    dt = sched.tau / sched.n_steps
    return herm_expi_batch(sched.h0_batch(h_i, h_f, sched.times()[:-1] + 0.5 * dt), dt)


def test_final_unitary_matches_stepwise_product():
    rng = np.random.default_rng(50)
    for n_steps in (64, 65, 127):
        rho, h_i, h_f = random_instance(rng, 3)
        sched = Schedule.linear(1.0, n_steps=n_steps)
        oracle, _ = sequential_products(_midpoint_steps(h_i, h_f, sched))
        assert np.abs(propagate_u0(h_i, h_f, sched).u_samples[-1]
                      - oracle[-1]).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 127, 4096])
def test_blocked_propagator_matches_sequential_oracle(d, n_steps):
    _, h_i, h_f = random_instance(np.random.default_rng([59, d, n_steps]), d)
    sched = Schedule.linear(1.0, n_steps=n_steps)
    trace = propagate_u0(h_i, h_f, sched)
    oracle, oracle_drift = sequential_products(_midpoint_steps(h_i, h_f, sched))
    assert np.abs(trace.u_samples - oracle).max() <= 1e-13
    assert trace.unitarity_drift < 1e-12 and oracle_drift < 1e-12
    assert np.array_equal(trace.u_samples[0], np.eye(d))
    for k in list(range(64, n_steps + 1, 64)) + [n_steps]:
        assert unitarity_defect(trace.u_samples[k]) <= 1e-13


def test_ordered_products_refuses_non_unitary_steps():
    rng = np.random.default_rng(60)
    _, h_i, h_f = random_instance(rng, 3)
    steps = 1.5 * _midpoint_steps(h_i, h_f, Schedule.linear(1.0, n_steps=100))
    with pytest.raises(TooFarFromUnitary):
        drives._ordered_products(steps)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_ordered_products_drift_stays_near_the_sequential_oracle(d):
    # the kernel's drift is that of the chained block totals, the oracle's
    # that of each block; both stay at the rounding level of one product
    eps = np.finfo(float).eps
    for n_steps in (1, 64, 65, 1000, 4096):
        _, h_i, h_f = random_instance(np.random.default_rng([61, d, n_steps]), d, 3.0)
        steps = _midpoint_steps(h_i, h_f, Schedule.linear(1.0, n_steps=n_steps))
        samples, drift = drives._ordered_products(steps)
        oracle, oracle_drift = sequential_products(steps)
        assert samples.shape == oracle.shape
        assert drift <= 8 * max(oracle_drift, eps)
        assert np.abs(samples - oracle).max() <= 1e-13


@pytest.mark.parametrize("bad", [3, 99])
def test_ordered_products_refuses_one_bad_step_in_any_block(bad):
    # n = 100: one full 64-step block and a partial one of 36 steps
    _, h_i, h_f = random_instance(np.random.default_rng(62), 3)
    steps = np.array(_midpoint_steps(h_i, h_f, Schedule.linear(1.0, n_steps=100)))
    drives._ordered_products(steps)
    steps[bad] *= 1.5
    with pytest.raises(TooFarFromUnitary):
        drives._ordered_products(steps)


def test_constant_schedule_callables_broadcast():
    h = HamiltonianOp(0.5 * SZ)
    rot = Schedule.rotating_callables(lambda t: 1.0, lambda t: 0.0, tau=1.5, n_steps=64)
    trace = propagate_u0(h, h, rot)
    assert np.abs(trace.u_samples[-1] - herm_expi(h.mat, 1.5)).max() < 1e-12


def test_schedule_callable_of_wrong_shape_is_refused():
    h = HamiltonianOp(0.5 * SZ)
    rot = Schedule.rotating_callables(lambda t: np.ones(3), lambda t: 0 * t, tau=1.0)
    with pytest.raises(ParamOutOfRange):
        propagate_u0(h, h, rot)


def test_schedule_callable_without_array_support_is_refused():
    h = HamiltonianOp(0.5 * SZ)
    rot = Schedule.rotating_callables(lambda t: math.cos(0 * t), lambda t: 0 * t, tau=1.0)
    with pytest.raises(ParamOutOfRange):
        propagate_u0(h, h, rot)


def test_converged_final_unitary():
    rng = np.random.default_rng(51)
    _, h_i, h_f = random_instance(rng, 2)
    sched = Schedule.linear(1.0, n_steps=256)
    u, n = converged_final_unitary(h_i, h_f, sched, rtol=1e-8)
    assert n > 256
    dense = propagate_u0(h_i, h_f, dataclasses.replace(sched, n_steps=4 * n)).u_samples[-1]
    assert np.abs(u - dense).max() < 1e-7
    with pytest.raises(NoConvergence):
        converged_final_unitary(h_i, h_f, sched, rtol=0.0)


def test_target_unitary_reaches_passive_for_any_phases():
    rng = np.random.default_rng(52)
    for d in (2, 3, 4):
        rho, _, h_f = random_instance(rng, d)
        for _ in range(5):
            phases = rng.uniform(-np.pi, np.pi, d)
            r = target_unitary(rho, h_f, phases)
            assert np.abs(r @ r.conj().T - np.eye(d)).max() < 1e-12
            moved = r @ rho.mat @ r.conj().T
            assert trace_distance(moved, passive_state(rho, h_f).mat) < 1e-12
    with pytest.raises(LengthMismatch):
        target_unitary(rho, h_f, np.zeros(d + 1))
    with pytest.raises(DimMismatch):
        target_unitary(random_density(rng, 2), h_f, np.zeros(d))


def test_synthesize_and_verify_one_instance():
    rng = np.random.default_rng(53)
    rho, h_i, h_f = random_instance(rng, 3)
    sched = Schedule.linear(1.0, n_steps=8192)
    synth = synthesize_drive(rho, h_i, h_f, sched)
    assert np.abs(synth.chi - synth.chi.conj().T).max() < 1e-12
    assert np.all(np.diff(synth.thetas) >= 0)
    assert np.all(np.abs(synth.thetas) <= np.pi)
    assert abs(synth.w_min - np.linalg.norm(synth.thetas) / sched.tau) < 1e-14
    assert synth.w == synth.w_min          # monotone ramp: exact total variation
    assert np.abs(synth.v_samples[0]).max() == 0.0   # flat ramp ends
    assert np.abs(synth.v_samples[-1]).max() == 0.0
    energy_res, dist = verify_drive(synth, rho, h_i, h_f, sched)
    assert dist <= 1e-6
    assert energy_res <= 1e-8 * h_f.spectral_width


def test_drive_states_carry_the_callers_tolerances(monkeypatch):
    rng = np.random.default_rng(53)
    tols = DEFAULT_TOLS.with_(trace=1e-11, eig_floor=1e-11)
    rho, h_i, h_f = random_instance(rng, 3)
    rho = DensityMatrix(rho.mat, tols)
    sched = Schedule.linear(1.0, n_steps=1024)
    seen = []
    post_init = DensityMatrix.__post_init__

    def recording(self):
        seen.append(self.tols)
        post_init(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", recording)
    synth = synthesize_drive(rho, h_i, h_f, sched, tols=tols)
    verify_drive(synth, rho, h_i, h_f, sched, tols)
    assert synth.final_state.tols is tols
    assert len(seen) == 3 and all(t is tols for t in seen)   # final, target, rho_f


def test_nonmonotone_ramp_costs_more():
    rng = np.random.default_rng(54)
    rho, h_i, h_f = random_instance(rng, 2)

    def ramp(t):
        return t + 0.2 * np.sin(2 * np.pi * t)

    def ramp_dot(t):
        return 1.0 + 0.4 * np.pi * np.cos(2 * np.pi * t)

    # make the ramp boundary-flat by composing with the smooth step
    def f(t):
        return ramp(smoothstep(t))

    def fdot(t):
        return ramp_dot(smoothstep(t)) * smoothstep_dot(t)

    sched = Schedule.linear(1.0, n_steps=4096)
    wiggly = Schedule(t_i=0.0, t_f=1.0, ramp_f=f, ramp_fdot=fdot, n_steps=4096)
    base = synthesize_drive(rho, h_i, h_f, sched)
    bumpy = synthesize_drive(rho, h_i, h_f, wiggly)
    assert bumpy.w_min == base.w_min       # same chi, same minimal cost
    assert bumpy.w > bumpy.w_min + 0.05 * bumpy.w_min


def test_trivial_target_needs_no_drive():
    h = HamiltonianOp(0.5 * SZ)
    rho = DensityMatrix(np.diag([0.3, 0.7]))   # already passive for h
    sched = Schedule.linear(1.0, n_steps=1024)
    res = optimize_phases(rho, h, h, sched, mode="analytic2")
    assert res.value < 1e-12
    synth = synthesize_drive(rho, h, h, sched, res.phases)
    assert synth.w_min < 1e-12
    assert np.abs(synth.v_samples).max() < 1e-12
    energy_res, dist = verify_drive(synth, rho, h, h, sched)
    assert dist < 1e-10
    # an unbiased average over phases still pays the generic cost
    mc = optimize_phases(rho, h, h, sched, mode="monte_carlo", n_draws=2000)
    assert mc.phases is None
    assert mc.value > 0.7 * np.pi


def test_optimizer_modes_agree_for_qubits():
    rng = np.random.default_rng(55)
    for _ in range(5):
        rho, h_i, h_f = random_instance(rng, 2)
        sched = Schedule.linear(1.3, n_steps=2048)
        u_f = propagate_u0(h_i, h_f, sched).u_samples[-1]
        best = optimize_phases(rho, h_i, h_f, sched, mode="analytic2", u_f=u_f)
        grid = optimize_phases(rho, h_i, h_f, sched, mode="grid",
                               grid_points=128, u_f=u_f)
        assert grid.value >= best.value - 1e-9
        assert grid.value <= best.value + 5e-3
        # re-synthesis at the optimal phases reproduces the reported value
        synth = synthesize_drive(rho, h_i, h_f,
                                 dataclasses.replace(sched, n_steps=2048),
                                 best.phases)
        assert abs(synth.w_min - best.value) < 1e-10


def test_optimizer_grid_covers_qutrits():
    rng = np.random.default_rng(56)
    rho, h_i, h_f = random_instance(rng, 3)
    sched = Schedule.linear(1.0, n_steps=1024)
    u_f = propagate_u0(h_i, h_f, sched).u_samples[-1]
    grid = optimize_phases(rho, h_i, h_f, sched, mode="grid", grid_points=16, u_f=u_f)
    synth = synthesize_drive(rho, h_i, h_f, sched, grid.phases)
    assert abs(synth.w_min - grid.value) < 1e-10


def test_optimizer_dimension_and_mode_errors():
    rng = np.random.default_rng(57)
    sched = Schedule.linear(1.0, n_steps=64)
    rho3, h_i3, h_f3 = random_instance(rng, 3)
    with pytest.raises(DimTooLarge):
        optimize_phases(rho3, h_i3, h_f3, sched, mode="analytic2")
    rho4, h_i4, h_f4 = random_instance(rng, 4)
    with pytest.raises(DimTooLarge):
        optimize_phases(rho4, h_i4, h_f4, sched, mode="grid")
    rho2, h_i2, h_f2 = random_instance(rng, 2)
    with pytest.raises(ParamOutOfRange):
        optimize_phases(rho2, h_i2, h_f2, sched, mode="simulated_annealing")


def test_monte_carlo_mode_is_seeded_and_reports_spread():
    rng = np.random.default_rng(58)
    rho, h_i, h_f = random_instance(rng, 2)
    sched = Schedule.linear(1.0, n_steps=512)
    u_f = propagate_u0(h_i, h_f, sched).u_samples[-1]
    a = optimize_phases(rho, h_i, h_f, sched, mode="monte_carlo", n_draws=500, u_f=u_f)
    b = optimize_phases(rho, h_i, h_f, sched, mode="monte_carlo", n_draws=500, u_f=u_f)
    assert a.value == b.value and a.stderr == b.stderr   # default seed is fixed
    best = optimize_phases(rho, h_i, h_f, sched, mode="analytic2", u_f=u_f)
    assert a.value > best.value
    assert a.stderr > 0


def test_verify_drive_catches_wrong_state():
    rng = np.random.default_rng(59)
    rho, h_i, h_f = random_instance(rng, 2)
    other = random_density(rng, 2)
    sched = Schedule.linear(1.0, n_steps=2048)
    synth = synthesize_drive(rho, h_i, h_f, sched)
    with pytest.raises(VerificationFailed) as exc:
        verify_drive(synth, other, h_i, h_f, sched)
    res = exc.value.residuals
    assert set(res) == {"state_distance", "final_energy_residual",
                        "endpoint_residual", "work_integral_residual"}
    assert res["state_distance"] > 1e-6


def test_verify_drive_catches_endpoint_tampering():
    rng = np.random.default_rng(60)
    rho, h_i, h_f = random_instance(rng, 2)
    sched = Schedule.linear(1.0, n_steps=1024)
    synth = synthesize_drive(rho, h_i, h_f, sched)
    bad = dataclasses.replace(synth, v_samples=synth.v_samples + 0.1)
    with pytest.raises(VerificationFailed) as exc:
        verify_drive(bad, rho, h_i, h_f, sched)
    assert exc.value.residuals["endpoint_residual"] > 1e-12


def test_counterdiabatic_cost_anchors():
    # static eigenvectors cost nothing
    rot = Schedule.rotating_callables(lambda t: 1.0 + 0 * t,
                                      lambda t: 0.3 + 0 * t, tau=1.0, n_steps=512)
    w, norm_trace = counterdiabatic_cost(rot)
    assert w < 1e-12
    assert norm_trace.shape == (513,)
    # quarter-period sweep: pi / (2 tau*)
    sched = Schedule.rotating_cos_sin(1.0, tau=2.0, tau_star=0.7, n_steps=8192)
    w, _ = counterdiabatic_cost(sched)
    assert abs(w - np.pi / (2 * 0.7)) < 1e-6
    # constant-mu sweep: |mu| omega_bar / tau (also cross-checked internally)
    params = MuDynParams.constant_rate(mu=1.5, omega_bar=2.0, tau=1.0)
    sched = Schedule.rotating_constant_mu(params, n_steps=8192)
    w, _ = counterdiabatic_cost(sched)
    assert abs(w - 3.0) < 1e-6


def test_counterdiabatic_cost_error_taxonomy():
    with pytest.raises(ParamOutOfRange):
        counterdiabatic_cost(Schedule.linear(1.0))
    with pytest.raises(ParamOutOfRange):
        counterdiabatic_cost(Schedule.rotating_callables(
            lambda t: 1.0 + 0 * t, lambda t: 0 * t, tau=1.0, n_steps=1))
    with pytest.raises(ParamOutOfRange):   # gap closes at the midpoint
        counterdiabatic_cost(Schedule.rotating_callables(
            lambda t: 1.0 - 2.0 * t, lambda t: 0 * t, tau=1.0, n_steps=64))
    with pytest.raises(GaugeFailure):      # eigenbasis flips between samples
        counterdiabatic_cost(Schedule.rotating_callables(
            lambda t: np.where(np.asarray(t) < 0.5, 1.0, -1.0),
            lambda t: 1e-12 + 0 * t, tau=1.0, n_steps=64))
    # metadata that contradicts the schedule is rejected
    params = MuDynParams.constant_rate(mu=1.0, omega_bar=2.0, tau=1.0)
    sched = Schedule.rotating_constant_mu(params, n_steps=4096)
    lying = dataclasses.replace(sched, mu=2.0)
    with pytest.raises(VerificationFailed) as exc:
        counterdiabatic_cost(lying)
    assert "closed_form" in exc.value.residuals


def test_wmin_agrees_with_two_level_closed_form():
    # proportional Hamiltonians: synthesized minimal cost against the
    # arctan closed form, through the analytic phase minimizer
    rng = np.random.default_rng(61)
    for _ in range(5):
        p = rng.uniform(0.05, 0.95)
        c = (rng.uniform(0.3, 1.0) * np.sqrt(p * (1 - p))
             * np.exp(1j * rng.uniform(-np.pi, np.pi)))
        s = TlsState(p, c)
        tau = rng.uniform(0.5, 3.0)
        h_i = HamiltonianOp(0.5 * SZ)
        h_f = HamiltonianOp(0.5 * rng.uniform(0.3, 2.0) * SZ)
        sched = Schedule.linear(tau, n_steps=1024)
        best = optimize_phases(s.density(), h_i, h_f, sched, mode="analytic2")
        assert abs(best.value - cost(theta1(s.p, abs(s.c)), tau)) < 1e-12
