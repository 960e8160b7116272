"""Schedules, propagators, drive synthesis, verification, phase optimization."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ergodrive
from ergodrive import (DensityMatrix, HamiltonianOp, MuDynParams, Schedule,
                       TlsState, cli, counterdiabatic_cost, drives, linalg,
                       herm_expi_batch, optimize_phases,
                       passive_state, propagate_u0, smoothstep, smoothstep_dot,
                       synthesize_drive, target_unitary, trace_distance,
                       verify_drive)
from ergodrive.errors import (BranchAmbiguity, DimMismatch, DimTooLarge, GaugeFailure,
                              LengthMismatch, NoConvergence, ParamInconsistent,
                              ParamOutOfRange, TooFarFromUnitary, VerificationFailed)
from ergodrive.linalg import time_first, unitarity_defect
from ergodrive.states import matrix_to_json
from ergodrive.tls import cost, theta1
from ergodrive.tolerances import GRID_SHIFT_MARGIN, PROPAGATION_ERROR, PROPAGATION_MAX_STEPS
from helpers import (count_exponentials, counterdiabatic_cost_oracle, eigenphases,
                     herm_expi, magnus4_gauss_final, ordered_products_sequential,
                     phase_cost_inputs, phase_costs_oracle, random_density, random_hermitian,
                     random_instance, random_probs, random_unitary, sequential_products)

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
    for tau in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ParamOutOfRange, match="0 < tau < inf"):
            Schedule(tau)
    for n_steps in (0, 2.5, True):
        with pytest.raises(ParamOutOfRange, match="n_steps must be an integer >= 1"):
            Schedule(1.0, n_steps=n_steps)
    sched = Schedule.linear(2.0, n_steps=100)
    assert sched.tau == 2.0
    assert len(sched.times()) == 101
    # by default the count is left to the error targets: nothing that needs
    # a grid takes such a schedule
    h = HamiltonianOp(0.5 * SZ)
    rot = Schedule(2.0, mu=0.0, omega_bar=2.0)
    assert Schedule.linear(2.0).n_steps is None and rot.n_steps is None
    for call in (Schedule.linear(2.0).times, lambda: propagate_u0(h, h, Schedule.linear(2.0)),
                 lambda: propagate_u0(h, h, rot), lambda: counterdiabatic_cost(rot)):
        with pytest.raises(ParamOutOfRange, match="n_steps"):
            call()


def test_schedule_is_rotating_exactly_when_it_has_mu_and_omega_bar():
    h_i, h_f = HamiltonianOp(np.diag([0.0, 1.0])), HamiltonianOp(np.diag([0.2, 0.7]))
    tau = 2.0
    linear = Schedule.linear(tau)
    ends = linear.h0_batch(h_i, h_f, np.array([0.0, tau]))
    assert not linear.rotating
    assert np.array_equal(ends[0], h_i.mat) and np.array_equal(ends[1], h_f.mat)
    # mu and omega_bar alone make a rotating H0 = (A/2)(cos(mu A t) sz -
    # sin(mu A t) sx), A = omega_bar / tau: h_i and h_f are not read
    rot = Schedule(tau, mu=-np.pi / 8, omega_bar=4.0)
    assert rot.rotating
    h0 = rot.h0_batch(h_i, h_f, np.array([0.0, 1.0, tau]))
    assert np.array_equal(h0[0], SZ)
    assert np.abs(h0[1] - np.sqrt(0.5) * (SZ + SX)).max() <= 1e-15
    assert np.abs(h0[2] - SX).max() <= 1e-15
    for factory in (Schedule.rotating_cos_sin(1.0, tau=2.0, tau_star=0.7),
                    Schedule.rotating_constant_mu(MuDynParams.constant_rate(mu=1.5, omega_bar=2.0, tau=1.0))):
        assert factory.rotating
    # one of the two is refused, whichever it is
    for half in ({"mu": 1.0}, {"omega_bar": 1.0}):
        with pytest.raises(ParamOutOfRange, match="needs both mu and omega_bar"):
            Schedule(tau, **half)
    # as are the values MuDynParams refuses
    for mu, omega_bar in [(float("nan"), 1.0), (float("inf"), 1.0), (0.5, -1.0),
                          (0.5, float("inf")), (0.5, float("nan"))]:
        with pytest.raises(ParamOutOfRange):
            Schedule(tau, mu=mu, omega_bar=omega_bar)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tau, mu, omega_bar", [
    (1e-300, 1.0, 1e10),                                  # A = omega_bar / tau overflows
    (1.0, 1e300, 1e300),                                  # mu A overflows
    (1e10, 1e300, 1e10),                                  # mu A t overflows before t = tau
    (np.float64(1e-300), np.float64(1.0), np.float64(1e10))])
def test_rotating_schedule_whose_rate_overflows_is_refused(tau, mu, omega_bar):
    # each would sample inf * 0 or cos(inf) as NaN with a RuntimeWarning;
    # it is refused when it is made, and no warning is raised
    with pytest.raises(ParamOutOfRange, match="must be finite"):
        Schedule(tau, 64, mu, omega_bar)
    # a finite angle, however coarse the grid, is accepted: such a schedule
    # fails in counterdiabatic_cost's closed-form check, not in the sampler
    assert Schedule(1.0, 64, 1e200, 1.0).rotating


@settings(max_examples=150, deadline=None)
@given(log_tau=st.floats(-8.0, 8.0), k=st.integers(1, 15),
       mu=st.floats(-4.0, 4.0), omega_bar=st.floats(0.0, 10.0))
@example(log_tau=-8.0, k=15, mu=-4.0, omega_bar=10.0)
def test_every_other_simpson_node_is_the_grid_bit_for_bit(log_tau, k, mu, omega_bar):
    # tau / (2n) is exactly half of tau / n, so the 2n-step grid's even
    # points are the n-step grid's, and H0, elementwise in t, is the same
    # there bit for bit: the synthesis's driven estimate reads H0 off the
    # Simpson nodes of U0's estimate, and verification its n-step grid's
    # nodes off those of its own 2n-step grid
    tau, n = 10.0**log_tau, 2**k
    h_i = HamiltonianOp(np.diag([0.0, 1.0]))
    h_f = HamiltonianOp(np.array([[0.0, 0.2], [0.2, 1.5]]))
    fine, coarse = Schedule.linear(tau).times(2 * n), Schedule.linear(tau).times(n)
    assert fine[::2].tobytes() == coarse.tobytes()
    for sched in (Schedule.linear(tau), Schedule(tau, mu=mu, omega_bar=omega_bar)):
        want = sched._h0_stack(h_i, h_f, coarse).tobytes()
        assert sched._h0_stack(h_i, h_f, fine[::2]).tobytes() == want
        assert sched._h0_stack(h_i, h_f, fine)[..., ::2].tobytes() == want


def test_validate_against_dimension_rules():
    h2 = HamiltonianOp(0.5 * SZ)
    h3 = HamiltonianOp(np.diag([0.0, 1.0, 2.0]))
    sched = Schedule.linear(1.0)
    with pytest.raises(DimMismatch):
        sched.validate_against(h2, h3)
    rot = Schedule(1.0, mu=0.0, omega_bar=1.0)
    with pytest.raises(DimMismatch):
        rot.validate_against(h3, h3)
    with pytest.raises(ParamInconsistent):
        rot.validate_against(h2, HamiltonianOp(0.3 * SZ))   # endpoint mismatch


def test_propagator_exact_for_constant_hamiltonian():
    h = HamiltonianOp(np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.1]]))
    sched = Schedule.linear(2.0, n_steps=4096)
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


def _magnus_steps(h_i, h_f, sched):
    """The Simpson-node Magnus-4 steps of sched's grid, each exponent formed
    with one matmul per step: exp(-i (K1 + (i/12) [K1, K2]))."""
    n = sched.n_steps
    dt = sched.tau / n
    h = sched.h0_batch(h_i, h_f, sched.times(2 * n))
    k1 = dt * (h[:-1:2] + 4 * h[1::2] + h[2::2]) / 6
    k2 = dt * (h[2::2] - h[:-1:2])
    return herm_expi_batch(k1 + 1j / 12 * (k1 @ k2 - k2 @ k1), 1.0)


def test_final_unitary_matches_stepwise_product():
    rng = np.random.default_rng(50)
    for n_steps in (1, 2, 3, 64, 65, 127):
        rho, h_i, h_f = random_instance(rng, 3)
        sched = Schedule.linear(1.0, n_steps=n_steps)
        oracle, _ = sequential_products(_magnus_steps(h_i, h_f, sched))
        assert np.abs(propagate_u0(h_i, h_f, sched).u_samples[-1]
                      - oracle[-1]).max() < 1e-12
        # the pairwise product behind final_unitary and driven_error, odd
        # stack lengths included
        u_n, steps = drives._final_product(
            sched._h0_stack(h_i, h_f, sched.times(2 * n_steps)), 1.0)
        assert np.abs(u_n - oracle[-1]).max() < 1e-12
        # the product leaves the steps it multiplied as they were
        assert np.abs(time_first(steps) - _magnus_steps(h_i, h_f, sched)).max() < 1e-12


def test_magnus_step_is_fourth_order():
    # non-commuting d = 3 linear schedule: every doubling of n divides the
    # error against the Gauss-Legendre oracle by about 16
    rng = np.random.default_rng(63)
    _, h_i, h_f = random_instance(rng, 3)
    sched = Schedule.linear(1.0)
    want = magnus4_gauss_final(h_i, h_f, sched, 2048)
    errors = [np.abs(propagate_u0(h_i, h_f, dataclasses.replace(sched, n_steps=n))
                     .u_samples[-1] - want).max() for n in (16, 32, 64, 128)]
    assert errors[-1] > 1e-11           # still far above the oracle's own error
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse >= 12 * fine


@pytest.mark.parametrize("d", [2, 3, 4])
def test_final_unitary_meets_the_error_target(d):
    # bench-like instances: spectral width 1.5, tau = 1
    rng = np.random.default_rng([64, d])
    for _ in range(3):
        _, h_i, h_f = random_instance(rng, d)
        h_i, h_f = (HamiltonianOp(h.mat * (1.5 / h.spectral_width)) for h in (h_i, h_f))
        sched = Schedule.linear(1.0)
        n, _ = drives.final_unitary(h_i, h_f, sched)
        assert n in (64, 128, 256)
        want = magnus4_gauss_final(h_i, h_f, sched, 4096)
        u = propagate_u0(h_i, h_f, dataclasses.replace(sched, n_steps=n)).u_samples[-1]
        assert np.abs(u - want).max() <= PROPAGATION_ERROR


def test_final_unitary_refuses_past_the_step_cap():
    # a spectral width of a few 1e4 needs far more than 2^16 steps for 1e-10
    _, h_i, h_f = random_instance(np.random.default_rng(65), 2, 1e4)
    with pytest.raises(NoConvergence, match="more than 65536 steps"):
        drives.final_unitary(h_i, h_f, Schedule.linear(1.0))


def test_final_unitary_forms_no_grid_finer_than_its_count(monkeypatch):
    # U_32 first, then one product per count tried, each read off H0 at the
    # 2n + 1 Simpson nodes of its own grid: nothing finer than the n returned
    stacks = []
    product = drives._final_product
    monkeypatch.setattr(drives, "_final_product",
                        lambda h_nodes, tau: stacks.append(h_nodes.shape[-1])
                        or product(h_nodes, tau))
    rng = np.random.default_rng(67)
    counts = set()
    for width in (1.5, 6.0, 20.0):
        _, h_i, h_f = random_instance(rng, 3, width)
        stacks.clear()
        n, _ = drives.final_unitary(h_i, h_f, Schedule.linear(1.0))
        counts.add(n)
        assert stacks == [2 * m + 1 for m in 2 ** np.arange(5, n.bit_length())]
    assert len(counts) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_count_loops_stop_at_the_first_non_finite_estimate(monkeypatch):
    # at tau = 1e30 and 1e300 U0's first estimate (32 against 64 steps) is
    # NaN; at tau = 1e-300 U0's is 0 but the driven one, V ~ 1/tau, is NaN:
    # each refuses there instead of doubling to the step cap, having formed
    # the steps of the estimates it made and nothing more (the synthesis
    # multiplies the 64 steps of U0's estimate, the driven estimate forms 32
    # and 16)
    rho = DensityMatrix(np.array([[0.6, 0.3 + 0.1j], [0.3 - 0.1j, 0.4]]))
    h_i = HamiltonianOp(np.diag([0.0, 1.0]))
    h_f = HamiltonianOp(np.array([[0.0, 0.2], [0.2, 1.5]]))
    lengths = count_exponentials(monkeypatch)
    for tau, message, want in (
            (1e30, "U0", [32, 64]),
            (1e300, "U0", [32, 64]),
            (1e-300, "driven", [32, 64, 32, 16])):
        lengths.clear()
        with pytest.raises(NoConvergence, match=f"{message}.* at 64 steps is nan, not a finite"):
            synthesize_drive(rho, h_i, h_f, Schedule.linear(tau))
        assert lengths == want


def _verified_distance(synth, rho, h_i, h_f, sched):
    """verify_drive's state distance, also when it is out of contract."""
    try:
        return verify_drive(synth, rho, h_i, h_f, sched)[1]
    except VerificationFailed as exc:
        return exc.residuals["state_distance"]


@pytest.mark.parametrize("width", [None, 20.0])
def test_driven_error_tracks_the_verified_state_distance(width):
    # a non-commuting d = 3 instance, and commuting h_i = h_f, where U0 is
    # exact on any grid but V still rotates at the gap: the estimate follows
    # verify_drive's state distance, which is exact up to the propagation of
    # H0 + V, and falls by about 16 per doubling
    rng = np.random.default_rng(66)
    if width is None:
        rho, h_i, h_f = random_instance(rng, 3)
    else:
        rho, h_i = random_density(rng, 2), HamiltonianOp(np.diag([0.0, width]))
        h_f = h_i
    estimates = []
    for n in (64, 128, 256):
        sched = Schedule.linear(1.0, n_steps=n)
        synth = synthesize_drive(rho, h_i, h_f, sched)
        estimates.append(drives.driven_error(synth, h_i, h_f, sched))
        dist = _verified_distance(synth, rho, h_i, h_f, sched)
        assert dist / 3 <= estimates[-1] <= 3 * dist
    for coarse, fine in zip(estimates, estimates[1:]):
        assert coarse >= 12 * fine
    with pytest.raises(ParamOutOfRange, match="divisible by 4"):
        drives.driven_error(synth, h_i, h_f, dataclasses.replace(sched, n_steps=6))
    with pytest.raises(ParamInconsistent, match="not sampled on the schedule's grid"):
        drives.driven_error(synth, h_i, h_f, dataclasses.replace(sched, n_steps=128))


def test_fourth_order_work_integral_rules():
    # the quadrature is exact on cubics, the differences on quartics, for
    # every grid from the smallest that verify_drive takes
    for n in range(drives.VERIFY_MIN_STEPS, 10):
        tau = 1.7
        dt = tau / n
        ts = np.linspace(0.0, tau, n + 1)
        w = drives._simpson_weights(n, dt)
        assert abs(w @ (ts**3 - 2 * ts) - (tau**4 / 4 - tau**2)) < 1e-13
        nodes = np.linspace(0.0, tau, 2 * n + 1)
        h = (nodes**4 - nodes**2)[None, None, :] * np.array([[1.0, 2j], [-2j, 3.0]])[..., None]
        got = drives._grid_derivative(h, dt)
        want = (4 * ts**3 - 2 * ts)[None, None, :] * np.array([[1.0, 2j], [-2j, 3.0]])[..., None]
        assert np.abs(got - want).max() < 1e-11


def test_drive_on_an_open_count_takes_the_default_grid():
    # commuting h_i = h_f: U0's estimate picks 64 steps, the driven estimate
    # 512 (as drive-synth's default); verification on the open schedule
    # takes the drive's grid
    rho = DensityMatrix(np.array([[0.6, 0.3 + 0.1j], [0.3 - 0.1j, 0.4]]))
    h = HamiltonianOp(np.diag([0.0, 20.0]))
    synth = synthesize_drive(rho, h, h, Schedule.linear(1.0))
    fixed = Schedule.linear(1.0, n_steps=512)
    assert np.array_equal(synth.v_samples, synthesize_drive(rho, h, h, fixed).v_samples)
    assert verify_drive(synth, rho, h, h, Schedule.linear(1.0)) == verify_drive(
        synth, rho, h, h, fixed)


@pytest.mark.parametrize("phases, d, error", [
    ("grid", 2, ParamOutOfRange), ("analytic2", 3, DimTooLarge),
    ([0.1, 0.2, 0.3], 2, LengthMismatch), ([0.1, 0.2], 3, LengthMismatch),
    ([0.1, np.nan], 2, ParamOutOfRange)])
@pytest.mark.parametrize("n_steps", [None, 64])
def test_synthesis_refuses_bad_phases_before_sampling(monkeypatch, phases, d, error, n_steps):
    rho, h_i, h_f = random_instance(np.random.default_rng([100, d]), d)
    monkeypatch.setattr(Schedule, "times", lambda *args: pytest.fail("sampled a grid"))
    with pytest.raises(error):
        synthesize_drive(rho, h_i, h_f, Schedule.linear(1.0, n_steps=n_steps), phases)


def test_verify_drive_refuses_grids_below_its_stencil():
    h = HamiltonianOp(0.5 * SZ)
    rho = DensityMatrix(np.diag([0.3, 0.7]))   # passive for h: V = 0
    for n in (1, 2, 3):
        sched = Schedule.linear(1.0, n_steps=n)
        synth = synthesize_drive(rho, h, h, sched)
        if n < drives.VERIFY_MIN_STEPS:
            with pytest.raises(ParamOutOfRange, match="n_steps >= 2"):
                verify_drive(synth, rho, h, h, sched)
        else:
            assert verify_drive(synth, rho, h, h, sched)[1] < 1e-12


def test_propagate_u0_refuses_counts_past_the_step_cap(monkeypatch):
    # no propagation takes more than PROPAGATION_MAX_STEPS steps; the
    # refusal comes before anything is sampled
    h = HamiltonianOp(0.5 * SZ)
    monkeypatch.setattr(Schedule, "times", lambda *args: pytest.fail("sampled a refused grid"))
    for n in (PROPAGATION_MAX_STEPS + 1, 10**19):
        with pytest.raises(ParamOutOfRange, match=f"{n} steps is more than 65536"):
            propagate_u0(h, h, Schedule.linear(1.0, n_steps=n))


def test_verify_drive_refuses_grids_past_the_step_cap(monkeypatch):
    # 2n verification steps may not exceed PROPAGATION_MAX_STEPS; the
    # refusal comes before anything is sampled
    h = HamiltonianOp(0.5 * SZ)
    rho = DensityMatrix(np.diag([0.3, 0.7]))
    synth = synthesize_drive(rho, h, h, Schedule.linear(1.0, n_steps=64))
    monkeypatch.setattr(Schedule, "times", lambda *args: pytest.fail("sampled a refused grid"))
    for n in (PROPAGATION_MAX_STEPS // 2 + 1, 10**19):
        with pytest.raises(ParamOutOfRange, match=f"more than {PROPAGATION_MAX_STEPS}"):
            verify_drive(synth, rho, h, h, Schedule.linear(1.0, n_steps=n))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 127, 4096])
def test_blocked_propagator_matches_sequential_oracle(d, n_steps):
    _, h_i, h_f = random_instance(np.random.default_rng([59, d, n_steps]), d)
    sched = Schedule.linear(1.0, n_steps=n_steps)
    trace = propagate_u0(h_i, h_f, sched)
    oracle, oracle_drift = sequential_products(_magnus_steps(h_i, h_f, sched))
    assert np.abs(trace.u_samples - oracle).max() <= 1e-13
    assert trace.unitarity_drift < 1e-12 and oracle_drift < 1e-12
    assert np.array_equal(trace.u_samples[0], np.eye(d))
    for k in list(range(64, n_steps + 1, 64)) + [n_steps]:
        assert unitarity_defect(trace.u_samples[k]) <= 1e-13


def _ordered_products(steps):
    """linalg.ordered_products on the steps steps[k], copied time-innermost
    (the kernel overwrites the copy)."""
    return linalg.ordered_products(np.moveaxis(steps, 0, -1).copy())


def test_ordered_products_refuses_non_unitary_steps():
    rng = np.random.default_rng(60)
    _, h_i, h_f = random_instance(rng, 3)
    steps = 1.5 * _magnus_steps(h_i, h_f, Schedule.linear(1.0, n_steps=100))
    with pytest.raises(TooFarFromUnitary):
        _ordered_products(steps)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_ordered_products_drift_stays_near_the_sequential_oracle(d):
    # the kernel's drift is that of the chained block totals, the oracle's
    # that of each block; both stay at the rounding level of one product
    eps = np.finfo(float).eps
    for n_steps in (1, 64, 65, 1000, 4096):
        _, h_i, h_f = random_instance(np.random.default_rng([61, d, n_steps]), d, 3.0)
        steps = _magnus_steps(h_i, h_f, Schedule.linear(1.0, n_steps=n_steps))
        samples, drift = _ordered_products(steps)
        oracle, oracle_drift = sequential_products(steps)
        assert samples.shape == oracle.shape
        assert drift <= 8 * max(oracle_drift, eps)
        assert np.abs(samples - oracle).max() <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_block_scan_matches_the_sequential_kernel(d):
    # the Hillis-Steele scan (at most SCAN_MAX_BLOCKS[d] blocks) against the
    # kernel's former one-position-at-a-time loop, on both sides of the
    # crossover; above it the kernel runs that loop, so the bits match
    eps = np.finfo(float).eps
    crossover = linalg.SCAN_MAX_BLOCKS[d] * linalg.REUNITARIZE_EVERY
    for n in (1, 2, 63, 64, 65, 127, 128, 200, 256, crossover, crossover + 1, 4096):
        _, h_i, h_f = random_instance(np.random.default_rng([77, d, n]), d, 3.0)
        steps = _magnus_steps(h_i, h_f, Schedule.linear(1.0, n_steps=n))
        samples, drift = _ordered_products(steps)
        oracle, oracle_drift = ordered_products_sequential(np.moveaxis(steps, 0, -1))
        assert np.abs(samples - oracle).max() <= 1e-13
        assert drift <= 8 * max(oracle_drift, eps) and oracle_drift <= 8 * max(drift, eps)
        if n > crossover:
            assert np.array_equal(samples, oracle) and drift == oracle_drift


@pytest.mark.parametrize("bad", [3, 99])
def test_ordered_products_refuses_one_bad_step_in_any_block(bad):
    # n = 100: one full 64-step block and a partial one of 36 steps
    _, h_i, h_f = random_instance(np.random.default_rng(62), 3)
    steps = np.array(_magnus_steps(h_i, h_f, Schedule.linear(1.0, n_steps=100)))
    _ordered_products(steps)
    steps[bad] *= 1.5
    with pytest.raises(TooFarFromUnitary):
        _ordered_products(steps)


def test_constant_schedule_callables_broadcast():
    # mu = 0: the rotating H0 stays at (A/2) sz on every sample
    h = HamiltonianOp(0.5 * SZ)
    rot = Schedule(1.5, n_steps=64, mu=0.0, omega_bar=1.5)
    assert np.array_equal(rot.h0_batch(h, h, rot.times()), np.broadcast_to(h.mat, (65, 2, 2)))
    trace = propagate_u0(h, h, rot)
    assert np.abs(trace.u_samples[-1] - herm_expi(h.mat, 1.5)).max() < 1e-12


def test_constant_mu_h0_is_the_closed_form_bit_for_bit():
    # omega = A cos(mu A t), eps = -A sin(mu A t), A = omega_bar / tau, each
    # evaluated as written here, then H0 = (omega sz + eps sx) / 2
    rng = np.random.default_rng(26)
    h = HamiltonianOp(0.5 * SZ)
    for _ in range(5):
        mu, omega_bar, tau = rng.uniform(-4.0, 4.0), rng.uniform(0.0, 4.0), rng.uniform(0.5, 3.0)
        sched = Schedule.rotating_constant_mu(MuDynParams.constant_rate(mu, omega_bar, tau),
                                              n_steps=1000)
        ts = sched.times()
        om0 = omega_bar / tau
        omega, eps = om0 * np.cos(mu * om0 * ts), -om0 * np.sin(mu * om0 * ts)
        want = np.zeros((2, 2, len(ts)), dtype=complex)
        want[0, 0], want[1, 1], want[0, 1], want[1, 0] = omega, -omega, eps, eps
        want *= 0.5
        assert np.array_equal(sched._h0_stack(h, h, ts), want)


def test_cos_sin_h0_is_the_quarter_period_sweep():
    # the paper's omega0 (cos, sin)(pi t / (2 tau*)), to a few ulps of omega0
    for omega0, tau, tau_star in [(1.0, 2.0, 0.7), (1.0, 1.0, 1.5), (2.0, 3.0, 0.9)]:
        sched = Schedule.rotating_cos_sin(omega0, tau, tau_star, n_steps=4096)
        ts = sched.times()
        h0 = sched.h0_batch(HamiltonianOp(0.5 * SZ), HamiltonianOp(0.5 * SZ), ts)
        angle = np.pi * ts / (2 * tau_star)
        want = 0.5 * omega0 * (np.cos(angle)[:, None, None] * SZ
                               + np.sin(angle)[:, None, None] * SX)
        assert np.abs(h0 - want).max() <= 4 * np.finfo(float).eps * omega0


def test_converged_final_unitary():
    # a rotating schedule, against the same propagator on a grid 8x finer
    sched = Schedule.rotating_cos_sin(1.0, tau=2.0, tau_star=0.7, n_steps=4096)
    angle = np.pi * 2.0 / (2 * 0.7)
    h_i = HamiltonianOp(0.5 * SZ)
    h_f = HamiltonianOp(0.5 * (np.cos(angle) * SZ + np.sin(angle) * SX))
    n, _ = drives.final_unitary(h_i, h_f, sched)
    assert n >= 128
    u = propagate_u0(h_i, h_f, dataclasses.replace(sched, n_steps=n)).u_samples[-1]
    dense = propagate_u0(h_i, h_f, dataclasses.replace(sched, n_steps=8 * n))
    assert np.abs(u - dense.u_samples[-1]).max() <= PROPAGATION_ERROR


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
    with pytest.raises(ParamOutOfRange, match="numbers"):   # a name is synthesize_drive's
        target_unitary(random_density(rng, 2), HamiltonianOp(0.5 * SZ), "analytic2")


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


def test_drive_cost_is_w_min_on_every_schedule():
    # the smoothstep ramp runs monotonically from 0 to 1, so w is w_min exactly
    rho, h_i, h_f = random_instance(np.random.default_rng(54), 2)
    for sched in (Schedule.linear(1.0), Schedule.linear(1.0, n_steps=1024)):
        synth = synthesize_drive(rho, h_i, h_f, sched)
        assert synth.w == synth.w_min > 0
    angle = np.pi * 2.0 / (2 * 0.7)
    h_i = HamiltonianOp(0.5 * SZ)
    h_f = HamiltonianOp(0.5 * (np.cos(angle) * SZ + np.sin(angle) * SX))
    rot = Schedule.rotating_cos_sin(1.0, tau=2.0, tau_star=0.7, n_steps=512)
    synth = synthesize_drive(rho, h_i, h_f, rot, [0.4, -1.3])
    assert synth.w == synth.w_min > 0


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


def test_optimizer_dimension_and_mode_errors(monkeypatch):
    rng = np.random.default_rng(57)
    sched = Schedule.linear(1.0, n_steps=64)

    def propagate(*args):
        raise AssertionError("U0 propagated for refused arguments")

    # a bad mode, dimension or count is refused before U0 is propagated
    monkeypatch.setattr(drives, "propagate_u0", propagate)
    rho3, h_i3, h_f3 = random_instance(rng, 3)
    with pytest.raises(DimTooLarge):
        optimize_phases(rho3, h_i3, h_f3, sched, mode="analytic2")
    rho4, h_i4, h_f4 = random_instance(rng, 4)
    with pytest.raises(DimTooLarge):
        optimize_phases(rho4, h_i4, h_f4, sched, mode="grid")
    rho2, h_i2, h_f2 = random_instance(rng, 2)
    with pytest.raises(ParamOutOfRange, match="unknown phase optimization mode"):
        optimize_phases(rho2, h_i2, h_f2, sched, mode="simulated_annealing")
    for kw in ({"mode": "monte_carlo", "n_draws": 0}, {"mode": "monte_carlo", "n_draws": 1},
               {"mode": "monte_carlo", "n_draws": True}, {"mode": "grid", "grid_points": 0},
               {"mode": "grid", "grid_points": 2.5}, {"mode": "grid", "grid_points": True}):
        with pytest.raises(ParamOutOfRange, match="must be an integer"):
            optimize_phases(rho2, h_i2, h_f2, sched, **kw)


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


def circle_mismatch(got, want):
    """Largest distance on the unit circle from a phase in got[n, d] to the
    nearest phase of the same row of want."""
    diff = np.exp(1j * got)[:, :, None] - np.exp(1j * want)[:, None, :]
    return float(np.abs(diff).min(axis=2).max())


def with_eigenphases(rng, thetas):
    """Stack of unitaries Q diag(e^{i theta}) Q^dag, Q Haar, one per row of thetas."""
    thetas = np.asarray(thetas, dtype=float)
    q = np.array([random_unitary(rng, thetas.shape[1]) for _ in thetas])
    return (q * np.exp(1j * thetas)[:, None, :]) @ q.conj().transpose(0, 2, 1)


def trace_det_eigenphases(m):
    return drives.eigenphases_from_trace_det(np.trace(m, axis1=-2, axis2=-1),
                                             np.angle(np.linalg.det(m)), m.shape[-1])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
# row 13 has two eigenphases 0.0875 apart across the cut at -pi, each off by
# about 1.2e-14 (eps / sep^2) with opposite signs, so their squares add up
# to a sum 1.5e-13 off eigvals'
@example(seed=4068, d=3)
def test_trace_det_eigenphases_match_eigvals_on_haar_unitaries(seed, d):
    rng = np.random.default_rng(seed)
    m = np.array([random_unitary(rng, d) for _ in range(32)])
    got, ok = trace_det_eigenphases(m)
    want = eigenphases(m)
    assert ok.all()
    assert np.all((got >= -np.pi) & (got < np.pi))
    assert circle_mismatch(got, want) < 1e-13
    # a phase is accurate to eps / sep^2 at the row's least eigenvalue
    # distance sep, so sum theta^2 is to 2 pi d eps / sep^2, or 1e-13 where
    # that is larger
    z = np.exp(1j * want)
    gaps = np.abs(z[:, :, None] - z[:, None, :]) + np.where(np.eye(d, dtype=bool), np.inf, 0.0)
    sep = gaps.min(axis=(1, 2))
    bound = np.maximum(1e-13, 2 * np.pi * d * np.finfo(float).eps / sep**2)
    assert np.all(np.abs((got**2).sum(axis=1) - (want**2).sum(axis=1)) < bound)


def test_trace_det_eigenphases_refuse_d_4():
    # the characteristic polynomial of a 4 x 4 unitary needs more than tr, det
    with pytest.raises(DimTooLarge, match="d = 2, 3, not 4"):
        trace_det_eigenphases(np.eye(4, dtype=complex)[None])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("thetas", [[0.7, 0.7], [0.0, 0.0], [2.0, 2.0 + 1e-4],
                                    [0.7, 0.7, -1.2], [0.7, 0.7, 0.7], [0.0, 0.0, 0.0],
                                    [-3.0, -3.0, 3.0], [0.1, 0.1 + 1e-5, 1.5]])
def test_repeated_eigenphases_take_the_eigvals_rows(thetas):
    rng = np.random.default_rng(90)
    d = len(thetas)
    m = np.concatenate([with_eigenphases(rng, [thetas]), np.eye(d)[None]])
    assert not trace_det_eigenphases(m)[1].any()
    for m0 in m:
        phases = np.zeros((1, d))
        got = drives._phase_costs(*phase_cost_inputs(m0), phases, 2.0)
        assert abs(got[0] - phase_costs_oracle(m0, np.eye(d), phases, 2.0)[0]) < 1e-13


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("thetas", [[-np.pi + 1e-12, 0.4, 1.9], [np.pi - 1e-12, -0.4, 1.1],
                                    [-np.pi + 1e-12, 0.5], [np.pi - 1e-12, -2.0]])
def test_trace_det_eigenphases_at_the_branch_cut(thetas):
    m = with_eigenphases(np.random.default_rng(91), [thetas] * 8)
    got, ok = trace_det_eigenphases(m)
    want = eigenphases(m)
    assert ok.all()
    assert np.all((got >= -np.pi) & (got < np.pi))
    assert circle_mismatch(got, want) < 1e-13
    assert np.abs((got**2).sum(axis=1) - (want**2).sum(axis=1)).max() < 1e-12


def count_eigvals_rows(monkeypatch):
    rows = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: rows.append(len(m)) or eigvals(m))
    return rows


def grid_mesh(d, points):
    axis = np.linspace(-np.pi, np.pi, points, endpoint=False)
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


def scan_inputs(rho, h_f, u_f):
    """(det_angle, c, a_mat, v_r) of drives._phase_costs as optimize_phases forms them."""
    v_r = drives._descending_eigvectors(rho)[1]
    a_mat = u_f.conj().T @ h_f.basis
    return (float(np.angle(np.linalg.det(a_mat @ v_r.conj().T))),
            np.einsum("in,in->n", v_r.conj(), a_mat), a_mat, v_r)


def diagonal_instance(d):
    """Commuting diagonal h_i = h_f and a diagonal state: with u_f = 1 the
    target is trivial, M(phi) = diag(e^{i phi})."""
    h = HamiltonianOp(np.diag(np.arange(d, dtype=float)).astype(complex))
    pops = np.linspace(2.0, 1.0, d)
    return DensityMatrix(np.diag(pops / pops.sum())), h, h


@pytest.mark.parametrize("d, points", [(3, 16), (2, 128), (3, 7), (2, 9), (3, 1), (2, 1)])
def test_grid_scan_picks_the_eigvals_argmin(monkeypatch, d, points):
    # odd point counts leave 0 off the axis, and one point is one class
    rng = np.random.default_rng(92 + d)
    sched = Schedule.linear(1.0, n_steps=256)
    mesh = grid_mesh(d, points)
    for _ in range(4):
        rho, h_i, h_f = random_instance(rng, d)
        u_f = propagate_u0(h_i, h_f, sched).u_samples[-1]
        rows = count_eigvals_rows(monkeypatch)
        res = optimize_phases(rho, h_i, h_f, sched, mode="grid", grid_points=points, u_f=u_f)
        assert rows == []
        monkeypatch.undo()
        inputs = scan_inputs(rho, h_f, u_f)
        costs = phase_costs_oracle(*inputs[2:], mesh, sched.tau)
        k = int(np.argmin(costs))
        assert np.array_equal(res.phases, mesh[k])
        assert abs(res.value - costs[k]) < 1e-13
        # the value is the kernel's own cost there, as a scan of every point gives it
        assert res.value == drives._phase_costs(*inputs, mesh, sched.tau)[k]


@pytest.mark.parametrize("d, points", [(2, 7), (3, 9)])
def test_grid_scan_ties_go_to_the_first_mesh_point(d, points):
    # M(phi) = diag(e^{i phi}) on an axis without 0: the 2^d points at
    # +-pi/points on every axis cost exactly the same
    rho, h, _ = diagonal_instance(d)
    sched = Schedule.linear(1.0, n_steps=64)
    u_f = np.eye(d, dtype=complex)
    mesh = grid_mesh(d, points)
    costs = drives._phase_costs(*scan_inputs(rho, h, u_f), mesh, sched.tau)
    ties = np.flatnonzero(costs == costs.min())
    assert len(ties) == 2**d
    res = optimize_phases(rho, h, h, sched, mode="grid", grid_points=points, u_f=u_f)
    assert np.array_equal(res.phases, mesh[ties[0]])
    assert res.value == costs[ties[0]]
    oracle = phase_costs_oracle(u_f, np.eye(d), mesh, sched.tau)
    assert abs(res.value - oracle.min()) < 1e-13


@pytest.mark.parametrize("d, points", [(2, 8), (3, 8), (3, 5)])
def test_grid_scan_solves_one_row_per_class(monkeypatch, d, points):
    # the eigenphases are solved at points^(d-1) rows, one per class of index
    # offsets; only the least-cost point is costed again
    rng = np.random.default_rng(97 + d)
    sched = Schedule.linear(1.0, n_steps=256)
    rho, h_i, h_f = random_instance(rng, d)
    u_f = propagate_u0(h_i, h_f, sched).u_samples[-1]
    calls = []
    solve = drives.eigenphases_from_trace_det
    monkeypatch.setattr(drives, "eigenphases_from_trace_det",
                        lambda tr, angle, dim: calls.append(len(tr)) or solve(tr, angle, dim))
    optimize_phases(rho, h_i, h_f, sched, mode="grid", grid_points=points, u_f=u_f)
    assert calls == [points ** (d - 1), 1]


def test_grid_scan_costs_its_candidates_again_in_mesh_order(monkeypatch):
    # with no bound on the margin every point is a candidate, so the direct
    # costs are those of the whole mesh, taken in its order
    rho, h_i, h_f = random_instance(np.random.default_rng(99), 3)
    u_f = random_unitary(np.random.default_rng(100), 3)
    seen = []
    phase_costs = drives._phase_costs
    monkeypatch.setattr(drives, "GRID_SHIFT_MARGIN", np.inf)
    monkeypatch.setattr(drives, "_phase_costs",
                        lambda *args: seen.append(args[4]) or phase_costs(*args))
    res = optimize_phases(rho, h_i, h_f, Schedule.linear(1.0), mode="grid", grid_points=6, u_f=u_f)
    mesh = grid_mesh(3, 6)
    assert len(seen) == 1 and np.array_equal(seen[0], mesh)
    costs = phase_costs(*scan_inputs(rho, h_f, u_f), mesh, 1.0)
    assert np.array_equal(res.phases, mesh[np.argmin(costs)]) and res.value == costs.min()


def test_grid_scan_sends_one_eigvals_row_per_close_class(monkeypatch):
    # with M(phi) = diag(e^{i phi}), the classes (0, j, k) with j = 0, k = 0
    # or j = k have a repeated eigenphase: 3P - 2 of them, each of whose P
    # mesh points a scan of every point would hand to eigvals. The least
    # cost, 0 at phi = 0, is repeated too, so its point takes one more row.
    rho, h, _ = diagonal_instance(3)
    points = 8
    rows = count_eigvals_rows(monkeypatch)
    res = optimize_phases(rho, h, h, Schedule.linear(1.0, n_steps=64), mode="grid",
                          grid_points=points, u_f=np.eye(3, dtype=complex))
    assert rows == [3 * points - 2, 1]
    assert np.array_equal(res.phases, np.zeros(3)) and res.value == 0.0


def test_clustered_eigenphases_cost_within_the_grid_shift_margin():
    # three eigenphases a few 1e-3 apart, every pair above
    # EIGENPHASE_SEPARATION: the trace-determinant kernel serves the row, and
    # its error grows as eps / sep^2 (about 1e-10 in a cost here). Shifting
    # all phases of M by s keeps the cluster, so the mesh's diagonal class
    # (s, s, s) is clustered at every point
    rng = np.random.default_rng(101)
    tau, points = 0.5, 16
    axis = np.linspace(-np.pi, np.pi, points, endpoint=False)
    diagonal = np.repeat(axis[:, None], 3, axis=1)
    mesh = grid_mesh(3, points)
    assert 1e-9 < GRID_SHIFT_MARGIN / 10
    for _ in range(64):
        gaps = np.exp(rng.uniform(np.log(1e-3), np.log(3e-2), size=2))
        thetas = rng.uniform(-np.pi, np.pi) + np.concatenate([[0.0], np.cumsum(gaps)])
        m0 = with_eigenphases(rng, [thetas])[0]
        inputs = phase_cost_inputs(m0)
        got = drives._phase_costs(*inputs, diagonal, tau)
        assert np.abs(got - phase_costs_oracle(m0, np.eye(3), diagonal, tau)).max() < 1e-9 / tau
        costs = drives._phase_costs(*inputs, mesh, tau)
        k = int(np.argmin(costs))
        res = drives._grid_scan(*inputs, points, tau)
        assert np.array_equal(res.phases, mesh[k]) and res.value == costs[k]


def test_scan_takes_u0_from_final_unitary_when_open_and_propagate_u0_when_fixed(monkeypatch):
    # on an open schedule U0(tau) is the pairwise product final_unitary formed
    # at the count it returns, and nothing is propagated; on a fixed one it is
    # propagate_u0's last sample, and no count is estimated
    rng = np.random.default_rng(98)
    rho, h_i, h_f = random_instance(rng, 3)
    sched = Schedule.linear(1.0)
    n, u_n = drives.final_unitary(h_i, h_f, sched)
    fixed = dataclasses.replace(sched, n_steps=n)
    u_fixed = propagate_u0(h_i, h_f, fixed).u_samples[-1]
    assert np.abs(u_n - u_fixed).max() < 1e-13
    calls = []
    estimate, propagate = drives.final_unitary, drives.propagate_u0
    monkeypatch.setattr(drives, "final_unitary",
                        lambda *args: calls.append("final_unitary") or estimate(*args))
    monkeypatch.setattr(drives, "propagate_u0",
                        lambda *args: calls.append("propagate_u0") or propagate(*args))
    for grid, u_f, route in ((sched, u_n, "final_unitary"), (fixed, u_fixed, "propagate_u0")):
        calls.clear()
        res = optimize_phases(rho, h_i, h_f, grid, mode="grid", grid_points=8)
        assert calls == [route]
        want = optimize_phases(rho, h_i, h_f, grid, mode="grid", grid_points=8, u_f=u_f)
        assert calls == [route]
        assert np.array_equal(res.phases, want.phases) and res.value == want.value


@pytest.mark.filterwarnings("error")
def test_only_rows_with_close_eigenphases_take_eigvals(monkeypatch):
    rng = np.random.default_rng(94)
    m0 = with_eigenphases(rng, [[0.3, 0.3, 0.3]])[0]   # M(phi) ~ diag(e^{i phi})
    phases = np.concatenate([[[0.0, 0.0, 0.0], [0.5, 0.5, -1.0], [1.0, 1.0 + 1e-4, 2.5]],
                             rng.uniform(-np.pi, np.pi, size=(61, 3))])
    rows = count_eigvals_rows(monkeypatch)
    got = drives._phase_costs(*phase_cost_inputs(m0), phases, 1.0)
    assert rows == [3]
    monkeypatch.undo()
    want = phase_costs_oracle(m0, np.eye(3), phases, 1.0)
    assert np.abs(got - want).max() < 1e-13


def test_monte_carlo_beyond_three_levels_uses_eigvals():
    rng = np.random.default_rng(95)
    rho, h_i, h_f = random_instance(rng, 4)
    sched = Schedule.linear(1.0, n_steps=256)
    u_f = propagate_u0(h_i, h_f, sched).u_samples[-1]
    res = optimize_phases(rho, h_i, h_f, sched, mode="monte_carlo", n_draws=300,
                          rng=np.random.default_rng(1), u_f=u_f)
    draws = np.random.default_rng(1).uniform(-np.pi, np.pi, size=(300, 4))
    want = phase_costs_oracle(u_f.conj().T @ h_f.basis,
                              drives._descending_eigvectors(rho)[1], draws, sched.tau)
    assert np.isfinite(res.value) and np.isfinite(res.stderr)
    assert abs(res.value - want.mean()) < 1e-13


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


def test_verify_drive_refuses_a_nan_residual(monkeypatch):
    rng = np.random.default_rng(61)
    rho, h_i, h_f = random_instance(rng, 3)
    sched = Schedule.linear(1.0, n_steps=256)
    synth = synthesize_drive(rho, h_i, h_f, sched)
    verify_drive(synth, rho, h_i, h_f, sched)
    derivative = drives._grid_derivative
    monkeypatch.setattr(drives, "_grid_derivative", lambda h, dt: derivative(h, dt) * np.nan)
    with pytest.raises(VerificationFailed) as exc:
        verify_drive(synth, rho, h_i, h_f, sched)
    res = exc.value.residuals
    assert math.isnan(res["work_integral_residual"])
    assert res["state_distance"] <= 1e-6   # only the work integral saw the NaN


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
    rot = Schedule(1.0, n_steps=512, mu=0.0, omega_bar=1.0)
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
        counterdiabatic_cost(Schedule(1.0, n_steps=1, mu=1.0, omega_bar=1.0))
    with pytest.raises(ParamOutOfRange):   # no gap
        counterdiabatic_cost(Schedule(1.0, n_steps=64, mu=1.0, omega_bar=0.0))
    with pytest.raises(GaugeFailure):      # the angle turns by pi per step
        counterdiabatic_cost(Schedule(1.0, n_steps=64, mu=-64 * np.pi, omega_bar=1.0))


@pytest.mark.parametrize("n_steps", [PROPAGATION_MAX_STEPS + 1, 10**19])
def test_counterdiabatic_cost_refuses_counts_past_the_step_cap(monkeypatch, n_steps):
    # the cap of a propagation: 10**19 steps would not even fit a time grid
    # in memory, and each count is refused before anything is sampled
    sched = Schedule.rotating_constant_mu(MuDynParams(1.0, 2.0, 0.0, 0.0, 1.0), n_steps=n_steps)
    monkeypatch.setattr(Schedule, "times", lambda *args: pytest.fail("sampled a refused grid"))
    with pytest.raises(ParamOutOfRange, match=f"{n_steps} steps is more than 65536"):
        counterdiabatic_cost(sched)


def _random_rotating_schedule(rng, n_steps):
    """A random constant-mu schedule whose angle turns by more than pi either
    way from 0, so it winds through the branch cut of atan2."""
    omega_bar, turn = rng.uniform(2.0, 4.0), rng.uniform(1.1 * np.pi, 4.0)
    return Schedule(rng.uniform(1.0, 2.0), n_steps=n_steps,
                    mu=rng.choice([-1.0, 1.0]) * turn / omega_bar, omega_bar=omega_bar)


def test_counterdiabatic_cost_matches_the_eigenvector_oracle():
    # the mixing-angle form against eigh of every sample, gauge-fixed and
    # differentiated; both are second order in the step
    rng = np.random.default_rng(512)
    params = MuDynParams.constant_rate(mu=1.5, omega_bar=2.0, tau=1.0)
    scheds = [Schedule.rotating_cos_sin(1.0, tau=2.0, tau_star=0.7, n_steps=8192),
              Schedule.rotating_constant_mu(params, n_steps=8192)]
    scheds += [_random_rotating_schedule(rng, 8192) for _ in range(6)]
    for sched in scheds:
        w, norm_trace = counterdiabatic_cost(sched)
        w_oracle, norm_oracle = counterdiabatic_cost_oracle(sched)
        assert abs(w - w_oracle) <= 1e-7
        assert norm_trace.shape == norm_oracle.shape == (8193,)
        assert np.abs(norm_trace - norm_oracle).max() <= 1e-7


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


# ---------------------------------------------------------------- scratch


def _small_rotation(d, seed):
    """rho close to passive for h_f, h_i close to h_f and tau = 0.3: the drive
    is a small rotation that verifies even on a 64-step grid."""
    rng = np.random.default_rng([98, seed, d])
    h_f = HamiltonianOp(random_hermitian(rng, d, 0.1))
    h_i = HamiltonianOp(h_f.mat + random_hermitian(rng, d, 0.01))
    tilt = herm_expi(random_hermitian(rng, d, 0.01))
    passive = (h_f.basis * np.sort(random_probs(rng, d))[::-1]) @ h_f.basis.conj().T
    return DensityMatrix(tilt @ passive @ tilt.conj().T), h_i, h_f, 0.3


def _drive_cfg(seed, d, n_steps=4096):
    rho, h_i, h_f = random_instance(np.random.default_rng([97, seed, d]), d)
    return {"rho_i": matrix_to_json(rho.mat), "h_i": matrix_to_json(h_i.mat),
            "h_f": matrix_to_json(h_f.mat), "tau": 1.0, "n_steps": n_steps}


def _one_drive(d, n_steps):
    """Every array a drive hands out: the U0 trace, the synthesis, a step batch."""
    rho, h_i, h_f, tau = _small_rotation(d, n_steps)
    sched = Schedule.linear(tau, n_steps=n_steps)
    trace = propagate_u0(h_i, h_f, sched)
    synth = synthesize_drive(rho, h_i, h_f, sched)
    verify_drive(synth, rho, h_i, h_f, sched)
    steps = herm_expi_batch(sched.h0_batch(h_i, h_f, sched.times()[:-1]), tau / n_steps)
    return [trace.u_samples, synth.v_samples, synth.chi, steps]


def test_returned_arrays_share_no_memory_and_keep_their_values():
    # a large drive, then a small one, then one in between: every array an
    # earlier call returned keeps its values and shares memory with nothing
    # returned later
    kept = []
    for d, n in ((4, 4096), (2, 64), (3, 1000)):
        arrays = _one_drive(d, n)
        for a in arrays:
            for b, _ in kept:
                assert not np.shares_memory(a, b)
        kept += [(a, a.copy()) for a in arrays]
    for a, snapshot in kept:
        assert np.array_equal(a, snapshot)


def test_drive_synth_json_is_the_same_in_a_fresh_process(tmp_path):
    cfg = _drive_cfg(1, 3)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(cfg))
    src = str(Path(ergodrive.__file__).resolve().parents[1])
    fresh = subprocess.run([sys.executable, "-m", "ergodrive.cli", "drive-synth",
                            "--config", str(path)], capture_output=True, check=True,
                           env=dict(os.environ, PYTHONPATH=src)).stdout
    for d in (4, 2):   # other drives run in this process first
        cli.run_drive_synth(_drive_cfg(2, d))
    out = tmp_path / "out.json"
    assert cli.main(["drive-synth", "--config", str(path), "--out", str(out)]) == 0
    assert out.read_bytes() == fresh


def test_nan_filled_scratch_changes_no_result(monkeypatch):
    # neither the synthesizer nor the verifier reads scratch it did not write
    # itself: with every np.empty array filled with NaN, the results keep
    # every bit
    rho, h_i, h_f = random_instance(np.random.default_rng(99), 4)
    sched = Schedule.linear(1.0, n_steps=4096)
    synth = synthesize_drive(rho, h_i, h_f, sched)
    clean = verify_drive(synth, rho, h_i, h_f, sched)
    empty, filled = np.empty, []

    def nan_empty(shape, dtype=float, *args, **kwargs):
        out = empty(shape, dtype, *args, **kwargs)
        if np.issubdtype(out.dtype, np.inexact):
            out.fill(np.nan)
            filled.append(out.size)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    poisoned = synthesize_drive(rho, h_i, h_f, sched)
    again = verify_drive(poisoned, rho, h_i, h_f, sched)
    monkeypatch.undo()
    assert max(filled) >= 16 * 8192    # a (4, 4, n) stack of the 2n-step grid
    assert np.array_equal(poisoned.v_samples, synth.v_samples)
    assert np.array_equal(poisoned.chi, synth.chi)
    assert again == clean


def test_threads_running_drives_get_the_sequential_results():
    cfgs = [_drive_cfg(3, d, 1024) for d in (2, 3, 4, 3)]
    want = [cli.run_drive_synth(cfg) for cfg in cfgs]
    got = [None] * len(cfgs)

    def work(k):
        for _ in range(3):
            got[k] = cli.run_drive_synth(cfgs[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(cfgs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
