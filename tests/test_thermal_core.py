"""Thermal beta solves and cached spectra: properties, sign rule, work counts."""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ergodrive import (DensityMatrix, HamiltonianOp, full_report, passive_state,
                       solve_beta_for_energy, solve_beta_for_entropy, thermal_populations)
from ergodrive import linalg, states
from ergodrive.errors import NoConvergence
from ergodrive.tolerances import BETA_RESIDUAL
from helpers import (brentq_oracle, coherence_rel_entropy, random_instance,
                     thermal_populations_max_reduce)

MAX_EVALS = 40   # Gibbs-weight evaluations per solve, bracket search included
PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@contextmanager
def counting(module, name):
    """Count calls of module.name for the duration of the block."""
    original = getattr(module, name)
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    setattr(module, name, wrapper)
    try:
        yield calls
    finally:
        setattr(module, name, original)


@st.composite
def spectra(draw):
    """A Hamiltonian with d = 2..5 levels, width 1e-3..1e3 and an energy offset."""
    d = draw(st.integers(2, 5))
    width = 10.0 ** draw(st.floats(-3.0, 3.0))
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=d - 2, max_size=d - 2))
    levels = np.array([0.0, *inner, 1.0]) * width
    offset = draw(st.floats(-2.0, 2.0)) * width
    return HamiltonianOp(np.diag(levels + offset))


@st.composite
def energy_problems(draw):
    h = draw(spectra())
    en, width = h.energies, h.spectral_width
    kind = draw(st.sampled_from(["low edge", "high edge", "flat mean", "inside"]))
    gap = width * 10.0 ** -draw(st.floats(1.0, 12.0))
    if kind == "low edge":
        target = en[0] + gap
    elif kind == "high edge":
        target = en[-1] - gap
    elif kind == "flat mean":
        target = float(np.nextafter(en.mean(), draw(st.sampled_from([-np.inf, np.inf]))))
    else:
        target = en[0] + width * draw(st.floats(0.01, 0.99))
    assume(en[0] < target < en[-1])
    return h, target


@st.composite
def entropy_problems(draw):
    h = draw(spectra())
    ln_d = np.log(h.dim)
    kind = draw(st.sampled_from(["near 0", "near ln d", "inside"]))
    small = 10.0 ** -draw(st.floats(1.0, 14.0))
    target = {"near 0": ln_d * small, "near ln d": ln_d * (1.0 - small),
              "inside": ln_d * draw(st.floats(0.01, 0.99))}[kind]
    return h, target


def _mean_energy(en, beta):
    return float(thermal_populations(en, beta) @ en)


def _entropy(en, beta):
    p = thermal_populations(en, beta)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


@PROPERTY
@given(energy_problems())
def test_energy_solve_meets_the_residual_bound(problem):
    h, target = problem
    en, width = h.energies, h.spectral_width
    beta_max = states.BETA_MAX_SCALE / width
    # targets past the Gibbs energies at +-beta_max have no root in the bracket
    assume(_mean_energy(en, beta_max) < target < _mean_energy(en, -beta_max))
    with counting(states, "thermal_populations") as evals:
        res = solve_beta_for_energy(h, target)
    assert evals[0] <= MAX_EVALS
    assert abs(res.beta) <= beta_max
    assert res.residual <= BETA_RESIDUAL * width
    assert abs(_mean_energy(en, res.beta) - target) == res.residual
    assert abs(res.populations @ en - target) <= BETA_RESIDUAL * width + 1e-12 * (
        abs(en[0]) + abs(en[-1]))


@PROPERTY
@given(entropy_problems())
def test_entropy_solve_meets_the_residual_bound(problem):
    h, target = problem
    en, width = h.energies, h.spectral_width
    beta_max = states.BETA_MAX_SCALE / width
    with counting(states, "thermal_populations") as evals:
        res = solve_beta_for_entropy(h, target)
    assert evals[0] <= MAX_EVALS
    assert 0.0 <= res.beta <= beta_max
    assert abs(_entropy(en, res.beta) - target) == res.residual
    if res.beta < beta_max:
        assert res.residual <= BETA_RESIDUAL
    else:   # saturated: the target lies at or below the entropy floor
        assert target <= _entropy(en, beta_max)


@st.composite
def gibbs_spectra(draw):
    """Ascending energies, d = 1..6: distinct or with a level repeated, of
    width 1e-3..1e3, offset by up to 1e8 either way."""
    d = draw(st.integers(1, 6))
    levels = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
    if d > 1 and draw(st.booleans()):
        k = draw(st.integers(0, d - 2))
        levels[k + 1] = levels[k]
    offset = draw(st.sampled_from([0.0, 1.0, -1.0])) * 10.0 ** draw(st.floats(-3.0, 8.0))
    return np.sort(levels * 10.0 ** draw(st.floats(-3.0, 3.0)) + offset)


@PROPERTY
@given(gibbs_spectra(), st.floats(-1e3, 1e3))
def test_thermal_populations_are_the_max_reduce_form_bit_for_bit(en, beta_width):
    width = float(en[-1] - en[0]) or 1.0
    beta_max = states.BETA_MAX_SCALE / width
    betas = [0.0, -0.0, 1e-300, -1e-300, beta_max, -beta_max, np.inf, -np.inf,
             beta_width / width]
    for beta in betas:
        with np.errstate(all="ignore"):   # +-inf times a zero energy is NaN
            got, want = thermal_populations(en, beta), thermal_populations_max_reduce(en, beta)
            # a list or a tuple of the energies gives the array's bits
            for seq in (en.tolist(), tuple(en.tolist())):
                assert thermal_populations(seq, beta).tobytes() == got.tobytes(), beta
        # NaN where the oracle has NaN (its sign bit differs between the
        # forms, and JSON and CSV print every NaN alike), else the same bits
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan), beta
        assert got[~nan].tobytes() == want[~nan].tobytes(), beta
        assert not nan.any() or abs(beta) == np.inf


@contextmanager
def recording_solve():
    """The (beta, Gibbs weights) that thermal_populations forms, in order,
    how many it had formed when each _decreasing_root returned, and the
    table of evaluated points each one returned with, while the block runs."""
    formed, at_root, tables = [], [], []
    gibbs, root = states.thermal_populations, states._decreasing_root

    def recorded_gibbs(en, beta):
        formed.append((beta, gibbs(en, beta)))
        return formed[-1][1]

    def recorded_root(*args):
        x = root(*args)
        at_root.append(len(formed))
        tables.append(args[1])
        return x

    states.thermal_populations, states._decreasing_root = recorded_gibbs, recorded_root
    try:
        yield formed, at_root, tables
    finally:
        states.thermal_populations, states._decreasing_root = gibbs, root


@PROPERTY
@given(st.one_of(energy_problems().map(lambda hp: (solve_beta_for_energy, *hp)),
                 entropy_problems().map(lambda hp: (solve_beta_for_entropy, *hp))))
def test_a_solve_returns_the_gibbs_weights_it_formed_at_its_root(problem):
    solve, h, target = problem
    try:
        with recording_solve() as (formed, at_root, tables):
            res = solve(h, target)
    except NoConvergence:   # an energy past the Gibbs energies at +-beta_max
        assume(False)
    # the returned weights are an array the solve formed, with nothing
    # formed after the root was found, and bit for bit the weights at beta;
    # every Gibbs state formed is a point of the solve's one table, so none
    # is formed twice (two points of the entropy match's y = (beta width)^2
    # can still round to one beta)
    assert any(p is res.populations for _, p in formed)
    assert at_root in ([], [len(formed)])
    assert [len(table) for table in tables] in ([], [len(formed)])
    assert res.populations.tobytes() == thermal_populations(h.energies, res.beta).tobytes()


def test_the_entropy_solve_forms_the_beta_max_weights_once():
    # a gap of 1e-4 of the width puts the root at beta width = 7000, past the
    # last bracket point below the stop, (4096)^2 in y = (beta width)^2, so
    # the bracket search takes the weights at the stop, beta_max, which the
    # floor test formed
    h = HamiltonianOp(np.diag([0.0, 1e-4, 1.0]))
    beta_max = states.BETA_MAX_SCALE / h.spectral_width
    with recording_solve() as (formed, at_root, _):
        res = solve_beta_for_entropy(h, _entropy(h.energies, 0.7 * beta_max))
    betas = [beta for beta, _ in formed]
    assert betas[0] == beta_max and betas.count(beta_max) == 1
    assert 4096.0 < res.beta * h.spectral_width < states.BETA_MAX_SCALE
    assert at_root == [len(formed)]


def test_unreachable_energy_raises_no_convergence():
    h = HamiltonianOp(np.diag([0.0, 1e-3, 1.0]))
    edge = _mean_energy(h.energies, states.BETA_MAX_SCALE / h.spectral_width)
    assert edge > 0.0
    with pytest.raises(NoConvergence):
        solve_beta_for_energy(h, 0.5 * edge)


def test_nan_residuals_are_refused(monkeypatch):
    # each residual check states the accepted region, so NaN falls outside it;
    # NaN Gibbs weights make f(0) NaN, so the energy match returns beta = 0
    # with the flat point's NaN weights
    h = HamiltonianOp(np.diag([0.0, 0.5, 1.0]))
    with monkeypatch.context() as m:
        m.setattr(states, "thermal_populations", lambda en, beta: np.full(en.shape, np.nan))
        with pytest.raises(NoConvergence, match="energy residual nan"):
            solve_beta_for_energy(h, 0.3)
    with monkeypatch.context() as m:
        m.setattr(states, "_shannon", lambda p: math.nan)
        with pytest.raises(NoConvergence, match="entropy residual nan"):
            solve_beta_for_entropy(h, 0.5)
    assert solve_beta_for_energy(h, 0.3).residual <= BETA_RESIDUAL   # unpatched, both solve
    assert solve_beta_for_entropy(h, 0.5).residual <= BETA_RESIDUAL


def test_beta_is_exactly_zero_when_the_flat_state_matches():
    h = HamiltonianOp(np.diag([-1.0, 0.0, 1.0]))
    assert _mean_energy(h.energies, 0.0) == 0.0
    res = solve_beta_for_energy(h, 0.0)
    assert res.beta == 0.0 and np.copysign(1.0, res.beta) == 1.0
    flat_entropy = _entropy(h.energies, 0.0)
    assert solve_beta_for_entropy(h, flat_entropy).beta == 0.0


def test_sign_of_beta_follows_the_flat_state_residual():
    h = HamiltonianOp(np.diag([-1.0, 0.0, 1.0]))
    above = float(np.nextafter(0.0, 1.0))
    assert solve_beta_for_energy(h, above).beta < 0.0    # f(0) < 0
    assert solve_beta_for_energy(h, -above).beta > 0.0   # f(0) > 0


def test_maximally_mixed_flag_is_the_sign_of_the_roundoff():
    rng = np.random.default_rng(24)
    signs = set()
    for _ in range(40):
        d = int(rng.integers(2, 6))
        _, h_i, h_f = random_instance(rng, d)
        rho = DensityMatrix(np.eye(d) / d)
        f0 = _mean_energy(h_i.energies, 0.0) - h_i.energy(rho)
        report = full_report(rho, h_i, h_f)
        assert np.sign(report.beta_same_energy) == np.sign(f0)
        assert report.negative_temperature_flag == (f0 < 0)
        signs.add(np.sign(f0))
    assert signs >= {-1.0, 1.0}


def test_saturated_entropy_returns_beta_max():
    h = HamiltonianOp(np.diag([0.0, 0.5, 2.0]))
    beta_max = states.BETA_MAX_SCALE / h.spectral_width
    assert solve_beta_for_entropy(h, 0.0).beta == beta_max
    floor = _entropy(h.energies, beta_max)
    res = solve_beta_for_entropy(h, 0.5 * floor)
    assert res.beta == beta_max
    assert abs(res.residual - 0.5 * floor) <= 1e-15 * floor


# Brent's method against SciPy's brentq: monotone functions with a root at r,
# each scaled by s > 0 (the log1p tail is the shape the beta solves hand it)
MONOTONE = {
    "power": lambda x, r, s: math.copysign(abs(x - r) ** s, x - r),
    "expm1": lambda x, r, s: math.expm1(min(s * (x - r), 700.0)),
    "atan": lambda x, r, s: math.atan(x - r) + 1e-3 * s * (x - r) ** 3,
    "log1p tail": lambda x, r, s: math.log1p(max((x - r) / s, -1.0 + 2.2e-16)),
    "plateaus": lambda x, r, s: max(min(s * (x - r), 1.0), -1.0),
}


def recording(f):
    """f, and the list of points it is evaluated at."""
    seen = []

    def g(x):
        seen.append(float(x).hex())
        return f(x)

    return g, seen


@st.composite
def brent_problems(draw):
    """(f, a, b, xtol, maxiter): a monotone f, increasing or decreasing, whose
    root lies in [a, b] or at an end, the ends in either order. A tiny
    amplitude makes slopes and their products underflow to 0, where C's
    division gives inf or nan."""
    shape = MONOTONE[draw(st.sampled_from(sorted(MONOTONE)))]
    r = draw(st.floats(-1e3, 1e3))
    s = 10.0 ** draw(st.floats(-1.0, 1.0))
    amp = draw(st.sampled_from([-1.0, 1.0, 1e-150, -1e-300]))
    a = r - 10.0 ** draw(st.floats(-6.0, 2.0)) * draw(st.sampled_from([0.0, 1.0, 1.0, 1.0]))
    b = r + 10.0 ** draw(st.floats(-6.0, 2.0))
    if draw(st.booleans()):
        a, b = b, a
    xtol = 10.0 ** draw(st.floats(-20.0, -2.0))
    maxiter = draw(st.sampled_from([100, 100, 100, 3, 8, 20]))
    return (lambda x: amp * shape(x, r, s)), a, b, xtol, maxiter


@PROPERTY
@given(brent_problems())
def test_brent_matches_scipy_brentq_bit_for_bit(problem):
    f, a, b, xtol, maxiter = problem
    g_oracle, seen_oracle = recording(f)
    root, converged, calls = brentq_oracle(g_oracle, a, b, xtol, states.BETA_RTOL, maxiter)
    g, seen = recording(f)
    if converged:
        assert states._brent(g, a, b, xtol, states.BETA_RTOL, maxiter).hex() == root.hex()
    else:
        with pytest.raises(NoConvergence, match=f"value is {root!r}"):
            states._brent(g, a, b, xtol, states.BETA_RTOL, maxiter)
    assert seen == seen_oracle and len(seen) == calls


def test_brent_edge_brackets_match_scipy_brentq():
    rtol = states.BETA_RTOL
    f = lambda x: x - 0.25   # noqa: E731
    for a, b in ((0.25, 1.0), (1.0, 0.25), (-1.0, 0.25), (0.25, -1.0)):   # f(a) or f(b) = 0
        g, seen = recording(f)
        root, converged, calls = brentq_oracle(f, a, b, 1e-12, rtol)
        assert states._brent(g, a, b, 1e-12, rtol) == root == 0.25
        assert converged and len(seen) == calls == 2
    for a, b in ((0.5, 1.0), (-1.0, 0.0)):   # no sign change
        with pytest.raises(ValueError):
            brentq_oracle(f, a, b, 1e-12, rtol)
        g, seen = recording(f)
        with pytest.raises(NoConvergence, match="same sign"):
            states._brent(g, a, b, 1e-12, rtol)
        assert len(seen) == 2
    slow = lambda x: math.copysign(abs(x - 0.3) ** 9, x - 0.3)   # noqa: E731
    for maxiter in (0, 1, 2, 5, 10):   # the iteration limit
        root, converged, calls = brentq_oracle(slow, 0.0, 1.0, 1e-15, rtol, maxiter)
        assert not converged
        g, seen = recording(slow)
        with pytest.raises(NoConvergence, match=f"after {maxiter} iterations, value is {root!r}"):
            states._brent(g, 0.0, 1.0, 1e-15, rtol, maxiter)
        assert len(seen) == calls == maxiter + 2
    # slopes of order 1e-292 whose product underflows: a zero denominator
    tiny = lambda x: 1.5656864290340948e-292 * math.copysign(   # noqa: E731
        abs(x - 0.2739233746429086) ** 1.2982108409263202, x - 0.2739233746429086)
    g, seen = recording(tiny)
    root, converged, calls = brentq_oracle(tiny, 0.26271396071462283, 3.026951939715893,
                                           1e-12, rtol)
    assert states._brent(g, 0.26271396071462283, 3.026951939715893, 1e-12, rtol) == root
    assert converged and len(seen) == calls
    with pytest.raises(NoConvergence, match="NaN"):
        states._brent(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0, 1e-12, rtol)


@contextmanager
def counting_builds():
    """Count the DensityMatrix and HamiltonianOp objects built in the block."""
    built = [0]
    post_init = {cls: cls.__post_init__ for cls in (DensityMatrix, HamiltonianOp)}

    def counted(cls):
        def wrapper(self):
            built[0] += 1
            post_init[cls](self)
        return wrapper

    try:
        for cls in post_init:
            cls.__post_init__ = counted(cls)
        yield built
    finally:
        for cls, original in post_init.items():
            cls.__post_init__ = original


def test_one_eigendecomposition_per_object_and_one_energy_solve_per_report():
    rng = np.random.default_rng(31)
    instances = [random_instance(rng, d) for d in (2, 3, 4, 5)]
    # the report works on the spectra its inputs already hold
    with counting_builds() as built, counting(states, "hermitian_eig") as eigs, \
            counting(linalg, "hermitian_eig") as linalg_eigs, \
            counting(states, "solve_beta_for_energy") as solves:
        for rho, h_i, h_f in instances:
            full_report(rho, h_i, h_f)
    assert built[0] == 0
    assert eigs[0] == linalg_eigs[0] == 0
    assert solves[0] == len(instances)
    # C(rho) comes from the spectra rho and h_i already hold
    with counting_builds() as built, counting(states, "hermitian_eig") as eigs, \
            counting(linalg, "hermitian_eig") as linalg_eigs:
        for rho, h_i, _ in instances:
            coherence_rel_entropy(rho, h_i)
    assert built[0] == 0
    assert eigs[0] == linalg_eigs[0] == 0
    # the passive state is the one operation that builds a DensityMatrix
    with counting_builds() as built, counting(states, "hermitian_eig") as eigs:
        for rho, _, h_f in instances:
            passive_state(rho, h_f)
    assert built[0] == len(instances)
    assert eigs[0] == built[0]


def test_a_report_canonicalizes_the_basis_of_h_i_alone():
    # the report reads rho's values and h_f's energies; only h_i's basis,
    # for rho's energy populations, is canonicalized, once
    rng = np.random.default_rng(36)
    for d in (2, 3, 4, 5):
        rho, h_i, h_f = random_instance(rng, d)
        with counting(linalg, "_canonicalize") as formed:
            full_report(rho, h_i, h_f)
            assert formed[0] == 1
            h_i.basis
            assert formed[0] == 1
            rho.eig().vectors, h_f.basis
            assert formed[0] == 3


def test_one_hermiticity_check_per_object():
    # DensityMatrix checks and symmetrizes its matrix itself; its one
    # hermitian_eig then neither re-checks nor re-symmetrizes it
    rng = np.random.default_rng(34)
    instances = [random_instance(rng, d) for d in (2, 3, 4, 5)]
    with counting_builds() as built, counting(linalg, "hermiticity_defect") as checks:
        for rho, h_i, h_f in instances:
            full_report(rho, h_i, h_f)
            coherence_rel_entropy(rho, h_i)
            passive_state(rho, h_f)
            DensityMatrix(rho.mat)
            HamiltonianOp(h_f.mat)
    assert built[0] > 2 * len(instances)
    assert checks[0] == built[0]


def test_checked_eigendecomposition_is_bit_identical():
    rng = np.random.default_rng(35)
    for d in (2, 3, 5):
        rho, h, _ = random_instance(rng, d)
        for m in (rho.mat, h.mat):
            a, b = linalg.hermitian_eig(m), linalg.hermitian_eig(m, scale=linalg.entry_scale(m))
            assert a.values.tobytes() == b.values.tobytes()
            assert a.vectors.tobytes() == b.vectors.tobytes()


def test_density_matrix_canonicalizes_on_its_unclamped_values():
    # eigh gives the first two levels as -1e-13 and 0, further apart than
    # roundoff, so each keeps its own vector; clamped to 0 and 0 they would
    # be one block, re-based onto the first two unit vectors
    rho = DensityMatrix(np.diag([0.0, -1e-13, 1.0 + 1e-13]))
    assert rho.eig().values[:2].tolist() == [0.0, 0.0]
    assert np.array_equal(rho.eig().vectors, np.eye(3)[:, [1, 0, 2]])


def test_cached_spectra_are_read_only():
    rng = np.random.default_rng(33)
    rho, h, _ = random_instance(rng, 3)
    assert rho.eig() is rho.eig()
    arrays = [rho.eig().values, rho.eig().vectors, rho.populations_desc(),
              h.energies, h.basis]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0.0
