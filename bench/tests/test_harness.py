"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import ergodrive  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ergodrive import cli  # noqa: E402
from ergodrive.errors import NoConvergence  # noqa: E402
from worker import Workload  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(name):
    first = workloads.inputs_bytes(workloads.make_inputs(name, 3))
    assert first == workloads.inputs_bytes(workloads.make_inputs(name, 3))
    assert first != workloads.inputs_bytes(workloads.make_inputs(name, 4))


def _bindings():
    """Every attribute of every ergodrive module and traced class, by identity."""
    out = {}
    for name, module in sys.modules.items():
        if name == "ergodrive" or name.startswith("ergodrive."):
            out.update({(name, k): id(v) for k, v in vars(module).items()})
    for cls in (ergodrive.DensityMatrix, ergodrive.HamiltonianOp):
        out.update({(cls.__name__, k): id(v) for k, v in vars(cls).items()})
    return out


def test_tracer_replaces_and_restores_every_binding():
    before = _bindings()
    original = ergodrive.states.hermitian_eig
    with tracing.Tracer() as tracer:
        # states imports hermitian_eig by name: that binding is wrapped too
        assert ergodrive.states.hermitian_eig is not original
        assert ergodrive.linalg.hermitian_eig is ergodrive.states.hermitian_eig
        op = workloads.make_inputs("instance-reports", 0)[1]
        cli.run_ergotropy(op["cfg"])
    assert _bindings() == before
    m = tracer.metrics()
    assert set(m) == set(tracing.metric_units())
    assert m["cli.run_ergotropy.self_s"] > 0
    assert m["linalg.hermitian_eig.calls"] > 0
    assert m["states.beta_solve.evals_per_solve"] > 0
    names = {s[0]: i for i, s in enumerate(tracer.spans)}
    eig = [s for s in tracer.spans if s[0] == "linalg.hermitian_eig"]
    assert any(tracer.spans[s[3]][0] == "states.DensityMatrix.eig" for s in eig)
    assert tracer.spans[names["ergotropy.full_report"]][3] >= 0   # under run_ergotropy


def test_fig1_csv_is_identical_for_one_and_two_threads(tmp_path):
    small = {"fig1": {"p_points": 6, "c_points": 5, "mc_draws": 64}}
    runner = workloads.FigureRunner(tmp_path, small)
    op = {"kind": "fig1", "cfg": small["fig1"], "seed": 11}
    assert runner(op, threads=1)["csv"] == runner(op, threads=2)["csv"]


def test_known_pure_state_is_counted_not_raised():
    op = workloads.edge_probe_instances()[0]
    try:
        cli.run_ergotropy(op["cfg"])
        raises = False
    except NoConvergence:
        raises = True
    work = Workload("instance-reports", [op])
    work.prepare()
    work.run_op(op)
    assert work.attempted == 1
    assert len(work.failures) == int(raises)


def test_report_checks_accept_references_and_catch_a_wrong_value():
    refs = json.loads((workloads.REFERENCE_DIR / "values.json").read_text())["reports"]
    ops = workloads.reference_report_instances()
    for op, ref in zip(ops, refs):
        assert workloads.check_report(op, cli.run_ergotropy(op["cfg"]), ref) is None
    bad = dict(refs[1], e_coh=refs[1]["e_coh"] + 1e-6)
    assert workloads.check_report(ops[1], bad) is not None


@pytest.mark.parametrize("k", [0, 1, 2])
def test_drive_oracle_agrees_with_the_package(k):
    op = workloads.make_inputs("drive-synth", 5)[k]
    out = workloads.run_drive(op)
    assert workloads.check_drive(op, out) is None
    want = workloads.drive_wmin_oracle(op["cfg"], out["phases_phi"])
    assert abs(out["w_min"] - want) <= 1e-6 * want
    assert workloads.check_drive(op, dict(out, w_min=out["w_min"] * (1 + 1e-5))) is not None


def test_figure_round_matches_the_reference_byte_for_byte(tmp_path):
    runner, checker = workloads.FigureRunner(tmp_path), workloads.FigureChecker()
    for op in workloads.make_inputs("figure-sweeps", 2):
        out = runner(op)
        assert checker(op, out) == (None, 0)
        if op["kind"] == "fig3":
            cells = out["csv"].split(b"\n")
            cells[5] = cells[5].replace(b",", b"0,", 1)    # one cell, same value
            failure, changed = checker(op, dict(out, csv=b"\n".join(cells)))
            assert (failure, changed) == (None, 1)
            cells[5] = b"9" + cells[5]
            assert checker(op, dict(out, csv=b"\n".join(cells)))[0] is not None


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert spec["end_to_end"][0]["name"] == "setup_s"
    assert run.WORKLOADS == workloads.WORKLOADS


def test_edge_probe_and_edge_kinds_are_in_the_documented_domain():
    kinds = {op["kind"] for op in workloads.make_inputs("instance-reports", 1)}
    assert set(workloads.EDGE_KINDS) <= kinds
    for op in workloads.edge_probe_instances():
        p = np.linalg.eigvalsh(workloads.mat_from_json(op["cfg"]["rho_i"]))
        assert np.isclose(p.sum(), 1.0) and p.min() > -1e-15
        p = p[p > 0]
        assert -(p * np.log(p)).sum() < 0.5      # the low-entropy corner of ROADMAP 4a
