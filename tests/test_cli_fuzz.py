"""The figure commands fuzzed over their declared domain, cli.CONFIG_KEYS.

Every key of a command is drawn: a valid value, or one of the float
boundaries 0, -0.0, 5e-324, 1e-320 and +-1e308; then up to two keys get a
wrong JSON type or an integer beyond float range, and sometimes a key is
misspelled. cli.main runs in process with every warning
an error; it must either print finite columns (exit 0) or refuse with one
JSON line on stderr (exit 2 or 3). drive-synth and ergotropy are left out:
their matrices need strategies of their own, and drive-synth's tau range is
still an open defect (a tau of 1e30 leaks RuntimeWarnings).
"""

import contextlib
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodrive import cli

BOUNDARY = st.sampled_from([0, -0.0, 5e-324, 1e-320, 1e308, -1e308])
WRONG_TYPE = st.sampled_from([None, True, "1", [1.0], {"x": 1}])
BEYOND_FLOAT = st.integers(2**1024, 10**400)


def valid(parse, default):
    """Values the parser takes, mostly: a real number is its default or within
    half of it, and a grid has at most 5 x 5 cells."""
    if parse is cli._points:
        return st.integers(1, 5)
    if parse is cli._draws:
        return st.sampled_from([0, 2, 3, 16])
    if parse is cli._numbers:
        return st.lists(st.floats(0.0, 1.0), max_size=3)
    if default is None or default == 0:
        return st.floats(1e-3 if parse is cli._positive else 0.0, 1.0)
    return st.just(default) | st.floats(0.5 * default, 1.5 * default)


@st.composite
def configs(draw, command):
    keys = cli.CONFIG_KEYS[command]
    cfg = {key: draw(BOUNDARY if draw(st.integers(0, 7)) == 7 else valid(parse, default))
           for key, (parse, default) in keys.items()}
    n_faults = draw(st.sampled_from([0, 0, 1, 2]))
    for key in draw(st.lists(st.sampled_from(list(keys)), min_size=n_faults,
                             max_size=n_faults, unique=True)):
        cfg[key] = draw(st.one_of(WRONG_TYPE, BEYOND_FLOAT))
    if draw(st.integers(0, 7)) == 7:
        key = draw(st.sampled_from(list(keys)))
        cfg[key[:-1]] = cfg.pop(key)
    return cfg


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cfg.json"


def check_run(command, cfg, path):
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main([command, "--config", str(path)])
    out, err = out.getvalue(), err.getvalue()
    if code != 0:
        assert code in (2, 3) and out == ""
        payload = json.loads(err)
        assert err.count("\n") == 1 and set(payload) == {"error", "message"}
        return
    lines = out.splitlines()
    header = lines[0].split(",")
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    table = table.reshape(-1, len(header))
    if command == "fig1":
        assert re.fullmatch(r"crossover_p = \S+\n", err)   # NaN where no crossover
        if cfg["mc_draws"] == 0:      # no Monte Carlo columns: NaN, as documented
            table = table[:, :header.index("w_mc_mean")]
    else:
        assert err == ""
    assert np.isfinite(table).all()


FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None)


@FUZZ
@given(cfg=configs("fig1"))
def test_fig1_answers_or_refuses_every_config(cfg, config_path):
    check_run("fig1", cfg, config_path)


@FUZZ
@given(cfg=configs("fig2"))
def test_fig2_answers_or_refuses_every_config(cfg, config_path):
    check_run("fig2", cfg, config_path)


@FUZZ
@given(cfg=configs("fig3"))
def test_fig3_answers_or_refuses_every_config(cfg, config_path):
    check_run("fig3", cfg, config_path)


@FUZZ
@given(cfg=configs("counterexample"))
def test_counterexample_answers_or_refuses_every_config(cfg, config_path):
    check_run("counterexample", cfg, config_path)
