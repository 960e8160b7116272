"""ergodrive benchmark: one workload per call, closed loop, one caller.

    python3 bench/run.py --workload instance-reports --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Each call starts fresh single-threaded worker processes (BLAS pinned to one
thread): a few that only set up, then one that also runs the workload for
--seconds. Every output is checked. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run (the program's
public functions wrapped from outside, untraced and traced passes alternating,
counts exact per pass and times the median over passes). End-to-end op
timings are scaled, sample by sample, to a reference host speed measured by
a fixed probe (see REFERENCE_PROBE_S in worker.py). The line before it is
the run record: the same figures under the workloads' own names, their
unscaled values, per-command medians,
the tail percentile and sample count, and the edge-domain probe of ROADMAP 4a.

A change that claims a gain must also hold on the held-back seed
(--seed 20210611), which no tuning may use.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import metric_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("instance-reports", "drive-synth", "figure-sweeps")
HOLDOUT_SEED = 20210611
SETUP_PROBES = 4          # set-up-only processes, plus the measured one
TIMEOUT_S = 170.0
# end-to-end metric -> its name in the run record, per workload
RECORD_NAMES = {
    "instance-reports": {"ops_per_s": "reports_per_s", "op_p50_ms": "report_round_p50_ms",
                         "op_tail_ms": "report_round_tail_ms"},
    "drive-synth": {"ops_per_s": "drives_per_s", "op_p50_ms": "drive_round_p50_ms",
                    "op_tail_ms": "drive_round_tail_ms"},
    "figure-sweeps": {"ops_per_s": "figures_per_s", "op_p50_ms": "figure_round_p50_ms",
                      "op_tail_ms": "figure_round_tail_ms"},
}


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, workdir, deadline, setup_only):
    """(set-up seconds, final stdout line or None) of one worker process."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--spans", str(BENCH / "out" / f"spans-{args.workload}-{args.seed}.json")]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if ready.strip() != "READY":
            raise RuntimeError("worker failed during set-up")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, (lines[-1] if lines else None)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw, setups):
    """Op timings come from the worker, scaled to a reference host speed;
    the run record keeps the unscaled figures."""
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(raw["peak_rss_mb"], "MB"),
        "ops_per_s": _metric(raw["ops_per_s"], "1/s"),
        "op_p50_ms": _metric(raw["p50_s"] * 1e3, "ms"),
        "op_tail_ms": _metric(raw["tail_s"] * 1e3, "ms"),
    }


def record(args, raw, metrics, setups):
    """The run record: the figures under the names the workload's users know."""
    rec = {"workload": args.workload, "seed": args.seed, "holdout_seed": HOLDOUT_SEED,
           "trace": args.trace, "attempted": raw["attempted"], "failed": raw["failed"],
           "failed_frac": raw["failed"] / raw["attempted"], "failures": raw["failures"],
           "peak_rss_mb": raw["peak_rss_mb"]}
    if args.trace:
        rec["trace_rounds"] = raw["trace_rounds"]
        return rec
    names = RECORD_NAMES[args.workload]
    rec.update({names.get(k, k): v["value"] for k, v in metrics.items()})
    rec.update(samples=raw["samples"], tail_percentile=raw["tail_pct"],
               speed_probe_ms=raw["probe_s"] * 1e3,
               unscaled={names[k]: v["value"] for k, v in end_to_end(
                   dict(raw, **raw["unscaled"]), setups).items() if k in names},
               op_kind_median_ms={k: v * 1e3 for k, v in raw["kind_median_s"].items()})
    if args.workload == "drive-synth":
        rec["drive_state_dist_max"] = raw["state_dist_max"]
    if args.workload == "figure-sweeps":
        rec.update({f"{k}_s": v for k, v in raw["kind_median_s"].items() if k != "counterexample"})
        rec["cells_changed"] = raw["cells_changed"]
    if "edge_probe" in raw:
        rec["edge_probe"] = raw["edge_probe"]
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="workload seed")
    ap.add_argument("--seconds", type=float, required=True, help="measured run length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ergodrive" / "__init__.py").is_file():
        sys.stderr.write(f"no ergodrive sources under {ROOT / 'src'}\n")
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    workdir = BENCH / "out" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_spawn(args, workdir, deadline, setup_only=True)[0])
        setup, line = _spawn(args, workdir, deadline, setup_only=False)
        setups.append(setup)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if line is None:
        sys.stderr.write("worker printed no result\n")
        return 1
    raw = json.loads(line)
    if args.trace:
        units = metric_units()
        metrics = {k: _metric(v, units[k]) for k, v in raw["layers"].items()}
    else:
        metrics = end_to_end(raw, setups)
    print(json.dumps(record(args, raw, metrics, setups)))
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
