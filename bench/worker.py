"""One workload in one fresh process: set up, signal READY, run, print a JSON line.

Started by run.py with the package's sources on PYTHONPATH and every BLAS
pool pinned to one thread. Protocol on stdout: the line READY once the
package is imported and the inputs are generated (set-up ends there), then,
unless --setup-only, one JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import workloads  # imports ergodrive and numpy: part of set-up
from tracing import Tracer, metric_units

# A sample is one round of consecutive ops: four reports (d = 2..5 and the
# edge cases), three drives (d = 2, 3, 4) or the four figure commands. A
# round's latency is unimodal where single ops of the mix are not, and a
# short stall of the shared host is a smaller part of it.
ROUND = {"instance-reports": 4, "drive-synth": 3, "figure-sweeps": 4}
# tail percentile per workload: the highest with at least ten samples beyond
# it at the benchmark's run length, except on instance-reports, whose p99
# measures the shared host's stalls more than the program
TAIL_PERCENTILE = {"instance-reports": 90.0, "drive-synth": 75.0, "figure-sweeps": 75.0}
# The shared host's speed drifts by tens of percent within seconds. A fixed
# probe computation runs PROBE_REPEAT times after every op, and each sample's
# latency is scaled to the host speed at which the probe takes
# REFERENCE_PROBE_S, using the median probe time over the sample and its two
# neighbours, raised to SPEED_EXPONENT. Long ops get more probes so that the
# probe keeps pace with them.
REFERENCE_PROBE_S = 2.1e-3
# d log(op time) / d log(probe time) as the host's speed changes, measured on
# the machine in bench/baseline.json: drives slow down less than the probe
SPEED_EXPONENT = {"instance-reports": 1.0, "drive-synth": 0.75, "figure-sweeps": 1.0}
PROBE_REPEAT = {"instance-reports": 1, "drive-synth": 4, "figure-sweeps": 4}
PROBE_NEIGHBOURS = 1
THROUGHPUT_WINDOWS = 8   # ops_per_s is the median of the windows' throughputs
MAX_EXTENSION_S = 60.0   # a slower program may run past --seconds to reach the sample count
TRACE_OPS = {"instance-reports": 96, "drive-synth": 6, "figure-sweeps": 4}
WARMUP_OPS = {"instance-reports": 8, "drive-synth": 3, "figure-sweeps": 4}


def min_samples(pct):
    return math.ceil(10 / (1 - pct / 100) - 1e-9)


class Workload:
    """Runs ops of one workload and checks each output; failures are counted."""

    def __init__(self, name, ops, workdir=None):
        self.name = name
        self.ops = ops
        self.workdir = workdir
        self.attempted = 0
        self.failures = []          # (op kind, message)
        self.cells_changed = 0
        self.state_dist_max = 0.0
        self._run = None
        self._check = None

    def prepare(self):
        """Load references and build the op runner; not part of set-up time."""
        if self.name == "instance-reports":
            refs = json.loads((workloads.REFERENCE_DIR / "values.json").read_text())["reports"]
            self._run = workloads.run_report
            self._check = lambda op, out: workloads.check_report(
                op, out, refs[op["ref"]] if "ref" in op else None)
        elif self.name == "drive-synth":
            self._run = workloads.run_drive
            self._check = self._check_drive
        else:
            self._run = workloads.FigureRunner(self.workdir)
            self._check = self._check_figure(workloads.FigureChecker())

    def _check_drive(self, op, out):
        failure = workloads.check_drive(op, out)
        if failure is None:
            self.state_dist_max = max(self.state_dist_max,
                                      out["residuals"]["state_distance"])
        return failure

    def _check_figure(self, checker):
        def check(op, out):
            failure, changed = checker(op, out)
            self.cells_changed += changed
            return failure
        return check

    def run_op(self, op):
        """Seconds the op took; its output is checked afterwards, untimed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self._run(op)
        except Exception as exc:   # the loop must go on; the op counts as failed
            self.failures.append((op["kind"], f"{type(exc).__name__}: {exc}"))
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        try:
            failure = self._check(op, out)
        except (KeyError, TypeError, ValueError) as exc:
            failure = f"malformed output: {exc!r}"
        if failure is not None:
            self.failures.append((op["kind"], failure))
        return elapsed


def _probe_matrices():
    g = np.random.default_rng(12345).normal(size=(2, 4, 4, 4))
    g = g[0] + 1j * g[1]
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


def speed_probe(mats):
    """Seconds of a fixed computation shaped like the ops: small eigensolves,
    a Python bisection over Gibbs weights and a vectorised pass over seeded
    phase draws. It is the benchmark's own code, so only the shared host's
    speed moves it."""
    t0 = time.perf_counter()
    for i, h in enumerate(mats):
        w = np.linalg.eigvalsh(h)
        lo, hi = -10.0, 10.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            p = np.exp(-mid * (w - w[0]))
            if (p / p.sum()) @ w > 0.0:
                lo = mid
            else:
                hi = mid
        phi = np.random.default_rng([7, i]).uniform(-np.pi, np.pi, size=(2, 1024))
        gam = np.arccos(np.clip(0.7 * np.cos(0.5 * (phi[0] - phi[1])), -1.0, 1.0))
        tp = (0.5 * (phi[0] + phi[1]) + gam + np.pi) % (2 * np.pi) - np.pi
        np.sqrt(tp**2 + gam**2).mean()
    return time.perf_counter() - t0


def _percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def _timings(latencies, size, pct):
    """ops_per_s (median over contiguous windows), p50 and tail of sample latencies."""
    w = min(THROUGHPUT_WINDOWS, len(latencies))
    m = len(latencies) // w
    windows = [latencies[i * m:(i + 1) * m] for i in range(w)]
    return {"ops_per_s": statistics.median(size * len(x) / sum(x) for x in windows),
            "p50_s": statistics.median(latencies),
            "tail_s": _percentile(latencies, pct)}


def measure(work, seconds):
    """Closed loop over the op list for `seconds` (longer if samples are short).

    The speed probe runs after every op, outside the timed ops.
    """
    pct = TAIL_PERCENTILE[work.name]
    need = min_samples(pct)
    size, n, repeat = ROUND[work.name], len(work.ops), PROBE_REPEAT[work.name]
    latencies, kinds, probes, mats = [], {}, [], _probe_matrices()
    start = time.perf_counter()
    k = 0
    while True:
        total, sample_probes = 0.0, []
        for op in (work.ops[(k + j) % n] for j in range(size)):
            dt = work.run_op(op)
            total += dt
            kinds.setdefault(op["kind"], []).append(dt)
            sample_probes.extend(speed_probe(mats) for _ in range(repeat))
        latencies.append(total)
        probes.append(sample_probes)
        k += size
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(latencies) >= need or elapsed >= seconds + MAX_EXTENSION_S):
            break
    while len(latencies) < need and pct > 50.0:   # extension ran out: fall back
        pct = {90.0: 75.0, 75.0: 50.0}[pct]
        need = min_samples(pct)
    h = PROBE_NEIGHBOURS
    speed = [statistics.median(p for s in probes[max(0, i - h):i + h + 1] for p in s)
             for i in range(len(probes))]
    alpha = SPEED_EXPONENT[work.name]
    scaled = [t * (REFERENCE_PROBE_S / s) ** alpha for t, s in zip(latencies, speed)]
    return dict(_timings(scaled, size, pct),
                samples=len(latencies), tail_pct=pct,
                unscaled=_timings(latencies, size, pct),
                kind_median_s={k: statistics.median(v) for k, v in kinds.items()},
                probe_s=statistics.median(p for s in probes for p in s))


def edge_probe():
    """(attempted, failed, messages) of the low-entropy edge-probe reports."""
    probe = Workload("instance-reports", workloads.edge_probe_instances())
    probe.prepare()
    for op in probe.ops:
        probe.run_op(op)
    return probe.attempted, len(probe.failures), probe.failures


def trace_rounds(work, seconds, spans_path):
    """Alternate untraced and traced passes over a fixed op list until `seconds`.

    Counts are those of the last traced pass (every pass runs the same ops),
    times the median over passes; the last pass's spans go to spans_path.
    """
    ops = work.ops[:TRACE_OPS[work.name]]
    rounds, start = [], time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        wall_u = sum(work.run_op(op) for op in ops)
        work.cells_changed, work.state_dist_max = 0, 0.0
        with Tracer() as tracer:
            wall_t = sum(work.run_op(op) for op in ops)
        m = tracer.metrics()
        m["trace.overhead_frac"] = (wall_t - wall_u) / wall_u
        m["cli.sweep.cells_changed"] = work.cells_changed
        m["drives.verify_drive.state_dist_max"] = work.state_dist_max
        rounds.append(m)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"names": ["name", "start_s", "end_s", "parent"],
                                      "spans": tracer.spans}))
    out = {}
    for name, unit in metric_units().items():
        values = [r[name] for r in rounds]
        timed = unit == "s" or name == "trace.overhead_frac"
        out[name] = statistics.median(values) if timed else values[-1]
    return out, len(rounds)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True, help="scratch directory for CSVs")
    ap.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    work = Workload(args.workload, workloads.make_inputs(args.workload, args.seed),
                    Path(args.workdir))
    print("READY", flush=True)
    if args.setup_only:
        return 0
    work.prepare()
    for op in work.ops[:WARMUP_OPS[work.name]]:
        work.run_op(op)           # warm-up (checked and counted, not timed)

    result = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        layers, rounds = trace_rounds(work, args.seconds, args.spans)
        if args.workload == "instance-reports":
            layers["ergotropy.edge_probe.failed"] = edge_probe()[1]
        result.update(layers=layers, trace_rounds=rounds)
    else:
        result.update(measure(work, args.seconds))
        result["cells_changed"] = work.cells_changed
        result["state_dist_max"] = work.state_dist_max
        if args.workload == "instance-reports":
            attempted, failed, messages = edge_probe()
            result["edge_probe"] = {"attempted": attempted, "failed": failed,
                                    "errors": sorted({m for _, m in messages})}
    result.update(attempted=work.attempted, failed=len(work.failures),
                  failures=work.failures[:20],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
