"""Span tracing of ergodrive's public functions, installed from outside the package.

Tracer.install() replaces every module-level binding of each named function
(and the class attribute of each named method) with a wrapper that records a
span: name, start, end and parent. Spans stay in memory; metrics() turns them
into per-layer counts and self times, where a span's self time is its
duration minus the time covered by its child spans. uninstall() puts every
original binding back. Only the traced run uses this; end-to-end metrics come
from untraced runs.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import time
from collections import defaultdict

# layer (module of src/ergodrive) -> functions and methods given spans
TARGETS = {
    "linalg": ("hermitian_eig", "herm_expi_batch", "principal_log_unitary", "reunitarize"),
    "states": ("DensityMatrix.__init__", "DensityMatrix.eig", "HamiltonianOp.__init__",
               "solve_beta_for_energy", "solve_beta_for_entropy"),
    "ergotropy": ("full_report", "decompose", "delta_noncyclic", "upper_bound_delta",
                  "gain_g"),
    "drives": ("propagate_u0", "final_unitary", "synthesize_drive", "verify_drive",
               "optimize_phases"),
    "tls": ("example1_phase_average", "example2_theta_split"),
    "cli": ("run_ergotropy", "run_drive_synth", "run_fig1", "run_fig2", "run_fig3",
            "write_csv"),
}
# counted without a span, so their time stays in the caller's self time
COUNTED = {"states": ("thermal_populations",)}
_SOLVES = ("states.solve_beta_for_energy", "states.solve_beta_for_entropy")


def _span_name(layer, target):
    return f"{layer}.{target.replace('.__init__', '.init')}"


# metric fields reported under each span name (units in UNITS)
LAYER_METRICS = {
    "linalg.hermitian_eig": ("calls", "self_s"),
    "linalg.herm_expi_batch": ("calls", "matrices", "self_s"),
    "linalg.principal_log_unitary": ("calls", "self_s"),
    "linalg.reunitarize": ("calls", "self_s"),
    "states.DensityMatrix.init": ("calls", "self_s"),
    "states.DensityMatrix.eig": ("calls", "per_state"),
    "states.HamiltonianOp.init": ("calls", "self_s"),
    "states.solve_beta_for_energy": ("calls", "self_s"),
    "states.solve_beta_for_entropy": ("calls", "self_s"),
    "states.beta_solve": ("evals_per_solve", "saturated"),
    "ergotropy.full_report": ("self_s",),
    "ergotropy.decompose": ("self_s",),
    "ergotropy.delta_noncyclic": ("self_s",),
    "ergotropy.upper_bound_delta": ("calls", "self_s"),
    "ergotropy.gain_g": ("calls", "self_s"),
    "ergotropy.edge_probe": ("failed",),
    "drives.propagate_u0": ("calls", "steps", "self_s", "drift_max"),
    "drives.final_unitary": ("calls", "self_s"),
    "drives.synthesize_drive": ("self_s",),
    "drives.verify_drive": ("self_s", "state_dist_max"),
    "drives.optimize_phases": ("calls", "phase_vectors", "self_s"),
    "tls.example1_phase_average": ("calls", "draws", "self_s"),
    "tls.example2_theta_split": ("calls", "self_s"),
    "cli.run_ergotropy": ("self_s",),
    "cli.run_drive_synth": ("self_s",),
    "cli.run_fig1": ("self_s",),
    "cli.run_fig2": ("self_s",),
    "cli.run_fig3": ("self_s",),
    "cli.write_csv": ("self_s", "bytes"),
    "cli.sweep": ("cells_changed",),
}
UNITS = {"calls": "count", "self_s": "s", "matrices": "count", "per_state": "calls/state",
         "evals_per_solve": "evals/solve", "saturated": "count", "failed": "count",
         "steps": "count", "drift_max": "frobenius", "state_dist_max": "trace_dist",
         "phase_vectors": "count", "draws": "count", "bytes": "B", "cells_changed": "count",
         "overhead_frac": "ratio"}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for base, fields in LAYER_METRICS.items():
        for f in fields:
            out[f"{base}.{f}"] = UNITS[f]
    for layer in TARGETS:
        out[f"{layer}.self_s"] = "s"
    out["trace.overhead_frac"] = UNITS["overhead_frac"]
    return out


def _resolve(module, target):
    obj = module
    for part in target.split("."):
        obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


class Tracer:
    """Installs span wrappers; one instance per traced pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self._solve_depth = 0
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)
        self._states = {}        # id -> DensityMatrix whose eig() ran
        self._restore = []       # (namespace, attribute, original)
        self._beta_max_scale = 1e4

    # ------------------------------------------------------------ install

    def install(self):
        import ergodrive  # noqa: F401  (loads every submodule)
        from ergodrive import states
        self._beta_max_scale = getattr(states, "BETA_MAX_SCALE", 1e4)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ergodrive" or name.startswith("ergodrive."))]
        plan = [(layer, t, True) for layer, ts in TARGETS.items() for t in ts]
        plan += [(layer, t, False) for layer, ts in COUNTED.items() for t in ts]
        for layer, target, span in plan:
            module = sys.modules[f"ergodrive.{layer}"]
            try:
                original = _resolve(module, target)
            except (AttributeError, KeyError):
                continue   # renamed or removed: its metrics read zero
            name = _span_name(layer, target)
            wrapper = self._wrap(name, original, span)
            if "." in target:
                cls_name, attr = target.rsplit(".", 1)
                cls = getattr(module, cls_name)
                self._restore.append((cls, attr, original))
                setattr(cls, attr, wrapper)
                continue
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, original))
                        setattr(m, attr, wrapper)
        return self

    def uninstall(self):
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn, span):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        sig = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack
        solve = name in _SOLVES

        if not span:
            def counted(*args, **kwargs):
                if self._solve_depth:
                    self.counts[name + ".in_solve"] += 1
                return fn(*args, **kwargs)
            return counted

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            self._solve_depth += solve
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._solve_depth -= solve
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # ------------------------------------------------------------ counters

    def _on_linalg_herm_expi_batch(self, a, result):
        self.counts["linalg.herm_expi_batch.matrices"] += math.prod(a["h"].shape[:-2])

    def _on_states_DensityMatrix_eig(self, a, result):
        self._states[id(a["self"])] = a["self"]

    def _on_states_solve_beta_for_entropy(self, a, result):
        beta_max = self._beta_max_scale / a["h"].spectral_width
        if result.beta >= beta_max * (1 - 1e-12):
            self.counts["states.beta_solve.saturated"] += 1

    def _on_drives_propagate_u0(self, a, result):
        self.counts["drives.propagate_u0.steps"] += a["sched"].n_steps
        self.maxima["drives.propagate_u0.drift_max"] = max(
            self.maxima["drives.propagate_u0.drift_max"], float(result.unitarity_drift))

    def _on_drives_optimize_phases(self, a, result):
        d = a["rho_i"].dim
        vectors = {"grid": a["grid_points"] ** d, "monte_carlo": a["n_draws"]}
        self.counts["drives.optimize_phases.phase_vectors"] += vectors.get(a["mode"], 0)

    def _on_tls_example1_phase_average(self, a, result):
        self.counts["tls.example1_phase_average.draws"] += a["n_draws"]

    def _on_cli_write_csv(self, a, result):
        if a["path"] is not None:
            self.counts["cli.write_csv.bytes"] += os.path.getsize(a["path"])

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded so far (check metrics read 0)."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (name, t0, t1, _), covered in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (t1 - t0) - covered
        out = {}
        for metric in metric_units():
            base, field = metric.rsplit(".", 1)
            if field == "calls":
                out[metric] = calls[base]
            elif field == "self_s" and base in TARGETS:
                out[metric] = sum(v for k, v in self_s.items() if k.startswith(base + "."))
            elif field == "self_s":
                out[metric] = self_s[base]
            else:
                out[metric] = self.counts.get(metric, self.maxima.get(metric, 0))
        solves = sum(calls[s] for s in _SOLVES)
        evals = self.counts["states.thermal_populations.in_solve"]
        out["states.beta_solve.evals_per_solve"] = evals / solves if solves else 0.0
        eig_calls = calls["states.DensityMatrix.eig"]
        out["states.DensityMatrix.eig.per_state"] = (eig_calls / len(self._states)
                                                     if self._states else 0.0)
        return out
