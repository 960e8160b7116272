"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 bench/record_reference.py

Writes bench/reference/: the reports of the fixed reference instances, the
fig1 crossover, and the gzipped CSV of every figure command at the
benchmark's configs (fig1 with seed REFERENCE_FIG1_SEED). Re-recording is a
change of the benchmark, never part of a change that claims a gain.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys

import workloads


def main():
    out = workloads.REFERENCE_DIR
    out.mkdir(exist_ok=True)
    reports = [workloads.run_report(op) for op in workloads.reference_report_instances()]
    work = out / "tmp"
    runner = workloads.FigureRunner(work)
    crossover = None
    try:
        for op in workloads.figure_round(workloads.REFERENCE_FIG1_SEED):
            res = runner(op)
            if op["kind"] == "fig1":
                crossover = res["stderr"].split(" = ")[1].strip()
            (out / f"{op['kind']}.csv.gz").write_bytes(gzip.compress(res["csv"], 9, mtime=0))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = {"reports": reports, "fig1_crossover": crossover}
    (out / "values.json").write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
