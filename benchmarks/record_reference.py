#!/usr/bin/env python3
"""Record the reference curves that the benchmark checks every run against.

Run from the repository root, on the commit whose output is the reference:

    python3 benchmarks/record_reference.py

For each run workload and each of the recorded master seeds this runs the
workload's command serially (``--workers 1``, so the benchmark's
``--workers 2`` runs are also checked against a serial run) and stores, per
algorithm, ``trials_diverged``, the mean of the curve over all iterations and
every ``stride``-th point, in ``reference/<workload>.json``.
"""

import json
import shutil
import sys
from dataclasses import replace

import bench
import workloads as wl


def record(workload, workdir, master_seeds):
    serial = replace(workload, workers=1)
    seeds = {}
    for master in master_seeds:
        # --seed s runs master seed 1 + s % RECORDED_SEEDS
        args, _, csv_path = wl.prepare(serial, master - 1, workdir, checked=False)
        _, _, code, _, stderr = bench.run_process(bench.cli_command(args), workdir, "record")
        if code != 0:
            raise SystemExit(f"{workload.name} seed {master}: exit {code}: {stderr}")
        seeds[str(master)] = wl.summarize_curves(wl.read_curves(csv_path), workload.stride)
    return {
        "workload": workload.name,
        "recorded_with": "sparselms run --workers 1",
        "stride": workload.stride,
        "tolerance_db": wl.CURVE_TOLERANCE_DB,
        "config_seed_1": workload.config_text(1),
        "seeds": seeds,
    }


def main():
    bench.pin_threads()
    bench.WORK.mkdir(exist_ok=True)
    workdir = bench.WORK / "record"
    workdir.mkdir(exist_ok=True)
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for workload in wl.WORKLOADS.values():
            if workload.kind != "run":
                continue
            data = record(workload, workdir, range(1, wl.RECORDED_SEEDS + 1))
            path = wl.reference_path(workload)
            path.write_text(json.dumps(data, indent=1) + "\n")
            print(f"wrote {path.relative_to(bench.ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
