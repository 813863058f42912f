#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about a minute).

Run from the repository root:

    python3 benchmarks/selftest.py

Checks that:
- BENCHMARK.json names exactly the workloads and metrics the scripts emit;
- every workload, with --trace 0 and --trace 1, prints a last line with the
  result keys and every metric with its unit, and passes its checks;
- a corrupted curve or diverged count is reported as a failure, both by the
  checker and by a whole benchmark run;
- in a directory without the sparselms sources the benchmark exits non-zero
  without printing a result.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import bench
import layers
import record_reference
import workloads as wl

TINY = {
    "reference": replace(wl.WORKLOADS["reference"], iterations=60, probe_trials=1),
    "short_trials": replace(wl.WORKLOADS["short_trials"], iterations=40, trials=6),
    "noise_validate": replace(wl.WORKLOADS["noise_validate"], samples=200_000),
}


def spec():
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seed=3):
    """bench.main in this process; returns (exit code, last-line result)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(["--workload", workload, "--seed", str(seed),
                           "--seconds", "0.1", "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), out.getvalue()


def check_spec_matches_scripts():
    data = spec()
    assert [w["name"] for w in data["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in data["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in data["per_layer"]} == layers.UNITS
    assert data["paths"] == [bench.BENCH_DIR.name]


def check_every_metric_emitted():
    data = spec()
    expected = {0: {m["name"]: m["unit"] for m in data["end_to_end"]},
                1: {m["name"]: m["unit"] for m in data["per_layer"]}}
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            code, result, text = run_bench(name, trace)
            assert code == 0, text
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, text
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (name, trace, got)
            for metric, value in result["metrics"].items():
                assert set(value) == {"value", "unit"}
                assert math.isfinite(value["value"]), (name, metric, value)
            print(f"ok: {name} --trace {trace} emits {len(got)} metrics")


def check_corruption_fails():
    workload = wl.WORKLOADS["reference"]
    master = workload.master_seed(3)
    path = wl.reference_path(workload)
    pristine = path.read_text()

    work = bench.WORK / "selftest"
    args, _, csv_path = wl.prepare(workload, 3, work)
    _, _, code, _, _ = bench.run_process(bench.cli_command(args), work, "corrupt")
    assert code == 0
    err, _, problems = wl.check_run_output(workload, master, csv_path)
    assert err == 0.0 and not problems, problems

    # one curve value moved by 1e-3 dB in the program's output
    lines = csv_path.read_text().splitlines()
    alg, it, value, diverged = lines[1].split(",")
    lines[1] = ",".join([alg, it, repr(float(value) + 1e-3), diverged])
    csv_path.write_text("\n".join(lines) + "\n")
    err, _, problems = wl.check_run_output(workload, master, csv_path)
    assert err > wl.CURVE_TOLERANCE_DB and problems, problems

    # a whole run against a corrupted reference point and diverged count
    data = json.loads(pristine)
    ref = data["seeds"][str(master)]["slms-rza"]
    ref["points"][-1] += 1e-3
    ref["trials_diverged"] += 1
    path.write_text(json.dumps(data))
    try:
        code, result, text = run_bench("reference", 0)
    finally:
        path.write_text(pristine)
    assert code == 0
    assert not result["correct"] and result["failed"] == result["attempted"], result
    assert "curve differs" in text and "trials_diverged" in text, text
    print("ok: corrupted curves and diverged counts are reported as failures")


def check_bare_directory_fails():
    bare = bench.WORK / "selftest" / "bare"
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(bench.BENCH_DIR, bare / bench.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = spec()["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "noise_validate", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
        timeout=180)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print(f"ok: without sources the benchmark exits {proc.returncode}: {proc.stderr.strip()}")


def main():
    bench.pin_threads()
    work = bench.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    (work / "bare").mkdir(parents=True)
    (work / "reference").mkdir()
    saved = dict(wl.WORKLOADS), wl.REFERENCE_DIR
    try:
        check_spec_matches_scripts()
        wl.WORKLOADS.update(TINY)
        wl.REFERENCE_DIR = work / "reference"
        for workload in TINY.values():
            if workload.kind == "run":
                data = record_reference.record(workload, work, range(1, wl.RECORDED_SEEDS + 1))
                wl.reference_path(workload).write_text(json.dumps(data))
        check_every_metric_emitted()
        check_corruption_fails()
        check_bare_directory_fails()
    finally:
        wl.WORKLOADS.update(saved[0])
        wl.REFERENCE_DIR = saved[1]
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
