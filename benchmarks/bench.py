#!/usr/bin/env python3
"""sparselms benchmark: end-to-end CLI timings, output checks, traced layers.

Run from the repository root:

    python3 benchmarks/bench.py --workload reference --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload's ``sparselms`` command in fresh processes
for ``--seconds`` seconds and prints the end-to-end metrics.  ``--trace 1``
runs the same command inside this process with spans around calls into each
module (see ``layers.py``) and prints the per-layer metrics.  Every command's
output is checked.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give every figure as median, quartiles and sample count, plus host
facts.  See README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# BLAS and OpenMP pools pinned to one thread, so at most `workers` busy
# processes run at once
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 11
MIN_COMMANDS = 3
COMMAND_TIMEOUT_S = 150

# a fresh interpreter importing sparselms and resolving the workload's
# config (run) or noise parameters (validate-noise), without doing the work
SETUP_SCRIPT = """\
import sys
from sparselms import AlphaStableParams
from sparselms.cli import build_parser, parse_config
args = build_parser().parse_args(sys.argv[1:])
if args.command == "run":
    parse_config(args.config)
else:
    AlphaStableParams(args.alpha, args.beta, args.gamma, args.delta)
"""

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "draws_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The program cannot be set up or run here; no result is printed."""


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(cmd, workdir, tag):
    """Run one command to completion; returns (wall_s, peak_rss_mb, exit_code,
    stdout, stderr).  The peak RSS is the largest resident set of the process
    and of every descendant it waited for (pool workers included)."""
    out_path, err_path = workdir / f"{tag}.stdout", workdir / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def cli_command(args):
    return [sys.executable, "-m", "sparselms.cli", *args]


def summary(values):
    """Median, quartiles and count of a sample; a single number is its own median."""
    if not isinstance(values, list):
        return {"median": values}
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def preflight():
    if not (SRC / "sparselms" / "cli.py").is_file():
        raise BenchError(f"no sparselms sources under {SRC}")


def measure_setup(args, workdir):
    """Fresh-interpreter set-up times; the first (cold-cache) run is discarded."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        wall, _, code, _, stderr = run_process(
            [sys.executable, "-c", SETUP_SCRIPT, *args], workdir, "setup")
        if code != 0:
            raise BenchError(f"set-up failed (exit {code}): {stderr.strip()[-500:]}")
        if i:
            times.append(wall)
    return times


def end_to_end(workload, seed, seconds, workdir):
    """Time the workload's command in fresh processes for `seconds`."""
    args, check, _ = wl.prepare(workload, seed, workdir)
    setup = measure_setup(args, workdir)

    walls, rss, errors, digests, problems = [], [], [], set(), []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted < MIN_COMMANDS or time.perf_counter() < deadline:
        wall, peak, code, stdout, stderr = run_process(cli_command(args), workdir, "command")
        attempted += 1
        walls.append(wall)
        rss.append(peak)
        err, digest, bad = check(code, stdout)
        errors.append(err)
        digests.add(digest)
        if bad:
            failed += 1
            problems += [f"command {attempted}: {p}" for p in bad]
            if stderr.strip():
                problems.append(f"command {attempted} stderr: {stderr.strip()[-500:]}")
    if len(digests) > 1:
        problems.append(f"{len(digests)} distinct output digests across {attempted} reruns")

    figures = {"wall_s": (walls, "s"), "setup_s": (setup, "s"),
               "draws_per_s": ([workload.draws / w for w in walls], "1/s"),
               "peak_rss_mb": (rss, "MB")}
    if workload.kind == "run":
        figures["updates_per_s"] = ([workload.updates / w for w in walls], "1/s")
    checks = {
        "failed_frac": failed / attempted,
        "curve_err_db": max(errors),
        "output_digests": len(digests),
    }
    return {"figures": figures, "checks": checks,
            "attempted": attempted, "failed": failed,
            "correct": failed == 0 and len(digests) == 1 and not problems,
            "problems": problems}


def host_facts():
    """Commit, interpreter, numpy and BLAS, thread pinning, CPU."""
    import numpy as np

    facts = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    facts["blas_threads"] = ",".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    facts["commit"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            facts["commit"] = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    facts["src_sha256"] = digest.hexdigest()[:16]
    facts["cpu"] = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    facts["nproc"] = len(os.sched_getaffinity(0))
    return facts


def print_report(workload, seed, seconds, trace, result, facts):
    print(f"workload {workload.name}  seed {seed}  seconds {seconds}  trace {trace}")
    for key, value in facts.items():
        print(f"host.{key} = {value}")
    for name, st in result["stats"].items():
        spread = (f"  (median; q1 {st['q1']:.6g}, q3 {st['q3']:.6g}; n={st['n']})"
                  if "n" in st else "")
        print(f"metric {name} = {st['median']:.6g} {st['unit']}{spread}")
    for line in result.get("lines", []):
        print(line)
    for name, value in result.get("checks", {}).items():
        print(f"check {name} = {value}")
    for problem in result["problems"]:
        print(f"problem: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    pin_threads()
    workload = wl.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        preflight()
        if args.trace:
            import layers
            result = layers.traced_run(workload, args.seed, args.seconds, workdir, SRC,
                                       WORK / f"trace-{args.workload}.npz")
            emitted = layers.UNITS
        else:
            result = end_to_end(workload, args.seed, args.seconds, workdir)
            emitted = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["stats"] = {name: dict(summary(values), unit=unit)
                       for name, (values, unit) in result.pop("figures").items()}

    facts = host_facts()
    print_report(workload, args.seed, args.seconds, args.trace, result, facts)
    report = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, host=facts)
    report_path = WORK / f"report-{args.workload}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"report written to {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(result["stats"][name]["median"]), "unit": unit}
                    for name, unit in emitted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
