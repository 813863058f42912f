"""Workload definitions and output checks shared by the benchmark scripts.

The benchmark owns its inputs: the config files below are written by the
benchmark from ``--seed`` and handed to the ``sparselms`` CLI, so a later
change to the package's defaults or template does not change what is
measured.

Run workloads map ``--seed`` onto one of ``RECORDED_SEEDS`` master seeds,
for which reference curves recorded with sparselms 0.1.0 are committed
under ``reference/``.  The same ``--seed`` always gives the same inputs.
"""

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

RECORDED_SEEDS = 10

# largest |delta| in dB between a run's curve and the recorded curve; it
# admits the ~1e-14 dB that reordering floating-point sums causes
CURVE_TOLERANCE_DB = 1e-6

# the ten update rules with the reference hyperparameters (the output of
# `sparselms template` in version 0.1.0)
REFERENCE_ALGORITHMS = {
    "lms": {"mu": "0.005"},
    "slms": {"mu": "0.005"},
    "lms-za": {"mu": "0.005", "lambda": "2e-4"},
    "slms-za": {"mu": "0.005", "lambda": "2e-4"},
    "lms-rza": {"mu": "0.005", "lambda": "2e-3", "eps": "20.0"},
    "slms-rza": {"mu": "0.005", "lambda": "2e-3", "eps": "20.0"},
    "lms-rl1": {"mu": "0.005", "lambda": "5e-5", "delta": "0.05"},
    "slms-rl1": {"mu": "0.005", "lambda": "5e-5", "delta": "0.05"},
    "lms-lp": {"mu": "0.005", "lambda": "5e-6", "eps": "0.05", "p": "0.5"},
    "slms-lp": {"mu": "0.005", "lambda": "5e-6", "eps": "0.05", "p": "0.5"},
}


@dataclass(frozen=True)
class RunWorkload:
    """One `sparselms run` command over a benchmark-written config."""

    name: str
    n_taps: int
    sparsity: int
    alpha: float
    snr_db: float
    iterations: int
    trials: int
    algorithms: tuple
    workers: int
    stride: int  # every stride-th iteration is stored in the reference
    probe_trials: int  # trials per algorithm in the traced run_trial probe
    kind: str = "run"

    def master_seed(self, seed):
        return 1 + seed % RECORDED_SEEDS

    def config_text(self, master_seed):
        lines = ["[channel]", f"n_taps = {self.n_taps}", f"sparsity = {self.sparsity}", "",
                 "[noise]", f"alpha = {self.alpha!r}", "beta = 0.0", "gamma = 1.0",
                 "delta = 0.0", "",
                 "[run]", f"iterations = {self.iterations}", f"trials = {self.trials}",
                 f"snr_db = {self.snr_db!r}", f"seed = {master_seed}", "input = gaussian"]
        for alg in self.algorithms:
            lines += ["", f"[algorithm.{alg}]"]
            lines += [f"{k} = {v}" for k, v in REFERENCE_ALGORITHMS[alg].items()]
        return "\n".join(lines) + "\n"

    def cli_args(self, config_path, out_path):
        return ["run", "--config", str(config_path), "--out", str(out_path),
                "--workers", str(self.workers)]

    @property
    def updates(self):
        """Nominal filter updates per command: algorithms x trials x iterations."""
        return len(self.algorithms) * self.trials * self.iterations

    @property
    def draws(self):
        """Noise draws per command: one sequence of T draws per trial."""
        return self.trials * self.iterations


@dataclass(frozen=True)
class NoiseWorkload:
    """One `sparselms validate-noise` command."""

    name: str
    alpha: float
    beta: float
    samples: int
    kind: str = "noise"

    def cli_args(self, seed):
        return ["validate-noise", "--alpha", repr(self.alpha), "--beta", repr(self.beta),
                "--samples", str(self.samples), "--seed", str(seed)]

    @property
    def draws(self):
        return self.samples


WORKLOADS = {
    # the template config (acceptance-run shape) at a few trials, serial:
    # ~95% of its time is the per-sample filters.step / channel.regressor loop
    "reference": RunWorkload(
        name="reference", n_taps=128, sparsity=8, alpha=1.2, snr_db=10.0,
        iterations=3000, trials=1, algorithms=tuple(REFERENCE_ALGORITHMS),
        workers=1, stride=100, probe_trials=2),
    # many short trials through the process pool: per-trial overhead
    # (realization, pickling, result gathering, the trial store)
    "short_trials": RunWorkload(
        name="short_trials", n_taps=16, sparsity=2, alpha=2.0, snr_db=20.0,
        iterations=250, trials=150, algorithms=("slms-za", "lms-rl1"),
        workers=2, stride=10, probe_trials=20),
    # the skewed CMS sampler branch and the empirical CF check; no filter
    # or simulation code runs
    "noise_validate": NoiseWorkload(
        name="noise_validate", alpha=1.2, beta=0.5, samples=4_000_000),
}


# ---------------------------------------------------------------- run output

def read_curves(csv_path):
    """Parse a learning-curve CSV into {algorithm: (mse_db list, trials_diverged)}."""
    curves = {}
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["algorithm", "iteration", "mse_db", "trials_diverged"]:
            raise ValueError(f"unexpected CSV header {header}")
        for alg, iteration, value, diverged in reader:
            values, _ = curves.setdefault(alg, ([], int(diverged)))
            if int(iteration) != len(values) + 1:
                raise ValueError(f"{alg}: iteration {iteration} out of order")
            values.append(float(value))
    return curves


def summarize_curves(curves, stride):
    """The stored form of a run's output: per algorithm, the diverged count,
    the mean over all iterations and every stride-th point plus the last."""
    out = {}
    for alg, (values, diverged) in sorted(curves.items()):
        idx = list(range(0, len(values), stride))
        if idx[-1] != len(values) - 1:
            idx.append(len(values) - 1)
        out[alg] = {"trials_diverged": diverged,
                    "iterations": len(values),
                    "mean_db": math.fsum(values) / len(values),
                    "points": [values[i] for i in idx]}
    return out


def _delta(a, b):
    if math.isnan(a) and math.isnan(b):
        return 0.0
    return abs(a - b)  # NaN against a number stays NaN and fails the check


def compare_to_reference(curves, reference, stride):
    """Largest |delta| in dB against the recorded summary, plus problems."""
    problems = []
    got = summarize_curves(curves, stride)
    if sorted(got) != sorted(reference):
        return math.inf, [f"algorithms {sorted(got)} != reference {sorted(reference)}"]
    err = 0.0
    for alg, ref in reference.items():
        run = got[alg]
        if run["trials_diverged"] != ref["trials_diverged"]:
            problems.append(f"{alg}: trials_diverged {run['trials_diverged']} "
                            f"!= reference {ref['trials_diverged']}")
        if run["iterations"] != ref["iterations"]:
            problems.append(f"{alg}: {run['iterations']} iterations != {ref['iterations']}")
            continue
        deltas = [_delta(a, b) for a, b in zip(run["points"], ref["points"])]
        deltas.append(_delta(run["mean_db"], ref["mean_db"]))
        worst = max(deltas)
        if not worst <= CURVE_TOLERANCE_DB:
            problems.append(f"{alg}: curve differs by {worst} dB "
                            f"(tolerance {CURVE_TOLERANCE_DB} dB)")
        err = max(err, worst) if not math.isnan(worst) else math.inf
    return err, problems


def reference_path(workload):
    return REFERENCE_DIR / f"{workload.name}.json"


def load_reference(workload, master_seed):
    data = json.loads(reference_path(workload).read_text())
    return data["seeds"][str(master_seed)]


def check_run_output(workload, master_seed, csv_path, reference=None):
    """Check one run's CSV; returns (curve_err_db, digest, problems)."""
    raw = Path(csv_path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if reference is None:
        reference = load_reference(workload, master_seed)
    try:
        curves = read_curves(csv_path)
    except (ValueError, OSError) as exc:
        return math.inf, digest, [f"unreadable CSV: {exc}"]
    err, problems = compare_to_reference(curves, reference, workload.stride)
    return err, digest, problems


# -------------------------------------------------------------- noise output

CF_TOLERANCE = 0.02
_CF_ROW = re.compile(r"^\s*([0-9.]+)\s+([0-9.]+)\s+([0-9.]+)\s+([0-9.eE+-]+)\s*$")


def check_noise_output(workload, seed, stdout):
    """Check validate-noise output; returns (largest CF error, digest, problems)."""
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    lines = stdout.splitlines()
    problems = []
    expected = (f"alpha={workload.alpha} beta={workload.beta} gamma=1.0 delta=0.0 "
                f"samples={workload.samples} seed={seed}")
    if not lines or lines[0] != expected:
        problems.append(f"unexpected header {lines[:1]}")
    errors = [float(m.group(4)) for m in map(_CF_ROW.match, lines) if m]
    if len(errors) != 4:
        problems.append(f"expected 4 CF rows, got {len(errors)}")
    if not lines or not lines[-1].startswith("verdict: PASS"):
        problems.append(f"verdict is not PASS: {lines[-1:]}")
    worst = max(errors, default=math.inf)
    if not worst <= CF_TOLERANCE:
        problems.append(f"CF error {worst} above {CF_TOLERANCE}")
    return worst, digest, problems


def prepare(workload, seed, workdir, checked=True):
    """Write a workload's inputs into workdir; returns (cli args, check, csv path).

    ``check(exit_code, stdout)`` returns (error, digest, problems): the
    largest curve or CF error, a digest of the output, and what failed.
    With ``checked=False`` a run's CSV is only parsed (for resized runs that
    have no recorded reference).
    """
    if workload.kind == "noise":
        def check_noise(code, stdout):
            err, digest, problems = check_noise_output(workload, seed, stdout)
            return err, digest, problems + ([f"exit code {code}"] if code else [])
        return workload.cli_args(seed), check_noise, None

    master = workload.master_seed(seed)
    stem = Path(workdir) / f"{workload.name}-{workload.trials}"
    config_path, csv_path = stem.with_suffix(".ini"), stem.with_suffix(".csv")
    config_path.write_text(workload.config_text(master))
    reference = load_reference(workload, master) if checked else None

    def check_run(code, _):
        if code != 0:
            return math.inf, None, [f"exit code {code}"]
        if reference is None:
            read_curves(csv_path)
            return 0.0, None, []
        return check_run_output(workload, master, csv_path, reference)
    return workload.cli_args(config_path, csv_path), check_run, csv_path
