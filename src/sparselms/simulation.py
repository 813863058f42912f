"""Seeded Monte-Carlo experiments producing averaged learning curves.

One trial = one random (channel, input, noise) realization plus a full
adaptive-filter run per algorithm.  The per-trial seed is derived from the
master seed and the trial index only, so every algorithm sees the identical
realization of a given trial (paired comparisons), results do not depend on
execution order or the number of workers, and reruns are bit-identical.

Trials run in fixed-size chunks: one loop advances every algorithm on every
trial of a chunk by one sample per iteration (see ``filters.Rules``), with
arithmetic identical to a per-sample loop over ``filters.step``.

The figure of merit is the trial-averaged normalized squared tap error in
decibels,

    MSE(n) = 10*log10( (1/M) * sum_m ||w_m(n) - w||^2 / ||w||^2 ),

floored at -100 dB.  Trials whose filter blows up (non-finite coefficients)
are excluded from the average and reported in ``trials_diverged``; the plain
gradient LMS is expected to do exactly that under heavy-tailed noise.

SNR convention: the nominal noise parameters keep their configured
dispersion while the training-signal power is matched to it (power = 2*gamma
for alpha = 2, i.e. the Gaussian noise variance, and gamma otherwise); the
configured SNR then scales the noise dispersion down by 10**(-snr_db/10).
This realizes signal power / noise power = 10**(snr_db/10) exactly (in the
dispersion-ratio sense for alpha < 2, where the variance is infinite) while
keeping the filters in their stable operating range.
"""

import contextlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (SparseChannel, TrainingSignal, delay_lines,
                      generate_channel, generate_input)
from .errors import ParameterError
# step is not called here; it stays importable from this module because
# benchmarks/layers.py patches simulation.step by name
from .filters import AlgorithmSpec, Rules, step  # noqa: F401
from .stable import AlphaStableParams, sample

MSE_FLOOR_DB = -100.0
_FLOOR_RATIO = 10.0 ** (MSE_FLOOR_DB / 10.0)


def _to_db(mean_nmse):
    """A mean normalized squared error in dB, floored at MSE_FLOOR_DB."""
    return 10.0 * np.log10(np.maximum(mean_nmse, _FLOOR_RATIO))


# trials per unit of work: the kernel advances this many trials of every
# algorithm at once, and the process pool hands out one chunk per job.  Small
# chunks keep a worker's arrays in cache and its memory flat.
_TRIAL_CHUNK = 16


@dataclass
class SimConfig:
    """Full description of one Monte-Carlo experiment.

    ``noise = None`` is the no-noise test hook: trials run with z = 0 and
    unit signal power.
    """

    n_taps: int
    sparsity: int
    n_iterations: int
    n_trials: int
    snr_db: float
    noise: AlphaStableParams | None
    algorithms: tuple
    master_seed: int
    input_kind: str = "gaussian"

    def __post_init__(self):
        if self.n_trials < 1:
            raise ParameterError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.n_iterations < 1:
            raise ParameterError(f"n_iterations must be >= 1, got {self.n_iterations}")
        if not (1 <= self.sparsity <= self.n_taps):
            raise ParameterError(
                f"sparsity must be in [1, {self.n_taps}], got {self.sparsity}")
        if not math.isfinite(self.snr_db):
            raise ParameterError(f"snr_db must be finite, got {self.snr_db}")
        if self.master_seed < 0:
            raise ParameterError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.input_kind not in ("gaussian", "binary"):
            raise ParameterError(
                f"input_kind must be 'gaussian' or 'binary', got {self.input_kind!r}")
        self.algorithms = tuple(self.algorithms)
        if not self.algorithms:
            raise ParameterError("algorithms must not be empty")
        if not all(isinstance(a, AlgorithmSpec) for a in self.algorithms):
            raise ParameterError("algorithms must be AlgorithmSpec instances")
        names = [a.name for a in self.algorithms]
        if len(set(names)) != len(names):
            raise ParameterError(f"duplicate algorithm names in {names}")
        if self.noise is not None and not isinstance(self.noise, AlphaStableParams):
            raise ParameterError("noise must be AlphaStableParams or None")
        apply_snr(self)  # rejects an snr_db that scales the noise out of range


@dataclass
class LearningCurve:
    """Per-iteration averaged MSE (dB) for one algorithm.

    ``mse_db`` is all-NaN in the degenerate case where every trial
    diverged; otherwise every entry is finite (floored at -100 dB).
    """

    algorithm: str
    mse_db: np.ndarray
    trials_completed: int
    trials_diverged: int


@dataclass
class TrialResult:
    """Squared-error trace of a single (algorithm, trial) run."""

    nmse: np.ndarray
    diverged: bool
    diverged_at: int | None = None


@dataclass
class Realization:
    """The shared random draw all algorithms of one trial see."""

    channel: SparseChannel
    signal: TrainingSignal
    noise: np.ndarray


def derive_trial_seed(master_seed, trial_index):
    """Deterministic per-trial seed; independent of algorithm and of the
    order in which trials execute."""
    state = np.random.SeedSequence((master_seed, trial_index)).generate_state(2, np.uint64)
    return (int(state[0]) << 64) | int(state[1])


def apply_snr(config):
    """Resolve the configured SNR into concrete generation parameters.

    Returns ``(signal_power, effective_noise)``: the training-signal power
    matched to the nominal noise scale, and the noise parameters with their
    dispersion divided by 10**(snr_db/10).  With ``noise = None`` the hook
    returns unit power and no noise.  Raises :class:`ParameterError`
    naming ``snr_db`` if the scaled dispersion, or the scale
    gamma**(1/alpha) that :func:`stable.sample` multiplies its draws by, is
    not finite and positive.
    """
    if config.noise is None:
        return 1.0, None
    noise = config.noise
    power = 2.0 * noise.gamma if noise.alpha == 2.0 else noise.gamma
    try:
        factor = 10.0 ** (-config.snr_db / 10.0)
    except OverflowError:
        factor = math.inf
    gamma = noise.gamma * factor
    try:
        scale = gamma ** (1.0 / noise.alpha)
    except OverflowError:
        scale = math.inf
    if not (math.isfinite(gamma) and gamma > 0.0 and math.isfinite(scale) and scale > 0.0):
        raise ParameterError(
            f"snr_db = {config.snr_db} scales the noise dispersion gamma = {noise.gamma} "
            f"to {gamma} and the sample scale gamma**(1/alpha) to {scale}; "
            f"both must stay finite and positive")
    return power, noise.scaled(factor)


def make_realization(config, trial_seed):
    """Draw the (channel, input, noise) triple for one trial.

    Channel, input and noise come from three independent substreams of
    ``trial_seed``, so e.g. changing the sparsity leaves the input and
    noise realizations untouched.
    """
    ch_rng, in_rng, nz_rng = (np.random.default_rng(s)
                              for s in np.random.SeedSequence(trial_seed).spawn(3))
    power, noise_params = apply_snr(config)
    chan = generate_channel(config.n_taps, config.sparsity, ch_rng)
    signal = generate_input(config.n_iterations, power, in_rng, kind=config.input_kind)
    if noise_params is None:
        noise = np.zeros(config.n_iterations)
    else:
        noise = sample(noise_params, nz_rng, size=config.n_iterations)
    return Realization(channel=chan, signal=signal, noise=noise)


def run_trial(config, spec, trial_seed):
    """Run one algorithm over one seeded realization.

    Returns the per-iteration normalized squared error; on divergence the
    remaining entries are NaN and the result is flagged.
    """
    nmse, diverged_at = _filter_block((spec,), [make_realization(config, trial_seed)],
                                      config.n_iterations)
    at = int(diverged_at[0, 0])
    return TrialResult(nmse=nmse[0, 0], diverged=at >= 0,
                       diverged_at=at if at >= 0 else None)


def _filter_block(specs, realizations, n_iterations):
    """Run every algorithm over every realization, one sample per step.

    Returns ``(nmse, diverged_at)`` with rows in ``specs`` order:
    ``nmse[a, m]`` is the normalized squared-error trace of algorithm ``a``
    on realization ``m``, NaN from the first non-finite update on, and
    ``diverged_at[a, m]`` that update's index, or -1.
    """
    rules = Rules(specs)
    truth = np.stack([r.channel.taps for r in realizations])
    x = delay_lines(np.stack([r.signal.samples for r in realizations]), truth.shape[1])
    d = np.vecdot(x, truth[:, None, :]) + np.stack([r.noise for r in realizations])
    w = np.zeros((len(specs),) + truth.shape)
    w_prev = np.zeros_like(w)
    sq = np.empty((n_iterations,) + w.shape[:2])
    diverged_at = np.full(w.shape[:2], -1)
    # overflow is the anticipated divergence mode of the gradient family;
    # diverged rows run on harmlessly and their traces are blanked below
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_iterations):
            w, w_prev = rules.advance(w, w_prev, x[:, n], d[:, n]), w
            diff = w - truth
            np.vecdot(diff, diff, out=sq[n])
            # a non-finite coefficient makes its row's squared error
            # non-finite; only then are the coefficients themselves checked
            if not np.isfinite(sq[n]).all():
                diverged_at[(diverged_at < 0) & ~np.isfinite(w).all(axis=-1)] = n
    sq /= np.vecdot(truth, truth)
    inverse = np.argsort(rules.order)
    nmse, diverged_at = np.moveaxis(sq, 0, -1)[inverse], diverged_at[inverse]
    for a, m in zip(*np.nonzero(diverged_at >= 0)):
        nmse[a, m, diverged_at[a, m]:] = np.nan
    return nmse, diverged_at


def _trial_worker(args):
    """The pool's unit of work: trials ``start`` to ``stop`` of every
    algorithm; returns ``(nmse, diverged_at)`` of that chunk."""
    config, start, stop = args
    realizations = [make_realization(config, derive_trial_seed(config.master_seed, m))
                    for m in range(start, stop)]
    return _filter_block(config.algorithms, realizations, config.n_iterations)


def run_experiment(config, workers=1):
    """Run all algorithms over all trials and average the learning curves.

    Chunks of trials may run in parallel (``workers`` > 1); aggregation is
    in fixed trial order, so the result is identical for any worker count.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    names = [spec.name for spec in config.algorithms]
    # running sums over the completed trials, added in trial order
    sums = np.zeros((len(names), config.n_iterations))
    completed = np.zeros(len(names), dtype=int)

    jobs = [(config, start, min(start + _TRIAL_CHUNK, config.n_trials))
            for start in range(0, config.n_trials, _TRIAL_CHUNK)]
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_trial_worker, jobs)
        else:
            results = map(_trial_worker, jobs)
        for nmse, diverged_at in results:
            for a, m in zip(*np.nonzero(diverged_at < 0)):
                sums[a] += nmse[a, m]
                completed[a] += 1

    curves = []
    for a, name in enumerate(names):
        n_ok = int(completed[a])
        if n_ok == 0:
            curve = np.full(config.n_iterations, np.nan)
        else:
            curve = _to_db(sums[a] / n_ok)
        curves.append(LearningCurve(algorithm=name, mse_db=curve,
                                    trials_completed=n_ok,
                                    trials_diverged=config.n_trials - n_ok))
    return curves


def mse_db(estimates, truth):
    """Trial-averaged normalized squared error in dB, floored at -100.

    ``estimates`` is the collection of estimated tap vectors (one per
    trial) at a common iteration; ``truth`` the actual channel.
    """
    truth = np.asarray(truth, dtype=float)
    denom = float(truth @ truth)
    if denom <= 0.0:
        raise ParameterError("truth vector must have positive norm")
    ratios = []
    for est in estimates:
        diff = np.asarray(est, dtype=float) - truth
        ratios.append(float(diff @ diff) / denom)
    if not ratios:
        raise ParameterError("estimates must not be empty")
    return float(_to_db(sum(ratios) / len(ratios)))
