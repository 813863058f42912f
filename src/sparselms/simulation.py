"""Seeded Monte-Carlo experiments producing averaged learning curves.

One trial = one random (channel, input, noise) realization plus a full
adaptive-filter run per algorithm.  The per-trial seed is derived from the
master seed and the trial index only, so every algorithm sees the identical
realization of a given trial (paired comparisons), results do not depend on
execution order or the number of workers, and reruns are bit-identical.

Trials run in chunks sized by memory (see ``chunk_layout``): one loop
advances every algorithm on every trial of a chunk by one sample per
iteration (see ``filters.Rules``), with arithmetic identical to a
per-sample loop over ``filters.step``.

The figure of merit is the trial-averaged normalized squared tap error in
decibels,

    MSE(n) = 10*log10( (1/M) * sum_m ||w_m(n) - w||^2 / ||w||^2 ),

floored at -100 dB.  A trial diverges at the first non-finite value of its
normalized squared error; trials that diverge are excluded from the average
and counted in ``trials_diverged``.  Under heavy-tailed noise the plain
gradient LMS need not diverge; it settles far above the sign family
instead.  At alpha = 1.2, 10 dB SNR, 128 taps of which 8 are nonzero, 3000
iterations, 100 trials and master seed 2026 (acceptance criterion 3),
``lms`` diverged in 0 of 100 trials and averaged 24.4 dB over the last 300
iterations, against -6.3 dB for ``slms``.

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
import os
from dataclasses import dataclass, replace

import numpy as np

from .channel import (INPUT_KINDS, SparseChannel, delay_lines,
                      generate_channel, generate_input)
from .errors import ParameterError, require_integers, require_numbers
# step is not called here; it stays importable from this module because
# benchmarks/layers.py patches simulation.step by name
from .filters import AlgorithmSpec, Rules, step  # noqa: F401
from .stable import AlphaStableParams, sample

MSE_FLOOR_DB = -100.0
_FLOOR_RATIO = 10.0 ** (MSE_FLOOR_DB / 10.0)

# a chunk holds _MIN_CHUNK trials, or more while they fit _CHUNK_VALUES
# float64 values (2 MiB) as _trial_values counts them.  Short trials then
# share a chunk, so each of its Python time steps is paid once for many
# trials; long or wide trials still get 16 a chunk, so they share each
# step's cost too.  Against fixed 16-trial chunks (30.96 MB), twice this
# budget puts all 150 trials of a short two-algorithm run (16 taps, 250
# iterations, --workers 2) in one chunk, which raises the command's peak
# RSS by 1.85 MB (6%); this one splits them 77/73 at +0.57 MB (medians of
# 10 interleaved runs, wait4 rusage, 2-vCPU VM, python 3.11, numpy 2.4).
_MIN_CHUNK = 16
_CHUNK_VALUES = 2 ** 18

# read once per process, so chunk_layout depends on its arguments alone and
# the manifest's processes line names the pool that ran, even if the
# affinity changes during a run
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


def __getattr__(name):
    """Import ``ProcessPoolExecutor`` on first use (PEP 562): its modules
    cost every serial command memory and start-up time.  It is a module
    global, not a local import in ``run_experiment``, because
    benchmarks/layers.py assigns a recording pool to it; once that probe
    patches ``concurrent.futures`` instead (ROADMAP item 1a), a local
    import can replace this function."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        # run_experiment calls this too: a class already assigned to the
        # name, such as a recording pool, is the one it starts
        return globals().setdefault(name, ProcessPoolExecutor)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class SimConfig:
    """Full description of one Monte-Carlo experiment.

    ``noise = None`` means no noise: trials run with z = 0 and unit signal
    power.  Tests use it as a hook, and a config file without a ``[noise]``
    section reaches it from the CLI.
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
        require_integers(1, n_trials=self.n_trials, n_iterations=self.n_iterations,
                         n_taps=self.n_taps)
        require_integers(sparsity=self.sparsity)
        if not (1 <= self.sparsity <= self.n_taps):
            raise ParameterError(
                f"sparsity must be in [1, {self.n_taps}], got {self.sparsity}")
        require_numbers(snr_db=self.snr_db)
        require_integers(0, master_seed=self.master_seed)
        if self.input_kind not in INPUT_KINDS:
            raise ParameterError(f"input_kind must be {' or '.join(map(repr, INPUT_KINDS))}, "
                                 f"got {self.input_kind!r}")
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

    ``mse_db`` averages the ``n_trials - trials_diverged`` completed trials,
    floored at -100 dB; it is all-NaN in the degenerate case where every
    trial diverged.
    """

    algorithm: str
    mse_db: np.ndarray
    trials_diverged: int


@dataclass
class Realization:
    """The shared random draw all algorithms of one trial see: the channel,
    and the training input and additive noise samples."""

    channel: SparseChannel
    signal: np.ndarray
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
    naming ``gamma`` if the signal power overflows, and naming ``snr_db``
    if the scaled parameters are out of range (see :class:`AlphaStableParams`).
    """
    if config.noise is None:
        return 1.0, None
    noise = config.noise
    power = 2.0 * noise.gamma if noise.alpha == 2.0 else noise.gamma
    if power == math.inf:  # 2 * gamma overflows
        raise ParameterError(f"gamma = {noise.gamma} gives the signal power {power} "
                             "at alpha = 2; it must be finite")
    try:
        gamma = noise.gamma * 10.0 ** (-config.snr_db / 10.0)
    except OverflowError:
        gamma = math.inf  # rejected below as "... got inf", not as an errno
    try:
        return power, replace(noise, gamma=gamma)
    except ParameterError as exc:
        raise ParameterError(
            f"snr_db = {config.snr_db} scales the noise dispersion gamma = {noise.gamma} "
            f"out of range: {exc}") from exc


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


# the package does not call this; it stays because benchmarks/layers.py times it
def run_trial(config, spec, trial_seed):
    """Run one algorithm over one seeded realization.

    Returns ``(nmse, diverged_at)``: the per-iteration normalized squared
    error, NaN from its first non-finite value on, and that value's index,
    or -1 if the filter did not diverge.
    """
    nmse, diverged_at = _filter_block((spec,), [make_realization(config, trial_seed)])
    return nmse[0, 0], int(diverged_at[0, 0])


def _filter_block(specs, realizations):
    """Run every algorithm over every realization, one sample per step.

    Returns ``(nmse, diverged_at)`` with rows in ``specs`` order:
    ``nmse[a, m]`` is the normalized squared-error trace of algorithm ``a``
    on realization ``m``, NaN from its first non-finite value on, and
    ``diverged_at[a, m]`` that value's index, or -1.
    """
    rules = Rules(specs)
    truth = np.stack([r.channel.taps for r in realizations])
    x = delay_lines(np.stack([r.signal for r in realizations]), truth.shape[1])
    d = np.vecdot(x, truth[:, None, :]) + np.stack([r.noise for r in realizations])
    w = np.zeros((len(specs),) + truth.shape)
    w_prev = np.zeros_like(w)
    sq = np.empty((x.shape[1],) + w.shape[:2])
    # overflow is the anticipated divergence mode of the gradient family;
    # diverged rows run on harmlessly and their traces are blanked below
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(len(sq)):
            w, w_prev = rules.advance(w, w_prev, x[:, n], d[:, n]), w
            diff = w - truth
            np.vecdot(diff, diff, out=sq[n])
        sq /= np.vecdot(truth, truth)
    # a row diverges at the first non-finite value of the trace it averages
    blown = ~np.isfinite(sq)
    np.logical_or.accumulate(blown, axis=0, out=blown)
    sq[blown] = np.nan
    diverged_at = np.where(blown[-1], blown.argmax(axis=0), -1)
    return np.moveaxis(sq, 0, -1), diverged_at


def _trial_worker(args):
    """One chunk of ``chunk_layout``, the pool's unit of work: trials
    ``start`` to ``stop`` of every algorithm; returns ``(nmse,
    diverged_at)`` of that chunk."""
    config, start, stop = args
    realizations = [make_realization(config, derive_trial_seed(config.master_seed, m))
                    for m in range(start, stop)]
    return _filter_block(config.algorithms, realizations)


def _trial_values(config):
    """A trial's peak in float64 values in a pool process, rounded up: for
    each algorithm, and once more for the trial's input, noise and desired
    signal, 4 values a time step (the trace, its copy for pickling and the
    pickled bytes) and 8 a tap (coefficients and the update's temporaries)."""
    return 4 * (len(config.algorithms) + 1) * (config.n_iterations + 2 * config.n_taps)


def chunk_layout(config, workers):
    """How ``run_experiment`` splits the trials: ``(chunks, processes)``.

    ``chunks`` lists consecutive ``(start, stop)`` trial ranges of
    ``_MIN_CHUNK`` trials, or of as many as fit ``_CHUNK_VALUES`` if that is
    more; only the last may be shorter.  They depend on the config alone.
    ``processes``, the pool's size when ``workers`` > 1, is
    ``min(workers, _CPUS, chunks)``, with the CPU count read once at import.
    """
    require_integers(1, workers=workers)
    n = config.n_trials
    size = max(_MIN_CHUNK, _CHUNK_VALUES // _trial_values(config))
    chunks = [(start, min(start + size, n)) for start in range(0, n, size)]
    return chunks, min(workers, _CPUS, len(chunks))


def run_experiment(config, workers=1):
    """Run all algorithms over all trials and average the learning curves.

    The trials run in the chunks of ``chunk_layout(config, workers)``, in a
    pool of its ``processes`` when ``workers`` > 1; aggregation is in fixed
    trial order, so the result is identical for any worker count.
    """
    chunks, processes = chunk_layout(config, workers)
    names = [spec.name for spec in config.algorithms]
    # running sums over the completed trials, added in trial order
    sums = np.zeros((len(names), config.n_iterations))
    diverged = np.zeros(len(names), dtype=int)

    jobs = [(config, start, stop) for start, stop in chunks]
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # chunk_layout caps the pool at the chunks and CPUs: it may fork
            # all of its processes at once
            pool_class = __getattr__("ProcessPoolExecutor")
            pool = stack.enter_context(pool_class(max_workers=processes))
            results = pool.map(_trial_worker, jobs)
        else:
            results = map(_trial_worker, jobs)
        for nmse, diverged_at in results:
            for a, m in zip(*np.nonzero(diverged_at < 0)):
                sums[a] += nmse[a, m]
            diverged += np.count_nonzero(diverged_at >= 0, axis=1)

    curves = []
    for a, name in enumerate(names):
        n_ok = config.n_trials - int(diverged[a])
        if n_ok == 0:
            curve = np.full(config.n_iterations, np.nan)
        else:
            curve = 10.0 * np.log10(np.maximum(sums[a] / n_ok, _FLOOR_RATIO))
        curves.append(LearningCurve(algorithm=name, mse_db=curve,
                                    trials_diverged=int(diverged[a])))
    return curves
