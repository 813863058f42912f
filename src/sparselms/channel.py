"""Sparse FIR channel and training-signal generation.

The unknown system is a length-N tap vector with exactly K nonzero entries
(the dominant taps).  Tap positions are drawn uniformly without replacement,
tap values are i.i.d. standard Gaussian, and the vector is scaled to unit
Euclidean norm so that normalized estimation error starts at exactly 0 dB
for a zero initial estimate.

Training input is a zero-mean pseudo-random sequence of configurable power;
Gaussian by default, with an equiprobable binary (+/-sqrt(power)) variant
available.  The regressor is the usual delay line over the input, with zeros
before time 0.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError


@dataclass
class SparseChannel:
    """A K-sparse unit-norm FIR tap vector.

    ``support`` holds the sorted indices of the nonzero taps; ``taps`` has
    exactly ``sparsity`` nonzeros and unit Euclidean norm.
    """

    taps: np.ndarray
    support: np.ndarray
    n_taps: int
    sparsity: int


@dataclass
class TrainingSignal:
    """Input sequence plus its nominal mean-square power."""

    samples: np.ndarray
    power: float


def generate_channel(n_taps, sparsity, rng):
    """Draw a random K-sparse channel realization.

    Positions uniform without replacement, values i.i.d. standard Gaussian,
    then normalized to unit l2 norm.
    """
    if not (1 <= sparsity <= n_taps):
        raise ParameterError(f"sparsity must be in [1, {n_taps}], got {sparsity}")
    taps = np.zeros(int(n_taps))
    support = np.sort(rng.choice(int(n_taps), size=int(sparsity), replace=False))
    values = rng.standard_normal(int(sparsity))
    taps[support] = values / np.linalg.norm(values)
    return SparseChannel(taps=taps, support=support, n_taps=int(n_taps), sparsity=int(sparsity))


def generate_input(length, power, rng, kind="gaussian"):
    """Generate the training sequence.

    ``kind`` is "gaussian" (zero-mean, variance = power) or "binary"
    (equiprobable +/-sqrt(power)).
    """
    if length < 1:
        raise ParameterError(f"length must be >= 1, got {length}")
    if not (power > 0):
        raise ParameterError(f"power must be positive, got {power}")
    root = np.sqrt(power)
    if kind == "gaussian":
        samples = rng.normal(0.0, root, int(length))
    elif kind == "binary":
        samples = root * (2.0 * rng.integers(0, 2, int(length)) - 1.0)
    else:
        raise ParameterError(f"unknown input kind {kind!r}")
    return TrainingSignal(samples=samples, power=float(power))


def regressor(signal, n, n_taps):
    """Delay-line vector [x(n), x(n-1), ..., x(n-N+1)] with zero prefix.

    Entries for time indices before 0 are zero.
    """
    samples = signal.samples if isinstance(signal, TrainingSignal) else np.asarray(signal, dtype=float)
    if not (0 <= n < samples.size):
        raise IndexError(f"time index {n} outside signal of length {samples.size}")
    x = np.zeros(int(n_taps))
    k = min(n + 1, int(n_taps))
    x[:k] = samples[n - k + 1:n + 1][::-1]
    return x


def delay_lines(samples, n_taps):
    """Every regressor of a batch of input sequences, without copying.

    ``samples`` is ``(..., T)``; returns a read-only ``(..., T, N)`` view
    whose row n equals ``regressor(samples, n, N)``.  The rows are forward
    slices of the reversed, zero-padded input, so their inner stride is +1.
    """
    samples = np.asarray(samples, dtype=float)
    n_taps = int(n_taps)
    padded = np.zeros(samples.shape[:-1] + (samples.shape[-1] + n_taps - 1,))
    padded[..., :samples.shape[-1]] = samples[..., ::-1]
    return sliding_window_view(padded, n_taps, axis=-1)[..., ::-1, :]
