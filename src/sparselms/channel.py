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

from .errors import ParameterError, require_integers

# the training-input distributions generate_input draws from
INPUT_KINDS = ("gaussian", "binary")


@dataclass
class SparseChannel:
    """A K-sparse unit-norm FIR tap vector.

    ``support`` holds the sorted indices of the nonzero taps; ``taps`` has
    exactly ``support.size`` nonzeros and unit Euclidean norm.
    """

    taps: np.ndarray
    support: np.ndarray


def generate_channel(n_taps, sparsity, rng):
    """Draw a random K-sparse channel realization.

    Positions uniform without replacement, values i.i.d. standard Gaussian,
    then normalized to unit l2 norm.
    """
    require_integers(n_taps=n_taps, sparsity=sparsity)
    if not (1 <= sparsity <= n_taps):
        raise ParameterError(f"sparsity must be in [1, {n_taps}], got {sparsity}")
    taps = np.zeros(n_taps)
    support = np.sort(rng.choice(n_taps, size=sparsity, replace=False))
    values = rng.standard_normal(sparsity)
    taps[support] = values / np.linalg.norm(values)
    return SparseChannel(taps=taps, support=support)


def generate_input(length, power, rng, kind="gaussian"):
    """Generate the training sequence as an array of ``length`` samples.

    ``kind`` is "gaussian" (zero-mean, variance = power) or "binary"
    (equiprobable +/-sqrt(power)).
    """
    require_integers(length=length)
    if length < 1:
        raise ParameterError(f"length must be >= 1, got {length}")
    if not (power > 0):
        raise ParameterError(f"power must be positive, got {power}")
    root = np.sqrt(power)
    if kind == "gaussian":
        return rng.normal(0.0, root, length)
    if kind == "binary":
        return root * (2.0 * rng.integers(0, 2, length) - 1.0)
    raise ParameterError(f"unknown input kind {kind!r}, expected one of {INPUT_KINDS}")


# the package does not call this; it stays because benchmarks/layers.py times it
def regressor(samples, n, n_taps):
    """Delay-line vector [x(n), x(n-1), ..., x(n-N+1)] of the input
    ``samples``, with zeros for time indices before 0.
    """
    samples = np.asarray(samples, dtype=float)
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
