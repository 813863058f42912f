"""Alpha-stable noise: characteristic function and exact sampling.

The noise model is the four-parameter stable family with characteristic
function

    p(t) = exp{ j*delta*t - gamma*|t|**alpha * [1 + j*beta*sgn(t)*S(t, alpha)] }

where S(t, alpha) = tan(alpha*pi/2) for alpha != 1 and
S(t, alpha) = -(2/pi)*log|t| for alpha = 1.  ``alpha`` controls the tail
heaviness (alpha = 2 is Gaussian with variance 2*gamma, smaller alpha means
heavier tails and more violent impulses), ``beta`` the skew, ``gamma`` the
dispersion and ``delta`` the location.

Samples are drawn with the Chambers-Mallows-Stuck transform, which maps one
uniform and one exponential variate to an exact stable draw.  The sampler is
validated statistically against the characteristic function above (see the
test suite and the ``validate-noise`` CLI command).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# below this magnitude |t| is clamped in the alpha = 1 skew branch to keep
# log|t| finite
_LOG_CLAMP = 1e-300

# draws per block of an elementwise pass over a sample (the CMS transform
# and the empirical CF): 2**16 float64 values are 512 KiB, so a block and
# its few temporaries stay in cache
BLOCK = 1 << 16

# points at which validate-noise compares the empirical CF with the model.
# The grid is 0.1*k for k = 1, 5, 10, 20, so every exp(j*t*x) is a power of
# exp(j*0.1*x), which empirical_cf reaches by complex multiplication
CF_GRID = (0.1, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class AlphaStableParams:
    """Parameter quadruple of the stable characteristic function.

    Attributes
    ----------
    alpha : float
        Characteristic exponent, in [0.1, 2].  Below that, the sampler's
        factor (cos(...)/W)**((1-alpha)/alpha) overflows (exponent 49 at 0.02).
    beta : float
        Symmetry parameter, in [-1, 1].  0 means symmetric noise.
    gamma : float
        Dispersion, finite and > 0.  Plays the role the variance plays for Gaussians;
        at alpha = 2 the variance is exactly 2*gamma.  The sample scale
        gamma**(1/alpha) must also be a finite positive float, which rules
        out e.g. gamma = 1e-40 (underflow) or 1e300 (overflow) at alpha = 0.1.
    delta : float
        Location (a pure shift), finite.
    """

    alpha: float
    beta: float = 0.0
    gamma: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if not (0.1 <= self.alpha <= 2.0):
            raise ParameterError(f"alpha must be in [0.1, 2], got {self.alpha}")
        if not (-1.0 <= self.beta <= 1.0):
            raise ParameterError(f"beta must be in [-1, 1], got {self.beta}")
        if not (np.isfinite(self.gamma) and self.gamma > 0.0):
            raise ParameterError(f"gamma must be finite and positive, got {self.gamma}")
        try:
            scale = self.scale
        except OverflowError:
            scale = math.inf
        if not (math.isfinite(scale) and scale > 0.0):
            raise ParameterError(
                f"gamma = {self.gamma} gives the sample scale gamma**(1/alpha) = {scale} "
                f"at alpha = {self.alpha}; it must be finite and positive")
        if not np.isfinite(self.delta):
            raise ParameterError(f"delta must be finite, got {self.delta}")

    @property
    def scale(self):
        """gamma**(1/alpha), the factor :func:`sample` multiplies its
        standard draws by."""
        return math.pow(self.gamma, 1.0 / self.alpha)


def characteristic_function(params, t):
    """Evaluate the model characteristic function at ``t``.

    Accepts a scalar or an array of real arguments; returns complex values
    of the same shape.  p(0) = 1 by continuity (the alpha = 1 branch is
    otherwise undefined at t = 0), and |p(t)| <= 1 everywhere.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise ParameterError("t must be finite")
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta

    if a == 1.0:
        # log|t|, clamped away from zero; t = 0 handled below by continuity
        mag = np.maximum(np.abs(t_arr), _LOG_CLAMP)
        s = -(2.0 / np.pi) * np.log(mag)
    else:
        s = np.tan(a * np.pi / 2.0)
    exponent = 1j * d * t_arr - g * np.abs(t_arr) ** a * (1.0 + 1j * b * np.sign(t_arr) * s)
    out = np.exp(exponent)
    out = np.where(t_arr == 0.0, 1.0 + 0.0j, out)
    if np.isscalar(t) or t_arr.ndim == 0:
        return complex(out)
    return out


def sample(params, rng, size=None):
    """Draw stable variates with the given parameters.

    Parameters
    ----------
    params : AlphaStableParams
    rng : numpy.random.Generator
        Seeded generator; identical state yields an identical stream.
    size : int or tuple, optional
        None returns a scalar float, otherwise an array of that shape.

    Notes
    -----
    Chambers-Mallows-Stuck construction: with V uniform on (-pi/2, pi/2)
    and W standard exponential,

        X = sin(a*(V+B)) / cos(V)**(1/a) * (cos(V - a*(V+B)) / W)**((1-a)/a)

    (B and a scale factor absorb the skew) is a standard stable draw, which
    is then scaled by ``params.scale`` = gamma**(1/alpha) and shifted by
    delta.  The skew sign is flipped internally so that the output matches
    the characteristic function convention used by
    :func:`characteristic_function`.

    All of V is drawn into the array that is returned.  Then, block by
    block of ``BLOCK`` draws, that block's W is drawn and the block is
    overwritten by its transform.  Exponentials drawn in consecutive blocks
    are those of one whole draw, so the stream and the generator's final
    state do not depend on the block size, and every element is
    bit-identical to a whole-array evaluation.  Beside the result, the peak
    is one block's W and temporaries.
    """
    scalar = size is None
    out = rng.uniform(-np.pi / 2.0, np.pi / 2.0, 1 if scalar else size)
    v = out.reshape(-1)
    for start in range(0, v.size, BLOCK):
        block = v[start:start + BLOCK]
        block[...] = _cms(params, block, rng.standard_exponential(block.size))
    return float(out[0]) if scalar else out


def _cms(params, v, w):
    """The CMS transform of uniform ``v`` and exponential ``w``, elementwise."""
    a, g, d = params.alpha, params.gamma, params.delta
    # the CF above has the opposite skew-term sign from the textbook
    # parametrization the CMS recipe targets
    b = -params.beta

    if a == 1.0:
        bv = np.pi / 2.0 + b * v
        x = (2.0 / np.pi) * (bv * np.tan(v) - b * np.log((np.pi / 2.0) * w * np.cos(v) / bv))
        return g * x + d + (2.0 / np.pi) * b * g * np.log(g)
    if b == 0.0:
        x = (np.sin(a * v) / np.cos(v) ** (1.0 / a)
             * (np.cos((1.0 - a) * v) / w) ** ((1.0 - a) / a))
    else:
        bt = b * np.tan(a * np.pi / 2.0)
        shift = np.arctan(bt) / a
        scale = (1.0 + bt * bt) ** (1.0 / (2.0 * a))
        x = (scale * np.sin(a * (v + shift)) / np.cos(v) ** (1.0 / a)
             * (np.cos(v - a * (v + shift)) / w) ** ((1.0 - a) / a))
    return params.scale * x + d


def empirical_cf(draws):
    """Mean of exp(j*t*draws) at each t of CF_GRID, summed over blocks of draws.

    z = exp(j*0.1*x) is written into the real and imaginary parts of one
    complex block by one cosine and one sine; z**5 = (z**2)**2 * z, and
    z**10 and z**20 are squares in turn.
    """
    z = np.empty(min(draws.size, BLOCK), dtype=complex)
    zk = np.empty_like(z)
    sums = [0j] * len(CF_GRID)
    for start in range(0, draws.size, BLOCK):
        phase = CF_GRID[0] * draws[start:start + BLOCK]
        zb, zkb = z[:phase.size], zk[:phase.size]
        np.cos(phase, out=zb.real)
        np.sin(phase, out=zb.imag)
        sums[0] += zb.sum()
        np.multiply(zb, zb, out=zkb)
        np.multiply(zkb, zkb, out=zkb)
        np.multiply(zkb, zb, out=zkb)
        sums[1] += zkb.sum()
        np.multiply(zkb, zkb, out=zkb)
        sums[2] += zkb.sum()
        np.multiply(zkb, zkb, out=zkb)
        sums[3] += zkb.sum()
    return [complex(s / draws.size) for s in sums]
