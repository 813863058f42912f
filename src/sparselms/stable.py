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
# here, the empirical CF in ``cli``): 2**16 float64 values are 512 KiB, so
# a block and its few temporaries stay in cache
BLOCK = 1 << 16


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

    All of V, then all of W, are drawn from ``rng`` at once, so the stream
    does not depend on the block size; the elementwise transform then runs
    over blocks of ``BLOCK`` draws into the output, whose every element is
    bit-identical to a whole-array evaluation.  Beside the result, the peak
    is V, W and one block's temporaries.
    """
    scalar = size is None
    n = 1 if scalar else size
    v = rng.uniform(-np.pi / 2.0, np.pi / 2.0, n)
    w = rng.standard_exponential(n)

    out = np.empty_like(v)
    flat_v, flat_w, flat_out = v.reshape(-1), w.reshape(-1), out.reshape(-1)
    for start in range(0, flat_out.size, BLOCK):
        block = slice(start, start + BLOCK)
        flat_out[block] = _cms(params, flat_v[block], flat_w[block])
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
