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
from types import SimpleNamespace

import numpy as np

from .errors import ParameterError, require_numbers

# below this magnitude |t| is clamped in the alpha = 1 skew branch to keep
# log|t| finite
_LOG_CLAMP = 1e-300

# draws per block of an elementwise pass over a sample (the CMS transform
# and the empirical CF).  Sizing rule: validate-noise keeps about 8 float64
# blocks live (the sample block, the next block's uniforms, sample's w and
# tmp, and empirical_cf's two complex blocks), 8 * 8 * BLOCK bytes, which
# must fit one core's L2 (2 MiB on a 2-vCPU VM): 1 MiB at 2**14.
# Sweep of validate-noise at 4e6 skewed draws on that VM (python 3.11,
# numpy 2.4), 2**12 to 2**16: peak RSS 31.89, 32.05, 32.52, 33.52 and
# 35.55 MB (medians of 10 interleaved runs; wall time flat at 0.45-0.48 s).
# In-process, medians of 9 interleaved runs, its sample calls took 273 ms
# at 2**14 against 302 ms at 2**16 and 320 ms at 2**13, and empirical_cf
# 57 against 84 ms at 2**16.  The draws, the generator's final state and
# the printed output do not depend on this value.
BLOCK = 1 << 14

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
        require_numbers(alpha=self.alpha, beta=self.beta, gamma=self.gamma, delta=self.delta)
        if not (0.1 <= self.alpha <= 2.0):
            raise ParameterError(f"alpha must be in [0.1, 2], got {self.alpha}")
        if not (-1.0 <= self.beta <= 1.0):
            raise ParameterError(f"beta must be in [-1, 1], got {self.beta}")
        if self.gamma <= 0.0:
            raise ParameterError(f"gamma must be finite and positive, got {self.gamma}")
        try:
            scale = self.scale
        except OverflowError:
            scale = math.inf
        if not (math.isfinite(scale) and scale > 0.0):
            raise ParameterError(
                f"gamma = {self.gamma} gives the sample scale gamma**(1/alpha) = {scale} "
                f"at alpha = {self.alpha}; it must be finite and positive")

    @property
    def scale(self):
        """gamma**(1/alpha), the factor :func:`sample` multiplies its
        standard draws by."""
        return math.pow(self.gamma, 1.0 / self.alpha)


def characteristic_function(params, t):
    """Evaluate the model characteristic function at ``t``.

    Accepts a scalar or an array of real arguments; returns complex values
    of the same shape.  p(0) = 1 on every branch (at alpha = 1, log|t| is
    clamped at ``_LOG_CLAMP`` so that it stays finite there), and
    |p(t)| <= 1 everywhere.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise ParameterError("t must be finite")
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta

    if a == 1.0:
        # log|t|, clamped away from zero so that it stays finite at t = 0
        mag = np.maximum(np.abs(t_arr), _LOG_CLAMP)
        s = -(2.0 / np.pi) * np.log(mag)
    else:
        s = np.tan(a * np.pi / 2.0)
    exponent = 1j * d * t_arr - g * np.abs(t_arr) ** a * (1.0 + 1j * b * np.sign(t_arr) * s)
    return np.exp(exponent)


def sample(params, rng, size=None):
    """Draw stable variates with the given parameters.

    Parameters
    ----------
    params : AlphaStableParams
    rng : numpy.random.Generator
        Seeded generator; identical state yields an identical stream.
        Only its ``uniform`` and ``standard_exponential`` methods are
        called, so any object with those two methods serves.
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
    is one block's W and one block-sized temporary, two buffers that every
    block reuses, so no block allocates memory.
    """
    scalar = size is None
    out = rng.uniform(-np.pi / 2.0, np.pi / 2.0, 1 if scalar else size)
    v = out.reshape(-1)
    w, tmp = np.empty((2, min(v.size, BLOCK)))
    for start in range(0, v.size, BLOCK):
        block = v[start:start + BLOCK]
        rng.standard_exponential(out=w[:block.size])
        _cms(params, block, w[:block.size], tmp[:block.size])
    return float(out[0]) if scalar else out


def blocks(seed, n):
    """``(rng, size)`` pairs, ``size <= BLOCK``, such that ``sample(params, rng,
    size=size)`` on each in order gives the draws of ``sample(params,
    np.random.default_rng(seed), size=n)``.  sample draws all of its uniforms
    before any exponential, and PCG64, which default_rng always gives, spends
    one 64-bit output per uniform double, so a second generator from the same
    seed, advanced by n, yields the exponentials in the same order."""
    ahead = np.random.default_rng(np.random.PCG64(seed).advance(n))
    rng = SimpleNamespace(uniform=np.random.default_rng(seed).uniform,
                          standard_exponential=ahead.standard_exponential)
    for start in range(0, n, BLOCK):
        yield rng, min(BLOCK, n - start)


# _cms is in-place ufunc calls on reused buffers.  Its branch formulas as
# plain per-block expressions are shorter and bit-identical, but slower:
# each operation allocates a block-sized temporary.  At 2**14-draw blocks,
# validate-noise at 4e6 skewed draws (medians of 12 interleaved runs, 2-vCPU
# VM, numpy 2.4) took 0.777 against 0.699 s, and 0.458 against 0.417 s in
# another session, at 0.2-0.5 MB more peak RSS; its tracemalloc peak rose
# from 1.03 to 1.41-1.53 MiB, against the 1.5 MiB its test allows.
def _cms(params, v, w, tmp):
    """Overwrite uniform ``v`` with its CMS transform, using exponential ``w``.

    ``w`` is overwritten too, and ``tmp``, of ``v``'s size, is the only
    scratch.  Each element goes through the same IEEE operations, on the
    same operands and in the same order, as in the formula of its branch
    written as one numpy expression, so the draws are bit-identical to it.
    """
    a, g, d = params.alpha, params.gamma, params.delta
    # the CF above has the opposite skew-term sign from the textbook
    # parametrization the CMS recipe targets
    b = -params.beta

    if a == 1.0:
        # g*x + d + (2/pi)*b*g*log(g), where bv = pi/2 + b*v and
        # x = (2/pi) * (bv*tan(v) - b*log((pi/2)*w*cos(v) / bv))
        np.cos(v, out=tmp)
        w *= np.pi / 2.0
        w *= tmp
        np.multiply(b, v, out=tmp)
        tmp += np.pi / 2.0
        w /= tmp
        np.log(w, out=w)
        w *= b
        np.tan(v, out=v)
        v *= tmp
        v -= w
        v *= 2.0 / np.pi
        v *= g
        v += d
        v += (2.0 / np.pi) * b * g * np.log(g)
        return

    # params.scale*x + d, where
    # x = c*sin(a*(v+s)) / cos(v)**(1/a) * (cos(v - a*(v+s)) / w)**((1-a)/a);
    # symmetric noise has no c and s, and takes cos((1-a)*v)
    skewed = b != 0.0
    if skewed:
        bt = b * np.tan(a * np.pi / 2.0)
        shift = np.arctan(bt) / a
        scale = (1.0 + bt * bt) ** (1.0 / (2.0 * a))
        np.add(v, shift, out=tmp)
        tmp *= a
        np.subtract(v, tmp, out=tmp)
    else:
        np.multiply(1.0 - a, v, out=tmp)
    np.cos(tmp, out=tmp)
    np.divide(tmp, w, out=w)
    w **= (1.0 - a) / a
    np.cos(v, out=tmp)
    tmp **= 1.0 / a
    if skewed:
        v += shift
    v *= a
    np.sin(v, out=v)
    if skewed:
        v *= scale
    v /= tmp
    v *= w
    v *= params.scale
    v += d


def empirical_cf(draws):
    """Mean of exp(j*t*x) at each t of CF_GRID, summed over blocks of draws.

    ``draws`` is an array of any shape, read as one flat sample, or an
    iterable of such arrays, read as their concatenation.  The sums run
    over blocks of ``BLOCK`` draws in order, so a stream of ``BLOCK``-draw
    arrays (the last one may be shorter) gives the bits its concatenation
    gives, without ever being held whole.
    z = exp(j*0.1*x) is written into the real and imaginary parts of one
    complex block from one tangent of the half angle, u = tan(0.05*x):
    cos(0.1*x) = 2/(1 + u*u) - 1 and sin(0.1*x) = u * 2/(1 + u*u).  numpy
    evaluates tan with SIMD but cos and sin one element at a time, so one
    tangent is cheaper than a cosine and a sine, and each part is within a
    few 1e-16 of them.  z**5 = (z**2)**2 * z, and z**10 and z**20 are
    squares in turn.  Beside the draws, the peak is two complex blocks
    that every block reuses.
    """
    z, zk = np.empty((2, BLOCK), dtype=complex)
    sums = [0j] * len(CF_GRID)
    n = 0
    for part in [draws] if isinstance(draws, np.ndarray) else draws:
        flat = np.asarray(part).reshape(-1)
        n += flat.size
        for start in range(0, flat.size, BLOCK):
            x = flat[start:start + BLOCK]
            zb, zkb = z[:x.size], zk[:x.size]
            # u and 2/(1 + u*u) in zkb's buffer, which zb*zb overwrites
            u, r = zkb.view(float)[:x.size], zkb.view(float)[x.size:]
            np.multiply(0.5 * CF_GRID[0], x, out=u)
            np.tan(u, out=u)
            np.multiply(u, u, out=r)
            r += 1.0
            np.divide(2.0, r, out=r)
            np.multiply(u, r, out=zb.imag)
            np.subtract(r, 1.0, out=zb.real)
            sums[0] += zb.sum()
            np.multiply(zb, zb, out=zkb)
            np.multiply(zkb, zkb, out=zkb)
            np.multiply(zkb, zb, out=zkb)
            sums[1] += zkb.sum()
            np.multiply(zkb, zkb, out=zkb)
            sums[2] += zkb.sum()
            np.multiply(zkb, zkb, out=zkb)
            sums[3] += zkb.sum()
    if n == 0:
        raise ParameterError("draws must hold at least one value, got none")
    return [complex(s / n) for s in sums]
