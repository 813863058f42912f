import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from conftest import SPAN
from sparselms import AlphaStableParams, ParameterError, characteristic_function, sample
from sparselms.stable import CF_GRID, empirical_cf

# (alpha, beta, gamma, delta) of the sampler's CDF check against scipy
CDF_CASES = [(1.5, 0.5, 1.0, 0.0), (1.0, 0.5, 1.0, 0.0), (1.0, 0.5, 2.0, 0.0),
             (0.8, -0.6, 0.5, 0.0), (1.2, 0.0, 1.0, 0.0), (1.0, 0.5, 2.0, 0.7),
             (1.5, 0.5, 1.0, -0.4), (0.8, -0.6, 0.5, 1.3), (1.0, -0.8, 0.5, -1.1)]


class TestCharacteristicFunction:
    def test_equals_one_at_zero(self):
        for params in (AlphaStableParams(1.2), AlphaStableParams(1.0, 0.5),
                       AlphaStableParams(2.0, 0.0, 3.0, -1.0)):
            assert characteristic_function(params, 0.0) == 1.0 + 0.0j

    def test_gaussian_case_direct_evaluation(self):
        # symmetric alpha = 2 reduces to exp(-gamma * t**2)
        params = AlphaStableParams(2.0)
        assert characteristic_function(params, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-14)
        assert characteristic_function(params, 2.0) == pytest.approx(math.exp(-4.0), abs=1e-14)

    def test_heavy_tail_symmetric_direct_evaluation(self):
        params = AlphaStableParams(1.2)
        expected = math.exp(-(2.0 ** 1.2))
        assert characteristic_function(params, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_location_term(self):
        params = AlphaStableParams(2.0, 0.0, 1.0, 3.0)
        expected = math.exp(-1.0) * complex(math.cos(3.0), math.sin(3.0))
        assert characteristic_function(params, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_alpha_one_uses_log_of_abs_t(self):
        # independent recomputation of the alpha = 1 skew branch at t < 0
        params = AlphaStableParams(1.0, 0.5, 2.0, 0.0)
        t = -0.5
        s = -(2.0 / math.pi) * math.log(abs(t))
        expected = np.exp(-2.0 * abs(t) * (1.0 + 1j * 0.5 * (-1.0) * s))
        assert characteristic_function(params, t) == pytest.approx(expected, rel=1e-12)

    def test_alpha_one_tiny_t_is_finite(self):
        params = AlphaStableParams(1.0, 1.0)
        value = characteristic_function(params, 1e-320)
        assert np.isfinite(value.real) and np.isfinite(value.imag)

    def test_vector_argument(self):
        params = AlphaStableParams(1.5, 0.3)
        ts = np.array([-1.0, 0.0, 0.25, 3.0])
        values = characteristic_function(params, ts)
        assert values.shape == ts.shape
        for t, v in zip(ts, values):
            assert v == characteristic_function(params, float(t))

    @given(alpha=st.floats(0.1, 2.0), beta=st.floats(-1.0, 1.0),
           gamma=st.floats(0.01, 10.0), delta=st.floats(-5.0, 5.0),
           t=st.floats(-50.0, 50.0))
    def test_modulus_bounded_by_one(self, alpha, beta, gamma, delta, t):
        params = AlphaStableParams(alpha, beta, gamma, delta)
        assert abs(characteristic_function(params, t)) <= 1.0 + 1e-12

    @given(alpha=st.floats(0.1, 2.0), gamma=st.floats(0.01, 10.0),
           t=st.floats(-20.0, 20.0))
    def test_conjugate_symmetry_when_symmetric(self, alpha, gamma, t):
        params = AlphaStableParams(alpha, 0.0, gamma, 0.0)
        left = characteristic_function(params, -t)
        right = characteristic_function(params, t).conjugate()
        assert left == pytest.approx(right, abs=1e-15)

    def test_nonfinite_t_rejected(self):
        with pytest.raises(ParameterError):
            characteristic_function(AlphaStableParams(1.5), float("inf"))


@pytest.mark.parametrize("kwargs", [
    dict(alpha=0.0), dict(alpha=-1.0), dict(alpha=2.5),
    dict(alpha=1.5, beta=1.5), dict(alpha=1.5, beta=-1.01),
    dict(alpha=1.5, gamma=0.0), dict(alpha=1.5, gamma=-2.0),
    dict(alpha=1.5, delta=float("inf")), dict(alpha=1.5, delta=float("nan")),
    # the sample scale gamma**(1/alpha) overflows or underflows
    dict(alpha=0.1, gamma=1e300), dict(alpha=0.5, gamma=1e200), dict(alpha=0.1, gamma=1e-40),
    # below the supported range: the sampler overflows at alpha = 0.02
    dict(alpha=0.05), dict(alpha=0.02),
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ParameterError):
        AlphaStableParams(**kwargs)


@pytest.mark.parametrize("field", ["gamma", "delta", "alpha", "beta"])
# 10**400 is an int too large for a float
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   pytest.param(10**400, id="10**400")])
def test_non_finite_scale_and_location_rejected(field, value):
    with pytest.raises(ParameterError, match=f"^{field} must be finite, got "):
        AlphaStableParams(**{"alpha": 1.5, field: value})


def whole_array_sample(params, rng, size=None):
    """The sampler as one whole-array evaluation of the CMS transform: the
    oracle for the blocked one."""
    a, g, d = params.alpha, params.gamma, params.delta
    b = -params.beta

    scalar = size is None
    n = 1 if scalar else size
    v = rng.uniform(-np.pi / 2.0, np.pi / 2.0, n)
    w = rng.standard_exponential(n)

    if a == 1.0:
        bv = np.pi / 2.0 + b * v
        x = (2.0 / np.pi) * (bv * np.tan(v) - b * np.log((np.pi / 2.0) * w * np.cos(v) / bv))
        out = g * x + d + (2.0 / np.pi) * b * g * np.log(g)
    else:
        if b == 0.0:
            x = (np.sin(a * v) / np.cos(v) ** (1.0 / a)
                 * (np.cos((1.0 - a) * v) / w) ** ((1.0 - a) / a))
        else:
            bt = b * np.tan(a * np.pi / 2.0)
            shift = np.arctan(bt) / a
            scale = (1.0 + bt * bt) ** (1.0 / (2.0 * a))
            x = (scale * np.sin(a * (v + shift)) / np.cos(v) ** (1.0 / a)
                 * (np.cos(v - a * (v + shift)) / w) ** ((1.0 - a) / a))
        out = params.scale * x + d

    return float(out[0]) if scalar else out


# the four branches of the transform (alpha = 1 skewed, symmetric, skewed,
# alpha = 2), each also at a non-default gamma and delta
BRANCHES = [AlphaStableParams(*p) for p in [
    (1.0, 0.5), (1.2, 0.0), (1.2, 0.5), (2.0, 0.0),
    (1.0, -0.7, 2.5, -1.3), (0.7, 0.0, 0.4, 2.0), (1.6, 1.0, 3.0, 0.5), (2.0, 0.0, 0.5, -4.0)]]


@pytest.mark.parametrize("params", BRANCHES, ids=lambda p: f"{p.alpha}-{p.beta}-{p.gamma}-{p.delta}")
@pytest.mark.parametrize("size", [None, 0, 1, SPAN - 1, SPAN, SPAN + 1, 3 * SPAN + 7,
                                  (3, SPAN // 2 + 5)])
def test_blocked_sampler_is_bit_identical_to_whole_array(params, size):
    rng_blocked, rng_whole = np.random.default_rng(8), np.random.default_rng(8)
    blocked = sample(params, rng_blocked, size=size)
    whole = whole_array_sample(params, rng_whole, size=size)
    assert type(blocked) is type(whole)
    assert np.shape(blocked) == np.shape(whole)
    assert np.array_equal(blocked, whole)
    # the sampler leaves the stream where the whole-array draw does
    assert rng_blocked.bit_generator.state == rng_whole.bit_generator.state


@pytest.mark.parametrize("params", BRANCHES[:4], ids=lambda p: f"{p.alpha}-{p.beta}")
def test_sample_peak_memory_below_one_and_a_half_draw_arrays(params):
    n = 1_000_000
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sample(params, rng, size=n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.2, 2.0])
@pytest.mark.parametrize("beta", [0.0, 0.5, -1.0])
@pytest.mark.parametrize("n", [SPAN - 1, 2 * SPAN + 3])
def test_empirical_cf_matches_direct_mean(alpha, beta, n):
    draws = sample(AlphaStableParams(alpha, beta), np.random.default_rng(6), size=n)
    blocked = empirical_cf(draws)
    assert len(blocked) == len(CF_GRID)
    for t, value in zip(CF_GRID, blocked):
        assert abs(value - np.mean(np.exp(1j * t * draws))) <= 1e-12, t


def test_empirical_cf_reads_any_shape_as_one_sample():
    draws = sample(AlphaStableParams(1.2, 0.5), np.random.default_rng(7), size=(3, 5))
    assert empirical_cf(draws) == empirical_cf(draws.reshape(-1))


def test_empirical_cf_of_no_draws_names_draws():
    with pytest.raises(ParameterError, match="draws"):
        empirical_cf(np.empty(0))


def test_empirical_cf_of_no_blocks_names_draws():
    with pytest.raises(ParameterError, match="draws"):
        empirical_cf(iter([]))


class TestSampler:
    def test_scalar_and_shape(self):
        params = AlphaStableParams(1.7, -0.2)
        value = sample(params, np.random.default_rng(0))
        assert isinstance(value, float)
        arr = sample(params, np.random.default_rng(0), size=(3, 5))
        assert arr.shape == (3, 5)

    def test_gaussian_limit_kolmogorov_smirnov(self):
        # alpha = 2 draws must be N(delta, 2*gamma)
        params = AlphaStableParams(2.0)
        z = sample(params, np.random.default_rng(1), size=100000)
        result = scipy.stats.kstest(z, "norm", args=(0.0, math.sqrt(2.0)))
        assert result.pvalue > 0.01

    def test_location_is_pure_shift(self):
        params = AlphaStableParams(2.0, 0.0, 1.0, 5.0)
        z = sample(params, np.random.default_rng(2), size=100000)
        assert abs(np.mean(z) - 5.0) < 0.05

    @pytest.mark.parametrize("params", [
        AlphaStableParams(1.5, 0.7, 0.5, 1.0),
        AlphaStableParams(1.0, -0.5, 2.0, 0.0),
        AlphaStableParams(0.9, 1.0, 1.0, -2.0),
    ])
    def test_empirical_cf_matches_model_skewed(self, params):
        # complex (not just modulus) agreement pins the skew-sign convention
        z = sample(params, np.random.default_rng(4), size=200000)
        for t in (-1.3, 0.1, 0.5, 1.0, 2.0):
            empirical = np.mean(np.exp(1j * t * z))
            assert abs(empirical - characteristic_function(params, t)) < 0.02

    # scipy's default S1 parametrization has the opposite skew sign, the
    # scale gamma**(1/alpha) and the location delta
    @pytest.mark.parametrize("alpha,beta,gamma,delta", CDF_CASES, ids=[
        # an id names delta only where it is nonzero
        "-".join(map(str, case if case[3] else case[:3])) for case in CDF_CASES])
    def test_cdf_matches_scipy_levy_stable(self, alpha, beta, gamma, delta):
        levy_stable = scipy.stats.levy_stable
        assert levy_stable.parameterization == "S1"
        z = sample(AlphaStableParams(alpha, beta, gamma, delta), np.random.default_rng(5),
                   size=200000)
        x = np.array([-3.0, -1.0, -0.3, 0.3, 1.0, 3.0])
        empirical = np.mean(z[:, None] <= x, axis=0)
        reference = levy_stable.cdf(x, alpha, -beta, loc=delta, scale=gamma ** (1.0 / alpha))
        assert np.max(np.abs(empirical - reference)) <= 0.01
