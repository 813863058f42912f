import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from sparselms import AlphaStableParams, ParameterError, characteristic_function, sample

CF_GRID = (0.1, 0.5, 1.0, 2.0)


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
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ParameterError):
        AlphaStableParams(**kwargs)


@pytest.mark.parametrize("field", ["gamma", "delta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_scale_and_location_rejected(field, value):
    with pytest.raises(ParameterError, match=field):
        AlphaStableParams(alpha=1.5, **{field: value})


class TestSampler:
    def test_determinism(self):
        params = AlphaStableParams(1.2)
        a = sample(params, np.random.default_rng(99), size=1000)
        b = sample(params, np.random.default_rng(99), size=1000)
        assert np.array_equal(a, b)

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

    @pytest.mark.parametrize("alpha", [1.2, 2.0])
    def test_empirical_cf_matches_model(self, alpha):
        params = AlphaStableParams(alpha)
        z = sample(params, np.random.default_rng(3), size=100000)
        for t in CF_GRID:
            empirical = np.mean(np.exp(1j * t * z))
            assert abs(empirical - characteristic_function(params, t)) < 0.02

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

    # scipy's default S1 parametrization has the opposite skew sign and the
    # scale gamma**(1/alpha)
    @pytest.mark.parametrize("alpha,beta,gamma", [
        (1.5, 0.5, 1.0), (1.0, 0.5, 1.0), (1.0, 0.5, 2.0), (0.8, -0.6, 0.5), (1.2, 0.0, 1.0)])
    def test_cdf_matches_scipy_levy_stable(self, alpha, beta, gamma):
        levy_stable = scipy.stats.levy_stable
        assert levy_stable.parameterization == "S1"
        z = sample(AlphaStableParams(alpha, beta, gamma), np.random.default_rng(5), size=200000)
        x = np.array([-3.0, -1.0, -0.3, 0.3, 1.0, 3.0])
        empirical = np.mean(z[:, None] <= x, axis=0)
        reference = levy_stable.cdf(x, alpha, -beta, scale=gamma ** (1.0 / alpha))
        assert np.max(np.abs(empirical - reference)) <= 0.01
