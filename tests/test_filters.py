import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ALL_NAMES
from sparselms import (AlgorithmSpec, FilterState, ParameterError, attractor,
                       penalty_value, step)
from sparselms.filters import PENALTY_PARAMS, PENALTIES


def _sgn(x):
    if x > 0:
        return 1.0
    if x < 0:
        return -1.0
    return 0.0


def scalar_step_oracle(spec, w, w_prev, x, d):
    """Plain-Python transcription of the printed update rules."""
    n = len(w)
    e = d - sum(w[i] * x[i] for i in range(n))
    ge = spec.mu * _sgn(e) if spec.family == "sign" else spec.mu * e
    if spec.penalty == "lp":
        norm_p = sum(abs(w[i]) ** spec.p for i in range(n)) ** (1.0 / spec.p)
    out = []
    for i in range(n):
        if spec.penalty == "none":
            att = 0.0
        elif spec.penalty == "za":
            att = spec.rho * _sgn(w[i])
        elif spec.penalty == "rza":
            att = spec.rho * _sgn(w[i]) / (1.0 + spec.eps * abs(w[i]))
        elif spec.penalty == "rl1":
            att = spec.rho * _sgn(w[i]) / (spec.delta + abs(w_prev[i]))
        else:
            att = (spec.rho * norm_p ** (1.0 - spec.p) * _sgn(w[i])
                   / (spec.eps + abs(w[i]) ** (1.0 - spec.p)))
        out.append(w[i] + ge * x[i] - att)
    return out


class TestStepHandOracles:
    def test_history(self):
        spec = AlgorithmSpec(family="sign", penalty="rl1")
        state = FilterState(w=np.array([0.5]), w_prev=np.array([0.25]))
        out = step(spec, state, np.array([1.0]), 1.0)
        assert np.array_equal(out.w_prev, state.w)

    def test_dimension_mismatch(self):
        state = FilterState.zeros(2)
        with pytest.raises(ParameterError, match="does not match"):
            step(AlgorithmSpec(), state, np.array([1.0, 2.0, 3.0]), 0.0)
        with pytest.raises(ParameterError, match="does not match"):
            step(AlgorithmSpec(), state, np.array([1.0]), 0.0)


ORACLE_PARAMS = {
    "none": {},
    "za": {"rho": 0.003},
    "rza": {"rho": 0.002, "eps": 20.0},
    "rl1": {"rho": 0.004, "delta": 0.05},
    "lp": {"rho": 0.001, "eps": 0.05, "p": 0.5},
}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_step_matches_scalar_oracle(name):
    penalty = AlgorithmSpec.from_name(name).penalty
    spec = AlgorithmSpec.from_name(name, mu=0.05, **ORACLE_PARAMS[penalty])
    rng = np.random.default_rng(sum(map(ord, name)))
    state = FilterState.zeros(6)
    for _ in range(30):
        x = rng.standard_normal(6)
        d = float(rng.standard_normal())
        expected = scalar_step_oracle(spec, list(state.w), list(state.w_prev), list(x), d)
        state = step(spec, state, x, d)
        np.testing.assert_allclose(state.w, expected, rtol=1e-12, atol=1e-15)


class TestPenaltyValue:
    def test_za_is_l1(self):
        spec = AlgorithmSpec(penalty="za")
        assert penalty_value(spec, np.array([1.0, -2.0, 0.0])) == 3.0

    def test_rza_at_zero(self):
        spec = AlgorithmSpec(penalty="rza", eps=20.0)
        assert penalty_value(spec, np.array([0.0])) == 0.0

    def test_lp_single_element(self):
        spec = AlgorithmSpec(penalty="lp", p=0.5)
        assert penalty_value(spec, np.array([4.0])) == pytest.approx(4.0, rel=1e-12)

    def test_none_is_zero(self):
        spec = AlgorithmSpec(penalty="none")
        assert penalty_value(spec, np.array([1.0, 2.0])) == 0.0

    def test_rl1_uses_frozen_weights(self):
        spec = AlgorithmSpec(penalty="rl1", delta=0.5)
        w = np.array([1.0, -2.0])
        w_prev = np.array([0.5, 1.5])
        assert penalty_value(spec, w, w_prev) == pytest.approx(1.0 / 1.0 + 2.0 / 2.0)

    def test_rl1_without_w_prev_weighs_from_the_startup_zeros(self):
        spec = AlgorithmSpec(penalty="rl1", delta=0.5)
        w = np.array([1.0, -2.0, 0.25])
        assert penalty_value(spec, w) == penalty_value(spec, w, np.zeros(3)) == 6.5


class TestInvariants:
    @given(seed=st.integers(0, 500))
    def test_bounded_sign_update(self, seed):
        rng = np.random.default_rng(seed)
        spec = AlgorithmSpec(family="sign", penalty="none", mu=0.005)
        w = rng.standard_normal(12)
        x = rng.standard_normal(12) * 10
        d = float(rng.standard_normal() * 100)
        state = FilterState(w=w.copy(), w_prev=np.zeros(12))
        out = step(spec, state, x, d)
        bound = spec.mu * np.max(np.abs(x))
        slack = 1e-15 * (1.0 + np.max(np.abs(w)))
        assert np.max(np.abs(out.w - w)) <= bound + slack

    # per coordinate, |dw_i| <= mu*|x_i| + |attractor_i(w, w_prev)| however
    # large the error is
    @pytest.mark.parametrize("penalty", PENALTIES)
    @given(seed=st.integers(0, 500))
    def test_bounded_sign_update_per_penalty(self, penalty, seed):
        rng = np.random.default_rng(seed)
        spec = AlgorithmSpec(family="sign", penalty=penalty, mu=0.005)
        w = rng.standard_normal(12)
        w_prev = rng.standard_normal(12)
        x = rng.standard_normal(12) * 10
        d = float(rng.standard_normal() * 100)
        state = FilterState(w=w.copy(), w_prev=w_prev.copy())
        out = step(spec, state, x, d)
        bound = spec.mu * np.abs(x) + np.abs(attractor(spec, w, w_prev))
        slack = 1e-15 * (1.0 + np.max(np.abs(w)))
        assert np.all(np.abs(out.w - w) <= bound + slack)

    def test_pure_zero_attraction_decrement(self):
        spec = AlgorithmSpec(family="sign", penalty="za", rho=0.01)
        w = np.array([0.5, -0.3, 0.02, -0.011])
        state = FilterState(w=w.copy(), w_prev=np.zeros(4))
        out = step(spec, state, np.zeros(4), 0.0)
        assert np.array_equal(np.abs(out.w), np.abs(w) - 0.01)

    def test_rza_attenuation_ordering(self):
        spec = AlgorithmSpec(penalty="rza", rho=2e-3, eps=20.0)
        w = np.array([0.01, 0.1, 0.5, 2.0])
        mags = np.abs(attractor(spec, w))
        assert np.all(np.diff(mags) < 0)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_zero_is_fixed_point(self, name):
        spec = AlgorithmSpec.from_name(name)
        state = FilterState.zeros(5)
        assert np.array_equal(attractor(spec, state.w, state.w_prev), np.zeros(5))
        out = step(spec, state, np.zeros(5), 0.0)
        assert np.array_equal(out.w, np.zeros(5))

    def test_rl1_startup_weight_is_uniform(self):
        spec = AlgorithmSpec(penalty="rl1", rho=5e-5, delta=0.05)
        w = np.array([0.3, -0.2, 0.0])
        att = attractor(spec, w)  # w_prev defaults to zeros
        expected = (spec.rho / spec.delta) * np.sign(w)
        np.testing.assert_allclose(att, expected, rtol=1e-15)


def central_difference(func, w, h=1e-7):
    grad = np.zeros_like(w)
    for i in range(w.size):
        up, down = w.copy(), w.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (func(up) - func(down)) / (2.0 * h)
    return grad


def random_zero_free(rng, n=8, low=0.2, high=1.5):
    return rng.uniform(low, high, n) * rng.choice([-1.0, 1.0], n)


class TestGradientConsistency:
    """The attractor terms are (scaled) gradients of penalty_value; acceptance
    criterion 7 checks za, rza and rl1, and lp's limit is checked here."""

    def test_lp_limit(self):
        eps = 1e-8
        spec = AlgorithmSpec(penalty="lp", rho=5e-6, eps=eps, p=0.5)
        rng = np.random.default_rng(8)
        for _ in range(10):
            w = random_zero_free(rng)
            q = 1.0 - spec.p
            norm_p = np.sum(np.abs(w) ** spec.p) ** (1.0 / spec.p)
            analytic = norm_p ** q * np.sign(w) / np.abs(w) ** q
            fd = central_difference(lambda v: penalty_value(spec, v), w)
            np.testing.assert_allclose(fd, analytic, rtol=1e-6)
            tol = max(1e-4, eps / np.min(np.abs(w) ** q))
            np.testing.assert_allclose(attractor(spec, w), spec.rho * analytic,
                                       rtol=tol)


class TestDivergenceGuard:
    def test_gradient_overflow_returns_non_finite_coefficients(self):
        # no exception and no RuntimeWarning (filterwarnings makes one fail)
        spec = AlgorithmSpec(family="gradient", penalty="none", mu=1.0)
        state = FilterState(w=np.array([1e308]), w_prev=np.zeros(1))
        out = step(spec, state, np.array([1e308]), 0.0)
        assert not np.isfinite(out.w).any()

    def test_sign_family_survives_huge_error(self):
        spec = AlgorithmSpec(family="sign", penalty="none", mu=1.0)
        state = FilterState(w=np.array([1e30]), w_prev=np.zeros(1))
        out = step(spec, state, np.array([2.0]), -1e300)
        assert np.isfinite(out.w).all()


class TestAlgorithmSpec:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_name_round_trip(self, name):
        assert AlgorithmSpec.from_name(name).name == name

    @pytest.mark.parametrize("name", ["", "xlms", "slms-", "slms-l7", "lms-none"])
    def test_bad_names(self, name):
        with pytest.raises(ParameterError):
            AlgorithmSpec.from_name(name)

    @pytest.mark.parametrize("kwargs", [
        dict(mu=0.0), dict(mu=-0.1), dict(penalty="za", rho=-1e-9),
        dict(penalty="lp", rho=-1.0), dict(penalty="rza", eps=0.0),
        dict(penalty="rl1", delta=0.0), dict(penalty="lp", eps=-0.05),
        dict(penalty="lp", p=0.0), dict(penalty="lp", p=1.0), dict(penalty="lp", p=1.5),
        dict(family="momentum"), dict(penalty="l0"),
    ] + [  # a hyperparameter the penalty does not use, at a value valid for it
        dict(penalty=pen, **{field: 0.5}) for pen in PENALTIES
        for field in ("rho", "eps", "delta", "p") if field not in PENALTY_PARAMS[pen]
    ])
    def test_invalid_spec(self, kwargs):
        with pytest.raises(ParameterError):
            AlgorithmSpec(**kwargs)

    # mu, and every (penalty, hyperparameter) pair of the table
    @pytest.mark.parametrize("penalty,field", [pytest.param("none", "mu", id="mu")] + [
        pytest.param(pen, f, id=f"{f}_{pen}")
        for pen, params in PENALTY_PARAMS.items() for f in params])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_hyperparameter_rejected(self, penalty, field, value):
        with pytest.raises(ParameterError, match=field):
            AlgorithmSpec(penalty=penalty, **{field: value})

    def test_defaults_match_reference_parameterization(self):
        assert AlgorithmSpec().mu == 0.005
        expected = {  # (rho, eps, delta, p); None where the penalty has no such parameter
            "none": (None, None, None, None),
            "za": (2e-4, None, None, None),
            "rza": (2e-3, 20.0, None, None),
            "rl1": (5e-5, None, 0.05, None),
            "lp": (5e-6, 0.05, None, 0.5),
        }
        for penalty, values in expected.items():
            spec = AlgorithmSpec(penalty=penalty)
            assert (spec.rho, spec.eps, spec.delta, spec.p) == values, penalty
