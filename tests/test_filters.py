import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ALL_NAMES, central_difference, random_zero_free
from sparselms import (AlgorithmSpec, FilterState, ParameterError, attractor,
                       penalty_value, step)
from sparselms.filters import PENALTY_PARAMS, PENALTIES


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


class TestPenaltyValue:
    # spec, w, w_prev (None: left at its default) and the penalty's value
    @pytest.mark.parametrize("spec,w,w_prev,expected", [
        (AlgorithmSpec(penalty="za"), [1.0, -2.0, 0.0], None, 3.0),
        (AlgorithmSpec(penalty="rza", eps=20.0), [0.0], None, 0.0),
        (AlgorithmSpec(penalty="lp", p=0.5), [4.0], None, pytest.approx(4.0, rel=1e-12)),
        (AlgorithmSpec(penalty="none"), [1.0, 2.0], None, 0.0),
        (AlgorithmSpec(penalty="rl1", delta=0.5), [1.0, -2.0], [0.5, 1.5],
         pytest.approx(1.0 / 1.0 + 2.0 / 2.0)),
        # without w_prev, rl1 weighs from the startup zeros
        (AlgorithmSpec(penalty="rl1", delta=0.5), [1.0, -2.0, 0.25], None, 6.5),
        (AlgorithmSpec(penalty="rl1", delta=0.5), [1.0, -2.0, 0.25], [0.0, 0.0, 0.0], 6.5),
    ], ids=["za-is-l1", "rza-at-zero", "lp-single-element", "none-is-zero",
            "rl1-uses-frozen-weights", "rl1-without-w-prev", "rl1-zero-w-prev"])
    def test_penalty_value(self, spec, w, w_prev, expected):
        w_prev = None if w_prev is None else np.array(w_prev)
        assert penalty_value(spec, np.array(w), w_prev) == expected


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
    # 10**400 is an int too large for a float
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       pytest.param(10**400, id="10**400")])
    def test_non_finite_hyperparameter_rejected(self, penalty, field, value):
        with pytest.raises(ParameterError, match=f"^{field} must be finite, got "):
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
