import math

import numpy as np
import pytest

from sparselms import (AlgorithmSpec, AlphaStableParams, ParameterError,
                       SimConfig, apply_snr, derive_trial_seed,
                       make_realization, mse_db, run_experiment, run_trial)

ALL_NAMES = ("lms", "slms", "lms-za", "slms-za", "lms-rza", "slms-rza",
             "lms-rl1", "slms-rl1", "lms-lp", "slms-lp")


def _specs(*names):
    return tuple(AlgorithmSpec.from_name(n) for n in names)


class TestMseDb:
    def test_zero_estimate_is_zero_db(self):
        truth = np.array([0.6, 0.8])
        assert mse_db([np.zeros(2)], truth) == 0.0

    def test_exact_estimate_hits_floor(self):
        truth = np.array([0.6, 0.8])
        assert mse_db([truth.copy()], truth) == -100.0

    def test_two_trial_average(self):
        truth = np.array([1.0, 0.0, 0.0])
        estimates = [truth / 2, truth * 1.5]
        # (0.25 + 0.25) / 2 = 0.25 -> 10*log10(0.25)
        assert mse_db(estimates, truth) == pytest.approx(-6.020599913279624, abs=1e-12)

    def test_zero_norm_truth_rejected(self):
        with pytest.raises(ParameterError):
            mse_db([np.ones(3)], np.zeros(3))

    def test_empty_estimates_rejected(self):
        with pytest.raises(ParameterError):
            mse_db([], np.ones(2))

    def test_matches_one_line_recomputation(self):
        rng = np.random.default_rng(0)
        truth = rng.standard_normal(6)
        estimates = [rng.standard_normal(6) for _ in range(5)]
        manual = 10 * math.log10(
            np.mean([np.sum((e - truth) ** 2) for e in estimates]) / np.sum(truth**2))
        assert abs(mse_db(estimates, truth) - manual) <= 1e-12


class TestApplySnr:
    def _config(self, noise, snr_db):
        return SimConfig(n_taps=8, sparsity=2, n_iterations=10, n_trials=1,
                         snr_db=snr_db, noise=noise, algorithms=_specs("slms"),
                         master_seed=0)

    def test_gaussian_10db(self):
        power, noise = apply_snr(self._config(AlphaStableParams(2.0), 10.0))
        # signal power equals the nominal noise variance 2*gamma; the SNR
        # scales the dispersion down, so realized power ratio is 10 exactly
        assert power == 2.0
        assert noise.gamma == pytest.approx(0.1, rel=1e-12)
        assert power / (2 * noise.gamma) == pytest.approx(10.0, rel=1e-12)

    def test_gaussian_0db_equal_powers(self):
        power, noise = apply_snr(self._config(AlphaStableParams(2.0), 0.0))
        assert power == 2.0
        assert 2 * noise.gamma == pytest.approx(power, rel=1e-12)

    def test_heavy_tail_dispersion_ratio(self):
        power, noise = apply_snr(self._config(AlphaStableParams(1.2), 10.0))
        assert power == 1.0
        assert power / noise.gamma == pytest.approx(10.0, rel=1e-12)

    def test_no_noise_hook(self):
        power, noise = apply_snr(self._config(None, 10.0))
        assert power == 1.0 and noise is None

    def test_preserves_shape_parameters(self):
        power, noise = apply_snr(self._config(AlphaStableParams(1.5, 0.25, 2.0, 1.0), 5.0))
        assert (noise.alpha, noise.beta, noise.delta) == (1.5, 0.25, 1.0)
        assert noise.gamma == pytest.approx(2.0 * 10 ** -0.5, rel=1e-12)


class TestTrialSeeding:
    def test_deterministic(self):
        assert derive_trial_seed(5, 3) == derive_trial_seed(5, 3)

    def test_varies_with_index_and_master(self):
        seeds = {derive_trial_seed(m, i) for m in range(3) for i in range(50)}
        assert len(seeds) == 150


class TestMakeRealization:
    def test_deterministic(self, small_config):
        config = small_config()
        seed = derive_trial_seed(config.master_seed, 0)
        a = make_realization(config, seed)
        b = make_realization(config, seed)
        assert np.array_equal(a.channel.taps, b.channel.taps)
        assert np.array_equal(a.signal.samples, b.signal.samples)
        assert np.array_equal(a.noise, b.noise)

    def test_sparsity_change_keeps_input_and_noise(self, small_config):
        seed = derive_trial_seed(11, 0)
        a = make_realization(small_config(sparsity=4), seed)
        b = make_realization(small_config(sparsity=8), seed)
        assert np.array_equal(a.signal.samples, b.signal.samples)
        assert np.array_equal(a.noise, b.noise)
        assert not np.array_equal(a.channel.taps, b.channel.taps)

    def test_no_noise_hook_gives_zeros(self, small_config):
        config = small_config(noise=None)
        real = make_realization(config, derive_trial_seed(11, 0))
        assert np.array_equal(real.noise, np.zeros(config.n_iterations))

    def test_signal_power_from_snr(self, small_config):
        config = small_config(noise=AlphaStableParams(2.0), n_iterations=4000)
        real = make_realization(config, derive_trial_seed(11, 1))
        assert real.signal.power == 2.0
        assert abs(np.mean(real.signal.samples**2) - 2.0) < 0.2


class TestRunTrial:
    def test_deterministic(self, small_config):
        config = small_config()
        spec = config.algorithms[0]
        seed = derive_trial_seed(config.master_seed, 2)
        a = run_trial(config, spec, seed)
        b = run_trial(config, spec, seed)
        assert np.array_equal(a.nmse, b.nmse)
        assert a.diverged == b.diverged == False  # noqa: E712

    def test_noiseless_convergence_and_scripted_oracle(self, small_config):
        # no-noise hook: sign-family ZA run must identify the system, and
        # must agree with a direct transcription of its update recursion
        config = small_config(noise=None, n_taps=16, sparsity=4, n_iterations=5000)
        spec = config.algorithms[0]
        seed = derive_trial_seed(config.master_seed, 0)
        result = run_trial(config, spec, seed)
        assert not result.diverged
        assert result.nmse[-1] < 1e-2

        real = make_realization(config, seed)
        w = np.zeros(16)
        pad = np.concatenate([np.zeros(15), real.signal.samples])
        expected = np.zeros(5000)
        for n in range(5000):
            x = pad[n:n + 16][::-1]
            d = float(real.channel.taps @ x)
            e = d - float(w @ x)
            w = w + (spec.mu * np.sign(e)) * x - spec.rho * np.sign(w)
            expected[n] = float(np.sum((w - real.channel.taps) ** 2))
        np.testing.assert_allclose(result.nmse, expected, rtol=1e-10, atol=1e-300)

    def test_zero_iterations_rejected(self, small_config):
        with pytest.raises(ParameterError):
            small_config(n_iterations=0)


class TestSimConfigValidation:
    @pytest.mark.parametrize("overrides", [
        dict(n_trials=0), dict(n_iterations=0), dict(sparsity=0),
        dict(sparsity=17), dict(master_seed=-1), dict(input_kind="morse"),
        dict(snr_db=float("nan")), dict(algorithms=()),
        dict(snr_db=4000.0), dict(snr_db=-4000.0),
        dict(noise=AlphaStableParams(1.2, gamma=1e300), snr_db=-100.0),
        # the sampler's scale gamma**(1/alpha) underflows or overflows
        dict(noise=AlphaStableParams(0.1), snr_db=400.0),
        dict(noise=AlphaStableParams(0.1, gamma=1e300), snr_db=0.0),
        dict(noise=AlphaStableParams(0.5, gamma=1e200), snr_db=0.0),
    ])
    def test_invalid(self, small_config, overrides):
        with pytest.raises(ParameterError):
            small_config(**overrides)

    def test_duplicate_algorithms_rejected(self, small_config):
        with pytest.raises(ParameterError):
            small_config(algorithms=_specs("slms", "slms"))


class TestRunExperiment:
    def test_two_trial_curve_is_mse_db_of_trials(self, small_config):
        config = small_config(n_trials=2, n_iterations=50)
        spec = config.algorithms[0]
        curves = run_experiment(config)
        trials = [run_trial(config, spec, derive_trial_seed(config.master_seed, m))
                  for m in range(2)]
        manual = 10 * np.log10(np.maximum(
            np.mean([t.nmse for t in trials], axis=0), 1e-10))
        np.testing.assert_allclose(curves[0].mse_db, manual, atol=1e-12)
        assert curves[0].trials_completed == 2
        assert curves[0].trials_diverged == 0

    def test_permuting_algorithms_permutes_output(self, small_config):
        names = ("slms", "slms-rza", "lms-rl1")
        a = run_experiment(small_config(algorithms=_specs(*names), n_iterations=40))
        b = run_experiment(small_config(algorithms=_specs(*reversed(names)), n_iterations=40))
        assert [c.algorithm for c in a] == list(names)
        assert [c.algorithm for c in b] == list(reversed(names))
        for curve in a:
            twin = next(c for c in b if c.algorithm == curve.algorithm)
            assert np.array_equal(curve.mse_db, twin.mse_db)

    def test_reproducible(self, small_config):
        config = small_config(n_iterations=60)
        a = run_experiment(config)
        b = run_experiment(config)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.mse_db, cb.mse_db)

    def test_worker_count_does_not_change_result(self, small_config):
        config = small_config(n_trials=4, n_iterations=60)
        serial = run_experiment(config, workers=1)
        parallel = run_experiment(config, workers=2)
        for cs, cp in zip(serial, parallel):
            assert cs.algorithm == cp.algorithm
            assert np.array_equal(cs.mse_db, cp.mse_db)
            assert (cs.trials_completed, cs.trials_diverged) == \
                   (cp.trials_completed, cp.trials_diverged)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, small_config, workers):
        with pytest.raises(ParameterError, match="workers"):
            run_experiment(small_config(), workers=workers)

    def test_monotone_sanity_noiseless(self, small_config):
        # every algorithm must end below its first-iteration MSE with z = 0
        config = small_config(noise=None, n_trials=2, n_iterations=600,
                              algorithms=_specs(*ALL_NAMES))
        for curve in run_experiment(config):
            assert curve.mse_db[-1] < curve.mse_db[0], curve.algorithm
            assert np.all(np.isfinite(curve.mse_db))

    def test_all_trials_diverged_is_reported_not_raised(self, small_config):
        # gradient LMS with a hopeless step size blows up every trial
        config = small_config(
            algorithms=(AlgorithmSpec(family="gradient", penalty="none", mu=50.0),),
            n_trials=3, n_iterations=300)
        curve = run_experiment(config)[0]
        assert curve.trials_completed == 0
        assert curve.trials_diverged == 3
        assert np.all(np.isnan(curve.mse_db))

    def test_curves_finite_when_any_trial_completed(self, small_config):
        config = small_config(n_trials=3, n_iterations=80,
                              algorithms=_specs("slms", "slms-rl1"))
        for curve in run_experiment(config):
            assert curve.trials_completed > 0
            assert np.all(np.isfinite(curve.mse_db))
            assert np.all(curve.mse_db >= -100.0)
