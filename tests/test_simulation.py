import math
import os
import pickle
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import ALL_NAMES, algorithm_specs
from sparselms import (AlgorithmSpec, AlphaStableParams, ParameterError,
                       SimConfig, derive_trial_seed, generate_input,
                       make_realization, run_experiment, simulation)
from sparselms.simulation import apply_snr, run_trial


class TestApplySnr:
    def _config(self, noise, snr_db):
        return SimConfig(n_taps=8, sparsity=2, n_iterations=10, n_trials=1,
                         snr_db=snr_db, noise=noise, algorithms=algorithm_specs("slms"),
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
        assert np.array_equal(a.signal, b.signal)
        assert np.array_equal(a.noise, b.noise)

    def test_sparsity_change_keeps_input_and_noise(self, small_config):
        seed = derive_trial_seed(11, 0)
        a = make_realization(small_config(sparsity=4), seed)
        b = make_realization(small_config(sparsity=8), seed)
        assert np.array_equal(a.signal, b.signal)
        assert np.array_equal(a.noise, b.noise)
        assert not np.array_equal(a.channel.taps, b.channel.taps)

    def test_no_noise_hook_gives_zeros(self, small_config):
        config = small_config(noise=None)
        real = make_realization(config, derive_trial_seed(11, 0))
        assert np.array_equal(real.noise, np.zeros(config.n_iterations))

    def test_signal_power_from_snr(self, small_config):
        config = small_config(noise=AlphaStableParams(2.0), n_iterations=4000)
        real = make_realization(config, derive_trial_seed(11, 1))
        assert abs(np.mean(real.signal**2) - 2.0) < 0.2


class TestRunTrial:
    def test_deterministic(self, small_config):
        config = small_config()
        spec = config.algorithms[0]
        seed = derive_trial_seed(config.master_seed, 2)
        a_nmse, a_at = run_trial(config, spec, seed)
        b_nmse, b_at = run_trial(config, spec, seed)
        assert np.array_equal(a_nmse, b_nmse)
        assert a_at == b_at == -1

    def test_noiseless_convergence(self, small_config):
        # no-noise hook: the sign-family ZA run must identify the system
        config = small_config(noise=None, n_taps=16, sparsity=4, n_iterations=5000)
        spec = config.algorithms[0]
        seed = derive_trial_seed(config.master_seed, 0)
        nmse, diverged_at = run_trial(config, spec, seed)
        assert diverged_at == -1
        assert nmse[-1] < 1e-2

    def test_divergence_blanks_the_trace_from_its_index(self, small_config):
        # gradient LMS with a hopeless step size overflows within the run
        config = small_config(algorithms=(AlgorithmSpec(family="gradient", mu=50.0),))
        nmse, diverged_at = run_trial(config, config.algorithms[0],
                                      derive_trial_seed(config.master_seed, 0))
        assert 0 <= diverged_at < config.n_iterations
        assert np.all(np.isnan(nmse[diverged_at:]))
        # the squared error overflows to inf many updates before a
        # coefficient does; the index marks the first non-finite error
        assert np.all(np.isfinite(nmse[:diverged_at]))
        assert np.isfinite(nmse[0])


# overrides of small_config, and the whole message of each count row
_INVALID_CONFIGS = [
    (dict(n_trials=0), "n_trials must be >= 1, got 0"),
    (dict(n_iterations=0), "n_iterations must be >= 1, got 0"),
    (dict(sparsity=0), "sparsity must be in [1, 16], got 0"),
    (dict(sparsity=17), "sparsity must be in [1, 16], got 17"),
    (dict(master_seed=-1), "master_seed must be >= 0, got -1"),
    (dict(input_kind="morse"), None),
    (dict(snr_db=float("nan")), "snr_db must be finite, got nan"), (dict(algorithms=()), None),
    (dict(snr_db=4000.0), None),
    # 10.0 ** 400 overflows: the message names the fault, not an errno tuple
    (dict(snr_db=-4000.0), "snr_db = -4000.0 scales the noise dispersion gamma = 1.0 "
                           "out of range: gamma must be finite, got inf"),
    (dict(noise=AlphaStableParams(1.2, gamma=1e300), snr_db=-100.0), None),
    # the sampler's scale gamma**(1/alpha) underflows
    (dict(noise=AlphaStableParams(0.1), snr_db=400.0), None),
    (dict(n_trials=2.5), "n_trials must be an integer, got 2.5"),
    (dict(n_iterations=30.0), "n_iterations must be an integer, got 30.0"),
    (dict(master_seed=1.5), "master_seed must be an integer, got 1.5"),
    (dict(n_taps=16.0), "n_taps must be an integer, got 16.0"),
    (dict(sparsity=2.0), "sparsity must be an integer, got 2.0"),
    (dict(n_taps=0), "n_taps must be >= 1, got 0"),
    (dict(n_trials=True), "n_trials must be an integer, got True"),
    (dict(master_seed=False), "master_seed must be an integer, got False"),
]


class TestSimConfigValidation:
    # ids by position, so a row keeps its name when a column is added
    @pytest.mark.parametrize("overrides,message", _INVALID_CONFIGS,
                             ids=[f"overrides{i}" for i in range(len(_INVALID_CONFIGS))])
    def test_invalid(self, small_config, overrides, message):
        with pytest.raises(ParameterError,
                           match=None if message is None else f"^{re.escape(message)}$"):
            small_config(**overrides)

    def test_numpy_integer_counts_accepted(self, small_config):
        config = small_config(n_taps=np.int64(16), sparsity=np.int32(4),
                              n_iterations=np.int64(30), n_trials=np.int64(2),
                              master_seed=np.uint64(11))
        assert config == small_config(n_iterations=30, n_trials=2)
        assert run_experiment(config)[0].mse_db.size == 30

    def test_duplicate_algorithms_rejected(self, small_config):
        with pytest.raises(ParameterError, match="^" + re.escape(
                "algorithms must not repeat a name, got ['slms', 'slms']") + "$"):
            small_config(algorithms=algorithm_specs("slms", "slms"))

    def test_algorithm_that_is_not_a_spec_rejected(self, small_config):
        with pytest.raises(ParameterError, match="^algorithms must be AlgorithmSpec instances$"):
            small_config(algorithms=(AlgorithmSpec.from_name("slms"), "slms-za"))

    def test_noise_that_is_not_stable_params_rejected(self, small_config):
        with pytest.raises(ParameterError, match="^noise must be AlphaStableParams or None$"):
            small_config(noise=1.2)


# a number of the wrong type, wherever one enters; the message begins with
# the field's name, which cli names the config key by
@pytest.mark.parametrize("build,field", [
    (lambda config: AlgorithmSpec(mu="0.1"), "mu"),
    (lambda config: AlgorithmSpec(penalty="lp", p="0.5"), "p"),
    (lambda config: AlphaStableParams("1.2"), "alpha"),
    (lambda config: AlphaStableParams(1.2, gamma="1"), "gamma"),
    (lambda config: config(snr_db=None), "snr_db"),
    (lambda config: generate_input(10, "1", np.random.default_rng(0)), "power"),
    (lambda config: AlgorithmSpec(mu=True), "mu"),
    (lambda config: AlphaStableParams(True), "alpha"),
    (lambda config: config(snr_db=False), "snr_db"),
], ids=["mu", "p", "alpha", "gamma", "snr_db", "power", "mu-bool", "alpha-bool", "snr_db-bool"])
def test_wrong_typed_number_rejected_naming_it(small_config, build, field):
    with pytest.raises(ParameterError, match=f"^{field} must be a number, got "):
        build(small_config)


class TestChunkLayout:
    # one-trial chunks that do not divide among the processes
    @example(n_trials=5, n_algorithms=1, n_iterations=1, n_taps=1, floor=1, budget=0,
             workers=2, cpus=2)
    @given(n_trials=st.integers(1, 200), n_algorithms=st.integers(1, 10),
           n_iterations=st.integers(1, 5000), n_taps=st.integers(1, 512),
           floor=st.integers(1, 32), budget=st.integers(0, 2**20),
           workers=st.integers(1, 16), cpus=st.integers(1, 16))
    def test_fixed_size_cover_within_budget(self, n_trials, n_algorithms, n_iterations,
                                            n_taps, floor, budget, workers, cpus):
        # chunk_layout reads only these four fields of a config
        config = SimpleNamespace(n_trials=n_trials, algorithms=(None,) * n_algorithms,
                                 n_iterations=n_iterations, n_taps=n_taps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "_MIN_CHUNK", floor)
            mp.setattr(simulation, "_CHUNK_VALUES", budget)
            # the CPU count is the one read at import, never the affinity
            mp.setattr(os, "sched_getaffinity", lambda pid: {0})
            mp.setattr(simulation, "_CPUS", cpus)
            chunks, processes = simulation.chunk_layout(config, workers)
            mp.setattr(simulation, "_CPUS", 1)
            serial, _ = simulation.chunk_layout(config, 1)
        trial_values = 4 * (n_algorithms + 1) * (n_iterations + 2 * n_taps)
        per_chunk = max(floor, budget // trial_values)
        sizes = [stop - start for start, stop in chunks]
        assert [m for start, stop in chunks for m in range(start, stop)] == list(range(n_trials))
        assert set(sizes[:-1]) <= {per_chunk} and 1 <= sizes[-1] <= per_chunk
        assert processes == min(workers, cpus, len(chunks))
        # the chunks depend on the config alone, not on workers or CPUs
        assert chunks == serial

    @pytest.mark.parametrize("names", [("slms",), ("lms-lp", "slms-lp"), ALL_NAMES],
                             ids=["one", "lp-pair", "all-ten"])
    @pytest.mark.parametrize("n_iterations, n_taps", [(250, 16), (10, 128)])
    def test_budget_sized_chunk_peaks_within_budget(self, small_config, names,
                                                    n_iterations, n_taps):
        # the chunk's arrays and its pickled result, as in a pool process
        config = small_config(n_taps=n_taps, n_iterations=n_iterations, n_trials=400,
                              algorithms=tuple(AlgorithmSpec.from_name(n) for n in names))
        (start, stop), *_ = simulation.chunk_layout(config, 1)[0]
        assert stop - start > simulation._MIN_CHUNK
        tracemalloc.start()
        try:
            pickle.dumps(simulation._trial_worker((config, start, stop)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * simulation._CHUNK_VALUES


class TestRunExperiment:
    def test_permuting_algorithms_permutes_output(self, small_config):
        names = ("slms", "slms-rza", "lms-rl1")
        a = run_experiment(small_config(algorithms=algorithm_specs(*names), n_iterations=40))
        b = run_experiment(small_config(algorithms=algorithm_specs(*reversed(names)),
                                        n_iterations=40))
        assert [c.algorithm for c in a] == list(names)
        assert [c.algorithm for c in b] == list(reversed(names))
        for curve in a:
            twin = next(c for c in b if c.algorithm == curve.algorithm)
            assert np.array_equal(curve.mse_db, twin.mse_db)

    def test_pool_no_larger_than_job_list(self, small_config, monkeypatch, recording_pool):
        # (workers, CPUs, trials, pool size) in chunks of 16 trials: bounded
        # in turn by the CPUs, the workers, the chunks (33 trials make 3)
        # and one CPU; no process starts.  The affinity is not consulted.
        monkeypatch.setattr(simulation, "_CHUNK_VALUES", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        cases = [(4, 2, 64, 2), (3, 8, 64, 3), (4, 8, 33, 3), (2, 1, 40, 1)]
        for workers, cpus, n_trials, _ in cases:
            monkeypatch.setattr(simulation, "_CPUS", cpus)
            run_experiment(small_config(n_trials=n_trials, n_iterations=20), workers=workers)
        assert recording_pool == [size for *_, size in cases]

    @pytest.mark.parametrize("workers", [0, -3, 1.5, None])
    def test_workers_not_a_positive_integer_rejected(self, small_config, workers):
        rule = ">= 1" if isinstance(workers, int) else "an integer"
        with pytest.raises(ParameterError,
                           match=f"^workers must be {rule}, got {re.escape(repr(workers))}$"):
            run_experiment(small_config(), workers=workers)

    def test_exact_estimate_hits_the_floor(self, small_config):
        # noiseless lms identifies a 2-tap channel to the last bit, so the
        # trial-averaged NMSE of 0 ends at the -100 dB floor, not at -inf
        config = small_config(n_taps=2, sparsity=1, noise=None, n_trials=2,
                              n_iterations=1000,
                              algorithms=(AlgorithmSpec(family="gradient", mu=0.2),))
        curve = run_experiment(config)[0]
        assert curve.mse_db[-1] == -100.0
        assert np.all(curve.mse_db >= -100.0)

    def test_monotone_sanity_noiseless(self, small_config):
        # every algorithm must end below its first-iteration MSE with z = 0
        config = small_config(noise=None, n_trials=2, n_iterations=600,
                              algorithms=algorithm_specs(*ALL_NAMES))
        for curve in run_experiment(config):
            assert curve.mse_db[-1] < curve.mse_db[0], curve.algorithm
            assert np.all(np.isfinite(curve.mse_db))

    def test_all_trials_diverged_is_reported_not_raised(self, small_config):
        # gradient LMS with a hopeless step size blows up every trial
        config = small_config(
            algorithms=(AlgorithmSpec(family="gradient", penalty="none", mu=50.0),),
            n_trials=3, n_iterations=300)
        curve = run_experiment(config)[0]
        assert curve.trials_diverged == 3
        assert np.all(np.isnan(curve.mse_db))

    def test_curves_finite_when_any_trial_completed(self, small_config):
        config = small_config(n_trials=3, n_iterations=80,
                              algorithms=algorithm_specs("slms", "slms-rl1"))
        for curve in run_experiment(config):
            assert curve.trials_diverged < config.n_trials
            assert np.all(np.isfinite(curve.mse_db))
            assert np.all(curve.mse_db >= -100.0)


def steady_state_msd(name, s2, n_taps=128, mu=0.005, px=2.0):
    """Closed-form plateau E||w(n) - w||^2 of plain lms or slms.

    White Gaussian input of power px and Gaussian noise of variance s2,
    under the independence assumption:

        lms:   K = mu N s2 / (2 - mu (N+2) px)
        slms:  K = c sqrt(s2 + px K),  c = mu N sqrt(pi/2) / 2

    (slms: the error is Gaussian with variance s2 + px K); the positive root
    of K**2 = c**2 (s2 + px K) is returned.  References: Feuer and
    Weinstein, IEEE Trans. ASSP 1985 (lms); Mathews and Cho, IEEE Trans.
    ASSP 1987 (sign-error lms).
    """
    if name == "lms":
        return mu * n_taps * s2 / (2.0 - mu * (n_taps + 2) * px)
    c2 = (mu * n_taps * math.sqrt(math.pi / 2.0) / 2.0) ** 2
    return (c2 * px + math.sqrt((c2 * px) ** 2 + 4.0 * c2 * s2)) / 2.0


def stable_slms_msd(alpha, gamma, px, n_taps=128, mu=0.005):
    """Plateau E||w(n) - w||^2 of slms under symmetric alpha-stable noise of
    dispersion gamma and white Gaussian input of power px (model A).

    The error is the noise plus a Gaussian of variance px K, so by Price's
    theorem the plateau solves 4 f_e(0) K = mu N, where

        f_e(0) = (1/pi) int_0^inf exp(-px K t**2 / 2 - gamma t**alpha) dt

    is the error's density at 0; one quad inside a brentq on log K.  At
    alpha = 2 this is the slms closed form of :func:`steady_state_msd`.
    Reference: Mathews and Cho, IEEE Trans. ASSP 1987.
    """
    def log_gap(log_k):
        k = math.exp(log_k)
        f0 = quad(lambda t: math.exp(-px * k * t * t / 2.0 - gamma * t ** alpha),
                  0.0, math.inf)[0] / math.pi
        return math.log(4.0 * f0 * k / (mu * n_taps))
    return math.exp(brentq(log_gap, -30.0, 10.0, xtol=1e-12))


def nominal_noise(config):
    """``(gamma, px)``: the noise dispersion at the config's SNR and the
    input power, from the config's nominal noise alone, so that a fault in
    ``apply_snr`` moves the simulation but not the theory."""
    gamma0 = config.noise.gamma
    px = 2.0 * gamma0 if config.noise.alpha == 2.0 else gamma0
    return gamma0 * 10.0 ** (-config.snr_db / 10.0), px


def plateau_db(config):
    """Algorithm -> the dB of its linear mean NMSE over the last 300 iterations."""
    return {curve.algorithm: 10.0 * np.log10(np.mean(10.0 ** (curve.mse_db[-300:] / 10.0)))
            for curve in run_experiment(config)}


def parity_snr_db(mu):
    """The SNR at which :func:`steady_state_msd` gives lms and slms the same
    plateau, for alpha = 2 noise of nominal gamma = 1 (s2 = 2*10**(-SNR/10)).
    Below it slms has the lower plateau, above it lms."""
    def log_ratio(snr_db):
        s2 = 2.0 * 10.0 ** (-snr_db / 10.0)
        return math.log(steady_state_msd("lms", s2, mu=mu) / steady_state_msd("slms", s2, mu=mu))
    return brentq(log_ratio, -30.0, 40.0, xtol=1e-9)


class TestSteadyStateTheory:
    """At alpha = 2 the noise is Gaussian with variance 2*gamma, and the
    channel has unit norm, so the plateau of a learning curve is the
    mean-square deviation of :func:`steady_state_msd`."""

    # the parity cases check that the simulation puts lms and slms on equal
    # plateaus where theory does: 5.65 dB at mu = 0.005, 2.78 dB at 0.0025
    @pytest.fixture(scope="class", params=[(10.0, 0.005), (20.0, 0.005),
                                           (10.0, 0.0025), (20.0, 0.0025),
                                           (parity_snr_db(0.005), 0.005),
                                           (parity_snr_db(0.0025), 0.0025)],
                    ids=["snr10", "snr20", "snr10-mu0.0025", "snr20-mu0.0025",
                         "parity-mu0.005", "parity-mu0.0025"])
    def plateaus(self, request):
        snr_db, mu = request.param
        config = SimConfig(n_taps=128, sparsity=8, n_iterations=3000, n_trials=32,
                           snr_db=snr_db, noise=AlphaStableParams(2.0),
                           algorithms=tuple(AlgorithmSpec.from_name(name, mu=mu)
                                            for name in ("lms", "slms")),
                           master_seed=2026)
        return *nominal_noise(config), mu, plateau_db(config)

    @pytest.mark.parametrize("name", ["lms", "slms"])
    def test_plateau_matches_theory(self, plateaus, name):
        gamma, px, mu, measured = plateaus
        # 0.2 dB: the largest gap seen over five seeds was 0.15 dB at mu =
        # 0.005, and 0.14 dB over three seeds at mu = 0.0025; at the parity
        # SNRs, 0.18 and 0.12 dB over five seeds; from the Monte-Carlo spread of 32 trials x 300 iterations and the bias of
        # the independence assumption.  A 10% error in either formula
        # (0.41 dB) fails, and criterion 4's sign/gradient gaps are 5.7-9.4 dB
        theory_db = 10.0 * math.log10(steady_state_msd(name, 2.0 * gamma, mu=mu, px=px))
        assert measured[name] == pytest.approx(theory_db, abs=0.2)


class TestStableNoiseTheory:
    """slms under alpha-stable noise, whose variance is infinite below
    alpha = 2, against the plateau of :func:`stable_slms_msd`."""

    def test_model_is_the_closed_form_at_alpha_2(self):
        gamma, px = 0.1, 2.0
        assert stable_slms_msd(2.0, gamma, px) == pytest.approx(
            steady_state_msd("slms", 2.0 * gamma, px=px), rel=1e-6)

    # theory: -6.36 and -7.73 dB at alpha = 1.2, -6.07 and -7.66 dB at 1.5
    @pytest.fixture(scope="class", params=[(1.2, 10.0), (1.2, 20.0), (1.5, 10.0), (1.5, 20.0)],
                    ids=["alpha1.2-snr10", "alpha1.2-snr20", "alpha1.5-snr10", "alpha1.5-snr20"])
    def plateau(self, request):
        alpha, snr_db = request.param
        config = SimConfig(n_taps=128, sparsity=8, n_iterations=3000, n_trials=32,
                           snr_db=snr_db, noise=AlphaStableParams(alpha),
                           algorithms=algorithm_specs("slms"), master_seed=2026)
        return alpha, *nominal_noise(config), plateau_db(config)["slms"]

    def test_plateau_matches_theory(self, plateau):
        alpha, gamma, px, measured = plateau
        # 0.2 dB, the alpha = 2 tolerance: the largest gap seen over seeds
        # 2026, 7 and 11 was 0.139 dB, from the Monte-Carlo spread of 32
        # trials x 300 iterations and the bias of the independence
        # assumption.  A 10% error in the model (0.41 dB) fails
        theory_db = 10.0 * math.log10(stable_slms_msd(alpha, gamma, px))
        assert measured == pytest.approx(theory_db, abs=0.2)
