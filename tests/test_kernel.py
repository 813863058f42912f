"""Differential tests of the block kernel against a plain per-sample loop.

The kernel advances every algorithm and a chunk of trials per time step;
the reference below runs one algorithm on one trial with ``regressor`` and
``step``, one sample at a time.  Results must agree bit for bit
(``np.array_equal``), not within a tolerance: the curves of gradient rows
turn a 1-ulp difference into large errors.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_NAMES
from sparselms import (AlgorithmSpec, AlphaStableParams, FilterState,
                       SimConfig, derive_trial_seed, make_realization,
                       run_experiment, simulation, step)
from sparselms.channel import regressor
from sparselms.filters import Rules
from sparselms.simulation import _filter_block, chunk_layout


def loop_trial(spec, realization):
    """(nmse, diverged_at) of one algorithm on one realization, per sample.

    The trial diverges at its first non-finite normalized squared error; a
    diverging filter overflows that error before any coefficient is
    non-finite, and a non-finite coefficient, which ``step`` returns
    without raising, makes that same step's error non-finite.
    """
    truth = realization.channel.taps
    denom = float(truth @ truth)
    state = FilterState.zeros(truth.size)
    nmse = np.full(realization.signal.size, np.nan)
    with np.errstate(over="ignore"):
        for n in range(nmse.size):
            x = regressor(realization.signal, n, truth.size)
            d = float(truth @ x) + realization.noise[n]
            state = step(spec, state, x, d)
            diff = state.w - truth
            value = float(diff @ diff) / denom
            if not math.isfinite(value):
                return nmse, n
            nmse[n] = value
    return nmse, -1


def step_0_1_0(spec, w, w_prev, x, d):
    """w(n+1) as sparselms 0.1.0 computed it: the arithmetic to keep."""
    e = float(d) - float(w @ x)
    g = spec.mu * np.sign(e) * x if spec.family == "sign" else spec.mu * e * x
    s = np.sign(w)
    if spec.penalty == "none":
        att = np.zeros_like(w)
    elif spec.penalty == "za":
        att = spec.rho * s
    elif spec.penalty == "rza":
        att = spec.rho * s / (1.0 + spec.eps * np.abs(w))
    elif spec.penalty == "rl1":
        att = spec.rho * s / (spec.delta + np.abs(w_prev))
    else:
        q = 1.0 - spec.p
        norm_p = np.sum(np.abs(w) ** spec.p) ** (1.0 / spec.p)
        att = spec.rho * norm_p**q * s / (spec.eps + np.abs(w) ** q)
    return w + g - att


def assert_block_matches_loop(config, specs, trials):
    realizations = [make_realization(config, derive_trial_seed(config.master_seed, m))
                    for m in trials]
    nmse, diverged_at = _filter_block(specs, realizations)
    assert nmse.shape == (len(specs), len(trials), config.n_iterations)
    for a, spec in enumerate(specs):
        for m, real in enumerate(realizations):
            expected, at = loop_trial(spec, real)
            assert diverged_at[a, m] == at, (spec.name, m)
            assert np.array_equal(nmse[a, m], expected, equal_nan=True), (spec.name, m)
    return diverged_at


def _config(**overrides):
    kwargs = dict(n_taps=16, sparsity=4, n_iterations=400, n_trials=3, snr_db=10.0,
                  noise=AlphaStableParams(1.2),
                  algorithms=(AlgorithmSpec.from_name("slms"),), master_seed=7)
    kwargs.update(overrides)
    return SimConfig(**kwargs)


# every hyperparameter of each penalty off its default, with mu = 0.004, so
# a rule that reads a default in place of its spec's value fails
OFF_DEFAULT = {"": {}, "za": {"rho": 0.003}, "rza": {"rho": 0.003, "eps": 10.0},
               "rl1": {"rho": 0.004, "delta": 0.1}, "lp": {"rho": 0.001, "eps": 0.1, "p": 0.7}}


# p = 0.3 takes numpy's general power loops, where p = 0.5 takes sqrt/square
@pytest.mark.parametrize("spec", [AlgorithmSpec.from_name(n) for n in ALL_NAMES]
                         + [AlgorithmSpec.from_name(n, p=0.3) for n in ("lms-lp", "slms-lp")]
                         + [AlgorithmSpec.from_name(n, mu=0.004,
                                                    **OFF_DEFAULT[n.partition("-")[2]])
                            for n in ALL_NAMES],
                         ids=list(ALL_NAMES) + ["lms-lp-p0.3", "slms-lp-p0.3"]
                         + [f"{n}-off-default" for n in ALL_NAMES])
def test_step_keeps_0_1_0_arithmetic(spec):
    config = _config(n_taps=128, sparsity=8, n_iterations=1500)
    real = make_realization(config, derive_trial_seed(config.master_seed, 0))
    truth = real.channel.taps
    state = FilterState.zeros(128)
    for n in range(config.n_iterations):
        x = regressor(real.signal, n, 128)
        d = float(truth @ x) + real.noise[n]
        expected = step_0_1_0(spec, state.w, state.w_prev, x, d)
        state = step(spec, state, x, d)
        assert np.array_equal(state.w, expected), n


def test_all_algorithms_in_one_block():
    specs = tuple(AlgorithmSpec.from_name(n) for n in ALL_NAMES)
    assert_block_matches_loop(_config(), specs, range(3))


def test_reference_size_trial():
    # the template's N = 128 and T = 3000, where lms-rza, lms-lp and slms-lp
    # amplify any rounding difference within a few hundred steps
    specs = tuple(AlgorithmSpec.from_name(n) for n in ("lms-rza", "lms-lp", "slms-lp"))
    assert_block_matches_loop(_config(n_taps=128, sparsity=8, n_iterations=3000),
                              specs, [0])


def test_same_penalty_with_different_hyperparameters():
    # only adjacent rows with equal hyperparameters share an attractor call:
    # rows 0 and 3 are equal but apart, rows 4 and 5 differ only in family
    specs = (AlgorithmSpec.from_name("slms-rza", eps=20.0),
             AlgorithmSpec.from_name("lms-lp", p=0.3, eps=0.1),
             AlgorithmSpec.from_name("lms-rza", eps=5.0),
             AlgorithmSpec.from_name("lms-rza", eps=20.0),
             AlgorithmSpec.from_name("slms-lp"),
             AlgorithmSpec.from_name("lms-lp"))
    rules = Rules(specs)
    assert [(spec.penalty, spec.eps, rows) for spec, rows in rules.groups] == [
        ("rza", 20.0, slice(0, 1)), ("lp", 0.1, slice(1, 2)), ("rza", 5.0, slice(2, 3)),
        ("rza", 20.0, slice(3, 4)), ("lp", 0.05, slice(4, 6))]
    assert_block_matches_loop(_config(), specs, range(3))


@pytest.mark.parametrize("penalty, field, values", [
    ("za", "rho", (1e-4, 2e-4)), ("rza", "eps", (5.0, 20.0)),
    ("rl1", "delta", (0.05, 0.1)), ("lp", "p", (0.3, 0.5))])
def test_rows_differing_in_one_hyperparameter_keep_their_own_attractor(penalty, field, values):
    specs = tuple(AlgorithmSpec.from_name(f"slms-{penalty}", **{field: v}) for v in values)
    assert Rules(specs).groups == [(specs[0], slice(0, 1)), (specs[1], slice(1, 2))]


def test_divergence_index_and_nan_tail():
    # mu = 50 blows up every trial; mu = 0.35 only some of them, late
    specs = (AlgorithmSpec(family="gradient", mu=50.0),
             AlgorithmSpec(family="gradient", penalty="lp", mu=0.35),
             AlgorithmSpec(family="sign", penalty="lp", mu=0.8))
    config = _config(n_taps=32, noise=AlphaStableParams(1.0), snr_db=0.0, n_iterations=600)
    diverged_at = assert_block_matches_loop(config, specs, range(8))
    assert np.all(diverged_at[0] >= 0)
    assert 0 < np.sum(diverged_at[1] >= 0) < 8
    assert np.all(diverged_at[2] == -1)


def test_noiseless_run():
    # with z = 0 the error decays towards 0, where a 1-ulp change in w.x
    # would flip sgn(e)
    specs = tuple(AlgorithmSpec.from_name(n) for n in ALL_NAMES)
    assert_block_matches_loop(_config(noise=None, n_iterations=800), specs, range(2))


@pytest.fixture(scope="module")
def chunked():
    """A config of 19 trials, which chunks of 7 trials split unevenly, and
    its curves from the per-sample loop."""
    specs = (AlgorithmSpec.from_name("slms-za"), AlgorithmSpec.from_name("lms-rl1"),
             AlgorithmSpec(family="gradient", penalty="za", mu=0.35))
    config = _config(n_taps=32, noise=AlphaStableParams(1.0), snr_db=0.0,
                     n_iterations=600, n_trials=19, algorithms=specs)
    realizations = [make_realization(config, derive_trial_seed(config.master_seed, m))
                    for m in range(config.n_trials)]
    expected = []
    for spec in specs:
        runs = [loop_trial(spec, real) for real in realizations]
        kept = np.array([nmse for nmse, at in runs if at < 0])
        if spec is specs[-1]:
            # the last spec exists to mix diverged and completed trials
            assert 0 < len(kept) < config.n_trials, len(kept)
        curve = 10.0 * np.log10(np.maximum(kept.mean(axis=0), 1e-10))
        expected.append((spec.name, curve, config.n_trials - len(kept)))
    return config, expected


@pytest.mark.parametrize("workers", [1, 2])
def test_chunked_experiment_matches_loop(chunked, workers, monkeypatch):
    config, expected = chunked
    # chunks of 7 trials (7/7/5 at any worker count), so the run crosses
    # uneven chunk boundaries
    monkeypatch.setattr(simulation, "_MIN_CHUNK", 7)
    monkeypatch.setattr(simulation, "_CHUNK_VALUES", 0)
    chunks, _ = chunk_layout(config, workers)
    assert len({stop - start for start, stop in chunks}) == 2
    curves = run_experiment(config, workers=workers)
    for curve, (name, mse_db, trials_diverged) in zip(curves, expected):
        assert curve.algorithm == name
        assert curve.trials_diverged == trials_diverged
        assert np.array_equal(curve.mse_db, mse_db)
    assert 0 < curves[2].trials_diverged < config.n_trials


@pytest.fixture(scope="module")
def every_rule():
    """All ten names, lp at p = 0.3 and lms-za at the chunked fixture's
    diverging mu = 0.35, and their curves from one serial chunk."""
    specs = tuple(AlgorithmSpec.from_name(n, mu=0.35) if n == "lms-za"
                  else AlgorithmSpec.from_name(n, p=0.3) if n.endswith("-lp")
                  else AlgorithmSpec.from_name(n) for n in ALL_NAMES)
    config = _config(n_taps=32, noise=AlphaStableParams(1.0), snr_db=0.0,
                     n_iterations=600, n_trials=10, algorithms=specs)
    assert chunk_layout(config, 1) == ([(0, 10)], 1)
    curves = run_experiment(config)
    assert 0 < curves[ALL_NAMES.index("lms-za")].trials_diverged < config.n_trials
    return config, curves


# chunks of 10 x 1, 3/3/3/1, 7/3 and one of 10 trials
@pytest.mark.parametrize("chunk", [1, 3, 7, 10],
                         ids=["1-trial", "3-trials", "7-and-3", "one-chunk"])
@pytest.mark.parametrize("workers", [1, 2], ids=["workers1", "workers2"])
def test_curves_do_not_depend_on_the_chunk_layout(every_rule, workers, chunk, monkeypatch):
    config, expected = every_rule
    monkeypatch.setattr(simulation, "_MIN_CHUNK", chunk)
    monkeypatch.setattr(simulation, "_CHUNK_VALUES", 0)
    curves = run_experiment(config, workers=workers)
    for curve, twin in zip(curves, expected, strict=True):
        assert curve.algorithm == twin.algorithm
        assert curve.trials_diverged == twin.trials_diverged
        assert np.array_equal(curve.mse_db, twin.mse_db, equal_nan=True), curve.algorithm


@settings(max_examples=25, deadline=None)
@given(mu=st.floats(0.5, 5.0), alpha=st.floats(0.8, 1.5),
       n_taps=st.integers(8, 32), n_iterations=st.integers(1, 300),
       n_trials=st.integers(1, 4), penalty=st.sampled_from(["none", "za", "rza", "rl1", "lp"]),
       seed=st.integers(0, 2**32 - 1))
def test_divergence_is_the_first_non_finite_value(mu, alpha, n_taps, n_iterations,
                                                  n_trials, penalty, seed):
    # a row is either all finite with diverged_at = -1, or finite before
    # diverged_at and NaN from it on
    spec = AlgorithmSpec(family="gradient", penalty=penalty, mu=mu)
    config = _config(n_taps=n_taps, n_iterations=n_iterations,
                     noise=AlphaStableParams(alpha), snr_db=0.0, master_seed=seed)
    realizations = [make_realization(config, derive_trial_seed(seed, m))
                    for m in range(n_trials)]
    nmse, diverged_at = _filter_block((spec,), realizations)
    for trace, at in zip(nmse[0], diverged_at[0]):
        if at < 0:
            assert np.all(np.isfinite(trace))
        else:
            assert np.all(np.isfinite(trace[:at]))
            assert np.all(np.isnan(trace[at:]))
