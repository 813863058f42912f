"""The traced benchmark's library probes still run against the library.

``benchmarks/layers.py`` reaches into sparselms by name (``run_trial``,
``regressor``, ``Realization.signal``, ``SparseChannel.taps``, ...), so a
library change can break ``bench.py --trace 1`` without failing any other
test.  This runs its channel/filter and trial probes on a tiny config, its
stable probe, its worker-scaling and IPC probe, and one small traced
``validate-noise``.
"""

import pathlib
import sys

import pytest

from sparselms import AlgorithmSpec, AlphaStableParams, SimConfig

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
SRC = BENCHMARKS.parent / "src"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS))
        import layers
        yield layers


@pytest.fixture(scope="module")
def probe_run(layers):
    config = SimConfig(n_taps=8, sparsity=2, n_iterations=30, n_trials=2, snr_db=10.0,
                       noise=AlphaStableParams(1.2),
                       algorithms=(AlgorithmSpec.from_name("slms-za"),), master_seed=3)
    mods, tracer = layers.Modules(SRC), layers.Tracer()
    return {**layers.probe_channel_filters(mods, tracer, config, seed=1),
            **layers.probe_trials(mods, tracer, config, config.n_trials)}


def test_probes_return_every_metric(layers, probe_run):
    expected = {name for name in layers.UNITS
                if name.startswith(("channel.", "filters.", "simulation.make_realization",
                                    "simulation.run_trial"))}
    assert expected and expected <= probe_run.keys()
    for name in expected - {"filters.updates"}:
        assert probe_run[name] and all(v > 0 for v in probe_run[name]), name


def test_stable_probe_returns_every_metric(layers):
    mods, tracer = layers.Modules(SRC), layers.Tracer()
    out = layers.probe_stable(mods, tracer, seed=1)
    expected = {name for name in layers.UNITS if name.startswith("stable.")}
    assert expected and expected <= out.keys()
    for name in expected:
        assert out[name] and all(v > 0 for v in out[name]), name


def test_simulation_probe_returns_every_metric(layers, tmp_path):
    # its IPC leg patches simulation.ProcessPoolExecutor; a leg that records
    # no job would end bench.py --trace 1 in statistics.median([])
    mods, tracer, checks = layers.Modules(SRC), layers.Tracer(), layers.Checks()
    out = layers.probe_simulation(mods, tracer, checks, seed=1, workdir=tmp_path)
    expected = {name for name in layers.UNITS
                if name.startswith("simulation.")
                and not name.startswith(("simulation.make_realization", "simulation.run_trial"))}
    assert expected and expected <= out.keys()
    for name in expected:
        values = out[name] if isinstance(out[name], list) else [out[name]]
        assert values and all(v > 0 for v in values), name
    assert checks.failed == 0, checks.problems


def test_traced_validate_noise_spans_sampling(layers, tmp_path):
    # cli.validate_noise.cf_check_s is the command's time outside its
    # stable.sample spans, so a sample call the trace misses would count as
    # CF check time
    mods, tracer, checks = layers.Modules(SRC), layers.Tracer(), layers.Checks()
    noise = layers.wl.NoiseWorkload(name="tiny_noise", alpha=1.2, beta=0.5, samples=20_000)
    args, check, _ = layers.wl.prepare(noise, 1, tmp_path)
    _, root = layers._run_traced_command(mods, tracer, checks, noise.name, args, check)
    assert tracer.names[tracer.name_id[root]] == "cli.main.validate_noise"
    assert [tracer.parent[k] for k in tracer.indices("stable.sample")] == [root]
    assert checks.failed == 0, checks.problems
