import pytest
from hypothesis import HealthCheck, settings

from sparselms import AlgorithmSpec, AlphaStableParams, SimConfig

# the ten wire names, written out rather than read from the package
ALL_NAMES = ("lms", "slms", "lms-za", "slms-za", "lms-rza", "slms-rza",
             "lms-rl1", "slms-rl1", "lms-lp", "slms-lp")

# the noise block sizes the tests run at, stable.BLOCK among them, and a
# sample size that is a whole number of blocks at each: the sizes around
# SPAN sit on block boundaries whichever size is tuned in
BLOCK_SIZES = (1 << 12, 1 << 14, 1 << 16)
SPAN = 1 << 16

settings.register_profile(
    "ci", deadline=None, derandomize=True, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")


@pytest.fixture
def small_config():
    """Factory for desk-sized SimConfigs."""

    def build(**overrides):
        kwargs = dict(
            n_taps=16, sparsity=4, n_iterations=300, n_trials=3, snr_db=10.0,
            noise=AlphaStableParams(1.2),
            algorithms=(AlgorithmSpec.from_name("slms-za"),),
            master_seed=11)
        kwargs.update(overrides)
        return SimConfig(**kwargs)

    return build


@pytest.fixture
def recording_pool(monkeypatch):
    """Stands in for ``simulation.ProcessPoolExecutor`` without starting a
    process: records each pool's ``max_workers`` and runs its jobs here."""
    from sparselms import simulation

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", RecordingPool)
    return sizes
