import pytest
from hypothesis import HealthCheck, settings

from sparselms import AlgorithmSpec, AlphaStableParams, SimConfig

# the ten wire names, written out rather than read from the package
ALL_NAMES = ("lms", "slms", "lms-za", "slms-za", "lms-rza", "slms-rza",
             "lms-rl1", "slms-rl1", "lms-lp", "slms-lp")

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
