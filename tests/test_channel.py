import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparselms import ParameterError, generate_channel, generate_input
from sparselms.channel import delay_lines, regressor


class TestGenerateChannel:
    def test_sparsity_and_norm(self):
        chan = generate_channel(128, 8, np.random.default_rng(0))
        nonzero = np.flatnonzero(chan.taps)
        assert nonzero.size == 8
        assert np.array_equal(np.sort(chan.support), nonzero)
        assert abs(np.linalg.norm(chan.taps) - 1.0) < 1e-12
        assert chan.taps.size == 128 and chan.support.size == 8

    @pytest.mark.parametrize("seed", range(5))
    def test_single_tap_is_unit(self, seed):
        chan = generate_channel(1, 1, np.random.default_rng(seed))
        assert abs(abs(chan.taps[0]) - 1.0) < 1e-12

    # the message names the fault: with no taps, no sparsity is in range,
    # and the fault is n_taps
    @pytest.mark.parametrize("n_taps,sparsity,name", [
        (128, 0, "sparsity"), (128, -1, "sparsity"), (128, 129, "sparsity"), (0, 1, "n_taps")],
        ids=["0", "-1", "129", "n_taps0"])
    def test_sparsity_out_of_range(self, n_taps, sparsity, name):
        with pytest.raises(ParameterError, match=f"^{name} must be "):
            generate_channel(n_taps, sparsity, np.random.default_rng(0))

    @pytest.mark.parametrize("n_taps,sparsity,name", [
        (16.7, 4.9, "n_taps"), (16.0, 4, "n_taps"), (16, 4.0, "sparsity"),
        (True, 4, "n_taps"), (16, False, "sparsity")])
    def test_non_integer_count_rejected(self, n_taps, sparsity, name):
        with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
            generate_channel(n_taps, sparsity, np.random.default_rng(0))

    @given(n_taps=st.integers(1, 64), seed=st.integers(0, 1000))
    def test_support_size_always_exact(self, n_taps, seed):
        rng = np.random.default_rng(seed)
        sparsity = int(rng.integers(1, n_taps + 1))
        chan = generate_channel(n_taps, sparsity, rng)
        assert np.count_nonzero(chan.taps) == sparsity
        assert abs(np.linalg.norm(chan.taps) - 1.0) < 1e-12


class TestGenerateInput:
    def test_unit_power_moments(self):
        sig = generate_input(10000, 1.0, np.random.default_rng(1))
        assert sig.shape == (10000,)
        assert abs(np.mean(sig)) < 0.05
        assert abs(np.mean(sig**2) - 1.0) < 0.05

    def test_power_scaling(self):
        sig = generate_input(10000, 4.0, np.random.default_rng(2))
        assert abs(np.mean(sig**2) - 4.0) < 0.2

    def test_binary_kind(self):
        sig = generate_input(4000, 4.0, np.random.default_rng(4), kind="binary")
        assert set(np.unique(sig)) == {-2.0, 2.0}
        assert np.mean(sig**2) == 4.0

    # each message begins with the field it rejects; ids by position
    @pytest.mark.parametrize("kwargs,field", [
        (dict(length=0, power=1.0), "length"), (dict(length=10, power=0.0), "power"),
        (dict(length=10, power=-1.0), "power"),
        (dict(length=10, power=1.0, kind="ternary"), "kind"),
        (dict(length=10.9, power=1.0), "length"), (dict(length=10.0, power=1.0), "length"),
    ], ids=[f"kwargs{i}" for i in range(6)])
    def test_invalid_args(self, kwargs, field):
        with pytest.raises(ParameterError, match=f"^{field} must be "):
            generate_input(rng=np.random.default_rng(0), **kwargs)

    # 10**400 is an int too large for a float
    @pytest.mark.parametrize("power", [float("inf"), float("nan"),
                                       pytest.param(10**400, id="10**400")])
    def test_non_finite_power_rejected_naming_it(self, power):
        with pytest.raises(ParameterError, match="^power must be finite, got "):
            generate_input(3, power, np.random.default_rng(0))


class TestRegressor:
    def test_recent_first(self):
        sig = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(regressor(sig, 2, 2), [3.0, 2.0])

    def test_zero_prefix(self):
        sig = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(regressor(sig, 0, 3), [1.0, 0.0, 0.0])

    def test_identity_case(self):
        sig = np.array([5.0])
        assert np.array_equal(regressor(sig, 0, 1), [5.0])

    @pytest.mark.parametrize("length,n_taps", [(1, 4), (5, 4), (40, 16)])
    def test_delay_lines_rows_are_regressors(self, length, n_taps):
        samples = np.random.default_rng(length).standard_normal((3, length))
        lines = delay_lines(samples, n_taps)
        assert lines.shape == (3, length, n_taps)
        assert lines.strides[-1] == samples.itemsize
        for m in range(3):
            for n in range(length):
                assert np.array_equal(lines[m, n], regressor(samples[m], n, n_taps))

    @pytest.mark.parametrize("n", [-1, 3, 10])
    def test_out_of_range(self, n):
        sig = np.array([1.0, 2.0, 3.0])
        with pytest.raises(IndexError):
            regressor(sig, n, 2)

    @given(length=st.integers(2, 40), n_taps=st.integers(1, 12), seed=st.integers(0, 100))
    def test_shift_property(self, length, n_taps, seed):
        sig = generate_input(length, 1.0, np.random.default_rng(seed))
        for n in range(length - 1):
            newer = regressor(sig, n + 1, n_taps)
            older = regressor(sig, n, n_taps)
            assert np.array_equal(newer[1:], older[:n_taps - 1])
