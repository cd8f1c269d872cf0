import numpy as np
import pytest

from padmm.accountant import svt_split_ratio
from padmm.noise import RngHandle
from padmm.svt import Decision, SvtGate


def disabled_rng():
    return RngHandle(0, disabled=True)


def make_gate(alpha=1.0, c_max=3, eps1=0.1, eps2=0.9, c_loss=2.0, rng=None):
    return SvtGate(alpha, c_max, eps1, eps2, c_loss, rng or disabled_rng())


class TestGateConstruction:
    def test_disabled_threshold_is_alpha(self):
        assert make_gate(alpha=0.25).noisy_threshold == 0.25

    def test_threshold_deterministic(self):
        a = make_gate(rng=RngHandle(9, 5))
        b = make_gate(rng=RngHandle(9, 5))
        assert a.noisy_threshold == b.noisy_threshold

    def test_noise_scales(self):
        gate = make_gate(c_max=15, eps1=0.2, eps2=0.8, c_loss=2.0)
        # threshold scale 2 c C/eps1 = 300, query scale 4 c C/eps2 = 150
        assert gate.query_noise_scale == pytest.approx(4 * 15 * 2.0 / 0.8)
        noisy = SvtGate(0.0, 15, 0.2, 0.8, 2.0, RngHandle(3))
        # with u drawn, threshold = Lap(300) quantile; just confirm it moved
        assert noisy.noisy_threshold != 0.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            make_gate(c_max=0)
        with pytest.raises(ValueError):
            make_gate(eps1=0.0)
        with pytest.raises(ValueError):
            make_gate(c_loss=0.0)


class TestCheck:
    def test_above_increments(self):
        gate = make_gate(alpha=1.0)
        assert gate.check(5.0, disabled_rng()) is Decision.ABOVE
        assert gate.count == 1

    def test_below_leaves_count(self):
        gate = make_gate(alpha=1.0)
        assert gate.check(0.5, disabled_rng()) is Decision.BELOW
        assert gate.count == 0

    def test_tie_counts_as_above(self):
        gate = make_gate(alpha=1.0)
        assert gate.check(1.0, disabled_rng()) is Decision.ABOVE

    def test_exhaustion(self):
        gate = make_gate(alpha=0.0, c_max=2)
        for _ in range(2):
            assert gate.check(10.0, disabled_rng()) is Decision.ABOVE
        assert gate.check(10.0, disabled_rng()) is Decision.EXHAUSTED
        assert gate.count == 2

    def test_exhausted_consumes_no_noise(self):
        gate = make_gate(alpha=0.0, c_max=1)
        gate.check(10.0, disabled_rng())
        rng = RngHandle(1)
        before = rng.uniform()
        rng2 = RngHandle(1)
        gate.check(10.0, rng2)  # exhausted: must not draw
        assert rng2.uniform() == before

    def test_matches_direct_comparison_when_disabled(self):
        rng = np.random.default_rng(0)
        gate = make_gate(alpha=0.3, c_max=10**9)
        for quality in rng.normal(size=1000):
            decision = gate.check(quality, disabled_rng())
            assert (decision is Decision.ABOVE) == (quality >= 0.3)


class TestSplitRatio:
    def test_frozen_values_c15(self):
        eps1, eps2 = svt_split_ratio(15, 1.0)
        assert eps1 == pytest.approx(0.09385358638, rel=1e-9)
        assert eps2 == pytest.approx(0.90614641361, rel=1e-9)
        assert eps2 / eps1 == pytest.approx(30 ** (2 / 3))

    def test_c1(self):
        eps1, eps2 = svt_split_ratio(1, 1.0)
        assert eps2 / eps1 == pytest.approx(2 ** (2 / 3))

    def test_sums_exactly(self):
        eps1, eps2 = svt_split_ratio(7, 0.37)
        assert eps1 + eps2 == 0.37

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            svt_split_ratio(0, 1.0)
        with pytest.raises(ValueError):
            svt_split_ratio(3, 0.0)
