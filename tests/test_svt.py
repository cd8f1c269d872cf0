import itertools
import math

import numpy as np
import pytest

from padmm import cli, engine, svt
from padmm.accountant import svt_split_ratio
from padmm.noise import stream
from padmm.solver import SolverConfig
from padmm.svt import Decision, SvtGate


def make_gate(alpha=1.0, c_max=3, eps1=0.1, eps2=0.9, sensitivity=4.0, rng=None,
              query_rng=None):
    return SvtGate(alpha, c_max, eps1, eps2, sensitivity, (rng, query_rng))


class TestGateConstruction:
    def test_disabled_threshold_is_alpha(self):
        assert make_gate(alpha=0.25).noisy_threshold == 0.25

    def test_threshold_deterministic(self):
        a = make_gate(rng=stream(9, 1, 1))
        b = make_gate(rng=stream(9, 1, 1))
        assert a.noisy_threshold == b.noisy_threshold

    def test_noise_scales(self):
        gate = make_gate(c_max=15, eps1=0.2, eps2=0.8, sensitivity=4.0)
        # threshold scale Delta/eps1 = 20, query scale 2 c Delta/eps2 = 150
        assert gate.query_noise_scale == pytest.approx(4 * 15 * 2.0 / 0.8)
        noisy = SvtGate(0.0, 15, 0.2, 0.8, 4.0, (stream(3, 0, 0), None))
        # with u drawn, threshold = Lap(20) quantile; just confirm it moved
        assert noisy.noisy_threshold != 0.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            make_gate(c_max=0)
        with pytest.raises(ValueError):
            make_gate(eps1=0.0)
        with pytest.raises(ValueError):
            make_gate(sensitivity=0.0)


class TestCheck:
    def test_above_increments(self):
        gate = make_gate(alpha=1.0)
        assert gate.check(5.0) is Decision.ABOVE
        assert gate.count == 1

    def test_below_leaves_count(self):
        gate = make_gate(alpha=1.0)
        assert gate.check(0.5) is Decision.BELOW
        assert gate.count == 0

    def test_tie_counts_as_above(self):
        gate = make_gate(alpha=1.0)
        assert gate.check(1.0) is Decision.ABOVE

    def test_exhaustion(self):
        gate = make_gate(alpha=0.0, c_max=2)
        for _ in range(2):
            assert gate.check(10.0) is Decision.ABOVE
        assert gate.check(10.0) is Decision.EXHAUSTED
        assert gate.count == 2

    def test_exhausted_consumes_no_noise(self):
        rng2 = stream(1, 0, 0)
        gate = make_gate(alpha=-1e9, c_max=1, query_rng=rng2)
        gate.check(10.0)  # draws once and exhausts the gate
        rng = stream(1, 0, 0)
        rng.random()
        before = rng.random()
        gate.check(10.0)  # exhausted: must not draw
        assert rng2.random() == before

    def test_matches_direct_comparison_when_disabled(self):
        rng = np.random.default_rng(0)
        gate = make_gate(alpha=0.3, c_max=10**9)
        for quality in rng.normal(size=1000):
            decision = gate.check(quality)
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


def drawn_scales(monkeypatch, c_max, eps1, eps2, sensitivity):
    """The Laplace scales a gate draws with: [threshold, first query]."""
    scales = []
    monkeypatch.setattr(svt, "laplace_scalar", lambda b, rng: scales.append(b) or 0.0)
    SvtGate(0.0, c_max, eps1, eps2, sensitivity, (None, None)).check(0.0)
    return scales


def laplace_sf(x, b):
    """P(Lap(b) >= x), elementwise."""
    return np.where(x < 0, 1 - 0.5 * np.exp(np.minimum(x, 0) / b),
                    0.5 * np.exp(-np.maximum(x, 0) / b))


def answer_vectors(length, c_max):
    """Every answer sequence of a gate over `length` queries: True is ABOVE; the c-th ends it."""
    if length == 0 or c_max == 0:
        return [()]
    return ([(True,) + rest for rest in answer_vectors(length - 1, c_max - 1)]
            + [(False,) + rest for rest in answer_vectors(length - 1, c_max)])


NODES, WEIGHTS = np.polynomial.legendre.leggauss(16)


def answer_probabilities(queries, c_max, b_threshold, b_query, alpha=0.0):
    """Each answer vector's exact probability, integrated over the threshold noise z.

    Given z, the answers are independent, ABOVE with P(q_k + Lap(b_query) >= alpha + z).
    The integrand is smooth between z = 0 and the z = q_k - alpha, so Gauss-Legendre
    on pieces at most half a scale long, out to 60 scales, is exact to rounding.
    """
    kinks = [0.0, *(q - alpha for q in queries)]
    reach = 60 * max(b_threshold, b_query)
    edges = np.unique(np.concatenate([
        np.arange(min(kinks) - reach, max(kinks) + reach, min(b_threshold, b_query) / 2),
        [max(kinks) + reach], kinks]))
    mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
    z = (mid[:, None] + half[:, None] * NODES).ravel()
    weight = ((half[:, None] * WEIGHTS).ravel()
              * np.exp(-np.abs(z) / b_threshold) / (2 * b_threshold))
    above = [laplace_sf(alpha + z - q, b_query) for q in queries]
    probabilities = {}
    for answers in answer_vectors(len(queries), c_max):
        integrand = weight.copy()
        for p_above, answer in zip(above, answers):
            integrand *= p_above if answer else 1 - p_above
        probabilities[answers] = integrand.sum()
    return probabilities


def worst_log_ratio(c_max, b_threshold, b_query, sensitivity, length):
    """max ln(P[a | q] / P[a | q']) over answer vectors a and query sequences at distance Delta.

    q runs over the sequences of `length` queries in {-Delta, 0, Delta}, and q' over
    q + s Delta for every s in {-1, 0, 1}^length: each query moves either way on its own,
    as a non-monotonic query may.
    """
    grid = itertools.product((-2, -1, 0, 1, 2), repeat=length)
    probabilities = {q: answer_probabilities([sensitivity * k for k in q], c_max,
                                             b_threshold, b_query) for q in grid}
    worst = -math.inf
    for q in itertools.product((-1, 0, 1), repeat=length):
        assert sum(probabilities[q].values()) == pytest.approx(1.0, abs=1e-12)
        for shift in itertools.product((-1, 0, 1), repeat=length):
            moved = probabilities[tuple(a + b for a, b in zip(q, shift))]
            worst = max(worst, *(math.log(p / moved[a]) for a, p in probabilities[q].items()))
    return worst


class TestPrivacyOracle:
    """The gate is (eps1 + eps2)-DP: Lyu, Su & Li (VLDB 2017), Alg. 1 and Theorem 4.

    Checked exactly on short streams, with the scales the gate draws with.
    """

    SENSITIVITY = 4.0

    @pytest.mark.parametrize("c_max", [1, 2, 15])
    def test_scales_are_lyus(self, monkeypatch, c_max):
        eps1, eps2 = svt_split_ratio(c_max, 1.0)
        assert drawn_scales(monkeypatch, c_max, eps1, eps2, self.SENSITIVITY) == [
            self.SENSITIVITY / eps1, 2 * c_max * self.SENSITIVITY / eps2]

    @pytest.mark.parametrize("c_max", [1, 2])
    def test_oracle_catches_an_under_noised_query(self, c_max):
        # Lap(c Delta / eps2) on each query, the scale for monotonic queries only
        eps1, eps2 = svt_split_ratio(c_max, 1.0)
        worst = worst_log_ratio(c_max, self.SENSITIVITY / eps1,
                                c_max * self.SENSITIVITY / eps2, self.SENSITIVITY, c_max + 2)
        assert worst > eps1 + eps2

    @pytest.mark.parametrize("c_max", [1, 2])
    @pytest.mark.parametrize("epsilon", [0.5, 1.0])
    def test_every_answer_vector_within_e_to_the_eps(self, monkeypatch, c_max, epsilon):
        eps1, eps2 = svt_split_ratio(c_max, epsilon)
        b_threshold, b_query = drawn_scales(monkeypatch, c_max, eps1, eps2, self.SENSITIVITY)
        worst = worst_log_ratio(c_max, b_threshold, b_query, self.SENSITIVITY, c_max + 2)
        assert worst <= eps1 + eps2


def final_errors(epsilon, seeds):
    """Each seed's final test error of ipp_admm on the default ring at epsilon."""
    cfg = cli.ExperimentConfig(algorithm="ipp_admm", topology="ring", epsilon=epsilon)
    graph, parts, test, plan = cli.build_experiment(cfg)
    solver_cfg = SolverConfig(beta=cfg.beta, max_iterations=cfg.max_iterations)
    return np.array([engine.run_ipp_admm(parts, graph, plan, cfg.eta, cfg.alpha, cfg.c_loss,
                                         solver_cfg, seed, test=test).error_rate[-1]
                     for seed in seeds])


@pytest.mark.xfail(strict=True, reason=(
    "the gate does not read its query: next to Lap(Delta/eps1) and Lap(2 c Delta/eps2) at "
    "Delta = 4 the clipped quality is negligible, so the blind twin releases in the same "
    "rounds (README, the honesty note on the SVT scale)"))
def test_gate_beats_its_blind_twin(monkeypatch):
    """Somewhere the gate's final error lies below its quality-blind twin's, seed for seed.

    The twin is the same gate handed 0 in place of the quality: it reads no
    data, yet still pays rho_svt, so it is a lenient bar (a fair twin would
    spend rho_total / c on each release).  The paired 95% interval of
    (gate - twin) over seeds 0-19 must lie below 0 at epsilon 1 or 5.
    """
    seeds = range(20)
    gate = {epsilon: final_errors(epsilon, seeds) for epsilon in (1.0, 5.0)}
    check = svt.SvtGate.check
    monkeypatch.setattr(svt.SvtGate, "check", lambda self, quality: check(self, 0.0))
    upper = {}
    for epsilon, errors in gate.items():
        diff = errors - final_errors(epsilon, seeds)
        t_975 = 2.093  # Student's t quantile, 19 degrees of freedom
        upper[epsilon] = diff.mean() + t_975 * diff.std(ddof=1) / math.sqrt(len(diff))
    assert min(upper.values()) < 0, upper
