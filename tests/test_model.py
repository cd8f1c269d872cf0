import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from padmm import cli, data, engine, metrics, model, noise
from padmm.model import DataTerms, solver_steps, stacked_kernel
from padmm.solver import NonConvergence, SolverConfig, minimize
from reference import (
    AugmentedParams,
    LocalObjectiveParams,
    agent_shards,
    as_rows,
    augmented_gradient,
    augmented_kernel,
    augmented_objective,
    augmented_value_and_grad,
    blocks,
    clipped_quality,
    curvature_bounds,
    drawn_blobs,
    local_objective,
    local_value_and_grad,
    logistic_loss,
    logistic_loss_deriv,
    mean_logistic_loss,
    partition,
    solver_step,
    subset,
)

finite_z = st.floats(min_value=-500, max_value=500, allow_nan=False)


def toy_dataset(seed=0, n=12, d=3):
    return drawn_blobs(n, d, 2.0, seed)


class TestLogisticLoss:
    def test_at_zero(self):
        assert logistic_loss(0.0) == pytest.approx(np.log(2), abs=1e-12)

    def test_at_minus_one(self):
        assert logistic_loss(-1.0) == pytest.approx(1.3132616875182228, abs=1e-12)

    def test_large_positive_no_overflow(self):
        value = logistic_loss(100.0)
        assert 0 < value < 1e-40

    def test_large_negative_no_overflow(self):
        assert np.isfinite(logistic_loss(-1000.0))

    @given(finite_z)
    def test_deriv_bounded(self, z):
        # mathematically in (-1, 0); the endpoints are reachable in floats
        d = logistic_loss_deriv(z)
        assert -1 <= d <= 0

    def test_deriv_at_zero(self):
        assert logistic_loss_deriv(0.0) == pytest.approx(-0.5)

    def test_deriv_saturates(self):
        assert logistic_loss_deriv(500.0) == pytest.approx(0.0, abs=1e-200)

    def test_deriv_matches_two_branch_reference(self):
        z = np.concatenate([np.random.default_rng(0).normal(size=2000) * 40,
                            [0.0, -0.0, 745.0, -745.0, 1e-300, -1e-300]])
        with np.errstate(over="ignore", invalid="ignore"):
            reference = np.where(z >= 0, -np.exp(-z) / (1.0 + np.exp(-z)),
                                 -1.0 / (1.0 + np.exp(z)))
        assert np.array_equal(logistic_loss_deriv(z), reference)

    @given(st.floats(min_value=-30, max_value=30), st.floats(min_value=1e-4, max_value=0.1))
    def test_curvature_at_most_quarter(self, z, h):
        second = (logistic_loss(z + h) - 2 * logistic_loss(z) + logistic_loss(z - h)) / h**2
        assert second <= 0.25 + 1e-6


class TestLocalObjective:
    def test_zero_theta_gives_ln2(self):
        p = LocalObjectiveParams(toy_dataset(), 0.0, 1)
        assert local_objective(np.zeros(3), p) == pytest.approx(np.log(2))

    def test_regularizer_vanishes_at_origin(self):
        p = LocalObjectiveParams(toy_dataset(), 5.0, 5)
        assert local_objective(np.zeros(3), p) == pytest.approx(np.log(2))

    def test_single_sample(self):
        ds = data.Dataset(np.array([[1.0, 0.0]]), np.array([1]))
        p = LocalObjectiveParams(ds, 0.0, 1)
        assert local_objective(np.array([1.0, 0.0]), p) == pytest.approx(0.3132616875182228)

    def test_dimension_mismatch(self):
        p = LocalObjectiveParams(toy_dataset(d=3), 0.0, 1)
        with pytest.raises(ValueError, match="dimension"):
            local_objective(np.zeros(4), p)


def surrogate(lambda_hat=0.0):
    return LocalObjectiveParams(None, lambda_hat, 1)


class TestAugmentedObjective:
    def test_all_zero_reduces_to_fi(self):
        ds = toy_dataset()
        p = LocalObjectiveParams(ds, 0.0, 1)
        a = AugmentedParams(np.zeros(3), np.zeros(3), [np.zeros(3)], 0.5, None)
        assert augmented_objective(np.zeros(3), p, a) == pytest.approx(np.log(2))

    def test_zero_theta_kills_linear_term(self):
        rng = np.random.default_rng(0)
        prev, nb = rng.normal(size=3), rng.normal(size=3)
        a = AugmentedParams(rng.normal(size=3), prev, [nb], 0.7, rng.normal(size=3))
        mid = 0.5 * (prev + nb)
        assert augmented_objective(np.zeros(3), surrogate(), a) == pytest.approx(
            0.7 * float(mid @ mid)
        )

    def test_hand_computed_1d(self):
        # f == 0, dual = 1, b1 = 0.5, eta = 0.5, one neighbor at 0, theta = 2
        a = AugmentedParams(np.array([1.0]), np.array([0.0]), [np.array([0.0])], 0.5,
                            np.array([0.5]))
        assert augmented_objective(np.array([2.0]), surrogate(), a) == pytest.approx(7.0)

    def test_convex_midpoint(self):
        ds = toy_dataset()
        p = LocalObjectiveParams(ds, 1.0, 3)
        rng = np.random.default_rng(2)
        a = AugmentedParams(rng.normal(size=3), rng.normal(size=3),
                            [rng.normal(size=3), rng.normal(size=3)], 0.5, None)
        for _ in range(20):
            ta, tb = rng.normal(size=3), rng.normal(size=3)
            mid = augmented_objective(0.5 * (ta + tb), p, a)
            ends = 0.5 * (augmented_objective(ta, p, a) + augmented_objective(tb, p, a))
            assert mid <= ends + 1e-12


def finite_difference(fn, theta, h=1e-6):
    grad = np.empty_like(theta)
    for k in range(len(theta)):
        e = np.zeros_like(theta)
        e[k] = h
        grad[k] = (fn(theta + e) - fn(theta - e)) / (2 * h)
    return grad


class TestAugmentedGradient:
    def test_matches_finite_differences(self):
        ds = toy_dataset(n=20)
        p = LocalObjectiveParams(ds, 0.8, 4)
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = AugmentedParams(rng.normal(size=3), rng.normal(size=3),
                                [rng.normal(size=3)], 0.5, rng.normal(size=3))
            theta = rng.normal(size=3)
            g = augmented_gradient(theta, p, a)
            fd = finite_difference(lambda t: augmented_objective(t, p, a), theta)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    def test_quadratic_minimizer(self):
        rng = np.random.default_rng(4)
        prev, nb = rng.normal(size=3), rng.normal(size=3)
        a = AugmentedParams(np.zeros(3), prev, [nb], 0.5, None)
        g = augmented_gradient(0.5 * (prev + nb), surrogate(), a)
        assert np.allclose(g, 0, atol=1e-14)


class TestValueAndGrad:
    @pytest.mark.parametrize("n_nbrs", [0, 1, 2, 3])
    @pytest.mark.parametrize("with_b1", [False, True])
    @pytest.mark.parametrize("with_data", [False, True])
    def test_bit_identical_to_separate_functions(self, with_data, with_b1, n_nbrs):
        rng = np.random.default_rng(100 * n_nbrs + 10 * with_b1 + with_data)
        for trial in range(10):
            d = int(rng.integers(1, 6))
            ds = toy_dataset(seed=trial, n=int(rng.integers(2, 40)), d=d) if with_data else None
            p = LocalObjectiveParams(ds, float(rng.uniform(0, 2)), int(rng.integers(1, 6)))
            a = AugmentedParams(rng.normal(size=d), rng.normal(size=d),
                                [rng.normal(size=d) for _ in range(n_nbrs)],
                                float(rng.uniform(0.1, 2)),
                                rng.normal(size=d) if with_b1 else None)
            theta = rng.normal(size=d) * 3
            value, grad = augmented_value_and_grad(theta, p, a)
            assert value == augmented_objective(theta, p, a)
            assert np.array_equal(grad, augmented_gradient(theta, p, a))


def ulp_distance(a, b):
    """Units in the last place between nonnegative doubles (elementwise)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestOneExpLoss:
    # logaddexp uses the C library's exp and log1p, logistic_loss NumPy's
    # vectorized ones.  Both measure within 2 ulp of the exact value, so
    # the two may differ by up to 4 (3 at z = 4.156232774190723).
    ULP_TOL = 4
    GRID = np.concatenate([
        [745.0, -745.0, 1e-300, -1e-300, 0.0, -0.0, 1.0, -1.0, 36.7, -36.7, 709.0, -709.0,
         800.0, -800.0, 1e300, -1e300, np.inf, -np.inf, 4.156232774190723],
        np.linspace(-60.0, 60.0, 2401),
        np.random.default_rng(7).normal(size=4000) * 20,
    ])

    def test_grid_matches_logaddexp(self):
        out = logistic_loss(self.GRID)
        reference = np.logaddexp(0.0, -self.GRID)
        assert np.all(out >= 0)
        far = ulp_distance(out, reference) > self.ULP_TOL
        assert not far.any(), self.GRID[far]

    @given(st.floats(allow_nan=False))
    def test_floats_match_logaddexp(self, z):
        assert ulp_distance(logistic_loss(z), np.logaddexp(0.0, -z)) <= self.ULP_TOL

    @pytest.mark.parametrize("z", [0.5, -3, np.float64(2.0), np.array(-1.5)])
    def test_scalar_input_returns_python_float(self, z):
        assert type(logistic_loss(z)) is float

    def test_fused_local_value_is_the_reported_loss(self):
        # metrics.average_loss and the solver's objective share one formula
        ds = toy_dataset(seed=3, n=50, d=4)
        rng = np.random.default_rng(8)
        for _ in range(10):
            theta = rng.normal(size=4) * 3
            value, _ = local_value_and_grad(theta, LocalObjectiveParams(ds, 0.0, 1))
            assert metrics.average_loss([theta], DataTerms(blocks([ds]))) == value
            assert local_objective(theta, LocalObjectiveParams(ds, 0.0, 1)) == value


def reference_closure(p, a):
    """The loop-form pair, as one (value, gradient) objective."""

    def objective(theta):
        return augmented_objective(theta, p, a), augmented_gradient(theta, p, a)

    return objective


class TestAugmentedKernel:
    @pytest.mark.parametrize("n_nbrs", [0, 1, 2, 3])
    @pytest.mark.parametrize("with_b1", [False, True])
    @pytest.mark.parametrize("with_data", [False, True])
    def test_one_closure_many_thetas(self, with_data, with_b1, n_nbrs):
        rng = np.random.default_rng(1000 + 100 * n_nbrs + 10 * with_b1 + with_data)
        for trial in range(4):
            d = int(rng.integers(1, 6))
            ds = toy_dataset(seed=trial, n=int(rng.integers(2, 40)), d=d) if with_data else None
            p = LocalObjectiveParams(ds, float(rng.uniform(0, 2)), int(rng.integers(1, 6)))
            a = AugmentedParams(rng.normal(size=d), rng.normal(size=d),
                                [rng.normal(size=d) for _ in range(n_nbrs)],
                                float(rng.uniform(0.1, 2)),
                                rng.normal(size=d) if with_b1 else None)
            kernel = augmented_kernel(p, a)
            theta = np.empty(d)  # one buffer, overwritten between evaluations
            for _ in range(5):
                theta[:] = rng.normal(size=d) * 3
                value, grad = kernel(theta)
                assert value == augmented_objective(theta, p, a)
                assert np.array_equal(grad, augmented_gradient(theta, p, a))
                grad += 1.0  # a caller writing into the result must not leak back

    def test_does_not_mutate_round_terms(self):
        rng = np.random.default_rng(11)
        a = AugmentedParams(rng.normal(size=3), rng.normal(size=3),
                            [rng.normal(size=3), rng.normal(size=3)], 0.5, rng.normal(size=3))
        before = [a.dual.copy(), a.self_prev.copy(), a.noise_b1.copy()] + [
            t.copy() for t in a.neighbor_prev]
        kernel = augmented_kernel(LocalObjectiveParams(toy_dataset(), 1.0, 2), a)
        for _ in range(5):
            kernel(rng.normal(size=3))
        after = [a.dual, a.self_prev, a.noise_b1] + list(a.neighbor_prev)
        assert all(np.array_equal(x, y) for x, y in zip(before, after, strict=True))


def default_subproblems(algorithm):
    """Perturbed subproblems of the documented default config, 1-3 neighbors each."""
    cfg = cli.ExperimentConfig(algorithm=algorithm)
    parts, _ = cli.prepare_data(cfg)
    graph = cli.build_graph(cfg)
    plan = cli.build_plan(cfg, parts, graph)
    floor, sigma_i1, _ = engine.calibrate_run(parts, graph, plan, cfg.eta, cfg.beta)
    solver_cfg = SolverConfig(beta=cfg.beta)
    rng = np.random.default_rng(12)
    d = cfg.synthetic_d
    for i in range(cfg.n_agents):
        p = LocalObjectiveParams(agent_shards(parts)[i], floor, cfg.n_agents)
        b1_rng = noise.stream(0, i, noise.OBJECTIVE_NOISE)
        b1 = noise.gaussian_vector(sigma_i1[i], d, b1_rng)
        for degree in (1, 2, 3):
            a = AugmentedParams(rng.normal(size=d) * 0.05, rng.normal(size=d),
                                [rng.normal(size=d) for _ in range(degree)], cfg.eta, b1)
            yield p, a, replace(solver_cfg, step=solver_step(p, cfg.eta, degree))


def random_round(rng, n_agents, max_degree, with_b1, shuffled):
    """Shards of two sizes (one when n_agents is 1) and random round terms.

    Returns d, the stacked kernel, each agent's one-agent kernel and each
    agent's solver step 2 / (mu + L).
    """
    d = int(rng.integers(1, 6))
    extra = int(rng.integers(1, n_agents)) if n_agents > 1 else 0  # shards one sample larger
    n = n_agents * int(rng.integers(2, 30)) + extra
    parts = agent_shards(
        partition(toy_dataset(seed=int(rng.integers(100)), n=n, d=d), n_agents, 0))
    if shuffled:  # size groups no longer contiguous: blocks() copies them
        parts = [parts[i] for i in rng.permutation(n_agents)]
    nbrs = [sorted(rng.choice([j for j in range(n_agents) if j != i],
                              size=min(int(rng.integers(0, max_degree + 1)), n_agents - 1),
                              replace=False).tolist())
            for i in range(n_agents)]
    slots = np.tile(np.arange(n_agents)[:, None], max(map(len, nbrs), default=0))
    for i, js in enumerate(nbrs):
        slots[i, :len(js)] = js
    lam, eta = float(rng.uniform(0.2, 2)), float(rng.uniform(0.1, 2))
    dual, prev = rng.normal(size=(n_agents, d)), rng.normal(size=(n_agents, d))
    b1 = rng.normal(size=(n_agents, d)) if with_b1 else None
    kernel = stacked_kernel(DataTerms(blocks(parts)), lam, dual, prev, slots, eta, b1)
    params = [LocalObjectiveParams(parts[i], lam, n_agents) for i in range(n_agents)]
    references = [
        augmented_kernel(params[i],
                         AugmentedParams(dual[i], prev[i], [prev[j] for j in nbrs[i]], eta,
                                         None if b1 is None else b1[i]))
        for i in range(n_agents)
    ]
    steps = np.array([solver_step(params[i], eta, len(nbrs[i])) for i in range(n_agents)])
    return d, kernel, references, steps


class TestStackedKernel:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(1, 7),
           max_degree=st.integers(0, 3), with_b1=st.booleans(), shuffled=st.booleans())
    def test_rows_equal_one_agent_kernel(self, seed, n_agents, max_degree, with_b1, shuffled):
        rng = np.random.default_rng(seed)
        d, kernel, references, _ = random_round(rng, n_agents, max_degree, with_b1, shuffled)
        for _ in range(3):
            thetas = rng.normal(size=(n_agents, d)) * 3
            grads = kernel(thetas)
            assert grads.shape == (n_agents, d)
            for i, reference in enumerate(references):
                _, grad = reference(thetas[i].copy())
                assert np.array_equal(grads[i], grad)

    def test_does_not_mutate_round_terms_or_thetas(self):
        rng = np.random.default_rng(11)
        parts = partition(toy_dataset(n=31), 3, 0)
        dual, prev, b1 = (rng.normal(size=(3, 3)) for _ in range(3))
        slots = np.array([[1, 2], [0, 1], [2, 2]])
        before = [a.copy() for a in (dual, prev, b1, slots)]
        kernel = stacked_kernel(DataTerms(parts), 1.0, dual, prev, slots, 0.5, b1)
        thetas = rng.normal(size=(3, 3))
        kept = thetas.copy()
        for _ in range(3):
            grads = kernel(thetas)
            grads += 1.0  # a caller writing into the result must not leak back
        assert all(np.array_equal(x, y)
                   for x, y in zip(before, (dual, prev, b1, slots), strict=True))
        assert np.array_equal(thetas, kept)


class TestDataTerms:
    """The run's data-term evaluator and its one-point memo."""

    @staticmethod
    def evaluator(monkeypatch=None, passes=None):
        parts = partition(toy_dataset(n=31), 3, 0)  # shards of 11, 10 and 10: two blocks
        if monkeypatch is not None:
            block_margins = model.margins

            def counted(block, thetas):
                passes.append(len(block.rows))
                return block_margins(block, thetas)

            monkeypatch.setattr(model, "margins", counted)
        return DataTerms(parts), agent_shards(parts)

    def test_rows_are_each_shards_mean_loss_and_gradient(self):
        terms, parts = self.evaluator()
        thetas = np.random.default_rng(1).normal(size=(3, 3)) * 3
        grads = terms(thetas)
        loss = terms.mean_losses(thetas)
        assert loss.shape == (3,)
        for i, part in enumerate(parts):
            value, grad = local_value_and_grad(thetas[i], LocalObjectiveParams(part, 0.0, 1))
            assert loss[i] == value
            assert np.array_equal(grads[i], grad)
        for cap in (1e-300, 0.3, 0.7, 1e300):  # the gate's capped means
            capped = terms.mean_losses(thetas, cap)
            for i, part in enumerate(parts):
                losses = logistic_loss(part.labels * (part.features @ thetas[i]))
                assert capped[i] == np.minimum(losses, cap).sum() / part.n_samples

    def test_repeated_point_is_one_pass(self, monkeypatch):
        passes = []
        terms, _ = self.evaluator(monkeypatch, passes)
        thetas = np.random.default_rng(2).normal(size=(3, 3))
        first = terms(thetas)
        assert len(passes) == 2  # one per block
        again = terms(thetas.copy())
        assert len(passes) == 2
        assert first is again

    def test_mutating_the_callers_array_never_gives_stale_terms(self, monkeypatch):
        passes = []
        terms, _ = self.evaluator(monkeypatch, passes)
        thetas = np.random.default_rng(3).normal(size=(3, 3))
        stale = terms(thetas).copy()
        thetas[1, 0] += 1.0
        grads = terms(thetas)
        assert len(passes) == 4
        assert np.array_equal(grads, self.evaluator()[0](thetas))
        assert not np.array_equal(grads[1], stale[1])

    def test_a_different_point_recomputes(self, monkeypatch):
        passes = []
        terms, _ = self.evaluator(monkeypatch, passes)
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        for point in (a, b, a):  # the memo holds one point
            before = len(passes)
            grads = terms(point)
            assert len(passes) == before + 2
            assert np.array_equal(grads, self.evaluator()[0](point))

    def test_signed_zeros_give_the_memoized_terms(self):
        # np.array_equal treats -0.0 as 0.0; the terms at both are the same bits
        thetas = np.array([[0.0, 1.5, -0.0], [0.0, 0.0, 0.0], [-2.0, 0.0, 0.5]])
        flipped = np.where(thetas == 0.0, np.copysign(0.0, -np.copysign(1.0, thetas)), thetas)
        assert np.array_equal(np.signbit(thetas) == np.signbit(flipped), thetas != 0.0)
        terms, _ = self.evaluator()
        terms(thetas)
        grads = terms(flipped)
        fresh = self.evaluator()[0]
        assert grads.tobytes() == fresh(flipped).tobytes()
        for cap in (None, 0.5):
            assert terms.mean_losses(flipped, cap).tobytes() == fresh.mean_losses(
                flipped, cap).tobytes()

    def test_terms_are_read_only(self):
        terms, _ = self.evaluator()
        grads = terms(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            grads += 1.0

    def test_kept_losses_are_the_memo_points_per_sample_losses(self, monkeypatch):
        # formed once per memo point and reused at any cap; a new pass drops them
        terms = DataTerms(partition(toy_dataset(n=31), 3, 0))
        fresh = DataTerms(terms.blocks)
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        passes, formed = [], []
        block_margins, loss = model.margins, model._loss
        monkeypatch.setattr(model, "margins",
                            lambda block, thetas: passes.append(1) or block_margins(block, thetas))
        monkeypatch.setattr(model, "_loss", lambda z, e: formed.append(1) or loss(z, e))
        means_a = terms.mean_losses(a)
        assert (len(passes), len(formed)) == (2, 2)  # one per block
        terms(b)
        means_b = terms.mean_losses(b.copy())  # the memo point's losses: no pass
        capped_b = terms.mean_losses(b, 0.5)  # formed once for every cap
        assert (len(passes), len(formed)) == (4, 4)
        for point, means, cap in ((a, means_a, None), (b, means_b, None), (b, capped_b, 0.5)):
            assert means.tobytes() == fresh.mean_losses(point, cap).tobytes()
        assert not np.array_equal(means_a, means_b)


class TestAverageLoss:
    def test_stacked_pass_equals_per_agent_means(self):
        # three shard sizes, agents of one size not adjacent
        ds = toy_dataset(seed=4, n=60, d=3)
        parts = [subset(ds, range(a, b))
                 for a, b in ((0, 10), (10, 17), (17, 27), (27, 31), (31, 60))]
        rng = np.random.default_rng(9)
        for _ in range(5):
            thetas = rng.normal(size=(5, 3)) * 3
            expected = float(np.mean([mean_logistic_loss(t, p) for t, p in zip(thetas, parts)]))
            assert metrics.average_loss(thetas, DataTerms(blocks(parts))) == expected
            assert metrics.average_loss(list(thetas), DataTerms(blocks(parts))) == expected

    def test_one_theta_per_agent(self):
        parts = partition(toy_dataset(n=20), 2, 0)
        with pytest.raises(ValueError, match="one theta per agent"):
            metrics.average_loss(np.zeros((3, 3)), DataTerms(parts))


class TestKernelSolves:
    @pytest.mark.parametrize("algorithm", ["pp_admm", "ipp_admm"])
    def test_minimize_returns_the_reference_iterate(self, algorithm):
        for p, a, cfg in default_subproblems(algorithm):
            start = a.self_prev[None]
            expected = minimize(as_rows(reference_closure(p, a)), start, cfg)
            assert np.array_equal(minimize(as_rows(augmented_kernel(p, a)), start, cfg), expected)

    @pytest.mark.parametrize("algorithm", ["pp_admm", "ipp_admm"])
    def test_tight_tolerance_reached(self, algorithm):
        for p, a, cfg in default_subproblems(algorithm):
            gradient = as_rows(augmented_kernel(p, a))
            out = minimize(gradient, a.self_prev[None], replace(cfg, beta=1e-12))
            assert np.linalg.norm(gradient(out)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(1, 7),
           max_degree=st.integers(0, 3), with_b1=st.booleans())
    # rows 3 and 5 stop at the iteration cap, in the one-agent solves and the stacked one
    @example(seed=11, n_agents=7, max_degree=3, with_b1=True)
    def test_stacked_solve_equals_one_agent_solves(self, seed, n_agents, max_degree, with_b1):
        rng = np.random.default_rng(seed)
        d, kernel, references, bound = random_round(rng, n_agents, max_degree, with_b1, False)
        # steps at or below each row's 2 / (mu + L); the shorter ones converge slowly,
        # so some rows reach the iteration cap
        steps = rng.uniform(0.1, 1.0, size=n_agents) * bound
        start = rng.normal(size=(n_agents, d))
        cfg = SolverConfig(beta=1e-4, max_iterations=50)
        expected, failures = [], []
        for i, reference in enumerate(references):
            try:
                expected.append(minimize(as_rows(reference), start[i:i + 1],
                                         replace(cfg, step=steps[i]))[0])
            except NonConvergence as exc:
                failures.append((i, exc))
        cfg = replace(cfg, step=steps)
        if not failures:
            out = minimize(kernel, start, cfg)
            for i, theta in enumerate(expected):
                assert np.array_equal(out[i], theta)
            return
        # the stacked solve names the lowest failing row, as that row's own solve fails
        row, want = failures[0]
        with pytest.raises(NonConvergence) as info:
            minimize(kernel, start, cfg)
        got = info.value
        assert (got.row, str(got), got.gradient_norm) == (row, str(want), want.gradient_norm)
        assert got.last_iterate.shape == want.last_iterate.shape
        assert got.last_iterate.tobytes() == want.last_iterate.tobytes()


def exact_hessian(theta, p, eta, degree):
    """lambda_hat/N I + X^T diag(s (1 - s)) X / n + 2 eta deg I."""
    x = p.dataset.features
    e = np.exp(-np.abs(x @ theta))
    curvature = e / (1.0 + e) ** 2  # s (1 - s) with s the sigmoid of the margin
    d = x.shape[1]
    return ((p.lambda_hat / p.num_agents + 2.0 * eta * degree) * np.eye(d)
            + (x.T * curvature) @ x / x.shape[0])


class TestCurvatureBounds:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        d=st.integers(1, 6),
        feature_scale=st.floats(0.01, 10.0),
        lambda_hat=st.floats(0.0, 5.0),
        num_agents=st.integers(1, 20),
        eta=st.floats(0.0, 2.0),
        degree=st.integers(0, 5),
    )
    def test_brackets_exact_hessian(self, seed, n, d, feature_scale, lambda_hat,
                                    num_agents, eta, degree):
        rng = np.random.default_rng(seed)
        ds = data.Dataset(rng.normal(size=(n, d)) * feature_scale,
                          rng.choice([-1, 1], size=n))
        p = LocalObjectiveParams(ds, lambda_hat, num_agents)
        mu, lipschitz = curvature_bounds(p, eta, degree)
        for _ in range(5):
            theta = rng.normal(size=d) * rng.choice([0.0, 0.1, 1.0, 10.0])
            eigs = np.linalg.eigvalsh(exact_hessian(theta, p, eta, degree))
            tol = 1e-9 * max(1.0, lipschitz)
            assert mu <= eigs[0] + tol
            assert eigs[-1] <= lipschitz + tol

    def test_quadratic_is_tight(self):
        # at theta = 0 every sample has s (1 - s) = 1/4; one sample makes
        # the loss Hessian rank one with top eigenvalue 0.25 ||x||^2
        ds = data.Dataset(np.array([[0.6, 0.8]]), np.array([1]))
        mu, lipschitz = curvature_bounds(LocalObjectiveParams(ds, 2.0, 4), 0.5, 3)
        assert mu == 0.5 + 3.0
        assert lipschitz == pytest.approx(mu + 0.25)

    def test_surrogate_has_no_loss_curvature(self):
        assert curvature_bounds(surrogate(1.5), 0.25, 2) == (2.5, 2.5)


class TestSolverSteps:
    """model.solver_steps' rows against the one-agent 2 / (mu + L), bit for bit."""

    @pytest.mark.parametrize("lambda_hat", [0.0, 0.7])
    def test_rows_equal_the_one_agent_step(self, lambda_hat):
        # shards of 101, 100 and 100
        terms = DataTerms(partition(drawn_blobs(301, 3, 2.0, 0), 3, 0))
        parts = agent_shards(terms.blocks)
        for degrees in itertools.product(range(4), repeat=3):
            steps = solver_steps(terms, lambda_hat, 0.5, degrees)
            assert steps.shape == (3,)
            for i, part in enumerate(parts):
                mu, lipschitz = curvature_bounds(LocalObjectiveParams(part, lambda_hat, 3), 0.5,
                                                 degrees[i])
                assert float(steps[i]).hex() == (2.0 / (mu + lipschitz)).hex()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(1, 6),
           per_agent=st.integers(1, 40), d=st.integers(1, 25),
           lambda_hat=st.floats(0.0, 5.0), eta=st.floats(0.0, 2.0))
    def test_random_shards(self, seed, n_agents, per_agent, d, lambda_hat, eta):
        rng = np.random.default_rng(seed)
        n = n_agents * per_agent + int(rng.integers(0, n_agents))  # one or two shard sizes
        ds = data.Dataset(rng.normal(size=(n, d)), rng.choice([-1, 1], size=n))
        parts = partition(ds, n_agents, seed % 5)
        degrees = rng.integers(0, 6, size=n_agents)
        steps = solver_steps(DataTerms(parts), lambda_hat, eta, degrees)
        for i, part in enumerate(agent_shards(parts)):
            p = LocalObjectiveParams(part, lambda_hat, n_agents)
            assert float(steps[i]).hex() == solver_step(p, eta, int(degrees[i])).hex()


def zero_rows(thetas, signs):
    """thetas with row i set to +0.0 (signs[i] == 1) or -0.0 (signs[i] == -1)."""
    zeros = np.copysign(np.zeros_like(thetas), np.asarray(signs, dtype=float)[:, None])
    return np.where(np.asarray(signs)[:, None] != 0, zeros, thetas)


class TestStackedClippedQuality:
    """model.clipped_quality's rows against the one-agent form, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 5),
           per_agent=st.integers(2, 9), cap=st.one_of(
               st.sampled_from([1e-300, 1e300]), st.floats(1e-3, 10.0)),
           start=st.sampled_from(["random", "zero", "same"]),
           zero_signs=st.lists(st.sampled_from([0, 1, -1]), min_size=5, max_size=5))
    def test_rows_equal_the_one_agent_form(self, seed, n_agents, per_agent, cap, start,
                                           zero_signs):
        rng = np.random.default_rng(seed)
        # one agent more than the rest gets per_agent + 1 samples: two shard sizes
        parts = agent_shards(partition(
            toy_dataset(seed=seed % 7, n=n_agents * per_agent + 1), n_agents, seed % 5))
        assert len({part.n_samples for part in parts}) == 2
        lam = rng.uniform(0.0, 3.0)
        theta_hat = zero_rows(rng.normal(size=(n_agents, 3)) * 4, zero_signs[:n_agents])
        theta_prev = {"random": zero_rows(rng.normal(size=(n_agents, 3)) * 4,
                                          zero_signs[::-1][:n_agents]),
                      "zero": np.zeros((n_agents, 3)),  # round 0's start
                      "same": theta_hat.copy()}[start]
        terms = DataTerms(blocks(parts))
        capped_prev = terms.mean_losses(theta_prev, cap)
        terms(theta_hat)
        quality = model.clipped_quality(terms, capped_prev, theta_prev, theta_hat, lam, cap)
        assert quality.shape == (n_agents,)
        for i, part in enumerate(parts):
            expected = clipped_quality(theta_prev[i], theta_hat[i],
                                       LocalObjectiveParams(part, lam, n_agents), cap)
            assert float(quality[i]).hex() == expected.hex()
        if start == "same":
            assert np.all(quality == 0.0) and not np.any(np.signbit(quality))
        if cap == 1e-300:  # every loss capped: only the regularizers differ
            assert quality == pytest.approx((lam / n_agents) * 0.5 * (
                np.vecdot(theta_prev, theta_prev) - np.vecdot(theta_hat, theta_hat)),
                rel=1e-12, abs=1e-300)


class TestClippedQuality:
    def test_identical_arguments(self):
        p = LocalObjectiveParams(toy_dataset(), 1.0, 2)
        theta = np.ones(3)
        assert clipped_quality(theta, theta, p, 2.0) == 0.0

    def test_saturated_losses_cancel(self):
        # both points give every per-sample loss above the cap
        ds = data.Dataset(np.array([[1.0], [0.9]]), np.array([1, 1]))
        p = LocalObjectiveParams(ds, 0.0, 1)
        q = clipped_quality(np.array([-50.0]), np.array([-80.0]), p, 0.5)
        assert q == pytest.approx(0.0)

    def test_clip_bounds_per_sample(self):
        ds = toy_dataset()
        p = LocalObjectiveParams(ds, 0.0, 1)
        # quality of any pair is bounded by the cap itself
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = clipped_quality(rng.normal(size=3) * 5, rng.normal(size=3) * 5, p, 2.0)
            assert abs(q) <= 2.0 + 1e-12

    def test_exhaustive_sensitivity(self):
        # swap any single sample against a candidate pool: change <= 2 * c_loss
        rng = np.random.default_rng(6)
        base = data.Dataset(rng.normal(size=(4, 3)), np.array([1, -1, 1, -1]))
        pool = [(rng.normal(size=3), y) for y in (1, -1) for _ in range(4)]
        for c_loss in (0.5, 2.0):
            for _ in range(25):
                tp, th = rng.normal(size=3) * 3, rng.normal(size=3) * 3
                p0 = LocalObjectiveParams(base, 1.3, 2)
                q0 = clipped_quality(tp, th, p0, c_loss)
                for k in range(4):
                    for x_new, y_new in pool:
                        feats = base.features.copy()
                        labels = base.labels.copy()
                        feats[k], labels[k] = x_new, y_new
                        alt = LocalObjectiveParams(data.Dataset(feats, labels), 1.3, 2)
                        q1 = clipped_quality(tp, th, alt, c_loss)
                        assert abs(q0 - q1) <= 2 * c_loss + 1e-12
