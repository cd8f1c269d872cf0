import numpy as np
import pytest

from padmm.solver import NonConvergence, SolverConfig, minimize
from reference import as_rows


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def objective(theta):
        diff = theta - center
        return 0.5 * float(diff @ diff), diff

    return objective


class TestMinimize:
    def test_quadratic_bowl(self):
        cfg = SolverConfig(beta=1e-6)
        out = minimize(as_rows(quadratic([3.0, -1.0])), np.zeros(2)[None], cfg)[0]
        assert np.linalg.norm(out - [3.0, -1.0]) <= 1e-6

    def test_early_exit_at_start(self):
        calls = []

        def objective(theta):
            calls.append(1)
            return 0.0, np.zeros(2)

        out = minimize(as_rows(objective), np.array([5.0, 5.0])[None], SolverConfig(beta=1e-3))[0]
        assert np.array_equal(out, [5.0, 5.0])
        assert len(calls) == 1  # single evaluation, zero steps

    def test_gradient_norm_postcondition(self):
        from padmm import data
        from reference import (AugmentedParams, LocalObjectiveParams, augmented_gradient,
                               augmented_objective)

        ds = data.synthetic_blobs(100, 2, 5.0, 0)
        p = LocalObjectiveParams(ds, 0.5, 2)
        rng = np.random.default_rng(1)
        a = AugmentedParams(rng.normal(size=2), rng.normal(size=2),
                            [rng.normal(size=2)], 0.5, None)

        def objective(theta):
            return augmented_objective(theta, p, a), augmented_gradient(theta, p, a)

        beta = 10.0**-3.5
        out = minimize(as_rows(objective), np.zeros(2)[None], SolverConfig(beta=beta))[0]
        assert np.linalg.norm(objective(out)[1]) <= beta

    def test_monotone_descent(self):
        history = []

        def objective(theta):
            diff = theta - np.array([2.0, 2.0, 2.0])
            value = 0.5 * float(diff @ diff)
            history.append(value)
            return value, diff

        minimize(as_rows(objective), np.zeros(3)[None], SolverConfig(beta=1e-8))
        accepted = [history[0]]
        for value in history[1:]:
            if value <= accepted[-1]:
                accepted.append(value)
        assert accepted[-1] <= accepted[0] + 1e-12

    def test_deterministic(self):
        cfg = SolverConfig(beta=1e-10)
        a = minimize(as_rows(quadratic([1.0, 2.0, 3.0])), np.ones(3)[None], cfg)[0]
        b = minimize(as_rows(quadratic([1.0, 2.0, 3.0])), np.ones(3)[None], cfg)[0]
        assert np.array_equal(a, b)

    def test_non_convergence_carries_iterate(self):
        # small fixed step cannot close a 10-unit gap in 3 iterations
        cfg = SolverConfig(beta=1e-15, max_iterations=3, step=0.1)
        with pytest.raises(NonConvergence) as err:
            minimize(as_rows(quadratic([10.0])), np.zeros(1)[None], cfg)
        assert err.value.last_iterate.shape == (1,)
        assert err.value.gradient_norm > 1e-15

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(beta=0.0)
        with pytest.raises(ValueError):
            SolverConfig(beta=1e-3, max_iterations=0)


def rowwise_quadratics(centers, curvatures, log=None):
    """Gradients of row i's 0.5 a_i ||theta - c_i||^2 + sum log cosh(theta); any row count.

    Row i is a_i-strongly convex and (a_i + 1)-smooth.  log, if given, gets
    a copy of every evaluated point.
    """

    def objective(thetas):
        if log is not None:
            log.append(thetas.copy())
        return curvatures[:, None] * (thetas - centers) + np.tanh(thetas)

    return objective


class TestRowwise:
    CENTERS = np.array([[3.0, -1.0], [0.5, 2.0], [-2.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    CURVATURES = np.array([1.0, 1.0, 4.0, 1.0, 0.2])
    STEPS = np.array([0.6, 0.5, 0.3, 1.0, 1.2])  # at most each row's 2 / L
    START = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 2.0], [0.0, 0.0], [-1.0, 2.0]])

    def test_rows_equal_one_row_solves(self):
        beta = 1e-6
        out = minimize(rowwise_quadratics(self.CENTERS, self.CURVATURES), self.START,
                       SolverConfig(beta=beta, step=self.STEPS))
        evals = []
        for i in range(len(self.START)):
            log = []
            objective = rowwise_quadratics(self.CENTERS[i:i + 1], self.CURVATURES[i:i + 1], log)
            expected = minimize(objective, self.START[i:i + 1],
                                SolverConfig(beta=beta, step=self.STEPS[i]))
            assert expected.shape == (1, 2)
            assert np.array_equal(out[i], expected[0])
            evals.append(len(log))
        assert evals[3] == 1  # row 3 starts at its minimizer
        assert len(set(evals)) == len(evals)  # every row stops at a different evaluation

    def test_lowest_failing_row_is_named(self):
        # rows 1 and 3 cannot reach beta in 3 iterations at step 0.01
        steps = np.array([1.0, 0.01, 1.0, 0.01])
        objective = rowwise_quadratics(np.full((4, 1), 10.0), np.ones(4))
        with pytest.raises(NonConvergence, match="after 3 iterations") as err:
            minimize(objective, np.zeros((4, 1)),
                     SolverConfig(beta=1e-3, max_iterations=3, step=steps))
        assert err.value.row == 1
        assert err.value.last_iterate.shape == (1,)
        assert err.value.gradient_norm > 1e-3

    def test_per_row_steps_validated(self):
        with pytest.raises(ValueError):
            SolverConfig(beta=1e-3, step=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("step", [np.nan, np.inf, np.array([1.0, np.nan])])
    def test_non_finite_steps_rejected(self, step):
        with pytest.raises(ValueError, match="step finite"):
            SolverConfig(beta=1e-3, step=step)
