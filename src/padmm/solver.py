"""First-order inner solver: run until the gradient norm drops below beta.

Plain row-wise gradient descent at the caller's steps, with no line search.
The engine gives every row the step s = 2 / (mu + L) from its subproblem's
strong-convexity and smoothness bounds (model.solver_steps).  By the
descent lemma, f(theta - s g) <= f(theta) - s (1 - s L / 2) ||g||^2, so a
step below 2 / L always lowers f, and at 2 / (mu + L) the iterates contract
by (L - mu) / (L + mu) per step (Nesterov 2004, Thm 2.1.15).  A search
would only retest that, and near ||g|| = 1e-10 its decrease test drowns in
the rounding error of f.  Precondition: each row's step is at most its 2 / L;
a longer one may diverge and end at the iteration cap.  Rows are independent:
each stops at its own first iterate with gradient norm <= beta and follows a
one-row solve bit for bit.  Deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SolverConfig:
    """step is one step for every row, or an array with one per row."""

    beta: float
    max_iterations: int = 10_000
    step: float | np.ndarray = 1.0

    def __post_init__(self):
        # a NaN or infinite step makes every iterate NaN, so the solve could only end at the cap
        step = np.asarray(self.step)
        finite_step = np.all((0 < step) & (step < np.inf))
        if not (self.beta > 0 and self.max_iterations >= 1 and finite_step):
            raise ValueError("beta, max_iterations must be positive; step finite and positive")


class NonConvergence(RuntimeError):
    """Gradient norm still above beta after the iteration cap.

    Carries the row that failed and its last iterate so the caller can
    choose to accept it.
    """

    def __init__(self, message: str, last_iterate: np.ndarray, gradient_norm: float,
                 row: int = 0):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.gradient_norm = gradient_norm
        self.row = row


def minimize(objective, start: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Minimize smooth convex objectives, row by row, to gradient norm <= cfg.beta.

    For a (k, d) start, `objective(thetas)` returns the (k, d) gradients and
    is evaluated at all k rows on every call; rows that have stopped are
    evaluated at their final iterate.  If rows are still above beta after
    cfg.max_iterations steps, NonConvergence names the lowest of them.
    """
    theta = np.array(start, dtype=float)
    step = np.broadcast_to(np.asarray(cfg.step, dtype=float), theta.shape[:1])[:, None]
    grad = objective(theta)
    active = ~(np.sqrt(np.vecdot(grad, grad)) <= cfg.beta)
    for _ in range(cfg.max_iterations):
        if not active.any():
            return theta
        theta = np.where(active[:, None], theta - step * grad, theta)
        grad = objective(theta)
        grad_norm = np.sqrt(np.vecdot(grad, grad))
        active &= ~(grad_norm <= cfg.beta)
    if active.any():
        row = int(np.flatnonzero(active)[0])
        raise NonConvergence(f"gradient norm {grad_norm[row]:.3e} > beta {cfg.beta:.3e} "
                             f"after {cfg.max_iterations} iterations",
                             theta[row], float(grad_norm[row]), row)
    return theta
