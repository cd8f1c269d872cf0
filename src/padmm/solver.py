"""First-order inner solver: run until the gradient norm drops below beta.

Gradient descent that tries `initial_step` at every iteration and halves it
only while the Armijo test fails.  The engine sets `initial_step` to every
row's 2 / (mu + L) from its subproblem's strong-convexity and smoothness
bounds (model.solver_steps); at that step gradient descent contracts by
(L - mu) / (L + mu) per iteration, and the Armijo test holds whenever
mu / (mu + L) >= ARMIJO_C, so the backtracking is only a guard.  The stopping
rule is unchanged: the gradient norm at the returned iterate is <= beta.

`minimize` solves several independent problems at once, one per row: each
row has its own step, Armijo guard and iteration count, and stops at its own
first iterate with gradient norm <= beta, so every row follows the iterates
of a one-row solve bit for bit.  Deterministic: no internal randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ARMIJO_C = 1e-4
MIN_STEP = 1e-20


@dataclass(frozen=True)
class SolverConfig:
    """initial_step is one step for every row, or an array with one per row."""

    beta: float
    max_iterations: int = 10_000
    initial_step: float | np.ndarray = 1.0

    def __post_init__(self):
        # a NaN or infinite step never falls below MIN_STEP, so minimize would not stop
        step = np.asarray(self.initial_step)
        finite_step = np.all((0 < step) & (step < np.inf))
        if not (self.beta > 0 and self.max_iterations >= 1 and finite_step):
            raise ValueError("beta, max_iterations must be positive; "
                             "initial_step finite and positive")


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

    For a (k, d) start, `objective(thetas)` returns (values (k,), gradients
    (k, d)) and is evaluated at all k rows on every call; rows that have
    stopped are evaluated at their final iterate.  If any row fails,
    NonConvergence names the lowest failing row, after the others have
    finished.
    """
    theta = np.array(start, dtype=float)
    initial_step = np.broadcast_to(np.asarray(cfg.initial_step, dtype=float), theta.shape[:1])
    value, grad = objective(theta)
    grad_norm = np.sqrt(np.vecdot(grad, grad))
    active = ~(grad_norm <= cfg.beta)
    step = initial_step.copy()
    iterations = np.zeros(len(theta), dtype=int)
    failures = {}
    while active.any():
        candidate = np.where(active[:, None], theta - step[:, None] * grad, theta)
        cand_value, cand_grad = objective(candidate)
        accept = active & (cand_value <= value - ARMIJO_C * step * grad_norm * grad_norm)
        theta = np.where(accept[:, None], candidate, theta)
        value = np.where(accept, cand_value, value)
        grad = np.where(accept[:, None], cand_grad, grad)
        grad_norm = np.sqrt(np.vecdot(grad, grad))
        iterations += accept
        step = np.where(accept, initial_step, 0.5 * step)
        active &= ~(accept & (grad_norm <= cfg.beta))
        stalled = active & ~accept & (step < MIN_STEP)
        capped = active & (iterations == cfg.max_iterations)
        if stalled.any() or capped.any():
            for i in np.flatnonzero(stalled):
                failures[i] = f"line search stalled at gradient norm {grad_norm[i]:.3e}"
            for i in np.flatnonzero(capped):
                failures[i] = (f"gradient norm {grad_norm[i]:.3e} > beta {cfg.beta:.3e} "
                               f"after {cfg.max_iterations} iterations")
            active &= ~(stalled | capped)
    if failures:
        row = min(failures)
        raise NonConvergence(failures[row], theta[row], float(grad_norm[row]), int(row))
    return theta
