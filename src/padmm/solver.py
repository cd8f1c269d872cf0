"""First-order inner solver: run until the gradient norm drops below beta.

Gradient descent that tries `initial_step` at every iteration and halves it
only while the Armijo test fails.  The engine sets `initial_step` to
2 / (mu + L) from each subproblem's strong-convexity and smoothness bounds
(model.curvature_bounds); at that step gradient descent contracts by
(L - mu) / (L + mu) per iteration, and the Armijo test holds whenever
mu / (mu + L) >= ARMIJO_C, so the backtracking is only a guard.  The stopping
rule is unchanged: the gradient norm at the returned iterate is <= beta.
Deterministic: no internal randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ARMIJO_C = 1e-4
MIN_STEP = 1e-20


@dataclass(frozen=True)
class SolverConfig:
    beta: float
    max_iterations: int = 10_000
    initial_step: float = 1.0

    def __post_init__(self):
        if self.beta <= 0 or self.max_iterations < 1 or self.initial_step <= 0:
            raise ValueError("beta, max_iterations, initial_step must be positive")


class NonConvergence(RuntimeError):
    """Gradient norm still above beta after the iteration cap.

    Carries the last iterate so the caller can choose to accept it.
    """

    def __init__(self, message: str, last_iterate: np.ndarray, gradient_norm: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.gradient_norm = gradient_norm


def minimize(objective, start: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Minimize a smooth convex objective to gradient norm <= cfg.beta.

    `objective(theta)` must return a (value, gradient) pair.  Deterministic:
    no internal randomness, bit-identical outputs for identical inputs.
    """
    theta = np.asarray(start, dtype=float).copy()
    value, grad = objective(theta)
    for _ in range(cfg.max_iterations):
        grad_norm = math.sqrt(float(grad @ grad))
        if grad_norm <= cfg.beta:
            return theta
        step = cfg.initial_step
        while True:
            candidate = theta - step * grad
            cand_value, cand_grad = objective(candidate)
            if cand_value <= value - ARMIJO_C * step * grad_norm * grad_norm:
                break
            step *= 0.5
            if step < MIN_STEP:
                raise NonConvergence(
                    f"line search stalled at gradient norm {grad_norm:.3e}",
                    theta,
                    grad_norm,
                )
        theta, value, grad = candidate, cand_value, cand_grad
    grad_norm = math.sqrt(float(grad @ grad))
    if grad_norm <= cfg.beta:
        return theta
    raise NonConvergence(
        f"gradient norm {grad_norm:.3e} > beta {cfg.beta:.3e} "
        f"after {cfg.max_iterations} iterations",
        theta,
        grad_norm,
    )
