"""Run metrics: per-round training loss, test error rate, consensus residual."""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .model import mean_logistic_loss


def average_loss(theta_per_agent, train_per_agent) -> float:
    """(1/N) sum_i mean_n L(y theta_i . x); no regularizer term."""
    losses = [
        mean_logistic_loss(theta, d)
        for theta, d in zip(theta_per_agent, train_per_agent, strict=True)
    ]
    return float(np.mean(losses))


def error_rate(theta_per_agent, test: Dataset) -> float:
    """Misclassification rate of sign(theta_i . x), averaged over agents.

    sign(0) predicts +1.
    """
    if test.n_samples == 0:
        raise ValueError("empty test set")
    scores = test.features @ np.asarray(theta_per_agent).T  # (n_test, N)
    wrong = (scores >= 0) != (test.labels > 0)[:, None]
    return float(np.mean(wrong.mean(axis=0)))


def consensus_residual(theta_per_agent) -> float:
    """max_i || theta_i - mean(theta) ||_2."""
    thetas = np.asarray(theta_per_agent)
    center = thetas.mean(axis=0)
    return float(np.max(np.linalg.norm(thetas - center, axis=1)))
