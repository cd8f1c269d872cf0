"""Run metrics: per-round training loss, test error rate, consensus residual."""

from __future__ import annotations

import numpy as np

from . import data
from .model import DataTerms


def average_loss(theta_per_agent, data_terms: DataTerms) -> float:
    """(1/N) sum_i mean_n L(y theta_i . x); no regularizer term.

    data_terms is the run's evaluator of the agents' shards (the one the
    solver's objective uses), so a point it has just evaluated costs no
    second pass.
    """
    thetas = np.asarray(theta_per_agent, dtype=float)
    if len(thetas) != data_terms.n_agents:
        raise ValueError("one theta per agent dataset is needed")
    loss, _ = data_terms(thetas)
    return float(np.mean(loss))


def error_rate(theta_per_agent, test: data.Dataset) -> float:
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
