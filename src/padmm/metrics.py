"""Run metrics: per-round training loss, test error rate, consensus residual."""

from __future__ import annotations

import numpy as np

from . import data
from .model import DataTerms


def average_loss(theta_per_agent, data_terms: DataTerms) -> float:
    """(1/N) sum_i mean_n L(y theta_i . x); no regularizer term.

    The agents' mean losses come from data_terms, the run's one reader of
    the shards (the one the solver's objective uses), so a point it has
    just evaluated costs no second pass.
    """
    thetas = np.asarray(theta_per_agent, dtype=float)
    if len(thetas) != data_terms.n_agents:
        raise ValueError("one theta per agent dataset is needed")
    return float(np.mean(data_terms.mean_losses(thetas)))


def error_rate(theta_per_agent, test: data.Dataset) -> float:
    """Misclassification rate of sign(theta_i . x), averaged over agents.

    sign(0) predicts +1.  Each agent's predictions are one contiguous row of
    scores, packed to bits and XORed with the packed labels, so its rate is
    an exact integer count over n_test.
    """
    scores = np.asarray(theta_per_agent) @ test.features.T  # (N, n_test)
    wrong = np.packbits(scores >= 0, axis=1) ^ np.packbits(test.labels > 0)
    counts = np.bitwise_count(wrong).sum(axis=1)
    return float(np.mean(counts / test.n_samples))


def consensus_residual(theta_per_agent) -> float:
    """max_i || theta_i - mean(theta) ||_2."""
    thetas = np.asarray(theta_per_agent)
    center = thetas.mean(axis=0)
    return float(np.max(np.linalg.norm(thetas - center, axis=1)))
