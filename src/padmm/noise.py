"""Seedable Gaussian / Laplace samplers with one stream per agent and purpose.

Each stream is a plain numpy Generator keyed by (seed, agent, purpose), so
a run is reproducible and individual noise sources can be told apart in
tests.  A sampler handed None in place of a stream returns the
distribution's center (zero) without a draw; that exists for exact
reduction tests and must never be used for real privacy.
"""

from __future__ import annotations

import numpy as np

# Per-agent stream purposes.
OBJECTIVE_NOISE = 0   # b1, objective perturbation
OUTPUT_NOISE = 1      # b2, output perturbation
SVT_THRESHOLD = 2
SVT_QUERY = 3
_N_PURPOSES = 4


def stream(seed: int, agent: int, purpose: int) -> np.random.Generator:
    """The random stream of one agent and purpose, deterministic in all three."""
    key = (agent * _N_PURPOSES + purpose,)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def gaussian_vector(sigma: float, d: int, rng: np.random.Generator | None) -> np.ndarray:
    """d iid draws from N(0, sigma^2); zeros when sigma == 0 or rng is None."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0 or rng is None:
        return np.zeros(d)
    return sigma * rng.standard_normal(d)

def laplace_scalar(b: float, rng: np.random.Generator | None) -> float:
    """One draw from Lap(b) via the inverse CDF; the median when rng is None."""
    if b <= 0:
        raise ValueError("Laplace scale must be positive")
    if rng is None:
        return 0.0
    # random() is on [0, 1) and u = 0 would give an infinite draw; redrawing
    # it keeps the distribution exact and leaves every other draw unchanged.
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return laplace_inverse_cdf(b, u)


def laplace_inverse_cdf(b: float, u: float) -> float:
    """Quantile function of Lap(b) at u in (0, 1); u = 0.5 maps to 0."""
    centered = u - 0.5
    return -b * np.sign(centered) * np.log1p(-2.0 * abs(centered))
