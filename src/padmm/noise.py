"""Seedable Gaussian / Laplace samplers with one stream per agent and purpose.

Each RngHandle owns an independent stream keyed by (seed, stream_id), so a
run is reproducible and individual noise sources can be toggled in tests.
The disabled mode returns the distribution's center (zero) instead of a
draw; it exists for exact reduction tests and must never be used for real
privacy.
"""

from __future__ import annotations

import numpy as np

# Per-agent stream purposes.
OBJECTIVE_NOISE = 0   # b1, objective perturbation
OUTPUT_NOISE = 1      # b2, output perturbation
SVT_THRESHOLD = 2
SVT_QUERY = 3
_N_PURPOSES = 4


class RngHandle:
    """One logical random stream, deterministic in (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int = 0, disabled: bool = False):
        self.disabled = disabled
        self._gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,)))
        )

    @classmethod
    def for_agent(cls, seed: int, agent: int, purpose: int, disabled: bool = False) -> "RngHandle":
        return cls(seed, agent * _N_PURPOSES + purpose, disabled=disabled)

    def uniform(self) -> float:
        return float(self._gen.random())

    def standard_normal(self, size: int) -> np.ndarray:
        return self._gen.standard_normal(size)


def gaussian_vector(sigma: float, d: int, rng: RngHandle) -> np.ndarray:
    """d iid draws from N(0, sigma^2); zeros when sigma == 0 or rng disabled."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0 or rng.disabled:
        return np.zeros(d)
    return sigma * rng.standard_normal(d)

def laplace_scalar(b: float, rng: RngHandle) -> float:
    """One draw from Lap(b) via the inverse CDF; the median when rng disabled."""
    if b <= 0:
        raise ValueError("Laplace scale must be positive")
    if rng.disabled:
        return 0.0
    # uniform() is on [0, 1) and u = 0 would give an infinite draw; redrawing
    # it keeps the distribution exact and leaves every other draw unchanged.
    u = rng.uniform()
    while u == 0.0:
        u = rng.uniform()
    return laplace_inverse_cdf(b, u)


def laplace_inverse_cdf(b: float, u: float) -> float:
    """Quantile function of Lap(b) at u in (0, 1); u = 0.5 maps to 0."""
    centered = u - 0.5
    return -b * np.sign(centered) * np.log1p(-2.0 * abs(centered))
