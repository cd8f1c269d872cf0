"""Sparse-vector gate deciding whether a round's solution is worth broadcasting.

An SVT over any query of sensitivity Delta, drawing from its own streams
rngs = (threshold, query): Lap(Delta / eps1) on the threshold once, then
Lap(2 c Delta / eps2) on each query.  At most c = c_max above-threshold
answers are allowed, after which the gate is exhausted and draws no more
noise.  These are the scales of Lyu, Su & Li's Algorithm 1 (VLDB 2017),
which is (eps1 + eps2)-DP for queries that need not be monotonic.
"""

from __future__ import annotations

import enum

import numpy as np

from .noise import laplace_scalar


class Decision(enum.Enum):
    ABOVE = "above"
    BELOW = "below"
    EXHAUSTED = "exhausted"


class SvtGate:
    def __init__(
        self,
        alpha: float,
        c_max: int,
        eps1: float,
        eps2: float,
        sensitivity: float,
        rngs: tuple[np.random.Generator | None, np.random.Generator | None],
    ):
        if c_max < 1 or eps1 <= 0 or eps2 <= 0 or sensitivity <= 0:
            raise ValueError("c_max, eps1, eps2, sensitivity must be positive")
        threshold_rng, self.query_rng = rngs
        self.c_max = c_max
        self.count = 0
        self.noisy_threshold = alpha + laplace_scalar(sensitivity / eps1, threshold_rng)
        self.query_noise_scale = 2.0 * c_max * sensitivity / eps2

    def check(self, quality: float) -> Decision:
        """Compare a noisy query value against the noisy threshold.

        Exhausted gates consume no randomness.  Ties count as ABOVE.
        """
        if self.count >= self.c_max:
            return Decision.EXHAUSTED
        nu = laplace_scalar(self.query_noise_scale, self.query_rng)
        if quality + nu >= self.noisy_threshold:
            self.count += 1
            return Decision.ABOVE
        return Decision.BELOW
