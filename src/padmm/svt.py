"""Sparse-vector gate deciding whether a round's solution is worth broadcasting.

The threshold is noised once at construction with Lap(2 c C_loss / eps1);
each query adds Lap(4 c C_loss / eps2) to the clipped quality score.  At
most c_max above-threshold answers are allowed, after which the gate is
exhausted and answers without drawing noise.
"""

from __future__ import annotations

import enum

from .noise import RngHandle, laplace_scalar


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
        c_loss: float,
        rng: RngHandle,
    ):
        if c_max < 1 or eps1 <= 0 or eps2 <= 0 or c_loss <= 0:
            raise ValueError("c_max, eps1, eps2, c_loss must be positive")
        self.c_max = c_max
        self.count = 0
        self.noisy_threshold = alpha + laplace_scalar(2.0 * c_max * c_loss / eps1, rng)
        self.query_noise_scale = 4.0 * c_max * c_loss / eps2

    def check(self, quality: float, rng: RngHandle) -> Decision:
        """Compare a noisy quality score against the noisy threshold.

        Exhausted gates consume no randomness.  Ties count as ABOVE.
        """
        if self.count >= self.c_max:
            return Decision.EXHAUSTED
        nu = laplace_scalar(self.query_noise_scale, rng)
        if quality + nu >= self.noisy_threshold:
            self.count += 1
            return Decision.ABOVE
        return Decision.BELOW

