"""Logistic loss, the stacked augmented gradient, solver steps and the gated quality score.

The local objective of agent i is

    f_i(theta) = mean_n L(y_n theta.x_n) + (lambda_hat / N) * 0.5 ||theta||^2

and each round's primal subproblem minimizes the augmented form

    f_i(theta) + (2 dual + b1).theta
        + eta * sum_j || 0.5 (theta_self_prev + theta_j_prev) - theta ||^2

where b1 is the objective-perturbation noise (zero in the non-private run).
The augmented form is mu-strongly convex and L-smooth with

    mu = lambda_hat / N + 2 eta deg_i,    L = mu + 0.25 max_n ||x_n||^2

(the logistic loss has curvature at most 1/4).  strong_convexity is the one
home of mu, which also sets the output-noise scale (accountant.calibrate);
solver_steps gives every agent's step 2 / (mu + L), reading max ||x_n||^2
from the stacked shards.

Each evaluation takes one exponential per sample: with e = exp(-|z|),
L(z) = log(1 + exp(-z)) is max(-z, 0) + log1p(e) and its derivative is
-e / (1 + e) for z >= 0 and -1 / (1 + e) for z < 0.  stacked_kernel
returns the gradients (the solver reads no values) of every agent's
subproblem of a round at once, one row per agent, on the shards stacked by
size (data.shard_blocks' ShardBlocks).  Its rows are bit-identical to the
one-agent loop form, which tests/reference.py keeps as the oracle; that
rests on NumPy's stacked matmul and vecdot calling the same BLAS gemv and
dot per row as the 2-D and 1-D products.

A sample enters f_i only through its margin y theta.x, so the shards hold
y x.  DataTerms, one per run, is the one reader of the shards: it returns
the data gradients to the solver and every agent's mean per-sample loss,
optionally capped, to the training loss (metrics.average_loss) and the
gate's score (clipped_quality).  It remembers the last point it evaluated,
so a point the loop evaluates twice in a row costs one pass over the
shards, and that point's per-sample losses are formed at most once.
"""

from __future__ import annotations

import numpy as np

from .data import ShardBlock


def _loss(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log(1 + exp(-z)) as max(-z, 0) + log1p(e), given e = exp(-|z|)."""
    return np.maximum(-z, 0.0) + np.log1p(e)


def _deriv(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sigma(z) - 1 given e = exp(-|z|): -max(e, z < 0) / (1 + e), as e <= 1 for z < 0."""
    return -np.maximum(e, z < 0) / (1.0 + e)


def margins(block: ShardBlock, thetas: np.ndarray) -> np.ndarray:
    """(k, m) margins y theta_i.x of the block's agents (it holds y x), thetas one row per agent."""
    return np.matmul(block.features, thetas[block.rows, :, None])[:, :, 0]


class DataTerms:
    """The data part of every agent's objective, for one run's shards.

    data_terms(thetas) returns the read-only (N, d) mean loss gradients, row
    i that of agent i's shard at thetas[i].  mean_losses(thetas, cap) returns
    the (N,) mean per-sample losses, each capped at cap if one is given.
    Both share a one-entry memo: a copy of the last point evaluated, with its
    gradients, each block's margins and, once formed, its per-sample losses,
    reused while the point is np.array_equal to the copy.  Points equal that
    way differ at most in the sign of a zero, which no term sees.
    """

    def __init__(self, blocks):
        self.blocks = blocks  # data.ShardBlock: the shards stacked by size, holding y x
        self.n_agents = sum(len(block.rows) for block in blocks)
        self._point = None
        self._grads = None
        self._margins = None  # per block, (z, exp(-|z|)) at _point
        self._losses = None  # per block, the per-sample losses at _point once formed

    def __call__(self, thetas: np.ndarray) -> np.ndarray:
        if self._point is not None and np.array_equal(thetas, self._point):
            return self._grads
        grads = np.empty(thetas.shape)
        kept = []
        for block in self.blocks:
            z = margins(block, thetas)
            e = np.exp(-np.abs(z))
            grads[block.rows] = (np.matmul(block.features.transpose(0, 2, 1),
                                           _deriv(z, e)[:, :, None])[:, :, 0] / z.shape[1])
            kept.append((z, e))
        grads.flags.writeable = False
        self._point = np.array(thetas, dtype=float)
        self._grads = grads
        self._margins = kept
        self._losses = None
        return grads

    def mean_losses(self, thetas: np.ndarray, cap: float | None = None) -> np.ndarray:
        """(N,) mean per-sample loss of each agent's shard at thetas[i], capped at cap if given."""
        self(thetas)
        if self._losses is None:
            self._losses = [_loss(z, e) for z, e in self._margins]
        out = np.empty(self.n_agents)
        for block, losses in zip(self.blocks, self._losses, strict=True):
            capped = losses if cap is None else np.minimum(losses, cap)
            out[block.rows] = capped.sum(axis=1) / capped.shape[1]
        return out


def stacked_kernel(data_terms: DataTerms, lambda_hat: float, dual: np.ndarray,
                   self_prev: np.ndarray, slots: np.ndarray, eta: float,
                   noise_b1: np.ndarray | None = None):
    """objective(thetas) -> grads (N, d) of every agent's subproblem.

    Row i is agent i's augmented gradient at thetas[i].  data_terms
    evaluates the agents' shards (and may answer from its memo); dual,
    self_prev and noise_b1 (None for no objective noise) have one row per
    agent; slots[i] lists agent i's neighbors in ascending order, padded
    with i itself, and the padded slots are skipped.  The round-local terms
    (2 dual, the b1 term and the neighbor midpoints 0.5 (theta_self_prev +
    theta_j)) are computed once here, for every evaluation of one solve.
    Each row takes the per-agent form's operations in its order, so it
    matches a one-agent evaluation bit for bit.
    """
    scale = lambda_hat / data_terms.n_agents
    two_dual = 2.0 * dual
    b1 = noise_b1 if noise_b1 is not None else 0.0
    midpoints = 0.5 * (self_prev[:, None, :] + self_prev[slots])  # (N, S, d)
    real = slots != np.arange(len(slots))[:, None]
    two_eta = 2.0 * eta

    def objective(thetas: np.ndarray):
        grads = data_terms(thetas) + scale * thetas + two_dual + b1
        for s in range(slots.shape[1]):
            # exactly + 2 eta (theta - midpoint)
            np.subtract(grads, two_eta * (midpoints[:, s] - thetas), out=grads,
                        where=real[:, s, None])
        return grads

    return objective


def strong_convexity(lambda_hat: float, num_agents: int, eta: float, degree):
    """mu = lambda_hat / N + 2 eta degree, exact for agent i's augmented objective.

    The regularizer and the neighbor penalties are isotropic quadratics.
    degree may be an int or an array of them, one per agent.
    """
    return lambda_hat / num_agents + 2.0 * eta * degree


def solver_steps(data_terms: DataTerms, lambda_hat: float, eta: float, degrees) -> np.ndarray:
    """Every agent's gradient step 2 / (mu_i + L_i), an (N,) array.

    L_i = mu_i + 0.25 max_n ||x_n||^2 over agent i's shard bounds the
    logistic Hessian X^T diag(s (1 - s)) X / n.  degrees lists each agent's
    neighbor count.  The squared row norms are taken block by block with
    one einsum, which gives each row's bits of the one-shard einsum.
    """
    max_sq = np.empty(data_terms.n_agents)
    for block in data_terms.blocks:
        x = block.features
        max_sq[block.rows] = np.einsum("kmd,kmd->km", x, x).max(axis=1)
    mu = strong_convexity(lambda_hat, data_terms.n_agents, eta, np.asarray(degrees))
    lipschitz = mu + 0.25 * max_sq
    return 2.0 / (mu + lipschitz)


def clipped_quality(data_terms: DataTerms, capped_prev: np.ndarray, theta_prev: np.ndarray,
                    theta_hat: np.ndarray, lambda_hat: float, c_loss: float) -> np.ndarray:
    """Every agent's f_i(theta_prev) - f_i(theta_hat) with per-sample losses capped at c_loss.

    Returns an (N,) array, one score per row of theta_prev and theta_hat.
    capped_prev is data_terms.mean_losses(theta_prev, c_loss); theta_hat's
    are read from data_terms (no pass when theta_hat is its last point).
    Capping bounds each score's sensitivity to any single sample swap by
    2 * c_loss.  The regularizer enters uncapped (it is data-independent).
    Each row takes the one-agent form's operations in its order
    (tests/reference.py keeps that form), so the scores match it bit for
    bit.
    """
    scale = lambda_hat / data_terms.n_agents
    return ((capped_prev + scale * 0.5 * np.vecdot(theta_prev, theta_prev))
            - (data_terms.mean_losses(theta_hat, c_loss)
               + scale * 0.5 * np.vecdot(theta_hat, theta_hat)))
