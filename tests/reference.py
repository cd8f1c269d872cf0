"""Plain reference forms that tests check padmm against.

The engine evaluates every agent's subproblem at once with
padmm.model.stacked_kernel.  These functions compute one agent's objective
and gradient the plain way, from the agent's LocalObjectiveParams; model
tests require the stacked gradient rows to equal augmented_kernel's bit
for bit, and augmented_kernel to equal the augmented_objective /
augmented_gradient pair bit for bit.  curvature_bounds and solver_step
are one agent's (mu, L) and gradient step 2 / (mu + L), which
padmm.model.solver_steps' rows must equal bit for bit.  clipped_quality is
one agent's gate score, which padmm.model.clipped_quality's rows must
equal bit for bit.  error_rate is the boolean-matrix form of
padmm.metrics.error_rate.  as_rows lifts a one-theta (value, gradient)
objective to the gradient rows that padmm.solver.minimize takes;
serial_compose and parallel_compose are zCDP's composition rules (sum on
one agent's data, maximum over disjoint data), which padmm.accountant's
ledger applies in place.  centralized_reference minimizes the pooled
problem directly, the oracle for the decentralized loops.
partition deals a Dataset into ShardBlocks with padmm.data's shard_order
and shard_blocks, as padmm.cli.prepare_data does; blocks is its old
two-step form: per-agent shards, then grouped by size, signed and stacked; agent_shards unstacks
blocks back into per-agent signed Datasets, and subset picks a Dataset's
samples by index.  A signed shard is the dataset (y x, +1): its margins,
losses and gradients equal those of (x, y) bit for bit, so the one-agent
forms here read either.  prepare_data is the old setup that padmm.cli.prepare_data must
match bit for bit: copies of the train and test splits, column_scales from
the train copy, preprocess on each split (both whole-array forms), then
partition of the normalized train split.  drawn_blobs is padmm.data.draw_blobs'
samples as a Dataset, and synthetic_blobs its plain form: one draw normalized by preprocess.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from padmm.accountant import BudgetError
from padmm.data import (Dataset, ShardBlock, blob_labels, draw_blobs, load_csv, shard_blocks,
                        shard_order)
from padmm.engine import EngineError
from padmm.model import DataTerms, _deriv, _loss, solver_steps, stacked_kernel
from padmm.solver import NonConvergence, SolverConfig, minimize


def logistic_loss(z):
    """log(1 + exp(-z)), overflow-safe; accepts scalars or arrays."""
    z = np.asarray(z, dtype=float)
    out = _loss(z, np.exp(-np.abs(z)))
    return out if out.ndim else float(out)


def logistic_loss_deriv(z):
    """Derivative of logistic_loss: -1/(1+exp(z)), always in (-1, 0)."""
    z = np.asarray(z, dtype=float)
    out = _deriv(z, np.exp(-np.abs(z)))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class LocalObjectiveParams:
    """Parameters of f_i; dataset=None leaves out the loss term."""

    dataset: Dataset | None
    lambda_hat: float
    num_agents: int


@dataclass(frozen=True)
class AugmentedParams:
    """Round-local terms of one agent's primal subproblem."""

    dual: np.ndarray
    self_prev: np.ndarray
    neighbor_prev: list = field(default_factory=list)
    eta: float = 0.5
    noise_b1: np.ndarray | None = None


def _margins(theta: np.ndarray, data: Dataset) -> np.ndarray:
    d = data.features.shape[1]
    if theta.shape[0] != d:
        raise ValueError(f"theta has dimension {theta.shape[0]}, data has {d}")
    return data.labels * (data.features @ theta)


def mean_logistic_loss(theta: np.ndarray, data: Dataset) -> float:
    """mean_n L(y_n theta.x_n): the data term of f_i and the reported training loss."""
    return float(logistic_loss(_margins(theta, data)).sum() / data.n_samples)


def local_objective(theta: np.ndarray, p: LocalObjectiveParams) -> float:
    reg = (p.lambda_hat / p.num_agents) * 0.5 * float(theta @ theta)
    if p.dataset is None:
        return reg
    return mean_logistic_loss(theta, p.dataset) + reg


def local_gradient(theta: np.ndarray, p: LocalObjectiveParams) -> np.ndarray:
    reg = (p.lambda_hat / p.num_agents) * theta
    if p.dataset is None:
        return reg
    d = p.dataset
    w = logistic_loss_deriv(_margins(theta, d)) * d.labels
    return (d.features.T @ w) / d.n_samples + reg


def augmented_objective(theta: np.ndarray, p: LocalObjectiveParams, a: AugmentedParams) -> float:
    b1 = a.noise_b1 if a.noise_b1 is not None else 0.0
    value = local_objective(theta, p) + float((2.0 * a.dual + b1) @ theta)
    for theta_j in a.neighbor_prev:
        diff = 0.5 * (a.self_prev + theta_j) - theta
        value += a.eta * float(diff @ diff)
    return value


def augmented_gradient(theta: np.ndarray, p: LocalObjectiveParams, a: AugmentedParams) -> np.ndarray:
    b1 = a.noise_b1 if a.noise_b1 is not None else 0.0
    grad = local_gradient(theta, p) + 2.0 * a.dual + b1
    for theta_j in a.neighbor_prev:
        grad += 2.0 * a.eta * (theta - 0.5 * (a.self_prev + theta_j))
    return grad


def local_value_and_grad(theta: np.ndarray, p: LocalObjectiveParams):
    """(local_objective, local_gradient) from one margin pass and one exponential."""
    scale = p.lambda_hat / p.num_agents
    value, grad = scale * 0.5 * float(theta @ theta), scale * theta
    if p.dataset is None:
        return value, grad
    d = p.dataset
    z = _margins(theta, d)
    e = np.exp(-np.abs(z))
    w = _deriv(z, e) * d.labels
    return (float(_loss(z, e).sum() / d.n_samples) + value,
            (d.features.T @ w) / d.n_samples + grad)


def augmented_kernel(p: LocalObjectiveParams, a: AugmentedParams):
    """objective(theta) -> (augmented_objective, augmented_gradient), bit for bit.

    The round-local terms (2 dual, the b1 term and the neighbor midpoints
    0.5 (theta_self_prev + theta_j)) are computed once here, for every
    evaluation of one solve; the evaluation order is that of the loop form.
    """
    two_dual = 2.0 * a.dual
    b1 = a.noise_b1 if a.noise_b1 is not None else 0.0
    linear = two_dual + b1
    midpoints = [0.5 * (a.self_prev + theta_j) for theta_j in a.neighbor_prev]
    eta, two_eta = a.eta, 2.0 * a.eta

    def objective(theta: np.ndarray):
        value, grad = local_value_and_grad(theta, p)
        value += float(linear @ theta)
        grad = grad + two_dual + b1
        for midpoint in midpoints:
            diff = midpoint - theta
            value += eta * float(diff @ diff)
            grad -= two_eta * diff  # exactly + 2 eta (theta - midpoint)
        return value, grad

    return objective


def augmented_value_and_grad(theta: np.ndarray, p: LocalObjectiveParams, a: AugmentedParams):
    """(augmented_objective, augmented_gradient), bit for bit, at one margin pass."""
    return augmented_kernel(p, a)(theta)


def curvature_bounds(p: LocalObjectiveParams, eta: float, degree: int) -> tuple:
    """(mu, L): strong-convexity and smoothness constants of the augmented objective.

    mu = lambda_hat / N + 2 eta degree is exact (the regularizer and the
    neighbor penalties are isotropic quadratics).  L adds 0.25 times the
    largest squared row norm of the agent's own shard, which bounds the
    logistic Hessian X^T diag(s (1 - s)) X / n.  The dataset=None surrogate
    has no loss term, so there L = mu.
    """
    mu = p.lambda_hat / p.num_agents + 2.0 * eta * degree
    if p.dataset is None:
        return mu, mu
    x = p.dataset.features
    return mu, mu + 0.25 * float(np.max(np.einsum("ij,ij->i", x, x)))


def solver_step(p: LocalObjectiveParams, eta: float, degree: int) -> float:
    """One agent's gradient step 2 / (mu + L)."""
    mu, lipschitz = curvature_bounds(p, eta, degree)
    return 2.0 / (mu + lipschitz)


def clipped_quality(theta_prev: np.ndarray, theta_hat: np.ndarray, p: LocalObjectiveParams,
                    c_loss: float) -> float:
    """f_i(theta_prev) - f_i(theta_hat) with per-sample losses capped at c_loss.

    Capping bounds the score's sensitivity to any single sample swap by
    2 * c_loss.  The regularizer enters uncapped (it is data-independent).
    """
    if c_loss <= 0:
        raise ValueError("c_loss must be positive")

    def clipped_f(theta):
        reg = (p.lambda_hat / p.num_agents) * 0.5 * float(theta @ theta)
        losses = np.minimum(logistic_loss(_margins(theta, p.dataset)), c_loss)
        return float(losses.sum() / p.dataset.n_samples) + reg

    return clipped_f(theta_prev) - clipped_f(theta_hat)


def error_rate(theta_per_agent, test: Dataset) -> float:
    """Mean over agents of the fraction of test points with sign(theta_i . x) != y."""
    scores = test.features @ np.asarray(theta_per_agent).T  # (n_test, N)
    wrong = (scores >= 0) != (test.labels > 0)[:, None]
    return float(np.mean(wrong.mean(axis=0)))


def as_rows(objective):
    """objective(theta) -> (value, gradient) lifted to minimize's one-row form.

    The lifted objective maps a (1, d) stack to its (1, d) gradients.
    """

    def rows(thetas):
        return objective(thetas[0])[1][None]

    return rows


def serial_compose(costs) -> float:
    """Mechanisms on the same data compose additively."""
    return float(sum(costs))


def parallel_compose(costs) -> float:
    """Mechanisms on disjoint data partitions cost the maximum."""
    costs = list(costs)
    if not costs:
        raise BudgetError("parallel composition of an empty list")
    return float(max(costs))


def centralized_reference(pooled: Dataset, lambda_hat: float, cfg: SolverConfig):
    """Minimize mean pooled loss + lambda_hat * 0.5 ||theta||^2 directly.

    pooled is signed as the one shard of one agent.  With equal agent
    shares, the consensus problem's minimizer equals this one at lambda_hat =
    (total regularizer weight) / N.
    """
    signed = pooled.labels[:, None] * pooled.features
    data_terms = DataTerms([ShardBlock(np.zeros(1, dtype=int), signed[None])])
    cfg = replace(cfg, step=solver_steps(data_terms, lambda_hat, 0.0, [0]))
    zeros = np.zeros((1, pooled.features.shape[1]))
    objective = stacked_kernel(data_terms, lambda_hat, zeros, zeros,
                               np.zeros((1, 0), dtype=int), 0.0)
    try:
        return minimize(objective, zeros, cfg)[0]
    except NonConvergence as exc:
        raise EngineError(f"centralized reference did not converge: {exc}") from exc


def subset(data: Dataset, indices) -> Dataset:
    """The samples of data at indices, in that order."""
    indices = np.asarray(indices)
    return Dataset(data.features[indices], data.labels[indices])


def partition(data: Dataset, n_agents: int, seed: int) -> list[ShardBlock]:
    """Randomly split samples into n_agents near-equal disjoint shards, stacked by size.

    Disjointness across agents is what makes parallel composition of
    per-agent privacy costs valid.  The first n % n_agents agents take one
    sample more; each size is one ShardBlock, the larger first, and each
    shard keeps its samples in their order in `data`, each times its label
    (exact for labels of +-1, and commuting with normalize and column_scales).
    The order is padmm.data.shard_order's, which padmm.cli.prepare_data
    shares; the shards are gathered with one take into one buffer that every
    block views.
    """
    order, layout = shard_order(data.n_samples, n_agents, seed)
    x = data.features.take(order, axis=0)
    x *= data.labels.take(order)[:, None]
    return shard_blocks(x, layout)


def drawn_blobs(n: int, d: int, separation: float, seed: int) -> Dataset:
    """padmm.data.draw_blobs' samples in draw order, labeled +1/-1 (see blob_labels)."""
    x = np.empty((n, d))
    draw_blobs(x, separation, seed)
    return Dataset(x, blob_labels(n))


def blocks(parts: list[Dataset]) -> list[ShardBlock]:
    """The agents' shards grouped by size, each group signed (y x) and stacked, in agent order."""
    by_size = {}
    for i, part in enumerate(parts):
        by_size.setdefault(part.n_samples, []).append(i)
    return [ShardBlock(np.array(rows),
                       np.stack([parts[i].labels[:, None] * parts[i].features for i in rows]))
            for rows in by_size.values()]


def agent_shards(shard_blocks: list[ShardBlock]) -> list[Dataset]:
    """Each agent's signed shard (y x, +1) as a Dataset (features view the blocks), in agent order."""
    shards = {int(i): Dataset(block.features[j], np.ones(block.features.shape[1]))
              for block in shard_blocks for j, i in enumerate(block.rows)}
    return [shards[i] for i in sorted(shards)]


def column_scales(data: Dataset) -> np.ndarray:
    """Per-column max-abs values used by preprocess; all-zero columns give 1."""
    scales = np.abs(data.features).max(axis=0)
    return np.where(scales > 0, scales, 1.0)


def preprocess(raw: Dataset, scales: np.ndarray | None = None) -> Dataset:
    """Scale each attribute to max-abs 1 (or by `scales`), then cap each sample's L2 norm at 1."""
    if scales is None:
        scales = column_scales(raw)
    x = raw.features / scales
    x /= np.maximum(np.linalg.norm(x, axis=1), 1.0)[:, np.newaxis]
    return Dataset(x, raw.labels.copy())


def synthetic_blobs(n: int, d: int, separation: float, seed: int) -> Dataset:
    """Two Gaussian clusters labeled +1/-1, normalized via preprocess."""
    rng = np.random.default_rng(seed)
    n_pos = n // 2
    offset = np.full(d, separation / (2.0 * np.sqrt(d)))
    features = rng.normal(size=(n, d))
    features[:n_pos] += offset
    features[n_pos:] -= offset
    labels = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n - n_pos, dtype=int)])
    return preprocess(Dataset(features, labels))


def prepare_data(cfg) -> tuple[list[ShardBlock], Dataset]:
    """Split copies, training maxima, both splits preprocessed, train split partitioned."""
    if cfg.dataset_csv is not None:
        raw = load_csv(cfg.dataset_csv, cfg.label_column, cfg.positive_value)
    else:
        raw = synthetic_blobs(cfg.synthetic_n, cfg.synthetic_d, cfg.synthetic_separation,
                              cfg.split_seed)
    n = raw.n_samples
    n_test = max(1, int(round(n * cfg.test_fraction)))
    perm = np.random.default_rng(cfg.split_seed).permutation(n)
    raw_train = subset(raw, perm[n_test:])
    raw_test = subset(raw, perm[:n_test])
    scales = column_scales(raw_train)
    train = preprocess(raw_train, scales)
    return partition(train, cfg.n_agents, cfg.split_seed), preprocess(raw_test, scales)
