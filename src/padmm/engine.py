"""The three training loops over a synchronous-round simulated network.

Every round, each agent minimizes its (optionally perturbed) augmented
objective against a read-only snapshot of the values its neighbors shared
at the previous round, then duals are updated from the newly shared
values.  The private full-broadcast loop and the non-private loop share
one code path, so disabling the noise reproduces the non-private run
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import metrics, noise
from .accountant import BudgetPlan, ZcdpLedger
from .data import Dataset
from .model import (
    AugmentedParams,
    LocalObjectiveParams,
    augmented_kernel,
    clipped_quality,
    curvature_bounds,
    local_value_and_grad,
)
from .solver import NonConvergence, SolverConfig, minimize
from .svt import Decision, SvtGate
from .topology import Graph


class EngineError(RuntimeError):
    """A training loop failed; the message carries round/agent context."""


@dataclass
class IterationTrace:
    round: int
    average_loss: float
    consensus_residual: float
    error_rate_test: float | None
    broadcasts: dict
    cumulative_rho: dict
    thetas: np.ndarray  # (N, d) values as shared with neighbors this round


def dual_update(dual, theta_new, neighbor_thetas, eta: float):
    """lambda <- lambda + (eta/2) sum_j (theta_i - theta_j)."""
    updated = np.asarray(dual, dtype=float).copy()
    for theta_j in neighbor_thetas:
        updated += (eta / 2.0) * (theta_new - theta_j)
    return updated


def _solve_round(theta_prev, dual, neighbor_vals, params, eta, b1, cfg, t, i):
    aug = AugmentedParams(
        dual=dual, self_prev=theta_prev, neighbor_prev=neighbor_vals, eta=eta, noise_b1=b1
    )
    try:
        return minimize(augmented_kernel(params, aug), theta_prev, cfg)
    except NonConvergence as exc:
        raise EngineError(f"round {t}, agent {i}: solver did not converge: {exc}") from exc


def bounded_step_config(cfg: SolverConfig, params, eta: float, degree: int) -> SolverConfig:
    """cfg with the gradient step 2 / (mu + L) of this agent's subproblem.

    For a mu-strongly convex, L-smooth objective that step contracts the
    distance to the minimizer by (L - mu) / (L + mu) per iteration, so the
    solver rarely needs its backtracking guard.
    """
    mu, lipschitz = curvature_bounds(params, eta, degree)
    return replace(cfg, initial_step=2.0 / (mu + lipschitz))


def _agents(data, g: Graph, lambda_hat: float, eta: float, cfg: SolverConfig):
    """Per-agent objective parameters, sorted neighbor lists and solver configs."""
    params = [LocalObjectiveParams(data[i], lambda_hat, g.n) for i in range(g.n)]
    nbrs = [sorted(g.neighbors(i)) for i in range(g.n)]
    cfgs = [bounded_step_config(cfg, params[i], eta, len(nbrs[i])) for i in range(g.n)]
    return params, nbrs, cfgs


def _check_inputs(data, g: Graph):
    if len(data) != g.n:
        raise EngineError(f"{len(data)} agent datasets but graph has {g.n} nodes")
    dims = {d.dimension for d in data}
    if len(dims) != 1:
        raise EngineError(f"inconsistent feature dimensions across agents: {sorted(dims)}")
    return dims.pop()


def _trace(t, thetas, data, test, broadcasts, ledger):
    return IterationTrace(
        round=t,
        average_loss=metrics.average_loss(thetas, data),
        consensus_residual=metrics.consensus_residual(thetas),
        error_rate_test=metrics.error_rate(thetas, test) if test is not None else None,
        broadcasts=dict(broadcasts),
        cumulative_rho=dict(ledger.per_agent) if ledger is not None else {},
        thetas=np.array(thetas),
    )


def _run_full_broadcast(data, g, eta, lambda_hat, T, cfg, draw_b1, draw_b2, charge, test):
    """Common loop for the non-private and full-broadcast private algorithms."""
    d = _check_inputs(data, g)
    n = g.n
    thetas = [np.zeros(d) for _ in range(n)]
    duals = [np.zeros(d) for _ in range(n)]
    params, nbrs, cfgs = _agents(data, g, lambda_hat, eta, cfg)

    traces = []
    for t in range(T):
        snapshot = [theta.copy() for theta in thetas]
        new_thetas = []
        for i in range(n):
            b1 = draw_b1(i)
            theta_hat = _solve_round(
                snapshot[i], duals[i], [snapshot[j] for j in nbrs[i]],
                params[i], eta, b1, cfgs[i], t, i,
            )
            new_thetas.append(theta_hat + draw_b2(i))
            charge(i)
        thetas = new_thetas
        duals = [
            dual_update(duals[i], thetas[i], [thetas[j] for j in nbrs[i]], eta)
            for i in range(n)
        ]
        traces.append(_trace(t, thetas, data, test, {i: True for i in range(n)}, charge.ledger))
    return traces, thetas


class _NullCharge:
    ledger = None

    def __call__(self, agent):
        pass


class _PlanCharge:
    def __init__(self, ledger, plan):
        self.ledger = ledger
        self.plan = plan

    def __call__(self, agent):
        self.ledger.charge_pp_iteration(agent, self.plan)


def run_nonprivate(data, g: Graph, eta: float, lambda_hat: float, T: int,
                   cfg: SolverConfig, test: Dataset | None = None):
    """Noise-free consensus ADMM; returns the per-round trace."""
    d = _check_inputs(data, g)
    zero = np.zeros(d)
    traces, _ = _run_full_broadcast(
        data, g, eta, lambda_hat, T, cfg,
        draw_b1=lambda i: zero, draw_b2=lambda i: zero,
        charge=_NullCharge(), test=test,
    )
    return traces


def run_pp_admm(data, g: Graph, plan: BudgetPlan, eta: float, T: int,
                cfg: SolverConfig, seed: int, lambda_hat: float | None = None,
                test: Dataset | None = None, noise_disabled: bool = False):
    """Private full-broadcast ADMM: perturbed objective plus perturbed output.

    Every agent pays rho_i1 + rho_i2 per round; after T rounds the ledger
    equals the planned budget exactly.
    """
    d = _check_inputs(data, g)
    if lambda_hat is None:
        lambda_hat = plan.lambda_hat_floor
    if lambda_hat < plan.lambda_hat_floor * (1 - 1e-12):
        raise EngineError(
            f"lambda_hat {lambda_hat} below the planned floor {plan.lambda_hat_floor}"
        )
    if set(plan.sigma_i1) != set(range(g.n)):
        raise EngineError("budget plan does not cover this graph's agents")

    ledger = ZcdpLedger(delta_target=plan.delta_total)
    b1_rngs = [
        noise.RngHandle.for_agent(seed, i, noise.OBJECTIVE_NOISE, disabled=noise_disabled)
        for i in range(g.n)
    ]
    b2_rngs = [
        noise.RngHandle.for_agent(seed, i, noise.OUTPUT_NOISE, disabled=noise_disabled)
        for i in range(g.n)
    ]
    traces, _ = _run_full_broadcast(
        data, g, eta, lambda_hat, T, cfg,
        draw_b1=lambda i: noise.gaussian_vector(plan.sigma_i1[i], d, b1_rngs[i]),
        draw_b2=lambda i: noise.gaussian_vector(plan.sigma_i2[i], d, b2_rngs[i]),
        charge=_PlanCharge(ledger, plan), test=test,
    )
    return traces, ledger


def run_ipp_admm(data, g: Graph, plan: BudgetPlan, eta: float, T: int,
                 alpha: float, c_max: int, c_loss: float, cfg: SolverConfig,
                 seed: int, lambda_hat: float | None = None,
                 test: Dataset | None = None, noise_disabled: bool = False):
    """Gated private ADMM: broadcast only when the SVT gate fires.

    A rejected solution is discarded (the agent keeps its previous value),
    so an agent's state always equals its last shared value and neighbors
    implicitly reuse stale values.  Ledger: the gate's cost once per agent,
    plus rho_i1 + rho_i2 per actual broadcast, capped by the c_max counter.
    """
    d = _check_inputs(data, g)
    if plan.c_broadcasts != c_max or plan.svt_eps is None:
        raise EngineError("budget plan was not made for gated mode with this c_max")
    if lambda_hat is None:
        lambda_hat = plan.lambda_hat_floor
    if lambda_hat < plan.lambda_hat_floor * (1 - 1e-12):
        raise EngineError(
            f"lambda_hat {lambda_hat} below the planned floor {plan.lambda_hat_floor}"
        )

    n = g.n
    eps1, eps2 = plan.svt_eps
    ledger = ZcdpLedger(delta_target=plan.delta_total)
    b1_rngs = [noise.RngHandle.for_agent(seed, i, noise.OBJECTIVE_NOISE, disabled=noise_disabled)
               for i in range(n)]
    b2_rngs = [noise.RngHandle.for_agent(seed, i, noise.OUTPUT_NOISE, disabled=noise_disabled)
               for i in range(n)]
    query_rngs = [noise.RngHandle.for_agent(seed, i, noise.SVT_QUERY, disabled=noise_disabled)
                  for i in range(n)]
    gates = []
    for i in range(n):
        threshold_rng = noise.RngHandle.for_agent(
            seed, i, noise.SVT_THRESHOLD, disabled=noise_disabled
        )
        gates.append(SvtGate(alpha, c_max, eps1, eps2, c_loss, threshold_rng))
        ledger.charge_ipp(i, plan, "svt_open")

    thetas = [np.zeros(d) for _ in range(n)]
    duals = [np.zeros(d) for _ in range(n)]
    params, nbrs, cfgs = _agents(data, g, lambda_hat, eta, cfg)

    traces = []
    for t in range(T):
        snapshot = [theta.copy() for theta in thetas]
        new_thetas = []
        broadcasts = {}
        for i in range(n):
            b1 = noise.gaussian_vector(plan.sigma_i1[i], d, b1_rngs[i])
            theta_hat = _solve_round(
                snapshot[i], duals[i], [snapshot[j] for j in nbrs[i]],
                params[i], eta, b1, cfgs[i], t, i,
            )
            quality = clipped_quality(snapshot[i], theta_hat, params[i], c_loss)
            decision = gates[i].check(quality, query_rngs[i])
            if decision is Decision.ABOVE:
                b2 = noise.gaussian_vector(plan.sigma_i2[i], d, b2_rngs[i])
                new_thetas.append(theta_hat + b2)
                broadcasts[i] = True
                ledger.charge_ipp(i, plan, "broadcast")
            else:
                new_thetas.append(snapshot[i])
                broadcasts[i] = False
        thetas = new_thetas
        duals = [
            dual_update(duals[i], thetas[i], [thetas[j] for j in nbrs[i]], eta)
            for i in range(n)
        ]
        traces.append(_trace(t, thetas, data, test, broadcasts, ledger))
    return traces, ledger


def centralized_reference(pooled: Dataset, lambda_hat: float, cfg: SolverConfig):
    """Minimize mean pooled loss + lambda_hat * 0.5 ||theta||^2 directly.

    Test oracle for the decentralized loops: with equal agent shares, the
    consensus problem's minimizer equals this one at lambda_hat = (total
    regularizer weight) / N.
    """
    params = LocalObjectiveParams(pooled, lambda_hat, 1)
    cfg = bounded_step_config(cfg, params, eta=0.0, degree=0)

    def objective(theta):
        return local_value_and_grad(theta, params)

    try:
        return minimize(objective, np.zeros(pooled.dimension), cfg)
    except NonConvergence as exc:
        raise EngineError(f"centralized reference did not converge: {exc}") from exc
