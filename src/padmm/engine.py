"""One training loop over a synchronous-round simulated network.

Every round, each agent minimizes its (optionally perturbed) augmented
objective against a read-only snapshot of the values its neighbors shared
at the previous round, then releases the value it shares this round, and
duals are updated from the newly shared values.  The three algorithms
differ only in the objective noise and the release step: non-private ADMM
shares the solution, PP-ADMM adds output noise to it, and IPP-ADMM does so
only when its sparse-vector gate fires, keeping the previous value
otherwise.  With the noise disabled the private runs reproduce the
non-private run bit for bit.

The agents' solves within a round are independent, so the loop runs them
as one row-wise solve (model.stacked_kernel) over the shards as
data.partition stacks them by size, read in place, and updates every dual
in one call.  Each agent's iterates, noise draws, gate decisions and
charges are those of solving and releasing one agent at a time.

The shards hold y x, and one model.DataTerms per run is their one reader:
the solver's objective, the reported training loss and the gate's quality
scores all go through it.  It remembers the last point it evaluated and
that point's per-sample losses once formed.  A round's training loss is
taken at the shared values, which are the next round's warm start, so the
solve's first evaluation, and the gate's capped mean losses at the warm
start (read before the solve), reuse that pass.  The gate's scores at the
solution read the solve's last evaluated point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import metrics, noise
from .accountant import BudgetError, BudgetPlan, ZcdpLedger, check_lambda_hat
from .data import Dataset
from .model import DataTerms, clipped_quality, solver_steps, stacked_kernel
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
    """lambda <- lambda + (eta/2) sum_j (theta_i - theta_j).

    Works row-wise on stacked agents too: a neighbor slot filled with the
    agent's own value adds (eta/2) * 0.0, which changes no bit.
    """
    updated = np.asarray(dual, dtype=float).copy()
    for theta_j in neighbor_thetas:
        updated += (eta / 2.0) * (theta_new - theta_j)
    return updated


@dataclass(frozen=True)
class _Agents:
    """What the loop needs of the agents, built once per run."""

    dimension: int
    lambda_hat: float
    eta: float
    data_terms: DataTerms  # the shards stacked by size, with this run's one-point memo
    slots: np.ndarray  # (N, max degree) sorted neighbors, padded with the agent itself
    cfg: SolverConfig  # step: each agent's 2 / (mu + L)


def _agents(blocks, g: Graph, lambda_hat: float, eta: float, cfg: SolverConfig) -> _Agents:
    d = _check_inputs(blocks, g)
    nbrs = [sorted(g.neighbors(i)) for i in range(g.n)]
    slots = np.tile(np.arange(g.n)[:, None], max(map(len, nbrs), default=0))
    for i, js in enumerate(nbrs):
        slots[i, :len(js)] = js
    data_terms = DataTerms(blocks)
    steps = solver_steps(data_terms, lambda_hat, eta, [len(js) for js in nbrs])
    return _Agents(d, lambda_hat, eta, data_terms, slots, replace(cfg, step=steps))


def _check_inputs(blocks, g: Graph):
    rows = sorted(i for block in blocks for i in block.rows.tolist())
    if rows != list(range(g.n)):
        raise EngineError(f"{len(rows)} agent datasets but graph has {g.n} nodes")
    dims = {block.features.shape[2] for block in blocks}
    if len(dims) != 1:
        raise EngineError(f"inconsistent feature dimensions across agents: {sorted(dims)}")
    return dims.pop()


def _train(agents: _Agents, T, test, ledger, draw_b1, release, c_loss=None):
    """The ADMM loop shared by all three algorithms; returns the per-round trace.

    Every agent i draws its objective noise with draw_b1(i) (draw_b1 is None
    for none) before the round's solve.  release(i, theta_hat, quality)
    then returns, agent by agent, the value agent i shares this round, or
    None to discard theta_hat and keep its previous value; it charges
    `ledger` for what it releases.  quality is agent i's clipped quality
    score at loss cap c_loss, or None when c_loss is None.
    """
    n, d = len(agents.slots), agents.dimension
    lambda_hat, eta = agents.lambda_hat, agents.eta
    data_terms = agents.data_terms
    thetas = np.zeros((n, d))
    duals = np.zeros((n, d))
    traces = []
    for t in range(T):
        snapshot = thetas
        b1 = None if draw_b1 is None else np.array([draw_b1(i) for i in range(n)])
        objective = stacked_kernel(data_terms, lambda_hat, duals, snapshot, agents.slots, eta, b1)
        if c_loss is not None:
            capped_prev = data_terms.mean_losses(snapshot, c_loss)
        try:
            theta_hat = minimize(objective, snapshot, agents.cfg)
        except NonConvergence as exc:
            raise EngineError(
                f"round {t}, agent {exc.row}: solver did not converge: {exc}") from exc
        quality = [None] * n if c_loss is None else clipped_quality(
            data_terms, capped_prev, snapshot, theta_hat, lambda_hat, c_loss)
        shared = [release(i, theta_hat[i], quality[i]) for i in range(n)]
        thetas = np.array([snapshot[i] if s is None else s for i, s in enumerate(shared)])
        duals = dual_update(duals, thetas, thetas[agents.slots.T], eta)
        traces.append(IterationTrace(
            round=t,
            average_loss=metrics.average_loss(thetas, data_terms),
            consensus_residual=metrics.consensus_residual(thetas),
            error_rate_test=metrics.error_rate(thetas, test) if test is not None else None,
            broadcasts={i: s is not None for i, s in enumerate(shared)},
            cumulative_rho=dict(ledger.per_agent) if ledger is not None else {},
            thetas=thetas,
        ))
    return traces


def _private_setup(blocks, g, plan, lambda_hat, eta, cfg, seed, noise_disabled):
    """Checks and state shared by the private loops.

    Returns the agents at the effective lambda_hat, an empty ledger,
    draw_b1(i) (agent i's objective noise), perturb(i, theta_hat) (theta_hat
    plus agent i's output noise) and, when the plan is gated, the SVT
    threshold and query RngHandle lists.
    """
    if set(plan.sigma_i1) != set(range(g.n)):
        raise EngineError("budget plan does not cover this graph's agents")
    if lambda_hat is None:
        lambda_hat = plan.lambda_hat_floor
    try:
        check_lambda_hat(plan, lambda_hat)
    except BudgetError as exc:
        raise EngineError(str(exc)) from None
    b1_rngs, b2_rngs, *rngs = [
        [noise.RngHandle.for_agent(seed, i, purpose, disabled=noise_disabled)
         for i in range(g.n)]
        for purpose in (noise.OBJECTIVE_NOISE, noise.OUTPUT_NOISE,
                        *((noise.SVT_THRESHOLD, noise.SVT_QUERY)
                          if plan.c_broadcasts is not None else ()))]
    agents = _agents(blocks, g, lambda_hat, eta, cfg)
    d = agents.dimension

    def draw_b1(i):
        return noise.gaussian_vector(plan.sigma_i1[i], d, b1_rngs[i])

    def perturb(i, theta_hat):
        return theta_hat + noise.gaussian_vector(plan.sigma_i2[i], d, b2_rngs[i])

    return agents, ZcdpLedger(delta_target=plan.delta_total), draw_b1, perturb, rngs


def run_nonprivate(blocks, g: Graph, eta: float, lambda_hat: float, T: int,
                   cfg: SolverConfig, test: Dataset | None = None):
    """Noise-free consensus ADMM; returns the per-round trace."""
    return _train(_agents(blocks, g, lambda_hat, eta, cfg), T, test, None,
                  draw_b1=None, release=lambda i, theta_hat, quality: theta_hat)


def run_pp_admm(blocks, g: Graph, plan: BudgetPlan, eta: float,
                cfg: SolverConfig, seed: int, lambda_hat: float | None = None,
                test: Dataset | None = None, noise_disabled: bool = False):
    """Private full-broadcast ADMM: perturbed objective plus perturbed output.

    Runs the plan's T rounds.  Every agent pays rho_i1 + rho_i2 per round,
    so the ledger ends at the planned budget exactly.
    """
    if plan.c_broadcasts is not None:
        raise EngineError("budget plan was made for gated mode; full broadcast needs its own plan")
    agents, ledger, draw_b1, perturb, _ = _private_setup(
        blocks, g, plan, lambda_hat, eta, cfg, seed, noise_disabled)

    def release(i, theta_hat, quality):
        shared = perturb(i, theta_hat)
        ledger.charge_pp_iteration(i, plan.per_release_rho)
        return shared

    return _train(agents, plan.T, test, ledger, draw_b1, release), ledger


def run_ipp_admm(blocks, g: Graph, plan: BudgetPlan, eta: float,
                 alpha: float, c_loss: float, cfg: SolverConfig,
                 seed: int, lambda_hat: float | None = None,
                 test: Dataset | None = None, noise_disabled: bool = False):
    """Gated private ADMM: broadcast only when the SVT gate fires.

    Runs the plan's T rounds.  A rejected solution is discarded (the agent
    keeps its previous value), so an agent's state always equals its last
    shared value and neighbors implicitly reuse stale values.  Ledger: the
    gate's cost once per agent, plus rho_i1 + rho_i2 per actual broadcast,
    capped at the plan's c_broadcasts.
    """
    if plan.c_broadcasts is None:
        raise EngineError("budget plan was made for full broadcast; gated mode needs its own plan")
    agents, ledger, draw_b1, perturb, (threshold_rngs, query_rngs) = _private_setup(
        blocks, g, plan, lambda_hat, eta, cfg, seed, noise_disabled)
    eps1, eps2 = plan.svt_eps
    gates = []
    for i in range(g.n):
        gates.append(SvtGate(alpha, plan.c_broadcasts, eps1, eps2, c_loss, threshold_rngs[i]))
        ledger.charge_ipp(i, plan.rho_svt)

    def release(i, theta_hat, quality):
        if gates[i].check(quality, query_rngs[i]) is not Decision.ABOVE:
            return None
        shared = perturb(i, theta_hat)
        ledger.charge_ipp(i, plan.per_release_rho)
        return shared

    return _train(agents, plan.T, test, ledger, draw_b1, release, c_loss), ledger
