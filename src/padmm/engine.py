"""One training loop over a synchronous-round simulated network.

Every round, each agent minimizes its (optionally perturbed) augmented
objective against a read-only snapshot of the values its neighbors shared
at the previous round.  One release step then returns the round's mask of
the agents that share, with their values; the others keep their previous
values, and duals are updated from the newly shared values.  The three
algorithms differ only in the objective noise and the release step:
non-private ADMM shares every solution, PP-ADMM every solution plus output
noise, and IPP-ADMM only the noised solutions its sparse-vector gates let
through.  With the noise disabled the private runs reproduce the
non-private run bit for bit.  The private two share one release step,
which charges each agent it releases in an (N,) ledger.  Each run is
recorded as one Run of per-round arrays.

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


@dataclass(frozen=True)
class Run:
    """One run, recorded as arrays with one row per round."""

    thetas: np.ndarray  # (T, N, d) values as shared with neighbors after each round
    average_loss: np.ndarray  # (T,) training loss at the shared values
    consensus_residual: np.ndarray  # (T,)
    error_rate: np.ndarray | None  # (T,) test error at the shared values; None without a test set
    broadcasts: np.ndarray  # (T, N) bool: the release mask, the agents that shared
    spent: np.ndarray | None  # (T, N) each agent's cumulative rho; None for nonprivate


def dual_update(dual, theta_new, neighbor_thetas, eta: float):
    """lambda <- lambda + (eta/2) sum_j (theta_i - theta_j).

    Works row-wise on stacked agents too: a neighbor slot filled with the
    agent's own value adds (eta/2) * 0.0, which changes no bit.
    """
    updated = np.asarray(dual, dtype=float).copy()
    for theta_j in neighbor_thetas:
        updated += (eta / 2.0) * (theta_new - theta_j)
    return updated


def _check_inputs(blocks, g: Graph):
    rows = sorted(i for block in blocks for i in block.rows.tolist())
    if rows != list(range(g.n)):
        # each graph node needs one dataset and any other agent none: name the first at fault
        agent = next(i for i in [*range(g.n), *rows] if rows.count(i) != int(0 <= i < g.n))
        raise EngineError(f"agent {agent} has {rows.count(agent)} datasets, but the graph's "
                          f"{g.n} nodes 0..{g.n - 1} need one each")
    dims = {block.features.shape[2] for block in blocks}
    if len(dims) != 1:
        raise EngineError(f"inconsistent feature dimensions across agents: {sorted(dims)}")
    return dims.pop()


def _train(blocks, g: Graph, lambda_hat, eta, cfg: SolverConfig, T, test, spent, draw_b1,
           release, c_loss=None) -> Run:
    """The ADMM loop shared by all three algorithms; returns the run's Run.

    Each round, draw_b1() returns the (N, d) objective noise before the
    solve (draw_b1 is None for none).  release(theta_hat, quality) then
    returns the (N,) bool mask of the agents that share this round and an
    (N, d) array whose masked rows hold what they share.  spent is the
    (N,) array of each agent's rho that release charges (None for none);
    each round's row of Run.spent is a copy of it.  quality holds the
    agents' clipped quality scores at loss cap c_loss, or is None when
    c_loss is None.
    """
    d = _check_inputs(blocks, g)
    slots = np.tile(np.arange(g.n)[:, None], max(map(len, g.neighbors), default=0))
    for i, js in enumerate(g.neighbors):
        slots[i, :len(js)] = js  # padded with the agent itself
    data_terms = DataTerms(blocks)
    cfg = replace(cfg, step=solver_steps(data_terms, lambda_hat, eta,
                                         [len(js) for js in g.neighbors]))
    run = Run(np.empty((T, g.n, d)), np.empty(T), np.empty(T),
              None if test is None else np.empty(T), np.empty((T, g.n), dtype=bool),
              None if spent is None else np.empty((T, g.n)))
    thetas = np.zeros((g.n, d))
    duals = np.zeros((g.n, d))
    for t in range(T):
        snapshot = thetas
        b1 = None if draw_b1 is None else draw_b1()
        objective = stacked_kernel(data_terms, lambda_hat, duals, snapshot, slots, eta, b1)
        if c_loss is not None:
            capped_prev = data_terms.mean_losses(snapshot, c_loss)
        try:
            theta_hat = minimize(objective, snapshot, cfg)
        except NonConvergence as exc:
            raise EngineError(
                f"round {t}, agent {exc.row}: solver did not converge: {exc}") from exc
        quality = None if c_loss is None else clipped_quality(
            data_terms, capped_prev, snapshot, theta_hat, lambda_hat, c_loss)
        mask, shared = release(theta_hat, quality)
        thetas = np.where(mask[:, None], shared, snapshot)
        duals = dual_update(duals, thetas, thetas[slots.T], eta)
        run.thetas[t], run.broadcasts[t] = thetas, mask
        run.average_loss[t] = metrics.average_loss(thetas, data_terms)
        run.consensus_residual[t] = metrics.consensus_residual(thetas)
        if test is not None:
            run.error_rate[t] = metrics.error_rate(thetas, test)
        if spent is not None:
            run.spent[t] = spent
    return run


def _run_private(blocks, g: Graph, plan: BudgetPlan, eta: float, cfg: SolverConfig, seed: int,
                 lambda_hat, test, noise_disabled: bool, gate=None) -> Run:
    """The private loop of PP-ADMM (gate None) and IPP-ADMM (gate (alpha, c_loss)).

    Checks the plan once, then runs its T rounds: objective noise b1 before
    each solve, then one release step on the round's mask, which is every
    agent or, gated, those whose SVT gates answer ABOVE in agent order.  The
    step adds each masked agent's output noise b2 and charges it
    rho_i1 + rho_i2, in agent order; a gated run first charges each agent
    rho_svt as its gate opens.
    """
    if (gate is None) != (plan.c_broadcasts is None):
        made_for = "gated mode" if gate is None else "full broadcast"
        raise EngineError(f"budget plan was made for {made_for}; gated and full-broadcast "
                          "runs each need their own plan")
    if set(plan.sigma_i1) != set(range(g.n)):
        raise EngineError("budget plan does not cover this graph's agents")
    if lambda_hat is None:
        lambda_hat = plan.lambda_hat_floor
    try:
        check_lambda_hat(plan, lambda_hat)
    except BudgetError as exc:
        raise EngineError(str(exc)) from None

    def streams(purpose):
        return [noise.RngHandle.for_agent(seed, i, purpose, disabled=noise_disabled)
                for i in range(g.n)]

    b1_rngs, b2_rngs = streams(noise.OBJECTIVE_NOISE), streams(noise.OUTPUT_NOISE)
    ledger = ZcdpLedger(g.n)
    everyone = np.ones(g.n, dtype=bool)
    if gate is not None:
        alpha, c_loss = gate
        gates, query_rngs = [], streams(noise.SVT_QUERY)
        for i, rng in enumerate(streams(noise.SVT_THRESHOLD)):
            gates.append(SvtGate(alpha, plan.c_broadcasts, *plan.svt_eps, c_loss, rng))
            ledger.charge_ipp(i, plan.rho_svt)

    def draw_b1():
        d = blocks[0].features.shape[2]  # _train has checked every block against the graph
        return np.array([noise.gaussian_vector(plan.sigma_i1[i], d, rng)
                         for i, rng in enumerate(b1_rngs)])

    def release(theta_hat, quality):
        mask = everyone if gate is None else np.array(
            [svt_gate.check(q, rng) is Decision.ABOVE
             for svt_gate, q, rng in zip(gates, quality, query_rngs)], dtype=bool)
        shared = theta_hat.copy()
        for i in np.flatnonzero(mask).tolist():
            shared[i] += noise.gaussian_vector(plan.sigma_i2[i], shared.shape[1], b2_rngs[i])
            ledger.charge_pp_iteration(i, plan.per_release_rho)
        return mask, shared

    return _train(blocks, g, lambda_hat, eta, cfg, plan.T, test, ledger.per_agent, draw_b1,
                  release, None if gate is None else gate[1])


def run_nonprivate(blocks, g: Graph, eta: float, lambda_hat: float, T: int,
                   cfg: SolverConfig, test: Dataset | None = None) -> Run:
    """Noise-free consensus ADMM; every round's mask is all agents.  Returns the Run."""
    everyone = np.ones(g.n, dtype=bool)
    return _train(blocks, g, lambda_hat, eta, cfg, T, test, None, draw_b1=None,
                  release=lambda theta_hat, quality: (everyone, theta_hat))


def run_pp_admm(blocks, g: Graph, plan: BudgetPlan, eta: float,
                cfg: SolverConfig, seed: int, lambda_hat: float | None = None,
                test: Dataset | None = None, noise_disabled: bool = False) -> Run:
    """Private full-broadcast ADMM: perturbed objective plus perturbed output.

    Runs the plan's T rounds and returns their Run; every round's mask is
    all agents.  Every agent pays rho_i1 + rho_i2 per round, so its spend
    ends at the planned budget exactly.
    """
    return _run_private(blocks, g, plan, eta, cfg, seed, lambda_hat, test, noise_disabled)


def run_ipp_admm(blocks, g: Graph, plan: BudgetPlan, eta: float,
                 alpha: float, c_loss: float, cfg: SolverConfig,
                 seed: int, lambda_hat: float | None = None,
                 test: Dataset | None = None, noise_disabled: bool = False) -> Run:
    """Gated private ADMM: an agent shares only when its SVT gate fires.

    Runs the plan's T rounds and returns their Run.  A rejected solution is
    discarded (the agent keeps its previous value), so an agent's state
    always equals its last shared value and neighbors implicitly reuse
    stale values.  Spend: the gate's cost once per agent, plus
    rho_i1 + rho_i2 per actual broadcast, capped at the plan's c_broadcasts.
    """
    return _run_private(blocks, g, plan, eta, cfg, seed, lambda_hat, test, noise_disabled,
                        gate=(alpha, c_loss))
