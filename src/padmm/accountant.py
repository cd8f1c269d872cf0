"""zCDP accounting: mechanism costs, composition, DP conversions, budgeting.

All costs are plain nonnegative floats (rho values).  The planner turns a
run-level (epsilon, delta) target into every noise scale and the
regularizer floor the training loops need:

  rho_total = epsilon^2 / (4 ln(1/delta))
  per-release budget = rho_total / T                        (full-broadcast mode)
                     = (rho_total - rho_svt) / c            (gated mode, after the
                                                             one-time SVT charge
                                                             rho_svt = (e1+e2)^2/2)
  e1 + e2 = sqrt(2 f rho_total),  e1 : e2 = 1 : (2c)^(2/3)  (the SVT split, with f the gate's
                                                             share svt_budget_fraction, so
                                                             rho_svt = f rho_total)
  rho_i2 = splits * budget,  rho_i1 = (1 - splits) * budget
  eps_i1 = rho_i1 + 2 sqrt(rho_i1 ln(1/delta_i1)),  eps_i3 = 0.99 eps_i1,  delta_i1 = delta
  lambda_hat >= max_i 2.8 N c1 / ((eps_i1 - eps_i3) |D_i|),  c1 = C1
  sigma_i1 = 2 sqrt(2 ln(1.25/delta_i1)) / (|D_i| eps_i3)
  sigma_i2 = beta / (sqrt(2 rho_i2) (lambda_hat/N + 2 eta deg_i))

The ledger (ZcdpLedger) is one (N,) array of per-agent sums.  A run's one
release step charges rho_i1 + rho_i2 to each agent it releases, and an ipp
agent also pays rho_svt once, when its gate is opened.  One agent's charges
add up (serial composition).  privacy_report turns the final array into the
report's privacy block, where the network-wide cost is the largest agent's
(parallel composition over the agents' disjoint data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import strong_convexity

# c1 in the regularizer floor: the bound 1/4 on the logistic loss's second derivative.
C1 = 0.25


class BudgetError(ValueError):
    """Raised when a privacy budget request cannot be satisfied."""


def gaussian_zcdp(delta2_sensitivity: float, sigma: float) -> float:
    """zCDP cost of the Gaussian mechanism: sensitivity^2 / (2 sigma^2)."""
    if sigma <= 0:
        raise BudgetError("sigma must be positive")
    return delta2_sensitivity**2 / (2.0 * sigma**2)


def dp_to_zcdp(epsilon: float, delta: float) -> float:
    """The rho that stands for (epsilon, delta)-DP: the planner's target or a gate's price.

    For delta > 0, epsilon^2 / (4 ln(1/delta)), the inverse of
    zcdp_sufficient_epsilon.  This rho is a target, not a sufficient
    budget: Bun & Steinke certify only (epsilon + rho, delta)-DP for it
    (zcdp_to_dp).  At delta = 1e-4, Canonne, Kamath & Steinke's conversion
    does not certify epsilon = 5, and no conversion from rho alone can
    certify epsilon = 20 (tests/test_accountant.py pins both).  For delta = 0,
    epsilon^2 / 2, the zCDP of any epsilon-DP mechanism (Bun & Steinke,
    Prop. 1.4), which prices the SVT gate.
    """
    if not 0 < epsilon < math.inf:
        raise BudgetError(f"epsilon must be finite and > 0, got {epsilon!r}")
    if not 0 <= delta < 1:
        raise BudgetError(f"delta must be in [0, 1), got {delta!r}")
    try:
        squared = float(epsilon) ** 2
    except OverflowError:
        raise BudgetError(f"epsilon {epsilon!r} is too large: epsilon^2 overflows") from None
    if delta == 0:
        return 0.5 * squared
    return squared / (4.0 * math.log(1.0 / delta))


def zcdp_to_dp(rho: float, delta: float) -> float:
    """DP epsilon guaranteed by rho-zCDP: rho + 2 sqrt(rho ln(1/delta)) (Bun & Steinke)."""
    return rho + zcdp_sufficient_epsilon(rho, delta)


def zcdp_sufficient_epsilon(rho: float, delta: float) -> float:
    """2 sqrt(rho ln(1/delta)), the inverse of dp_to_zcdp for delta > 0.

    Run reports list it as epsilon_sufficient, so a planned budget converts
    back to the configured epsilon exactly.  It is not a certified epsilon
    (see dp_to_zcdp); zcdp_to_dp's is.
    """
    if rho < 0 or not 0 < delta < 1:
        raise BudgetError("need rho >= 0 and delta in (0, 1)")
    return 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def svt_split_ratio(c_max: int, eps_total: float) -> tuple[float, float]:
    """Split a gate budget as eps1 : eps2 = 1 : (2 c)^(2/3)."""
    if c_max < 1 or eps_total <= 0:
        raise ValueError("need c_max >= 1 and eps_total > 0")
    ratio = (2.0 * c_max) ** (2.0 / 3.0)
    eps1 = eps_total / (1.0 + ratio)
    return eps1, eps_total - eps1


@dataclass(frozen=True)
class BudgetPlan:
    """Derived privacy parameters for one run."""

    epsilon_total: float
    delta_total: float
    T: int
    splits: float
    rho_total: float
    rho_i1: float
    rho_i2: float
    epsilon_i1: float
    epsilon_i3: float
    delta_i1: float
    sigma_i1: dict
    sigma_i2: dict
    lambda_hat_floor: float
    c_broadcasts: int | None = None
    svt_eps: tuple | None = None  # (eps1, eps2) when gated

    @property
    def rho_svt(self) -> float:
        if self.svt_eps is None:
            return 0.0
        eps1, eps2 = self.svt_eps
        return dp_to_zcdp(eps1 + eps2, 0.0)

    @property
    def per_release_rho(self) -> float:
        return self.rho_i1 + self.rho_i2


def plan_budget(
    epsilon: float,
    delta: float,
    T: int,
    splits: float,
    dataset_sizes: dict,
    eta: float,
    degrees: dict,
    beta: float,
    c_broadcasts: int | None = None,
    svt_budget_fraction: float | None = None,
) -> BudgetPlan:
    """Derive all noise scales and the regularizer floor from an (eps, delta) target.

    dataset_sizes and degrees are keyed by agent.  With c_broadcasts None,
    the whole budget is spread over T releases.  With c_broadcasts set (gated
    mode), the SVT gate gets the share svt_budget_fraction of the budget,
    split into its (eps1, eps2) pair; its one-time cost is subtracted first
    and the remainder is spread over c_broadcasts releases.
    """
    if not 0 < splits < 1:
        raise BudgetError("splits must be in (0, 1)")
    if delta == 0:
        raise BudgetError(f"delta must be in (0, 1) for the Gaussian mechanisms, got {delta!r}")
    if T < 1:
        raise BudgetError("T must be >= 1")
    if set(dataset_sizes) != set(degrees):
        raise BudgetError("dataset_sizes and degrees must cover the same agents")
    n_agents = len(dataset_sizes)
    delta_i1 = delta

    rho_total = dp_to_zcdp(epsilon, delta)
    svt_eps = None
    if c_broadcasts is not None:
        if c_broadcasts < 1:
            raise BudgetError("c_broadcasts must be >= 1")
        if svt_budget_fraction is None or not 0 < svt_budget_fraction < 1:
            raise BudgetError("svt_budget_fraction must be in (0, 1) in gated mode, "
                              f"got {svt_budget_fraction!r}")
        svt_eps = svt_split_ratio(c_broadcasts,
                                  math.sqrt(2.0 * svt_budget_fraction * rho_total))
        rho_svt = dp_to_zcdp(svt_eps[0] + svt_eps[1], 0.0)
        if rho_svt >= rho_total:
            raise BudgetError(
                f"SVT gate cost {rho_svt:.4g} consumes the whole budget {rho_total:.4g}"
            )
        per_release = (rho_total - rho_svt) / c_broadcasts
    else:
        per_release = rho_total / T

    rho_i2 = splits * per_release
    rho_i1 = per_release - rho_i2
    log_inv_delta = math.log(1.0 / delta_i1)
    epsilon_i1 = rho_i1 + 2.0 * math.sqrt(rho_i1 * log_inv_delta)
    epsilon_i3 = 0.99 * epsilon_i1

    lambda_hat_floor = max(
        2.8 * n_agents * C1 / ((epsilon_i1 - epsilon_i3) * dataset_sizes[i])
        for i in dataset_sizes
    )
    sigma_i1 = {
        i: 2.0 * math.sqrt(2.0 * math.log(1.25 / delta_i1)) / (dataset_sizes[i] * epsilon_i3)
        for i in dataset_sizes
    }
    # sigma_i2 scales with 1/mu_i, the strong convexity of agent i's subproblem
    # at the floor; the inner solver takes its step from the same bound.
    sigma_i2 = {
        i: beta / (math.sqrt(2.0 * rho_i2)
                   * strong_convexity(lambda_hat_floor, n_agents, eta, degrees[i]))
        for i in degrees
    }
    return BudgetPlan(
        epsilon_total=epsilon,
        delta_total=delta,
        T=T,
        splits=splits,
        rho_total=rho_total,
        rho_i1=rho_i1,
        rho_i2=rho_i2,
        epsilon_i1=epsilon_i1,
        epsilon_i3=epsilon_i3,
        delta_i1=delta_i1,
        sigma_i1=sigma_i1,
        sigma_i2=sigma_i2,
        lambda_hat_floor=lambda_hat_floor,
        c_broadcasts=c_broadcasts,
        svt_eps=svt_eps,
    )


def check_lambda_hat(plan: BudgetPlan, lambda_hat: float) -> None:
    """Raise BudgetError if lambda_hat is below the plan's floor (relative tolerance 1e-12)."""
    if lambda_hat < plan.lambda_hat_floor * (1 - 1e-12):
        raise BudgetError(
            f"lambda_hat {lambda_hat} below the planned floor {plan.lambda_hat_floor}")


class ZcdpLedger:
    """Each agent's accumulated zCDP spend over a run, as one (N,) array."""

    def __init__(self, n_agents: int):
        self.per_agent = np.zeros(n_agents)

    def charge_pp_iteration(self, agent: int, rho: float) -> None:
        """Add rho to agent's spend."""
        self.per_agent[agent] += rho

    charge_ipp = charge_pp_iteration  # the gate's name; bench/tracer.py wraps both


def privacy_report(per_agent: np.ndarray, delta: float) -> dict:
    """A run's privacy block from each agent's final rho, an (N,) array.

    The network-wide rho is the largest agent's (parallel composition).
    """
    rhos = per_agent.tolist()
    rho = max(rhos, default=0.0)
    return {
        "per_agent_rho": {str(a): r for a, r in enumerate(rhos)},
        "total_rho": rho,
        "delta": delta,
        "epsilon_sufficient": zcdp_sufficient_epsilon(rho, delta),
        "epsilon_conservative": zcdp_to_dp(rho, delta),
    }
