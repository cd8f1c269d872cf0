import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from padmm.accountant import (
    BudgetError,
    ZcdpLedger,
    calibrate,
    dp_to_zcdp,
    gaussian_zcdp,
    plan_budget,
    privacy_report,
    svt_split_ratio,
    zcdp_sufficient_epsilon,
    zcdp_to_dp,
)
from reference import parallel_compose, serial_compose

# Frozen from an independent closed-form chain evaluated with plain math:
# eps=1, delta=1e-4, T=30, splits=0.001, |D_i|=7000, N=5, eta=0.5, deg=2,
# beta=10^-3.5, c1=0.25.
EXPECTED = {
    "rho_total": 0.02714340512,
    "rho_i1": 0.0009038753905,
    "rho_i2": 9.047801706e-07,
    "eps_i1": 0.1833867513,
    "eps_i3": 0.1815528838,
    "lambda_hat": 0.2726478311,
    "sigma_i1": 0.006835650643,
    "sigma_i2": 0.1144197698,
}


def reference_plan(**overrides):
    kwargs = dict(epsilon=1.0, delta=1e-4, T=30, splits=0.001)
    kwargs.update(overrides)
    return plan_budget(**kwargs)


def reference_calibration(plan, sizes=(7000,) * 5):
    """calibrate's (floor, sigma_i1, sigma_i2) at deg 2, eta 0.5, beta 10^-3.5, |D_i| = sizes."""
    return calibrate(plan, np.array(sizes), np.full(len(sizes), 2), 0.5, 10.0**-3.5)


class TestMechanismCosts:
    @pytest.mark.parametrize(
        "sens,sigma,expected", [(1, 1, 0.5), (2, 1, 2.0), (1, 10, 0.005)]
    )
    def test_gaussian_zcdp(self, sens, sigma, expected):
        assert gaussian_zcdp(sens, sigma) == pytest.approx(expected)

    def test_gaussian_zcdp_rejects_zero_sigma(self):
        with pytest.raises(BudgetError):
            gaussian_zcdp(1.0, 0.0)


class TestConversions:
    def test_dp_to_zcdp_examples(self):
        assert dp_to_zcdp(1.0, 1e-4) == pytest.approx(0.0271434051, abs=1e-9)
        assert dp_to_zcdp(2.0, 1e-4) == pytest.approx(0.1085736205, abs=1e-9)
        assert dp_to_zcdp(1.0, 0.0) == 0.5

    @pytest.mark.parametrize("epsilon", [math.inf, -math.inf, math.nan, 0.0])
    def test_dp_to_zcdp_rejects_epsilon_not_finite_positive(self, epsilon):
        with pytest.raises(BudgetError, match=r"^epsilon must be finite and > 0, got "):
            dp_to_zcdp(epsilon, 1e-4)

    @pytest.mark.parametrize("epsilon", [1e200, 10**200], ids=["float", "int"])
    @pytest.mark.parametrize("delta", [1e-4, 0.0])
    def test_dp_to_zcdp_rejects_epsilon_whose_square_overflows(self, epsilon, delta):
        with pytest.raises(BudgetError, match=r"^epsilon 1\S+ is too large: epsilon\^2 overflows"):
            dp_to_zcdp(epsilon, delta)

    def test_zcdp_to_dp_examples(self):
        assert zcdp_to_dp(0.0, 0.5) == 0.0
        assert zcdp_to_dp(0.0271434051, 1e-4) == pytest.approx(1.0271427, abs=1e-4)

    def test_round_trip_conservative(self):
        eps = zcdp_to_dp(dp_to_zcdp(1.0, 1e-4), 1e-4)
        assert eps == pytest.approx(1.0271434051, abs=1e-6)
        assert eps >= 1.0

    def test_sufficient_epsilon_inverts_exactly(self):
        rho = dp_to_zcdp(1.0, 1e-4)
        assert zcdp_sufficient_epsilon(rho, 1e-4) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=1e-3, max_value=20), st.floats(min_value=1e-3, max_value=20))
    def test_dp_to_zcdp_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert dp_to_zcdp(lo, 1e-4) <= dp_to_zcdp(hi, 1e-4)

    @given(st.floats(min_value=0, max_value=10), st.floats(min_value=0, max_value=10))
    def test_zcdp_to_dp_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert zcdp_to_dp(lo, 1e-4) <= zcdp_to_dp(hi, 1e-4)

    @given(st.floats(min_value=1e-3, max_value=20))
    def test_round_trip_never_claims_less(self, eps):
        assert zcdp_to_dp(dp_to_zcdp(eps, 1e-4), 1e-4) >= eps


def cks_delta(rho: float, epsilon: float) -> float:
    """Canonne, Kamath & Steinke's zCDP-to-DP delta at epsilon (NeurIPS 2020).

    min over alpha > 1 of exp((alpha-1)(alpha rho - epsilon)) / (alpha-1)
    * (1 - 1/alpha)^alpha, taken in logs on a grid of alpha - 1; a grid
    minimum is never below the true one.
    """
    am1 = np.logspace(-6, 4, 200001)
    alpha = 1.0 + am1
    log_delta = (am1 * (alpha * rho - epsilon) - np.log(am1)
                 + alpha * (np.log(am1) - np.log1p(am1)))
    return float(np.exp(log_delta.min()))


class TestConversionOracle:
    @pytest.mark.parametrize("epsilon", [
        0.5,
        1.0,
        # The planner's target rho = eps^2 / (4 ln(1/delta)) is too large for
        # epsilon_sufficient to be certified.  At 20 a single Gaussian mechanism of
        # this rho has delta 0.016 on its exact privacy curve (Balle & Wang, ICML
        # 2018), so no conversion from rho alone certifies it.
        pytest.param(5.0, marks=pytest.mark.xfail(
            strict=True, reason="rho target too large: CKS delta 1.0033e-4 > 1e-4")),
        pytest.param(20.0, marks=pytest.mark.xfail(
            strict=True, reason="rho target too large: CKS delta 0.0596 > 1e-4")),
    ])
    def test_epsilon_sufficient_is_certified(self, epsilon):
        plan = reference_plan(epsilon=epsilon)
        report = privacy_report(np.array([plan.rho_total]), plan.delta_total)
        assert cks_delta(report["total_rho"], report["epsilon_sufficient"]) <= plan.delta_total

    def test_epsilon_conservative_is_certified(self):
        plan = reference_plan(epsilon=20.0)
        report = privacy_report(np.array([plan.rho_total]), plan.delta_total)
        assert cks_delta(report["total_rho"], report["epsilon_conservative"]) <= plan.delta_total


class TestComposition:
    def test_serial(self):
        assert serial_compose([0.1, 0.2]) == pytest.approx(0.3)
        assert serial_compose([]) == 0.0

    def test_serial_t_copies(self):
        assert serial_compose([0.01] * 30) == pytest.approx(0.3)

    def test_parallel(self):
        assert parallel_compose([0.1, 0.2]) == 0.2
        assert parallel_compose([0.7]) == 0.7
        with pytest.raises(BudgetError):
            parallel_compose([])

    @given(st.lists(st.floats(min_value=0, max_value=5), min_size=1, max_size=6))
    def test_serial_commutative_parallel_idempotent(self, costs):
        assert serial_compose(costs) == pytest.approx(serial_compose(list(reversed(costs))))
        assert parallel_compose(costs + costs) == parallel_compose(costs)


class TestPlanBudget:
    def test_reference_values_to_six_figures(self):
        plan = reference_plan()
        floor, sigma_i1, sigma_i2 = reference_calibration(plan)
        checks = {
            "rho_total": plan.rho_total,
            "rho_i1": plan.rho_i1,
            "rho_i2": plan.rho_i2,
            "eps_i1": plan.epsilon_i1,
            "eps_i3": plan.epsilon_i3,
            "lambda_hat": floor,
            "sigma_i1": sigma_i1[0],
            "sigma_i2": sigma_i2[0],
        }
        for key, value in checks.items():
            assert value == pytest.approx(EXPECTED[key], rel=1e-6), key

    def test_eps_i3_below_eps_i1(self):
        plan = reference_plan()
        assert plan.epsilon_i3 < plan.epsilon_i1

    def test_per_round_budget_splits(self):
        plan = reference_plan()
        assert plan.rho_i1 + plan.rho_i2 == pytest.approx(plan.rho_total / 30, rel=1e-12)

    def test_line9_identity(self):
        # sigma_i2 * sqrt(2 rho_i2) * (lambda/N + 2 eta deg) == beta
        plan = reference_plan()
        floor, _, sigma_i2 = reference_calibration(plan)
        lhs = sigma_i2[0] * math.sqrt(2 * plan.rho_i2) * (floor / 5 + 2 * 0.5 * 2)
        assert lhs == pytest.approx(10.0**-3.5, abs=1e-12)

    def test_sigma_i1_halves_when_data_doubles(self):
        small = reference_calibration(reference_plan())[1]
        big = reference_calibration(reference_plan(), sizes=(14000,) * 5)[1]
        assert big[0] == pytest.approx(small[0] / 2, rel=1e-9)

    def test_splits_to_zero_blows_up_sigma_i2(self):
        tight = reference_calibration(reference_plan(splits=1e-9))[2]
        assert tight[0] > reference_calibration(reference_plan())[2][0] * 100

    def test_heterogeneous_agents_take_max_floor(self):
        floor = reference_calibration(reference_plan(), sizes=(7000, 7000, 1000, 7000, 7000))[0]
        # floor driven by the smallest dataset
        assert floor == pytest.approx(reference_calibration(reference_plan())[0] * 7, rel=1e-9)

    def test_gated_mode_subtracts_svt_cost(self):
        plan = reference_plan(c_broadcasts=15, svt_budget_fraction=0.2)
        assert plan.svt_eps == svt_split_ratio(15, math.sqrt(2.0 * 0.2 * plan.rho_total))
        gate = plan.rho_svt
        assert gate == pytest.approx(0.2 * plan.rho_total, rel=1e-12)
        assert plan.per_release_rho == pytest.approx((plan.rho_total - gate) / 15, rel=1e-12)

    def test_gated_mode_requires_pair(self):
        with pytest.raises(BudgetError, match="svt_budget_fraction"):
            reference_plan(c_broadcasts=15)

    def test_infinite_epsilon_rejected(self):
        # inf - inf would make the floor and every sigma NaN
        with pytest.raises(BudgetError, match=r"^epsilon must be finite"):
            reference_plan(epsilon=math.inf)

    def test_zero_delta_rejected(self):
        # pure DP converts to zCDP, but the Gaussian scales divide by ln(1/delta)
        with pytest.raises(BudgetError, match=r"^delta must be in \(0, 1\) for the Gaussian"):
            reference_plan(delta=0.0)

    def test_svt_cost_exceeding_budget(self):
        with pytest.raises(BudgetError, match=r"^svt_budget_fraction must be in \(0, 1\)"):
            reference_plan(c_broadcasts=15, svt_budget_fraction=1.0)
        # a fraction just below 1 whose gate cost rounds up to the whole budget
        with pytest.raises(BudgetError, match="consumes the whole budget"):
            reference_plan(epsilon=2.3, c_broadcasts=15,
                           svt_budget_fraction=math.nextafter(1.0, 0.0))


class TestLedger:
    def test_pp_charges_accumulate(self):
        plan = reference_plan()
        ledger = ZcdpLedger(1)
        for _ in range(30):
            ledger.charge_pp_iteration(0, plan.per_release_rho)
        assert ledger.per_agent[0] == pytest.approx(30 * plan.per_release_rho, rel=1e-12)

    def test_empty_ledger(self):
        assert privacy_report(ZcdpLedger(3).per_agent, 1e-4)["total_rho"] == 0.0

    def test_full_run_converts_back_to_target(self):
        plan = reference_plan()
        ledger = ZcdpLedger(5)
        for agent in range(5):
            for _ in range(30):
                ledger.charge_pp_iteration(agent, plan.per_release_rho)
        rho = privacy_report(ledger.per_agent, 1e-4)["total_rho"]
        assert zcdp_sufficient_epsilon(rho, 1e-4) == pytest.approx(1.0, abs=1e-9)

    def test_ipp_events(self):
        plan = reference_plan(c_broadcasts=15, svt_budget_fraction=0.5)
        gate = 0.5 * plan.rho_total
        ledger = ZcdpLedger(1)
        ledger.charge_ipp(0, plan.rho_svt)
        assert ledger.per_agent[0] == pytest.approx(gate)
        for _ in range(15):
            ledger.charge_ipp(0, plan.per_release_rho)
        assert ledger.per_agent[0] == pytest.approx(gate + 15 * plan.per_release_rho, rel=1e-12)

    def test_report_fields(self):
        plan = reference_plan()
        ledger = ZcdpLedger(1)
        ledger.charge_pp_iteration(0, plan.per_release_rho)
        report = privacy_report(ledger.per_agent, 1e-4)
        assert set(report) == {
            "per_agent_rho", "total_rho", "delta",
            "epsilon_sufficient", "epsilon_conservative",
        }
        assert report["epsilon_conservative"] >= report["epsilon_sufficient"]
