"""Acceptance gate: one test per criterion, each printing a pass/fail line."""

import time

import numpy as np
import pytest

from padmm import data, engine, metrics
from padmm.accountant import calibrate, plan_budget, zcdp_sufficient_epsilon
from padmm.model import DataTerms
from padmm.noise import gaussian_vector, laplace_scalar, stream
from padmm.solver import SolverConfig
from padmm.svt import Decision, SvtGate
from padmm.topology import ring
from reference import (AugmentedParams, LocalObjectiveParams, agent_shards, augmented_gradient,
                       augmented_objective, centralized_reference, clipped_quality, drawn_blobs,
                       partition)

BETA = 10.0**-3.5
DELTA = 1e-4


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def pp_plan(epsilon=1.0):
    return plan_budget(epsilon=epsilon, delta=DELTA, T=30, splits=0.001)


def floor(parts, graph, plan):
    """The lambda_hat floor of a run on parts and graph at eta 0.5 and BETA."""
    return engine.calibrate_run(parts, graph, plan, 0.5, BETA)[0]


def test_1_accounting_exactness():
    start = time.time()
    plan = pp_plan()
    lambda_hat, sigma_i1, sigma_i2 = calibrate(plan, np.full(5, 7000), np.full(5, 2), 0.5, BETA)
    plan_elapsed = time.time() - start
    expected = {  # independent closed-form chain, frozen in test_accountant.py too
        "rho_total": (0.02714340512, plan.rho_total),
        "sigma_i1": (0.006835650643, sigma_i1[0]),
        "sigma_i2": (0.1144197698, sigma_i2[0]),
        "lambda_hat": (0.2726478311, lambda_hat),
    }
    for key, (want, got) in expected.items():
        assert got == pytest.approx(want, rel=1e-6), key

    start = time.time()
    ds = drawn_blobs(35000, 5, 5.0, 0)
    parts = partition(ds, 5, 0)
    assert all(p.n_samples == 7000 for p in agent_shards(parts))
    g = ring(5)
    run = engine.run_pp_admm(parts, g, plan, 0.5, SolverConfig(beta=BETA), seed=0)
    run_elapsed = time.time() - start
    eps_back = zcdp_sufficient_epsilon(run.spent[-1].max(), DELTA)
    ok = abs(eps_back - 1.0) <= 1e-6 and plan_elapsed < 1 and run_elapsed < 60
    report("1-accounting-exactness", ok,
           f"eps_back={eps_back:.9f} plan={plan_elapsed:.3f}s run={run_elapsed:.1f}s")


def test_2_reduction_identity():
    start = time.time()
    ds = drawn_blobs(500, 5, 5.0, 0)
    parts = partition(ds, 5, 0)
    g = ring(5)
    plan = pp_plan()
    cfg = SolverConfig(beta=BETA)
    private = engine.run_pp_admm(parts, g, plan, 0.5, cfg, seed=0, noise_disabled=True)
    plain = engine.run_nonprivate(parts, g, 0.5, floor(parts, g, plan), 30, cfg)
    identical = (
        np.array_equal(private.thetas, plain.thetas)
        and np.array_equal(private.average_loss, plain.average_loss)
        and np.array_equal(private.consensus_residual, plain.consensus_residual)
    )
    elapsed = time.time() - start
    report("2-reduction-identity", identical and elapsed < 30, f"{elapsed:.1f}s")


def test_3_consensus_oracle():
    start = time.time()
    ds = drawn_blobs(200, 2, 2.0, 1)
    parts = partition(ds, 3, 1)
    cfg = SolverConfig(beta=1e-6)
    lam = 1.0
    run = engine.run_nonprivate(parts, ring(3), 0.5, lam, 50, cfg)
    residual = run.consensus_residual[-1]
    pooled = data.Dataset(
        np.vstack([p.features for p in agent_shards(parts)]),
        np.concatenate([p.labels for p in agent_shards(parts)])
    )
    # consensus problem == pooled mean loss + (lam/N) * 0.5 ||theta||^2
    ref = centralized_reference(pooled, lam / 3, cfg)
    loss_gap = abs(run.average_loss[-1] - metrics.average_loss([ref] * 3, DataTerms(parts)))
    elapsed = time.time() - start
    ok = residual < 1e-5 and loss_gap < 1e-3 and elapsed < 60
    report("3-consensus-oracle", ok,
           f"residual={residual:.2e} loss_gap={loss_gap:.2e} {elapsed:.1f}s")


def test_4_sensitivity_oracle():
    start = time.time()
    rng = np.random.default_rng(0)
    base = data.Dataset(rng.normal(size=(4, 3)), np.array([1, -1, 1, -1]))
    pool = [(rng.normal(size=3) * 2, y) for y in (1, -1) for _ in range(4)]
    worst = 0.0
    for c_loss in (0.5, 2.0):
        for _ in range(100):
            tp, th = rng.normal(size=3) * 3, rng.normal(size=3) * 3
            q0 = clipped_quality(tp, th, LocalObjectiveParams(base, 0.7, 2), c_loss)
            for k in range(4):
                for x_new, y_new in pool:
                    feats, labels = base.features.copy(), base.labels.copy()
                    feats[k], labels[k] = x_new, y_new
                    alt = LocalObjectiveParams(data.Dataset(feats, labels), 0.7, 2)
                    delta = abs(q0 - clipped_quality(tp, th, alt, c_loss))
                    worst = max(worst, delta / (2 * c_loss))
                    assert delta <= 2 * c_loss + 1e-12
    elapsed = time.time() - start
    report("4-sensitivity-oracle", elapsed < 10,
           f"worst |dq| / (2 C_loss) = {worst:.3f}, {elapsed:.1f}s")


def test_5_svt_behavior():
    start = time.time()
    gate = SvtGate(0.3, 10**9, 0.1, 0.9, 4.0, (None, None))
    qualities = np.random.default_rng(1).normal(size=1000)
    matches = all(
        (gate.check(q) is Decision.ABOVE) == (q >= 0.3) for q in qualities
    )

    # broadcast cap and exact ledger accounting on a real gated run
    ds = drawn_blobs(300, 3, 2.0, 0)
    parts = partition(ds, 3, 0)
    g = ring(3)
    c_max = 4
    plan = plan_budget(epsilon=1.0, delta=DELTA, T=10, splits=0.001,
                       c_broadcasts=c_max, svt_budget_fraction=0.1)
    run = engine.run_ipp_admm(
        parts, g, plan, 0.5, alpha=1e-3, c_loss=2.0,
        cfg=SolverConfig(beta=BETA), seed=3,
    )
    cap_ok, ledger_ok = True, True
    for agent in range(3):
        n_broadcast = run.broadcasts[:, agent].sum()
        cap_ok &= n_broadcast <= c_max
        expected = plan.rho_svt + n_broadcast * plan.per_release_rho
        ledger_ok &= abs(run.spent[-1, agent] - expected) <= 1e-15
    elapsed = time.time() - start
    ok = matches and cap_ok and ledger_ok and elapsed < 5
    report("5-svt-behavior", ok,
           f"matches={matches} cap={cap_ok} ledger={ledger_ok} {elapsed:.1f}s")


def test_6_mechanism_statistics():
    start = time.time()
    gauss = gaussian_vector(1.0, 10**6, stream(0, 0, 1))
    g_mean, g_var = gauss.mean(), gauss.var()
    rng = stream(1, 0, 2)
    lap = np.array([laplace_scalar(1.0, rng) for _ in range(10**6)])
    l_mean, l_var = lap.mean(), lap.var()
    ok = (
        -0.005 <= g_mean <= 0.005 and 0.99 <= g_var <= 1.01
        and -0.01 <= l_mean <= 0.01 and 1.97 <= l_var <= 2.03
    )
    elapsed = time.time() - start
    ok = ok and elapsed < 10
    report("6-mechanism-statistics", ok,
           f"gauss=({g_mean:.4f},{g_var:.4f}) lap=({l_mean:.4f},{l_var:.4f}) {elapsed:.1f}s")


def test_7_privacy_utility_trend():
    start = time.time()
    ds = drawn_blobs(2000, 5, 5.0, 0)
    parts = partition(ds, 5, 0)
    g = ring(5)
    cfg = SolverConfig(beta=BETA)
    plan_lo = pp_plan(epsilon=1.0)
    plan_hi = pp_plan(epsilon=10.0)
    finals_lo, finals_hi = [], []
    for seed in range(10):
        t_lo = engine.run_pp_admm(parts, g, plan_lo, 0.5, cfg, seed=seed)
        t_hi = engine.run_pp_admm(parts, g, plan_hi, 0.5, cfg, seed=seed)
        finals_lo.append(t_lo.average_loss[-1])
        finals_hi.append(t_hi.average_loss[-1])
    nonp = engine.run_nonprivate(parts, g, 0.5, floor(parts, g, plan_hi), 30, cfg)
    loss_np = nonp.average_loss[-1]
    loss_hi, loss_lo = np.mean(finals_hi), np.mean(finals_lo)
    elapsed = time.time() - start
    ok = loss_np <= loss_hi <= loss_lo and (loss_hi - loss_np) < 0.05 and elapsed < 600
    report("7-privacy-utility-trend", ok,
           f"nonprivate={loss_np:.4f} eps10={loss_hi:.4f} eps1={loss_lo:.4f} {elapsed:.1f}s")


def test_8_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(2, 6))
        ds = drawn_blobs(int(rng.integers(10, 40)), d, 2.0, trial)
        p = LocalObjectiveParams(ds, float(rng.uniform(0, 2)), int(rng.integers(1, 6)))
        n_nbrs = int(rng.integers(1, 4))
        a = AugmentedParams(
            rng.normal(size=d), rng.normal(size=d),
            [rng.normal(size=d) for _ in range(n_nbrs)],
            float(rng.uniform(0.1, 2)), rng.normal(size=d),
        )
        theta = rng.normal(size=d)
        grad = augmented_gradient(theta, p, a)
        fd = np.empty(d)
        for k in range(d):
            e = np.zeros(d)
            e[k] = 1e-6
            fd[k] = (augmented_objective(theta + e, p, a)
                     - augmented_objective(theta - e, p, a)) / 2e-6
        rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd))
        worst = max(worst, rel)
        assert rel <= 1e-5
    elapsed = time.time() - start
    report("8-gradient-correctness", elapsed < 5, f"worst_rel={worst:.2e} {elapsed:.1f}s")
