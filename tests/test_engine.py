import numpy as np
import pytest

from padmm import cli, data, engine, metrics, model
from padmm.accountant import plan_budget, zcdp_sufficient_epsilon
from padmm.engine import EngineError, dual_update
from padmm.model import DataTerms
from padmm.solver import SolverConfig, minimize
from padmm.topology import complete, ring
from reference import (LocalObjectiveParams, agent_shards, blocks, centralized_reference,
                       clipped_quality, curvature_bounds)

BETA = 10.0**-3.5


def make_parts(n=300, d=3, n_agents=3, seed=0, separation=2.0):
    ds = data.synthetic_blobs(n, d, separation, seed)
    return data.partition(ds, n_agents, seed)


def make_plan(parts, graph, epsilon=1.0, T=10, gated=False, c_max=None):
    sizes = {i: p.n_samples for i, p in enumerate(agent_shards(parts))}
    kwargs = dict(
        epsilon=epsilon, delta=1e-4, T=T, splits=0.001, dataset_sizes=sizes,
        eta=0.5, degrees=graph.degrees(), beta=BETA,
    )
    if gated:
        kwargs.update(c_broadcasts=c_max, svt_budget_fraction=0.1)
    return plan_budget(**kwargs)


class TestDualUpdate:
    def test_consensus_fixed_point(self):
        theta = np.array([1.0, 2.0])
        out = dual_update(np.array([0.3, 0.4]), theta, [theta, theta], 0.5)
        assert np.allclose(out, [0.3, 0.4])

    def test_hand_computed(self):
        out = dual_update(np.zeros(1), np.array([1.0]), [np.zeros(1), np.zeros(1)], 0.5)
        assert out[0] == pytest.approx(0.5)

    def test_opposite_disagreements_cancel(self):
        dual = np.zeros(2)
        dual = dual_update(dual, np.array([1.0, 0.0]), [np.zeros(2)], 0.5)
        dual = dual_update(dual, np.array([-1.0, 0.0]), [np.zeros(2)], 0.5)
        assert np.allclose(dual, 0)

    def test_stacked_with_self_padding_equals_per_agent(self):
        # the loop's one call: neighbor slots padded with the agent's own index
        rng = np.random.default_rng(4)
        nbrs = [[1, 2, 3], [0], [0, 3], [0, 2]]
        slots = np.array([[1, 2, 3], [0, 1, 1], [0, 3, 2], [0, 2, 3]])
        duals, thetas = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        stacked = dual_update(duals, thetas, thetas[slots.T], 0.7)
        for i in range(4):
            expected = dual_update(duals[i], thetas[i], [thetas[j] for j in nbrs[i]], 0.7)
            assert np.array_equal(stacked[i], expected)


class TestNonprivate:
    def test_zero_rounds(self):
        parts = make_parts()
        run = engine.run_nonprivate(parts, ring(3), 0.5, 1.0, 0, SolverConfig(beta=BETA))
        assert run.thetas.shape == (0, 3, 3) and run.broadcasts.shape == (0, 3)

    def test_consensus_and_oracle(self):
        parts = make_parts(n=150, d=2, separation=2.0)
        cfg = SolverConfig(beta=1e-6)
        run = engine.run_nonprivate(parts, ring(3), 0.5, 1.0, 40, cfg)
        assert run.consensus_residual[-1] < 1e-5
        pooled = data.Dataset(
            np.vstack([p.features for p in agent_shards(parts)]),
            np.concatenate([p.labels for p in agent_shards(parts)]),
        )
        ref = centralized_reference(pooled, 1.0 / 3, cfg)
        ref_loss = metrics.average_loss([ref] * 3, DataTerms(parts))
        assert abs(run.average_loss[-1] - ref_loss) < 1e-3

    def test_rounds_numbered(self):
        parts = make_parts()
        run = engine.run_nonprivate(parts, ring(3), 0.5, 1.0, 5, SolverConfig(beta=BETA))
        # round t is row t of every per-round array
        assert run.thetas.shape == (5, 3, 3) and run.broadcasts.shape == (5, 3)
        assert run.average_loss.shape == run.consensus_residual.shape == (5,)
        assert run.error_rate is None and run.spent is None

    def test_mismatched_graph_rejected(self):
        parts = make_parts(n_agents=3)
        with pytest.raises(EngineError, match="datasets"):
            engine.run_nonprivate(parts, ring(4), 0.5, 1.0, 1, SolverConfig(beta=BETA))
        # four shards, two of them agent 1's and none agent 2's: the error names agent 1
        (block,) = make_parts(n_agents=4)
        parts = [data.ShardBlock(np.array([0, 1, 1, 3]), block.features)]
        with pytest.raises(EngineError, match="agent 1 has 2 datasets"):
            engine.run_nonprivate(parts, ring(4), 0.5, 1.0, 1, SolverConfig(beta=BETA))

    def test_failed_solve_names_round_and_agent(self, monkeypatch):
        # from round 2 on, the gradients of agents 1 and 2 are NaN, so neither reaches
        # beta before the iteration cap; the error names the first of them
        stacked_kernel, rounds = engine.stacked_kernel, []

        def failing_kernel(*args):
            objective = stacked_kernel(*args)
            rounds.append(None)

            def poisoned(thetas):
                grads = objective(thetas)
                if len(rounds) > 2:
                    grads[1:3] = np.nan
                return grads

            return poisoned

        monkeypatch.setattr(engine, "stacked_kernel", failing_kernel)
        with pytest.raises(EngineError, match=r"round 2, agent 1: solver did not converge: "
                                              r"gradient norm nan > beta .* after 50 iterations"):
            engine.run_nonprivate(make_parts(), ring(3), 0.5, 1.0, 5,
                                  SolverConfig(beta=BETA, max_iterations=50))


class TestDataPasses:
    """Shard passes per round: the metrics pass and the next warm start share one."""

    @staticmethod
    def count(monkeypatch, run):
        """[evaluations, passes] per round, each round's training-loss pass included."""
        rounds = []
        block_margins, kernel = model.margins, engine.stacked_kernel

        def counted_margins(block, thetas):
            rounds[-1][1] += 1
            return block_margins(block, thetas)

        def counted_kernel(*args):
            rounds.append([0, 0])
            objective = kernel(*args)

            def counted(thetas):
                rounds[-1][0] += 1
                return objective(thetas)

            return counted

        monkeypatch.setattr(model, "margins", counted_margins)
        monkeypatch.setattr(engine, "stacked_kernel", counted_kernel)
        run()
        return rounds

    def test_nonprivate_round_is_one_pass_per_candidate(self, monkeypatch):
        parts = make_parts(n=301)  # shards of 101, 100 and 100: two blocks
        rounds = self.count(monkeypatch, lambda: engine.run_nonprivate(
            parts, ring(3), 0.5, 1.0, 8, SolverConfig(beta=BETA)))
        assert len(rounds) == 8 and sum(evals for evals, _ in rounds) > 2 * 8
        for t, (evals, passes) in enumerate(rounds):
            # the warm start is the last round's memoized point, except at the zero start;
            # the training loss is taken at the solver's last candidate
            candidates = evals - 1
            assert passes == 2 * (candidates + (t == 0))

    @pytest.mark.parametrize("gated", [False, True])
    def test_private_round_saves_the_warm_start_pass(self, monkeypatch, gated):
        parts, g, T = make_parts(n=301), ring(3), 8
        plan = make_plan(parts, g, T=T, gated=gated, c_max=3 if gated else None)
        cfg = SolverConfig(beta=BETA)
        if gated:
            def run():
                engine.run_ipp_admm(parts, g, plan, 0.5, 1e-3, 2.0, cfg, seed=0)
        else:
            def run():
                engine.run_pp_admm(parts, g, plan, 0.5, cfg, seed=0)
        rounds = self.count(monkeypatch, run)
        assert len(rounds) == T
        for t, (evals, passes) in enumerate(rounds):
            # one pass per evaluation plus the training loss at the released values,
            # less the warm start that the previous round's training loss evaluated
            assert passes == 2 * (evals + 1 - (t > 0))

    @pytest.mark.parametrize("algorithm, per_round", [
        ("nonprivate", 1), ("pp_admm", 1), ("ipp_admm", 2)])
    def test_solver_evaluations_form_no_losses(self, monkeypatch, algorithm, per_round):
        # per block and round: the training loss, and for the gate the solution's losses;
        # the gate's warm start reuses the last round's training loss, except at round 0
        parts, g, T = make_parts(n=301), ring(3), 5
        assert len(parts) == 2
        calls, solving = [0, 0], [False]
        loss, solve = model._loss, engine.minimize

        def counted_loss(z, e):
            calls[solving[0]] += 1
            return loss(z, e)

        def flagged_minimize(*args):
            solving[0] = True
            try:
                return solve(*args)
            finally:
                solving[0] = False

        monkeypatch.setattr(model, "_loss", counted_loss)
        monkeypatch.setattr(engine, "minimize", flagged_minimize)
        cfg = SolverConfig(beta=BETA)
        {"nonprivate": lambda: engine.run_nonprivate(parts, g, 0.5, 1.0, T, cfg),
         "pp_admm": lambda: engine.run_pp_admm(parts, g, make_plan(parts, g, T=T), 0.5, cfg,
                                               seed=0),
         "ipp_admm": lambda: engine.run_ipp_admm(
             parts, g, make_plan(parts, g, T=T, gated=True, c_max=3), 0.5, 1e-3, 2.0, cfg,
             seed=0)}[algorithm]()
        at_zero = algorithm == "ipp_admm"
        assert calls == [(per_round * T + at_zero) * len(parts), 0]


class TestPpAdmm:
    def test_noise_disabled_reduction(self):
        parts = make_parts()
        g = ring(3)
        plan = make_plan(parts, g, T=8)
        cfg = SolverConfig(beta=BETA)
        private = engine.run_pp_admm(
            parts, g, plan, 0.5, cfg, seed=0, noise_disabled=True
        )
        plain = engine.run_nonprivate(parts, g, 0.5, plan.lambda_hat_floor, 8, cfg)
        assert np.array_equal(private.thetas, plain.thetas)
        assert np.array_equal(private.average_loss, plain.average_loss)

    def test_ledger_identity(self):
        parts = make_parts()
        g = ring(3)
        plan = make_plan(parts, g, T=10)
        run = engine.run_pp_admm(parts, g, plan, 0.5, SolverConfig(beta=BETA), seed=1)
        # the run spends exactly its plan: the plan's rounds, each charged in full
        assert len(run.spent) == plan.T
        for agent in range(3):
            assert run.spent[-1, agent] == pytest.approx(
                plan.T * plan.per_release_rho, rel=1e-12
            )
        assert zcdp_sufficient_epsilon(run.spent[-1].max(), plan.delta_total) == pytest.approx(
            plan.epsilon_total, rel=1e-9)

    def test_every_round_spend_is_the_sequential_sum(self):
        # row t holds exactly t + 1 charges of rho_i1 + rho_i2, added in order from 0.0
        parts = make_parts()
        g = ring(3)
        plan = make_plan(parts, g, T=6)
        run = engine.run_pp_admm(parts, g, plan, 0.5, SolverConfig(beta=BETA), seed=1)
        expected, rho = [], 0.0
        for _ in range(plan.T):
            rho += plan.per_release_rho
            expected.append([rho] * g.n)
        assert run.spent.tolist() == expected

    def test_deterministic_given_seed(self):
        parts = make_parts()
        g = ring(3)
        plan = make_plan(parts, g, T=4)
        a = engine.run_pp_admm(parts, g, plan, 0.5, SolverConfig(beta=BETA), seed=5)
        b = engine.run_pp_admm(parts, g, plan, 0.5, SolverConfig(beta=BETA), seed=5)
        assert np.array_equal(a.thetas[-1], b.thetas[-1])

    def test_lambda_below_floor_rejected(self):
        parts = make_parts()
        g = ring(3)
        plan = make_plan(parts, g)
        with pytest.raises(EngineError, match="floor"):
            engine.run_pp_admm(
                parts, g, plan, 0.5, SolverConfig(beta=BETA), seed=0,
                lambda_hat=plan.lambda_hat_floor / 2,
            )


class TestIppAdmm:
    def test_very_low_threshold_saturates_gate(self):
        parts = make_parts()
        g = ring(3)
        c_max = 3
        plan = make_plan(parts, g, T=8, gated=True, c_max=c_max)
        run = engine.run_ipp_admm(
            parts, g, plan, 0.5, alpha=-1e9, c_loss=2.0,
            cfg=SolverConfig(beta=BETA), seed=0, noise_disabled=True,
        )
        counts = run.broadcasts.sum(axis=0)
        assert all(c == c_max for c in counts)
        # frozen after exhaustion
        assert np.array_equal(run.thetas[-1], run.thetas[c_max])
        for agent in range(3):
            assert run.spent[-1, agent] == pytest.approx(
                plan.rho_svt + c_max * plan.per_release_rho, rel=1e-12
            )

    def test_very_high_threshold_never_broadcasts(self):
        parts = make_parts()
        g = ring(3)
        plan = make_plan(parts, g, T=6, gated=True, c_max=5)
        run = engine.run_ipp_admm(
            parts, g, plan, 0.5, alpha=1e9, c_loss=2.0,
            cfg=SolverConfig(beta=BETA), seed=0, noise_disabled=True,
        )
        assert not run.broadcasts.any()
        assert np.allclose(run.thetas[-1], 0)  # theta frozen at the zero init
        for agent in range(3):
            assert run.spent[-1, agent] == pytest.approx(plan.rho_svt)

    def test_broadcast_cap_with_noise(self):
        parts = make_parts()
        g = ring(3)
        plan = make_plan(parts, g, T=10, gated=True, c_max=4)
        run = engine.run_ipp_admm(
            parts, g, plan, 0.5, alpha=1e-3, c_loss=2.0,
            cfg=SolverConfig(beta=BETA), seed=2,
        )
        for agent in range(3):
            n_broadcast = run.broadcasts[:, agent].sum()
            assert n_broadcast <= 4
            assert run.spent[-1, agent] == pytest.approx(
                plan.rho_svt + n_broadcast * plan.per_release_rho, rel=1e-12
            )

    def test_every_round_spend_is_the_sequential_sum(self):
        # row t holds exactly the gate's cost, then one rho_i1 + rho_i2 per broadcast
        # up to round t, added in round order
        parts = make_parts()
        g = ring(3)
        plan = make_plan(parts, g, T=10, gated=True, c_max=4)
        run = engine.run_ipp_admm(parts, g, plan, 0.5, alpha=1e-3, c_loss=2.0,
                                  cfg=SolverConfig(beta=BETA), seed=2, noise_disabled=True)
        assert 0 < run.broadcasts.sum() < run.broadcasts.size
        expected, rho = [], [plan.rho_svt] * g.n
        for mask in run.broadcasts.tolist():
            for i, shared in enumerate(mask):
                if shared:
                    rho[i] += plan.per_release_rho
            expected.append(list(rho))
        assert run.spent.tolist() == expected

    def test_plan_mode_mismatch_rejected(self):
        parts = make_parts()
        g = ring(3)
        plan = make_plan(parts, g)  # full-broadcast plan
        with pytest.raises(EngineError, match="gated"):
            engine.run_ipp_admm(
                parts, g, plan, 0.5, alpha=0.0, c_loss=2.0,
                cfg=SolverConfig(beta=BETA), seed=0,
            )


class TestGateQuality:
    """The gated round scores every agent once, from the solve's own data passes."""

    @staticmethod
    def run_ipp(parts, T=8, **kwargs):
        g = ring(len(agent_shards(parts)))
        plan = make_plan(parts, g, T=T, gated=True, c_max=3)
        return engine.run_ipp_admm(parts, g, plan, 0.5, 1e-3, 2.0,
                                   SolverConfig(beta=BETA), seed=0, **kwargs)

    def test_one_call_per_round_equal_to_the_one_agent_scores(self, monkeypatch):
        parts = make_parts(n=301)  # shards of 101, 100 and 100: two blocks
        calls, stacked = [], engine.clipped_quality

        def checked(data_terms, capped_prev, theta_prev, theta_hat, lambda_hat, c_loss):
            quality = stacked(data_terms, capped_prev, theta_prev, theta_hat, lambda_hat, c_loss)
            calls.append(theta_prev)
            for i, part in enumerate(agent_shards(parts)):
                p = LocalObjectiveParams(part, lambda_hat, len(agent_shards(parts)))
                expected = clipped_quality(theta_prev[i], theta_hat[i], p, c_loss)
                assert float(quality[i]).hex() == expected.hex()
            return quality

        monkeypatch.setattr(engine, "clipped_quality", checked)
        run = self.run_ipp(parts)
        assert run.broadcasts[1:].any()  # the snapshot moves
        assert len(calls) == len(run.thetas)
        # each round scores from its snapshot: the last round's shared values, zero at first
        for theta_prev, before in zip(calls, [np.zeros((3, 3)), *run.thetas]):
            assert np.array_equal(theta_prev, before)


class TestSharedLoop:
    """Checks and behaviour the three algorithms share through one loop."""

    def test_pp_rejects_gated_plan(self):
        parts = make_parts()
        g = ring(3)
        plan = make_plan(parts, g, gated=True, c_max=3)
        with pytest.raises(EngineError, match="gated"):
            engine.run_pp_admm(parts, g, plan, 0.5, SolverConfig(beta=BETA), seed=0)

    @pytest.mark.parametrize("algorithm", ["pp_admm", "ipp_admm"])
    def test_plan_for_another_graph_rejected(self, algorithm):
        g3, g4 = ring(3), ring(4)
        plan = make_plan(make_parts(n_agents=3), g3, gated=algorithm == "ipp_admm", c_max=3)
        parts = make_parts(n_agents=4)
        cfg = SolverConfig(beta=BETA)
        with pytest.raises(EngineError, match="does not cover this graph's agents"):
            if algorithm == "pp_admm":
                engine.run_pp_admm(parts, g4, plan, 0.5, cfg, seed=0)
            else:
                engine.run_ipp_admm(parts, g4, plan, 0.5, alpha=0.0, c_loss=2.0, cfg=cfg, seed=0)

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                       reason="ROADMAP item 5: the engine checks only that a plan covers the "
                       "graph's agents, so a complete(4) plan runs on ring(4) with output "
                       "noise 1.34 times smaller than the ring needs")
    def test_plan_for_another_topology_rejected(self):
        parts = make_parts(n_agents=4)
        plan = make_plan(parts, complete(4))
        with pytest.raises(EngineError):
            engine.run_pp_admm(parts, ring(4), plan, 0.5, SolverConfig(beta=BETA), seed=0)

    def test_private_policies_reduce_to_nonprivate(self):
        # with no noise and a gate that always fires, every policy shares the
        # solution itself, so all three runs are the same loop bit for bit
        parts = make_parts()
        g = ring(3)
        T = 6
        cfg = SolverConfig(beta=BETA)
        pp_plan = make_plan(parts, g, T=T)
        ipp_plan = make_plan(parts, g, T=T, gated=True, c_max=T)
        lam = 1.5 * max(pp_plan.lambda_hat_floor, ipp_plan.lambda_hat_floor)
        plain = engine.run_nonprivate(parts, g, 0.5, lam, T, cfg)
        pp = engine.run_pp_admm(parts, g, pp_plan, 0.5, cfg, seed=3, lambda_hat=lam,
                                noise_disabled=True)
        ipp = engine.run_ipp_admm(parts, g, ipp_plan, 0.5, alpha=-1e9, c_loss=2.0, cfg=cfg,
                                  seed=3, lambda_hat=lam, noise_disabled=True)
        assert len(plain.thetas) == T
        assert np.array_equal(plain.thetas, pp.thetas)
        assert np.array_equal(plain.thetas, ipp.thetas)
        assert np.array_equal(plain.average_loss, pp.average_loss)
        assert np.array_equal(plain.average_loss, ipp.average_loss)
        assert ipp.broadcasts.all()


class TestForcedSilence:
    """Agents 0 and 4 of the default ring never share; agents 1-3 share every round.

    No noise, no ledger and no cap: the release mask alone silences them.
    """

    T = 30

    @pytest.fixture(scope="class")
    def run(self):
        cfg = cli.ExperimentConfig(algorithm="ipp_admm", topology="ring")
        graph, parts, test, plan = cli.build_experiment(cfg)
        mask = np.array([False, True, True, True, False])
        solver_cfg = SolverConfig(beta=cfg.beta, max_iterations=cfg.max_iterations)
        run = engine._train(parts, graph, plan.lambda_hat_floor, cfg.eta, solver_cfg, self.T,
                            test, None, None, lambda theta_hat, quality: (mask, theta_hat))
        sharing_error = [metrics.error_rate(thetas[1:4], test) for thetas in run.thetas]
        return run, sharing_error

    def test_silent_agents_keep_their_zero_start(self, run):
        run, _ = run
        assert np.all(run.thetas[:, [0, 4]] == 0)
        assert not run.broadcasts[:, [0, 4]].any() and run.broadcasts[:, 1:4].all()

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: dual_update keeps adding "
                       "(eta/2)(theta_i - theta_j) against a silent neighbor's stale value, "
                       "so the sharing agents overshoot and flip sign after round 12")
    def test_sharing_agents_do_not_wind_up(self, run):
        _, sharing_error = run
        assert max(sharing_error[13:]) <= sharing_error[12] + 0.05


class TestCentralizedReference:
    def test_single_agent_admm_degenerates(self):
        ds = data.synthetic_blobs(100, 2, 2.0, 3)
        cfg = SolverConfig(beta=1e-7)
        # a 2-node graph where one agent holds an identical dataset copy:
        # both agree with the centralized fit on the pooled (duplicated) data
        parts = blocks([ds, ds])
        from padmm.topology import Graph

        run = engine.run_nonprivate(parts, Graph(2, [(0, 1)]), 0.5, 1.0, 40, cfg)
        ref = centralized_reference(ds, 1.0 / 2, cfg)
        assert np.linalg.norm(run.thetas[-1, 0] - ref) < 1e-3

    def test_heavy_regularization_shrinks(self):
        ds = data.synthetic_blobs(50, 2, 2.0, 0)
        theta = centralized_reference(ds, 1e6, SolverConfig(beta=1e-2))
        assert np.linalg.norm(theta) < 1e-4

    def test_deterministic(self):
        ds = data.synthetic_blobs(60, 2, 2.0, 1)
        cfg = SolverConfig(beta=1e-6)
        a = centralized_reference(ds, 0.5, cfg)
        b = centralized_reference(ds, 0.5, cfg)
        assert np.array_equal(a, b)


class TestCurvatureStep:
    """The inner solver's step 2 / (mu + L) on the documented default config."""

    def test_step_from_agent_bounds(self, monkeypatch):
        parts = make_parts(n=301, n_agents=4)  # shards of 76, 75, 75 and 75
        g = ring(4)
        configs, solve = [], engine.minimize

        def recording_minimize(objective, start, cfg):
            configs.append(cfg)
            return solve(objective, start, cfg)

        monkeypatch.setattr(engine, "minimize", recording_minimize)
        engine.run_nonprivate(parts, g, 0.5, 0.7, 1, SolverConfig(beta=BETA, max_iterations=50))
        (cfg,) = configs
        for i, part in enumerate(agent_shards(parts)):
            mu, lipschitz = curvature_bounds(LocalObjectiveParams(part, 0.7, 4), 0.5, 2)
            assert cfg.step[i] == 2.0 / (mu + lipschitz)
        assert (cfg.beta, cfg.max_iterations) == (BETA, 50)

    def test_default_ipp_admm_completes_every_seed(self):
        cfg = cli.ExperimentConfig(algorithm="ipp_admm", seeds=tuple(range(6)))
        assert (cfg.topology, cfg.epsilon) == ("random", 1.0)
        report = cli.run_experiment(cfg)
        assert len(report.rounds) == 6 * cfg.T
        for counts in report.summary["broadcast_counts"].values():
            assert max(counts.values()) <= cfg.c_max

    def test_tight_tolerance_completes(self):
        # near beta = 1e-12 a step lowers f by less than f's rounding error; the
        # bound step needs no evidence of that decrease
        report = cli.run_experiment(cli.ExperimentConfig(beta=1e-12, T=3))
        assert len(report.rounds) == 3

    @pytest.mark.parametrize("algorithm", ["nonprivate", "pp_admm", "ipp_admm"])
    def test_solves_take_few_evaluations(self, monkeypatch, algorithm):
        # one stacked solve per round; its evaluation count is the largest
        # of the agents' own counts, so the bound holds for every agent
        evals, final_norms, starts = [], [], []

        def counting_minimize(objective, start, solver_cfg):
            calls = []

            def counted(theta):
                calls.append(theta)
                return objective(theta)

            out = minimize(counted, start, solver_cfg)
            starts.append(start.shape)
            evals.append(len(calls))
            final_norms.extend(np.linalg.norm(objective(out), axis=1))
            return out

        monkeypatch.setattr(engine, "minimize", counting_minimize)
        cfg = cli.ExperimentConfig(algorithm=algorithm, T=10, seeds=(1,))
        cli.run_experiment(cfg)
        assert starts == [(cfg.n_agents, cfg.synthetic_d)] * cfg.T
        assert max(evals) <= 10
        assert max(final_norms) <= cfg.beta
