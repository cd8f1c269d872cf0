import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from padmm import cli, data, engine
from padmm.cli import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config_text,
    run_experiment,
)
from padmm.data import Dataset
from padmm.metrics import average_loss, error_rate
from padmm.model import DataTerms


def small_cfg(**overrides):
    base = dict(
        algorithm="nonprivate",
        synthetic_n=120,
        synthetic_d=2,
        synthetic_separation=2.0,
        n_agents=3,
        topology="ring",
        T=4,
        beta=1e-3,
        seeds=(0,),
        lambda_hat=1.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestMetrics:
    def test_perfect_classifier(self):
        test = Dataset(np.array([[1.0], [-1.0]]), np.array([1, -1]))
        assert error_rate([np.array([1.0])], test) == 0.0

    def test_zero_theta_predicts_positive(self):
        test = Dataset(np.array([[1.0], [2.0]]), np.array([1, -1]))
        assert error_rate([np.zeros(1)], test) == 0.5

    def test_three_of_ten_wrong(self):
        x = np.ones((10, 1))
        y = np.array([1] * 7 + [-1] * 3)
        assert error_rate([np.array([1.0])], Dataset(x, y)) == pytest.approx(0.3)

    def test_per_agent_averaging(self):
        test = Dataset(np.array([[1.0], [-1.0]]), np.array([1, -1]))
        perfect, inverted = np.array([1.0]), np.array([-1.0])
        assert error_rate([perfect, inverted], test) == 0.5

    def test_error_rate_matches_per_agent_loop(self):
        rng = np.random.default_rng(0)
        test = Dataset(rng.normal(size=(97, 4)), rng.choice([-1, 1], size=97))
        thetas = [rng.normal(size=4) for _ in range(6)] + [np.zeros(4)]
        rates = [float(np.mean(np.where(test.features @ t >= 0, 1, -1) != test.labels))
                 for t in thetas]
        assert error_rate(thetas, test) == float(np.mean(rates))
        assert error_rate(np.array(thetas), test) == float(np.mean(rates))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_test=st.sampled_from([1, 7, 9, 401]) | st.integers(1, 64),
           n_random=st.integers(0, 6), d=st.integers(1, 5),
           zero_rows=st.lists(st.sampled_from([0.0, -0.0]), max_size=2),
           zero_feature_row=st.booleans(), as_list=st.booleans())
    @example(seed=0, n_test=401, n_random=1, d=3, zero_rows=[], zero_feature_row=True,
             as_list=True)
    @example(seed=1, n_test=9, n_random=0, d=2, zero_rows=[-0.0], zero_feature_row=False,
             as_list=False)
    def test_error_rate_matches_boolean_oracle_bit_for_bit(
            self, seed, n_test, n_random, d, zero_rows, zero_feature_row, as_list):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n_test, d))
        if zero_feature_row:
            features[rng.integers(n_test)] = 0.0
        test = Dataset(features, rng.choice([-1.0, 1.0], size=n_test))
        thetas = np.vstack([rng.normal(size=(n_random, d))]
                           + [np.full((1, d), z) for z in zero_rows])
        if len(thetas) == 0:
            thetas = np.zeros((1, d))
        got = error_rate(list(thetas) if as_list else thetas, test)
        assert got.hex() == reference.error_rate(thetas, test).hex()

    def test_average_loss_at_zero(self):
        parts = [Dataset(np.ones((4, 1)), np.array([1, 1, -1, -1]))]
        assert average_loss([np.zeros(1)], DataTerms(reference.blocks(parts))) == pytest.approx(np.log(2))

    def test_average_loss_single_agent_is_local_mean(self):
        ds = Dataset(np.array([[1.0], [0.5]]), np.array([1, -1]))
        theta = np.array([2.0])
        expected = np.mean(np.log1p(np.exp(-ds.labels * (ds.features @ theta))))
        assert average_loss([theta], DataTerms(reference.blocks([ds]))) == pytest.approx(expected)


class TestConfigParsing:
    def test_key_value_lines(self):
        values = parse_config_text(
            "algorithm = pp_admm\nepsilon = 2.5\nseeds = [1, 2, 3]\n# comment\nT = 7\n"
        )
        assert values == {"algorithm": "pp_admm", "epsilon": 2.5, "seeds": (1, 2, 3), "T": 7}

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("bogus = 1\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just words\n")

    def test_file_plus_overrides(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("epsilon = 1.0\nT = 3\n")
        cfg = load_config(str(p), {"epsilon": "2.0"})
        assert cfg.epsilon == 2.0
        assert cfg.T == 3

    INT_FIELDS = ["synthetic_n", "synthetic_d", "n_agents", "topology_seed", "split_seed", "T",
                  "c_max", "max_iterations", "seeds"]

    @pytest.mark.parametrize("value", ["2.5", "true", "null", "Infinity", "abc", '"3"'])
    @pytest.mark.parametrize("name", INT_FIELDS)
    def test_integer_fields_reject_other_values(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
            load_config(None, {name: value})

    def test_integer_fields_checked_in_config_files(self):
        with pytest.raises(ConfigError, match=r"^T must be an integer, got 2\.5$"):
            parse_config_text("T = 2.5\n")
        with pytest.raises(ConfigError, match=r"^seeds must be an integer, got 2\.5$"):
            parse_config_text("seeds = [0, 2.5]\n")

    def test_integral_values_become_ints(self):
        cfg = load_config(None, {"T": "4.0", "n_agents": 3, "seeds": "[1.0, 2]"})
        assert (cfg.T, cfg.n_agents, cfg.seeds) == (4, 3, (1, 2))
        assert all(type(v) is int for v in (cfg.T, cfg.n_agents, *cfg.seeds))
        assert load_config(None, {"seeds": "7"}).seeds == (7,)

    def test_string_fields_keep_their_text(self):
        assert load_config(None, {"positive_value": "1"}).positive_value == "1"
        assert load_config(None, {"positive_value": '"1"'}).positive_value == "1"
        assert load_config(None, {"output": "1"}).output == "1"
        assert load_config(None, {"output": "null"}).output is None
        assert load_config(None, {"algorithm": '"pp_admm"'}).algorithm == "pp_admm"
        assert parse_config_text("positive_value = 1\nlabel_column = true\n") == {
            "positive_value": "1", "label_column": "true"}

    FLOAT_FIELDS = ["synthetic_separation", "edge_prob", "epsilon", "delta", "eta", "splits",
                    "beta", "c_loss", "alpha", "svt_budget_fraction", "lambda_hat",
                    "test_fraction"]

    @pytest.mark.parametrize("value", ["true", "Infinity", "-Infinity", "NaN", "abc", '"1.0"',
                                       "[1.0]"])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_float_fields_reject_other_values(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be a finite number, got "):
            load_config(None, {name: value})

    def test_float_fields_reject_integers_past_the_float_range(self):
        with pytest.raises(ConfigError, match=r"^epsilon must be a finite number, got 1000"):
            load_config(None, {"epsilon": "1" + "0" * 400})

    def test_float_fields_take_numbers(self):
        cfg = load_config(None, {"epsilon": "2", "delta": "1e-5", "lambda_hat": "null"})
        assert (cfg.epsilon, cfg.delta, cfg.lambda_hat) == (2, 1e-5, None)
        with pytest.raises(ConfigError, match=r"^epsilon must be a finite number, got None$"):
            load_config(None, {"epsilon": "null"})

    @pytest.mark.parametrize("value", ["1", "null", "yes", '"true"'])
    def test_bool_field_takes_true_or_false(self, value):
        assert load_config(None, {"insecure_no_noise": "false"}).insecure_no_noise is False
        assert load_config(None, {"insecure_no_noise": "true"}).insecure_no_noise is True
        with pytest.raises(ConfigError, match="^insecure_no_noise must be true or false, got "):
            load_config(None, {"insecure_no_noise": value})

    def test_echo_round_trips(self):
        cfg = small_cfg()
        echo = dataclasses.asdict(cfg)
        rebuilt = ExperimentConfig(**{k: cli._coerce(k, v) for k, v in echo.items()})
        assert rebuilt == cfg


def assert_same_setup(got, expected):
    """Shards and test set equal in rows, bytes, dtype, shape and C order."""
    (parts, test), (ref_parts, ref_test) = got, expected
    assert len(parts) == len(ref_parts)
    pairs = [(test.features, ref_test.features), (test.labels, ref_test.labels)]
    for block, ref in zip(parts, ref_parts, strict=True):
        assert block.rows.tolist() == ref.rows.tolist()
        pairs.append((block.features, ref.features))
    for a, b in pairs:
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
        assert a.flags.c_contiguous


class TestPrepareData:
    @pytest.mark.parametrize("n, d, n_agents, split_seed", [
        (2000, 1, 5, 0), (2011, 5, 6, 3), (1003, 20, 7, 1), (20000, 5, 100, 0),
        (4037, 20, 100, 2),
        # several draw chunks (data._CHUNK rows each); n // 2, where the clusters meet, falls
        # inside the first chunk, on the edge between two chunks, or inside the second one
        (8191, 1, 7, 2), (8192, 5, 4, 0), (8193, 20, 10, 1), (16385, 3, 5, 0), (24577, 2, 6, 4),
    ], ids=["one_size-d1", "two_sizes-d5", "two_sizes-d20", "100_agents", "100_agents-two_sizes",
            "chunks1-two_sizes-d1", "chunks1-two_sizes-d5", "chunks2-two_sizes-d20",
            "chunks3-edge-two_sizes-d3", "chunks4-one_size-d2"])
    def test_synthetic_matches_the_old_setup_bit_for_bit(self, n, d, n_agents, split_seed):
        cfg = small_cfg(synthetic_n=n, synthetic_d=d, n_agents=n_agents, split_seed=split_seed)
        got = cli.prepare_data(cfg)
        assert len(got[0]) == (1 if (n - round(0.2 * n)) % n_agents == 0 else 2)
        assert_same_setup(got, reference.prepare_data(cfg))

    def test_csv_matches_the_old_setup_bit_for_bit(self, tmp_path):
        # column z is all zero; column c's largest magnitude is in a test sample only
        n, split_seed = 203, 4
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, 3)) * [1.0, 5.0, 0.0]
        x[:, 2] = 0.0
        c = rng.uniform(-1, 1, size=n)
        first_test = np.random.default_rng(split_seed).permutation(n)[0]
        c[first_test] = -40.0
        rows = "".join(f"{a!r},{b!r},{z!r},{'yes' if i % 3 else 'no'},{ci!r}\n"
                       for i, (a, b, z, ci) in enumerate(zip(*x.T.tolist(), c.tolist())))
        csv = tmp_path / "d.csv"
        csv.write_text("a,b,z,y,c\n" + rows)
        cfg = small_cfg(dataset_csv=str(csv), label_column="y", positive_value="yes",
                        n_agents=7, split_seed=split_seed)
        got = cli.prepare_data(cfg)
        assert_same_setup(got, reference.prepare_data(cfg))
        parts, test = got
        assert all(np.all(block.features[..., 2] == 0) for block in parts)
        # c was scaled by its training maximum (below 1), not by the test sample's 40
        assert test.features[0, 3] < -0.99 and np.abs(test.features[1:, 3]).max() > 0.5

    def test_csv_without_feature_columns_matches_the_old_setup(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("label\n" + "".join(f"{i % 2}\n" for i in range(40)))
        cfg = small_cfg(dataset_csv=str(csv), label_column="label", positive_value="1",
                        n_agents=3)
        got = cli.prepare_data(cfg)
        assert got[1].features.shape[1] == 0
        assert_same_setup(got, reference.prepare_data(cfg))

    def test_peak_memory_is_one_copy_of_the_features(self):
        # each sample is written once into one buffer that the shards and the test set view;
        # beside it live only n-long index arrays and one draw chunk (or normalize's squared
        # chunk), never a second n x d array
        import tracemalloc

        n, d = 40000, 20
        cfg = small_cfg(synthetic_n=n, synthetic_d=d, n_agents=10)
        cli.prepare_data(cfg)
        tracemalloc.start()
        try:
            parts, test = cli.prepare_data(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        features = n * d * 8
        indices = 4 * n * 8  # split permutation, shard order, buffer order and its inverse
        chunk = data._CHUNK * d * 8
        assert peak <= features + indices + chunk
        buffer = test.features.base
        assert buffer.shape == (n, d) and buffer.flags.c_contiguous
        views = [block.features for block in parts] + [test.features]
        row = 0
        for view in views:  # the training blocks in order, then the test set
            assert np.shares_memory(view, buffer)
            assert view.ctypes.data == buffer.ctypes.data + row * d * 8
            row += view.size // d
        assert row == n


class TestRunExperiment:
    def test_nonprivate_report_shape(self):
        report = run_experiment(small_cfg())
        assert len(report.rounds) == 4
        assert report.summary["privacy"] is None
        assert len(report.summary["mean_average_loss"]) == 4
        assert report.summary["std_average_loss"] == [0.0] * 4

    def test_reproducible_bytes(self):
        a = run_experiment(small_cfg()).to_ndjson()
        b = run_experiment(small_cfg()).to_ndjson()
        assert a == b

    def test_pp_admm_privacy_report(self):
        cfg = small_cfg(algorithm="pp_admm", epsilon=2.0, lambda_hat=None, T=3)
        report = run_experiment(cfg)
        privacy = report.summary["privacy"]
        assert privacy["epsilon_sufficient"] <= 2.0 + 1e-9

    def test_ipp_admm_broadcast_counts(self):
        cfg = small_cfg(algorithm="ipp_admm", epsilon=2.0, lambda_hat=None, T=5, c_max=2)
        report = run_experiment(cfg)
        for counts in report.summary["broadcast_counts"].values():
            assert all(c <= 2 for c in counts.values())

    def test_multi_seed_aggregation(self):
        cfg = small_cfg(algorithm="pp_admm", epsilon=5.0, lambda_hat=None, T=2,
                        seeds=(0, 1, 2))
        report = run_experiment(cfg)
        assert report.summary["n_seeds"] == 3
        assert len(report.rounds) == 6

    def test_privacy_block_is_the_worst_single_run(self):
        # runs on different seeds are not composed: per agent, the block holds the
        # largest spend of any one run, whatever order the seeds come in
        def privacy(seeds):
            cfg = ExperimentConfig(algorithm="ipp_admm", topology="ring", seeds=seeds)
            return run_experiment(cfg).summary["privacy"]

        both = privacy((0, 1))
        assert privacy((1, 0)) == both
        singles = [privacy((seed,))["per_agent_rho"] for seed in (0, 1)]
        assert singles[0] != singles[1]
        assert both["per_agent_rho"] == {
            agent: max(single[agent] for single in singles) for agent in singles[0]}

    def test_summary_agrees_with_the_round_records(self):
        cfg = ExperimentConfig(algorithm="ipp_admm", topology="ring", seeds=(0, 1))
        report = run_experiment(cfg)
        last = {}
        for seed in cfg.seeds:
            records = [r for r in report.rounds if r["seed"] == seed]
            assert [r["round"] for r in records] == list(range(cfg.T))
            counts = report.summary["broadcast_counts"][str(seed)]
            for i in map(str, range(cfg.n_agents)):
                assert counts[i] == sum(r["broadcasts"][i] for r in records)
            last[seed] = records[-1]["cumulative_rho"]
        privacy = report.summary["privacy"]
        for i in map(str, range(cfg.n_agents)):
            assert privacy["per_agent_rho"][i] == max(last[seed][i] for seed in cfg.seeds)
        assert privacy["total_rho"] == max(max(spent.values()) for spent in last.values())

    def test_summary_reduces_each_round_over_seeds(self):
        # Nine seeds pass numpy's 8-way pairwise-sum block, where a reduction
        # in another order would show in the last bits.
        cfg = small_cfg(algorithm="pp_admm", epsilon=5.0, lambda_hat=None, T=3,
                        seeds=tuple(range(9)))
        report = run_experiment(cfg)
        for t in range(3):
            records = [r for r in report.rounds if r["round"] == t]
            assert len(records) == 9
            for field in ("average_loss", "error_rate"):
                values = np.array([r[field] for r in records])
                assert report.summary[f"mean_{field}"][t] == float(np.mean(values))
                assert report.summary[f"std_{field}"][t] == float(np.std(values))

    @pytest.mark.parametrize("algorithm", ["nonprivate", "pp_admm", "ipp_admm"])
    def test_engine_reads_the_built_shards_in_place(self, monkeypatch, algorithm):
        # the training rows are held once: the engine's data terms read build_experiment's shards
        built, read = [], []
        build_experiment, data_terms = cli.build_experiment, engine.DataTerms
        monkeypatch.setattr(cli, "build_experiment",
                            lambda cfg: built.append(build_experiment(cfg)) or built[-1])
        monkeypatch.setattr(engine, "DataTerms",
                            lambda blocks: read.append(data_terms(blocks)) or read[-1])
        run_experiment(small_cfg(algorithm=algorithm, synthetic_n=121, epsilon=2.0,
                                 lambda_hat=None, T=2, seeds=(0, 1)))
        (_, shards, _, _), = built
        assert len(shards) == 2 and len(read) == 2  # two shard sizes; one evaluator per seed
        for terms in read:
            for block, shard in zip(terms.blocks, shards, strict=True):
                assert np.shares_memory(block.features, shard.features)

    def test_output_file_ndjson(self, tmp_path):
        out = tmp_path / "report.ndjson"
        run_experiment(small_cfg(output=str(out)))
        lines = out.read_text().strip().split("\n")
        types = [json.loads(line)["type"] for line in lines]
        assert types[0] == "config"
        assert types[-1] == "summary"
        assert types.count("round") == 4


class TestMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "r.ndjson"
        code = cli.main([
            "run", "--algorithm", "nonprivate", "--synthetic-n", "80",
            "--synthetic-d", "2", "--n-agents", "2", "--topology", "complete",
            "--T", "2", "--beta", "1e-3", "--lambda-hat", "1.0",
            "--output", str(out),
        ])
        assert code == 0
        assert out.exists()

    def test_plan_prints_json(self, capsys):
        code = cli.main([
            "plan", "--algorithm", "pp_admm", "--synthetic-n", "100",
            "--synthetic-d", "2", "--n-agents", "2", "--topology", "complete",
        ])
        assert code == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["lambda_hat_floor"] > 0
        # this config's calibration: each agent's sigmas, keyed by agent
        assert list(plan["sigma_i1"]) == list(plan["sigma_i2"]) == ["0", "1"]

    def test_validate_ok(self, capsys):
        code = cli.main([
            "validate", "--algorithm", "pp_admm", "--synthetic-n", "100",
            "--synthetic-d", "2", "--n-agents", "2", "--topology", "complete",
        ])
        assert code == 0
        assert "config OK" in capsys.readouterr().out

    @pytest.mark.parametrize("epsilon", ["9855607.898567354", "1e100"])
    @pytest.mark.parametrize("command", ["validate", "plan"])
    def test_large_epsilon_accepted(self, capsys, command, epsilon):
        # validate accepts every epsilon that plan and run accept
        code = cli.main([command, "--algorithm", "pp_admm", "--epsilon", epsilon])
        assert code == 0, capsys.readouterr().err

    def test_bad_config_nonzero_exit(self, capsys):
        code = cli.main(["run", "--algorithm", "bogus"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--T", "0", "T must be >= 1, got 0"),
        ("--seeds", "[]", "seeds must list at least one seed"),
    ], ids=["T=0", "seeds=()"])
    @pytest.mark.parametrize("algorithm", ["nonprivate", "pp_admm", "ipp_admm"])
    def test_run_without_rounds_rejected(self, capsys, algorithm, flag, value, message):
        code = cli.main(["run", "--algorithm", algorithm, "--synthetic-n", "120",
                         "--n-agents", "3", flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"padmm: error: {message}\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--T", "2.5", "T must be an integer, got 2.5"),
        ("--seeds", "1.7", "seeds must be an integer, got 1.7"),
    ], ids=["T=2.5", "seeds=1.7"])
    @pytest.mark.parametrize("command", ["run", "plan", "validate"])
    def test_non_integral_values_rejected(self, capsys, command, flag, value, message):
        code = cli.main([command, "--algorithm", "pp_admm", "--synthetic-n", "120",
                         "--n-agents", "3", flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"padmm: error: {message}\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--epsilon", "Infinity", "epsilon must be a finite number, got inf"),
        ("--epsilon", "true", "epsilon must be a finite number, got True"),
        ("--delta", "0", "delta must be in (0, 1) for the Gaussian mechanisms, got 0"),
        ("--epsilon", "1e200", "epsilon 1e+200 is too large: epsilon^2 overflows"),
    ], ids=["epsilon=inf", "epsilon=true", "delta=0", "epsilon=1e200"])
    @pytest.mark.parametrize("algorithm", ["pp_admm", "ipp_admm"])
    @pytest.mark.parametrize("command", ["run", "plan", "validate"])
    def test_unusable_budget_rejected(self, capsys, command, algorithm, flag, value, message):
        code = cli.main([command, "--algorithm", algorithm, "--synthetic-n", "120",
                         "--n-agents", "3", "--T", "2", flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"padmm: error: {message}\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--eta", "0", "eta must be > 0, got 0"),
        ("--eta", "-1", "eta must be > 0, got -1"),
        ("--lambda-hat", "-1", "lambda_hat must be >= 0, got -1"),
        ("--beta", "0", "beta must be > 0, got 0"),
        ("--beta", "-0.001", "beta must be > 0, got -0.001"),
        ("--max-iterations", "0", "max_iterations must be >= 1, got 0"),
        ("--seeds", "[-1]", "seeds must be >= 0, got -1"),
        ("--seeds", "[2, -3]", "seeds must be >= 0, got -3"),
        # one experiment listed twice would count twice in the per-round statistics
        ("--seeds", "[0,0]", "seeds must be distinct, got 0 twice"),
        ("--seeds", "[3, 1, 2, 1, 3]", "seeds must be distinct, got 3 twice"),
        ("--split-seed", "-1", "split_seed must be >= 0, got -1"),
        ("--topology-seed", "-1", "topology_seed must be >= 0, got -1"),
    ], ids=["eta=0", "eta=-1", "lambda_hat=-1", "beta=0", "beta<0", "max_iterations=0",
            "seeds<0", "one_seed<0", "seeds_repeated", "seeds_repeated_apart", "split_seed<0",
            "topology_seed<0"])
    @pytest.mark.parametrize("algorithm", ["nonprivate", "pp_admm", "ipp_admm"])
    @pytest.mark.parametrize("command", ["run", "plan", "validate"])
    def test_bad_penalty_or_regularizer_rejected(self, capsys, command, algorithm, flag, value,
                                                 message):
        code = cli.main([command, "--algorithm", algorithm, "--synthetic-n", "120",
                         "--n-agents", "3", "--T", "2", flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"padmm: error: {message}\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--test-fraction", "0", "test_fraction must be in (0, 1), got 0"),
        ("--test-fraction", "1.0", "test_fraction must be in (0, 1), got 1.0"),
        ("--synthetic-n", "1", "synthetic_n must be >= 2, got 1"),
        ("--synthetic-d", "0", "synthetic_d must be >= 1, got 0"),
    ], ids=["test_fraction=0", "test_fraction=1", "synthetic_n=1", "synthetic_d=0"])
    @pytest.mark.parametrize("algorithm", ["nonprivate", "pp_admm", "ipp_admm"])
    @pytest.mark.parametrize("command", ["run", "plan", "validate"])
    def test_bad_data_settings_rejected_before_any_data(self, monkeypatch, capsys, command,
                                                         algorithm, flag, value, message):
        monkeypatch.setattr(cli, "prepare_data", None)  # never reached
        code = cli.main([command, "--algorithm", algorithm, "--n-agents", "3", "--T", "2",
                         flag, value])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"padmm: error: {message}\n"

    def test_synthetic_sizes_are_not_checked_for_csv_input(self, tmp_path, capsys):
        rows = "".join(f"{i % 5},{i % 2}\n" for i in range(40))
        csv = tmp_path / "d.csv"
        csv.write_text("a,label\n" + rows)
        code = cli.main(["validate", "--dataset-csv", str(csv), "--label-column", "label",
                         "--positive-value", "1", "--n-agents", "2", "--synthetic-n", "1",
                         "--synthetic-d", "0"])
        assert (code, capsys.readouterr().err) == (0, "")

    @pytest.mark.parametrize("command", ["run", "plan", "validate"])
    def test_topology_seed_is_checked_for_every_topology(self, capsys, command):
        code = cli.main([command, "--algorithm", "pp_admm", "--synthetic-n", "120",
                         "--n-agents", "3", "--T", "2", "--topology", "ring",
                         "--topology-seed", "-1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "padmm: error: topology_seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("command", ["run", "plan", "validate"])
    def test_gated_run_rejects_a_loss_cap_that_is_not_positive(self, capsys, command, value):
        code = cli.main([command, "--algorithm", "ipp_admm", "--synthetic-n", "120",
                         "--n-agents", "3", "--T", "2", "--c-loss", value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"padmm: error: c_loss must be > 0, got {value}\n"

    @pytest.mark.parametrize("value", ["0", "1", "-0.5"])
    @pytest.mark.parametrize("command", ["run", "plan", "validate"])
    def test_gated_run_rejects_an_svt_budget_fraction_outside_0_1(self, capsys, command, value):
        code = cli.main([command, "--algorithm", "ipp_admm", "--synthetic-n", "120",
                         "--n-agents", "3", "--T", "2", "--svt-budget-fraction", value])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == ("padmm: error: svt_budget_fraction must be in (0, 1) in gated "
                                f"mode, got {value}\n")

    def test_loss_cap_is_checked_only_where_it_is_used(self, capsys):
        code = cli.main(["validate", "--algorithm", "pp_admm", "--synthetic-n", "120",
                         "--n-agents", "3", "--T", "2", "--c-loss", "0"])
        assert (code, capsys.readouterr().err) == (0, "")

    @pytest.mark.parametrize("algorithm", ["pp_admm", "ipp_admm"])
    @pytest.mark.parametrize("command", ["run", "plan", "validate"])
    def test_lambda_hat_below_the_floor_rejected(self, capsys, command, algorithm):
        code = cli.main([command, "--algorithm", algorithm, "--synthetic-n", "120",
                         "--n-agents", "3", "--T", "2", "--lambda-hat", "0.001"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("padmm: error: lambda_hat 0.001 below the planned floor ")

    @pytest.mark.parametrize("algorithm", ["pp_admm", "ipp_admm"])
    def test_lambda_hat_floor_tolerance(self, capsys, algorithm):
        argv = ["--algorithm", algorithm, "--synthetic-n", "120", "--n-agents", "3", "--T", "2"]
        assert cli.main(["plan"] + argv) == 0
        floor = json.loads(capsys.readouterr().out)["lambda_hat_floor"]
        for scale, code in ((1.0, 0), (1 - 1e-13, 0), (1 - 1e-11, 1)):
            assert cli.main(["validate"] + argv + ["--lambda-hat", repr(floor * scale)]) == code
        assert capsys.readouterr().err.count("below the planned floor") == 1

    def test_zero_regularizer_runs_nonprivate(self, capsys):
        code = cli.main(["run", "--synthetic-n", "120", "--n-agents", "3", "--T", "2",
                         "--lambda-hat", "0"])
        assert (code, capsys.readouterr().err) == (0, "")

    def test_parser_is_built_once_and_keeps_no_values(self, capsys):
        assert cli._parser() is cli._parser()
        argv = ["validate", "--synthetic-n", "120", "--n-agents", "3"]
        assert cli.main(argv + ["--T", "0"]) == 1
        assert cli.main(argv) == 0  # T is back at its default
        assert capsys.readouterr().out.endswith("config OK\n")

    @pytest.mark.parametrize("command", ["run", "plan", "validate"])
    def test_positive_value_is_label_text(self, tmp_path, capsys, command):
        rows = "".join(f"{i % 5},{(i * 3) % 7},{i % 2}\n" for i in range(40))
        csv = tmp_path / "d.csv"
        csv.write_text("a,b,label\n" + rows)
        code = cli.main([command, "--algorithm", "pp_admm", "--dataset-csv", str(csv),
                         "--label-column", "label", "--positive-value", "1",
                         "--n-agents", "2", "--T", "2"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        if command == "run":
            assert json.loads(captured.out.split("\n")[0])["positive_value"] == "1"

    def test_output_names_a_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = cli.main(["run", "--synthetic-n", "80", "--synthetic-d", "2", "--n-agents", "2",
                         "--T", "1", "--output", "1"])
        assert (code, capsys.readouterr().out) == (0, "")
        assert json.loads((tmp_path / "1").read_text().split("\n")[0])["output"] == "1"

    @pytest.mark.parametrize("algorithm", ["pp_admm", "ipp_admm"])
    def test_insecure_flag_reports_inf(self, tmp_path, capsys, algorithm):
        out = tmp_path / "r.ndjson"
        code = cli.main([
            "run", "--algorithm", algorithm, "--synthetic-n", "80",
            "--synthetic-d", "2", "--n-agents", "2", "--topology", "complete",
            "--T", "2", "--beta", "1e-3", "--insecure-no-noise",
            "--output", str(out),
        ])
        assert code == 0
        assert "NO differential privacy" in capsys.readouterr().err
        lines = [json.loads(line) for line in out.read_text().strip().split("\n")]
        summary = lines[-1]
        assert summary["privacy"]["epsilon_sufficient"] == "inf"
        assert summary["privacy"]["epsilon_conservative"] == "inf"
        # nothing was released with noise, so no spend is finite either
        assert summary["privacy"]["total_rho"] == "inf"
        assert summary["privacy"]["per_agent_rho"] == {"0": "inf", "1": "inf"}
        rounds = [line for line in lines if line.get("type") == "round"]
        assert [r["cumulative_rho"] for r in rounds] == [{"0": "inf", "1": "inf"}] * 2
