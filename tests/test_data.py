import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import reference
from padmm import accountant, data, engine, topology
from reference import agent_shards, blocks, centralized_reference, drawn_blobs, partition, subset


def write_csv(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadCsv:
    def test_label_mapping(self, tmp_path):
        p = write_csv(tmp_path, "a,b,income\n1,2,>50K\n3,4,<=50K\n")
        ds = data.load_csv(p, "income", ">50K")
        assert list(ds.labels) == [1, -1]
        assert ds.features.shape[1] == 2

    def test_three_label_values_rejected(self, tmp_path):
        p = write_csv(tmp_path, "a,y\n1,x\n2,y\n3,z\n")
        with pytest.raises(data.DataError, match="distinct"):
            data.load_csv(p, "y", "x")

    def test_wide_feature_count(self, tmp_path):
        header = ",".join(f"f{j}" for j in range(41)) + ",y\n"
        row = ",".join("1" for _ in range(41))
        p = write_csv(tmp_path, header + row + ",pos\n" + row + ",neg\n")
        assert data.load_csv(p, "y", "pos").features.shape[1] == 41

    def test_missing_file(self, tmp_path):
        with pytest.raises(data.DataError, match="no such file"):
            data.load_csv(tmp_path / "nope.csv", "y", "x")

    def test_positive_value_not_a_label(self, tmp_path):
        p = write_csv(tmp_path, "a,y\n1,Yes\n2,No\n3,Yes\n")
        with pytest.raises(data.DataError, match=r"'yes'.*\['No', 'Yes'\]"):
            data.load_csv(p, "y", "yes")

    def test_unparsable_cell_reports_location(self, tmp_path):
        p = write_csv(tmp_path, "a,y\n1,x\nbad,y\n")
        with pytest.raises(data.DataError, match="row 3.*'a'"):
            data.load_csv(p, "y", "x")


def preprocess(ds):
    """ds's features normalized in place with their own maxima, as synthetic_blobs does."""
    x = ds.features.copy()
    data.normalize(x, data.column_scales(x))
    return x


class TestPreprocess:
    def test_column_max_scaling(self):
        ds = data.Dataset(np.array([[2.0], [4.0]]), np.array([1, -1]))
        out = preprocess(ds)
        assert np.allclose(out[:, 0], [0.5, 1.0])

    def test_l2_projection(self):
        # post-column-scaling norm 2 -> scaled to norm 1
        ds = data.Dataset(np.array([[1.0, 1.0, 1.0, 1.0]]) , np.array([1]))
        out = preprocess(ds)
        assert np.linalg.norm(out[0]) == pytest.approx(1.0)

    def test_inside_ball_unchanged(self):
        ds = data.Dataset(np.array([[3.0, 0.0], [0.3, 0.0]]), np.array([1, -1]))
        out = preprocess(ds)
        assert out[1, 0] == pytest.approx(0.1)

    def test_zero_column_untouched(self):
        ds = data.Dataset(np.array([[0.0, 2.0], [0.0, 1.0]]), np.array([1, -1]))
        out = preprocess(ds)
        assert np.all(out[:, 0] == 0)

    def test_invariants_on_random_data(self):
        rng = np.random.default_rng(0)
        ds = data.Dataset(rng.normal(size=(50, 7)) * 10, np.where(rng.random(50) < 0.5, 1, -1))
        out = preprocess(ds)
        assert np.abs(out).max() <= 1 + 1e-9
        assert np.linalg.norm(out, axis=1).max() <= 1 + 1e-9

    @pytest.mark.parametrize("n, d", [(1, 1), (7, 3), (2 * data._CHUNK + 5, 3), (3000, 20),
                                      (999, 7), (999, 8), (130, 2)])
    def test_equals_the_whole_array_form_bit_for_bit(self, n, d):
        # chunked, in place and on stacked (k, m, d) shapes: the bits of reference.preprocess;
        # rows of fewer than 8 entries are summed a column at a time, longer ones by numpy
        rng = np.random.default_rng(n)
        ds = data.Dataset(rng.normal(size=(n, d)) * rng.uniform(0.1, 10, size=d),
                          np.ones(n))
        scales = reference.column_scales(ds)
        expected = reference.preprocess(ds, scales / 2)  # held-out form: norms above 1 capped
        assert data.column_scales(ds.features).tobytes() == scales.tobytes()
        x = ds.features.copy()
        data.normalize(x, scales / 2)
        assert x.tobytes() == expected.features.tobytes()
        if n % 3 == 0:
            stacked = ds.features.reshape(3, n // 3, d).copy()
            data.normalize(stacked, scales / 2)
            assert stacked.tobytes() == expected.features.tobytes()

    def test_all_zero_columns_scale_by_one(self):
        # a (k, m, d) array: one column of 0.0 and -0.0, one of -0.0 only
        x = np.array([[[0.0, -0.0]], [[-0.0, -0.0]]])
        assert data.column_scales(x).tolist() == [1.0, 1.0]

    def test_rejects_an_array_it_cannot_write_in_place(self):
        x = np.ones((4, 6))[:, ::2]
        with pytest.raises(data.DataError, match="C-contiguous"):
            data.normalize(x, np.ones(3))


finite_or_signed_zero = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                  st.sampled_from([0.0, -0.0]))


class TestColumnMaxAbs:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3 * data._FOLD + 5).flatmap(lambda n: st.integers(0, 6).flatmap(
        lambda d: hnp.arrays(np.float64, (n, d), elements=finite_or_signed_zero))))
    @example(np.array([[-0.0]]))
    @example(np.array([[-0.0, 2.0, -3.0]]))
    @example(np.full((data._FOLD + 3, 2), -0.0))
    @example(np.arange(-2.0 * data._FOLD - 1, 1.0).reshape(-1, 1))
    def test_equals_max_of_abs(self, x):
        got = data.column_max_abs(x)
        assert got.tobytes() == np.abs(x).max(axis=0).tobytes()

    def test_stacked_blocks_fold_over_every_sample(self):
        x = np.random.default_rng(0).normal(size=(3, 50, 4))
        assert data.column_max_abs(x).tobytes() == np.abs(x).max(axis=(0, 1)).tobytes()


def indexed_dataset(n):
    """A one-feature dataset whose feature is the sample's index."""
    index = np.arange(n)
    return data.Dataset(index[:, np.newaxis].astype(float), np.where(index % 3, 1, -1))


def reference_shards(ds, n_agents, seed):
    """Shards from an explicit sample-to-agent assignment over the seeded permutation."""
    n = ds.n_samples
    perm = np.random.default_rng(seed).permutation(n)
    sizes = np.full(n_agents, n // n_agents)
    sizes[: n % n_agents] += 1
    assignment = np.empty(n, dtype=int)
    start = 0
    for agent, size in enumerate(sizes):
        assignment[perm[start : start + size]] = agent
        start += size
    return [subset(ds, np.flatnonzero(assignment == i)) for i in range(n_agents)]


class TestPartition:
    def test_equal_blocks(self):
        ds = drawn_blobs(35000, 3, 2.0, 0)
        parts = agent_shards(partition(ds, 5, 0))
        assert all(p.n_samples == 7000 for p in parts)

    def test_near_equal_blocks(self):
        ds = drawn_blobs(10, 2, 1.0, 0)
        parts = agent_shards(partition(ds, 3, 0))
        sizes = sorted(p.n_samples for p in parts)
        assert sizes == [3, 3, 4]

    def test_disjoint_cover(self):
        ds = indexed_dataset(100)
        parts = agent_shards(partition(ds, 7, 3))
        all_idx = np.abs(np.concatenate([p.features[:, 0] for p in parts]))  # the shards hold y x
        assert sorted(all_idx) == list(range(100))

    def test_deterministic(self):
        ds = drawn_blobs(100, 2, 1.0, 0)
        a = agent_shards(partition(ds, 4, 9))
        b = agent_shards(partition(ds, 4, 9))
        assert all(np.array_equal(p.features, q.features) for p, q in zip(a, b))

    @pytest.mark.parametrize(
        "n, n_agents, seed", [(100, 7, 3), (10, 3, 0), (35, 5, 1), (9, 9, 2), (5, 1, 4)]
    )
    def test_matches_assignment_reference(self, n, n_agents, seed):
        # Same shards, sizes (first n % n_agents one larger) and in-shard order.
        ds = indexed_dataset(n)
        parts = agent_shards(partition(ds, n_agents, seed))
        expected = reference_shards(ds, n_agents, seed)
        assert len(parts) == n_agents
        for p, e in zip(parts, expected):
            assert np.array_equal(p.features, e.labels[:, None] * e.features)

    @pytest.mark.parametrize(
        "n, n_agents, seed",
        [(100, 7, 3), (10, 3, 0), (35, 5, 1), (9, 9, 2), (5, 1, 4), (1003, 7, 1)],
    )
    def test_blocks_equal_the_reference_shards_stacked(self, n, n_agents, seed):
        # bit for bit the old two-step form: per-agent shards, then stacked by size
        ds = indexed_dataset(n)
        got = partition(ds, n_agents, seed)
        shards = reference_shards(ds, n_agents, seed)
        expected = blocks(shards)
        assert len(got) == len(expected) == (1 if n % n_agents == 0 else 2)
        for g, e in zip(got, expected, strict=True):
            assert g.rows.tolist() == e.rows.tolist()
            a, b = g.features, e.features
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            assert a.flags.c_contiguous
            assert g.n_samples == sum(shards[i].n_samples for i in g.rows)
            assert np.shares_memory(a, got[0].features.base)  # one buffer, gathered with one take

    def test_two_size_blocks_hold_the_signed_reference_shards(self):
        # y x of each reference shard bit for bit; sizes (and the plan's dataset sizes) as before
        ds = drawn_blobs(1003, 3, 2.0, 0)
        shards = reference_shards(ds, 7, 1)  # 144 x 2, then 143 x 5
        got = partition(ds, 7, 1)
        assert [g.n_samples for g in got] == [2 * 144, 5 * 143]
        for g in got:
            for j, i in enumerate(g.rows):
                signed = shards[i].labels[:, None] * shards[i].features
                assert g.features[j].tobytes() == signed.tobytes()
        plan = accountant.plan_budget(1.0, 1e-4, 30, 0.001)
        sigma_i1 = engine.calibrate_run(got, topology.ring(7), plan, 0.5, 1e-3)[1]
        sizes = np.array([shards[i].n_samples for i in range(7)])
        expected = accountant.calibrate(plan, sizes, np.full(7, 2), 0.5, 1e-3)[1]
        assert sigma_i1.tolist() == expected.tolist()

    def test_too_many_agents(self):
        ds = drawn_blobs(4, 2, 1.0, 0)
        with pytest.raises(data.DataError):
            partition(ds, 5, 0)


class TestBlocks:
    def test_partition_shards_stack_by_size(self):
        ds = drawn_blobs(1003, 3, 2.0, 0)
        parts = reference_shards(ds, 7, 1)  # sizes 144 x 2, then 143 x 5
        shard_blocks = partition(ds, 7, 1)
        assert [list(b.rows) for b in shard_blocks] == [[0, 1], [2, 3, 4, 5, 6]]
        for b in shard_blocks:
            assert b.features.shape == (len(b.rows), parts[b.rows[0]].n_samples, 3)
            for j, i in enumerate(b.rows):
                assert np.array_equal(b.features[j], parts[i].labels[:, None] * parts[i].features)

    def test_hand_built_list_groups_by_size(self):
        # three sizes, agents of one size not adjacent, one shard used twice
        ds = indexed_dataset(30)
        parts = [subset(ds, range(a, b))
                 for a, b in ((0, 4), (4, 10), (10, 14), (14, 17), (0, 4))]
        stacked = blocks(parts)
        assert [list(b.rows) for b in stacked] == [[0, 2, 4], [1], [3]]
        for b in stacked:
            for j, i in enumerate(b.rows):
                assert np.array_equal(b.features[j], parts[i].labels[:, None] * parts[i].features)
        assert not np.shares_memory(stacked[0].features, parts[0].features)

    def test_labels_are_float(self):
        ds = data.Dataset(np.zeros((3, 1)), np.array([1, -1, 1]))
        assert ds.labels.dtype == np.float64
        assert list(ds.labels) == [1.0, -1.0, 1.0]
        assert drawn_blobs(10, 2, 1.0, 0).labels.dtype == np.float64

    @pytest.mark.parametrize("bad", [0.0, 2.0, -0.5, np.nan, np.inf])
    def test_labels_other_than_plus_minus_one_rejected(self, bad):
        with pytest.raises(data.DataError, match=r"labels must be -1 or \+1"):
            data.Dataset(np.zeros((3, 1)), np.array([1.0, -1.0, bad]))


class TestSyntheticBlobs:
    def test_deterministic(self):
        a = drawn_blobs(50, 3, 2.0, 5)
        b = drawn_blobs(50, 3, 2.0, 5)
        assert np.array_equal(a.features, b.features)

    def test_minimal_case(self):
        ds = drawn_blobs(2, 1, 1.0, 0)
        assert sorted(ds.labels) == [-1, 1]

    def test_separable_fit(self):
        # a centralized logistic fit should separate well-spread clusters
        from padmm.metrics import error_rate
        from padmm.solver import SolverConfig

        ds = drawn_blobs(100, 2, 5.0, 0)
        theta = centralized_reference(ds, 0.01, SolverConfig(beta=1e-5))
        assert error_rate([theta], ds) < 0.05

    @pytest.mark.parametrize("n, d", [(2, 1), (2000, 5), (1001, 20), (16385, 3), (24577, 2)])
    def test_equals_the_preprocess_form_bit_for_bit(self, n, d):
        # the last two draw several chunks, and the clusters meet on and inside a chunk edge
        got = drawn_blobs(n, d, 5.0, 3)
        expected = reference.synthetic_blobs(n, d, 5.0, 3)
        assert got.features.tobytes() == expected.features.tobytes()
        assert got.labels.tobytes() == expected.labels.tobytes()

    @pytest.mark.parametrize("n, d", [(2, 1), (1001, 20), (2 * data._CHUNK + 1, 3)])
    def test_any_row_order_holds_the_identity_bits(self, n, d):
        order = np.random.default_rng(n).permutation(n)
        got = np.empty((n, d))
        data.draw_blobs(got, 5.0, 3, order)
        expected = drawn_blobs(n, d, 5.0, 3).features[order]
        assert got.tobytes() == expected.tobytes()

    def test_normalized(self):
        ds = drawn_blobs(200, 4, 3.0, 1)
        assert np.linalg.norm(ds.features, axis=1).max() <= 1 + 1e-9
