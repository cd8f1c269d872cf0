import numpy as np
import pytest

from padmm.topology import (SPANNING_TREE_RETRIES, Graph, complete, random_connected,
                             ring)


class TestConstructions:
    def test_ring_neighbors(self):
        g = ring(4)
        assert g.neighbors[0] == (1, 3)

    def test_ring3_equals_complete3(self):
        assert ring(3).edges == complete(3).edges

    def test_edge_counts(self):
        assert len(ring(5).edges) == 5
        assert len(complete(5).edges) == 10

    def test_complete_neighbors(self):
        g = complete(5)
        for i in range(5):
            assert g.neighbors[i] == tuple(j for j in range(5) if j != i)

    def test_minimums(self):
        with pytest.raises(ValueError):
            ring(2)
        with pytest.raises(ValueError):
            Graph(1, [])


class TestValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(0, 0), (0, 1), (1, 2)])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            Graph(4, [(0, 1), (2, 3)])


class TestRandomConnected:
    def test_full_probability_is_complete(self):
        g = random_connected(6, 1.0, 0)
        assert g.edges == complete(6).edges

    def test_two_nodes_forced_edge(self):
        g = random_connected(2, 0.01, 0)
        assert g.edges == ((0, 1),)

    def test_deterministic(self):
        a = random_connected(8, 0.4, 11)
        b = random_connected(8, 0.4, 11)
        assert a.edges == b.edges

    def test_always_connected_and_symmetric(self):
        for seed in range(20):
            g = random_connected(7, 0.2, seed)
            for i in range(7):
                for j in g.neighbors[i]:
                    assert i in g.neighbors[j]
                    assert i != j

    @pytest.mark.parametrize("seed", range(5))
    def test_spanning_tree_fallback(self, seed):
        # at edge_prob 0.01 every one of the retried draws on 8 agents is disconnected
        g = random_connected(8, 0.01, seed)
        rng = np.random.default_rng(seed)
        rng.random(SPANNING_TREE_RETRIES * 28)  # the retries' 28 pair draws each
        perm = rng.permutation(8).tolist()
        path = {(min(a, b), max(a, b)) for a, b in zip(perm, perm[1:])}
        assert path <= set(g.edges)
        assert len(g.edges) >= 7
        assert g.edges == random_connected(8, 0.01, seed).edges
        assert list(g.edges) == sorted(g.edges)
        for i, js in enumerate(g.neighbors):
            assert list(js) == sorted(js)
            for j in js:
                assert i in g.neighbors[j]
