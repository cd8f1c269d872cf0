"""Communication graphs: undirected, connected, no self-loops."""

from __future__ import annotations

import numpy as np

SPANNING_TREE_RETRIES = 100


class Graph:
    """Undirected connected graph on agents 0..n-1.

    edges is the sorted tuple of (i, j) pairs with i < j, and neighbors[i]
    is agent i's ascending tuple of neighbours.
    """

    def __init__(self, n: int, edges):
        if n < 2:
            raise ValueError("need at least 2 agents")
        self.n = n
        normalized = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range")
            normalized.add((min(i, j), max(i, j)))
        self.edges = tuple(sorted(normalized))
        # appending along the sorted edges leaves every list ascending
        neighbors = [[] for _ in range(n)]
        for i, j in self.edges:
            neighbors[i].append(j)
            neighbors[j].append(i)
        self.neighbors = tuple(map(tuple, neighbors))
        if not self._connected():
            raise ValueError("graph must be connected")

    def _connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            for j in self.neighbors[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == self.n


def ring(n: int) -> Graph:
    if n < 3:
        raise ValueError("a ring needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_connected(n: int, edge_prob: float, seed: int) -> Graph:
    """Erdos-Renyi draw, retried until connected; a random spanning tree is
    overlaid after repeated failures so construction always succeeds."""
    if n < 2:
        raise ValueError("need at least 2 agents")
    if not 0 < edge_prob <= 1:
        raise ValueError("edge_prob must be in (0, 1]")
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(SPANNING_TREE_RETRIES):
        edges = [e for e in pairs if rng.random() < edge_prob]
        try:
            return Graph(n, edges)
        except ValueError:
            continue
    # Fallback: connect a random permutation as a path, then add the draw.
    perm = rng.permutation(n)
    tree = [(int(perm[k]), int(perm[k + 1])) for k in range(n - 1)]
    edges = [e for e in pairs if rng.random() < edge_prob]
    return Graph(n, tree + edges)
