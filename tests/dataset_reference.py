"""Graph-by-graph reference for the experiment's dataset.

Each Erdos-Renyi graph is drawn with its own `rng.random` call, labelled by
a union-find over its edge list, kept while its class has room, one graph at
a time, and built by one CZ sign flip per edge on |+>^n.  Nothing from the
package's block draw, its vectorised connectivity test or its subset sweep
is used, so a test that compares `generate_dataset` with `reference_dataset`
compares two independent constructions.
"""

from typing import List, Sequence, Tuple

import numpy as np

from symlie.errors import DatasetGenerationFailed
from symlie.variance_lab.experiment import _stream


def cz_graph_state(edges: Sequence[Tuple[int, int]], n: int) -> np.ndarray:
    """prod_{(a,b) in E} CZ_{a,b} |+>^n: the amplitudes of |+>^n times the
    parity of the CZ gates whose two bits are set, one edge at a time."""
    index = np.arange(1 << n)
    odd = np.zeros(1 << n, dtype=np.int8)
    for a, b in edges:
        odd ^= ((index >> (n - 1 - a)) & (index >> (n - 1 - b)) & 1).astype(np.int8)
    plus = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)
    return plus * np.where(odd, -1.0, 1.0)


def random_graph(n: int, p: float, rng: np.random.Generator) -> List[Tuple[int, int]]:
    """Erdos-Renyi G(n, p); pairs are tried in (i, j), i < j order.

    One vector draw of n(n-1)/2 coins reads the same stream values as one
    scalar draw per pair."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    coins = rng.random(len(pairs))
    return [pair for pair, coin in zip(pairs, coins) if coin < p]


def is_connected(n: int, edges: Sequence[Tuple[int, int]]) -> bool:
    """Union-find connectivity over the edge list."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components == 1


def reference_dataset(n, cfg):
    """(states, labels, draws): the balanced dataset drawn one graph at a
    time with the package's stream, quotas, retry cap and error message, and
    the number of graphs it drew."""
    rng = _stream(cfg.seed, 0, n)
    quota = {1.0: cfg.dataset_size // 2, -1.0: cfg.dataset_size // 2}
    states, labels = [], []
    attempts = 0
    while quota[1.0] or quota[-1.0]:
        attempts += 1
        if attempts > cfg.dataset_retry_cap:
            raise DatasetGenerationFailed(
                f"could not balance classes for n={n}, p={cfg.edge_probability} "
                f"within {cfg.dataset_retry_cap} draws (still need "
                f"{quota[1.0]} connected, {quota[-1.0]} disconnected)")
        edges = random_graph(n, cfg.edge_probability, rng)
        label = 1.0 if is_connected(n, edges) else -1.0
        if quota[label]:
            quota[label] -= 1
            states.append(cz_graph_state(edges, n))
            labels.append(label)
    return np.array(states), np.array(labels), attempts
