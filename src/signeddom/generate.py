"""Deterministic graph generators and exhaustive labeled-tree enumeration.

Every generator is a pure function of its parameters and a 64-bit seed.
Random trees are drawn through uniformly random Pruefer sequences, so the
output distribution is uniform over labeled trees. ``enumerate_labeled_trees``
walks all n^(n-2) Pruefer sequences in lexicographic order.
"""

from __future__ import annotations

import itertools
import random

from .graphs import Graph

KINDS = ("complete", "path", "cycle", "star", "spider", "random_tree", "random_connected")
# Largest n that enumerate_labeled_trees accepts: 9^7 ~ 4.8 M trees at n = 9.
TREE_ENUM_MAX_N = 9

_MASK64 = (1 << 64) - 1
# Draws random_connected makes before it gives up on a connected sample.
_RETRY_CAP = 1000
# The name each sized generator's errors give its graph, and the least n it takes.
_SIZED = {
    "complete": ("complete graph", 1),
    "path": ("path", 1),
    "cycle": ("cycle", 3),
    "star": ("star", 1),
    "random_tree": ("tree", 1),
    "random_connected": ("random_connected", 1),
}


def derive_seed(master: int, index: int) -> int:
    """Per-item seed from a master seed: one splitmix64 scramble step."""
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def require_size(kind: str, n: int) -> None:
    """Raise the ValueError of the ``kind`` generator when it takes no graph on n vertices."""
    name, least = _SIZED[kind]
    _require(n >= least, f"{name} needs n >= {least}, got {n}")


def require_probability(p: float) -> None:
    """Raise the ValueError of ``random_connected`` for an edge probability outside (0, 1]."""
    _require(0.0 < p <= 1.0, f"edge probability must be in (0,1], got {p}")


def complete_graph(n: int) -> Graph:
    require_size("complete", n)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    require_size("path", n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    require_size("cycle", n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0, leaves 1..n-1."""
    require_size("star", n)
    return Graph(n, [(0, i) for i in range(1, n)])


def spider_graph(legs: int, leg_len: int) -> Graph:
    """Center 0 with ``legs`` disjoint paths of ``leg_len`` edges attached."""
    _require(legs >= 1 and leg_len >= 1, f"spider needs legs,leg_len >= 1, got {legs},{leg_len}")
    edges = []
    for leg in range(legs):
        base = 1 + leg * leg_len
        edges.append((0, base))
        edges.extend((base + i, base + i + 1) for i in range(leg_len - 1))
    return Graph(1 + legs * leg_len, edges)


def prufer_to_edges(seq, n: int):
    """Decode a Pruefer sequence of length n-2 into the n-1 tree edges."""
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    edges = []
    for s in seq:
        edges.append((leaf, s) if leaf < s else (s, leaf))
        degree[s] -= 1
        if degree[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def random_tree(n: int, seed: int) -> Graph:
    """Uniformly random labeled tree via a random Pruefer sequence."""
    require_size("random_tree", n)
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return Graph(n, prufer_to_edges(seq, n))


def random_connected(n: int, p: float, seed: int) -> Graph:
    """G(n, p) conditioned on connectivity by rejection sampling."""
    require_size("random_connected", n)
    require_probability(p)
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(_RETRY_CAP):
        edges = [e for e in pairs if rng.random() < p]
        g = Graph(n, edges)
        if g.is_connected():
            return g
    raise ValueError(f"no connected G({n},{p}) sample within {_RETRY_CAP} retries")


def generate(kind: str, params: dict, seed: int = 0) -> Graph:
    """Dispatch on ``kind``; deterministic given (kind, params, seed)."""
    if kind == "complete":
        return complete_graph(params["n"])
    if kind == "path":
        return path_graph(params["n"])
    if kind == "cycle":
        return cycle_graph(params["n"])
    if kind == "star":
        return star_graph(params["n"])
    if kind == "spider":
        return spider_graph(params["legs"], params["leg_len"])
    if kind == "random_tree":
        return random_tree(params["n"], seed)
    if kind == "random_connected":
        return random_connected(params["n"], params.get("p", 0.5), seed)
    raise ValueError(f"unknown generator kind {kind!r}; expected one of {KINDS}")


def enumerate_labeled_trees(n: int):
    """Yield all n^(n-2) labeled trees, one per Pruefer sequence, in sequence order."""
    _require(2 <= n <= TREE_ENUM_MAX_N, f"tree enumeration supports 2 <= n <= {TREE_ENUM_MAX_N}, got {n}")
    if n == 2:
        yield Graph(2, [(0, 1)])
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield Graph(n, prufer_to_edges(seq, n))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)
