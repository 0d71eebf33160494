import random

import pytest

from signeddom import (
    Graph,
    complete_graph,
    cycle_graph,
    derive_seed,
    path_graph,
    random_connected,
    spider_graph,
    star_graph,
    structural_profile,
)
from signeddom.graphs import bits, leaf_first_order, mask_of, pendant_masks
from signeddom.solvers import forced_plus_mask


def test_basic_graph_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert list(g.neighbors(1)) == [0, 2]
    assert g.deg == (1, 2, 2, 1)
    # Edges are listed ascending whatever order they came in.
    assert Graph(3, [(1, 2), (0, 1)]).edges == ((0, 1), (1, 2))


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [(0, 0)])


def test_graph_rejects_duplicate_edge():
    with pytest.raises(ValueError, match=r"duplicate edge \(0,1\)"):
        Graph(3, [(0, 1), (1, 0)])


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        Graph(3, [(0, 3)])


def test_graph_size_cap():
    Graph(512)
    with pytest.raises(ValueError, match="cap"):
        Graph(513)


def test_handshake_and_even_odd_count():
    for n, p, seed in [(8, 0.4, 1), (10, 0.5, 2), (12, 0.3, 3)]:
        g = random_connected(n, p, seed)
        assert sum(g.deg) == 2 * g.m
        prof = structural_profile(g)
        assert prof.odd_count % 2 == 0


def test_profile_path7():
    g = path_graph(7)
    prof = structural_profile(g)
    assert pendant_masks(g) == (0, mask_of({0, 6}), mask_of({1, 5}))
    assert g.full_mask & ~forced_plus_mask(g) == mask_of({2, 3, 4})
    assert prof.leaf_mask == mask_of({0, 6})
    assert prof.delta_star == 2
    assert prof.leaf_count == 2 and prof.support_count == 2
    assert [v for v in range(g.n) if g.deg[v] % 2] == [0, 6] and prof.odd_count == 2
    assert prof.is_tree and prof.is_connected


def test_profile_star():
    g = star_graph(5)
    prof = structural_profile(g)
    assert forced_plus_mask(g) == g.full_mask
    assert prof.delta_star is None
    assert prof.leaf_count == 4 and prof.support_count == 1


def test_profile_complete5():
    g = complete_graph(5)
    prof = structural_profile(g)
    assert pendant_masks(g) == (0, 0, 0) and prof.leaf_mask == 0
    assert forced_plus_mask(g) == 0
    assert prof.delta_star == 4
    assert prof.leaf_count == 0 and prof.support_count == 0
    assert prof.odd_count == 0


def test_profile_invariants_random_sweep():
    for i in range(30):
        n = 4 + i % 8
        g = random_connected(n, 0.4, derive_seed(99, i))
        prof = structural_profile(g)
        isolated, leaves, supports = pendant_masks(g)
        pinned = forced_plus_mask(g)
        core = g.full_mask & ~pinned
        assert pinned == isolated | leaves | supports
        assert not isolated & (leaves | supports)
        assert prof.leaf_mask == leaves
        assert (prof.leaf_count, prof.support_count) == (leaves.bit_count(), supports.bit_count())
        for v in bits(core):
            assert g.deg[v] >= 2
            assert not g.adj[v] & leaves
        for v in bits(supports):
            assert g.adj[v] & leaves
        if n >= 2:
            assert prof.leaf_count >= prof.support_count
        if core:
            assert prof.delta_star == min(g.deg[v] for v in bits(core))
            assert prof.delta_star >= max(2, prof.delta)
        else:
            assert prof.delta_star is None


def test_connectivity_and_tree_flags():
    assert cycle_graph(5).is_connected()
    assert not structural_profile(cycle_graph(5)).is_tree
    assert structural_profile(path_graph(6)).is_tree
    two_parts = Graph(4, [(0, 1), (2, 3)])
    assert not two_parts.is_connected()
    prof = structural_profile(two_parts)
    assert not prof.is_connected and not prof.is_tree
    assert Graph(1).is_connected()
    # The profile's flags come from one BFS; a tree is connected with
    # m = n - 1, which a disconnected graph with m = n - 1 and the empty
    # graph are not.
    triangle_and_point = Graph(4, [(0, 1), (1, 2), (0, 2)])
    for g in (Graph(0), Graph(1), path_graph(6), cycle_graph(5), two_parts, triangle_and_point):
        prof = structural_profile(g)
        tree = g.is_connected() and g.n >= 1 and g.m == g.n - 1
        assert (prof.is_connected, prof.is_tree) == (g.is_connected(), tree)


def test_isolated_vertices_in_profile():
    g = Graph(3, [(0, 1)])
    prof = structural_profile(g)
    assert pendant_masks(g) == (mask_of({2}), mask_of({0, 1}), mask_of({0, 1}))
    assert forced_plus_mask(g) == g.full_mask
    assert prof.leaf_mask == mask_of({0, 1})
    assert prof.leaf_count == 2 and prof.support_count == 2
    assert prof.delta_star is None


def test_spider_profile():
    g = spider_graph(3, 2)
    assert g.n == 7 and g.m == 6
    prof = structural_profile(g)
    assert prof.leaf_count == 3 and prof.support_count == 3
    assert g.full_mask & ~forced_plus_mask(g) == mask_of({0})
    assert prof.delta_star == 3


def _pendant_classes(g):
    """Isolated, leaf and support vertex sets, straight from the definitions."""
    nbrs = [{u for u in range(g.n) if g.has_edge(u, v)} for v in range(g.n)]
    isolated = {v for v in range(g.n) if not nbrs[v]}
    leaves = {v for v in range(g.n) if len(nbrs[v]) == 1}
    supports = {v for v in range(g.n) if nbrs[v] & leaves}
    return isolated, leaves, supports


def test_vertex_classes_match_their_definitions():
    rng = random.Random(derive_seed(31, 0))
    graphs = [Graph(0), Graph(1), Graph(2, [(0, 1)]), Graph(3, [(0, 1)]), star_graph(4)]
    for _ in range(60):
        n = rng.randint(1, 12)
        p = rng.choice((0.1, 0.2, 0.4))
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    assert any(_pendant_classes(g)[0] and _pendant_classes(g)[1] for g in graphs)
    for g in graphs:
        isolated, leaves, supports = _pendant_classes(g)
        assert pendant_masks(g) == (mask_of(isolated), mask_of(leaves), mask_of(supports))
        assert forced_plus_mask(g) == mask_of(isolated | leaves | supports)
        prof = structural_profile(g)
        assert prof.leaf_mask == mask_of(leaves)
        assert (prof.leaf_count, prof.support_count) == (len(leaves), len(supports))
        core = set(range(g.n)) - isolated - leaves - supports
        assert prof.delta_star == min((g.deg[v] for v in core), default=None)
        ends = [v for e in g.edges for v in e]
        assert prof.odd_count == sum(1 for v in range(g.n) if ends.count(v) % 2)


def _component_count(g):
    """Connected components by union-find over the edge list."""
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges:
        root[find(u)] = find(v)
    return sum(1 for v in range(g.n) if find(v) == v)


def test_leaf_first_order_finds_the_forests():
    # A graph is a forest iff m = n - (number of components). On a forest the
    # order holds every vertex once, and each vertex has at most one
    # neighbour after it (its parent), so deeper vertices come first.
    rng = random.Random(derive_seed(32, 0))
    graphs = [Graph(0), Graph(1), Graph(3), path_graph(6), star_graph(5), cycle_graph(5)]
    graphs.append(Graph(6, [(0, 1), (1, 2), (0, 2)]))  # m < n, with a cycle
    for _ in range(80):
        n = rng.randint(1, 14)
        p = rng.choice((0.08, 0.15, 0.3))
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    for i in range(10):
        graphs.append(random_connected(3 + i, 0.2, derive_seed(33, i)))
    forests = 0
    for g in graphs:
        order = leaf_first_order(g)
        assert (order is not None) == (g.m == g.n - _component_count(g)), g.edges
        if g.is_connected() and g.n:
            assert (order is not None) == structural_profile(g).is_tree
        if order is None:
            continue
        forests += 1
        assert sorted(order) == list(range(g.n))
        position = {v: i for i, v in enumerate(order)}
        for v in order:
            assert sum(1 for u in g.neighbors(v) if position[u] > position[v]) <= 1
    assert 20 < forests < len(graphs) - 20
