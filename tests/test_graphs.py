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


def test_basic_graph_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert list(g.neighbors(1)) == [0, 2]
    assert g.deg == (1, 2, 2, 1)


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [(0, 0)])


def test_graph_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
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
    prof = structural_profile(path_graph(7))
    assert prof.leaves == frozenset({0, 6})
    assert prof.supports == frozenset({1, 5})
    assert prof.core == frozenset({2, 3, 4})
    assert prof.delta_star == 2
    assert prof.leaf_count == 2 and prof.support_count == 2
    assert prof.odd_vertices == frozenset({0, 6})
    assert prof.is_tree and prof.is_connected


def test_profile_star():
    prof = structural_profile(star_graph(5))
    assert prof.core == frozenset()
    assert prof.delta_star is None
    assert prof.leaf_count == 4 and prof.support_count == 1


def test_profile_complete5():
    prof = structural_profile(complete_graph(5))
    assert prof.isolated == prof.leaves == prof.supports == frozenset()
    assert prof.core == frozenset(range(5))
    assert prof.delta_star == 4
    assert prof.leaf_count == 0 and prof.support_count == 0
    assert not prof.odd_vertices


def test_profile_invariants_random_sweep():
    for i in range(30):
        n = 4 + i % 8
        g = random_connected(n, 0.4, derive_seed(99, i))
        prof = structural_profile(g)
        covered = prof.isolated | prof.leaves | prof.supports | prof.core
        assert covered == frozenset(range(n))
        assert not prof.core & (prof.isolated | prof.leaves | prof.supports)
        leaf_mask = prof.leaves
        for v in prof.core:
            assert g.deg[v] >= 2
            assert not any(u in leaf_mask for u in g.neighbors(v))
        for v in prof.supports:
            assert any(u in prof.leaves for u in g.neighbors(v))
        if n >= 2:
            assert prof.leaf_count >= prof.support_count
        if prof.core:
            assert prof.delta_star >= max(2, prof.delta)


def test_connectivity_and_tree_flags():
    assert cycle_graph(5).is_connected()
    assert not cycle_graph(5).is_tree()
    assert path_graph(6).is_tree()
    two_parts = Graph(4, [(0, 1), (2, 3)])
    assert not two_parts.is_connected()
    prof = structural_profile(two_parts)
    assert not prof.is_connected and not prof.is_tree
    assert Graph(1).is_connected()
    # The profile's flags come from one BFS; they must agree with the methods,
    # also on a disconnected graph with m = n - 1 and on the empty graph.
    triangle_and_point = Graph(4, [(0, 1), (1, 2), (0, 2)])
    for g in (Graph(0), Graph(1), path_graph(6), cycle_graph(5), two_parts, triangle_and_point):
        prof = structural_profile(g)
        assert (prof.is_connected, prof.is_tree) == (g.is_connected(), g.is_tree())


def test_isolated_vertices_in_profile():
    g = Graph(3, [(0, 1)])
    prof = structural_profile(g)
    assert prof.isolated == frozenset({2})
    assert prof.leaves == frozenset({0, 1})
    assert prof.supports == frozenset({0, 1})
    assert prof.core == frozenset()


def test_spider_profile():
    g = spider_graph(3, 2)
    assert g.n == 7 and g.m == 6
    prof = structural_profile(g)
    assert prof.leaf_count == 3 and prof.support_count == 3
    assert prof.core == frozenset({0})
