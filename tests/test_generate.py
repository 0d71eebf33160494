import pytest

from signeddom import (
    complete_graph,
    cycle_graph,
    derive_seed,
    enumerate_labeled_trees,
    generate,
    path_graph,
    prufer_to_edges,
    random_connected,
    random_tree,
    spider_graph,
    star_graph,
    structural_profile,
)


def test_complete_graph_edge_count():
    g = complete_graph(5)
    assert g.n == 5 and g.m == 10


def test_path_cycle_star_shapes():
    assert path_graph(1).m == 0
    assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))
    assert cycle_graph(3).m == 3
    assert star_graph(5).deg[0] == 4
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        path_graph(0)


def test_spider_shape():
    g = spider_graph(3, 2)
    prof = structural_profile(g)
    assert g.n == 7
    assert prof.leaf_count == 3 and prof.support_count == 3
    with pytest.raises(ValueError):
        spider_graph(0, 1)


def test_random_tree_is_tree():
    g = random_tree(7, 42)
    assert g.n == 7 and g.m == 6 and g.is_connected()
    for n in (1, 2, 3, 9, 12):
        t = random_tree(n, 5)
        assert t.m == n - 1 if n > 1 else t.m == 0
        assert t.is_connected()


def test_generators_deterministic():
    assert random_tree(9, 7) == random_tree(9, 7)
    assert random_connected(8, 0.4, 11) == random_connected(8, 0.4, 11)
    a = generate("random_connected", {"n": 8, "p": 0.4}, seed=11)
    b = generate("random_connected", {"n": 8, "p": 0.4}, seed=11)
    assert a == b
    assert any(random_tree(9, s) != random_tree(9, s + 1) for s in range(5))


def test_random_connected_validation():
    g = random_connected(6, 0.5, 3)
    assert g.is_connected()
    with pytest.raises(ValueError, match="probability"):
        random_connected(5, 0.0, 1)
    with pytest.raises(ValueError, match="probability"):
        random_connected(5, 1.5, 1)


def test_random_connected_retry_cap():
    with pytest.raises(ValueError, match="retries"):
        random_connected(10, 1e-9, 0)


def test_generate_dispatch():
    assert generate("complete", {"n": 4}) == complete_graph(4)
    assert generate("spider", {"legs": 2, "leg_len": 3}) == spider_graph(2, 3)
    with pytest.raises(ValueError, match="unknown generator"):
        generate("torus", {"n": 4})


def test_prufer_decode_roundtrip_shape():
    edges = prufer_to_edges((3, 3, 3, 4), 6)
    assert len(edges) == 5
    seen = set()
    for u, v in edges:
        assert u != v
        assert (u, v) not in seen
        seen.add((u, v))


def test_enumerate_tree_counts():
    assert len(list(enumerate_labeled_trees(2))) == 1
    assert len(list(enumerate_labeled_trees(4))) == 16
    assert len(list(enumerate_labeled_trees(5))) == 125


def test_enumerate_trees_distinct_and_valid():
    seen = set()
    for g in enumerate_labeled_trees(5):
        assert g.n == 5 and g.m == 4 and g.is_connected()
        seen.add(g.edges)
    assert len(seen) == 125


def test_enumerate_tree_cap():
    with pytest.raises(ValueError):
        list(enumerate_labeled_trees(1))
    with pytest.raises(ValueError):
        list(enumerate_labeled_trees(10))


def test_derive_seed_is_pure_and_spreads():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    values = {derive_seed(42, i) for i in range(100)}
    assert len(values) == 100
    assert all(0 <= v < 2**64 for v in values)
