import pytest

from signeddom import (
    Graph,
    VertexSet,
    augment_packing,
    complete_graph,
    cycle_graph,
    derive_seed,
    greedy_limited_packing,
    limited_packing_number,
    packing_number,
    path_graph,
    random_connected,
    sdf_from_limited_packing,
    shrink_tuple_dominating,
    signed_domination,
    tuple_domination_number,
    verify_sdf,
    vertex_set_violations,
)
from signeddom.graphs import mask_of


def _lp(members, k=1):
    return VertexSet(mask_of(members), "limited_packing", k)


def _td(members, k):
    return VertexSet(mask_of(members), "tuple_dominating", k)


# -- sdf_from_limited_packing ---------------------------------------------------


def test_sdf_from_packing_k6():
    g = complete_graph(6)
    f = sdf_from_limited_packing(g, _lp({0, 1}, 2))
    assert f.weight == 2
    assert verify_sdf(g, f) == []


def test_sdf_from_packing_c6_pattern():
    g = cycle_graph(6)
    f = sdf_from_limited_packing(g, _lp({2, 5}))
    assert str(f) == "++-++-"
    assert verify_sdf(g, f) == []
    assert f.weight == 2


def test_sdf_from_empty_packing():
    g = cycle_graph(5)
    f = sdf_from_limited_packing(g, _lp(set()))
    assert f.assignment == (1,) * 5
    assert f.weight == 5


def test_sdf_from_packing_requires_min_degree_two():
    with pytest.raises(ValueError, match="minimum degree"):
        sdf_from_limited_packing(path_graph(4), _lp({0}))


def test_sdf_from_packing_rejects_invalid_packing():
    g = cycle_graph(6)  # floor(delta/2) = 1
    with pytest.raises(ValueError, match="limited packing"):
        sdf_from_limited_packing(g, _lp({0, 1}))


def test_sdf_weight_formula_on_maximum_packings():
    for i in range(12):
        g = random_connected(5 + i % 6, 0.6, derive_seed(31, i))
        delta = min(g.deg)
        if delta < 2:
            continue
        k = delta // 2
        value, witness = limited_packing_number(g, k)
        f = sdf_from_limited_packing(g, witness)
        assert verify_sdf(g, f) == []
        assert f.weight == g.n - 2 * value
        gamma_s, _ = signed_domination(g)
        assert gamma_s <= f.weight


# -- greedy_limited_packing -------------------------------------------------------


def test_greedy_examples():
    assert greedy_limited_packing(cycle_graph(6), 1).members == frozenset({0, 3})
    assert greedy_limited_packing(complete_graph(6), 2).members == frozenset({0, 1})
    assert greedy_limited_packing(Graph(1), 1).members == frozenset({0})
    with pytest.raises(ValueError):
        greedy_limited_packing(cycle_graph(4), 0)


def test_greedy_valid_and_maximal():
    for i in range(12):
        g = random_connected(4 + i % 7, 0.45, derive_seed(53, i))
        for k in (1, 2):
            vs = greedy_limited_packing(g, k)
            assert vertex_set_violations(g, vs) == []
            for v in range(g.n):
                if v in vs.members:
                    continue
                extended = VertexSet(vs.mask | 1 << v, "limited_packing", k)
                assert vertex_set_violations(g, extended) != []


# -- augment_packing ---------------------------------------------------------------


def test_augment_c6():
    g = cycle_graph(6)
    out = augment_packing(g, _lp({0, 3}), 1)
    assert out.members == frozenset({0, 1, 3})
    assert out.k == 2
    assert vertex_set_violations(g, out) == []


def test_augment_k6():
    g = complete_graph(6)
    out = augment_packing(g, _lp({0}), 1)
    assert out.members == frozenset({0, 1})
    assert vertex_set_violations(g, out) == []


def test_augment_full_set_errors():
    g = complete_graph(3)
    with pytest.raises(ValueError, match="covers all"):
        augment_packing(g, _lp(set(range(3)), 4), 4)


def test_augment_invalid_input_errors():
    g = cycle_graph(6)
    with pytest.raises(ValueError, match="limited packing"):
        augment_packing(g, _lp({0, 1}), 1)


def test_augment_chain_reaches_level_half_delta():
    # from a maximum packing up to a floor(delta/2)-limited packing of size
    # rho + floor(delta/2) - 1
    for i in range(10):
        g = random_connected(6 + i % 5, 0.7, derive_seed(67, i))
        delta = min(g.deg)
        if delta < 2:
            continue
        rho, packing = packing_number(g)
        current = VertexSet(packing.mask, "limited_packing", 1)
        for k in range(1, delta // 2):
            current = augment_packing(g, current, k)
            assert len(current.members) == rho + k
            assert vertex_set_violations(g, current) == []
        value, _ = limited_packing_number(g, delta // 2)
        assert value >= rho + delta // 2 - 1


# -- shrink_tuple_dominating --------------------------------------------------------


def test_shrink_c6():
    g = cycle_graph(6)
    out = shrink_tuple_dominating(g, _td({0, 1, 3, 4}, 2), 2)
    assert out.members == frozenset({1, 3, 4})
    assert out.k == 1
    assert vertex_set_violations(g, out) == []


def test_shrink_k5_full_set():
    g = complete_graph(5)
    out = shrink_tuple_dominating(g, _td(set(range(5)), 5), 5)
    assert out.members == frozenset({1, 2, 3, 4})
    assert vertex_set_violations(g, out) == []


def test_shrink_p2():
    g = Graph(2, [(0, 1)])
    out = shrink_tuple_dominating(g, _td({0, 1}, 2), 2)
    assert out.members == frozenset({1})
    assert vertex_set_violations(g, VertexSet(out.mask, "tuple_dominating", 1)) == []


def test_shrink_validation():
    g = cycle_graph(6)
    with pytest.raises(ValueError, match="k >= 2"):
        shrink_tuple_dominating(g, _td({0, 1, 3, 4}, 1), 1)
    with pytest.raises(ValueError, match="empty"):
        shrink_tuple_dominating(g, _td(set(), 2), 2)
    with pytest.raises(ValueError, match="tuple dominating"):
        shrink_tuple_dominating(g, _td({0, 1}, 2), 2)


def test_shrink_chain_down_to_plain_domination():
    for i in range(10):
        g = random_connected(6 + i % 5, 0.65, derive_seed(71, i))
        delta = min(g.deg)
        k = (delta + 1) // 2 + 1
        if k < 2:
            continue
        _, witness = tuple_domination_number(g, k)
        current = witness
        for down in range(k, 1, -1):
            prev_size = len(current.members)
            current = shrink_tuple_dominating(g, current, down)
            assert len(current.members) == prev_size - 1
            assert vertex_set_violations(g, current) == []
