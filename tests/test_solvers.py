import gc
import random
import tracemalloc
from functools import partial
from itertools import combinations

import pytest

import oracles
import signeddom.solvers as solvers
from signeddom import (
    Graph,
    SignedFunction,
    SizeCapError,
    VertexSet,
    complete_graph,
    cycle_graph,
    derive_seed,
    domination_number,
    enumerate_labeled_trees,
    limited_packing_number,
    packing_number,
    partition_stats,
    path_graph,
    random_connected,
    random_tree,
    signed_domination,
    star_graph,
    tuple_domination_number,
    verify_sdf,
    vertex_set_violations,
)
from signeddom.certify import check
from signeddom.graphs import bits, leaf_first_order, mask_of
from signeddom.solvers import ForestRoute, SearchRoute, _route, _solve_packing


def _small_corpus():
    yield Graph(1)
    yield Graph(2, [(0, 1)])
    yield Graph(4, [(0, 1), (2, 3)])  # disconnected
    yield path_graph(6)
    yield cycle_graph(5)
    yield star_graph(6)
    yield complete_graph(6)
    for i in range(20):
        yield random_connected(4 + i % 5, 0.5, derive_seed(2024, i))
    for i in range(8):
        yield random_tree(4 + i % 5, derive_seed(2025, i))


# -- SignedFunction / verify_sdf ----------------------------------------------


def test_signed_function_basics():
    f = SignedFunction((1, -1, 1))
    assert f.weight == 1
    assert f.plus_mask == 0b101
    assert f.minus_mask == 0b010
    assert str(f) == "+-+"
    assert SignedFunction.from_minus_mask(3, 0b010) == f
    with pytest.raises(ValueError):
        SignedFunction((1, 0, 1))


def test_from_minus_mask_rejects_vertices_outside_the_graph():
    # A bit at index n or above, or any bit of a negative mask, names no
    # vertex of the labeling: it is refused, never dropped.
    assert str(SignedFunction.from_minus_mask(3, 0)) == "+++"
    assert str(SignedFunction.from_minus_mask(3, 0b111)) == "---"
    for minus in (1 << 5, 1 << 3, 0b010 | 1 << 3, -1, -2):
        with pytest.raises(ValueError, match="outside"):
            SignedFunction.from_minus_mask(3, minus)
    with pytest.raises(ValueError, match="outside"):
        SignedFunction.from_minus_mask(0, 1)


def test_verify_sdf_p2():
    p2 = Graph(2, [(0, 1)])
    assert verify_sdf(p2, SignedFunction((1, 1))) == []
    assert verify_sdf(p2, SignedFunction((-1, 1))) == [0, 1]


def test_verify_sdf_c6_pattern():
    f = SignedFunction((1, 1, -1, 1, 1, -1))
    assert verify_sdf(cycle_graph(6), f) == []


def test_verify_sdf_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        verify_sdf(path_graph(3), SignedFunction((1, 1)))


# -- partition stats -----------------------------------------------------------


def test_partition_stats_c6_pattern():
    g = cycle_graph(6)
    stats = partition_stats(g, SignedFunction((1, 1, -1, 1, 1, -1)))
    assert stats.e_plus == 2
    assert stats.e_minus == 0
    assert stats.cut == 4


def test_partition_stats_all_plus():
    g = complete_graph(5)
    stats = partition_stats(g, SignedFunction((1,) * 5))
    assert stats.e_plus == g.m and stats.e_minus == 0 and stats.cut == 0


def test_partition_stats_k4_one_minus():
    g = complete_graph(4)
    stats = partition_stats(g, SignedFunction((-1, 1, 1, 1)))
    assert stats.e_plus == 3 and stats.e_minus == 0 and stats.cut == 3


def test_partition_stats_invariants():
    for g in _small_corpus():
        if g.n == 0:
            continue
        f = SignedFunction.from_minus_mask(g.n, mask_of(v for v in range(g.n) if v % 3 == 0))
        stats = partition_stats(g, f)
        # every edge is inside V+, inside V-, or crossing
        assert stats.e_plus + stats.e_minus + stats.cut == g.m
        sign = f.assignment
        assert stats.e_plus == sum(1 for u, v in g.edges if sign[u] == sign[v] == 1)
        assert stats.e_minus == sum(1 for u, v in g.edges if sign[u] == sign[v] == -1)
        assert stats.cut == sum(1 for u, v in g.edges if sign[u] != sign[v])


# -- signed domination ----------------------------------------------------------


@pytest.mark.parametrize(
    "g,expected",
    [
        (complete_graph(5), 1),
        (complete_graph(6), 2),
        (path_graph(7), 5),
        (cycle_graph(6), 2),
        (star_graph(5), 5),
        (Graph(2, [(0, 1)]), 2),
    ],
    ids=["K5", "K6", "P7", "C6", "K1-4", "P2"],
)
def test_signed_domination_fixed_values(g, expected):
    for mode in ("oracle", "branch_and_bound"):
        value, witness = signed_domination(g, mode)
        assert value == expected
        assert witness.weight == value
        assert verify_sdf(g, witness) == []


def test_star_fast_path_witness_all_plus():
    value, witness = signed_domination(star_graph(9))
    assert value == 9
    assert witness.assignment == (1,) * 9


def test_signed_domination_matches_brute_force():
    for g in _small_corpus():
        expect_w, expect_assign = oracles.brute_signed_domination(g)
        for mode in ("oracle", "branch_and_bound"):
            value, witness = signed_domination(g, mode)
            assert value == expect_w, f"{mode} value mismatch on {g}"
            assert witness.assignment == expect_assign, f"{mode} witness not lex-least on {g}"


def test_signed_domination_parity_invariant():
    for g in _small_corpus():
        value, _ = signed_domination(g)
        assert (value - g.n) % 2 == 0


def test_optimal_witness_avoids_forced_vertices():
    for g in _small_corpus():
        _, witness = signed_domination(g)
        pinned = solvers.forced_plus_mask(g)
        core = g.full_mask & ~pinned
        assert not pinned & ~witness.plus_mask
        assert not witness.minus_mask & ~core


def test_signed_domination_size_caps():
    with pytest.raises(SizeCapError):
        signed_domination(cycle_graph(21), "oracle")
    with pytest.raises(SizeCapError):
        signed_domination(cycle_graph(41), "branch_and_bound")
    with pytest.raises(ValueError, match="unknown mode"):
        signed_domination(cycle_graph(4), "magic")
    # A star's core is empty, so gamma_s = n needs no search; the mode and
    # the caps are still checked first.
    with pytest.raises(SizeCapError, match="capped at n <= 40"):
        signed_domination(star_graph(41))
    with pytest.raises(SizeCapError, match="capped at n <= 20"):
        signed_domination(star_graph(21), "oracle")
    with pytest.raises(ValueError, match="unknown mode"):
        signed_domination(star_graph(5), "magic")


# -- subset solvers --------------------------------------------------------------


@pytest.mark.parametrize(
    "g,expected",
    [(complete_graph(6), 1), (path_graph(7), 3), (cycle_graph(6), 2)],
    ids=["K6", "P7", "C6"],
)
def test_domination_fixed_values(g, expected):
    value, witness = domination_number(g)
    assert value == expected
    assert vertex_set_violations(g, witness) == []


def test_domination_isolated_vertices_are_members():
    g = Graph(4, [(0, 1)])
    value, witness = domination_number(g)
    assert {2, 3} <= witness.members
    assert value == 3


def test_tuple_domination_fixed_values():
    c6 = cycle_graph(6)
    value, witness = tuple_domination_number(c6, 2)
    assert value == 4
    assert vertex_set_violations(c6, witness) == []
    assert tuple_domination_number(complete_graph(5), 1)[0] == 1
    # k = delta + 1 always has V as a feasible set
    g = cycle_graph(5)
    value, witness = tuple_domination_number(g, 3)
    assert value == 5 and witness.members == frozenset(range(5))


def test_tuple_domination_k_range():
    g = path_graph(5)
    with pytest.raises(ValueError, match="delta"):
        tuple_domination_number(g, 3)
    with pytest.raises(ValueError, match="delta"):
        tuple_domination_number(g, 0)


def test_limited_packing_fixed_values():
    c6 = cycle_graph(6)
    assert limited_packing_number(c6, 2)[0] == 4
    assert limited_packing_number(c6, 1)[0] == 2
    assert limited_packing_number(complete_graph(6), 2)[0] == 2
    with pytest.raises(ValueError, match="k must be"):
        limited_packing_number(c6, 0)


def test_packing_fixed_values():
    for n in (3, 5, 8):
        assert packing_number(complete_graph(n))[0] == 1
    assert packing_number(cycle_graph(6))[0] == 2
    value, witness = packing_number(path_graph(7))
    assert value == 3
    assert witness.members == frozenset({0, 3, 6})


@pytest.mark.parametrize("n", range(10, 15))
def test_dense_graphs_match_brute_force(n):
    # Dense graphs are where the kernel's greedy cover bound prunes: every
    # value and lex-least witness must still be the brute-force one.
    for p in (0.7, 0.9):
        _check_five_parameters(random_connected(n, p, derive_seed(4242, 10 * n + round(10 * p))))


def _check_five_parameters(g):
    # All five parameters against the oracle route and brute force: values
    # and lex-least witnesses, and the value-only sets for validity.
    value, witness = signed_domination(g)
    assert (value, witness) == signed_domination(g, "oracle")
    bv, bs = oracles.brute_min_tuple_dominating(g, 1)
    value, witness = domination_number(g)
    assert (value, witness.sorted_members()) == (bv, bs)
    _check_value_only(g, bv, domination_number(g, lex_least=False))
    for k in range(1, min(g.deg) + 2):
        bv, bs = oracles.brute_min_tuple_dominating(g, k)
        value, witness = tuple_domination_number(g, k)
        assert (value, witness.sorted_members()) == (bv, bs), k
        _check_value_only(g, bv, tuple_domination_number(g, k, lex_least=False))
    for k in range(1, max(g.deg) // 2 + 2):
        bv, bs = oracles.brute_max_limited_packing(g, k)
        value, witness = limited_packing_number(g, k)
        assert (value, witness.sorted_members()) == (bv, bs), k
        _check_value_only(g, bv, limited_packing_number(g, k, lex_least=False))
    bv, bs = oracles.brute_max_packing(g)
    value, witness = packing_number(g)
    assert (value, witness.sorted_members()) == (bv, bs)
    _check_value_only(g, bv, packing_number(g, lex_least=False))


def _check_value_only(g, expected, result):
    # A value-only solve need not return the lex-least set, but its set must
    # be valid and as large as the brute-force optimum.
    value, witness = result
    assert value == expected == witness.size
    assert vertex_set_violations(g, witness) == []


def test_subset_solvers_match_brute_force():
    for g in _small_corpus():
        if g.n > 8:
            continue
        delta = min(g.deg) if g.n else 0
        bg, bw = oracles.brute_min_tuple_dominating(g, 1)
        value, witness = domination_number(g)
        assert (value, witness.sorted_members()) == (bg, bw)
        for k in range(1, delta + 2):
            bv, bs = oracles.brute_min_tuple_dominating(g, k)
            value, witness = tuple_domination_number(g, k)
            assert (value, witness.sorted_members()) == (bv, bs)
        for k in range(1, max(g.deg) // 2 + 2):
            bv, bs = oracles.brute_max_limited_packing(g, k)
            value, witness = limited_packing_number(g, k)
            assert (value, witness.sorted_members()) == (bv, bs)
        bv, bs = oracles.brute_max_packing(g)
        value, witness = packing_number(g)
        assert (value, witness.sorted_members()) == (bv, bs)
        assert value == limited_packing_number(g, 1)[0]


def test_value_only_domination_keeps_values():
    # lex_least=False skips the witness walk: same value, and a valid minimum set.
    for g in _small_corpus():
        delta = min(g.deg) if g.n else 0
        for k in range(1, delta + 2):
            value, lex = tuple_domination_number(g, k)
            fast_value, fast = tuple_domination_number(g, k, lex_least=False)
            assert fast_value == value == fast.size
            assert fast.k == k and vertex_set_violations(g, fast) == []
            assert lex.sorted_members() <= fast.sorted_members()
        value, _ = domination_number(g)
        fast_value, fast = domination_number(g, lex_least=False)
        assert fast_value == value == fast.size
        assert (fast.role, fast.k) == ("tuple_dominating", 1) and vertex_set_violations(g, fast) == []


def test_value_only_sets_follow_the_degree_order():
    # The paw: triangle 0-1-2 with the leaf 3 on 2. Its maximum packings are
    # its single vertices. The degree order is 3, 0, 1, 2, and the kernel's
    # first optimum there is S = {3}: a value pass branches in label order
    # until its first leaf, since the cover picks the branching vertex only
    # once a node needs two more members. For gamma_x2 (caps deg - 1) S lies in
    # {0, 1} and the first optimum is S = {0}, so the value-only D is
    # {1, 2, 3}, where the least is {0, 2, 3}.
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert type(_route(g)) is SearchRoute and _route(g).order == [3, 0, 1, 2]
    assert packing_number(g)[1].sorted_members() == (0,)
    assert packing_number(g, lex_least=False)[1].sorted_members() == (3,)
    assert tuple_domination_number(g, 2)[1].sorted_members() == (0, 2, 3)
    assert tuple_domination_number(g, 2, lex_least=False)[1].sorted_members() == (1, 2, 3)
    # The house: square 0-1-2-3 with roof 4 on 2 and 3. The degree-2 vertices
    # come first, so S takes 0, 1 and 4 where it can.
    g = Graph(5, [(0, 1), (0, 3), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert type(_route(g)) is SearchRoute and _route(g).order == [0, 1, 4, 2, 3]
    assert domination_number(g)[1].sorted_members() == (0, 2)
    assert domination_number(g, lex_least=False)[1].sorted_members() == (2, 3)
    assert tuple_domination_number(g, 2)[1].sorted_members() == (0, 2, 3)
    assert tuple_domination_number(g, 2, lex_least=False)[1].sorted_members() == (1, 2, 3)
    # On a forest the leaf-first greedy gives the value-only sets. P4's order
    # is 3, 2, 1, 0. For gamma (caps deg) the greedy packs S = {3, 1}, so D
    # is {0, 2}; for rho S = {3, 0}; for L_2 S = {3, 2, 0}, where the least
    # is {0, 1, 3}.
    g = path_graph(4)
    assert leaf_first_order(g) == [3, 2, 1, 0]
    assert type(_route(g)) is ForestRoute
    assert domination_number(g, lex_least=False)[1].sorted_members() == (0, 2)
    assert packing_number(g, lex_least=False)[1].sorted_members() == (0, 3)
    assert limited_packing_number(g, 2)[1].sorted_members() == (0, 1, 3)
    assert limited_packing_number(g, 2, lex_least=False)[1].sorted_members() == (0, 2, 3)


# Every solver, lex-least and value-only.
SOLVES = (
    signed_domination,
    domination_number,
    partial(domination_number, lex_least=False),
    partial(tuple_domination_number, k=2),
    partial(tuple_domination_number, k=2, lex_least=False),
    partial(limited_packing_number, k=2),
    partial(limited_packing_number, k=2, lex_least=False),
    packing_number,
    partial(packing_number, lex_least=False),
)


def test_interleaved_solves_match_fresh_ones(monkeypatch):
    # Two graphs with the same n and different edges, and an equal copy of
    # the first: the route kept for one must never serve another.
    g = random_connected(10, 0.5, derive_seed(31, 10))
    h = random_connected(10, 0.5, derive_seed(31, 11))
    copy = Graph(g.n, g.edges)
    assert g.edges != h.edges and copy == g and copy is not g
    assert all(solvers.forced_plus_mask(x) != x.full_mask for x in (g, h))
    fresh = {}
    for x in (g, h, copy):
        for i, solve in enumerate(SOLVES):
            monkeypatch.setattr(solvers, "_last_route", None)
            fresh[id(x), i] = solve(x)
    for x in (g, copy, g, h, h, copy, g):
        for i, solve in enumerate(SOLVES):
            assert solve(x) == fresh[id(x), i], i
    for i, solve in enumerate(SOLVES):
        for x in (h, g, copy):
            assert solve(x) == fresh[id(x), i], i


def test_route_is_built_once_per_graph(route_builds):
    g = random_connected(9, 0.5, derive_seed(8, 9))
    for solve in SOLVES:
        solve(g)
    assert route_builds == [("SearchRoute", g)]
    copy = Graph(g.n, g.edges)
    domination_number(copy)
    assert route_builds == [("SearchRoute", g), ("SearchRoute", copy)] and route_builds[1][1] is copy
    # A tree gets one ForestRoute, shared by every solve. A forest with a
    # triangle component has a cycle, so it gets a SearchRoute.
    tree = random_tree(9, derive_seed(8, 10))
    for solve in SOLVES:
        solve(tree)
    assert route_builds[2:] == [("ForestRoute", tree)]
    path_and_triangle = Graph(7, [(0, 1), (1, 2), (2, 6), (3, 4), (3, 5), (4, 5)])
    domination_number(path_and_triangle)
    assert route_builds[3:] == [("SearchRoute", path_and_triangle)]
    # The size cap is checked before anything is built, for both routes: a
    # 41-vertex path is a tree, and none of the five solvers builds its
    # ForestRoute.
    with pytest.raises(SizeCapError, match="capped"):
        domination_number(cycle_graph(41))
    for solve in SOLVES:
        with pytest.raises(SizeCapError, match="capped at n <= 40"):
            solve(path_graph(41))
    assert len(route_builds) == 4


def _brute_lex_least(g, cap):
    """(optimum, least optimal S, optimal S with the least complement) by exhaustion."""
    closed = oracles.closed_neighborhoods(g)
    for size in range(g.n, -1, -1):
        feasible = [
            set(c)
            for c in combinations(range(g.n), size)
            if all(len(closed[v] & set(c)) <= cap[v] for v in range(g.n))
        ]
        if feasible:
            least = min(feasible, key=sorted)
            least_complement = min(feasible, key=lambda c: sorted(set(range(g.n)) - c))
            return size, mask_of(least), mask_of(least_complement)
    raise AssertionError("the empty set is always feasible")


@pytest.mark.parametrize("k", [1, 2])
def test_witness_walk_matches_both_lex_orders(k):
    # Caps deg + 1 - k (S is the complement of a k-tuple dominating set) and
    # floor(deg / 2) (S is V-): the two lex orders pick different optimal sets.
    # Seeded caps in 0..deg+1 give uneven rooms, and rooms of 0 that close
    # whole neighbourhoods before the walk starts.
    for i in range(6):
        g = random_connected(9, 0.5, derive_seed(515, i))
        rng = random.Random(derive_seed(516, 10 * k + i))
        seeded = [rng.randint(0, d + 1) for d in g.deg]
        for cap in ([d + 1 - k for d in g.deg], [d // 2 for d in g.deg], seeded):
            best, least, least_complement = _brute_lex_least(g, cap)
            assert _solve_packing(g, cap, True) == (best, least)
            assert _solve_packing(g, cap, True, least_complement=True) == (best, least_complement)


def test_witness_walk_swaps_instead_of_asking(monkeypatch):
    # On the paw (triangle 0-1-2, leaf 3 on 2) with caps 1 the value pass
    # finds W = {3}. At vertex 0 the walk takes W - 3 + 0 (3 lies in N[2],
    # the one neighbourhood of N[0] that W fills) instead of asking the
    # kernel for a set with 0; without the swap that is a second kernel call.
    # On the n = 9 graph the swap saves two. On P5 the leaf-first greedy
    # finds W = {1, 4}, and the walk reaches the least set {0, 3} by two swaps.
    calls = []

    def counted(max_packing):
        def counting(route, room, avail, target=None):
            calls.append(target)
            return max_packing(route, room, avail, target)

        return counting

    paw = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    g9 = random_connected(9, 0.5, derive_seed(515, 1))
    assert _solve_packing(paw, [1] * 4, False) == (1, mask_of({3}))
    assert _solve_packing(path_graph(5), [1] * 5, False) == (2, mask_of({1, 4}))
    for route in (SearchRoute, ForestRoute):
        monkeypatch.setattr(route, "max_packing", counted(route.max_packing))
    for g, cap in ((paw, [1] * 4), (g9, [d // 2 for d in g9.deg]), (path_graph(5), [1] * 5)):
        best, least, _ = _brute_lex_least(g, cap)
        calls.clear()
        assert _solve_packing(g, cap, True) == (best, least)
        assert calls == [None]


def _complete_multipartite(*sizes):
    parts, start = [], 0
    for size in sizes:
        parts.append(range(start, start + size))
        start += size
    edges = [(u, v) for i, a in enumerate(parts) for b in parts[i + 1:] for u in a for v in b]
    return Graph(start, edges)


DOMINANCE_GRAPHS = {
    # Twins: 0 and 1 share their closed neighbourhood, so do 4 and 5.
    "twins": Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]),
    # The windmill: triangles 0-1-2, 0-3-4 and 0-5-6 share the centre 0, so
    # every other closed neighbourhood nests in N[0] and has a twin.
    "windmill": Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)]),
    "star_plus_edge": Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (4, 5)]),
    # No closed neighbourhood nests in another, but optima tie in many ways.
    "K_2_2_3": _complete_multipartite(2, 2, 3),
    # Cycle 0-1-2-3-4 with the twin leaves 5 and 6 on vertex 2.
    "cycle_pendant_twins": Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 5), (2, 6)]),
    "triangle_pendant_twins": Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (3, 4), (0, 5)]),
    # m < n, yet a triangle: the kernel serves it, not the greedy.
    "triangle_and_three_points": Graph(6, [(0, 1), (1, 2), (0, 2)]),
}


@pytest.mark.parametrize("name", DOMINANCE_GRAPHS)
def test_dominance_keeps_values_and_witnesses(name):
    # Leaving u out of S also leaves out the v with N[u] ⊆ N[v]; values and
    # lex-least witnesses must stay the brute-force ones where that fires.
    # Every graph here has a cycle, so the kernel, not the greedy, serves it.
    g = DOMINANCE_GRAPHS[name]
    route = _route(g)
    assert type(route) is SearchRoute
    nested = sum((d & ~(1 << i)).bit_count() for i, d in enumerate(route.drop))
    assert (nested == 0) == (name == "K_2_2_3")
    assert signed_domination(g) == signed_domination(g, "oracle")
    assert signed_domination(g)[1].assignment == oracles.brute_signed_domination(g)[1]
    for k in range(1, min(g.deg) + 2):
        value, witness = tuple_domination_number(g, k)
        assert (value, witness.sorted_members()) == oracles.brute_min_tuple_dominating(g, k)
        _check_value_only(g, value, tuple_domination_number(g, k, lex_least=False))
    for k in range(1, max(g.deg) // 2 + 2):
        value, witness = limited_packing_number(g, k)
        assert (value, witness.sorted_members()) == oracles.brute_max_limited_packing(g, k)
        _check_value_only(g, value, limited_packing_number(g, k, lex_least=False))
    value, witness = packing_number(g)
    assert (value, witness.sorted_members()) == oracles.brute_max_packing(g)
    for cap in ([d // 2 for d in g.deg], [d for d in g.deg], [2] * g.n):
        best, least, least_complement = _brute_lex_least(g, cap)
        assert _solve_packing(g, cap, True) == (best, least)
        assert _solve_packing(g, cap, True, least_complement=True) == (best, least_complement)


def _circulant(n, *jumps):
    return Graph(n, sorted({tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps}))


def _generalized_petersen(n, k):
    # The cycle 0..n-1, the inner vertices n..2n-1 joined i to i + k, and the spokes.
    outer = [(i, (i + 1) % n) for i in range(n)]
    inner = [(n + i, n + (i + k) % n) for i in range(n)]
    return Graph(2 * n, outer + inner + [(i, n + i) for i in range(n)])


UNIFORM_DEGREE_GRAPHS = {
    "Petersen": _generalized_petersen(5, 2),
    "Q3": Graph(8, [(v, v | b) for v in range(8) for b in (1, 2, 4) if not v & b]),
    "prism_6": _generalized_petersen(6, 1),
    "K_3_3": _complete_multipartite(3, 3),
    "C12(1,3)": _circulant(12, 1, 3),
    "C13(1,5)": _circulant(13, 1, 5),
}


@pytest.mark.parametrize("name", UNIFORM_DEGREE_GRAPHS)
def test_uniform_degree_graphs_match_brute_force(name):
    # One degree throughout: the degree order is the identity, and every
    # |N[u]| and every cap tie, so the cover's centre choices at the root are
    # ties broken by label alone.
    g = UNIFORM_DEGREE_GRAPHS[name]
    assert len(set(g.deg)) == 1
    route = _route(g)
    assert type(route) is SearchRoute and route.order == list(range(g.n))
    value, witness = signed_domination(g)
    assert (value, witness.assignment) == oracles.brute_signed_domination(g)
    _check_five_parameters(g)


def test_kernel_matches_subset_enumeration_and_only_reads_room():
    # Random rooms in 0..deg+1 over a random open set, in the degree order,
    # forests included, since the SearchRoute is built directly: the value, a
    # feasible set, existence queries on both sides of the optimum, and the
    # caller's rooms as they were. The last 200 graphs are larger and denser,
    # with few rooms of 0 and most open vertices available, so that covers
    # span several groups and the queries branch above the lowest available
    # vertex.
    rng = random.Random(derive_seed(521, 0))
    for k in range(500):
        if k < 300:
            n = rng.randint(1, 9)
            route = SearchRoute(random_connected(n, rng.choice((0.3, 0.5, 0.8)), rng.getrandbits(32)))
            room = [rng.randint(0, len(row)) for row in route.nbhd]
            avail = rng.getrandbits(n)
        else:
            n = rng.randint(10, 13)
            route = SearchRoute(random_connected(n, rng.choice((0.3, 0.5, 0.7, 0.9)), rng.getrandbits(32)))
            room = [rng.randint(0, len(row)) if rng.random() < 0.1 else rng.randint(1, len(row)) for row in route.nbhd]
            avail = rng.getrandbits(n) | rng.getrandbits(n)
        closed = route.closed
        before = list(room)
        avail &= solvers._open_mask(closed, room)

        def feasible(s):
            return s & ~avail == 0 and all((c & s).bit_count() <= r for c, r in zip(closed, room))

        opt, sub = 0, avail
        while sub:
            if sub.bit_count() > opt and feasible(sub):
                opt = sub.bit_count()
            sub = (sub - 1) & avail
        size, s = route.max_packing(room, avail)
        assert size == opt == s.bit_count() and feasible(s)
        for target in range(max(opt - 2, 0), opt + 2):
            found, t = route.max_packing(room, avail, target)
            if opt >= target:
                assert found == t.bit_count() >= target and feasible(t)
            else:
                assert (found, t) == (target - 1, 0)
        assert room == before


def test_drop_masks_hold_the_nesting_neighbours():
    # drop[u] is {v in N[u] : N[u] ⊆ N[v]}, checked in the graph's own labels
    # on random graphs given twins (N[t] = N[u]) and vertices nested in a
    # neighbour (N[x] ⊆ N[u]), forests included.
    rng = random.Random(derive_seed(523, 0))
    for _ in range(100):
        base = random_connected(rng.randint(2, 9), rng.choice((0.3, 0.5, 0.8)), rng.getrandbits(32))
        adj = [set(bits(a)) for a in base.adj]
        for _ in range(rng.randint(1, 3)):
            u = rng.randrange(len(adj))
            nbrs = sorted(adj[u])
            if rng.random() < 0.5:
                nbrs = rng.sample(nbrs, rng.randint(0, len(nbrs)))
            adj.append({u, *nbrs})
            for v in adj[-1]:
                adj[v].add(len(adj) - 1)
        n = len(adj)
        g = Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
        route = SearchRoute(g)
        for u in range(n):
            nested = {v for v in bits(g.closed[u]) if not g.closed[u] & ~g.closed[v]}
            assert {route.order[i] for i in bits(route.drop[route.label[u]])} == nested


def test_witness_walk_rejects_an_inconsistent_search(monkeypatch):
    # A route whose existence queries answer "yes" with no members leads
    # the walk to a set short of the optimum; one that overstates the value
    # pass's optimum leaves the walk short of it too. Both raise.
    def always_yes(max_packing):
        def answer(route, room, avail, target=None):
            if target is None:
                return max_packing(route, room, avail)
            return target, 0

        return answer

    def overstated(max_packing):
        def answer(route, room, avail, target=None):
            size, s = max_packing(route, room, avail, target)
            return (size + 1, s) if target is None else (size, s)

        return answer

    routes = {route: route.max_packing for route in (SearchRoute, ForestRoute)}
    g = random_connected(9, 0.5, derive_seed(515, 0))
    # P9 is a tree with a core, so the ForestRoute answers every query
    # there, signed_domination's included; the walk checks it all the same.
    for route, max_packing in routes.items():
        monkeypatch.setattr(route, "max_packing", always_yes(max_packing))
    for x in (g, path_graph(9)):
        with pytest.raises(RuntimeError, match="search inconsistency"):
            domination_number(x)
    for route, max_packing in routes.items():
        monkeypatch.setattr(route, "max_packing", overstated(max_packing))
    for solve in (signed_domination, domination_number, packing_number):
        for x in (g, path_graph(9)):
            with pytest.raises(RuntimeError, match="search inconsistency"):
                solve(x)


def _forest_caps(g, rng):
    # gamma_s, rho, L_2, gamma, gamma_x2's caps, and seeded caps in 0..deg+1.
    return (
        [d // 2 for d in g.deg],
        [1] * g.n,
        [2] * g.n,
        list(g.deg),
        [max(d - 1, 0) for d in g.deg],
        [rng.randint(0, d + 1) for d in g.deg],
    )


def test_leaf_first_greedy_matches_brute_force_on_every_small_tree():
    # Every labeled tree with n <= 6, value-only, lex-least and
    # least-complement: the greedy answers every query of each solve.
    rng = random.Random(derive_seed(517, 0))
    trees = 0
    for n in range(2, 7):
        for g in enumerate_labeled_trees(n):
            trees += 1
            assert type(_route(g)) is ForestRoute
            for cap in _forest_caps(g, rng):
                best, least, least_complement = _brute_lex_least(g, cap)
                size, s = _solve_packing(g, cap, False)
                assert size == best
                assert all((c & s).bit_count() <= cap[v] for v, c in enumerate(g.closed))
                assert _solve_packing(g, cap, True) == (best, least)
                assert _solve_packing(g, cap, True, least_complement=True) == (best, least_complement)
    assert trees == 1441


def _random_forest(rng):
    # Uniform random trees of random sizes, isolated vertices among them,
    # under one random relabelling of the whole forest.
    n = rng.randint(1, 40)
    perm = list(range(n))
    rng.shuffle(perm)
    edges, start = [], 0
    while start < n:
        size = min(n - start, rng.choice((1, 1, 2, 5, 12, 40)))
        tree = random_tree(size, rng.getrandbits(32))
        edges += [(perm[start + u], perm[start + v]) for u, v in tree.edges]
        start += size
    return Graph(n, edges)


def test_leaf_first_greedy_matches_the_kernel_on_random_forests(monkeypatch):
    # Random rooms over a random available set, given to a ForestRoute and a
    # SearchRoute built on each forest, each in its own labels; then whole
    # solves, which the kernel serves once the forest detection answers None.
    rng = random.Random(derive_seed(518, 0))
    forests = [_random_forest(rng) for _ in range(400)]
    assert sum(1 for g in forests if min(g.deg) == 0 and g.m) > 20
    cases = []
    for g in forests:
        room = [rng.randint(0, d + 1) for d in g.deg]
        avail = rng.getrandbits(g.n) & solvers._open_mask(g.closed, room)
        cap = rng.choice(_forest_caps(g, rng))
        greedy = ForestRoute(g, leaf_first_order(g))
        size, s = greedy.max_packing(room, avail)
        assert s & ~avail == 0 and size == s.bit_count()
        assert all((c & s).bit_count() <= room[v] for v, c in enumerate(greedy.closed))
        assert greedy.max_packing(room, avail, size) == (size, s)
        assert greedy.max_packing(room, avail, size + 1) == (size, 0)
        kernel = SearchRoute(g)
        room_k = [room[v] for v in kernel.order]
        avail_k = mask_of(kernel.label[v] for v in bits(avail))
        assert kernel.max_packing(room_k, avail_k)[0] == size
        value_only = _solve_packing(g, cap, False)
        assert all((c & value_only[1]).bit_count() <= cap[v] for v, c in enumerate(g.closed))
        solves = (value_only[0], _solve_packing(g, cap, True), _solve_packing(g, cap, True, True))
        cases.append((g, cap, solves))
    monkeypatch.setattr(solvers, "leaf_first_order", lambda g: None)
    monkeypatch.setattr(solvers, "_last_route", None)
    for g, cap, solves in cases:
        assert type(_route(g)) is SearchRoute
        value_only = _solve_packing(g, cap, False)
        assert (value_only[0], _solve_packing(g, cap, True), _solve_packing(g, cap, True, True)) == solves


# Witnesses of the single-pass index-order kernel, above the oracle's n <= 20:
# (n, p, gamma_s, witness) for random_connected(n, p, derive_seed(2718, 100 n + 10 p)).
PINNED_WITNESSES = [
    (22, 0.3, 4, "+-++-+++-++--+-++--++-"),
    (22, 0.9, 2, "-----+---+++++++++-+-+"),
    (23, 0.5, 3, "-+----++++---++++-+++-+"),
    (24, 0.7, 2, "-++++++-+-++--+-++--+---"),
    (24, 0.3, 6, "---+++--+++--+++-+++-+++"),
    (25, 0.9, 1, "-+-+--+-++++-++++---+--+-"),
    (26, 0.5, 4, "----+++----++-+-+++++++++-"),
    (26, 0.7, 2, "---+-+--+++-++-++-++--++-+"),
]


@pytest.mark.parametrize("n,p,value,witness", PINNED_WITNESSES)
def test_signed_domination_pinned_witnesses(n, p, value, witness):
    g = random_connected(n, p, derive_seed(2718, 100 * n + round(10 * p)))
    result = signed_domination(g)
    assert (result[0], str(result[1])) == (value, witness)
    assert signed_domination(g) == result


# The lex-least sets on the graphs of PINNED_WITNESSES: (n, p, (gamma,
# gamma_x2, L_2, rho) sets), frozen while value passes still branched in label
# order. The witness walk starts from the value pass's set, so a change to
# the kernel's branching moves where the walk starts but never where it ends.
PINNED_LEX_LEAST_SETS = [
    (22, 0.3, ("0 1 3 12", "0 1 2 3 5 13 15", "1 7 8 11 17 20", "8 20 21")),
    (22, 0.9, ("3", "3 5", "0 1", "0")),
    (23, 0.5, ("0 2 15", "1 7 16 22", "2 3 4", "0")),
    (24, 0.7, ("0 5", "0 5 6", "0 1", "0")),
    (24, 0.3, ("0 1 7 19", "1 8 13 17 19 23", "5 6 11 16 17 20", "6 16 20")),
    (25, 0.9, ("3", "3 16", "0 1", "0")),
    (26, 0.5, ("0 3 20", "8 10 11 17", "0 1 9", "0")),
    (26, 0.7, ("0 24", "2 4 16", "0 1", "0")),
]


@pytest.mark.parametrize("n,p,sets", PINNED_LEX_LEAST_SETS)
def test_lex_least_pinned_sets(n, p, sets):
    g = random_connected(n, p, derive_seed(2718, 100 * n + round(10 * p)))
    found = []
    for value, vs in (
        domination_number(g),
        tuple_domination_number(g, 2),
        limited_packing_number(g, 2),
        packing_number(g),
    ):
        assert value == vs.size and vertex_set_violations(g, vs) == []
        found.append(" ".join(map(str, vs.sorted_members())))
    assert tuple(found) == sets


# The value-only sets (lex_least=False) on the graphs of PINNED_WITNESSES:
# (n, p, (gamma, gamma_x2, L_2, rho) sets). Each is the first optimum the
# kernel reaches, which depends on where it branches, and so on every bound
# that moves where the cover breaks: these pin the kernel's behaviour, not a
# contract.
PINNED_VALUE_ONLY_SETS = [
    (22, 0.3, ("2 3 16 19", "0 2 3 5 15 16 19", "1 7 8 11 17 20", "8 20 21")),
    (22, 0.9, ("19", "5 19", "2 9", "2")),
    (23, 0.5, ("6 15 16", "1 7 16 22", "2 5 12", "2")),
    (24, 0.7, ("3 6", "6 11 14", "15 18", "15")),
    (24, 0.3, ("0 8 13 19", "1 8 13 17 19 23", "5 6 11 16 17 20", "6 16 20")),
    (25, 0.9, ("16", "3 16", "2 17", "17")),
    (26, 0.5, ("11 17 18", "8 10 11 17", "0 9 10", "0")),
    (26, 0.7, ("5 13", "2 12 16", "11 21", "21")),
]


@pytest.mark.parametrize("n,p,sets", PINNED_VALUE_ONLY_SETS)
def test_value_only_pinned_sets(n, p, sets):
    g = random_connected(n, p, derive_seed(2718, 100 * n + round(10 * p)))
    found = []
    for value, vs in (
        domination_number(g, lex_least=False),
        tuple_domination_number(g, 2, lex_least=False),
        limited_packing_number(g, 2, lex_least=False),
        packing_number(g, lex_least=False),
    ):
        assert value == vs.size and vertex_set_violations(g, vs) == []
        found.append(" ".join(map(str, vs.sorted_members())))
    assert tuple(found) == sets


# (solver, name, role, k) for the four subset solvers on the pinned graphs.
SUBSET_SOLVES = [
    (domination_number, "gamma", "tuple_dominating", 1),
    (partial(tuple_domination_number, k=2), "gamma_xk", "tuple_dominating", 2),
    (partial(limited_packing_number, k=2), "L_k", "limited_packing", 2),
    (packing_number, "rho", "limited_packing", 1),
]


@pytest.mark.parametrize("n,p", [(n, p) for n, p, _, _ in PINNED_WITNESSES])
def test_certificates_round_trip_on_pinned_graphs(n, p):
    # Each solver's mask is its certificate: the size, the members and the
    # one re-check all read it, lex-least and value-only alike.
    g = random_connected(n, p, derive_seed(2718, 100 * n + round(10 * p)))
    for solve, name, role, k in SUBSET_SOLVES:
        for lex_least in (True, False):
            value, cert = solve(g, lex_least=lex_least)
            assert (cert.role, cert.k) == (role, k)
            assert cert.size == value
            assert cert.sorted_members() == tuple(bits(cert.mask))
            assert check(g, name, value, cert, role, k) is None


def test_subset_solver_cap():
    with pytest.raises(SizeCapError):
        domination_number(cycle_graph(41))
    with pytest.raises(SizeCapError):
        limited_packing_number(cycle_graph(41), 1)
    # The size cap is a module constant, and lex_least is keyword-only, so an
    # old positional cap fails loudly instead of being read as lex_least.
    g = cycle_graph(6)
    with pytest.raises(TypeError):
        domination_number(g, 40)
    with pytest.raises(TypeError):
        limited_packing_number(g, 1, 40)


def test_vertex_set_violations_roles():
    g = cycle_graph(6)
    ok = VertexSet(mask_of({0, 3}), "limited_packing", 1)
    assert vertex_set_violations(g, ok) == []
    bad = VertexSet(mask_of({0, 1}), "limited_packing", 1)
    assert vertex_set_violations(g, bad) != []
    assert vertex_set_violations(g, VertexSet(mask_of({0}), "tuple_dominating", 1)) == [2, 3, 4]
    # Two kinds only: a dominating set is gamma_x1's, a packing L_1's.
    for role in ("dominating", "packing", "clique"):
        with pytest.raises(ValueError, match="unknown vertex-set role"):
            vertex_set_violations(g, VertexSet(0, role, 1))
    # A bit at index n or above, or a negative mask, which has infinitely many.
    for outside in (mask_of({0, 9}), mask_of({0, 6}), 1 << g.n, -1):
        with pytest.raises(ValueError, match="member index outside graph"):
            vertex_set_violations(g, VertexSet(outside, "limited_packing", 1))
    with pytest.raises(ValueError, match="member index outside graph"):
        VertexSet(-1, "limited_packing", 1).sorted_members()
    with pytest.raises(TypeError):
        VertexSet(mask_of({0}), "limited_packing")


def test_gamma_and_rho_are_the_k1_results():
    for g in _small_corpus():
        for lex_least in (True, False):
            gamma = domination_number(g, lex_least=lex_least)
            assert gamma == tuple_domination_number(g, 1, lex_least=lex_least)
            assert (gamma[1].role, gamma[1].k) == ("tuple_dominating", 1)
            rho = packing_number(g, lex_least=lex_least)
            assert rho == limited_packing_number(g, 1, lex_least=lex_least)
            assert (rho[1].role, rho[1].k) == ("limited_packing", 1)


def test_exhaustive_all_small_graphs():
    # every labeled graph on up to 5 vertices, including disconnected ones
    for n in (1, 2, 3, 4, 5):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            expect_w, expect_assign = oracles.brute_signed_domination(g)
            for mode in ("oracle", "branch_and_bound"):
                value, witness = signed_domination(g, mode)
                assert value == expect_w
                assert witness.assignment == expect_assign
            assert domination_number(g)[0] == oracles.brute_min_tuple_dominating(g, 1)[0]
            assert packing_number(g)[0] == oracles.brute_max_packing(g)[0]
            assert limited_packing_number(g, 2)[0] == oracles.brute_max_limited_packing(g, 2)[0]


def test_monotone_chains_small():
    for i in range(10):
        g = random_connected(4 + i % 5, 0.55, derive_seed(77, i))
        delta = min(g.deg)
        Delta = max(g.deg)
        prev = None
        for k in range(1, Delta // 2 + 2):
            value, _ = limited_packing_number(g, k)
            if prev is not None and prev < g.n:
                assert value >= prev + 1
            prev = value
            if value == g.n:
                break
        prev = None
        for k in range(1, delta + 2):
            value, _ = tuple_domination_number(g, k)
            if prev is not None:
                assert value >= prev + 1
            prev = value


def test_solvers_leave_no_cyclic_garbage():
    graphs = [random_connected(12, p, derive_seed(99, i)) for i, p in enumerate((0.4, 0.7, 0.9))]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            signed_domination(g)
            domination_number(g)
            tuple_domination_number(g, 2)
            limited_packing_number(g, 2)
            packing_number(g)
            domination_number(g, lex_least=False)
            tuple_domination_number(g, 2, lex_least=False)
            limited_packing_number(g, 2, lex_least=False)
            packing_number(g, lex_least=False)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _audit_solves(g):
    # The audit's solves: gamma_s and the value-only ones, back to back.
    return (
        signed_domination(g),
        domination_number(g, lex_least=False),
        packing_number(g, lex_least=False),
        limited_packing_number(g, 3, lex_least=False),
        tuple_domination_number(g, 3, lex_least=False),
    )


def test_repeated_solves_do_not_creep():
    # Garbage cycles and tuples parked in CPython's free lists both show as
    # traced memory that grows with every call while gc is off. The two
    # graphs alternate, so every call builds its route anew.
    graphs = [random_connected(16, 0.7, derive_seed(7, i)) for i in (16, 17)]
    expected = [_audit_solves(g) for g in graphs]
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for i in range(20):
            _audit_solves(graphs[i % 2])
        before = tracemalloc.get_traced_memory()[0]
        for i in range(300):
            assert _audit_solves(graphs[i % 2]) == expected[i % 2]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 64 * 1024, f"traced memory grew {grown} bytes over 300 solves"
