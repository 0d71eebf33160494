from fractions import Fraction

import pytest

from signeddom import (
    Graph,
    complete_graph,
    cycle_graph,
    derive_seed,
    domination_number,
    lb_degree_leaves,
    lb_degree_parity,
    lb_max_degree_domination,
    packing_number,
    parity_tighten,
    path_graph,
    random_connected,
    random_tree,
    signed_domination,
    spider_graph,
    star_graph,
    structural_profile,
    tree_lower_bounds,
    ub_packing_min_degree,
)


def _profile(g):
    return structural_profile(g)


# -- parity tightening -----------------------------------------------------------


@pytest.mark.parametrize(
    "raw,n,kind,expected",
    [
        (Fraction(11, 3), 7, "lower", 5),
        (Fraction(2), 6, "upper", 2),
        (Fraction(0), 6, "lower", 0),
        (Fraction(7, 2), 6, "lower", 4),
        (Fraction(7, 2), 7, "lower", 5),
        (Fraction(7, 2), 6, "upper", 2),
        (Fraction(-5, 2), 8, "lower", -2),
        (Fraction(-5, 2), 8, "upper", -4),
        (Fraction(3), 7, "lower", 3),
        (Fraction(3), 8, "lower", 4),
    ],
)
def test_parity_tighten(raw, n, kind, expected):
    t = parity_tighten(raw, n, kind)
    assert t == expected
    assert (t - n) % 2 == 0
    if kind == "lower":
        assert t >= raw
    else:
        assert t <= raw


def test_parity_tighten_bad_kind():
    with pytest.raises(ValueError):
        parity_tighten(Fraction(1), 3, "sideways")


# -- thm2_1_ub ---------------------------------------------------------------------


def test_ub_packing_min_degree_values():
    b = ub_packing_min_degree(_profile(complete_graph(6)), rho=1)
    assert b.applicable and b.raw == 2 and b.tightened == 2 and b.kind == "upper"
    b = ub_packing_min_degree(_profile(cycle_graph(6)), rho=2)
    assert b.raw == 2
    b = ub_packing_min_degree(_profile(path_graph(7)), rho=3)
    assert not b.applicable and b.reason == "delta < 2"
    assert b.raw is None and b.tightened is None


def test_ub_identity_floor_rewrite():
    # floor((2*rho + delta - 2)/2) == rho + floor(delta/2) - 1
    for delta in range(2, 12):
        for rho in range(1, 12):
            assert (2 * rho + delta - 2) // 2 == rho + delta // 2 - 1


# -- thm3_2_i / thm3_2_ii -------------------------------------------------------------


def test_lb_degree_leaves_values():
    b = lb_degree_leaves(_profile(complete_graph(5)))
    assert b.raw == 1 and b.tightened == 1
    b = lb_degree_leaves(_profile(path_graph(7)))
    assert b.raw == Fraction(11, 3) and b.tightened == 5
    b = lb_degree_leaves(_profile(star_graph(5)))
    assert not b.applicable and b.reason == "empty core"


def test_lb_degree_parity_values():
    assert lb_degree_parity(_profile(complete_graph(5))).raw == 1
    assert lb_degree_parity(_profile(complete_graph(6))).raw == 2
    assert lb_degree_parity(_profile(cycle_graph(6))).raw == 2
    assert lb_degree_parity(_profile(path_graph(7))).raw == Fraction(29, 9)
    assert not lb_degree_parity(_profile(star_graph(5))).applicable


# -- thm3_3 -----------------------------------------------------------------------


def test_lb_max_degree_domination_values():
    assert lb_max_degree_domination(_profile(complete_graph(6)), gamma=1).raw == 2
    assert lb_max_degree_domination(_profile(cycle_graph(6)), gamma=2).raw == 0
    assert lb_max_degree_domination(_profile(complete_graph(5)), gamma=1).raw == 1
    assert lb_max_degree_domination(_profile(Graph(1)), gamma=1).raw == 1
    # The proof takes a vertex of maximum degree, which the null graph lacks.
    b = lb_max_degree_domination(_profile(Graph(0)), gamma=0)
    assert (b.applicable, b.reason, b.raw, b.tightened) == (False, "n = 0", None, None)


# -- tree bounds --------------------------------------------------------------------


def test_tree_bounds_p7():
    t34, cor, dun = tree_lower_bounds(_profile(path_graph(7)))
    assert t34.raw == cor.raw == dun.raw == Fraction(11, 3)
    assert t34.tightened == cor.tightened == dun.tightened == 5
    assert {t34.name, cor.name, dun.name} == {"thm3_4_tree", "cor_tree", "dunbar_tree"}


def test_tree_bounds_p4_fast_path():
    t34, cor, dun = tree_lower_bounds(_profile(path_graph(4)))
    assert t34.raw == 4 and t34.applicable
    assert cor.raw == Fraction(8, 3)
    assert dun.raw == Fraction(8, 3)


def test_tree_bounds_spider():
    t34, cor, dun = tree_lower_bounds(_profile(spider_graph(3, 2)))
    assert cor.raw == Fraction(11, 3)
    assert t34.raw == 5  # (2*1-1)*7 + 2*(3-3+2) over 3


def test_tree_bounds_preconditions():
    for g, reason in ((cycle_graph(5), "not a tree"), (path_graph(1), "n < 2")):
        bounds = tree_lower_bounds(_profile(g))
        assert [b.name for b in bounds] == ["thm3_4_tree", "cor_tree", "dunbar_tree"]
        assert all((b.applicable, b.reason, b.raw, b.tightened) == (False, reason, None, None) for b in bounds)


def test_tree_bound_ordering_random_trees():
    for i in range(40):
        g = random_tree(4 + i % 7, derive_seed(13, i))
        t34, cor, dun = tree_lower_bounds(_profile(g))
        assert t34.raw >= cor.raw >= dun.raw
        assert isinstance(t34.raw, Fraction)


# -- bracketing against exact values -------------------------------------------------


def test_bounds_bracket_exact_value():
    graphs = [complete_graph(n) for n in range(3, 9)]
    graphs += [cycle_graph(n) for n in range(3, 9)]
    graphs += [random_connected(5 + i % 6, 0.5, derive_seed(17, i)) for i in range(20)]
    graphs += [random_tree(5 + i % 5, derive_seed(19, i)) for i in range(10)]
    for g in graphs:
        prof = _profile(g)
        gamma_s, _ = signed_domination(g)
        gamma, _ = domination_number(g)
        rho, _ = packing_number(g)
        lowers = [lb_degree_leaves(prof), lb_degree_parity(prof),
                  lb_max_degree_domination(prof, gamma), *tree_lower_bounds(prof)]
        for b in lowers:
            if b.applicable:
                assert b.raw <= gamma_s
                assert b.tightened <= gamma_s
        ub = ub_packing_min_degree(prof, rho)
        if ub.applicable:
            assert gamma_s <= ub.tightened <= ub.raw
