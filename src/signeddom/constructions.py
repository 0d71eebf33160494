"""Constructive procedures tying packings and tuple dominating sets to signed
dominating functions.

``sdf_from_limited_packing`` turns any floor(delta/2)-limited packing B into a
valid sign assignment of weight n - 2|B| (label B with -1, the rest +1): each
closed neighborhood keeps at least deg(v) - 2*floor(delta/2) + 1 >= 1 once
delta >= 2. ``augment_packing`` and ``shrink_tuple_dominating`` are the
one-step moves whose iteration yields the chains
L_{k+1} >= L_k + 1 and gamma_x(k+1) >= gamma_xk + 1.
"""

from __future__ import annotations

from .graphs import Graph, bits
from .solvers import (
    ROLE_LIMITED_PACKING,
    ROLE_TUPLE_DOMINATING,
    SignedFunction,
    VertexSet,
    vertex_set_violations,
)


def sdf_from_limited_packing(g: Graph, B: VertexSet) -> SignedFunction:
    """Sign assignment that is -1 exactly on B; valid when B is a
    floor(delta/2)-limited packing and delta >= 2."""
    delta = min(g.deg) if g.n else 0
    if delta < 2:
        raise ValueError(f"requires minimum degree >= 2, got {delta}")
    k = delta // 2
    check = VertexSet(B.members, ROLE_LIMITED_PACKING, k)
    bad = vertex_set_violations(g, check)
    if bad:
        raise ValueError(f"not a {k}-limited packing; violated at vertices {bad}")
    return SignedFunction.from_minus_set(g.n, B.members)


def greedy_limited_packing(g: Graph, k: int) -> VertexSet:
    """Inclusion-maximal k-limited packing from an ascending-index scan."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    load = [0] * g.n
    members = []
    for v in range(g.n):
        if all(load[u] < k for u in bits(g.closed[v])):
            members.append(v)
            for u in bits(g.closed[v]):
                load[u] += 1
    return VertexSet(frozenset(members), ROLE_LIMITED_PACKING, k)


def augment_packing(g: Graph, B: VertexSet, k: int) -> VertexSet:
    """Add the least-index outside vertex: a (k+1)-limited packing of size |B|+1.

    Sound because one new member raises each closed-neighborhood count by at
    most one.
    """
    if len(B.members) >= g.n:
        raise ValueError("packing already covers all vertices; nothing to add")
    check = VertexSet(B.members, ROLE_LIMITED_PACKING, k)
    bad = vertex_set_violations(g, check)
    if bad:
        raise ValueError(f"not a {k}-limited packing; violated at vertices {bad}")
    u = min(v for v in range(g.n) if v not in B.members)
    return VertexSet(B.members | {u}, ROLE_LIMITED_PACKING, k + 1)


def shrink_tuple_dominating(g: Graph, D: VertexSet, k: int) -> VertexSet:
    """Drop the least-index member: a (k-1)-tuple dominating set of size |D|-1."""
    if k < 2:
        raise ValueError(f"shrinking needs k >= 2, got {k}")
    if not D.members:
        raise ValueError("cannot shrink an empty set")
    check = VertexSet(D.members, ROLE_TUPLE_DOMINATING, k)
    bad = vertex_set_violations(g, check)
    if bad:
        raise ValueError(f"not a {k}-tuple dominating set; violated at vertices {bad}")
    u = min(D.members)
    return VertexSet(D.members - {u}, ROLE_TUPLE_DOMINATING, k - 1)
