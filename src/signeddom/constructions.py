"""Constructive procedures tying packings and tuple dominating sets to signed
dominating functions.

``sdf_from_limited_packing`` turns any floor(delta/2)-limited packing B into a
valid sign assignment of weight n - 2|B| (label B with -1, the rest +1): each
closed neighborhood keeps at least deg(v) - 2*floor(delta/2) + 1 >= 1 once
delta >= 2. ``augment_packing`` and ``shrink_tuple_dominating`` are the
one-step moves whose iteration yields the chains
L_{k+1} >= L_k + 1 and gamma_x(k+1) >= gamma_xk + 1.

Every procedure works on the bit mask a ``VertexSet`` stores: a move adds or
drops one bit, and the least member of a mask m is its lowest set bit,
``m & -m``.
"""

from __future__ import annotations

from .certify import (
    ROLE_LIMITED_PACKING,
    ROLE_TUPLE_DOMINATING,
    SignedFunction,
    VertexSet,
    vertex_set_violations,
)
from .graphs import Graph, bits

_ROLE_NOUNS = {ROLE_LIMITED_PACKING: "limited packing", ROLE_TUPLE_DOMINATING: "tuple dominating set"}


def _require(g: Graph, mask: int, role: str, k: int) -> None:
    """Raise ValueError unless ``mask`` holds a valid set of ``role`` at k in g."""
    bad = vertex_set_violations(g, VertexSet(mask, role, k))
    if bad:
        raise ValueError(f"not a {k}-{_ROLE_NOUNS[role]}; violated at vertices {bad}")


def sdf_from_limited_packing(g: Graph, B: VertexSet) -> SignedFunction:
    """Sign assignment that is -1 exactly on B; valid when B is a
    floor(delta/2)-limited packing and delta >= 2."""
    delta = min(g.deg) if g.n else 0
    if delta < 2:
        raise ValueError(f"requires minimum degree >= 2, got {delta}")
    _require(g, B.mask, ROLE_LIMITED_PACKING, delta // 2)
    return SignedFunction.from_minus_mask(g.n, B.mask)


def greedy_limited_packing(g: Graph, k: int) -> VertexSet:
    """Inclusion-maximal k-limited packing from an ascending-index scan."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    load = [0] * g.n
    members = 0
    for v in range(g.n):
        if all(load[u] < k for u in bits(g.closed[v])):
            members |= 1 << v
            for u in bits(g.closed[v]):
                load[u] += 1
    return VertexSet(members, ROLE_LIMITED_PACKING, k)


def augment_packing(g: Graph, B: VertexSet, k: int) -> VertexSet:
    """Add the least-index outside vertex: a (k+1)-limited packing of size |B|+1.

    Sound because one new member raises each closed-neighborhood count by at
    most one.
    """
    if B.size >= g.n:
        raise ValueError("packing already covers all vertices; nothing to add")
    _require(g, B.mask, ROLE_LIMITED_PACKING, k)
    free = g.full_mask & ~B.mask
    return VertexSet(B.mask | (free & -free), ROLE_LIMITED_PACKING, k + 1)


def shrink_tuple_dominating(g: Graph, D: VertexSet, k: int) -> VertexSet:
    """Drop the least-index member: a (k-1)-tuple dominating set of size |D|-1."""
    if k < 2:
        raise ValueError(f"shrinking needs k >= 2, got {k}")
    m = D.mask
    if not m:
        raise ValueError("cannot shrink an empty set")
    _require(g, m, ROLE_TUPLE_DOMINATING, k)
    return VertexSet(m & (m - 1), ROLE_TUPLE_DOMINATING, k - 1)
