"""Exact solvers with certificates for signed domination and related parameters.

A sign assignment f is feasible iff every closed neighborhood sums to at
least 1, i.e. |N[v] ∩ V-| <= floor(deg(v)/2) for every v. So the signed
domination number, k-limited packings, packings, k-tuple domination and
domination are all one problem: a largest S with |N[v] ∩ S| <= cap(v) at every
v. Two exact routes answer it, each ``max_packing(room, avail, target=None)``
in its own labels, and ``_route`` builds the one route of a graph.

A ``SearchRoute`` relabels the graph in ascending (degree, index) order and
runs one branch-and-bound kernel, pruning with a greedy cover bound. Every
search, value pass or existence query, branches where that bound breaks,
which needs fewer nodes than branching in label order on most graphs. A
``ForestRoute`` serves forests with no search: the closed-neighbourhood
matrix of a forest is totally balanced, so a greedy that scans the vertices
leaf-first, each before its parent, and takes each vertex whose closed
neighbourhood still has room finds a largest S for any capacities (Farber,
Discrete Appl. Math. 7, 1984; Hoffman, Kolen & Sakarovitch, SIAM J. Alg.
Disc. Meth. 6, 1985), in the graph's own labels. ``_route`` keeps the route
of the graph solved last, so back-to-back solves on one graph share it.

The value pass finds the optimum and an optimal set W. A lex-least solve
then walks the vertices in ascending index order and puts each in S where
some optimal set agrees with the choices made so far (for the domination
side, leaves it out of S where one does). Where W already makes that choice
it proves it possible; where swapping one undecided member of W for the
vertex keeps W feasible, the swap proves it; elsewhere the walk asks the
route whether such a set exists, and a set found becomes the new W. So
``signed_domination`` returns the lexicographically smallest optimal
assignment (comparing per-vertex values with -1 < +1), and each subset
solver the lexicographically least optimal set, or for the domination side
the least optimal dominating set. With ``lex_least=False`` a subset
solver skips the walk: same value, and W, just as optimal and valid but not
lex-least. W is the first optimum the kernel reaches, or on a forest the
greedy's set; which optimal set that is depends on the route, the branching
and the bounds, and is not a contract.
A transparent oracle that enumerates all 2^n sign vectors is the independent
second route for the signed domination number.

Two fixed size caps are set here and nowhere else: ``BNB_CAP`` for both
packing routes, shared by all five parameters and checked once per solve in
``_solve_packing`` before any route is built, and ``ORACLE_CAP`` for the oracle.
Larger inputs raise ``SizeCapError``. The mode and the caps are checked
before any answer, on an empty core (every vertex pinned to +1) too: there
``_solve_packing`` finds no vertex open at the root and returns the empty
set, and the oracle enumerates.

The certificate types the solvers return, and the checks on them, live in
``certify``, which imports no solver.
"""

from __future__ import annotations

from .certify import ROLE_LIMITED_PACKING, ROLE_TUPLE_DOMINATING, SignedFunction, VertexSet
from .certify import verify_sdf  # noqa: F401  the benchmark harness reads it here; ROADMAP item 2 drops it
from .graphs import Graph, Record, bits, leaf_first_order, mask_of, pendant_masks

ORACLE_CAP = 20
BNB_CAP = 40


class SizeCapError(ValueError):
    """Input exceeds the solver's size cap (BNB_CAP, or ORACLE_CAP for the oracle)."""


class PartitionStats(Record):
    """Edges inside V+ and inside V-, and across the cut [V+, V-]; a slotted value record."""

    __slots__ = _fields = ("e_plus", "e_minus", "cut")

    def __init__(self, e_plus: int, e_minus: int, cut: int):
        self.e_plus = e_plus
        self.e_minus = e_minus
        self.cut = cut


def partition_stats(g: Graph, f: SignedFunction) -> PartitionStats:
    """Count edges inside each sign class and across the cut, over the adjacency masks."""
    if f.n != g.n:
        raise ValueError(f"assignment length {f.n} != vertex count {g.n}")
    adj = g.adj
    plus = f.plus_mask
    minus = f.minus_mask
    e_plus = e_minus = cut = 0
    for v in bits(plus):
        e_plus += (adj[v] & plus).bit_count()
        cut += (adj[v] & minus).bit_count()
    for v in bits(minus):
        e_minus += (adj[v] & minus).bit_count()
    return PartitionStats(e_plus=e_plus // 2, e_minus=e_minus // 2, cut=cut)


# -- signed domination --------------------------------------------------------


# No solver calls it; the benchmark harness and the tests read it here, and ROADMAP item 2 drops it.
def forced_plus_mask(g: Graph) -> int:
    """Isolated vertices, leaves, and supports: +1 in every valid assignment.

    A degree-0 or degree-1 closed neighborhood sums to at least 1 only when all
    of its (at most two) vertices are +1.
    """
    isolated, leaves, supports = pendant_masks(g)
    return isolated | leaves | supports


def signed_domination(g: Graph, mode: str = "branch_and_bound"):
    """Minimum-weight valid sign assignment, with its witness.

    Dispatches on ``mode``: "oracle" enumerates all 2^n assignments, up to
    ``ORACLE_CAP`` vertices; "branch_and_bound" takes V- as a maximum packing
    with capacities floor(deg/2), its value found by the packing kernel,
    up to ``BNB_CAP`` vertices. Any other mode is a ValueError. The mode and
    the caps are checked first on every graph. When every vertex is
    isolated, a leaf, or a support, validity pins them all to +1, and the
    optimum n with the all-+1 witness comes from ``_solve_packing`` with no
    search, or from the oracle's enumeration. Both modes return the
    lexicographically smallest optimal assignment (-1 < +1 per index).
    """
    n = g.n
    if mode == "oracle":
        if n > ORACLE_CAP:
            raise SizeCapError(f"oracle mode capped at n <= {ORACLE_CAP}, got {n}")
        return _sdf_oracle(g)
    if mode in ("branch_and_bound", "bnb"):
        size, minus = _solve_packing(g, [d // 2 for d in g.deg], True)
        return n - 2 * size, SignedFunction.from_minus_mask(n, minus)
    raise ValueError(f"unknown mode {mode!r}")


def _plus_need(g: Graph):
    # Minimum |N[v] & V+| for validity at v.
    return [g.deg[v] + 1 - g.deg[v] // 2 for v in range(g.n)]


def _sdf_oracle(g: Graph):
    """Exhaustive sweep of all 2^n sign vectors; transparent reference route."""
    n = g.n
    closed = g.closed
    need = _plus_need(g)
    # Checking high-requirement vertices first makes invalid vectors fail early.
    order = sorted(range(n), key=lambda v: (-need[v], v))
    best_minus = -1
    best_plus_mask = 0
    best_key = None
    for p in range(1 << n):
        ok = True
        for v in order:
            if (closed[v] & p).bit_count() < need[v]:
                ok = False
                break
        if not ok:
            continue
        b = n - p.bit_count()
        if b > best_minus:
            best_minus = b
            best_plus_mask = p
            best_key = None
        elif b == best_minus:
            if best_key is None:
                best_key = _lex_key(best_plus_mask, n)
            key = _lex_key(p, n)
            if key < best_key:
                best_plus_mask = p
                best_key = key
    assignment = tuple(1 if p_bit else -1 for p_bit in _lex_key(best_plus_mask, n))
    return n - 2 * best_minus, SignedFunction(assignment)


def _lex_key(plus_mask: int, n: int):
    # Per-index bits with 0 for -1 and 1 for +1: tuple order == assignment order.
    return tuple(plus_mask >> i & 1 for i in range(n))


# -- subset solvers ------------------------------------------------------------


def domination_number(g: Graph, *, lex_least: bool = True):
    """Minimum dominating set: ``tuple_domination_number`` at k = 1 (gamma = gamma_x1)."""
    return tuple_domination_number(g, 1, lex_least=lex_least)


def tuple_domination_number(g: Graph, k: int, *, lex_least: bool = True):
    """Minimum k-tuple dominating set; requires 1 <= k <= delta + 1.

    D is k-tuple dominating iff its complement S has |N[v] & S| <= deg(v)+1-k
    at every v, so D is the complement of a maximum packing with those caps.
    The value is found by the kernel's value pass, and the set returned is
    the lexicographically least minimum D. With ``lex_least=False`` it is the
    set of that pass: just as minimum and valid, but not always lex-least.
    """
    delta = min(g.deg) if g.n else 0
    if not 1 <= k <= delta + 1:
        raise ValueError(f"k must satisfy 1 <= k <= delta+1 = {delta + 1}, got {k}")
    size, s = _solve_packing(g, [d + 1 - k for d in g.deg], lex_least, least_complement=True)
    return g.n - size, VertexSet(g.full_mask & ~s, ROLE_TUPLE_DOMINATING, k)


def limited_packing_number(g: Graph, k: int, *, lex_least: bool = True):
    """Maximum k-limited packing; requires k >= 1.

    The value is found by the kernel's value pass, and the set returned is
    the lexicographically least maximum one. With ``lex_least=False`` it is
    the set of that pass: just as maximum and valid, but not always
    lex-least.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    size, s = _solve_packing(g, [k] * g.n, lex_least)
    return size, VertexSet(s, ROLE_LIMITED_PACKING, k)


def packing_number(g: Graph, *, lex_least: bool = True):
    """Maximum packing: ``limited_packing_number`` at k = 1 (rho = L_1)."""
    return limited_packing_number(g, 1, lex_least=lex_least)


# The route of the graph solved last. One slot: it serves back-to-back
# solves on one graph, as in an audit, and keeps no graph but that one alive.
# A thread that loses a race on it builds one route more, never a wrong one.
_last_route: SearchRoute | ForestRoute | None = None


def _route(g: Graph) -> SearchRoute | ForestRoute:
    """A ``ForestRoute`` for a forest g, else a ``SearchRoute``; reused while g is the last graph."""
    global _last_route
    route = _last_route
    if route is None or route.graph is not g:
        leaf_first = leaf_first_order(g)
        route = _last_route = SearchRoute(g) if leaf_first is None else ForestRoute(g, leaf_first)
    return route


def _solve_packing(g: Graph, cap, lex_least: bool, least_complement: bool = False):
    """A largest S's (|S|, S as a bitmask) on g, with S in g's own labels.

    ``cap`` holds the per-vertex capacities, in g's labels. SizeCapError when
    g has more than ``BNB_CAP`` vertices, before any route is built. When no
    vertex is open at the root (each lies in the closed neighbourhood of a
    vertex with capacity 0 or less, as for ``gamma_s`` on an empty core),
    the empty set is the one answer, (0, 0), with no pass. Otherwise the
    value pass runs on g's route (``_route``). Without ``lex_least`` it maps
    the pass's optimal set back to g's labels. With ``lex_least`` the witness
    walk of ``_lex_least`` returns the lexicographically least optimal S, or
    with ``least_complement`` the one whose complement is.
    """
    if g.n > BNB_CAP:
        raise SizeCapError(f"branch-and-bound capped at n <= {BNB_CAP}, got {g.n}")
    route = _route(g)
    order = route.order
    # Neither pass writes to its rooms, so caps in g's labels serve as they are.
    room = cap if order is None else [cap[v] for v in order]
    avail = _open_mask(route.closed, room)
    if not avail:
        return 0, 0
    size, s = route.max_packing(room, avail)
    if lex_least:
        s = _lex_least(route, room, avail, size, s, least_complement)
    if order is None:
        return size, s
    mask = 0
    for i in bits(s):
        mask |= 1 << order[i]
    return size, mask


def _open_mask(closed, room) -> int:
    """The vertices whose closed neighbourhood has no vertex of room 0 or less."""
    avail = (1 << len(closed)) - 1
    for c, r in zip(closed, room):
        if r <= 0:
            avail &= ~c
    return avail


def _lex_least(route: SearchRoute | ForestRoute, cap, avail: int, size: int, witness: int, least_complement: bool) -> int:
    """The lexicographically least optimal S in index order, in ``route``'s labels.

    ``cap`` holds the caps in those labels, ``avail`` the vertices open under
    them (``_open_mask``), and ``witness`` is an optimal set of ``size``
    members. The walk decides the vertices in ascending index
    order, each in S (or, with ``least_complement``, out of S) when some
    optimal set agrees with the decided prefix and that choice. ``witness``
    is always such a set: where it already makes the preferred choice it
    proves that choice possible. Elsewhere, on the in-first side, a swap
    may prove it without a search: for an undecided member v of the witness
    W that lies in N[u] at every u in N[i] whose room W uses up, W - v + i
    is feasible and just as large, and becomes the witness. Failing that,
    the walk asks the route for a set of the optimum's size over the
    undecided vertices, from the rooms the prefix leaves; a set found
    becomes the witness. Which set a query finds is the route's choice,
    but only whether one exists decides the walk. This is the greedy that
    an index-order search trying the preferred choice first follows to its
    first optimal leaf.
    ``cap`` is only read: the walk keeps the rooms in a list of its own,
    which each query only reads. RuntimeError if the final set is
    infeasible or not of ``size`` members.
    """
    closed, nbhd = route.closed, route.nbhd
    room = list(cap)
    undecided = (1 << len(closed)) - 1
    members = 0
    for i in route.label:
        bit = 1 << i
        undecided ^= bit
        need = size - members.bit_count()
        if least_complement:
            if not witness & bit:
                continue
            found, s = route.max_packing(room, undecided & avail, need)
            if found >= need:
                witness = members | s
                continue
        elif not avail & bit:
            continue
        # i joins S, for good unless an in-first query finds no set with it.
        trial = avail
        for u in nbhd[i]:
            room[u] -= 1
            if not room[u]:
                trial &= ~closed[u]
        if not witness & bit:
            # Swap before asking: W - v + i is feasible, as large as W, and
            # agrees with the prefix, for an undecided v in W that lies in
            # N[u] at every u in N[i] whose room W already uses up. The
            # highest such label is taken.
            swap = witness & undecided
            for u in nbhd[i]:
                if (closed[u] & witness).bit_count() == cap[u]:
                    swap &= closed[u]
            if swap:
                witness ^= bit | (1 << (swap.bit_length() - 1))
            else:
                found, s = route.max_packing(room, undecided & trial, need - 1)
                if found < need - 1:
                    for u in nbhd[i]:
                        room[u] += 1
                    continue
                witness = members | bit | s
        members |= bit
        avail = trial
    bad = [i for i, c in enumerate(closed) if (c & members).bit_count() > cap[i]]
    if bad or members.bit_count() != size:
        raise RuntimeError(
            f"witness walk ended on {members.bit_count()} members, not the optimum {size},"
            f" over capacity at labels {bad}; search inconsistency"
        )
    return members


class SearchRoute:
    """The branch-and-bound route: every packing query on ``graph`` as a search.

    The graph is relabelled in ascending (degree, index) order: label i is
    vertex ``order[i]``, and vertex v has label ``label[v]``. ``closed``
    holds the closed neighbourhood masks in the new labels, ``nbhd`` the
    same neighbourhoods as ascending lists. ``drop[u]`` holds u and every
    neighbour v with N[u] ⊆ N[v]: once a search leaves u out of S it may
    leave those v out too (see ``max_packing``). Every search runs in these
    labels, value passes and the witness walk's queries (see
    ``_lex_least``) alike. The cover grows each group from its lowest label,
    so the searches favour low-degree branching vertices.
    """

    __slots__ = ("graph", "order", "label", "closed", "nbhd", "drop")

    def __init__(self, g: Graph):
        self.graph = g
        # sorted is stable, so equal degrees keep ascending index order.
        order = sorted(range(g.n), key=g.deg.__getitem__)
        label = [0] * g.n
        for i, v in enumerate(order):
            label[v] = i
        # Filled from the edge list: cheaper than relabelling each mask bit by bit.
        nbhd = [[i] for i in range(g.n)]
        for u, v in g.edges:
            nbhd[label[u]].append(label[v])
            nbhd[label[v]].append(label[u])
        for row in nbhd:
            row.sort()
        closed = [mask_of(row) for row in nbhd]
        # v lies in every N[w], w in N[u], iff N[u] ⊆ N[v].
        drop = []
        for row in nbhd:
            mask = -1
            for w in row:
                mask &= closed[w]
            drop.append(mask)
        self.order = order
        self.label = label
        self.closed = closed
        self.nbhd = nbhd
        self.drop = drop

    def max_packing(self, room, avail: int, target=None):
        """(|S|, S as a bitmask) for a largest S ⊆ ``avail`` with |N[v] & S| <= room[v] at every v.

        Runs in the route's labels and branches on one available vertex per
        node, trying "in S" first. ``room[v]`` starts as the members v may still
        take (never negative: the caps are at least 0, and a walk's rooms stay
        so). The search only reads the caller's list: the in-branch of a vertex
        w gets its own copy, one less at every vertex of N[w], so each node's
        rooms are the caller's minus |N[v] & S|. ``avail`` holds the undecided
        vertices whose closed neighbourhood has no full vertex (room 0); only
        those can still join S, so the caller removes every closed neighbourhood
        of a full vertex from it. A node dies when ``size + |avail|`` cannot beat
        the incumbent, or else when a greedy cover cannot. The cover splits
        ``avail`` into groups N[u] & rest, one centre u per group, each grown
        from the lowest vertex w of rest, and at most room[u] of a group can
        join S; it stops at the group that takes the bound past the incumbent.
        A node that needs one more member skips it, since there the first
        group always passes. Every node branches on that last group's w,
        where the bound breaks (the lowest available label when the cover did
        not run).

        Leaving w out of S also leaves out every undecided v with N[w] ⊆ N[v]
        (``drop``): for a set S there with v, S - v + w has the same size,
        is feasible, and lies in w's in-branch, which was searched first. This
        holds for any branching vertex w, as do the in/out split and the cover
        bound, so every pruned subtree holds no set that beats what was found
        before it, and every search is exact.

        With ``target=None`` the search keeps the first optimum it reaches. With a
        ``target`` the incumbent starts at target - 1 and the search stops at the
        first leaf, a set of at least ``target`` members; it returns
        (target - 1, 0) when there is none. Which optimal set either finds
        depends on the branching and the bounds; the value is exact, and the
        witness walk only needs one set.
        """
        closed = self.closed
        nbhd = self.nbhd
        drop = self.drop
        # Below any |N[u] & rest| - room[u]: a group holds at least the vertex w it covers.
        floor = -max(room, default=0)
        best = -1 if target is None else target - 1
        witness = 0
        stop = target is not None

        def search(avail: int, size: int, members: int, room) -> bool:
            # True stops the search: an existence query keeps its first leaf.
            # Each pass of the loop is one node; the out-branch stays in the frame.
            nonlocal best, witness
            while True:
                if size + avail.bit_count() <= best:
                    return False
                if not avail:
                    best, witness = size, members
                    return stop
                w = (avail & -avail).bit_length() - 1
                need = best - size + 1
                # Greedy cover: the centre u in N[w] of the lowest uncovered w
                # with the most |N[u] & rest| - room[u] (the first on ties).
                # Below a need of 2 the first group, grown from the lowest
                # available w, already beats best: it holds w, and every room in
                # N[w] is at least 1.
                if need > 1:
                    bound = size
                    rest = avail
                    while True:
                        top = floor
                        for u in nbhd[w]:
                            d = (closed[u] & rest).bit_count() - room[u]
                            if d > top:
                                top = d
                                centre = u
                        # The group takes min(|N[u] & rest|, room[u]) = room[u] + min(d, 0).
                        bound += room[centre] + top if top < 0 else room[centre]
                        if bound > best:
                            break
                        rest &= ~closed[centre]
                        if not rest:
                            return False
                        w = (rest & -rest).bit_length() - 1
                # Branch on w, the lowest vertex of the group that took the bound
                # past best (the lowest available one when the cover did not
                # run): the in-branch on a copy of the rooms, then the out-branch
                # here.
                bit = 1 << w
                inner = room[:]
                blocked = bit
                for u in nbhd[w]:
                    inner[u] -= 1
                    if not inner[u]:
                        blocked |= closed[u]
                if search(avail & ~blocked, size + 1, members | bit, inner):
                    return True
                avail &= ~drop[w]

        try:
            search(avail, 0, 0, room)
        finally:
            # search refers to itself through its closure cell; clearing the cell
            # frees it at once instead of leaving a cycle to the garbage collector.
            del search
        return best, witness


class ForestRoute:
    """The leaf-first greedy's route: every packing query on the forest ``graph``, with no search.

    ``leaf_first`` holds the greedy's order (``graphs.leaf_first_order``).
    The labels are the graph's own, so ``order`` is None and ``label`` the
    identity, and ``closed`` and ``nbhd`` are the graph's neighbourhoods.
    """

    __slots__ = ("graph", "leaf_first", "label", "closed", "nbhd")
    order = None

    def __init__(self, g: Graph, leaf_first: list[int]):
        nbhd = [[v] for v in range(g.n)]
        for u, v in g.edges:
            nbhd[u].append(v)
            nbhd[v].append(u)
        self.graph = g
        self.leaf_first = leaf_first
        self.label = range(g.n)
        self.closed = g.closed
        self.nbhd = nbhd

    def max_packing(self, room, avail: int, target=None):
        """``SearchRoute.max_packing``'s answer on a forest, from one greedy scan and no search.

        The scan visits the vertices leaf-first, each before its parent, and
        takes every available vertex whose closed neighbourhood still has room.
        On a forest the closed-neighbourhood matrix is totally balanced and this
        order is a strong elimination order, so the greedy's set is a largest
        one for any rooms and any ``avail`` (Farber, Discrete Appl. Math. 7,
        1984; Hoffman, Kolen & Sakarovitch, SIAM J. Alg. Disc. Meth. 6, 1985).
        With a ``target`` it returns (target - 1, 0) when that set is too
        small. ``room`` is only read.
        """
        closed, nbhd = self.closed, self.nbhd
        left = list(room)
        members = 0
        for v in self.leaf_first:
            if avail >> v & 1:
                members |= 1 << v
                for u in nbhd[v]:
                    left[u] -= 1
                    if not left[u]:
                        avail &= ~closed[u]
        size = members.bit_count()
        if target is not None and size < target:
            return target - 1, 0
        return size, members
