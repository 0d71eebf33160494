"""Simple undirected graphs with bitset neighborhoods and structural analysis.

Vertices are dense indices 0..n-1. Each vertex stores its open and closed
neighborhoods as Python integers used as bit masks, so set intersections and
cardinalities inside the solvers reduce to ``&`` plus ``int.bit_count()``.
Graphs are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

# A sanity cap on input size. The solvers stop well below it, at 40 vertices
# (solvers.BNB_CAP), and the graph6 codec at 62.
MAX_VERTICES = 512


class Graph:
    """A simple undirected graph on vertices 0..n-1.

    Rejects self-loops, duplicate edges, and out-of-range endpoints.
    """

    __slots__ = ("n", "edges", "adj", "closed", "deg", "full_mask")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} exceeds cap {MAX_VERTICES}")
        self.n = n
        adj = [0] * n
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if adj[u] >> v & 1:
                raise ValueError(f"duplicate edge ({min(u, v)},{max(u, v)})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        # Read off the masks, each vertex's higher neighbours in turn: the
        # pairs come out ascending with no sort.
        pairs = []
        for u in range(n):
            higher = adj[u] >> u >> 1
            while higher:
                low = higher & -higher
                pairs.append((u, u + low.bit_length()))
                higher ^= low
        self.edges = tuple(pairs)
        self.adj = tuple(adj)
        # Tuples from lists, not generators: a tuple built from a generator is
        # resized as it grows and, once freed, piles up in CPython's per-size
        # tuple free lists.
        self.closed = tuple([adj[v] | (1 << v) for v in range(n)])
        self.deg = tuple([adj[v].bit_count() for v in range(n)])
        # Bit mask with one bit per vertex.
        self.full_mask = (1 << n) - 1

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int):
        return bits(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def is_connected(self) -> bool:
        """BFS over neighborhood masks; the empty graph counts as connected."""
        if self.n <= 1:
            return True
        reached = 1
        frontier = 1
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= self.adj[v]
            frontier = grow & ~reached
            reached |= frontier
        return reached == self.full_mask

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(members) -> int:
    """Bit mask for an iterable of vertex indices."""
    m = 0
    for v in members:
        m |= 1 << v
    return m


class Record:
    """A value record: equality and repr over the fields that ``_fields`` names.

    Two records are equal when they are of the same class and ``_values()``
    agree; a record is unhashable, as a mutable value should be. The repr is
    ``Name(field=value, ...)`` in ``_fields`` order. A subclass that adds no
    ``__slots__`` keeps a ``__dict__``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record that refuses assignment and deletion and hashes by ``_values()``.

    Its constructor sets the fields past ``__setattr__`` and takes them in
    ``_fields`` order, so a copy or an unpickled record is rebuilt through it,
    validation included. Only frozen records define ``__setattr__``: on a
    mutable one it would slow every assignment in the constructor.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()


class StructuralProfile(Record):
    """The structural counts of a graph that the bounds, checks and reports read.

    ``leaf_mask`` holds the leaves (degree-1 vertices) as a bit mask, and
    ``leaf_count``, ``support_count`` and ``odd_count`` count the leaves, the
    support vertices (those adjacent to a leaf) and the odd-degree vertices.
    The core is every vertex that is neither isolated, a leaf nor a support;
    ``delta_star`` is the minimum degree over it, or None when it is empty.
    A plain slotted value record, built once per audited graph; nothing
    changes one after it is built.
    """

    __slots__ = _fields = (
        "n", "m", "delta", "Delta", "leaf_mask", "leaf_count", "support_count", "odd_count", "delta_star",
        "is_connected", "is_tree",
    )

    def __init__(
        self, n: int, m: int, delta: int, Delta: int, leaf_mask: int, leaf_count: int, support_count: int,
        odd_count: int, delta_star: int | None, is_connected: bool, is_tree: bool,
    ):
        self.n = n
        self.m = m
        self.delta = delta
        self.Delta = Delta
        self.leaf_mask = leaf_mask
        self.leaf_count = leaf_count
        self.support_count = support_count
        self.odd_count = odd_count
        self.delta_star = delta_star
        self.is_connected = is_connected
        self.is_tree = is_tree


def pendant_masks(g: Graph) -> tuple[int, int, int]:
    """Bit masks of the isolated vertices, the leaves and the support vertices.

    A leaf has degree 1, and its one neighbour is a support vertex; the two
    ends of a K2 are both. One pass over the degrees.
    """
    adj = g.adj
    isolated = leaves = supports = 0
    for v, d in enumerate(g.deg):
        if d <= 1:
            if d:
                leaves |= 1 << v
                supports |= adj[v]
            else:
                isolated |= 1 << v
    return isolated, leaves, supports


def leaf_first_order(g: Graph) -> list[int] | None:
    """Every vertex of a forest, each before its parent; None when g has a cycle.

    The order is a breadth-first search of each component from its lowest
    vertex, reversed, so deeper vertices come first. A forest with c
    components has m = n - c edges, so m >= n > 0 answers None at once;
    otherwise one search counts the components.
    """
    n = g.n
    if g.m >= n > 0:
        return None
    adj = g.adj
    order = []
    seen = 0
    components = 0
    for root in range(n):
        if seen >> root & 1:
            continue
        components += 1
        seen |= 1 << root
        head = len(order)
        order.append(root)
        while head < len(order):
            fresh = adj[order[head]] & ~seen
            seen |= fresh
            order.extend(bits(fresh))
            head += 1
    if g.m != n - components:
        return None
    order.reverse()
    return order


def structural_profile(g: Graph) -> StructuralProfile:
    """Compute the degree extremes, the leaf, support and odd-degree counts, and delta*.

    The isolated, leaf and support classes come from ``pendant_masks`` as bit
    masks, and the core is every other vertex. A tree is connected with
    m = n - 1 >= 0.
    """
    n = g.n
    deg = g.deg
    isolated, leaves, supports = pendant_masks(g)
    core = g.full_mask & ~(isolated | leaves | supports)
    connected = g.is_connected()
    return StructuralProfile(
        n=n,
        m=g.m,
        delta=min(deg) if n else 0,
        Delta=max(deg) if n else 0,
        leaf_mask=leaves,
        leaf_count=leaves.bit_count(),
        support_count=supports.bit_count(),
        odd_count=sum([d & 1 for d in deg]),
        delta_star=min([deg[v] for v in bits(core)], default=None),
        is_connected=connected,
        is_tree=connected and n >= 1 and g.m == n - 1,
    )
