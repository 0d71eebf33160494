"""Certificates and the one check that a returned value matches its certificate.

A ``SignedFunction`` certifies ``gamma_s``; a ``VertexSet`` certifies ``gamma``,
``rho``, ``L_k`` or ``gamma_xk``. Both store their vertex sets as bit masks,
bit v for vertex v, as ``Graph`` stores its neighbourhoods, so the solvers hand
over their masks and the checks read them with no conversion. ``check`` is the
audit's and the CLI's one re-check. This module imports no solver, so it is
independent of what it checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, bits

ROLE_TUPLE_DOMINATING = "tuple_dominating"
ROLE_LIMITED_PACKING = "limited_packing"


@dataclass(frozen=True, slots=True)
class SignedFunction:
    """A +/-1 vertex labeling; the candidate or optimal signed dominating function.

    A frozen certificate. The loop that rejects values other than -1 and +1
    also builds the mask of the +1 vertices, once per labeling, for
    ``plus_mask`` and ``minus_mask`` to read; it takes no part in equality,
    hashing or the repr.
    """

    assignment: tuple
    _plus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        plus = 0
        for v, a in enumerate(self.assignment):
            if a == 1:
                plus |= 1 << v
            elif a != -1:
                raise ValueError("assignment values must be -1 or +1")
        object.__setattr__(self, "_plus", plus)

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def weight(self) -> int:
        return sum(self.assignment)

    @property
    def plus_mask(self) -> int:
        return self._plus

    @property
    def minus_mask(self) -> int:
        return ((1 << len(self.assignment)) - 1) ^ self._plus

    @classmethod
    def from_minus_mask(cls, n: int, minus: int) -> "SignedFunction":
        """The labeling of vertices 0..n-1 that is -1 exactly on the bits of ``minus``.

        ValueError for a negative mask or a bit at index n or above.
        """
        if minus < 0 or minus >> n:
            raise ValueError(f"minus mask has a vertex outside 0..{n - 1}")
        return cls(tuple([-1 if minus >> v & 1 else 1 for v in range(n)]))

    def __str__(self):
        return "".join("+" if a == 1 else "-" for a in self.assignment)


@dataclass(frozen=True, slots=True)
class VertexSet:
    """A vertex subset certificate: a k-tuple dominating set or a k-limited packing.

    The set is stored as one bit mask, bit v for vertex v. ``size``,
    ``sorted_members()`` and the read-only ``members`` view derive from it.
    """

    mask: int
    role: str
    k: int

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def members(self) -> frozenset:
        return frozenset(self.sorted_members())

    def sorted_members(self) -> tuple:
        # A negative mask has infinitely many set bits; refuse it, not loop.
        if self.mask < 0:
            raise ValueError("member index outside graph")
        return tuple(bits(self.mask))


def verify_sdf(g: Graph, f: SignedFunction) -> list:
    """Vertices whose closed neighborhood sums below 1; empty iff f is valid."""
    if f.n != g.n:
        raise ValueError(f"assignment length {f.n} != vertex count {g.n}")
    plus = f.plus_mask
    out = []
    for v in range(g.n):
        if 2 * (g.closed[v] & plus).bit_count() - (g.deg[v] + 1) < 1:
            out.append(v)
    return out


def vertex_set_violations(g: Graph, vs: VertexSet) -> list:
    """Vertices violating the role invariant of ``vs``; empty iff valid."""
    mask = vs.mask
    if mask < 0 or mask >> g.n:
        raise ValueError("member index outside graph")
    out = []
    if vs.role == ROLE_TUPLE_DOMINATING:
        for v in range(g.n):
            if (g.closed[v] & mask).bit_count() < vs.k:
                out.append(v)
    elif vs.role == ROLE_LIMITED_PACKING:
        for v in range(g.n):
            if (g.closed[v] & mask).bit_count() > vs.k:
                out.append(v)
    else:
        raise ValueError(f"unknown vertex-set role {vs.role!r}")
    return out


def check(g: Graph, name: str, value: int, cert, role: str | None = None, k: int | None = None) -> str | None:
    """None when ``cert`` is a valid witness of ``name = value`` on g, else the reason it is not.

    With no ``role`` it must be a ``SignedFunction``, valid and of weight
    ``value``. With one it must be a ``VertexSet`` labelled with that ``role``
    and ``k``, valid as such, and of ``value`` members.
    """
    if role is None and isinstance(cert, SignedFunction):
        bad = verify_sdf(g, cert)
        if bad or cert.weight != value:
            return f"{name} = {value} has a witness of weight {cert.weight} invalid at vertices {bad}"
        return None
    if isinstance(cert, VertexSet) and cert.role == role and cert.k == k:
        bad = vertex_set_violations(g, cert)
        if bad or cert.size != value:
            return f"{name} = {value} has a certificate of size {cert.size} invalid at vertices {bad}"
        return None
    got = f"a {cert.role} set at k = {cert.k}" if isinstance(cert, VertexSet) else "a sign assignment"
    want = "a sign assignment" if role is None else f"a {role} set at k = {k}"
    return f"{name} = {value} has a certificate for {got}, not for {want}"
