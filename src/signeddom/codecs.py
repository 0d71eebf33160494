"""Graph serialization: whitespace edge lists and graph6 (short form).

Edge list grammar: comment lines start with '#', the first non-comment line is
"n m", followed by exactly m lines "u v" with 0 <= u,v < n and u != v.
Duplicate pairs are rejected. Serialization is canonical: edges are written
with u < v, sorted lexicographically.

graph6 short form covers n <= 62: one header byte chr(63+n), then the upper
triangle of the adjacency matrix in column-major order, packed big-endian into
6-bit groups, each emitted as chr(group+63). Padding bits must be zero, which
makes serialization bit-exact and parsing its strict inverse.
"""

from __future__ import annotations

from .graphs import Graph

FORMATS = ("edgelist", "graph6")

_G6_HEADER = ">>graph6<<"
_G6_MAX_N = 62


class GraphFormatError(ValueError):
    """Malformed graph text; carries the 1-based line (or byte offset) at fault."""

    def __init__(self, message: str, line: int | None = None, offset: int | None = None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"offset {offset}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
        self.line = line
        self.offset = offset


def parse_graph(text: bytes | str, fmt: str) -> Graph:
    """Decode ``text`` in the given format ("edgelist" or "graph6")."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"non-ASCII input: {exc}") from exc
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "graph6":
        return _parse_graph6(text)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def serialize_graph(g: Graph, fmt: str) -> str:
    """Encode ``g`` canonically in the given format."""
    if fmt == "edgelist":
        return _serialize_edgelist(g)
    if fmt == "graph6":
        return _serialize_graph6(g)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def detect_format(text: bytes | str) -> str:
    """Guess the format from the first non-whitespace byte.

    Edge lists start with '#' or a digit (ASCII < 63); graph6 bodies start with
    a byte in 63..126. The ranges are disjoint, so detection is unambiguous.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    stripped = text.lstrip()
    if not stripped:
        raise GraphFormatError("empty input")
    if stripped.startswith(_G6_HEADER):
        return "graph6"
    return "graph6" if ord(stripped[0]) >= 63 else "edgelist"


# -- edge list ---------------------------------------------------------------


def _parse_edgelist(text: str) -> Graph:
    header = None
    # A set, so each duplicate check is O(1); Graph lists the edges in order anyway.
    edges = set()
    n = m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphFormatError("header must be 'n m'", line=lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError("header must be two integers 'n m'", line=lineno)
            if n < 0 or m < 0:
                raise GraphFormatError("header counts must be non-negative", line=lineno)
            header = (n, m)
            continue
        if len(edges) >= m:
            raise GraphFormatError(f"trailing data after {m} edges", line=lineno)
        if len(parts) != 2:
            raise GraphFormatError("edge line must be 'u v'", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("edge endpoints must be integers", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex index out of range 0..{n - 1}", line=lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", line=lineno)
        key = (u, v) if u < v else (v, u)
        if key in edges:
            raise GraphFormatError(f"duplicate edge ({key[0]},{key[1]})", line=lineno)
        edges.add(key)
    if header is None:
        raise GraphFormatError("missing 'n m' header")
    if len(edges) != m:
        raise GraphFormatError(f"expected {m} edges, found {len(edges)}")
    return Graph(n, edges)


def _serialize_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# -- graph6 ------------------------------------------------------------------


def _parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip()
    if not s:
        raise GraphFormatError("empty graph6 input")
    for i, ch in enumerate(s):
        code = ord(ch)
        if not (63 <= code <= 126):
            raise GraphFormatError(f"illegal graph6 character {ch!r}", offset=i)
    head = ord(s[0]) - 63
    if head == 63:
        raise GraphFormatError("graph6 long form (n > 62) unsupported", offset=0)
    n = head
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = s[1:]
    if len(body) != nbytes:
        raise GraphFormatError(
            f"graph6 body for n={n} needs {nbytes} bytes, got {len(body)}", offset=1
        )
    bitstream = 0
    for ch in body:
        bitstream = (bitstream << 6) | (ord(ch) - 63)
    pad = 6 * nbytes - nbits
    if pad and bitstream & ((1 << pad) - 1):
        raise GraphFormatError("nonzero graph6 padding bits", offset=len(s) - 1)
    bitstream >>= pad
    edges = []
    # Column-major upper triangle, most significant bit first: column j holds
    # rows 0..j-1 in its j bits, row i at bit j-1-i, and the last column is
    # the lowest. Only the set bits of each column are visited.
    for j in range(n - 1, 0, -1):
        col = bitstream & ((1 << j) - 1)
        bitstream >>= j
        while col:
            low = col & -col
            edges.append((j - low.bit_length(), j))
            col ^= low
    return Graph(n, edges)


def _serialize_graph6(g: Graph) -> str:
    if g.n > _G6_MAX_N:
        raise ValueError(f"graph too large for graph6 short form (n={g.n} > {_G6_MAX_N})")
    n = g.n
    bitstream = 0
    # Each column j from the set bits of its lower neighbours, row i at bit j-1-i.
    for j, nbrs in enumerate(g.adj):
        lower = nbrs & ((1 << j) - 1)
        col = 0
        while lower:
            low = lower & -lower
            col |= 1 << (j - low.bit_length())
            lower ^= low
        bitstream = bitstream << j | col
    nbits = n * (n - 1) // 2
    pad = (-nbits) % 6
    bitstream <<= pad
    nbits += pad
    chars = [chr(63 + n)]
    for shift in range(nbits - 6, -1, -6):
        chars.append(chr(63 + (bitstream >> shift & 0x3F)))
    return "".join(chars)
