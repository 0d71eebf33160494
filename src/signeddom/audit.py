"""Corpus-level verification: exact values vs. every bound, plus invariant checks.

``audit_graph`` produces one BoundReport: exact parameters with certificates,
every bound with satisfaction status and parity-tightened gap, and the named
invariant checks run against the optimal witness. ``audit_corpus`` sweeps a
generated corpus deterministically (per-graph seeds are a pure function of the
master seed and the graph index) and writes CSV/JSON reports; any bound
violation or failed invariant check aborts loudly with a diagnostic dump,
because a genuine violation would contradict a proved statement and therefore
signals an implementation bug. ``hunt`` collects sharpness witnesses for one
bound from the same checked stream of reports.
"""

from __future__ import annotations

import collections
import contextlib
import errno
import itertools
import json
import os
from json.encoder import encode_basestring_ascii

from .bounds import (
    BOUND_ORDER,
    LOWER,
    lb_degree_leaves,
    lb_degree_parity,
    lb_max_degree_domination,
    not_applicable,
    tree_lower_bounds,
    ub_packing_min_degree,
)
from .certify import (
    ROLE_LIMITED_PACKING,
    ROLE_TUPLE_DOMINATING,
    SignedFunction,
    VertexSet,
    check,
    vertex_set_violations,
)
from .codecs import serialize_graph
from .generate import (
    TREE_ENUM_MAX_N,
    derive_seed,
    enumerate_labeled_trees,
    generate,
    require_probability,
    require_size,
)
from .graphs import FrozenRecord, Graph, Record, StructuralProfile, structural_profile
from .solvers import (
    BNB_CAP,
    domination_number,
    limited_packing_number,
    packing_number,
    partition_stats,
    signed_domination,
    tuple_domination_number,
)

CHECK_ORDER = (
    "lemma_3_1_i",
    "lemma_3_1_ii",
    "claim1_limited_packing",
    "claim2_tuple_dom",
    "eq1",
    "eq2",
    "chain_Lk",
    "chain_tuple",
)

CHAIN_CHECK_MAX_N = 10

CORPUS_KINDS = (
    "complete",
    "path",
    "cycle",
    "star",
    "random_tree",
    "random_connected",
    "trees_exhaustive",
)


class BoundViolation(RuntimeError):
    """A bound or invariant check failed; carries the offending graph and report."""

    def __init__(self, message: str, graph6: str, report: "BoundReport"):
        super().__init__(message)
        self.graph6 = graph6
        self.report = report

    def __reduce__(self):
        # Rebuilt from all three fields, so it survives the trip back from a pool worker.
        return type(self), (str(self), self.graph6, self.report)

    def dump(self) -> str:
        return (
            f"VIOLATION: {self}\n"
            f"graph6: {self.graph6}\n"
            f"report: {self.report.to_json_text()}"
        )


class CorpusSpec(FrozenRecord):
    """Deterministic description of a generated graph corpus."""

    _fields = ("kind", "n_min", "n_max", "count", "p", "seed")

    def __init__(self, kind: str, n_min: int, n_max: int, count: int = 1, p: float = 0.5, seed: int = 0):
        if kind not in CORPUS_KINDS:
            raise ValueError(f"unknown corpus kind {kind!r}; expected one of {CORPUS_KINDS}")
        if count < 1:
            raise ValueError("count must be >= 1")
        if n_min > n_max:
            raise ValueError("n_min must not exceed n_max")
        if n_max > BNB_CAP:
            raise ValueError(f"n_max {n_max} exceeds the solver caps (n <= {BNB_CAP})")
        if kind == "trees_exhaustive" and n_max > TREE_ENUM_MAX_N:
            raise ValueError(f"trees_exhaustive needs n_max <= {TREE_ENUM_MAX_N}, got {n_max}")
        # The generator's own errors, raised before any report file is opened.
        # The tree and cycle corpora start at n = 2 and 3 whatever n_min is.
        if kind not in ("trees_exhaustive", "cycle"):
            require_size(kind, n_min)
        if kind == "random_connected":
            require_probability(p)
        self.__dict__.update(kind=kind, n_min=n_min, n_max=n_max, count=count, p=p, seed=seed)


class BoundReport(Record):
    """Everything the audit learned about one graph.

    The bound section is ``row``'s, a _BoundRow that a sweep may share
    between graphs: ``bounds`` and ``sharp`` are read-only views of it, and
    the report's JSON and CSV text splice in the row's rendered text.
    Equality compares the row's text, never the row object; the repr omits it.
    """

    _fields = (
        "graph_id", "graph6", "n", "m", "profile", "gamma_s", "witness", "gamma", "rho", "limited_packing_k",
        "limited_packing_value", "tuple_k", "tuple_value", "checks",
    )

    def __init__(
        self, graph_id: str, graph6: str, n: int, m: int, profile: StructuralProfile, gamma_s: int,
        witness: SignedFunction, gamma: int, rho: int, limited_packing_k: int | None,
        limited_packing_value: int | None, tuple_k: int, tuple_value: int, row: _BoundRow, checks: dict | None = None,
    ):
        self.graph_id = graph_id
        self.graph6 = graph6
        self.n = n
        self.m = m
        self.profile = profile
        self.gamma_s = gamma_s
        self.witness = witness
        self.gamma = gamma
        self.rho = rho
        self.limited_packing_k = limited_packing_k
        self.limited_packing_value = limited_packing_value
        self.tuple_k = tuple_k
        self.tuple_value = tuple_value
        self.row = row
        self.checks = {} if checks is None else checks  # name -> True/False/None

    def _values(self) -> tuple:
        return (*super()._values(), self.row.bounds_json, self.row.sharp_json)

    @property
    def bounds(self) -> tuple:
        """(Bound, satisfied, gap) triples, in BOUND_ORDER."""
        return self.row.bounds

    @property
    def sharp(self) -> tuple:
        """Names of the bounds that meet gamma_s, in BOUND_ORDER."""
        return self.row.sharp

    def bound(self, name: str):
        for b, satisfied, gap in self.bounds:
            if b.name == name:
                return b, satisfied, gap
        raise KeyError(name)

    def violations(self) -> list:
        """Messages for unsatisfied applicable bounds and failed checks."""
        out = []
        for b, satisfied, _ in self.bounds:
            if b.applicable and satisfied is False:
                out.append(f"bound {b.name} violated (raw={b.raw}, gamma_s={self.gamma_s})")
        for name, status in self.checks.items():
            if status is False:
                out.append(f"invariant check {name} failed")
        return out

    def to_json_text(self) -> str:
        """The report as JSON text, byte for byte ``json.dumps(..., indent=2)``.

        This is the one definition of the report schema: ``to_json_dict``,
        ``BoundViolation.dump``, ``bounds --json`` and the corpus JSON file all
        read it. Building the text directly costs about a fifth of building a
        dict and passing it to the standard library's indented encoder, which
        is pure Python. The bound section is the row's text, rendered once.
        """
        p = self.profile
        checks = [f'{_quote(name)}: "{_status_str(v)}"' for name, v in self.checks.items()]
        return f"""{{
  "graph_id": {_quote(self.graph_id)},
  "graph6": {_quote(self.graph6)},
  "n": {self.n},
  "m": {self.m},
  "profile": {{
    "delta": {p.delta},
    "Delta": {p.Delta},
    "delta_star": {"null" if p.delta_star is None else p.delta_star},
    "leaves": {p.leaf_count},
    "supports": {p.support_count},
    "odd_vertices": {p.odd_count},
    "connected": {_LITERALS[p.is_connected]},
    "tree": {_LITERALS[p.is_tree]}
  }},
  "exact": {{
    "gamma_s": {self.gamma_s},
    "gamma": {self.gamma},
    "rho": {self.rho},
    "limited_packing_k": {"null" if self.limited_packing_k is None else self.limited_packing_k},
    "limited_packing": {"null" if self.limited_packing_value is None else self.limited_packing_value},
    "tuple_k": {self.tuple_k},
    "tuple_domination": {self.tuple_value}
  }},
  "witness": {_quote(str(self.witness))},
  "bounds": {self.row.bounds_json},
  "checks": {_members("{", checks, "}")},
  "sharp": {self.row.sharp_json}
}}"""

    def to_json_dict(self) -> dict:
        """The report as a JSON object, parsed from ``to_json_text``."""
        return json.loads(self.to_json_text())

    def csv_row(self) -> str:
        p = self.profile
        cells = [
            self.graph_id,
            str(self.n),
            str(self.m),
            str(p.delta),
            str(p.Delta),
            "NA" if p.delta_star is None else str(p.delta_star),
            str(p.leaf_count),
            str(p.support_count),
            str(self.gamma_s),
            str(self.gamma),
            str(self.rho),
            self.row.bound_cells,
        ]
        for name in CHECK_ORDER:
            status = self.checks.get(name)
            cells.append("NA" if status is None else ("pass" if status else "fail"))
        return ",".join(cells)


def _status_str(v) -> str:
    if v is None:
        return "na"
    return "pass" if v else "fail"


def _members(open_: str, lines: list, close: str) -> str:
    """A report field's array or object of encoded ``lines``, laid out as ``indent=2`` does."""
    if not lines:
        return open_ + close
    return f"{open_}\n    " + ",\n    ".join(lines) + f"\n  {close}"


def _bound_text(b, satisfied, gap) -> str:
    raw = "null" if b.raw is None else f"[\n        {b.raw.numerator},\n        {b.raw.denominator}\n      ]"
    return f"""{{
      "name": {_quote(b.name)},
      "kind": {_quote(b.kind)},
      "applicable": {_LITERALS[b.applicable]},
      "reason": {"null" if b.reason is None else _quote(b.reason)},
      "raw": {raw},
      "tightened": {"null" if b.tightened is None else b.tightened},
      "satisfied": {_LITERALS[satisfied]},
      "gap": {"null" if gap is None else gap}
    }}"""


# json.dumps of a str, and of a bool or None. _LITERALS takes only those three
# values: an int 1 or 0 would find the entry of True or False.
_quote = encode_basestring_ascii
_LITERALS = {None: "null", True: "true", False: "false"}


CSV_HEADER = ",".join(
    [
        "graph_id",
        "n",
        "m",
        "delta",
        "Delta",
        "delta_star",
        "leaves",
        "supports",
        "gamma_s",
        "gamma",
        "rho",
    ]
    + [f"{name}_{suffix}" for name in BOUND_ORDER for suffix in ("value", "gap")]
    + list(CHECK_ORDER)
)


def audit_graph(g: Graph, graph_id: str | None = None, *, bound_rows: dict | None = None) -> BoundReport:
    """Compute exact values, evaluate all bounds, and run the invariant checks.

    Disconnected graphs get a report with every bound marked not applicable
    and the invariant checks skipped. Output is deterministic per graph.
    The bound section is a ``_BoundRow``, looked up in ``bound_rows``, a
    sweep's memo, or built on a miss; without a memo every bound is
    evaluated for this graph alone. The row is found right after the solves
    and the report is built around it, so the report that a certificate
    abort dumps carries the full bound section and no checks. Graphs with
    n > ``BNB_CAP`` raise SizeCapError from the solvers. The solvers run
    before the graph6 encoding, so it never sees such a graph.

    Every solve runs back to back on g, so all of them, the chain checks
    included, share the solvers' one packing route of g: its degree-order
    search, or on a forest its leaf-first greedy. The report carries subset
    values only, so those run with ``lex_least=False``.
    At delta // 2 == 1, L_k is rho = L_1 and takes its value and set. Each
    of the five values is re-checked against its certificate by
    ``certify.check``, with the role and k the audit asked for; a failed
    re-check raises BoundViolation.
    The chain checks (n <= 10) take these values too: both chains start from
    the audit's value at k = 1 (rho, gamma) and reuse it at the audit's own k
    (L_k, gamma_xk), so they solve only the other k. On a tree that leaves
    the tuple chain nothing to solve.
    """
    profile = structural_profile(g)
    gamma_s, witness = signed_domination(g, "branch_and_bound")
    gamma, gamma_set = domination_number(g, lex_least=False)
    rho, rho_set = packing_number(g, lex_least=False)
    lp_k = profile.delta // 2 if profile.delta >= 2 else None
    lp_value, lp_set = None, None
    if lp_k == 1:
        lp_value, lp_set = rho, rho_set
    elif lp_k is not None:
        lp_value, lp_set = limited_packing_number(g, lp_k, lex_least=False)
    tuple_k = (profile.delta + 1) // 2 + 1
    tuple_value, tuple_set = tuple_domination_number(g, tuple_k, lex_least=False)
    g6 = serialize_graph(g, "graph6")
    if graph_id is None:
        graph_id = g6
    memo = {} if bound_rows is None else bound_rows
    key = (
        profile.n, profile.delta, profile.Delta, profile.delta_star, profile.leaf_count, profile.support_count,
        profile.odd_count, profile.is_connected, profile.is_tree, rho, gamma, gamma_s,
    )
    row = memo.get(key)
    if row is None:
        if len(memo) >= _BOUND_ROWS_CAP:
            memo.clear()
        row = memo[key] = _BoundRow(profile, gamma_s, gamma, rho)

    report = BoundReport(
        graph_id=graph_id,
        graph6=g6,
        n=g.n,
        m=g.m,
        profile=profile,
        gamma_s=gamma_s,
        witness=witness,
        gamma=gamma,
        rho=rho,
        limited_packing_k=lp_k,
        limited_packing_value=lp_value,
        tuple_k=tuple_k,
        tuple_value=tuple_value,
        row=row,
    )
    for name, value, cert, role, k in (
        ("gamma_s", gamma_s, witness, None, None),
        ("gamma", gamma, gamma_set, ROLE_TUPLE_DOMINATING, 1),
        ("rho", rho, rho_set, ROLE_LIMITED_PACKING, 1),
        ("L_k", lp_value, lp_set, ROLE_LIMITED_PACKING, lp_k),
        ("gamma_xk", tuple_value, tuple_set, ROLE_TUPLE_DOMINATING, tuple_k),
    ):
        problem = None if cert is None else check(g, name, value, cert, role, k)
        if problem:
            raise BoundViolation(problem, g6, report)

    if profile.is_connected:
        report.checks = _invariant_checks(g, profile, report)
    else:
        report.checks = dict.fromkeys(CHECK_ORDER)
    return report


# Rows a sweep's bound memo holds before it starts over. The 1,441 trees with
# n <= 6 have 13 distinct rows; random graphs rarely repeat one, so without a
# cap a long random sweep would keep a row per graph. A row's rendered text is
# about 1.6 KB, so a full memo holds about 1.6 MB of it.
_BOUND_ROWS_CAP = 1024


class _BoundRow:
    """A report's bound section, (Bound, satisfied, gap) triples and sharp names, with its text.

    It reads only the profile fields that bounds.py reads, connectivity, and
    rho, gamma and gamma_s, so a sweep keys its memo on those and shares the
    row, and its read-only Bound records, between graphs that agree on them.
    A disconnected graph's row marks every bound not applicable and names no
    sharp bound. The row is the one renderer of the bound section: its JSON
    arrays and CSV cells are rendered once, when it is built, and every
    report that carries it splices them in. A report's ``bounds`` and
    ``sharp`` are read-only views of these tuples.
    """

    __slots__ = ("bounds", "sharp", "bounds_json", "sharp_json", "bound_cells")

    def __init__(self, profile: StructuralProfile, gamma_s: int, gamma: int, rho: int):
        if profile.is_connected:
            records = (
                ub_packing_min_degree(profile, rho),
                lb_degree_leaves(profile),
                lb_degree_parity(profile),
                lb_max_degree_domination(profile, gamma),
                *tree_lower_bounds(profile),
            )
        else:
            records = [not_applicable(name, "disconnected") for name in BOUND_ORDER]
        bounds, sharp, cells = [], [], []
        for b in records:
            if not b.applicable:
                bounds.append((b, None, None))
                cells += ("NA", "NA")
                continue
            satisfied = b.tightened <= gamma_s if b.kind == LOWER else gamma_s <= b.tightened
            gap = abs(gamma_s - b.tightened)
            bounds.append((b, satisfied, gap))
            cells += (str(b.tightened), str(gap))
            if satisfied and gap == 0:
                sharp.append(b.name)
        self.bounds = tuple(bounds)
        self.sharp = tuple(sharp)
        self.bounds_json = _members("[", [_bound_text(*triple) for triple in bounds], "]")
        self.sharp_json = _members("[", [_quote(name) for name in sharp], "]")
        self.bound_cells = ",".join(cells)  # each bound's value and gap cells, "NA" if inapplicable


def _invariant_checks(g: Graph, profile: StructuralProfile, report: BoundReport) -> dict:
    witness = report.witness
    minus_count = witness.minus_mask.bit_count()
    stats = partition_stats(g, witness)
    checks = {}

    # Cut-size sandwich on the optimal witness; vacuous without -1 vertices.
    if not minus_count:
        checks["lemma_3_1_i"] = True
    else:
        if profile.delta_star is None:
            raise BoundViolation("-1 vertices on a graph with an empty core", report.graph6, report)
        lo = ((profile.delta_star + 1) // 2 + 1) * minus_count
        plus_not_leaf = (witness.plus_mask & ~profile.leaf_mask).bit_count()
        hi = (profile.Delta // 2) * plus_not_leaf
        checks["lemma_3_1_i"] = lo <= stats.cut <= hi

    checks["lemma_3_1_ii"] = (
        profile.odd_count + 2 * minus_count <= 2 * stats.e_plus - 2 * stats.e_minus
    )

    claim1 = VertexSet(witness.minus_mask, ROLE_LIMITED_PACKING, profile.Delta // 2)
    checks["claim1_limited_packing"] = not vertex_set_violations(g, claim1)

    claim2 = VertexSet(witness.plus_mask, ROLE_TUPLE_DOMINATING, report.tuple_k)
    checks["claim2_tuple_dom"] = not vertex_set_violations(g, claim2)

    if report.limited_packing_k:
        checks["eq1"] = report.gamma_s <= g.n - 2 * report.limited_packing_value
        checks["eq2"] = report.limited_packing_value >= report.rho + report.limited_packing_k - 1
    else:
        checks["eq1"] = None
        checks["eq2"] = None

    if g.n <= CHAIN_CHECK_MAX_N:
        # L_1 is rho and gamma_x1 is gamma; the audit's own k is solved already.
        lp_known = {1: report.rho}
        if report.limited_packing_k:
            lp_known[report.limited_packing_k] = report.limited_packing_value
        tuple_known = {1: report.gamma, report.tuple_k: report.tuple_value}
        checks["chain_Lk"] = _check_limited_packing_chain(g, profile, lp_known)
        checks["chain_tuple"] = _check_tuple_chain(g, profile, tuple_known)
    else:
        checks["chain_Lk"] = None
        checks["chain_tuple"] = None
    return checks


def _check_limited_packing_chain(g: Graph, profile: StructuralProfile, known: dict) -> bool:
    """L_(k+1) >= L_k + 1 while L_k < n, over L_1 to L_(Delta // 2 + 1).

    ``known`` maps k to L_k where the audit has solved it already; every
    other k is solved here.
    """
    prev = None
    for k in range(1, profile.Delta // 2 + 2):
        value = known[k] if k in known else limited_packing_number(g, k, lex_least=False)[0]
        if prev is not None and prev < g.n and value < prev + 1:
            return False
        if value == g.n:
            break
        prev = value
    return True


def _check_tuple_chain(g: Graph, profile: StructuralProfile, known: dict) -> bool:
    """gamma_x(k+1) >= gamma_xk + 1 for k <= delta; ``known`` as for the L_k chain."""
    prev = None
    for k in range(1, profile.delta + 2):
        value = known[k] if k in known else tuple_domination_number(g, k, lex_least=False)[0]
        if prev is not None and value < prev + 1:
            return False
        prev = value
    return True


# -- corpus sweeps -------------------------------------------------------------


def _graph_seed(spec: CorpusSpec, n: int, i: int) -> int:
    """The seed of a random corpus's graph i of size n: derived from its graph index."""
    return derive_seed(spec.seed, (n - spec.n_min) * spec.count + i)


def iter_corpus(spec: CorpusSpec):
    """Yield (graph_id, Graph) deterministically in graph-index order."""
    if spec.kind == "trees_exhaustive":
        for n in range(max(2, spec.n_min), spec.n_max + 1):
            for i, g in enumerate(enumerate_labeled_trees(n)):
                yield f"tree-n{n}-{i:07d}", g
        return
    # A cycle needs n >= 3, so the cycle corpus starts there.
    n_min = max(3, spec.n_min) if spec.kind == "cycle" else spec.n_min
    for n in range(n_min, spec.n_max + 1):
        if spec.kind in ("complete", "path", "cycle", "star"):
            yield f"{spec.kind}-n{n}", generate(spec.kind, {"n": n})
            continue
        for i in range(spec.count):
            params = {"n": n}
            if spec.kind == "random_connected":
                params["p"] = spec.p
            yield f"{spec.kind}-n{n}-{i:04d}", generate(spec.kind, params, _graph_seed(spec, n, i))


POOL_CHUNK = 64


def _audit_chunk(items: list) -> list:
    bound_rows = {}
    return [audit_graph(g, graph_id, bound_rows=bound_rows) for graph_id, g in items]


def _pool_reports(pool, items, window: int):
    """Audit ``items`` in ``pool``, POOL_CHUNK at a time; yield the reports in order.

    At most ``window`` chunks are submitted ahead of the reader, so a reader
    that stops early leaves at most that many chunks audited.
    """
    chunks = iter(lambda: list(itertools.islice(items, POOL_CHUNK)), [])
    pending = collections.deque(pool.submit(_audit_chunk, c) for c in itertools.islice(chunks, window))
    while pending:
        yield from pending.popleft().result()
        chunk = next(chunks, None)
        if chunk is not None:
            pending.append(pool.submit(_audit_chunk, chunk))


def _checked_reports(spec: CorpusSpec, jobs: int = 1):
    """An iterator over the BoundReport of every corpus graph in graph-index order.

    Raises ValueError when ``jobs < 1``, and the generator's own errors,
    before it returns, so a caller that asks for the iterator before opening
    report files opens nothing on them: random_connected, the one generator
    that can fail on a valid CorpusSpec, draws each size's first graph. The
    iterator raises BoundViolation on the first unsatisfied applicable bound
    or failed invariant check. A pool of ``min(jobs, os.cpu_count())``
    processes, which may all start at its first submit, audits the graphs
    with twice that many chunks in flight, or the sweep runs serially when
    that is 1. Output is the same.

    The sweep evaluates and renders each distinct bound row once: the serial
    sweep, and each pool chunk, keep a memo of ``audit_graph``'s bound
    section and its report text. It lives no longer than the sweep, so a
    bound function patched between two sweeps is called again.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if spec.kind == "random_connected":
        for n in range(spec.n_min, spec.n_max + 1):
            generate(spec.kind, {"n": n, "p": spec.p}, _graph_seed(spec, n, 0))
    return _reports(iter_corpus(spec), min(jobs, os.cpu_count() or 1))


def _reports(items, workers: int):
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # Imported only here, so serial sweeps never load the pool machinery.
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=workers)
            # An early exit drops the submitted chunks not yet started.
            stack.callback(pool.shutdown, cancel_futures=True)
            reports = _pool_reports(pool, items, 2 * workers)
        else:
            bound_rows = {}
            reports = (audit_graph(g, graph_id, bound_rows=bound_rows) for graph_id, g in items)
        for report in reports:
            problems = report.violations()
            if problems:
                raise BoundViolation("; ".join(problems), report.graph6, report)
            yield report


class _ReportFiles:
    """Temporary text files beside report destinations, with LF line ends on every platform.

    When the ``with`` block ends normally, every file is closed and renamed
    over its destination. On an exception nothing is renamed. Either way no
    temporary file is left behind.
    """

    def __init__(self):
        self._files = []  # (file, temporary path, destination)

    def __enter__(self):
        return self

    def open(self, destination):
        destination = os.fspath(destination)
        if os.path.isdir(destination):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), destination)
        directory, name = os.path.split(destination)
        for serial in itertools.count():
            path = os.path.join(directory, f".{name}.{os.getpid()}-{serial}.tmp")
            try:
                fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o666)
            except FileExistsError:
                continue
            except OSError as exc:  # reported against the path the caller asked for
                raise OSError(exc.errno, exc.strerror, destination) from exc
            break
        fh = os.fdopen(fd, "w+", buffering=1 << 16, newline="")
        self._files.append((fh, path, destination))
        return fh

    def __exit__(self, exc_type, exc, tb):
        try:
            for fh, _, _ in self._files:
                fh.close()
            if exc_type is None:
                for _, path, destination in self._files:
                    os.replace(path, destination)
        finally:
            for _, path, _ in self._files:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(path)


def audit_corpus(
    spec: CorpusSpec,
    csv_path=None,
    json_path=None,
    jobs: int = 1,
) -> dict:
    """Audit every corpus graph; write reports; return the summary.

    Aborts with BoundViolation (including a diagnostic dump) on the first
    unsatisfied applicable bound or failed invariant check. CorpusSpec rejects
    sizes beyond the solver cap up front, so the summary's ``skips`` list is
    always empty; it stays for the report schema. Identical (spec, seed)
    inputs produce byte-identical CSV and JSON outputs.

    Each report is encoded as it arrives and streamed to temporary files
    beside the destinations, which are created before the first graph is
    audited; only the summary aggregates stay in memory. The files are renamed
    into place when the sweep completes, so an abort or error leaves the
    destinations as they were. Until the summary is known, the JSON reports
    wait in an unnamed temporary file in the JSON destination's directory,
    so not even a killed process leaves that copy behind. A CSV and a JSON
    destination that resolve to one file raise ValueError before any file is
    created, since the second rename would replace the first report. So do
    ``jobs < 1`` and a corpus whose first graph cannot be generated.
    """
    if None not in (csv_path, json_path) and os.path.realpath(csv_path) == os.path.realpath(json_path):
        raise ValueError(f"the CSV and JSON reports cannot both be written to {os.fspath(csv_path)}")
    total = 0
    sharp_hist = {name: 0 for name in BOUND_ORDER}
    gap_sum = {name: 0 for name in BOUND_ORDER}
    gap_max = {name: 0 for name in BOUND_ORDER}
    gap_count = {name: 0 for name in BOUND_ORDER}

    reports = _checked_reports(spec, jobs)
    with _ReportFiles() as files, contextlib.ExitStack() as stack:
        # Closed on every exit, so a pool stops as soon as the writing does.
        stack.enter_context(contextlib.closing(reports))
        csv_out = json_out = spool = None
        if csv_path is not None:
            csv_out = files.open(csv_path)
            csv_out.write(CSV_HEADER + "\n")
        if json_path is not None:
            json_out = files.open(json_path)
            # Imported only here, so importing the package does not load it.
            import tempfile

            directory = os.path.dirname(os.fspath(json_path)) or os.curdir
            spool = stack.enter_context(tempfile.TemporaryFile("w+", buffering=1 << 16, dir=directory))

        for report in reports:
            total += 1
            for b, _, gap in report.bounds:
                if b.applicable:
                    gap_count[b.name] += 1
                    gap_sum[b.name] += gap
                    gap_max[b.name] = max(gap_max[b.name], gap)
            for name in report.sharp:
                sharp_hist[name] += 1
            if csv_out is not None:
                csv_out.write(report.csv_row() + "\n")
            if spool is not None:
                spool.write((",\n" if total > 1 else "\n") + report.to_json_text())

        summary = {
            "graphs": total,
            "violations": 0,
            "skips": [],
            "sharp_histogram": sharp_hist,
            "max_gap": gap_max,
            "mean_gap": {
                name: (round(gap_sum[name] / gap_count[name], 6) if gap_count[name] else None)
                for name in BOUND_ORDER
            },
        }
        if json_out is not None:
            # The layout of json.dump({"summary": summary, "reports": [...]}, indent=2) + "\n".
            summary_text = json.dumps(summary, indent=2).replace("\n", "\n  ")
            json_out.write(f'{{\n  "summary": {summary_text},\n  "reports": [')
            spool.seek(0)
            for chunk in iter(lambda: spool.read(1 << 16), ""):
                json_out.write(chunk.replace("\n", "\n    "))  # each report one level deeper
            json_out.write("\n  ]\n}\n" if total else "]\n}\n")
    return summary


def hunt(spec: CorpusSpec, target: str, jobs: int = 1) -> list:
    """graph6 strings of corpus graphs where ``target`` meets the exact value.

    Sorted by (n, graph6). Any violation along the way aborts with a dump.
    ``jobs > 1`` audits in that many worker processes; the result is the same.
    """
    if target not in BOUND_ORDER:
        raise ValueError(f"unknown bound name {target!r}; expected one of {BOUND_ORDER}")
    witnesses = sorted((r.n, r.graph6) for r in _checked_reports(spec, jobs) if target in r.sharp)
    return [g6 for _, g6 in witnesses]
