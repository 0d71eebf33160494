"""In-memory span recording around calls into the signeddom package.

The benchmark traces the unmodified package: ``patched`` swaps module or class
attributes for timing wrappers built by a ``Tracer`` and restores the
originals on exit, so the package code that runs is the same in traced and
untraced runs. Each span is a tuple ``(name, start_ns, end_ns, parent, graph)``
where ``parent`` is the index of the enclosing span (-1 at top level) and
``graph`` counts the root spans begun so far, which numbers the graphs.
"""

from __future__ import annotations

import builtins
import time
from collections import defaultdict
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    def __init__(self, roots):
        self.roots = frozenset(roots)
        self.spans = []
        self.graph = -1
        self._stack = []

    def begin(self, name: str) -> int:
        if name in self.roots:
            self.graph += 1
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.graph))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, _, parent, graph = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, graph)

    def wrap(self, name: str, fn):
        """``fn`` with each call recorded as one span."""

        def timed(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return timed

    def wrap_iter(self, name: str, fn):
        """Generator function ``fn`` with each ``next()`` recorded as one span."""

        def timed(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                idx = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                yield item

        return timed

    def timed_open(self, name: str):
        """An ``open`` whose ``with`` block, the whole file write, is one span."""
        tracer = self

        class _TimedFile:
            def __init__(self, *args, **kwargs):
                self.idx = tracer.begin(name)
                self.file = builtins.open(*args, **kwargs)

            def __enter__(self):
                return self.file.__enter__()

            def __exit__(self, *exc):
                try:
                    return self.file.__exit__(*exc)
                finally:
                    tracer.end(self.idx)

        return _TimedFile

    def write_tsv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tparent\tgraph\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent, graph) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{graph}\t{name}\t{start}\t{end}\n")


@contextmanager
def patched(replacements):
    """Set each ``(owner, attribute, value)`` for the block, then restore it."""
    saved = [(owner, attr, owner.__dict__.get(attr, _MISSING)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def summarize(spans, roots, folds):
    """Attribute span time to layers.

    A span nested under a span named in ``folds`` counts toward that span, not
    toward its own name, and is counted in ``folded_calls``. ``unattributed_ns``
    is root-span time that no direct child span covers.
    """
    totals = defaultdict(int)
    folded_calls = 0
    root_ns = 0
    covered_ns = 0
    under = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        if name in roots:
            root_ns += duration
        if parent >= 0:
            parent_name = spans[parent][0]
            if parent_name in roots:
                covered_ns += duration
            if under[parent] or parent_name in folds:
                under[i] = True
                folded_calls += parent_name in folds
                continue
        totals[name] += duration
    return {
        "totals_ns": dict(totals),
        "folded_calls": folded_calls,
        "root_ns": root_ns,
        "unattributed_ns": root_ns - covered_ns,
    }
