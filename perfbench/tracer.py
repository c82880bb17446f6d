"""In-memory span recorder that patches sparsemm at its call sites.

A span is (id, name, parent id, start, end, pass index). Spans and counters
stay in memory for the whole run and are written out once, when it ends.
Self time of a span is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.

Names are imported into the modules that call them, so a wrapper must be
installed in the caller's namespace (for example `sparsemm.bench.chase_corpus`
and `sparsemm.cli.chase_corpus`), not only in the defining module.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int | None, float, float, int]] = []
        self.counters: list[defaultdict] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # call sites the program no longer has

    @property
    def pass_index(self) -> int:
        return len(self.counters) - 1

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, parent, start, end, self.pass_index))

    @contextmanager
    def traced_pass(self):
        """Root span of one pass; counters restart for every pass."""
        self.counters.append(defaultdict(float))
        with self.span("pass"):
            yield

    def count(self, name: str, n: float = 1) -> None:
        self.counters[-1][name] += n

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def has(self, owner, attr: str) -> bool:
        if hasattr(owner, attr):
            return True
        self.missing.append(f"{owner.__name__}.{attr}")
        return False

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a spanned call; `after(result, *args, **kwargs)`
        runs outside the span, so counting costs no layer time. A call site
        the program no longer has is skipped and listed in `missing`."""
        if not self.has(owner, attr):
            return
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def pass_figures(self, index: int) -> dict[str, float]:
        """`<span>.calls` and `<span>.self_s` per span name, plus the counters."""
        spans = [s for s in self.spans if s[5] == index]
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, start, end, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, name, _, start, end, _ in spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[span_id]
        out.update(self.counters[index])
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, parent, start, end, index in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "parent": parent,
                                     "start": start, "end": end, "pass": index}) + "\n")
