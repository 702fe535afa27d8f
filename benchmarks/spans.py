"""Span recorder for the traced run.

The tracer wraps, from outside the package, the public names that the
pipeline calls into: module-level functions are replaced in every loaded
`homorag.*` module that holds them, class-level names on their class, and
the index lookup and gateway calls on one `Pipeline` instance. Each wrapped
call becomes a span (name, start, end, parent span, record id, phase, thread);
a thread-local carries the record id and the open-span stack across the
pipeline's worker threads. Hooks record counts at the same places, inside
the span they belong to. Spans stay in memory until `write` is called once at
the end of the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _snippet_count(pool) -> int:
    return len(pool.snippets())


# hook(tracer, args, kwargs, result): counts taken where the work happens
def _on_lookup(t, a, kw, res):
    t.note("annotations.lookup.accessions", _arg(a, kw, 0, "accession"))


def _on_raw_pool(t, a, kw, res):
    t.add("homology.raw_snippets", _snippet_count(res))


def _on_gate(t, a, kw, res):
    t.add("tag_filter.gate.snippets_in", _snippet_count(_arg(a, kw, 0, "pool")))
    t.add("tag_filter.gate.snippets_out", _snippet_count(res))


def _on_embed_values(t, a, kw, res):
    t.note("denoise.embed_values.texts", *_arg(a, kw, 1, "values"))


def _on_dbscan(t, a, kw, res):
    t.note("denoise.dbscan.points", res.n_points)


def _on_select(t, a, kw, res):
    t.add("denoise.select_anchor_clusters.calls", 1)
    t.add("denoise.passthrough", int(res.passthrough))
    t.add("denoise.fallback", int(any("falling back" in w for w in res.warnings)))


def _on_assemble_context(t, a, kw, res):
    t.add("denoise.vertical_in", _snippet_count(_arg(a, kw, 0, "pool")))
    t.add("denoise.vertical_out", _snippet_count(res[0]))


def _on_serialize(t, a, kw, res):
    t.note("pipeline.artifact_bytes", len(res.encode("utf-8")))


# (module, attribute, span name, hook) for module-level functions
FUNCTIONS = (
    ("homorag.homology", "rank_and_select", "homology.rank_and_select", None),
    ("homorag.homology", "assemble_raw_pool", "homology.assemble_raw_pool", _on_raw_pool),
    ("homorag.tag_filter", "gate", "tag_filter.gate", _on_gate),
    ("homorag.tag_filter", "segment_ig", "tag_filter.segment_ig", None),
    ("homorag.denoise", "embed_values", "denoise.embed_values", _on_embed_values),
    ("homorag.denoise", "dbscan", "denoise.dbscan", _on_dbscan),
    ("homorag.denoise", "select_anchor_clusters", "denoise.select_anchor_clusters", _on_select),
    ("homorag.denoise", "assemble_context", "denoise.assemble_context", _on_assemble_context),
    ("homorag.pipeline", "build_prompt", "pipeline.build_prompt", None),
    ("homorag.metrics", "score_record", "metrics.score_record", None),
)
# (module, class, attribute, span name, hook) for names looked up on a class
CLASS_ATTRS = (
    ("homorag.annotations", "AnnotationIndex", "load", "annotations.load", None),
    ("homorag.tag_filter", "FilterModel", "load", "tag_filter.FilterModel.load", None),
    ("homorag.pipeline", "RunArtifact", "canonical_json", "pipeline.artifact_serialize",
     _on_serialize),
)
RECORD_SPAN = "pipeline.run_query"  # its first argument is the record; child spans inherit the id
# (attribute, span name) for names looked up on a Gateway instance
GATEWAY_ATTRS = (
    ("embed", "gateway.embed"),
    ("generate", "gateway.generate"),
    ("score_tokens", "gateway.score_tokens"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, t0, t1, parent, record_id, phase, thread)
        self.counts: dict[tuple, float] = defaultdict(float)  # (phase, name) -> total
        self.values: dict[tuple, list] = defaultdict(list)    # (phase, name) -> items
        self.phase: Optional[str] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name: str, amount: float):
        with self._lock:
            self.counts[(self.phase, name)] += amount

    def note(self, name: str, *items):
        with self._lock:
            self.values[(self.phase, name)].extend(items)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, record_id: Optional[str]) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        outer = getattr(self._local, "record_id", None)
        if record_id is not None:
            self._local.record_id = record_id
        stack.append(span_id)
        return span_id, parent, outer, record_id is not None

    def _close(self, name: str, opened: tuple, t0: float):
        span_id, parent, outer, sets_record = opened
        self._local.stack.pop()
        rid = getattr(self._local, "record_id", None)
        if sets_record:
            self._local.record_id = outer
        t1 = time.perf_counter()
        self.spans.append((span_id, name, t0, t1, parent, rid, self.phase, threading.get_ident()))

    # A span's t0..t1 also covers its own bookkeeping and its hook, so that the
    # parent's self time is not charged with its children's tracing cost.
    @contextmanager
    def span(self, name: str, record_id: Optional[str] = None):
        t0 = time.perf_counter()
        opened = self._open(record_id)
        try:
            yield
        finally:
            self._close(name, opened, t0)

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            opened = self._open(args[0].id if name == RECORD_SPAN else None)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
            finally:
                self._close(name, opened, t0)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap the package's module- and class-level names for the duration of the block."""
        undo: list[tuple] = []
        try:
            for module, attr, name, hook in FUNCTIONS:
                original = getattr(importlib.import_module(module), attr, None)
                if original is None:
                    continue
                wrapped = self.wrap(name, original, hook)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("homorag") and \
                            mod.__dict__.get(attr) is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
            for module, cls_name, attr, name, hook in CLASS_ATTRS:
                cls = getattr(importlib.import_module(module), cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(name, original.__func__, hook))
                else:
                    replacement = self.wrap(name, original, hook)
                undo.append((cls, attr, original))
                setattr(cls, attr, replacement)
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def instrument(self, pipeline):
        """Wrap the layers reached through one `Pipeline` instance, for its lifetime."""
        pipeline.run_query = self.wrap(RECORD_SPAN, pipeline.run_query)
        pipeline.index.lookup = self.wrap("annotations.lookup", pipeline.index.lookup, _on_lookup)
        for attr, name in GATEWAY_ATTRS:
            setattr(pipeline.gateway, attr, self.wrap(name, getattr(pipeline.gateway, attr)))

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, rid, phase, thread in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1, "parent": parent,
                    "record": rid, "phase": phase, "thread": thread,
                }) + "\n")

    # -- reading the spans back ------------------------------------------------

    def durations(self, name: str, phase: Optional[str] = None) -> list[float]:
        return [t1 - t0 for _, n, t0, t1, _, _, p, _ in self.spans
                if n == name and (phase is None or p == phase)]

    def self_times(self, name: str, phase: Optional[str] = None) -> list[float]:
        """Span duration minus the time its child spans cover."""
        children: dict[int, float] = defaultdict(float)
        for _, _, t0, t1, parent, _, _, _ in self.spans:
            if parent is not None:
                children[parent] += t1 - t0
        return [t1 - t0 - children[sid] for sid, n, t0, t1, _, _, p, _ in self.spans
                if n == name and (phase is None or p == phase)]
