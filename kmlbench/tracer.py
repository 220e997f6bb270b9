"""Span tracer that times calls into the program from outside it.

:meth:`Tracer.install` replaces a fixed list of public methods of ``os_sim``,
``minikv``, ``workloads``, ``readahead``, ``kml`` and ``serve`` with
wrappers that record one span per call (name, start, end, parent) and
restores the originals on :meth:`Tracer.uninstall`.  Spans are kept in
flat integer arrays and written out when the run ends.  Times are
integer nanoseconds, so every sum below is exact and the accounting
self-check can demand equality, not closeness.

A span's self time is its duration minus the durations of its direct
children.  The online aggregates (``calls``, ``self_ns`` per name) are
kept while tracing; :meth:`Tracer.check` recomputes them from the
stored spans and checks that self times plus the time covered by no
span add up to the traced wall time.  Metrics come from
:meth:`Tracer.totals` over the timed windows (or the set-up windows).
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns
from typing import Dict, List, Tuple

import numpy as np

from repro.kml.layers import Linear, Sigmoid
from repro.kml.network import Sequential
from repro.minikv.bloom import BloomFilter
from repro.minikv.db import MiniKV
from repro.minikv.sstable import SSTableReader
from repro.minikv.wal import WriteAheadLog
from repro.os_sim.device import DeviceModel
from repro.os_sim.page_cache import PageCache
from repro.os_sim.tracepoints import TracepointRegistry
from repro.os_sim.vfs import SimFS
from repro.readahead.agent import ReadaheadAgent
from repro.readahead.features import FeatureCollector
from repro.serve.engine import InferenceEngine
from repro.serve.registry import ModelRegistry, ModelSnapshot
from repro.workloads.generators import ReadRandom
from repro.workloads.mixgraph import MixGraph

#: (class, method, span name).  ``FeatureCollector``'s two handlers are
#: the callbacks it passes to ``TracepointRegistry.subscribe``.
TARGETS: Tuple[Tuple[type, str, str], ...] = (
    (PageCache, "read_page", "os_sim.page_cache.read_page"),
    (PageCache, "write_page", "os_sim.page_cache.write_page"),
    (TracepointRegistry, "emit", "os_sim.tracepoints.emit"),
    (FeatureCollector, "_on_offset_event", "readahead.features.on_event"),
    (FeatureCollector, "_on_count_event", "readahead.features.on_event"),
    (SimFS, "read", "os_sim.vfs.read"),
    (SimFS, "write", "os_sim.vfs.write"),
    (DeviceModel, "submit", "os_sim.device.submit"),
    (MiniKV, "get", "minikv.get"),
    (MiniKV, "put", "minikv.put"),
    (MiniKV, "flush", "minikv.flush"),
    (SSTableReader, "get", "minikv.sstable.get"),
    (WriteAheadLog, "append", "minikv.wal.append"),
    (ReadaheadAgent, "on_tick", "readahead.agent.on_tick"),
    (ReadaheadAgent, "apply", "readahead.agent.apply"),
    (Sequential, "predict", "kml.predict"),
    (Sequential, "infer", "kml.infer"),
    (Linear, "infer", "kml.linear.infer"),
    (Sigmoid, "infer", "kml.sigmoid.infer"),
    (InferenceEngine, "predict", "serve.predict"),
    (ModelRegistry, "active", "serve.registry.active"),
    (ModelSnapshot, "predict", "serve.snapshot.predict"),
    (ReadRandom, "step", "workloads.step"),
    (MixGraph, "step", "workloads.step"),
)

#: Span names with special wrappers (see ``install``).
BLOOM = "minikv.bloom.may_contain"
SCAN_NEXT = "minikv.scan.next"


class Tracer:
    """In-memory span store with online self-time aggregates."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.bloom_probes = 0
        self.bloom_negatives = 0
        self._open = [-1]      # indices of open spans; -1 is "no parent"
        self._child = [0]      # child time accumulated per open span
        self._saved: List[Tuple[type, str, object]] = []

    # -- recording ------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_ns[name] = 0
        return self._ids[name]

    def wrap(self, fn, name: str):
        """``fn`` with one span per call."""
        nid = self.name_id(name)
        start, end, names, parent = self.start, self.end, self.name, self.parent
        opened, child = self._open, self._child
        calls, self_ns = self.calls, self.self_ns

        def traced(*args, **kwargs):
            index = len(start)
            start.append(0)
            end.append(0)
            names.append(nid)
            parent.append(opened[-1])
            opened.append(index)
            child.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                opened.pop()
                duration = t1 - t0
                start[index] = t0
                end[index] = t1
                calls[name] += 1
                self_ns[name] += duration - child.pop()
                child[-1] += duration

        return traced

    # -- patching -------------------------------------------------------

    def install(self) -> "Tracer":
        for cls, attr, name in TARGETS:
            self._patch(cls, attr, self.wrap(cls.__dict__[attr], name))
        self._patch(BloomFilter, "may_contain", self._bloom_wrapper())
        self._patch(MiniKV, "scan", self._scan_wrapper())
        return self

    def _patch(self, cls, attr, replacement) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    def _bloom_wrapper(self):
        traced = self.wrap(BloomFilter.__dict__["may_contain"], BLOOM)
        tracer = self

        def may_contain(bloom, key):
            result = traced(bloom, key)
            tracer.bloom_probes += 1
            if not result:
                tracer.bloom_negatives += 1
            return result

        return may_contain

    def _scan_wrapper(self):
        original = MiniKV.__dict__["scan"]
        traced_next = self.wrap(next, SCAN_NEXT)

        class TracedScan:
            """Iterator whose every resumption is one span."""

            __slots__ = ("_it",)

            def __init__(self, it):
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                return traced_next(self._it)

        def scan(db, start_key=None):
            return TracedScan(original(db, start_key))

        return scan

    # -- results --------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
        )

    def _own(self):
        start, end, name, parent = self.arrays()
        duration = end - start
        child = np.zeros(len(start), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return start, end, name, nested, duration, duration - child

    def check(self, windows: List[Tuple[int, int]]) -> List[str]:
        """Accounting self-check over the stored spans.

        Self times recomputed from the spans must equal the online
        aggregates.  Inside each window, self times plus the gaps
        between top-level spans must equal the window's wall time, with
        no top-level spans overlapping.
        """
        if self._open != [-1]:
            return ["spans still open at the end of the run"]
        problems: List[str] = []
        start, end, name, nested, duration, own = self._own()
        per_name_self = np.zeros(len(self.names), dtype=np.int64)
        np.add.at(per_name_self, name, own)
        per_name_calls = np.bincount(name, minlength=len(self.names))
        for nid, label in enumerate(self.names):
            if int(per_name_self[nid]) != self.self_ns[label]:
                problems.append(f"{label}: stored self time != online aggregate")
            if int(per_name_calls[nid]) != self.calls[label]:
                problems.append(f"{label}: stored calls != online count")
        for w0, w1 in windows:
            inside = (start >= w0) & (end <= w1)
            roots = np.flatnonzero(inside & ~nested)
            order = roots[np.argsort(start[roots], kind="stable")]
            if np.any(start[order][1:] < end[order][:-1]):
                problems.append("top-level spans overlap")
            gaps = (w1 - w0) - int(duration[order].sum())
            if gaps < 0:
                problems.append("spans cover more than the wall time")
            if int(own[inside].sum()) + gaps != w1 - w0:
                problems.append("self times + untraced != traced wall time")
        return problems

    def totals(self, windows: List[Tuple[int, int]]):
        """Per-name calls and self ns inside ``windows``, and the ns of
        those windows that no span covers."""
        start, end, name, nested, duration, own = self._own()
        inside = np.zeros(len(start), dtype=bool)
        wall = 0
        for w0, w1 in windows:
            inside |= (start >= w0) & (end <= w1)
            wall += w1 - w0
        calls = np.bincount(name[inside], minlength=len(self.names))
        self_ns = np.zeros(len(self.names), dtype=np.int64)
        np.add.at(self_ns, name[inside], own[inside])
        untraced = wall - int(duration[inside & ~nested].sum())
        return (
            {label: int(calls[i]) for i, label in enumerate(self.names)},
            {label: int(self_ns[i]) for i, label in enumerate(self.names)},
            untraced,
        )

    def save(self, path: str) -> None:
        start, end, name, parent = self.arrays()
        np.savez(
            path,
            start=start,
            end=end,
            name=name,
            parent=parent,
            names=np.array(self.names),
        )
