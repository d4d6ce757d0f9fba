"""Span tracing from outside the program, for the benchmark's traced run.

:class:`Tracer` keeps a stack of open spans.  When a span closes, its
duration is added to its parent's child time, so a span's self time is its
duration minus the time its children cover; nested calls are never counted
twice.  Layer-boundary spans are kept as records (name, start, end, parent,
request id) and written out at the end; hot inner functions only add to the
per-name totals, or only count calls, so that tracing them stays cheap.

:func:`install` wraps the layers' public functions in place.  Where a
caller imported a function by name (``repro.core.pipeline.parse_queries``),
the name the caller uses is the one wrapped.  Nothing under ``src/`` is
edited; :meth:`Probes.uninstall` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass


class Tracer:
    """Span stack with self-time accounting.

    Spans are recorded only while :attr:`request` is set, so work the
    benchmark does between requests (checking outputs) stays out of the
    layer totals.  Single-threaded by design: the serial searches and the
    pool coordinator run on one thread.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: id of the request being served; ``None`` between requests
        self.request = None
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: kept records: (span id, name, start, end, parent id, request id)
        self.records: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0

    def open(self, name: str):
        if self.request is None:
            return None
        self._next_id += 1
        frame = [name, self.clock(), 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def close(self, frame, keep: bool = True) -> None:
        if frame is None:
            return
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, start, child, span_id = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if keep:
            parent = self._stack[-1][3] if self._stack else None
            self.records.append((span_id, name, start, end, parent, self.request))

    def count(self, name: str) -> None:
        if self.request is None:
            return
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def write(self, path: str) -> None:
        """Write the kept span records as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, request in self.records:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


#: how a probe records its calls
KEEP, TOTAL, COUNT = "keep", "total", "count"


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``module:attr`` or ``module:Class.method``."""

    target: str
    span: str
    mode: str = KEEP


#: The layer probes.  Span names are ``<src/repro module>.<what>``.
PROBES = (
    Probe("repro.core.pipeline:parse_queries", "sqlparser.parse"),
    Probe("repro.service.service:parse_queries", "sqlparser.parse"),
    Probe("repro.core.pipeline:initial_difftrees", "difftree.build"),
    Probe("repro.core.pipeline:cluster_by_result_schema", "difftree.build"),
    Probe("repro.core.pipeline:merge_difftrees", "difftree.build"),
    Probe("repro.difftree.tree:Difftree.choice_nodes", "difftree.choice_nodes", COUNT),
    Probe("repro.database.executor:Executor.execute", "database.execute", TOTAL),
    Probe("repro.transform.engine:TransformEngine.applications", "transform.applications", TOTAL),
    Probe("repro.transform.engine:TransformEngine.apply", "transform.apply", TOTAL),
    Probe("repro.transform.engine:TransformEngine.refactor_to_fixpoint", "transform.refactor"),
    Probe("repro.transform.engine:TransformEngine.covers_all_queries", "transform.covers", TOTAL),
    Probe("repro.core.pipeline:parallel_search", "search.parallel"),
    Probe("repro.mapping.mapper:InterfaceMapper.random_interfaces", "search.reward", TOTAL),
    Probe("repro.mapping.mapper:InterfaceMapper.generate", "mapping.generate"),
    Probe("repro.mapping.mapper:candidate_visualizations", "mapping.vis", TOTAL),
    Probe("repro.mapping.mapper:candidate_widgets", "mapping.widgets", TOTAL),
    Probe("repro.mapping.interactions:is_safe", "mapping.safety", TOTAL),
    Probe("repro.mapping.mapper:build_layout_tree", "mapping.layout", TOTAL),
    Probe("repro.mapping.mapper:optimize_layout", "mapping.layout", TOTAL),
    Probe("repro.cost.model:CostModel.manipulation_cost", "cost.manipulation", TOTAL),
    Probe("repro.cost.model:CostModel.query_plan", "cost.query_plan", COUNT),
    Probe("repro.cost.model:CostModel.navigation_cost", "cost.navigation", TOTAL),
    Probe("repro.interface.spec:Interface.is_complete", "interface.is_complete", TOTAL),
    Probe("repro.service.pool:WorkerPool.run_task", "service.run_task"),
)


def _wrap(tracer: Tracer, fn, name: str, mode: str):
    if mode == COUNT:

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return counted
    keep = mode == KEEP

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        frame = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(frame, keep)

    return timed


class Probes:
    """The installed wrappers; :meth:`uninstall` puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, probes=PROBES) -> Probes:
    """Wrap every probe's target so its calls are recorded by ``tracer``."""
    installed = Probes()
    for probe in probes:
        module_name, path = probe.target.split(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # read through __dict__ so a class attribute is replaced as defined
        original = vars(owner)[attr]
        installed._saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, probe.span, probe.mode))
    return installed
