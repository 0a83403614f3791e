"""In-memory span tracer wrapped around the simulator's public calls.

The benchmark does not edit the program: it replaces selected methods
and module functions with thin wrappers for the lifetime of one
process (a traced repetition).  Each wrapper records a span — name,
start, end, parent span, simulation run id — into flat arrays, so a
sweep with millions of spans stays a few tens of megabytes.  Spans are
written out once, when the repetition ends.

Calls too hot to time without distorting the run
(``ClusterArray.free_holder``: ~10M calls on a full-scale VDR run) are
counted instead.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List

#: (name, module path, attribute path, kind) of every wrapped call.
#: ``span`` records a timed span, ``count`` only counts calls and
#: non-None results, ``ready`` is a span that also counts the requests
#: the call returns.
WRAPPED = [
    ("runner.run_experiment", "repro.simulation.runner", "run_experiment", "span"),
    ("runner.build_engine", "repro.simulation.runner", "build_engine", "span"),
    ("runner.catalog", "repro.simulation.runner", "cached_catalog", "span"),
    ("runner.policy", "repro.simulation.runner", "build_policy", "span"),
    ("runner.preload", "repro.simulation.runner", "preload_ids", "span"),
    ("runner.preload", "repro.core.scheduler", "StaggeredStripingPolicy.preload", "span"),
    ("runner.preload", "repro.vdr.scheduler", "VirtualReplicationPolicy.preload", "span"),
    ("runner.arrivals", "repro.simulation.runner", "build_arrivals", "span"),
    ("engine.loop", "repro.simulation.engine", "IntervalEngine.run", "span"),
    ("engine.step", "repro.simulation.engine", "IntervalEngine.step", "span"),
    ("results.summary", "repro.simulation.results", "SimulationResult.summary", "span"),
    ("workload.ready", "repro.workload.stations", "StationPool.ready_requests", "ready"),
    ("workload.complete", "repro.workload.stations", "StationPool.complete", "span"),
    ("scheduler.submit", "repro.core.scheduler", "StaggeredStripingPolicy.submit", "span"),
    ("scheduler.advance", "repro.core.scheduler", "StaggeredStripingPolicy.advance", "span"),
    ("layout.fragment_counts", "repro.media.layout", "StripingLayout.fragment_counts", "span"),
    ("disk_manager.place", "repro.core.disk_manager", "DiskManager.place_object", "span"),
    ("disk_manager.evict", "repro.core.disk_manager", "DiskManager.evict_object", "span"),
    ("tertiary.request", "repro.core.tertiary_manager", "TertiaryManager.request", "span"),
    ("tertiary.advance", "repro.core.tertiary_manager", "TertiaryManager.advance", "span"),
    ("object_manager.make_room", "repro.core.object_manager", "ObjectManager.make_room", "span"),
    ("vdr.submit", "repro.vdr.scheduler", "VirtualReplicationPolicy.submit", "span"),
    ("vdr.advance", "repro.vdr.scheduler", "VirtualReplicationPolicy.advance", "span"),
    ("vdr.free_holder", "repro.vdr.clusters", "ClusterArray.free_holder", "count"),
    ("exec.cache.put", "repro.exec.cache", "ResultCache.put", "span"),
]


class Tracer:
    """Spans in flat arrays; span ``i`` is ``names[name[i]]`` from
    ``start[i]`` to ``end[i]`` under span ``parent[i]`` (-1: none)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self.run_id = -1
        #: name -> [calls, non-None results] for ``count`` wrappers.
        self.counts: Dict[str, List[int]] = {}
        self.requests = 0
        self._restore: List[Callable[[], None]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the calls of :data:`WRAPPED` until :meth:`uninstall`."""
        for name, module_path, attr_path, kind in WRAPPED:
            owner = importlib.import_module(module_path)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrapper(name, kind, original))
            self._restore.append(
                lambda owner=owner, attr=attr, original=original:
                setattr(owner, attr, original)
            )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrapper(self, name: str, kind: str, fn: Callable) -> Callable:
        if kind == "count":
            tally = self.counts.setdefault(name, [0, 0])

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                tally[0] += 1
                if result is not None:
                    tally[1] += 1
                return result

            return counted

        name_id = self.name_id(name)
        opens_run = name == "runner.run_experiment"

        def spanned(*args, **kwargs):
            if opens_run:
                self.run_id += 1
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if kind == "ready":
                self.requests += len(result)
            return result

        return spanned

    # ------------------------------------------------------------------
    # Analysis and output
    # ------------------------------------------------------------------
    def self_times(self) -> array:
        """Each span's duration minus the time its child spans cover.

        Spans come from one thread and nest strictly, so the children
        of a span never overlap and their durations simply add up.
        """
        start, end, parent = self.start, self.end, self.parent
        own = array("d", (e - s for s, e in zip(start, end)))
        for index, up in enumerate(parent):
            if up >= 0:
                own[up] -= end[index] - start[index]
        return own

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds, self seconds."""
        own = self.self_times()
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in self.names}
        names = self.names
        for index, name_id in enumerate(self.name):
            row = table[names[name_id]]
            row["calls"] += 1
            row["total_s"] += self.end[index] - self.start[index]
            row["self_s"] += own[index]
        return table

    def total_under(self, name: str, ancestor: str) -> float:
        """Total seconds of spans called ``name`` nested, at any depth,
        in a span called ``ancestor``."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0.0
        wanted, outer = self._name_ids[name], self._name_ids[ancestor]
        # A parent is opened, so indexed, before its children.
        inside = bytearray(len(self.name))
        total = 0.0
        for index, (name_id, up) in enumerate(zip(self.name, self.parent)):
            inside[index] = name_id == outer or (up >= 0 and inside[up])
            if name_id == wanted and inside[index]:
                total += self.end[index] - self.start[index]
        return total

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in seconds."""
        if name not in self._name_ids:
            return []
        wanted = self._name_ids[name]
        return [
            self.end[i] - self.start[i]
            for i, name_id in enumerate(self.name)
            if name_id == wanted
        ]

    def write(self, path: Path) -> None:
        """Write the spans, gzipped: one JSON header line, then the raw
        bytes of each column in header order (native byte order)."""
        columns = ["name", "parent", "run", "start", "end"]
        header = {
            "format": "perfbench-spans/1",
            "spans": len(self.name),
            "names": self.names,
            "columns": [
                [column, getattr(self, column).typecode] for column in columns
            ],
            "counts": self.counts,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with gzip.open(tmp, "wb", compresslevel=1) as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                handle.write(getattr(self, column).tobytes())
        tmp.replace(path)
