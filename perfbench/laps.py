"""Lap clock: the host time of an untraced repetition, cut into laps.

The reference box shares its host, and other tenants slow it in bursts
of well under a second (see README.md, *Environment*).  A repetition of
several seconds always catches some bursts, so whole-repetition times
swing by ±25% between runs.  The simulator is deterministic at a seed,
so every repetition at one seed does the same work in the same order.
The clock cuts each repetition into short laps at fixed program events;
lap ``k`` of a phase is then the same work in every repetition, and its
fastest sample is the one the fewest bursts landed on.  The benchmark's
time metrics add up those per-lap minima (:func:`best_laps`).

A lap ends at each of these events:

- entry to and exit from ``runner.run_experiment``,
  ``runner.build_engine`` and ``IntervalEngine.run``;
- exit from ``DiskManager.place_object`` and ``DiskManager.evict_object``
  (preload places each object in turn, so setup is cut per object);
- every :data:`STEPS_PER_LAP`-th ``IntervalEngine.step``, when step
  marks are on (single-run workloads; a sweep's runs are short enough
  to be laps on their own).

Each lap belongs to the phase it ran in: ``s`` inside ``build_engine``
(setup), ``l`` inside ``IntervalEngine.run`` (the interval loop), ``o``
anywhere else.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional

SETUP, LOOP, OTHER = "s", "l", "o"
STEPS_PER_LAP = 100


class Deadline(BaseException):
    """The repetition passed its deadline; the laps so far are kept.

    A ``BaseException``, so no ``except Exception`` in the simulator
    swallows it.
    """


class LapClock:
    """Lap durations and phases of one repetition, in event order."""

    def __init__(self, step_marks: bool, deadline: Optional[float] = None):
        self.step_marks = step_marks
        #: ``time.perf_counter()`` after which the next lap end raises
        #: :class:`Deadline`; None for no deadline.
        self.deadline = deadline
        self.laps = array("d")
        self.phases: List[str] = []
        self.phase = OTHER
        self._last = 0.0
        self._steps = 0
        self._restore: List[Callable[[], None]] = []

    def start(self) -> None:
        self._last = time.perf_counter()

    def mark(self) -> None:
        """End the current lap."""
        now = time.perf_counter()
        self.laps.append(now - self._last)
        self.phases.append(self.phase)
        self._last = now
        if self.deadline is not None and now > self.deadline:
            raise Deadline

    def total(self, phase: Optional[str] = None) -> float:
        return sum(
            t for t, p in zip(self.laps, self.phases) if phase in (None, p)
        )

    def report(self, phases: str = SETUP + LOOP + OTHER) -> Dict:
        """The laps of the given phases, as JSON-ready fields."""
        kept = [(p, t) for p, t in zip(self.phases, self.laps) if p in phases]
        return {
            "lap_phases": "".join(p for p, _ in kept),
            "lap_s": [t for _, t in kept],
        }

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the lap events' calls until :meth:`uninstall`."""
        self._wrap("repro.simulation.runner", "run_experiment", self._around(None))
        self._wrap("repro.simulation.runner", "build_engine", self._around(SETUP))
        self._wrap("repro.simulation.engine", "IntervalEngine.run", self._around(LOOP))
        self._wrap("repro.core.disk_manager", "DiskManager.place_object", self._after)
        self._wrap("repro.core.disk_manager", "DiskManager.evict_object", self._after)
        if self.step_marks:
            self._wrap("repro.simulation.engine", "IntervalEngine.step", self._step)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrap(self, module_path: str, attr_path: str, make: Callable) -> None:
        owner = importlib.import_module(module_path)
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._restore.append(lambda: setattr(owner, attr, original))

    def _around(self, phase: Optional[str]) -> Callable:
        """A wrapper that ends a lap on entry and on exit, and runs the
        call in ``phase`` (None: the caller's phase)."""

        def make(fn):
            def wrapped(*args, **kwargs):
                self.mark()
                outer = self.phase
                self.phase = phase or outer
                try:
                    result = fn(*args, **kwargs)
                    self.mark()
                finally:
                    self.phase = outer
                return result

            return wrapped

        return make

    def _after(self, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.mark()
            return result

        return wrapped

    def _step(self, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._steps += 1
            if self._steps % STEPS_PER_LAP == 0:
                self.mark()
            return result

        return wrapped


def lap_keys(phases: str) -> Iterable:
    """``(phase, k)`` for each lap: the k-th lap of its phase."""
    seen: Counter = Counter()
    for phase in phases:
        yield phase, seen[phase]
        seen[phase] += 1


def best_laps(reports: List[Dict]) -> Dict[str, float]:
    """Seconds per phase, each lap at its fastest over ``reports``.

    A lap counts if any report has it: a report cut by its deadline, or
    one that only built the engine, adds samples to the laps it ran.
    """
    best: Dict = {}
    for report in reports:
        for key, seconds in zip(lap_keys(report["lap_phases"]), report["lap_s"]):
            if seconds < best.get(key, float("inf")):
                best[key] = seconds
    totals = {SETUP: 0.0, LOOP: 0.0, OTHER: 0.0}
    for (phase, _), seconds in best.items():
        totals[phase] += seconds
    return totals


def structure_problems(full: List[Dict], partial: List[Dict]) -> List[str]:
    """Repetitions at one seed must end their laps at the same events:
    every full repetition the same, every partial one a prefix of
    them in each phase."""
    if not full:
        return []
    reference = full[0]["lap_phases"]
    problems = []
    if any(r["lap_phases"] != reference for r in full[1:]):
        problems.append("full repetitions cut different laps at one seed")
    for r in partial:
        for phase in set(r["lap_phases"]):
            if r["lap_phases"].count(phase) > reference.count(phase):
                problems.append(
                    f"a partial repetition ran more {phase!r} laps than a full one"
                )
    return problems
