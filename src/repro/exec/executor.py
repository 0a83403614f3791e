"""The sweep executor: cache probe, supervised workers, the sweep log.

:func:`execute` takes a list of :class:`~repro.exec.spec.RunSpec`,
probes the result cache *and* the sweep log, deduplicates
identical specs, runs the misses — in-process for ``jobs == 1``,
across a :class:`~repro.exec.supervisor.SupervisedPool` otherwise —
and returns one :class:`RunRecord` per spec **in spec order**,
regardless of worker scheduling.

Robustness (see docs/resilient_execution.md):

* every settled row is flushed to the cache **and** the append-only
  sweep log the moment it exists, so a crash costs at most the rows
  in flight;
* workers are supervised — death, hang, and timeout are detected and
  the task re-dispatched with bounded backoff retries; deterministic
  :class:`~repro.errors.ReproError` failures are poisoned instead of
  retried;
* the first SIGINT/SIGTERM drains in-flight runs, flushes, and raises
  :class:`~repro.errors.SweepInterrupted` carrying the log path and
  the exact ``repro sweep-resume`` command.

Failure is data, not control flow: a run that raises yields a record
with ``status == "error"`` and the worker's traceback instead of
killing the sweep.  Callers that need all runs (every experiment
module) raise :class:`SweepFailure` via :func:`records_to_results`.

Telemetry: with an :class:`~repro.obs.Observability` session, the
executor opens one run-observation of its own whose
:class:`~repro.obs.PhaseProfiler` splits plan / execute / collect and
whose registry tallies per-run wall-clock and counts runs, cache
hits, retries, and failures.  At ``jobs == 1`` the session is
additionally threaded into each run (per-run engine metrics, exactly
as before this layer existed); worker processes always run unobserved
— the telemetry contract (PR 1) guarantees that cannot change their
rows.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import failpoints
from repro.errors import ConfigurationError, ReproError, SweepInterrupted
from repro.exec.cache import ResultCache
from repro.exec.spec import RunSpec, run_spec, spec_digest
from repro.exec.sweeplog import journal_root, open_sweep_log
from repro.exec.supervisor import (
    GracefulSignals,
    SupervisedPool,
    Supervision,
    attempt_serial,
)
from repro.obs.events import SweepEventBus
from repro.obs.store import ObsArtifactStore
from repro.simulation.results import SimulationResult

#: Failpoint sites bracketing the shared settle/persist path.
SITE_PERSIST_PRE = failpoints.register_site(
    "executor.persist.pre",
    "a run settled, nothing flushed yet (cache and log pending)",
)
SITE_PERSIST_POST = failpoints.register_site(
    "executor.persist.post",
    "one settled row fully flushed to the cache and the log",
)

#: Failure summaries embedded in a SweepFailure message (the full
#: records remain on ``.failures``).
MAX_LISTED_FAILURES = 3


class SweepFailure(ReproError):
    """One or more runs of a sweep failed; carries their records."""

    def __init__(self, failures: List["RunRecord"]) -> None:
        self.failures = failures
        lines = []
        for record in failures[:MAX_LISTED_FAILURES]:
            detail = (record.error or "").strip().splitlines()
            tail = detail[-1] if detail else "unknown"
            name = record.label or record.kind
            lines.append(f"{name}: {tail}")
        message = (
            f"{len(failures)} of the sweep's runs failed: " + "; ".join(lines)
        )
        extra = len(failures) - MAX_LISTED_FAILURES
        if extra > 0:
            message += f"; ... and {extra} more"
        first = failures[0]
        if first.journal_path:
            message += (
                f" (journal: {first.journal_path}; retry failed rows with "
                f"`repro sweep-resume {first.sweep_id}`)"
            )
        super().__init__(message)


@dataclass
class RunRecord:
    """Outcome of one spec: payload or error, provenance, timing."""

    index: int
    kind: str
    label: str
    digest: str
    status: str  # "ok" | "error"
    payload: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    duration_s: float = 0.0
    cached: bool = False
    #: Attempts the run took (retries leave a trace).
    attempts: int = 1
    #: True when the failure was deterministic (quarantined, no retry).
    poisoned: bool = False
    #: True when the row was recovered from the sweep log.
    resumed: bool = False
    #: Sweep provenance (set when the sweep was journaled);
    #: ``journal_path`` names the sweep log.
    sweep_id: str = ""
    journal_path: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def result(self) -> SimulationResult:
        """The payload as a :class:`SimulationResult` (experiment kinds)."""
        if not self.ok:
            raise SweepFailure([self])
        return SimulationResult.from_dict(self.payload)


def _execute_payload(spec: RunSpec, obs=None) -> Tuple[str, Dict, Optional[str], float]:
    """Run one spec, capturing any failure; returns (status, payload,
    error, duration)."""
    start = time.perf_counter()
    try:
        payload = run_spec(spec, obs=obs)
        return "ok", payload, None, time.perf_counter() - start
    except Exception:  # noqa: BLE001 — failure capture is the point
        return "error", {}, traceback.format_exc(), time.perf_counter() - start


def _pool_context():
    """Fork where available (cheap, inherits imports), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def plan_rows(
    specs: Sequence[RunSpec],
    digests: Sequence[str],
    cache: Optional[ResultCache],
    store: Optional[ObsArtifactStore],
    settled_prior: Dict[str, Dict[str, Any]],
    bus: Optional[SweepEventBus],
    sweep_id: str = "",
    journal_file: str = "",
) -> Tuple[Dict[int, RunRecord], Dict[str, List[int]]]:
    """The lease-aware sweep planner: split specs into settled records
    and pending work.

    Probes the result cache, the obs artifact store, and the rows
    earlier sessions settled in the sweep log for every spec, emitting
    the plan-time events (``cache_hit``/``journal_hit``/
    ``artifact_hit``/``artifact_miss``) on ``bus``.  Returns
    ``(records, pending)`` where ``records`` maps already-settled
    indices to their :class:`RunRecord` and ``pending`` maps each
    digest still owed to the spec indices wanting it (the first index
    of each group is the *lead* — the one actually dispatched;
    duplicates are filled at collect time).

    This is the single planning path for both the local executor and
    the cluster master (:mod:`repro.cluster.master`), so a sweep
    executed remotely reuses exactly the local cache/resume semantics.
    """
    records: Dict[int, RunRecord] = {}
    pending: Dict[str, List[int]] = {}
    emitted: set = set()  # digests already announced on the bus
    for index, (spec, digest) in enumerate(zip(specs, digests)):
        stored = cache.get(digest) if cache is not None else None
        journal_row = settled_prior.get(digest)
        reusable_journal_row = (
            journal_row is not None
            and (store is None or journal_row.get("status") != "ok")
        )
        if store is not None and (
            stored is not None
            or (journal_row is not None
                and journal_row.get("status") == "ok")
        ):
            if store.get(digest) is None:
                # The result is cached (or journaled ok) but its
                # telemetry is not — a pre-store run, or a
                # corrupt/torn artifact.  Treat the pair as a miss
                # and re-execute: runs are deterministic, so the
                # payload cannot change, and the fresh execute
                # backfills the artifact.
                if bus is not None and digest not in emitted:
                    emitted.add(digest)
                    bus.emit("artifact_miss", digest=digest, index=index)
                stored = None
            else:
                reusable_journal_row = journal_row is not None
                if bus is not None and digest not in emitted:
                    emitted.add(digest)
                    bus.emit("artifact_hit", digest=digest, index=index)
        if stored is not None:
            records[index] = RunRecord(
                index=index,
                kind=spec.kind,
                label=spec.describe(),
                digest=digest,
                status="ok",
                payload=stored.get("payload", {}),
                duration_s=float(stored.get("duration_s", 0.0)),
                cached=True,
                sweep_id=sweep_id,
                journal_path=journal_file,
            )
            if bus is not None:
                bus.emit(
                    "cache_hit",
                    digest=digest,
                    index=index,
                    label=spec.describe(),
                )
        elif reusable_journal_row:
            row = journal_row
            records[index] = RunRecord(
                index=index,
                kind=spec.kind,
                label=spec.describe(),
                digest=digest,
                status=str(row.get("status", "error")),
                payload=row.get("payload", {}),
                error=row.get("error"),
                duration_s=float(row.get("duration_s", 0.0)),
                attempts=int(row.get("attempts", 1)),
                poisoned=bool(row.get("poisoned", False)),
                resumed=True,
                sweep_id=sweep_id,
                journal_path=journal_file,
            )
            if bus is not None:
                bus.emit(
                    "journal_hit",
                    digest=digest,
                    index=index,
                    status=records[index].status,
                    poisoned=records[index].poisoned,
                )
        else:
            # Identical specs (same digest) simulate once.
            pending.setdefault(digest, []).append(index)
    return records, pending


def persist_outcome(
    spec: RunSpec,
    index: int,
    digest: str,
    outcome: Dict[str, Any],
    cache: Optional[ResultCache],
    bus: Optional[SweepEventBus],
) -> None:
    """Flush one settled outcome to the cache and the sweep log.

    The single write path shared by the local executor and the cluster
    master: whoever settles a run — an in-process worker or a remote
    agent pushing its result — the row lands in the same stores with
    the same shape, so caches and logs merge cleanly.
    """
    failpoints.fire(SITE_PERSIST_PRE)
    if cache is not None and outcome["status"] == "ok":
        cache.put(
            digest,
            {
                "kind": spec.kind,
                "label": spec.describe(),
                "status": "ok",
                "payload": outcome["payload"],
                "duration_s": outcome["duration_s"],
            },
        )
    if bus is not None:
        bus.emit(
            "run_settled",
            index=index,
            digest=digest,
            kind=spec.kind,
            label=spec.describe(),
            status=outcome["status"],
            payload=outcome["payload"],
            error=outcome.get("error"),
            duration_s=outcome["duration_s"],
            attempts=outcome.get("attempt", 1),
            poisoned=outcome.get("poison", False),
        )
    failpoints.fire(SITE_PERSIST_POST)


def execute(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    obs=None,
    supervision: Optional[Supervision] = None,
) -> List[RunRecord]:
    """Run every spec; one record per spec, in spec order.

    Raises :class:`~repro.errors.SweepInterrupted` when a first
    SIGINT/SIGTERM arrives mid-sweep: in-flight runs drain, settled
    rows are already flushed, and the exception names the sweep log and
    the resume command.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    specs = list(specs)
    if not specs:
        return []
    supervision = supervision if supervision is not None else Supervision()

    if supervision.master_url:
        # Distributed execution: submit the plan to a running
        # ``repro master`` and collect the settled records.  The
        # cluster modules import lazily — the default local path never
        # pays for them (see docs/distributed_execution.md).
        from repro.cluster.client import execute_via_master

        return execute_via_master(specs, supervision, obs=obs)

    # A single spec is not a sweep: skip the executor's own run
    # observation so `repro run --metrics` documents stay one-run.
    exec_obs = None
    if obs is not None and obs.enabled and len(specs) > 1:
        exec_obs = obs.begin_run(f"sweep-exec[{len(specs)} runs]")

    def phase(name):
        if exec_obs is not None:
            return exec_obs.profiler.phase(name)
        return contextlib.nullcontext()

    # Obs artifacts ride the result cache: active only for observed,
    # cached sweeps (single runs keep their original telemetry path).
    store: Optional[ObsArtifactStore] = None
    if cache is not None and obs is not None and obs.enabled and len(specs) > 1:
        store = ObsArtifactStore(cache.root, level=obs.level.value)

    with phase("plan"):
        digests = [spec_digest(spec) for spec in specs]
        # Logging is on exactly when a cache or a journal directory is
        # present: ``--no-cache`` runs are explicitly ephemeral.
        root = supervision.journal_dir
        if root is None and cache is not None:
            root = journal_root(cache.root)
        bus: Optional[SweepEventBus] = None
        settled_prior: Dict[str, Dict[str, Any]] = {}
        if root is not None and len(specs) > 1:
            bus, settled_prior = open_sweep_log(
                root, digests, supervision.argv, jobs=jobs,
                obs_level=obs.level.value if obs is not None else "off",
            )
        sweep_id = bus.sweep_id if bus is not None else ""
        journal_file = str(bus.path) if bus is not None else ""
        records, pending = plan_rows(
            specs, digests, cache, store, settled_prior, bus,
            sweep_id=sweep_id, journal_file=journal_file,
        )

    index_digest = {indices[0]: digest for digest, indices in pending.items()}
    tasks = [(indices[0], specs[indices[0]]) for indices in pending.values()]
    outcomes: Dict[int, Dict[str, Any]] = {}

    def flush(index: int, outcome: Dict[str, Any]) -> None:
        """Persist one settled outcome to the cache and log immediately."""
        outcomes[index] = outcome
        persist_outcome(
            specs[index], index, index_digest[index], outcome, cache, bus
        )

    retries = 0
    with phase("execute"), GracefulSignals(
        enabled=supervision.handle_signals and bool(tasks)
    ) as signals:
        if jobs == 1 or len(tasks) <= 1:
            for index, spec in tasks:
                if signals.triggered is not None:
                    break
                outcome = attempt_serial(
                    spec,
                    supervision,
                    obs=obs,
                    store=store,
                    bus=bus,
                    index=index,
                    digest=index_digest[index],
                )
                retries += outcome["attempt"] - 1
                flush(index, outcome)
        elif tasks:
            pool = SupervisedPool(
                tasks,
                jobs,
                supervision,
                _pool_context(),
                bus=bus,
                obs_capture=(
                    (str(store.root), store.level.value)
                    if store is not None
                    else None
                ),
                digests=index_digest,
            )
            for outcome in pool.run():
                flush(outcome["index"], outcome)
                if signals.triggered is not None:
                    pool.request_stop()
            if signals.triggered is not None:
                pool.request_stop()
            retries = pool.retries

    interrupted = signals.triggered if tasks else None

    with phase("collect"):
        for digest, indices in pending.items():
            outcome = outcomes.get(indices[0])
            if outcome is None:
                continue  # interrupted before this task settled
            for index in indices:
                spec = specs[index]
                records[index] = RunRecord(
                    index=index,
                    kind=spec.kind,
                    label=spec.describe(),
                    digest=digest,
                    status=outcome["status"],
                    payload=outcome["payload"],
                    error=outcome["error"],
                    duration_s=outcome["duration_s"],
                    cached=index != indices[0],
                    attempts=outcome.get("attempt", 1),
                    poisoned=outcome.get("poison", False),
                    sweep_id=sweep_id,
                    journal_path=journal_file,
                )

        # Fold persisted per-run telemetry into the session, in spec
        # order: warm hits replay their stored artifact, fresh
        # executes (serial or worker-side) just wrote theirs.  This is
        # what gives parallel sweeps per-run engine metrics at all —
        # worker processes share no session with the parent.
        adopted: set = set()
        if store is not None:
            for index in range(len(specs)):
                record = records.get(index)
                digest = digests[index]
                if record is None or not record.ok or digest in adopted:
                    continue
                artifact = store.get(digest)
                if artifact is None:
                    continue
                adopted.add(digest)
                obs.adopt_runs(
                    artifact.get("runs", []),
                    store.get_trace(digest) if store.tracing else None,
                )

        if exec_obs is not None:
            registry = exec_obs.registry
            registry.counter("exec.runs").inc(len(specs))
            registry.counter("exec.cache_hits").inc(
                sum(1 for record in records.values() if record.cached)
            )
            registry.counter("exec.resumed").inc(
                sum(1 for record in records.values() if record.resumed)
            )
            registry.counter("exec.executed").inc(len(outcomes))
            registry.counter("exec.retries").inc(retries)
            registry.counter("exec.failures").inc(
                sum(1 for record in records.values() if not record.ok)
            )
            registry.counter("exec.poisoned").inc(
                sum(1 for record in records.values() if record.poisoned)
            )
            registry.gauge("exec.jobs").set(jobs)
            if store is not None:
                registry.counter("exec.obs_artifacts").inc(len(adopted))
            run_seconds = registry.tally("exec.run_seconds")
            for outcome in outcomes.values():
                run_seconds.record(outcome["duration_s"])

    if interrupted is not None:
        if bus is not None:
            bus.emit(
                "sweep_end", status="interrupted", settled=len(records)
            )
            bus.close()
        if exec_obs is not None:
            obs.finish_run(exec_obs)
        done = len(records)
        raise SweepInterrupted(
            sweep_id=sweep_id,
            journal_path=journal_file,
            completed=done,
            pending=len(specs) - done,
            signal_name=interrupted,
        )

    if bus is not None:
        bus.emit("sweep_end", status="complete", settled=len(records))
        bus.close()
    if exec_obs is not None:
        obs.finish_run(exec_obs)
    return [records[index] for index in range(len(specs))]


def require_ok(records: Sequence[RunRecord]) -> List[RunRecord]:
    """The records, or :class:`SweepFailure` if any run failed."""
    failures = [record for record in records if not record.ok]
    if failures:
        raise SweepFailure(failures)
    return list(records)


def records_to_results(records: Sequence[RunRecord]) -> List[SimulationResult]:
    """Materialise experiment results, raising if any run failed."""
    return [record.result() for record in require_ok(records)]
