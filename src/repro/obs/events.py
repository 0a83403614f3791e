"""The sweep log: one append-only ``<sweep_id>.events.jsonl`` per sweep.

Every journaled sweep writes a single log under ``<cache>/journals``.
It is both the sweep's checkpoint (resume folds it) and its live
progress stream (``repro sweep-status --follow`` and ``repro obs-top``
fold it too).  The executor, the supervised pool, and a cluster
master append structured events to it as they happen:

===================  ====================================================
event                emitted when
===================  ====================================================
``sweep_begin``      a session opens the sweep (argv, digests, total)
``cache_hit``        a row is served from the result cache at plan time
``journal_hit``      a row is recovered from the log's prior settles
``artifact_hit``     a cached row's obs artifact was reused
``artifact_miss``    a cached row lacked its obs artifact (re-executed)
``worker_spawned``   the pool starts a worker process
``worker_died``      a worker is reaped (death / timeout / hung)
``run_leased``       a run is dispatched to a worker (or runs in-process)
``run_retried``      a transient failure is re-queued with backoff
``run_settled``      a run reaches its final state, payload included
``heartbeat``        ~1/s while the pool is draining (in-flight counts)
``sweep_end``        the sweep completes or is gracefully interrupted
``agent_registered`` a cluster agent joins the master (cores, host)
``agent_died``       an agent misses its heartbeat timeout (or leaves)
``lease_granted``    the master leases a batch of rows to an agent
``lease_expired``    a dead agent's lease is reclaimed (rows requeue)
``result_pushed``    an agent pushes a settled row back to the master
===================  ====================================================

The five ``agent_*``/``lease_*``/``result_pushed`` events are emitted
only by a ``repro master`` (see :mod:`repro.cluster.master` and
docs/distributed_execution.md); purely local sweeps never produce
them, and :func:`replay_events` folds them into the ``agents`` table
of the progress snapshot.

**Durable and advisory records.**  ``sweep_begin``, ``run_settled``
and ``sweep_end`` (:data:`DURABLE_EVENTS`) are state: each is one
``os.write`` on an ``O_APPEND`` descriptor, under an exclusive
``flock`` that also covers the torn-tail repair, then fsynced.  A
crash tears at most the last line, which :func:`load_events` skips.
Every other event is advisory: written the same way but not fsynced,
and its errors are swallowed.  A full disk (ENOSPC/EDQUOT) on any
append degrades the whole log with one warning; the sweep continues
and a resume relies on the result cache.

Because heartbeats dominate the byte count on long sweeps, the log
**compacts consecutive heartbeat events on reopen** (keeping the
latest per emitting source) before a new session appends — see
:func:`compact_heartbeat_lines`.  Compaction holds the same lock as
appends, and an append whose descriptor no longer names the path
reopens it, so a concurrent settler never loses a record to the
rewrite.  Compaction never changes what :func:`replay_events` folds
to.

:func:`replay_events` folds a log into a :class:`SweepProgress`: the
resume state (:meth:`SweepProgress.settled_runs`, ``argv``, ``total``,
``status``) and the snapshot schema shared by ``repro sweep-status
--json``, the ``--follow`` live renderer, and ``repro obs-top``.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro import failpoints
from repro.integrity import out_of_space, warn_degraded

PathLike = Union[str, Path]

#: Failpoint site inside every append, lock held, before the write
#: (torn-capable).  Durable and advisory records both pass it, so an
#: ``@N`` hit count picks which record a fault lands on.
SITE_EVENTS_EMIT = failpoints.register_site(
    "events.emit",
    "inside SweepEventBus.emit, lock held, before the write (torn-capable)",
)

#: Log format version (bumped on incompatible changes).
EVENTS_VERSION = 1

#: Filename suffix of sweep logs in the journal directory.
EVENTS_SUFFIX = ".events.jsonl"

#: Records that carry sweep state: fsynced, and their I/O errors
#: (other than a full disk) propagate.
DURABLE_EVENTS = frozenset({"sweep_begin", "run_settled", "sweep_end"})


def events_path(root: PathLike, sweep_id: str) -> Path:
    """The sweep log for ``sweep_id`` under journal directory ``root``."""
    return Path(root) / f"{sweep_id}{EVENTS_SUFFIX}"


def _heartbeat_source(record: Dict[str, Any]) -> str:
    """The emitting source of a heartbeat: an agent id or "local"."""
    agent = record.get("agent")
    return str(agent) if agent else "local"


def compact_heartbeat_lines(lines: List[str]) -> List[str]:
    """Drop superseded heartbeats from a raw event-stream line list.

    Within each maximal run of *consecutive* heartbeat lines, only the
    latest heartbeat per emitting source (worker pool or cluster
    agent) is kept — every earlier one is shadowed by it in any fold.
    Non-heartbeat lines act as barriers and are preserved byte-for-
    byte, as are unparsable lines (a torn tail stays torn, exactly
    where it was).  The result folds to the same
    :class:`SweepProgress` as the input.
    """
    compacted: List[str] = []
    #: source -> position in ``compacted`` of its pending heartbeat.
    pending: Dict[str, int] = {}
    for line in lines:
        record: Optional[Dict[str, Any]] = None
        stripped = line.strip()
        if stripped:
            try:
                parsed = json.loads(stripped)
                if isinstance(parsed, dict):
                    record = parsed
            except json.JSONDecodeError:
                record = None
        if record is not None and record.get("event") == "heartbeat":
            source = _heartbeat_source(record)
            slot = pending.get(source)
            if slot is not None:
                compacted[slot] = line  # newer shadows older, in place
            else:
                pending[source] = len(compacted)
                compacted.append(line)
        else:
            pending.clear()  # barrier: the run of heartbeats ends here
            compacted.append(line)
    return compacted


def _lock_current(path: Path, fd: Optional[int]) -> int:
    """An fd on the file now at ``path``, exclusively locked.

    Compaction replaces the file under the lock.  An fd opened before
    the replace names the old inode, so after taking the lock check
    that ``path`` still names the locked file; if not, follow the
    path and lock again.
    """
    while True:
        if fd is None:
            fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            held = os.fstat(fd)
            current = os.stat(path)
        except FileNotFoundError:
            current = None
        except BaseException:
            os.close(fd)
            raise
        if current is not None and (current.st_ino, current.st_dev) == (
            held.st_ino, held.st_dev
        ):
            return fd
        os.close(fd)  # also drops the lock on the stale file
        fd = None


def compact_events_file(path: PathLike) -> bool:
    """Compact one log's heartbeats in place; True if it shrank.

    Holds the log's append lock across read, rewrite and
    ``os.replace``, so no append can land in the old file after it was
    read.  A concurrent reader sees the old file or the new one, never
    half of either.  Never raises: any I/O error leaves the file as-is.
    """
    path = Path(path)
    if not path.is_file():
        return False
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        fd = _lock_current(path, None)
    except OSError:
        return False
    try:
        lines = path.read_text().splitlines(keepends=True)
        compacted = compact_heartbeat_lines(lines)
        if len(compacted) == len(lines):
            return False
        tmp.write_text("".join(compacted))
        os.replace(tmp, path)
        return True
    except (OSError, ValueError):
        try:
            tmp.unlink()
        except OSError:
            pass
        return False
    finally:
        os.close(fd)


def _repair_tail(fd: int) -> None:
    """Terminate a torn tail before appending.

    A crash mid-append can leave the file ending in a partial record
    with no newline.  Appending directly after it would glue two
    records onto one unparsable line, losing the new record too.  A
    lone newline first confines the damage to the lost fragment.
    """
    size = os.fstat(fd).st_size
    if size > 0 and os.pread(fd, 1, size - 1) != b"\n":
        os.write(fd, b"\n")


class SweepEventBus:
    """Append-only writer for one sweep's log.

    Opens lazily on the first emit, compacting what earlier sessions
    left.  Advisory emits never raise.  A durable emit raises on an
    I/O error other than a full disk, like any checkpoint write; a
    full disk, or a log that cannot be opened at all, degrades the
    whole log to a no-op with one warning.
    """

    def __init__(self, root: PathLike, sweep_id: str) -> None:
        self.sweep_id = sweep_id
        self.path = events_path(root, sweep_id)
        self._fd: Optional[int] = None
        #: Serialises this writer's threads; processes use the flock.
        self._mutex = threading.Lock()
        self._dead = False
        self.emitted = 0

    def __repr__(self) -> str:
        return f"<SweepEventBus {self.sweep_id} at {self.path}>"

    def emit(self, event: str, **fields: Any) -> None:
        """Append one event record."""
        if self._dead:
            return
        record: Dict[str, Any] = {"event": event, "ts": time.time()}
        record.update(fields)
        durable = event in DURABLE_EVENTS
        try:
            line = (json.dumps(record) + "\n").encode("utf-8")
            with self._mutex:
                if self._fd is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    # Bound the log's growth across resumes: drop
                    # earlier sessions' superseded heartbeats first.
                    compact_events_file(self.path)
                self._append(line, durable)
        except (OSError, ValueError, TypeError) as error:
            unopened = isinstance(error, OSError) and self._fd is None
            if out_of_space(error) or unopened:
                self._dead = True
                self.close()
                warn_degraded(
                    "sweep event stream",
                    f"{error} — sweep continues without its log "
                    "(resume will rely on the result cache)",
                )
            elif durable:
                raise
            return
        self.emitted += 1

    def _append(self, line: bytes, durable: bool) -> None:
        fd, self._fd = self._fd, None
        fd = _lock_current(self.path, fd)
        self._fd = fd
        try:
            _repair_tail(fd)
            failpoints.fire(
                SITE_EVENTS_EMIT,
                data=line,
                writer=lambda prefix: os.write(fd, prefix),
            )
            os.write(fd, line)
            if durable:
                os.fsync(fd)
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None


def load_events(path: PathLike) -> List[Dict[str, Any]]:
    """All readable events of one log, in append order.

    Unparsable lines (a torn tail after a crash, or a scribble) are
    skipped and everything before them stands.  A missing file is an
    empty log.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except OSError:
        return []
    events: List[Dict[str, Any]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail or scribble — everything before it stands
        if isinstance(record, dict) and "event" in record:
            events.append(record)
    return events


def list_event_streams(root: PathLike) -> List[Path]:
    """Every event-stream file under ``root``, sorted by name."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(root.glob(f"*{EVENTS_SUFFIX}"))


def settled_events_digest(events: Iterable[Dict[str, Any]]) -> str:
    """Order-independent digest of a stream's *settled* outcomes.

    Hashes the sorted set of ``(digest, status, poisoned)`` triples
    from ``run_settled``, ``cache_hit``, and ``journal_hit`` events —
    the fields that are functions of the work, not of scheduling — so
    ``jobs=1`` and ``jobs=4`` executions of the same sweep agree even
    though their events interleave differently.
    """
    triples = set()
    for record in events:
        kind = record.get("event")
        if kind == "run_settled":
            triples.add(
                (
                    str(record.get("digest", "")),
                    str(record.get("status", "")),
                    bool(record.get("poisoned", False)),
                )
            )
        elif kind == "cache_hit":
            triples.add((str(record.get("digest", "")), "ok", False))
        elif kind == "journal_hit":
            triples.add(
                (
                    str(record.get("digest", "")),
                    str(record.get("status", "ok")),
                    bool(record.get("poisoned", False)),
                )
            )
    canonical = json.dumps(sorted(triples), separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Replay: events -> progress snapshot
# ----------------------------------------------------------------------
#: Progress-snapshot schema identifier (``sweep-status --json`` emits
#: it; the ``--follow`` renderer consumes it).  ``/2`` added the
#: ``agents`` table folded from cluster events (empty for purely
#: local sweeps) — see docs/sweep_observability.md.
PROGRESS_SCHEMA = "repro-sweep-progress/2"


@dataclass
class SweepProgress:
    """Everything :func:`replay_events` recovers from one stream."""

    sweep_id: str = ""
    #: "in-flight" | "complete" | "interrupted" | "unknown"
    status: str = "unknown"
    total: int = 0
    jobs: int = 1
    argv: List[str] = field(default_factory=list)
    #: digest -> final outcome row for every settled digest.
    settled: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: digest -> the last ``run_settled`` record for it, payload
    #: included: the resume state.
    runs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    cache_hits: int = 0
    resumed: int = 0
    executed: int = 0
    failed: int = 0
    poisoned: int = 0
    retries: int = 0
    artifact_hits: int = 0
    artifact_misses: int = 0
    workers_spawned: int = 0
    workers_died: int = 0
    #: index -> {label, worker, since} for runs currently dispatched.
    in_flight: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: worker id -> {state, task, last_ts} (state: alive | dead).
    workers: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: agent id -> {state, cores, leased, settled, last_ts} folded
    #: from cluster events; empty for purely local sweeps.
    agents: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    started_at: float = 0.0
    updated_at: float = 0.0
    #: Wall-clock timestamps of executed (non-cached) settles, for the
    #: settled-run rate and the ETA.
    settle_times: List[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Digests settled successfully (fresh, cached, or resumed)."""
        return sum(
            1 for row in self.settled.values() if row.get("status") == "ok"
        )

    @property
    def pending(self) -> int:
        return max(0, self.total - len(self.settled))

    def settled_runs(self) -> Dict[str, Dict[str, Any]]:
        """``run_settled`` records a resume may reuse.

        Successes and poisoned rows (deterministic failures that would
        fail identically again).  Transient errors are not settled, so
        a resume retries them.  A record without a payload (written
        before settles carried one) cannot answer a row either.
        """
        return {
            digest: record
            for digest, record in self.runs.items()
            if "payload" in record
            and (record.get("status") == "ok" or record.get("poisoned"))
        }

    @property
    def rate_per_s(self) -> float:
        """Executed-settle throughput over the observed window."""
        if len(self.settle_times) < 1 or self.started_at <= 0:
            return 0.0
        window = self.settle_times[-1] - self.started_at
        if window <= 0:
            return 0.0
        return len(self.settle_times) / window

    @property
    def eta_s(self) -> Optional[float]:
        """Seconds until done at the current settled-run rate."""
        if self.pending == 0:
            return 0.0
        rate = self.rate_per_s
        if rate <= 0:
            return None
        return self.pending / rate

    @property
    def age_s(self) -> float:
        """Seconds since the last event."""
        if self.updated_at <= 0:
            return 0.0
        return max(0.0, time.time() - self.updated_at)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON schema shared by ``--json`` and ``--follow``."""
        eta = self.eta_s
        return {
            "schema": PROGRESS_SCHEMA,
            "sweep_id": self.sweep_id,
            "status": self.status,
            "total": self.total,
            "completed": self.completed,
            "settled": len(self.settled),
            "pending": self.pending,
            "cache_hits": self.cache_hits,
            "resumed": self.resumed,
            "executed": self.executed,
            "failed": self.failed,
            "poisoned": self.poisoned,
            "retries": self.retries,
            "artifact_hits": self.artifact_hits,
            "artifact_misses": self.artifact_misses,
            "jobs": self.jobs,
            "workers_spawned": self.workers_spawned,
            "workers_died": self.workers_died,
            "workers": {
                str(worker_id): dict(info)
                for worker_id, info in sorted(self.workers.items())
            },
            "agents": {
                agent_id: dict(info)
                for agent_id, info in sorted(self.agents.items())
            },
            "in_flight": [
                {"index": index, **info}
                for index, info in sorted(self.in_flight.items())
            ],
            "rate_per_s": round(self.rate_per_s, 4),
            "eta_s": None if eta is None else round(eta, 1),
            "age_s": round(self.age_s, 1),
            "started_at": self.started_at,
            "updated_at": self.updated_at,
            "argv": list(self.argv),
        }


#: Typed fields of event records.  :func:`replay_events` converts
#: them before folding a record, so a record whose JSON parses but
#: whose values do not is skipped whole instead of half-applied.
_INT_FIELDS = ("index", "total", "jobs", "attempt", "attempts", "cores")
_FLOAT_FIELDS = ("ts", "duration_s")
_LIST_FIELDS = ("argv", "indexes", "labels")


def _typed(record: Dict[str, Any]) -> Dict[str, Any]:
    """``record`` with its typed fields converted; raises
    ``TypeError``/``ValueError`` when one does not convert."""
    typed = dict(record)
    for key in _INT_FIELDS:
        if key in typed:
            typed[key] = int(typed[key])
    for key in _FLOAT_FIELDS:
        if key in typed:
            typed[key] = float(typed[key])
    if typed.get("worker") is not None:
        typed["worker"] = int(typed["worker"])
    for key in _LIST_FIELDS:
        if typed.get(key) is not None and not isinstance(typed[key], list):
            raise TypeError(f"{key} must be a list")
    if typed.get("indexes"):
        typed["indexes"] = [int(index) for index in typed["indexes"]]
    if typed.get("workers") is not None and not isinstance(
        typed["workers"], dict
    ):
        raise TypeError("workers must be an object")
    return typed


def replay_events(events: Iterable[Dict[str, Any]]) -> SweepProgress:
    """Fold an event stream into its current :class:`SweepProgress`.

    Tolerates overlap from resumed sweeps (the same stream accumulates
    every attempt): later events win, settles are keyed by digest, and
    a fresh ``sweep_begin`` clears the transient in-flight state.
    Like unparsable lines, records with a wrong-typed field are
    skipped.
    """
    progress = SweepProgress()
    for raw in events:
        try:
            record = _typed(raw)
        except (TypeError, ValueError):
            continue  # parses as JSON, but a field has the wrong type
        kind = record.get("event")
        ts = record.get("ts", 0.0)
        if ts:
            progress.updated_at = max(progress.updated_at, ts)
        if kind == "sweep_begin":
            progress.sweep_id = str(record.get("sweep_id", progress.sweep_id))
            progress.total = record.get("total", progress.total)
            progress.jobs = record.get("jobs", progress.jobs)
            argv = record.get("argv")
            if argv:
                progress.argv = [str(part) for part in argv]
            if not progress.started_at and ts:
                progress.started_at = ts
            progress.status = "in-flight"
            # A resume restarts the transient state; settled digests
            # and cumulative counters carry over.
            progress.in_flight.clear()
            progress.workers.clear()
        elif kind == "cache_hit":
            digest = str(record.get("digest", ""))
            if digest and digest not in progress.settled:
                progress.cache_hits += 1
                progress.settled[digest] = {
                    "status": "ok", "cached": True, "poisoned": False,
                }
        elif kind == "journal_hit":
            digest = str(record.get("digest", ""))
            if digest and digest not in progress.settled:
                progress.resumed += 1
                progress.settled[digest] = {
                    "status": str(record.get("status", "ok")),
                    "resumed": True,
                    "poisoned": bool(record.get("poisoned", False)),
                }
        elif kind == "artifact_hit":
            progress.artifact_hits += 1
        elif kind == "artifact_miss":
            progress.artifact_misses += 1
        elif kind == "worker_spawned":
            worker = record.get("worker", -1)
            progress.workers_spawned += 1
            progress.workers[worker] = {
                "state": "alive", "task": None, "last_ts": ts,
            }
        elif kind == "worker_died":
            worker = record.get("worker", -1)
            progress.workers_died += 1
            info = progress.workers.setdefault(worker, {})
            info.update(
                {"state": "dead", "task": None, "last_ts": ts,
                 "reason": str(record.get("reason", ""))}
            )
        elif kind == "run_leased":
            index = record.get("index", -1)
            worker = record.get("worker")
            progress.in_flight[index] = {
                "label": str(record.get("label", "")),
                "worker": worker,
                "attempt": record.get("attempt", 1),
                "since": ts,
            }
            if isinstance(worker, int) and worker in progress.workers:
                progress.workers[worker].update(
                    {"task": index, "last_ts": ts}
                )
        elif kind == "run_retried":
            progress.retries += 1
            index = record.get("index", -1)
            progress.in_flight.pop(index, None)
        elif kind == "run_settled":
            index = record.get("index", -1)
            digest = str(record.get("digest", ""))
            leased = progress.in_flight.pop(index, None)
            if leased is not None:
                worker = leased.get("worker")
                if isinstance(worker, int) and worker in progress.workers:
                    info = progress.workers[worker]
                    if info.get("task") == index:
                        info.update({"task": None, "last_ts": ts})
            status = str(record.get("status", "error"))
            poisoned = bool(record.get("poisoned", False))
            progress.executed += 1
            if status != "ok":
                progress.failed += 1
            if poisoned:
                progress.poisoned += 1
            if digest:
                progress.settled[digest] = {
                    "status": status,
                    "poisoned": poisoned,
                    "attempts": record.get("attempts", 1),
                    "duration_s": record.get("duration_s", 0.0),
                }
                progress.runs[digest] = record
            if ts:
                progress.settle_times.append(ts)
        elif kind == "heartbeat":
            agent = record.get("agent")
            if agent:
                info = progress.agents.setdefault(
                    str(agent), {"state": "alive", "leased": 0, "settled": 0}
                )
                info["last_ts"] = ts
            for worker_key, task in (record.get("workers") or {}).items():
                try:
                    worker = int(worker_key)
                except (TypeError, ValueError):
                    continue
                info = progress.workers.setdefault(
                    worker, {"state": "alive", "task": None}
                )
                info.update({"task": task, "last_ts": ts})
        elif kind == "agent_registered":
            agent = str(record.get("agent", ""))
            if agent:
                progress.agents[agent] = {
                    "state": "alive",
                    "cores": record.get("cores", 1),
                    "host": str(record.get("host", "")),
                    "leased": 0,
                    "settled": 0,
                    "last_ts": ts,
                }
        elif kind == "agent_died":
            agent = str(record.get("agent", ""))
            if agent:
                info = progress.agents.setdefault(
                    agent, {"leased": 0, "settled": 0}
                )
                info.update(
                    {"state": "dead", "last_ts": ts,
                     "reason": str(record.get("reason", ""))}
                )
        elif kind == "lease_granted":
            agent = str(record.get("agent", ""))
            indexes = record.get("indexes") or []
            labels = record.get("labels") or []
            for position, index in enumerate(indexes):
                label = labels[position] if position < len(labels) else ""
                progress.in_flight[index] = {
                    "label": str(label),
                    "worker": agent,
                    "attempt": record.get("attempt", 1),
                    "since": ts,
                }
            if agent:
                info = progress.agents.setdefault(
                    agent, {"state": "alive", "leased": 0, "settled": 0}
                )
                info["leased"] = int(info.get("leased", 0)) + len(indexes)
                info["last_ts"] = ts
        elif kind == "lease_expired":
            agent = str(record.get("agent", ""))
            for index in record.get("indexes") or []:
                progress.in_flight.pop(index, None)
            if agent and agent in progress.agents:
                progress.agents[agent]["last_ts"] = ts
        elif kind == "result_pushed":
            agent = str(record.get("agent", ""))
            if agent:
                info = progress.agents.setdefault(
                    agent, {"state": "alive", "leased": 0, "settled": 0}
                )
                info["settled"] = int(info.get("settled", 0)) + 1
                info["last_ts"] = ts
        elif kind == "sweep_end":
            progress.status = str(record.get("status", "complete"))
            progress.in_flight.clear()
            for info in progress.workers.values():
                info["task"] = None
    return progress


def load_progress(root: PathLike, sweep_id: str) -> SweepProgress:
    """Fold the sweep log for ``sweep_id`` under journal ``root``."""
    progress = replay_events(load_events(events_path(root, sweep_id)))
    if not progress.sweep_id:
        progress.sweep_id = sweep_id
    return progress


# ----------------------------------------------------------------------
# Rendering (sweep-status --follow / obs-top)
# ----------------------------------------------------------------------
def _format_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def progress_bar(done: int, total: int, width: int = 30) -> str:
    """A ``[#####....]`` bar for ``done``/``total``."""
    if total <= 0:
        return "[" + " " * width + "]"
    filled = int(round(width * min(1.0, done / total)))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def render_progress(snapshot: Dict[str, Any]) -> str:
    """Human-readable live view of one progress snapshot.

    Consumes exactly the :meth:`SweepProgress.to_dict` schema — the
    same document ``repro sweep-status --json`` prints — so scripts
    and the renderer can never drift apart.
    """
    lines: List[str] = []
    total = int(snapshot.get("total", 0))
    settled = int(snapshot.get("settled", 0))
    status = snapshot.get("status", "unknown")
    lines.append(
        f"sweep {snapshot.get('sweep_id', '?')}  [{status}]  "
        f"{progress_bar(settled, total)} {settled}/{total}"
    )
    eta = snapshot.get("eta_s")
    lines.append(
        "  completed {completed}  cached {cached}  resumed {resumed}  "
        "executed {executed}  failed {failed}  poisoned {poisoned}  "
        "retries {retries}".format(
            completed=snapshot.get("completed", 0),
            cached=snapshot.get("cache_hits", 0),
            resumed=snapshot.get("resumed", 0),
            executed=snapshot.get("executed", 0),
            failed=snapshot.get("failed", 0),
            poisoned=snapshot.get("poisoned", 0),
            retries=snapshot.get("retries", 0),
        )
    )
    rate = float(snapshot.get("rate_per_s") or 0.0)
    lines.append(
        f"  rate {rate:.2f} runs/s  eta {_format_duration(eta)}  "
        f"last event {_format_duration(snapshot.get('age_s', 0.0))} ago  "
        f"jobs {snapshot.get('jobs', 1)}"
    )
    hits = int(snapshot.get("artifact_hits", 0))
    misses = int(snapshot.get("artifact_misses", 0))
    if hits or misses:
        lines.append(f"  obs artifacts: {hits} reused, {misses} backfilled")
    workers = snapshot.get("workers") or {}
    if workers:
        parts = []
        for worker_id, info in sorted(
            workers.items(), key=lambda item: int(item[0])
        ):
            state = info.get("state", "?")
            task = info.get("task")
            if state != "alive":
                parts.append(f"w{worker_id}:dead")
            elif task is None:
                parts.append(f"w{worker_id}:idle")
            else:
                parts.append(f"w{worker_id}:run#{task}")
        lines.append("  workers: " + "  ".join(parts))
    agents = snapshot.get("agents") or {}
    if agents:
        parts = []
        for agent_id, info in sorted(agents.items()):
            state = info.get("state", "?")
            if state != "alive":
                parts.append(f"{agent_id}:dead")
            else:
                parts.append(
                    f"{agent_id}:{info.get('settled', 0)}"
                    f"/{info.get('leased', 0)}"
                )
        lines.append("  agents (settled/leased): " + "  ".join(parts))
    in_flight = snapshot.get("in_flight") or []
    for entry in in_flight[:8]:
        worker = entry.get("worker")
        who = "in-process" if worker is None else f"worker {worker}"
        lines.append(
            f"  running #{entry.get('index')}: {entry.get('label', '')} "
            f"({who}, attempt {entry.get('attempt', 1)})"
        )
    if len(in_flight) > 8:
        lines.append(f"  ... and {len(in_flight) - 8} more in flight")
    argv = snapshot.get("argv") or []
    if argv:
        lines.append("  command: repro " + " ".join(argv))
    return "\n".join(lines)
