"""Sweep identity, the sweep log's place on disk, and resume lookups.

A sweep's identity is the content of its work, not the time it ran:
:func:`sweep_id_for` hashes the sorted spec digests, so re-running the
same command after a crash computes the same sweep id and finds the
same log, ``<cache>/journals/<sweep_id>.events.jsonl``.  The log is
written by :class:`~repro.obs.events.SweepEventBus`; its
``run_settled`` records carry full payloads, so resume works even
with ``--no-cache``.  Resume state is a fold of the log
(:func:`~repro.obs.events.replay_events`): journaled ``ok`` rows and
poisoned rows (deterministic failures that would fail identically
again) count as done, and only the rest is dispatched.

Resume has two entry points: ``repro sweep-resume <sweep-id>`` replays
the recorded command line, and re-running the original command finds
the same log automatically.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.exec.hashing import digest_document
from repro.obs.events import (
    EVENTS_SUFFIX,
    EVENTS_VERSION,
    SweepEventBus,
    SweepProgress,
    events_path,
    list_event_streams,
    load_events,
    load_progress,
    replay_events,
)

PathLike = Union[str, Path]

#: Subdirectory of the cache root where sweep logs live.
JOURNAL_SUBDIR = "journals"

#: Version folded into sweep ids (unchanged since the first journal
#: format, so existing sweep ids stay valid).
SWEEP_ID_VERSION = 1

def sweep_id_for(digests: Iterable[str]) -> str:
    """Deterministic sweep identity: a digest of the sorted digests.

    Spec digests already include the code-version salt, so a code
    change yields a fresh sweep id — a stale log can never satisfy a
    sweep whose rows it does not actually answer.
    """
    document = {"version": SWEEP_ID_VERSION, "digests": sorted(set(digests))}
    return digest_document(document)[:16]


def journal_root(cache_root: PathLike) -> Path:
    """Where sweep logs live for a cache rooted at ``cache_root``."""
    return Path(cache_root) / JOURNAL_SUBDIR


def open_sweep_log(
    root: PathLike,
    digests: Sequence[str],
    argv: Optional[Sequence[str]],
    *,
    jobs: int,
    obs_level: str,
) -> Tuple[SweepEventBus, Dict[str, Dict[str, Any]]]:
    """Open a sweep's log and start this session.

    Folds what earlier sessions settled, then appends this session's
    ``sweep_begin``.  Returns the log and the settled rows a resume
    may reuse (digest -> ``run_settled`` record).  The one opening
    sequence for the local executor and the cluster master.
    """
    unique = sorted(set(digests))
    log = SweepEventBus(root, sweep_id_for(unique))
    prior = replay_events(load_events(log.path)).settled_runs()
    log.emit(
        "sweep_begin",
        version=EVENTS_VERSION,
        sweep_id=log.sweep_id,
        total=len(unique),
        digests=unique,
        jobs=jobs,
        obs_level=obs_level,
        argv=list(argv or []),
    )
    return log, prior


def load_sweep(path: PathLike) -> Optional[SweepProgress]:
    """Fold one log; ``None`` when it is missing or never began."""
    path = Path(path)
    progress = load_progress(path.parent, path.name[: -len(EVENTS_SUFFIX)])
    return None if progress.status == "unknown" else progress


def find_sweep(root: PathLike, sweep_id: str) -> Path:
    """The log for ``sweep_id`` (exact or unique-prefix match)."""
    root = Path(root)
    exact = events_path(root, sweep_id)
    if exact.is_file():
        return exact
    names = [
        path.name[: -len(EVENTS_SUFFIX)] for path in list_event_streams(root)
    ]
    matches = [name for name in names if name.startswith(sweep_id)]
    if len(matches) == 1:
        return events_path(root, matches[0])
    if matches:
        raise ConfigurationError(
            f"sweep id {sweep_id!r} is ambiguous: matches {', '.join(matches)}"
        )
    if any(
        not path.name.endswith(EVENTS_SUFFIX)
        for path in root.glob(f"{sweep_id}*.jsonl")
    ):
        # Only a journal from before the sweep log describes this id.
        raise ConfigurationError(
            "journal predates the unified sweep log; re-run the original "
            "command (cached rows are reused)"
        )
    hint = (
        f"; known sweeps: {', '.join(names)}" if names else " (no sweeps yet)"
    )
    raise ConfigurationError(
        f"no sweep log matches {sweep_id!r} under {root}{hint} "
        "(see `repro sweep-status --journal`)"
    )


def resume_counts(progress: SweepProgress) -> Dict[str, int]:
    """Completed, poisoned and still-owed rows of one sweep.

    Retryable errors count as pending: a resume runs them again.
    """
    poisoned = sum(
        1 for row in progress.settled.values() if row.get("poisoned")
    )
    return {
        "completed": progress.completed,
        "pending": max(0, progress.total - progress.completed - poisoned),
        "poisoned": poisoned,
    }


def sweep_status_rows(root: PathLike) -> List[Dict[str, Any]]:
    """One row per sweep log for ``repro sweep-status --journal``,
    newest activity first."""
    now = time.time()
    sweeps = [
        progress
        for progress in map(load_sweep, list_event_streams(root))
        if progress is not None
    ]
    sweeps.sort(key=lambda progress: progress.updated_at, reverse=True)
    return [
        {
            "sweep_id": progress.sweep_id,
            "status": progress.status,
            "total": progress.total,
            **resume_counts(progress),
            "age_s": (
                round(max(0.0, now - progress.updated_at), 1)
                if progress.updated_at else 0.0
            ),
            "command": " ".join(progress.argv) if progress.argv else "?",
        }
        for progress in sweeps
    ]
