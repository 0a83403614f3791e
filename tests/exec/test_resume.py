"""Resume semantics: interrupted sweeps finish byte-identically.

The contract (docs/resilient_execution.md): interrupt a sweep after N
rows, resume it, and the final rows are **byte-identical** to an
uninterrupted sweep — at ``jobs=1`` and ``jobs=4``, with or without
the result cache (the sweep log's settles carry payloads).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import threading
import time

import pytest

from repro.errors import SweepInterrupted
from repro.cli import main
from repro.exec import (
    ResultCache,
    RunSpec,
    Supervision,
    execute,
    journal_root,
    load_sweep,
)
from repro.exec.hashing import canonical_json
from repro.exec.spec import register_kind


@register_kind("_paced")
def _paced_kind(spec, obs=None):
    """A deterministic payload with a controllable duration."""
    time.sleep(float(spec.params.get("seconds", 0.0)))
    value = spec.params["value"]
    return {"value": value, "square": value * value}


def paced_specs(count, seconds=0.0):
    return [
        RunSpec(
            kind="_paced",
            params={"value": n, "seconds": seconds},
            label=f"paced-{n}",
        )
        for n in range(count)
    ]


def rows_of(records):
    """The byte form a caller would export: canonical payload JSON."""
    return [canonical_json(record.payload) for record in records]


def quiet_supervision(**overrides):
    options = {"handle_signals": False, "max_attempts": 1}
    options.update(overrides)
    return Supervision(**options)


def interrupt_after(delay):
    """Deliver SIGINT to this process after ``delay`` seconds."""
    pid = os.getpid()
    timer = threading.Timer(delay, lambda: os.kill(pid, signal.SIGINT))
    timer.start()
    return timer


class TestJournalResume:
    """Crash-style resume: the first invocation stops early, the second
    invocation picks the sweep log up."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_crash_after_two_rows_resumes_byte_identical(self, tmp_path, jobs):
        """Simulate a hard crash (kill -9 of the parent): the log holds
        two settled rows and a torn tail.  Re-running the sweep replays
        those two and executes only the rest."""
        specs = paced_specs(6)
        ref_dir = tmp_path / "ref"
        reference = execute(
            specs, jobs=jobs, supervision=quiet_supervision(journal_dir=ref_dir)
        )
        journal_dir = tmp_path / "journal"
        shutil.copytree(ref_dir, journal_dir)
        [path] = journal_dir.glob("*.jsonl")
        assert path.name.endswith(".events.jsonl")  # the one log
        kept, settles = [], 0
        for line in path.read_text().splitlines(keepends=True):
            kept.append(line)
            settles += json.loads(line)["event"] == "run_settled"
            if settles == 2:
                break  # truncate right after the second settle
        path.write_text(
            "".join(kept) + '{"event": "run_settled", "digest": "torn'
        )
        resumed = execute(
            specs, jobs=jobs,
            supervision=quiet_supervision(journal_dir=journal_dir),
        )
        assert rows_of(resumed) == rows_of(reference)
        assert sum(1 for record in resumed if record.resumed) == 2

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_interrupted_journal_resumes_without_cache(self, tmp_path, jobs):
        """The sweep log alone (no result cache) is enough to resume."""
        specs = paced_specs(5)
        journal_dir = tmp_path / "journals"
        supervision = quiet_supervision(journal_dir=journal_dir)
        reference = execute(specs, jobs=jobs, supervision=supervision)
        resumed = execute(specs, jobs=jobs, supervision=supervision)
        assert all(record.resumed for record in resumed)
        assert rows_of(resumed) == rows_of(reference)


class TestSignalInterrupt:
    """Real-signal resume: SIGINT mid-sweep raises SweepInterrupted,
    flushed rows survive, and a re-run completes byte-identically."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_sigint_interrupt_then_resume_byte_identical(self, tmp_path, jobs):
        specs = paced_specs(6, seconds=0.25)
        reference = execute(
            specs, jobs=jobs,
            supervision=quiet_supervision(journal_dir=tmp_path / "ref"),
        )
        journal_dir = tmp_path / "journals"
        supervision = Supervision(
            handle_signals=True, max_attempts=1, journal_dir=journal_dir,
            argv=["sweep", "--paced"],
        )
        # Fire before the first 0.25 s wave finishes: the drain then
        # completes only the in-flight rows and leaves the rest pending
        # at jobs=1 (1 in flight) and jobs=4 (≤4 in flight) alike.
        timer = interrupt_after(0.15)
        try:
            with pytest.raises(SweepInterrupted) as caught:
                execute(specs, jobs=jobs, supervision=supervision)
        finally:
            timer.cancel()
        interrupt = caught.value
        assert interrupt.signal_name == "SIGINT"
        assert interrupt.sweep_id
        assert interrupt.resume_command.startswith("repro sweep-resume")
        assert 0 < interrupt.completed < len(specs)
        # The log recorded the drain.
        state = load_sweep(interrupt.journal_path)
        assert state.status == "interrupted"
        assert state.completed == interrupt.completed
        assert state.argv == ["sweep", "--paced"]
        # Resume: settled rows replay from the log, the rest run.
        resumed = execute(
            specs, jobs=jobs,
            supervision=quiet_supervision(journal_dir=journal_dir),
        )
        assert rows_of(resumed) == rows_of(reference)
        assert sum(1 for r in resumed if r.resumed) == interrupt.completed
        assert load_sweep(interrupt.journal_path).status == "complete"

    def test_interrupt_with_cache_names_journal_beside_it(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = paced_specs(6, seconds=0.25)
        timer = interrupt_after(0.15)
        try:
            with pytest.raises(SweepInterrupted) as caught:
                execute(
                    specs, jobs=2, cache=cache,
                    supervision=Supervision(max_attempts=1),
                )
        finally:
            timer.cancel()
        assert str(journal_root(cache.root)) in caught.value.journal_path


class TestLegacyJournal:
    def test_resume_rejects_a_pre_log_journal_in_one_line(
        self, tmp_path, capsys
    ):
        """A cache holding only an old-format ``<id>.jsonl`` journal
        cannot be resumed: exit 2 with one line naming the way out."""
        cache = tmp_path / "cache"
        root = journal_root(cache)
        root.mkdir(parents=True)
        (root / "0123abcd4567ef89.jsonl").write_text(
            json.dumps({"event": "begin", "sweep_id": "0123abcd4567ef89",
                        "argv": ["sweep"], "total": 1, "digests": ["d"]})
            + "\n"
        )
        code = main(
            ["sweep-resume", "0123abcd4567ef89", "--cache-dir", str(cache)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.strip().splitlines() == [
            "repro sweep-resume: journal predates the unified sweep log; "
            "re-run the original command (cached rows are reused)"
        ]
        # Sweeps and sweep-status leave such files alone.
        assert main(["sweep-status", "--journal", "--cache-dir",
                     str(cache)]) == 0
        assert "no sweep logs" in capsys.readouterr().out
