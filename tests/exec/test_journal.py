"""Sweep log resume state: identity, durable settles, torn-tail recovery.

The sweep log (``<sweep_id>.events.jsonl``) is the one record of a
sweep; these tests pin the fold a resume reads from it.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    find_sweep,
    load_sweep,
    sweep_id_for,
    sweep_status_rows,
)
from repro.exec.sweeplog import open_sweep_log, resume_counts
from repro.obs.events import SweepEventBus


DIGESTS = ["d1" * 8, "d2" * 8, "d3" * 8]


def make_log(root, digests=None, argv=("sweep", "--jobs", "2")):
    digests = digests if digests is not None else DIGESTS
    log, _prior = open_sweep_log(root, digests, list(argv), jobs=1,
                                 obs_level="off")
    return log


def settle(log, digest, status="ok", payload=None, error=None,
           attempts=1, poisoned=False, label="row"):
    log.emit(
        "run_settled", index=0, digest=digest, kind="experiment",
        label=label, status=status, payload=payload or {}, error=error,
        duration_s=0.5, attempts=attempts, poisoned=poisoned,
    )


class TestSweepIdentity:
    def test_id_is_deterministic_and_order_free(self):
        assert sweep_id_for(DIGESTS) == sweep_id_for(list(reversed(DIGESTS)))
        assert sweep_id_for(DIGESTS) == sweep_id_for(DIGESTS + [DIGESTS[0]])

    def test_different_work_different_id(self):
        assert sweep_id_for(DIGESTS) != sweep_id_for(DIGESTS[:2])


class TestJournalRoundTrip:
    def test_begin_run_end_round_trips(self, tmp_path):
        log = make_log(tmp_path)
        settle(log, DIGESTS[0], payload={"value": 1})
        log.emit("sweep_end", status="interrupted")
        state = load_sweep(log.path)
        assert state.sweep_id == log.sweep_id
        assert state.argv == ["sweep", "--jobs", "2"]
        assert state.total == 3
        assert resume_counts(state) == {
            "completed": 1, "pending": 2, "poisoned": 0,
        }
        assert state.status == "interrupted"
        assert state.settled_runs()[DIGESTS[0]]["payload"] == {"value": 1}
        begin = json.loads(log.path.read_text().splitlines()[0])
        assert begin["digests"] == sorted(DIGESTS)

    def test_begin_is_idempotent_across_resumes(self, tmp_path):
        first = make_log(tmp_path)
        settle(first, DIGESTS[0], payload={"value": 1})
        first.emit("sweep_end", status="interrupted")
        # A resume opens the same log again: its begin restarts the
        # session but leaves the sweep's identity and settles intact.
        resumed, prior = open_sweep_log(
            tmp_path, DIGESTS, ["sweep", "--jobs", "2"], jobs=1,
            obs_level="off",
        )
        assert resumed.path == first.path
        assert set(prior) == {DIGESTS[0]}
        state = load_sweep(resumed.path)
        assert (state.sweep_id, state.total, state.argv) == (
            first.sweep_id, 3, ["sweep", "--jobs", "2"]
        )
        assert state.status == "in-flight"
        assert set(state.settled_runs()) == {DIGESTS[0]}

    def test_missing_or_beginless_journal_loads_as_none(self, tmp_path):
        assert load_sweep(tmp_path / "nope.events.jsonl") is None
        orphan = tmp_path / "orphan.events.jsonl"
        orphan.write_text('{"event": "run_settled", "digest": "xx"}\n')
        assert load_sweep(orphan) is None


class TestCrashSafety:
    def test_torn_tail_is_skipped_everything_before_stands(self, tmp_path):
        log = make_log(tmp_path)
        settle(log, DIGESTS[0], payload={"value": 1})
        with log.path.open("a") as handle:
            handle.write('{"event": "run_settled", "digest": "d2d2d2d2d2d2')
        state = load_sweep(log.path)
        assert state is not None
        assert state.completed == 1  # the torn row never happened
        assert set(state.settled_runs()) == {DIGESTS[0]}

    def test_later_records_win(self, tmp_path):
        log = make_log(tmp_path)
        settle(log, DIGESTS[0], status="error", error="transient",
               attempts=2)
        settle(log, DIGESTS[0], payload={"value": 2})
        state = load_sweep(log.path)
        assert state.settled_runs()[DIGESTS[0]]["status"] == "ok"
        assert state.completed == 1


class TestSettlement:
    def test_transient_errors_stay_pending_poison_settles(self, tmp_path):
        log = make_log(tmp_path)
        settle(log, DIGESTS[0], payload={"value": 1}, label="ok-row")
        settle(log, DIGESTS[1], status="error", error="worker died",
               label="transient-row")
        settle(log, DIGESTS[2], status="error", error="bad config",
               poisoned=True, label="poison-row")
        state = load_sweep(log.path)
        settled = state.settled_runs()
        assert set(settled) == {DIGESTS[0], DIGESTS[2]}  # retry the transient
        counts = resume_counts(state)
        assert counts["poisoned"] == 1
        assert counts["pending"] == 1

    def test_settle_without_payload_is_not_reusable(self, tmp_path):
        """Logs written before settles carried payloads cannot answer
        a row: a resume re-runs it (or takes it from the cache)."""
        log = make_log(tmp_path)
        log.emit("run_settled", index=0, digest=DIGESTS[0], status="ok")
        assert load_sweep(log.path).settled_runs() == {}


class TestListing:
    def test_list_and_status_rows(self, tmp_path):
        log = make_log(tmp_path)
        settle(log, DIGESTS[0])
        log.emit("sweep_end", status="interrupted")
        other = make_log(tmp_path, digests=DIGESTS[:1], argv=["run"])
        settle(other, DIGESTS[0])
        other.emit("sweep_end", status="complete")
        (tmp_path / "legacy.jsonl").write_text('{"event": "begin"}\n')
        rows = sweep_status_rows(tmp_path)
        by_id = {row["sweep_id"]: row for row in rows}
        assert set(by_id) == {log.sweep_id, other.sweep_id}
        assert by_id[log.sweep_id]["status"] == "interrupted"
        assert by_id[log.sweep_id]["completed"] == 1
        assert by_id[log.sweep_id]["pending"] == 2
        assert by_id[other.sweep_id]["status"] == "complete"
        assert by_id[other.sweep_id]["command"] == "run"

    def test_find_journal_exact_prefix_and_errors(self, tmp_path):
        log = make_log(tmp_path)
        assert find_sweep(tmp_path, log.sweep_id) == log.path
        assert find_sweep(tmp_path, log.sweep_id[:6]) == log.path
        with pytest.raises(ConfigurationError):
            find_sweep(tmp_path, "zzzz")

    def test_find_journal_no_match_lists_known_sweeps(self, tmp_path):
        log = make_log(tmp_path)
        other = make_log(tmp_path, digests=DIGESTS[:1])
        with pytest.raises(ConfigurationError) as caught:
            find_sweep(tmp_path, "zzzz")
        message = str(caught.value)
        assert "known sweeps" in message
        assert log.sweep_id in message
        assert other.sweep_id in message

    def test_find_journal_no_match_empty_root(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no sweeps yet"):
            find_sweep(tmp_path, "zzzz")

    def test_find_journal_ambiguous_prefix_lists_candidates(self, tmp_path):
        # Sweep ids are content-derived, so force a shared prefix by
        # writing logs under chosen ids directly.
        for sweep_id in ("aaaa1111", "aaaa2222"):
            SweepEventBus(tmp_path, sweep_id).emit(
                "sweep_begin", sweep_id=sweep_id, total=1, argv=["t"]
            )
        with pytest.raises(ConfigurationError) as caught:
            find_sweep(tmp_path, "aaaa")
        message = str(caught.value)
        assert "ambiguous" in message
        assert "aaaa1111" in message and "aaaa2222" in message
        # A longer, unique prefix resolves.
        assert find_sweep(tmp_path, "aaaa1").name.startswith("aaaa1111")

    def test_unreadable_directory_is_empty(self, tmp_path):
        assert sweep_status_rows(tmp_path / "absent") == []
        with pytest.raises(ConfigurationError, match="no sweeps yet"):
            find_sweep(tmp_path / "absent", "zzzz")
