"""Sweep-log merge under concurrent settlers.

The cluster master and a local executor can flush into the same sweep
log (same cache root, same sweep id) at the same time — as can
multiple HTTP handler threads pushing agent results.  Each append is a
single ``os.write`` on an ``O_APPEND`` descriptor under an exclusive
lock, so rows from concurrent writers must never tear or interleave,
and folding the log must dedup by digest with the last record winning.
A settler that reopens the log compacts its heartbeats in place; a
concurrent settler's appends must survive that rewrite.
"""

from __future__ import annotations

import json
import multiprocessing
import threading

from repro.exec.sweeplog import load_sweep
from repro.obs.events import SweepEventBus


def _payload(writer: int, row: int):
    # Big enough to span several pipe/page buffers if appends were
    # buffered per-character rather than atomic per-line.
    return {"writer": writer, "row": row, "filler": "x" * 4096}


def _settle(bus, digest, label, status="ok", payload=None, attempts=1,
            error=None):
    bus.emit(
        "run_settled", index=0, digest=digest, kind="test", label=label,
        status=status, payload=payload if payload is not None else {},
        error=error, duration_s=0.0, attempts=attempts, poisoned=False,
    )


def _settle_rows(root, sweep_id, writer, count):
    bus = SweepEventBus(root, sweep_id)
    for row in range(count):
        _settle(bus, f"digest-{writer}-{row}", f"w{writer}-r{row}",
                payload=_payload(writer, row))
    bus.close()


def _begin(root, sweep_id, digests):
    bus = SweepEventBus(root, sweep_id)
    bus.emit("sweep_begin", sweep_id=sweep_id, total=len(digests),
             digests=sorted(digests), argv=["t"])
    bus.close()
    return bus.path


def _context():
    return multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )


def _settles(path):
    return [
        record for record in map(json.loads, path.read_text().splitlines())
        if record["event"] == "run_settled"
    ]


class TestConcurrentSettlers:
    def test_threaded_writers_no_torn_or_lost_rows(self, tmp_path):
        writers, rows = 8, 25
        path = _begin(
            tmp_path, "threads",
            [f"digest-{w}-{r}" for w in range(writers) for r in range(rows)],
        )
        threads = [
            threading.Thread(
                target=_settle_rows, args=(tmp_path, "threads", w, rows)
            )
            for w in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Every line parses (no torn rows) and every row arrived once.
        runs = _settles(path)
        assert len(runs) == writers * rows
        digests = [r["digest"] for r in runs]
        assert len(set(digests)) == writers * rows  # no duplicates
        for record in runs:
            w, r = record["payload"]["writer"], record["payload"]["row"]
            assert record["digest"] == f"digest-{w}-{r}"
            assert record["payload"]["filler"] == "x" * 4096

        state = load_sweep(path)
        assert state is not None
        assert len(state.settled_runs()) == writers * rows
        assert state.completed == writers * rows

    def test_process_writers_no_torn_or_lost_rows(self, tmp_path):
        writers, rows = 4, 15
        path = _begin(
            tmp_path, "procs",
            [f"digest-{w}-{r}" for w in range(writers) for r in range(rows)],
        )
        processes = [
            _context().Process(
                target=_settle_rows, args=(tmp_path, "procs", w, rows)
            )
            for w in range(writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0

        runs = _settles(path)
        assert len(runs) == writers * rows
        assert len({r["digest"] for r in runs}) == writers * rows
        assert load_sweep(path).completed == writers * rows

    def test_replay_dedups_by_digest_last_record_wins(self, tmp_path):
        path = _begin(tmp_path, "dedup", ["d1"])
        bus = SweepEventBus(tmp_path, "dedup")
        _settle(bus, "d1", "first", status="error", error="transient")
        _settle(bus, "d1", "second", payload={"answer": 42}, attempts=2)
        bus.close()
        state = load_sweep(path)
        assert len(state.runs) == 1
        row = state.runs["d1"]
        assert row["status"] == "ok" and row["attempts"] == 2
        assert state.settled_runs()["d1"]["payload"] == {"answer": 42}

    def test_compacting_settler_loses_no_settles(self, tmp_path):
        """One settler keeps its log open and interleaves heartbeats
        with settles; the other reopens the log for every row, which
        compacts those heartbeats by rewriting the file.  Neither may
        lose a ``run_settled``."""
        rows = 40
        path = _begin(tmp_path, "compact", [])
        steady = _context().Process(
            target=_steady_settler, args=(tmp_path, "compact", rows)
        )
        reopening = _context().Process(
            target=_reopening_settler, args=(tmp_path, "compact", rows)
        )
        for process in (steady, reopening):
            process.start()
        for process in (steady, reopening):
            process.join(timeout=60)
            assert process.exitcode == 0

        digests = [record["digest"] for record in _settles(path)]
        expected = {f"{side}-{row}" for side in "ab" for row in range(rows)}
        assert sorted(digests) == sorted(expected)  # each exactly once
        assert set(load_sweep(path).settled_runs()) == expected


def _steady_settler(root, sweep_id, rows):
    bus = SweepEventBus(root, sweep_id)
    for row in range(rows):
        bus.emit("heartbeat", workers={"0": row})
        bus.emit("heartbeat", workers={"0": row})
        _settle(bus, f"a-{row}", f"a{row}", payload=_payload(0, row))
    bus.close()


def _reopening_settler(root, sweep_id, rows):
    for row in range(rows):
        bus = SweepEventBus(root, sweep_id)  # first emit compacts
        _settle(bus, f"b-{row}", f"b{row}", payload=_payload(1, row))
        bus.close()
