"""One repetition of one workload, in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N --traced 0|1 --work DIR
        [--budget S]
    python3 perfbench/rep.py --workload NAME --seed N --work DIR --setup-only

A fresh process per repetition makes every repetition pay what one
``repro run --no-cache`` (or one ``repro figure8`` into an empty cache)
pays: imports are warm, the catalog memo and the result cache are
cold, and ``ru_maxrss`` is this repetition's own peak.  Prints one JSON
line: host times, peak memory, the simulated summary digest, the
output-check findings and, when traced, the per-layer figures.

An untraced repetition times itself with a :class:`laps.LapClock`.
With ``--budget`` it stops at the first lap end past that many seconds
and reports only the laps it ran (``"partial": true``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from laps import LOOP, SETUP, Deadline, LapClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, check_run, digest_rows, sim_stats  # noqa: E402


def run_single(workload, seed, timed):
    from repro.simulation import runner

    config = workload.config(seed)
    with timed("bench.run"):
        result = runner.run_experiment(config)
        rows = [result.summary()]
    return [config], rows, 0, {}


def run_sweep(workload, seed, timed, work: Path):
    from repro.exec import ResultCache, execute, experiment_spec

    configs = workload.sweep_configs(seed)
    cache_dir = work / f"sweep-cache-{os.getpid()}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    try:
        with timed("bench.sweep"):
            records = execute(
                [experiment_spec(config) for config in configs],
                jobs=1,
                cache=ResultCache(cache_dir),
            )
            rows = [record.result().summary() for record in records if record.ok]
        return configs, rows, sum(not r.ok for r in records), sweep_files(cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def span_timer(tracer: Tracer):
    """Time the workload as the traced root span."""

    @contextlib.contextmanager
    def timed(name):
        root = tracer.open(tracer.name_id(name))
        yield
        tracer.close(root)

    return timed


def lap_timer(clock: LapClock):
    """Time the workload as the laps of ``clock``; the last lap ends
    when the workload does."""

    @contextlib.contextmanager
    def timed(name):
        clock.start()
        yield
        clock.mark()

    return timed


def sweep_files(cache_dir: Path) -> dict:
    """What the sweep left on disk: record counts and bytes."""
    journal_records = event_records = size = 0
    for path in cache_dir.rglob("*"):
        if not path.is_file():
            continue
        size += path.stat().st_size
        if path.name.endswith(".events.jsonl"):
            event_records += count_records(path, "run_settled")
        elif path.suffix == ".jsonl":
            journal_records += count_records(path, "run")
    return {
        "exec.journal.records": journal_records,
        "exec.events.records": event_records,
        "exec.bytes_written": size,
    }


def count_records(path: Path, event: str) -> int:
    count = 0
    with path.open() as handle:
        for line in handle:
            if line.strip() and json.loads(line).get("event") == event:
                count += 1
    return count


def setup_only(workload, seed) -> dict:
    """The setup laps of one cold engine build of a single-run workload."""
    from repro.simulation import runner

    config = workload.config(seed)
    clock = LapClock(step_marks=False)
    clock.install()
    try:
        clock.start()
        runner.build_engine(config)
    finally:
        clock.uninstall()
    return {"setup_s": clock.total(SETUP), **clock.report(SETUP)}


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, math.ceil(round(fraction * len(ordered), 9)) - 1)
    return ordered[rank]


def layer_metrics(tracer: Tracer, wall: float, files: dict) -> dict:
    """Per-layer figures of a traced repetition."""
    table = tracer.totals()

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    free_holder, admitted = tracer.counts.get("vdr.free_holder", [0, 0])
    steps = tracer.durations("engine.step")
    runs = total("runner.run_experiment")
    root = "bench.sweep" if "bench.sweep" in table else "bench.run"
    unattributed = table[root]["self_s"]
    layers = {
        "runner.catalog_s": total("runner.catalog"),
        "runner.policy_s": total("runner.policy"),
        "runner.preload_s": total("runner.preload"),
        "runner.arrivals_s": total("runner.arrivals"),
        "layout.fragment_counts.calls": calls("layout.fragment_counts"),
        "layout.fragment_counts_s": total("layout.fragment_counts"),
        "layout.fragment_counts.loop_s": tracer.total_under(
            "layout.fragment_counts", "engine.loop"
        ),
        "disk_manager.place.calls": calls("disk_manager.place"),
        "disk_manager.place_s": total("disk_manager.place"),
        "disk_manager.evict.calls": calls("disk_manager.evict"),
        "disk_manager.evict_s": total("disk_manager.evict"),
        "engine.loop_s": total("engine.loop"),
        "engine.step_p50_us": percentile(steps, 0.50) * 1e6,
        "engine.step_p99_us": percentile(steps, 0.99) * 1e6,
        "engine.steps": len(steps),
        "scheduler.submit_s": total("scheduler.submit"),
        "scheduler.advance_s": total("scheduler.advance"),
        "scheduler.advance.calls": calls("scheduler.advance"),
        "tertiary.request.calls": calls("tertiary.request"),
        "tertiary.advance_s": total("tertiary.advance"),
        "object_manager.make_room.calls": calls("object_manager.make_room"),
        "vdr.submit_s": total("vdr.submit"),
        "vdr.advance_s": total("vdr.advance"),
        "vdr.free_holder.calls": free_holder,
        "vdr.admit_ratio": admitted / free_holder if free_holder else 0.0,
        "workload.ready_s": total("workload.ready"),
        "workload.complete_s": total("workload.complete"),
        "workload.requests": tracer.requests,
        "exec.overhead_s": wall - runs if root == "bench.sweep" else 0.0,
        "exec.cache.puts": calls("exec.cache.put"),
        "exec.cache.put_s": total("exec.cache.put"),
        "exec.journal.records": 0,
        "exec.events.records": 0,
        "exec.bytes_written": 0,
        "trace.unattributed_s": unattributed,
        "trace.unattributed_frac": unattributed / wall,
    }
    layers.update(files)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="only build the engine (single-run workloads) and report its time",
    )
    parser.add_argument(
        "--budget", type=float, default=None,
        help="untraced: stop at the first lap end past this many seconds "
        "and report the laps so far",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        print(json.dumps(setup_only(workload, args.seed)))
        return 0

    if args.traced:
        tracer = Tracer()
        timed, hooks = span_timer(tracer), tracer
    else:
        deadline = None if args.budget is None else started + args.budget
        clock = LapClock(step_marks=workload.kind == "single", deadline=deadline)
        timed, hooks = lap_timer(clock), clock
    hooks.install()
    try:
        if workload.kind == "single":
            configs, rows, failed, files = run_single(workload, args.seed, timed)
        else:
            configs, rows, failed, files = run_sweep(
                workload, args.seed, timed, args.work
            )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    except Deadline:
        print(json.dumps({
            "workload": workload.name, "seed": args.seed, "traced": False,
            "partial": True, **clock.report(),
        }))
        return 0
    finally:
        hooks.uninstall()

    if args.traced:
        table = tracer.totals()
        wall = table["bench.sweep" if workload.kind == "sweep" else "bench.run"]["total_s"]
        setup = table["runner.build_engine"]["total_s"]
        loop = table["engine.loop"]["total_s"]
    else:
        wall, setup, loop = clock.total(), clock.total(SETUP), clock.total(LOOP)
    problems = []
    if failed:
        problems.append(f"{failed} runs raised")
    else:
        for config, row in zip(configs, rows):
            found = check_run(config, row)
            failed += bool(found)
            problems.extend(found)
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "run_seeds": workload.run_seeds(args.seed),
        "traced": bool(args.traced),
        "partial": False,
        "wall_s": wall,
        "setup_s": setup,
        "loop_s": loop,
        "intervals": sum(
            c.warmup_intervals + c.measure_intervals for c in configs
        ),
        "peak_rss_mb": peak_rss_mb,
        "runs": len(configs),
        "failed": failed,
        "problems": problems[:5],
        "digest": digest_rows(rows),
        "sim": sim_stats(rows) if rows else {},
    }
    if not args.traced:
        out.update(clock.report())
    else:
        out["layers"] = layer_metrics(tracer, wall, files)
        out["self_s"] = {name: row["self_s"] for name, row in table.items()}
        trace_path = args.work / f"trace-{workload.name}.spans.gz"
        tracer.write(trace_path)
        out["trace_file"] = str(trace_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
