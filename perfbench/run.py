"""End-to-end benchmark of the simulator, in host time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (it needs ``src/repro``).
Each repetition runs in a fresh process (``perfbench/rep.py``), one at
a time.  ``--trace 0`` repeats the workload untraced for about
``--seconds`` (at least once; the time left after the last whole
repetition goes to one more, cut at the deadline) and reports the
end-to-end metrics; ``--trace 1`` makes one untraced and one traced
repetition and reports the per-layer metrics of the traced one.

The time metrics add up per-lap minima over the repetitions
(``laps.best_laps``): each untraced repetition is cut into short laps
at fixed program events, and each lap counts at its fastest.
``peak_rss_mb`` is the median over whole repetitions.

Every repetition's simulated summary rows are digested.  All
repetitions at one seed must give the same digest, within this
invocation and across invocations on the same source tree (recorded
under ``.perfbench-work/``); every run must also pass the bounds of
``workloads.check_run``.  Any failure makes ``correct`` false.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (simulation runs) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

from laps import LOOP, SETUP, best_laps, structure_problems  # noqa: E402
from workloads import HELD_OUT_SEED, WORKLOADS  # noqa: E402

#: Every repetition, and so the whole invocation, ends well inside the
#: 180 s a run may take.
REP_TIMEOUT_S = 170.0

#: A setup this cheap (VDR's, ~15 ms) is sampled again in setup-only
#: processes, each as cold as a repetition's, until there are this many
#: samples: one sample of ~15 ms swings too much to compare.
CHEAP_SETUP_S = 1.0
SETUP_SAMPLES = 5

#: The repetition cut at the deadline is worth starting only with this
#: much of ``--seconds`` left.
MIN_PARTIAL_S = 2.0


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for
    ``kind`` (``end_to_end`` or ``per_layer``)."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


def source_digest() -> str:
    """Identity of the simulator source, keying recorded digests."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def child_env() -> dict:
    """The caller's environment without ``REPRO_*`` switches, so every
    repetition runs the program's defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def repetition(
    workload: str, seed: int, traced: bool, timeout: float, setup_only=False,
    budget=None,
) -> dict:
    """Run one repetition in a fresh process; its JSON report, or a
    report with ``error`` set."""
    start = time.perf_counter()
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed),
        "--traced", str(int(traced)), "--work", str(WORK),
    ] + (["--setup-only"] if setup_only else []) + (
        ["--budget", str(budget)] if budget is not None else []
    )
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        report = {"error": f"repetition timed out after {timeout:.0f} s"}
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            if proc.returncode or not lines:
                raise ValueError
            report = json.loads(lines[-1])
        except ValueError:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            report = {"error": f"exit {proc.returncode}: {tail[0]}"}
    report["elapsed_s"] = time.perf_counter() - start
    return report


def check_digests(workload: str, seed: int, reports: list) -> list:
    """Problems with the repetitions' digests: they must agree with
    each other and with any digest recorded for this source tree."""
    digests = {r["digest"] for r in reports if "digest" in r}
    problems = []
    if len(digests) > 1:
        problems.append(f"repetitions at seed {seed} disagree: {sorted(digests)}")
    if not digests:
        return problems
    ledger_path = WORK / "digests.json"
    try:
        ledger = json.loads(ledger_path.read_text())
    except (OSError, ValueError):
        ledger = {}
    key = f"{source_digest()}:{workload}:{seed}"
    recorded = ledger.setdefault(key, sorted(digests)[0])
    if digests != {recorded}:
        problems.append(f"digest differs from an earlier run at seed {seed}: {recorded}")
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = ledger_path.with_name(ledger_path.name + ".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(ledger_path)
    return problems


def end_to_end(full: list, partial: list, setups: list) -> dict:
    """End-to-end metrics from the laps of whole (``full``), cut
    (``partial``) and setup-only (``setups``) repetitions."""
    best = best_laps(full + partial + setups)
    return {
        "wall_s": sum(best.values()),
        "setup_s": best[SETUP],
        "intervals_per_s": full[0]["intervals"] / best[LOOP],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
    }


def per_layer(traced: dict, untraced: dict, failed_frac: float) -> dict:
    metrics = dict(traced["layers"])
    metrics.update({f"sim.{k}": v for k, v in traced["sim"].items()})
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    metrics["bench.failed_frac"] = failed_frac
    return metrics


def environment_line() -> str:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return (
        f"env python={platform.python_version()} numpy={numpy_version} "
        f"nproc={os.cpu_count()} held_out_seed={HELD_OUT_SEED}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the
    # repetition in flight instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    started = time.perf_counter()

    def remaining() -> float:
        return REP_TIMEOUT_S - (time.perf_counter() - started)

    single = WORKLOADS[args.workload].kind == "single"
    reports, partial, setups = [], [], []
    if args.trace:
        reports.append(repetition(args.workload, args.seed, False, remaining()))
        reports.append(repetition(args.workload, args.seed, True, remaining()))
    else:
        while True:
            reports.append(repetition(args.workload, args.seed, False, remaining()))
            elapsed = time.perf_counter() - started
            longest = max(r["elapsed_s"] for r in reports)
            if "error" in reports[-1] or elapsed + longest > args.seconds:
                break
        left = args.seconds - elapsed
        if "error" not in reports[-1] and left >= MIN_PARTIAL_S:
            last = repetition(
                args.workload, args.seed, False, remaining(), budget=left
            )
            (partial if last.get("partial") else reports).append(last)
    full = [r for r in reports if "error" not in r and not r["traced"]]
    while (
        not args.trace
        and single
        and full
        and len(full) + len(setups) < SETUP_SAMPLES
        and statistics.median(r["setup_s"] for r in full + setups) < CHEAP_SETUP_S
    ):
        extra = repetition(args.workload, args.seed, False, remaining(), True)
        if "error" in extra:
            reports.append(extra)
            break
        setups.append(extra)

    good = [r for r in reports if "error" not in r]
    runs = WORKLOADS[args.workload].runs
    attempted = sum(r.get("runs", runs) for r in reports)
    failed = sum(r["failed"] if "error" not in r else runs for r in reports)
    problems = [r["error"] for r in reports if "error" in r]
    problems += [p for r in good for p in r["problems"]]
    problems += structure_problems(full, partial + setups)
    digest_problems = check_digests(args.workload, args.seed, good)
    if digest_problems:
        problems += digest_problems
        failed = attempted
    for problem in problems:
        print(f"check failed: {problem}")
    if not full or (args.trace and len(good) < 2):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1

    print(environment_line())
    for r in good:
        print(
            f"rep workload={r['workload']} seed={r['seed']} "
            f"run_seeds={','.join(map(str, r['run_seeds']))} "
            f"traced={int(r['traced'])} wall_s={r['wall_s']:.4f} "
            f"digest={r['digest']}"
        )
    failed_frac = failed / attempted
    if args.trace:
        traced = next(r for r in good if r["traced"])
        metrics = per_layer(traced, full[0], failed_frac)
        units = declared_units("per_layer")
    else:
        metrics = end_to_end(full, partial, setups)
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not "
              f"match BENCHMARK.json", file=sys.stderr)
        return 1

    if args.trace:
        wall = traced["wall_s"]
        print(f"trace file: {traced['trace_file']}")
        print(f"self time by span (traced wall_s {wall:.3f} s):")
        for name, seconds in sorted(traced["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:<28} {seconds:9.3f} s  {seconds / wall:6.1%}")
        print(
            f"unattributed (wall outside every layer span): "
            f"{metrics['trace.unattributed_s']:.3f} s "
            f"({metrics['trace.unattributed_frac']:.2%} of wall_s)"
        )
    else:
        samples = (
            f"per-lap minima over {len(full)} whole, {len(partial)} cut and "
            f"{len(setups)} setup-only repetitions"
        )
        for name, value in metrics.items():
            how = f"median of {len(full)}" if name == "peak_rss_mb" else samples
            print(f"{name} = {value:.6g} {units[name]} ({how})")
    print(f"failed_frac = {failed_frac:.4g} ({failed} of {attempted} runs)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
