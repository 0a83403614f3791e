"""The bench harness: seeded, warmup+repeat, median-of-N, paired.

Every case runs twice — a **fast** mode through the batched admission
pass and a **reference** mode through the scalar pass — and must
produce byte-identical result digests in both modes and across every
repetition: a speedup claim is only meaningful if the optimisation is
provably behaviour-preserving.

Each repetition rebuilds its workload from scratch (setup time is not
measured).  The case's ``prepare`` hands back the policies it built,
and the harness switches each one to the scalar pass
(:meth:`~repro.core.scheduler.StaggeredStripingPolicy.
use_scalar_admission`) for the reference mode, so both modes run
policies built the same way and nothing outside the case changes.
Timings are wall-clock medians over ``repeats`` runs after ``warmup``
discarded runs.
"""

from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Bench JSON schema identifier; bump on incompatible layout changes.
#: ``repro-bench/3`` dropped the pair axis (one pairing remains:
#: batched vs scalar admission pass); ``repro-bench/2`` had renamed the
#: per-case rows ``indexed``/``legacy`` to ``fast``/``reference``.
SCHEMA = "repro-bench/3"


class BenchError(ReproError):
    """A benchmark failed: nondeterministic results, divergent
    fast/reference outputs, malformed bench JSON, or a regression
    beyond tolerance."""


@dataclass
class BenchCase:
    """One benchmark case.

    ``prepare`` does the untimed setup (engine build) and returns the
    timed thunk plus the policies it built; the thunk returns a
    JSON-able payload that must be identical across modes and
    repetitions (it is digested, not stored).
    """

    name: str
    prepare: Callable[[], Tuple[Callable[[], Any], Sequence[Any]]]
    params: Dict[str, Any] = field(default_factory=dict)


def _digest(payload: Any) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _run_mode(
    case: BenchCase, fast: bool, warmup: int, repeats: int
) -> Dict[str, Any]:
    """Run one case in one mode; returns times + the result digest."""
    times: List[float] = []
    digest: Optional[str] = None
    for i in range(warmup + repeats):
        thunk, policies = case.prepare()
        if not fast:
            for policy in policies:
                policy.use_scalar_admission()
        t0 = perf_counter()
        payload = thunk()
        elapsed = perf_counter() - t0
        d = _digest(payload)
        if digest is None:
            digest = d
        elif d != digest:
            raise BenchError(
                f"case {case.name!r} is nondeterministic in "
                f"{'fast' if fast else 'reference'} mode: repetition {i} "
                f"digest {d[:12]} != {digest[:12]}"
            )
        if i >= warmup:
            times.append(elapsed)
    return {
        "median_s": round(median(times), 6),
        "times_s": [round(t, 6) for t in times],
        "digest": digest,
    }


def run_suite(
    suite: str,
    cases: List[BenchCase],
    *,
    quick: bool = False,
    warmup: int = 1,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Run every case fast and reference; returns the bench document."""
    rows: List[Dict[str, Any]] = []
    for case in cases:
        fast = _run_mode(case, True, warmup, repeats)
        reference = _run_mode(case, False, warmup, repeats)
        identical = fast["digest"] == reference["digest"]
        if not identical:
            raise BenchError(
                f"case {case.name!r}: fast and reference runs diverged "
                f"({fast['digest'][:12]} != {reference['digest'][:12]}) — "
                f"the batched admission pass changed simulation output"
            )
        speedup = (
            reference["median_s"] / fast["median_s"]
            if fast["median_s"] > 0
            else float("inf")
        )
        rows.append(
            {
                "name": case.name,
                "params": case.params,
                "fast": fast,
                "reference": reference,
                "speedup": round(speedup, 3),
                "byte_identical": identical,
            }
        )
    return {
        "schema": SCHEMA,
        "suite": suite,
        "quick": quick,
        "warmup": warmup,
        "repeats": repeats,
        "python": platform.python_version(),
        "cases": rows,
    }


def validate_document(doc: Any) -> None:
    """Raise :class:`BenchError` unless ``doc`` is a well-formed bench
    document (used both by the CLI baseline check and by CI)."""
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise BenchError(
            f"malformed bench JSON: expected schema {SCHEMA!r}, got "
            f"{doc.get('schema') if isinstance(doc, dict) else type(doc).__name__!r}"
        )
    cases = doc.get("cases")
    if not isinstance(cases, list) or not cases:
        raise BenchError("malformed bench JSON: no cases")
    for row in cases:
        for key in ("name", "fast", "reference", "speedup", "byte_identical"):
            if key not in row:
                raise BenchError(
                    f"malformed bench JSON: case missing {key!r}: {row!r}"
                )
        if not row["byte_identical"]:
            raise BenchError(
                f"bench case {row['name']!r} recorded non-identical "
                f"fast/reference outputs"
            )


def check_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.25,
) -> List[str]:
    """Compare speedup *ratios* against a committed baseline.

    Absolute wall times are machine-dependent, so CI would flake on
    them; the fast/reference ratio is measured on one machine in one
    run and is stable.  Returns human-readable failure strings for
    every case whose speedup fell more than ``tolerance`` (fractional)
    below the baseline's.
    """
    validate_document(current)
    validate_document(baseline)
    failures: List[str] = []
    baseline_by_name = {row["name"]: row for row in baseline["cases"]}
    for row in current["cases"]:
        base = baseline_by_name.get(row["name"])
        if base is None:
            continue
        floor = base["speedup"] * (1.0 - tolerance)
        if row["speedup"] < floor:
            failures.append(
                f"{row['name']}: speedup {row['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base['speedup']:.2f}x - "
                f"{tolerance:.0%} tolerance)"
            )
    return failures


def format_report(doc: Dict[str, Any]) -> str:
    """Human-readable table of one bench document."""
    lines = [
        f"suite={doc['suite']} quick={doc['quick']} "
        f"warmup={doc['warmup']} repeats={doc['repeats']}",
        f"{'case':<34} {'batched':>10} {'scalar':>10} {'speedup':>8}",
    ]
    for row in doc["cases"]:
        lines.append(
            f"{row['name']:<34} "
            f"{row['fast']['median_s']:>9.4f}s "
            f"{row['reference']['median_s']:>9.4f}s "
            f"{row['speedup']:>7.2f}x"
        )
    return "\n".join(lines)
