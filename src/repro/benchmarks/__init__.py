"""Microbenchmark suites for the simulation hot path.

``repro bench`` (see :mod:`repro.cli`) runs one of three seeded suites
— ``core`` (the per-interval simulation loop at paper scale),
``sweep`` (a small grid of end-to-end runs), ``batched`` (the batched
kernel beyond paper scale, up to D = 10,000).  Every case runs once
through the batched admission pass and once through the scalar pass;
the harness checks the two produce byte-identical results and reports
median-of-N timings plus the batched/scalar speedup as JSON (schema
``repro-bench/3``).  The committed ``BENCH_sim_hotpath*.json`` (core)
and ``BENCH_sim_batched*.json`` (batched) are this output;
``docs/performance.md`` records the reproduction commands and CI
guards the speedups against regression.
"""

from repro.benchmarks.harness import (
    SCHEMA,
    BenchCase,
    BenchError,
    check_regression,
    format_report,
    run_suite,
    validate_document,
)
from repro.benchmarks.suites import SUITES, suite_cases

__all__ = [
    "SCHEMA",
    "BenchCase",
    "BenchError",
    "SUITES",
    "check_regression",
    "format_report",
    "run_suite",
    "suite_cases",
    "validate_document",
]
