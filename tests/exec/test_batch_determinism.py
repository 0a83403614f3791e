"""Executor determinism with the batched admission pass.

The batched admission pass must be invisible to the executor contract:
``--jobs 1``, ``--jobs 4``, and a warm-cache pass over the same sweep
produce byte-identical rows, and those rows are byte-identical to an
execution of the same specs whose policies run the scalar pass — under
``--sanitize strict`` with faults armed, so every invariant sweep
(including the batch index's own) runs on every interval.  Scalar
executions run in-process (``jobs=1``), where :func:`scalar_admission`
switches every policy the runner builds.
"""

from __future__ import annotations

import contextlib
import os

import pytest

from repro.core.scheduler import StaggeredStripingPolicy
from repro.exec import ResultCache, canonical_json, execute, experiment_spec
from repro.simulation.config import ScaledConfig

PARALLEL_JOBS = int(os.environ.get("REPRO_EXEC_JOBS", "4"))


@contextlib.contextmanager
def scalar_admission():
    """While active, every striping policy built admits through the
    scalar pass; yields the list of policies switched."""
    built = []
    init = StaggeredStripingPolicy.__init__

    def scalar_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.use_scalar_admission()
        built.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StaggeredStripingPolicy, "__init__", scalar_init)
        yield built


def sweep_specs():
    """Staggered (FRAGMENTED) and simple (CONTIGUOUS) admission, with
    mirrored-redundancy faults armed and strict sanitization."""
    base = ScaledConfig(scale=50).with_(access_mean=0.2, sanitize="strict")
    return [
        experiment_spec(base.with_(**point))
        for point in (
            {"technique": "staggered", "num_stations": 8,
             "mttf": 60.0, "mttr": 8.0, "redundancy": "mirror"},
            {"technique": "staggered", "num_stations": 16},
            {"technique": "simple", "num_stations": 8,
             "mttf": 40.0, "mttr": 6.0, "redundancy": "none",
             "on_fault": "abort"},
        )
    ]


def rows_bytes(records) -> str:
    assert all(record.ok for record in records)
    return canonical_json([record.payload for record in records])


class TestBatchedExecutorDeterminism:
    def test_serial_parallel_and_cache_identical(self, tmp_path):
        specs = sweep_specs()
        serial = rows_bytes(execute(specs, jobs=1))
        parallel = rows_bytes(execute(specs, jobs=PARALLEL_JOBS))
        assert parallel == serial

        cache = ResultCache(tmp_path / "cache")
        cold = rows_bytes(execute(specs, jobs=PARALLEL_JOBS, cache=cache))
        warm_records = execute(specs, jobs=PARALLEL_JOBS, cache=cache)
        assert cold == serial
        assert rows_bytes(warm_records) == serial
        assert all(record.cached for record in warm_records)

    def test_batched_rows_equal_scalar_rows(self):
        """The whole-sweep cross-check: running every policy through
        the scalar pass must not move a single byte."""
        specs = sweep_specs()
        batched = rows_bytes(execute(specs, jobs=PARALLEL_JOBS))
        with scalar_admission() as built:
            scalar = rows_bytes(execute(specs, jobs=1))
        assert len(built) == len(specs)
        assert batched == scalar

    def test_warm_cache_hits_across_kernel_modes(self, tmp_path):
        """The admission pass is not part of the spec digest — it cannot
        change results, so scalar-produced cache entries must satisfy
        batched runs."""
        specs = sweep_specs()
        cache = ResultCache(tmp_path / "cache")
        with scalar_admission() as built:
            scalar = rows_bytes(execute(specs, jobs=1, cache=cache))
        assert len(built) == len(specs)
        warm = execute(specs, jobs=1, cache=cache)
        assert all(record.cached for record in warm)
        assert rows_bytes(warm) == scalar
