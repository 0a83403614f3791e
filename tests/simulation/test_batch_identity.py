"""End-to-end byte-identity of the batched admission pass.

The acceptance bar for the batched kernel (lane-table admission
verdicts): running the same configuration through the batched pass
and through the scalar pass — on policies built the same way, the
second switched with ``use_scalar_admission`` — must produce
**byte-identical** serialized results across admission modes, queue
disciplines, fault scenarios and open-workload deadline cancellations,
with the configured sanitizer (``strict``) sweeping every interval.
"""

from __future__ import annotations

import json

import pytest

from repro.sim import sanitize
from repro.simulation.config import ScaledConfig
from repro.simulation.runner import build_engine, effective_sanitize_mode


def run_blob(config, batched: bool) -> str:
    sanitizer = sanitize.build_sanitizer(effective_sanitize_mode(config))
    with sanitize.activation(sanitizer):
        engine = build_engine(config, sanitizer=sanitizer)
        if not batched:
            engine.policy.use_scalar_admission()
        result = engine.run(
            warmup_intervals=config.warmup_intervals,
            measure_intervals=config.measure_intervals,
        )
    return json.dumps(result.to_dict(), sort_keys=True)


CASES = {
    "staggered_fragmented": ScaledConfig(scale=100).with_(
        technique="staggered", num_stations=8, sanitize="strict"
    ),
    "simple_contiguous": ScaledConfig(scale=100).with_(
        technique="simple", num_stations=8, sanitize="strict"
    ),
    "staggered_sjf": ScaledConfig(scale=50).with_(
        technique="staggered", num_stations=12, queue_discipline="sjf",
        sanitize="strict",
    ),
    "staggered_largest_first": ScaledConfig(scale=50).with_(
        technique="staggered", num_stations=12,
        queue_discipline="largest_first", sanitize="strict",
    ),
    "fcfs_head_of_line": ScaledConfig(scale=50).with_(
        technique="staggered", num_stations=12, queue_discipline="fcfs",
        sanitize="strict",
    ),
    "faulted_mirror": ScaledConfig(scale=50).with_(
        technique="staggered", num_stations=8, mttf=60.0, mttr=8.0,
        redundancy="mirror", sanitize="strict",
    ),
    "faulted_abort": ScaledConfig(scale=50).with_(
        technique="staggered", num_stations=8, mttf=40.0, mttr=6.0,
        redundancy="none", on_fault="abort", sanitize="strict",
    ),
    # Deadline cancellations mutate the queue outside the admission
    # pass (try_cancel -> _cancel_display), forcing the batched pass to
    # rebuild its maintained lists.
    "open_deadline_cancel": ScaledConfig(scale=50).with_(
        technique="staggered", arrival="poisson", arrival_rate=0.2,
        deadline_intervals=5, access_mean=0.2, sanitize="strict",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_run_is_byte_identical_to_scalar(name):
    config = CASES[name]
    assert run_blob(config, True) == run_blob(config, False)


def test_open_case_cancels_queued_displays():
    """The cancellation case is only a cancellation test if queued
    entries that already carry a display (and so sit in the batched
    pass's maintained lists) are cancelled."""
    config = CASES["open_deadline_cancel"]
    engine = build_engine(config)
    policy = engine.policy
    cancelled = []
    cancel = policy._cancel_display
    policy._cancel_display = lambda display: (
        cancelled.append(display.display_id), cancel(display)
    )
    result = engine.run(config.warmup_intervals, config.measure_intervals)
    assert result.to_dict()["blocked"] > 0
    assert cancelled


def test_kernel_switch_on_builds_batch_state():
    engine = build_engine(CASES["staggered_fragmented"])
    assert engine.policy._batch_index is not None


def test_kernel_switch_off_disables_batch_state():
    engine = build_engine(CASES["staggered_fragmented"])
    engine.policy.use_scalar_admission()
    assert engine.policy._batch_index is None
    assert "_admission_pass" not in vars(engine.policy)
