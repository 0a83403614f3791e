"""The candidate admission walk against the scalar reference pass.

``StaggeredStripingPolicy``'s production pass visits only the queue
entries that can act: displays whose claim verdict is True, and ready
display-less entries (object resident) that fit the claim budget.  The
scalar pass walks the whole queue and is the reference.  Each property
here builds the same system twice, switches the second to the scalar
pass (``use_scalar_admission``), and requires identical output, with
the sanitizer recounting the maintained candidate state (queue keys,
display map, ready and waiting sets, deferred placements) after every
interval.

* Whole runs (``build_engine``) over random small configs: both
  admission modes, every walking discipline, tertiary misses with
  deferred placements, open-workload deadline cancels, fault aborts;
  ``result.to_dict()`` must be byte-identical.
* Hand-driven policies for what no config reaches: half-slot objects,
  mixed degrees (several ready lists merged by key), ``reposition``
  and ``requeue_front``; every interval's completions, active
  displays and queue order, and the final stats, must be equal.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.core.admission import AdmissionMode  # noqa: E402
from repro.core.disk_manager import DiskManager  # noqa: E402
from repro.core.object_manager import ObjectManager  # noqa: E402
from repro.core.scheduler import StaggeredStripingPolicy  # noqa: E402
from repro.core.tertiary_manager import TertiaryManager  # noqa: E402
from repro.faults.coordinator import FaultCoordinator  # noqa: E402
from repro.faults.injector import FaultInjector  # noqa: E402
from repro.hardware.disk import TABLE3_DISK  # noqa: E402
from repro.hardware.disk_array import DiskArray  # noqa: E402
from repro.hardware.tertiary import TertiaryDevice  # noqa: E402
from repro.media.catalog import Catalog  # noqa: E402
from repro.media.tape_layout import TapeLayout, TapeOrder  # noqa: E402
from repro.sim import sanitize  # noqa: E402
from repro.sim.rng import RandomStream  # noqa: E402
from repro.simulation.config import ScaledConfig  # noqa: E402
from repro.simulation.policy import Request  # noqa: E402
from repro.simulation.runner import build_engine  # noqa: E402
from tests.conftest import make_object  # noqa: E402

DISCIPLINES = ("scan", "sjf", "largest_first")


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------
@st.composite
def run_configs(draw):
    scale = draw(st.sampled_from([50, 100]))
    overrides = {
        "technique": draw(st.sampled_from(["staggered", "simple"])),
        "queue_discipline": draw(st.sampled_from(DISCIPLINES)),
        "num_stations": draw(st.integers(min_value=1, max_value=24)),
        "access_mean": draw(st.sampled_from([None, 0.2, 1.0])),
        # No warm start and a small disk: misses queue on tertiary,
        # and with every resident title pinned make_room fails, so
        # placements are deferred.
        "preload": draw(st.booleans()),
        "fill_factor": draw(st.sampled_from([0.5, 0.75, 1.0])),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "warmup_intervals": 60,
        "measure_intervals": draw(st.integers(min_value=60, max_value=300)),
        "sanitize": "strict",
    }
    if draw(st.booleans()):
        overrides.update(
            arrival="poisson",
            arrival_rate=draw(st.sampled_from([0.05, 0.2, 0.5])),
            deadline_intervals=draw(st.integers(min_value=0, max_value=30)),
        )
    if draw(st.booleans()):
        overrides.update(
            mttf=draw(st.sampled_from([30.0, 60.0])),
            mttr=draw(st.sampled_from([5.0, 10.0])),
            redundancy=draw(st.sampled_from(["none", "mirror"])),
            on_fault=draw(st.sampled_from(["abort", "hiccup"])),
        )
    return ScaledConfig(scale=scale).with_(**overrides)


def run_blob(config, scalar: bool) -> str:
    sanitizer = sanitize.build_sanitizer("strict")
    with sanitize.activation(sanitizer):
        engine = build_engine(config, sanitizer=sanitizer)
        if scalar:
            engine.policy.use_scalar_admission()
        result = engine.run(
            warmup_intervals=config.warmup_intervals,
            measure_intervals=config.measure_intervals,
        )
    return json.dumps(result.to_dict(), sort_keys=True)


@given(config=run_configs())
@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_candidate_walk_matches_the_scalar_pass_on_whole_runs(config):
    assert run_blob(config, scalar=False) == run_blob(config, scalar=True)


# ----------------------------------------------------------------------
# Hand-driven policies
# ----------------------------------------------------------------------
#: (bandwidth mbps, degree) at a 20 mbps drive: 10 and 30 mbps take
#: half slots (1 and 3 halves); 20 and 60 mbps whole ones.
SHAPES = [(10.0, 1), (20.0, 1), (30.0, 2), (60.0, 3)]
NUM_OBJECTS = 6


@st.composite
def scenarios(draw):
    shapes = draw(
        st.lists(st.sampled_from(SHAPES), min_size=NUM_OBJECTS,
                 max_size=NUM_OBJECTS)
    )
    horizon = draw(st.integers(min_value=20, max_value=80))
    # Per interval: titles requested, then a cancel / reposition pick.
    steps = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, NUM_OBJECTS - 1), max_size=3),
                st.integers(min_value=-1, max_value=4),  # cancel pick
                st.integers(min_value=-1, max_value=3),  # reposition pick
                st.integers(min_value=0, max_value=7),  # target subobject
            ),
            min_size=horizon, max_size=horizon,
        )
    )
    return {
        "shapes": shapes,
        "num_disks": draw(st.integers(min_value=4, max_value=9)),
        "stride": draw(st.integers(min_value=1, max_value=3)),
        "mode": draw(st.sampled_from(list(AdmissionMode))),
        "discipline": draw(st.sampled_from(DISCIPLINES)),
        "capacity_objects": draw(st.integers(min_value=1, max_value=4)),
        "preload": draw(st.integers(min_value=0, max_value=2)),
        "fail_at": draw(
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(1, horizon)),
                max_size=2,
            )
        ),
        "steps": steps,
    }


def build_policy(scenario):
    objects = [
        make_object(i, bandwidth=bandwidth, num_subobjects=8, degree=degree)
        for i, (bandwidth, degree) in enumerate(scenario["shapes"])
    ]
    catalog = Catalog(objects)
    disk_manager = DiskManager(
        array=DiskArray(model=TABLE3_DISK, num_disks=scenario["num_disks"]),
        stride=scenario["stride"],
    )
    largest = max(obj.size for obj in objects)
    policy = StaggeredStripingPolicy(
        catalog=catalog,
        disk_manager=disk_manager,
        object_manager=ObjectManager(
            catalog, capacity=scenario["capacity_objects"] * largest
        ),
        tertiary_manager=TertiaryManager(
            device=TertiaryDevice(bandwidth=40.0, reposition_time=0.6),
            tape_layout=TapeLayout(TapeOrder.FRAGMENT_ORDERED),
            interval_length=0.6048,
            disk_bandwidth=20.0,
        ),
        admission_mode=scenario["mode"],
        queue_discipline=scenario["discipline"],
        half_slot_objects=True,
        disk_bandwidth=20.0,
    )
    policy.preload(
        list(range(min(scenario["preload"], scenario["capacity_objects"])))
    )
    if scenario["fail_at"]:
        injector = FaultInjector(
            scenario["num_disks"], RandomStream(7),
            mttr=6.0, fail_at=scenario["fail_at"],
        )
        policy.attach_faults(
            FaultCoordinator(policy, injector, on_fault="abort")
        )
    return policy


def drive(scenario, scalar: bool):
    policy = build_policy(scenario)
    if scalar:
        policy.use_scalar_admission()
    # Tallying, not raising: a reposition to an object's last subobject
    # makes a display that activates and completes in one interval, and
    # the event_time check misreads its due lane release as stale (in
    # either pass).  Every other check must stay silent.
    sanitizer = sanitize.build_sanitizer("check")
    trace = []
    next_id = 0
    for interval, (titles, cancel, jump, target) in enumerate(
        scenario["steps"]
    ):
        for object_id in titles:
            next_id += 1
            policy.submit(
                Request(next_id, next_id, object_id, interval), interval
            )
        queued = [entry.request for entry in policy._queue.values()]
        if 0 <= cancel < len(queued):
            policy.try_cancel(queued[cancel], interval)
        active = sorted(policy._active)
        if 0 <= jump < len(active):
            display = policy._active[active[jump]]
            policy.reposition(
                display.display_id,
                min(target, display.obj.num_subobjects - 1),
                interval,
            )
        completions = policy.advance(interval)
        sanitizer.check_interval(policy, interval)
        trace.append((
            interval,
            [(c.request.request_id, c.deliver_start, c.finished_at)
             for c in completions],
            [(d.display_id, d.deliver_start) for d in
             sorted(policy._active.values(), key=lambda d: d.display_id)],
            [entry.request.request_id for entry in policy._queue.values()],
        ))
    assert set(sanitizer.counts) <= {"event_time"}, sanitizer.counts
    return trace, policy.stats(), sanitizer.counts


@given(scenario=scenarios())
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_candidate_walk_matches_the_scalar_pass_when_driven(scenario):
    assert drive(scenario, scalar=False) == drive(scenario, scalar=True)


@pytest.mark.parametrize("scalar", [False, True])
def test_a_ready_entry_whose_degree_equals_the_budget_starts(scalar):
    """The claim budget admits a display-less entry whose degree fits
    it exactly: with 3 of 6 virtual disks free and nothing reserved,
    a degree-3 request starts claiming the interval it arrives."""
    scenario = {
        "shapes": [(60.0, 3)] * NUM_OBJECTS, "num_disks": 6, "stride": 1,
        "mode": AdmissionMode.FRAGMENTED, "discipline": "scan",
        "capacity_objects": 2, "preload": 2, "fail_at": [],
    }
    policy = build_policy(scenario)
    if scalar:
        policy.use_scalar_admission()
    policy.submit(Request(1, 1, 0, 0), 0)
    policy.advance(0)
    assert policy.disk_manager.pool.free_count == 3
    policy.submit(Request(2, 2, 1, 1), 1)
    assert policy._claim_budget() == 3
    policy.advance(1)
    started = [
        display.display_id for display in policy._active.values()
    ] + list(policy._by_display)
    assert len(started) == 2
