"""VDR admission against the scans it replaced.

``ClusterArray.free_holder`` is one min-index pass over the object's
copy set, and ``VirtualReplicationPolicy._admission_pass`` skips every
per-request lookup in an interval where no cluster is free.  The
oracles below are the earlier implementations — a sorted holder scan,
and a pass that looks up every queued request — and the tests check
both paths reach identical states over random cluster busy,
availability and copy states.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.tertiary import TertiaryDevice
from repro.media.catalog import Catalog
from repro.media.tape_layout import TapeLayout, TapeOrder
from repro.simulation.policy import Request
from repro.vdr.clusters import Cluster, ClusterArray
from repro.vdr.scheduler import VirtualReplicationPolicy
from tests.conftest import make_object


def sorted_free_holder(
    array: ClusterArray, object_id: int, interval: int
) -> Optional[Cluster]:
    """A free cluster holding the object, lowest index first."""
    for cluster in sorted(array.holders(object_id), key=lambda c: c.index):
        if cluster.is_free(interval):
            return cluster
    return None


def scan_admission_pass(policy, interval: int) -> None:
    """The admission pass with one sorted holder lookup per request."""
    waiting_after: Dict[int, int] = {}
    for request in policy._queue:
        waiting_after[request.object_id] = (
            waiting_after.get(request.object_id, 0) + 1
        )
    still_waiting: List[Request] = []
    for request in policy._queue:
        object_id = request.object_id
        cluster = sorted_free_holder(policy.clusters, object_id, interval)
        if cluster is None:
            if (
                policy.clusters.copy_count(object_id) == 0
                and object_id not in policy._mat_pending
            ):
                policy._queue_materialization(object_id)
            still_waiting.append(request)
            continue
        n = policy.catalog.get(object_id).num_subobjects
        cluster.occupy(interval, n, "display", object_id)
        policy.startup_latency.record(interval - request.issued_at)
        policy._push_event(
            interval + n - 1, "display", cluster.index, (request, interval)
        )
        waiting_after[object_id] -= 1
        policy._maybe_replicate(object_id, waiting_after[object_id], interval, n)
    policy._queue = still_waiting


NUM_CLUSTERS = 6
NUM_OBJECTS = 8


@st.composite
def vdr_states(draw):
    """Copies, per-cluster busy horizons and availability, a request
    queue, and the interval of the pass."""
    capacity = draw(st.integers(min_value=1, max_value=3))
    copies = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=NUM_OBJECTS - 1),
                max_size=capacity,
                unique=True,
            ),
            min_size=NUM_CLUSTERS,
            max_size=NUM_CLUSTERS,
        )
    )
    all_busy = draw(st.booleans())
    busy_until = draw(
        st.lists(
            st.integers(min_value=0, max_value=20),
            min_size=NUM_CLUSTERS,
            max_size=NUM_CLUSTERS,
        )
    )
    available = draw(
        st.lists(st.booleans(), min_size=NUM_CLUSTERS, max_size=NUM_CLUSTERS)
    )
    interval = draw(st.integers(min_value=0, max_value=20))
    if all_busy:
        busy_until = [max(b, interval + 1) for b in busy_until]
    queue = draw(
        st.lists(st.integers(min_value=0, max_value=NUM_OBJECTS - 1), max_size=25)
    )
    pending = draw(
        st.lists(st.integers(min_value=0, max_value=NUM_OBJECTS - 1), max_size=3)
    )
    threshold = draw(st.integers(min_value=1, max_value=3))
    return capacity, copies, busy_until, available, interval, queue, pending, threshold


def build(state):
    capacity, copies, busy_until, available, interval, queue, pending, threshold = state
    policy = VirtualReplicationPolicy(
        catalog=Catalog(
            [make_object(i, num_subobjects=4, degree=3)
             for i in range(NUM_OBJECTS)]
        ),
        clusters=ClusterArray(
            num_disks=3 * NUM_CLUSTERS, degree=3, capacity_objects=capacity
        ),
        device=TertiaryDevice(bandwidth=40.0, reposition_time=0.6),
        tape_layout=TapeLayout(TapeOrder.FRAGMENT_ORDERED),
        interval_length=0.6048,
        replication_threshold=threshold,
    )
    for index, held in enumerate(copies):
        for object_id in held:
            policy.clusters.add_copy(object_id, index)
    for object_id in pending:
        policy._queue_materialization(object_id)
    for request_id, object_id in enumerate(queue):
        policy.submit(
            Request(request_id=request_id, station_id=request_id,
                    object_id=object_id, issued_at=0),
            0,
        )
    for cluster, until, up in zip(policy.clusters.clusters, busy_until, available):
        if until > 0:
            cluster.occupy(0, until, "display", -1)
        cluster.available = up
    return policy, interval


def snapshot(policy):
    return {
        "queue": [r.request_id for r in policy._queue],
        "mat_queue": list(policy._mat_queue),
        "mat_pending": sorted(policy._mat_pending),
        "clusters": [
            (c.busy_until, c.activity, c.active_object, sorted(c.resident),
             c.available)
            for c in policy.clusters.clusters
        ],
        "copies": {k: sorted(v) for k, v in policy.clusters.copies.items()},
        "events": sorted(
            (t, seq, kind, index, repr(payload))
            for t, seq, kind, index, payload in policy._events
        ),
        "latency": (policy.startup_latency.count, policy.startup_latency.mean),
        "replicas": policy.replication.replicas_created,
    }


class TestFreeHolder:
    @given(vdr_states())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_sorted_scan(self, state):
        policy, interval = build(state)
        for object_id in range(NUM_OBJECTS):
            for t in (interval, interval + 5):
                assert policy.clusters.free_holder(object_id, t) is (
                    sorted_free_holder(policy.clusters, object_id, t)
                )


class TestAdmissionPass:
    @given(vdr_states())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_scan_pass(self, state):
        fast, interval = build(state)
        oracle, _ = build(state)
        assert snapshot(fast) == snapshot(oracle)
        fast._admission_pass(interval)
        scan_admission_pass(oracle, interval)
        assert snapshot(fast) == snapshot(oracle)

    def test_no_free_cluster_still_queues_materialisations(self):
        """The lookup-free path: every cluster busy, object 1 has no
        copy, object 2 is already pending — only object 1 is queued,
        once, and nothing is admitted."""
        state = (1, [[0], [3], [], [], [], []], [9] * NUM_CLUSTERS,
                 [True] * NUM_CLUSTERS, 4, [1, 0, 2, 1], [2], 1)
        fast, interval = build(state)
        fast._mat_queue.clear()
        fast._mat_pending = {2}
        fast._admission_pass(interval)
        assert list(fast._mat_queue) == [(1, False)]
        assert [r.request_id for r in fast._queue] == [0, 1, 2, 3]
