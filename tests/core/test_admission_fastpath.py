"""The admission fast paths must be invisible: the indexed admitter
(denial-replay cache, bucket fast-rejects, inlined probes) and a
brute-force scan admitter (the oracle below) fed identical operation
sequences must produce identical claims, plans, and ownership."""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import AdmissionMode, Admitter
from repro.core.display import Display
from repro.core.virtual_disks import HALVES_PER_SLOT, SlotPool
from tests.conftest import make_object


class ScanAdmitter:
    """Oracle: admission by linear scans over a plain ownership map.

    Every probe re-sums the owners of the slot it asks about — no
    index, no buckets, no denial cache — so it states the admission
    rule (§3.2.1: a lane claims the virtual disk over its target drive
    now; CONTIGUOUS claims the whole window or nothing) directly.
    """

    def __init__(self, num_disks: int, stride: int, mode: AdmissionMode):
        self.num_disks = num_disks
        self.stride = stride
        self.mode = mode
        self.owners: Dict[int, Dict[Hashable, int]] = {}
        self.lanes_claimed = 0
        self.completed = 0

    def free_halves(self, slot: int) -> int:
        return HALVES_PER_SLOT - sum(self.owners.get(slot, {}).values())

    def owners_of(self, slot: int) -> Dict[Hashable, int]:
        return dict(self.owners.get(slot, {}))

    def try_claim(self, display: Display, interval: int) -> Tuple[List[int], bool]:
        """``(slots claimed now, fully laned)`` for one probe."""
        if display.fully_laned:
            self.completed += 1
            return [], True
        d = self.num_disks
        offset = self.stride * interval % d
        wanted = [
            (lane, (display.start_disk + lane.fragment - offset) % d, h)
            for lane, h in zip(display.lanes, display.lane_halves())
            if lane.slot is None
        ]
        fits = [self.free_halves(slot) >= h for _, slot, h in wanted]
        if self.mode is AdmissionMode.CONTIGUOUS and not all(fits):
            return [], False
        claimed = []
        for (lane, slot, h), ok in zip(wanted, fits):
            if ok:
                holders = self.owners.setdefault(slot, {})
                holders[display.display_id] = (
                    holders.get(display.display_id, 0) + h
                )
                lane.slot = slot
                lane.ready = interval
                claimed.append(slot)
        self.lanes_claimed += len(claimed)
        complete = len(claimed) == len(wanted)
        if complete:
            self.completed += 1
        return claimed, complete

    def abort(self, display: Display) -> int:
        touched = 0
        for slot in list(self.owners):
            holders = self.owners[slot]
            if holders.pop(display.display_id, None) is not None:
                touched += 1
                if not holders:
                    del self.owners[slot]
        return touched


scenarios = st.fixed_dictionaries(
    {
        "num_disks": st.integers(min_value=4, max_value=16),
        "stride": st.integers(min_value=1, max_value=4),
        "mode": st.sampled_from(list(AdmissionMode)),
        "degrees": st.lists(
            st.integers(min_value=1, max_value=4), min_size=1, max_size=6
        ),
        # (display index, interval delta, abort?) events
        "events": st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=3),
                st.booleans(),
            ),
            min_size=1,
            max_size=30,
        ),
    }
)


def _displays(params) -> List[Display]:
    return [
        Display(
            display_id=i,
            obj=make_object(i, degree=min(d, params["num_disks"])),
            start_disk=(3 * i) % params["num_disks"],
            requested_at=0,
        )
        for i, d in enumerate(params["degrees"])
    ]


def _build(params):
    pool = SlotPool(num_disks=params["num_disks"], stride=params["stride"])
    admitter = Admitter(pool, mode=params["mode"])
    oracle = ScanAdmitter(params["num_disks"], params["stride"], params["mode"])
    return pool, admitter, oracle


def _lane_state(display):
    return [(lane.slot, lane.ready) for lane in display.lanes]


@given(scenarios)
@settings(max_examples=150, deadline=None)
def test_indexed_and_legacy_admission_are_identical(params):
    """The indexed admitter and the scan oracle agree on every plan,
    every lane, every slot's owners, and the lane/complete tallies."""
    pool, admitter, oracle = _build(params)
    displays = _displays(params)
    twins = _displays(params)
    interval = 0
    for which, delta, abort in params["events"]:
        interval += delta
        i = which % len(displays)
        if abort:
            assert admitter.abort(displays[i]) == oracle.abort(twins[i])
            # An aborted display is replaced by a fresh request in the
            # real scheduler; model that with new display objects.
            fresh = [
                Display(
                    display_id=100 + interval * 10 + i,
                    obj=displays[i].obj,
                    start_disk=displays[i].start_disk,
                    requested_at=interval,
                )
                for _ in range(2)
            ]
            displays[i], twins[i] = fresh
            continue
        plan = admitter.try_claim(displays[i], interval)
        claimed, complete = oracle.try_claim(twins[i], interval)
        assert plan.claimed_now == claimed
        assert plan.complete == complete
        assert _lane_state(displays[i]) == _lane_state(twins[i])
        # Full pool equivalence after every step.
        for z in range(params["num_disks"]):
            assert pool.owners_of(z) == oracle.owners_of(z)
    assert admitter._n_lanes == oracle.lanes_claimed
    assert admitter._n_complete == oracle.completed


@given(scenarios)
@settings(max_examples=60, deadline=None)
def test_denial_replay_never_outlives_a_pool_change(params):
    """Whenever a probe is denied via the replay cache, a brute-force
    re-probe by the scan oracle (same state) must also deny — i.e. the
    cache can never replay a stale verdict after the pool moved."""
    if params["mode"] is not AdmissionMode.CONTIGUOUS:
        return
    _pool, admitter, oracle = _build(params)
    displays = _displays(params)
    twins = _displays(params)
    interval = 0
    for which, delta, abort in params["events"]:
        interval += delta
        i = which % len(displays)
        if abort:
            admitter.abort(displays[i])
            oracle.abort(twins[i])
            continue
        plan = admitter.try_claim(displays[i], interval)
        claimed, complete = oracle.try_claim(twins[i], interval)
        assert plan.complete == complete
        assert plan.claimed_now == claimed
