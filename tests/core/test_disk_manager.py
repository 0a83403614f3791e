"""Tests for the Disk Manager: placement, storage accounting, validation."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import AdmissionMode, Admitter
from repro.core.disk_manager import DiskManager
from repro.core.display import Display
from repro.errors import CapacityError, ConfigurationError, LayoutError
from repro.hardware.disk import TABLE3_DISK
from repro.hardware.disk_array import DiskArray
from tests.conftest import make_object
from tests.media.test_fragment_counts import walk_fragment_counts


@pytest.fixture
def manager():
    array = DiskArray(model=TABLE3_DISK, num_disks=10)
    return DiskManager(array=array, stride=1, fragment_cylinders=1)


class TestPlacement:
    def test_round_robin_start_disks(self, manager):
        a = make_object(0, num_subobjects=4, degree=2)
        b = make_object(1, num_subobjects=4, degree=2)
        assert manager.place_object(a) == 0
        assert manager.place_object(b) == 1

    def test_alignment_respected(self):
        array = DiskArray(model=TABLE3_DISK, num_disks=9)
        manager = DiskManager(array=array, stride=3, placement_alignment=3)
        starts = [
            manager.place_object(make_object(i, num_subobjects=3, degree=3))
            for i in range(4)
        ]
        assert starts == [0, 3, 6, 0]

    def test_storage_charged_per_disk(self, manager):
        obj = make_object(0, num_subobjects=10, degree=2)  # 20 fragments
        manager.place_object(obj, start_disk=0)
        assert sum(
            manager.array.used_cylinders(d) for d in range(10)
        ) == pytest.approx(20.0)

    def test_evict_reclaims_storage(self, manager):
        obj = make_object(0, num_subobjects=10, degree=2)
        manager.place_object(obj, start_disk=0)
        manager.evict_object(0)
        assert all(manager.array.used_cylinders(d) == 0.0 for d in range(10))
        assert not manager.is_placed(0)

    def test_evict_unplaced_raises(self, manager):
        with pytest.raises(LayoutError):
            manager.evict_object(42)

    def test_storage_report(self, manager):
        manager.place_object(make_object(0, num_subobjects=10, degree=1), 0)
        report = manager.storage_report()
        assert report["mean_cylinders"] == pytest.approx(1.0)

    def test_alignment_validation(self):
        array = DiskArray(model=TABLE3_DISK, num_disks=4)
        with pytest.raises(ConfigurationError):
            DiskManager(array=array, stride=1, placement_alignment=0)


@st.composite
def placement_runs(draw):
    """An array, a stride, a fragment size in cylinders, and objects
    with start drives (``None``: the manager's round robin)."""
    d = draw(st.integers(min_value=1, max_value=24))
    stride = draw(st.integers(min_value=1, max_value=d))
    cylinders = draw(st.integers(min_value=1, max_value=3))
    objects = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=30),  # subobjects
                st.integers(min_value=1, max_value=d),  # degree
                st.one_of(st.none(), st.integers(min_value=0, max_value=2 * d)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    order = draw(st.permutations(range(len(objects))))
    return d, stride, cylinders, objects, order


class TestStorageConservation:
    @given(placement_runs())
    @settings(max_examples=150, deadline=None)
    def test_evicting_everything_returns_every_drive_to_zero(self, run):
        d, stride, cylinders, objects, order = run
        array = DiskArray(model=TABLE3_DISK, num_disks=d)
        manager = DiskManager(
            array=array, stride=stride, fragment_cylinders=cylinders
        )
        expected = [0] * d
        for object_id, (n, m, start) in enumerate(objects):
            manager.place_object(
                make_object(object_id, num_subobjects=n, degree=m), start
            )
            walked = walk_fragment_counts(manager.layout, object_id)
            expected = [e + w * cylinders for e, w in zip(expected, walked)]
        assert manager.used_cylinder_profile() == expected
        for object_id in order:
            manager.evict_object(object_id)
        assert manager.used_cylinder_profile() == [0.0] * d


class TestFailedPlaceIsRolledBack:
    def test_overflow_leaves_the_object_unplaced_and_the_drives_empty(self):
        """A place that overflows a drive part-way through charging is
        undone: nothing stays placed or charged, so a later evict
        cannot underflow and a place that fits still succeeds."""
        model = dataclasses.replace(TABLE3_DISK, num_cylinders=4)
        manager = DiskManager(
            array=DiskArray(model=model, num_disks=4), stride=1
        )
        # M = 1 from drive 1: drive 1 needs 5 cylinders, drive 0
        # (charged first, in drive order) 4.
        too_big = make_object(0, num_subobjects=17, degree=1)
        with pytest.raises(CapacityError):
            manager.place_object(too_big, start_disk=1)
        assert not manager.is_placed(0)
        assert manager.used_cylinder_profile() == [0, 0, 0, 0]
        with pytest.raises(LayoutError):
            manager.evict_object(0)
        fits = make_object(1, num_subobjects=16, degree=1)
        assert manager.place_object(fits) == 0
        assert manager.used_cylinder_profile() == [4, 4, 4, 4]


class TestValidationMode:
    def test_replays_display_reads_cleanly(self, manager):
        obj = make_object(0, num_subobjects=6, degree=3)
        manager.place_object(obj, start_disk=0)
        display = Display(display_id=1, obj=obj, start_disk=0, requested_at=0)
        admitter = Admitter(manager.pool, AdmissionMode.FRAGMENTED)
        assert admitter.try_claim(display, 0).complete
        for interval in range(6):
            manager.validate_interval([display], interval)

    def test_detects_layout_mismatch(self, manager):
        obj = make_object(0, num_subobjects=6, degree=2)
        manager.place_object(obj, start_disk=0)
        display = Display(display_id=1, obj=obj, start_disk=0, requested_at=0)
        admitter = Admitter(manager.pool, AdmissionMode.FRAGMENTED)
        admitter.try_claim(display, 0)
        # Corrupt a lane: point it at the wrong virtual disk.
        display.lanes[0].slot = (display.lanes[0].slot + 3) % 10
        with pytest.raises(LayoutError):
            manager.validate_interval([display], 0)

    def test_two_aligned_displays_never_collide(self, manager):
        a = make_object(0, num_subobjects=8, degree=3)
        b = make_object(1, num_subobjects=8, degree=3)
        manager.place_object(a, start_disk=0)
        manager.place_object(b, start_disk=5)
        admitter = Admitter(manager.pool, AdmissionMode.FRAGMENTED)
        da = Display(display_id=1, obj=a, start_disk=0, requested_at=0)
        db = Display(display_id=2, obj=b, start_disk=5, requested_at=0)
        assert admitter.try_claim(da, 0).complete
        assert admitter.try_claim(db, 0).complete
        for interval in range(8):
            manager.validate_interval([da, db], interval)
