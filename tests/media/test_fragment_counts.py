"""The closed-form per-drive fragment counts against a brute-force walk.

:func:`repro.media.layout.drive_fragment_counts` derives an object's
load per drive from subobject start drives alone (a difference array
and one prefix sum).  The oracle here is the walk it replaced: bind
every fragment ``X_{i.j}`` to its drive through
:meth:`StripingLayout.disk_of` and count, one fragment at a time.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.skew import disks_used_by_object, skew_profile
from repro.errors import ConfigurationError
from repro.media.layout import StripingLayout, drive_fragment_counts
from tests.conftest import make_object


def walk_fragment_counts(layout: StripingLayout, object_id: int) -> List[int]:
    """Fragments per drive, by visiting every fragment of the object."""
    counts = [0] * layout.num_disks
    for address in layout.object(object_id).fragments():
        counts[layout.disk_of(address)] += 1
    return counts


def walk_skew_profile(
    num_disks: int, stride: int, num_subobjects: int, degree: int
) -> Dict[str, float]:
    """``skew_profile`` computed from the brute-force walk."""
    layout = StripingLayout(num_disks=num_disks, stride=stride)
    layout.place(make_object(0, num_subobjects=num_subobjects, degree=degree), 0)
    touched = [c for c in walk_fragment_counts(layout, 0) if c > 0]
    mean = sum(touched) / len(touched)
    return {
        "min": float(min(touched)),
        "max": float(max(touched)),
        "mean": mean,
        "relative_skew": (max(touched) - min(touched)) / mean if mean else 0.0,
        "disks_used": float(len(touched)),
    }


@st.composite
def layouts(draw):
    """``(D, k, M, n, start)`` with ``1 <= k <= D``, ``1 <= M <= D`` and
    a start drive that may exceed ``D``; the edge cases ``k > M``,
    ``M = D`` and ``k = D`` are drawn often."""
    d = draw(st.integers(min_value=1, max_value=48))
    k = draw(st.one_of(st.just(d), st.integers(min_value=1, max_value=d)))
    m = draw(st.one_of(st.just(d), st.integers(min_value=1, max_value=d)))
    n = draw(st.integers(min_value=1, max_value=120))
    start = draw(st.integers(min_value=0, max_value=3 * d))
    return d, k, m, n, start


def placed(d, k, m, n, start, object_id=0):
    layout = StripingLayout(num_disks=d, stride=k)
    layout.place(make_object(object_id, num_subobjects=n, degree=m), start)
    return layout


class TestAgainstTheWalk:
    @given(layouts())
    @settings(max_examples=400, deadline=None)
    def test_fragment_counts(self, params):
        d, k, m, n, start = params
        layout = placed(d, k, m, n, start)
        counts = layout.fragment_counts(0)
        assert counts.dtype == np.int64
        assert counts.tolist() == walk_fragment_counts(layout, 0)
        assert counts.tolist() == drive_fragment_counts(d, k, n, m, start).tolist()

    @given(layouts(), layouts())
    @settings(max_examples=150, deadline=None)
    def test_total_fragment_counts(self, first, second):
        d, k, m, n, start = first
        _d, _k, m2, n2, start2 = second
        m2 = min(m2, d)
        layout = placed(d, k, m, n, start)
        layout.place(make_object(1, num_subobjects=n2, degree=m2), start2)
        expected = [
            a + b
            for a, b in zip(
                walk_fragment_counts(layout, 0), walk_fragment_counts(layout, 1)
            )
        ]
        assert layout.total_fragment_counts().tolist() == expected

    @given(layouts())
    @settings(max_examples=300, deadline=None)
    def test_disks_used(self, params):
        d, k, m, n, start = params
        layout = placed(d, k, m, n, start)
        walked = sum(1 for c in walk_fragment_counts(layout, 0) if c > 0)
        assert layout.disks_used(0) == walked
        assert disks_used_by_object(d, k, n, m) == walked

    @given(layouts())
    @settings(max_examples=300, deadline=None)
    def test_skew(self, params):
        d, k, m, n, start = params
        layout = placed(d, k, m, n, start)
        touched = [c for c in walk_fragment_counts(layout, 0) if c > 0]
        mean = sum(touched) / len(touched)
        assert layout.skew(0) == (max(touched) - min(touched)) / mean

    @given(layouts())
    @settings(max_examples=300, deadline=None)
    def test_skew_profile(self, params):
        d, k, m, n, _start = params
        profile = skew_profile(d, k, n, m)
        assert profile == walk_skew_profile(d, k, n, m)
        assert all(type(value) is float for value in profile.values())

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_strides_past_the_degree_skip_drives(self, m, gap, n, slack, start):
        """``k > M`` leaves ``k - M`` drives between subobjects, so an
        object that does not wrap touches ``n·M`` drives, fewer than
        its span ``(n-1)·k + M``."""
        k = m + gap
        d = (n - 1) * k + m + 1 + slack
        layout = placed(d, k, m, n, start)
        assert layout.disks_used(0) == n * m < (n - 1) * k + m
        assert disks_used_by_object(d, k, n, m) == n * m


class TestEdges:
    def test_start_disk_wraps(self):
        assert drive_fragment_counts(5, 1, 1, 3, start_disk=9).tolist() == [
            1, 1, 0, 0, 1,
        ]

    def test_degree_equal_to_d_covers_every_drive_once_per_subobject(self):
        assert drive_fragment_counts(4, 3, 7, 4, start_disk=2).tolist() == [7] * 4

    def test_stride_equal_to_d_pins_one_cluster(self):
        assert drive_fragment_counts(6, 6, 5, 2, start_disk=5).tolist() == [
            5, 0, 0, 0, 0, 5,
        ]

    @pytest.mark.parametrize("degree", [0, 7])
    def test_degree_outside_the_array_is_rejected(self, degree):
        with pytest.raises(ConfigurationError):
            drive_fragment_counts(6, 1, 3, degree)
