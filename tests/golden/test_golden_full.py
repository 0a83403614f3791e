"""Pin the paper-scale transcripts as golden JSON fixtures.

``figure8_full_output.txt`` and ``table4_tertiary_output.txt`` are the
checked-in full-scale (scale 1) runs; the fixtures pin the parsed
transcripts.  If either transcript is regenerated, refresh with
``pytest --update-goldens``.

The tier-1 suite only parses the transcripts.  The live check runs in
CI's ``figure8-full-scale`` job: ``repro figure8 --scale 1 --jobs 2
--no-cache`` (about 15 s on two cores), whose rows, cut to the
transcript's printed precision by :func:`at_transcript_precision`,
must equal ``data/figure8_full.json``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tests.golden.parsers import (
    at_transcript_precision,
    parse_figure8_output,
    parse_table4_output,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
FIGURE8_TXT = REPO_ROOT / "figure8_full_output.txt"
TABLE4_TXT = REPO_ROOT / "table4_tertiary_output.txt"


def _require(path: Path) -> str:
    if not path.exists():
        pytest.skip(f"{path.name} not present")
    return path.read_text()


def test_figure8_full_scale_golden(golden):
    rows = parse_figure8_output(_require(FIGURE8_TXT))
    # 3 access-skew curves x 2 techniques x 9 station counts.
    assert len(rows) == 54
    golden("figure8_full", rows)


def test_table4_full_scale_golden(golden):
    rows = parse_table4_output(_require(TABLE4_TXT))
    assert [row["stations"] for row in rows] == [16, 64, 128, 256]
    golden("table4_full", rows)


def test_figure8_parser_shape():
    """The parser emits exactly the figure8_rows() schema."""
    rows = parse_figure8_output(_require(FIGURE8_TXT))
    assert set(rows[0]) == {
        "mean", "technique", "stations", "displays_per_hour",
        "hit_rate", "tertiary_util", "latency_s",
    }
    assert {row["technique"] for row in rows} == {"simple", "vdr"}
    assert sorted({row["mean"] for row in rows}) == [10.0, 20.0, 43.5]


def test_transcript_precision_matches_the_printed_cells():
    """Live rows carry three decimals for the ratios; the transcript
    prints two, so the live comparison cuts them the same way."""
    rows = parse_figure8_output(_require(FIGURE8_TXT))
    assert at_transcript_precision(rows) == rows
    live = {"mean": 43.5, "technique": "vdr", "stations": 256,
            "displays_per_hour": 187.5, "hit_rate": 0.957,
            "tertiary_util": 0.8, "latency_s": 3194.4}
    assert at_transcript_precision([live]) == [
        {**live, "hit_rate": 0.96}
    ]
