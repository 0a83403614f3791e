"""Parsers for the pinned full-scale experiment transcripts.

``figure8_full_output.txt`` and ``table4_tertiary_output.txt`` are the
checked-in paper-scale runs.  These parsers turn them into the same
row-dict shape the experiment code produces, so the golden fixtures
can pin both the historical transcripts and fresh scaled runs.
"""

from __future__ import annotations

import re
from typing import Dict, List

_SECTION = re.compile(r"^--- Figure 8: .* \(mean (?P<mean>[\d.]+)\) ---$")


def parse_figure8_output(text: str) -> List[Dict]:
    """Rows from a Figure 8 transcript, in ``figure8_rows()`` shape."""
    rows: List[Dict] = []
    mean = None
    for line in text.splitlines():
        line = line.rstrip()
        match = _SECTION.match(line)
        if match:
            mean = float(match.group("mean"))
            continue
        if mean is None or not line:
            continue
        fields = line.split()
        if fields[0] in ("technique", "---------"):
            continue
        if len(fields) != 6 or not fields[1].isdigit():
            # The transcript may carry trailing non-Figure-8 sections.
            mean = None
            continue
        technique, stations, dph, hit, util, latency = fields
        rows.append(
            {
                "mean": mean,
                "technique": technique,
                "stations": int(stations),
                "displays_per_hour": float(dph),
                "hit_rate": float(hit),
                "tertiary_util": float(util),
                "latency_s": float(latency),
            }
        )
    return rows


def at_transcript_precision(rows: List[Dict]) -> List[Dict]:
    """Rows as a transcript prints them: every float cut to the two
    decimals of ``format_table``'s cells, so live ``figure8_rows()``
    (which carry three for ``hit_rate`` and ``tertiary_util``) compare
    equal to a parsed transcript."""
    return [
        {
            key: float(f"{value:.2f}") if isinstance(value, float) else value
            for key, value in row.items()
        }
        for row in rows
    ]


def parse_table4_output(text: str) -> List[Dict]:
    """Rows from a Table 4 transcript, in ``run_table4()`` shape."""
    rows: List[Dict] = []
    columns: List[str] = []
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "stations" and len(fields) > 1:
            columns = fields
            continue
        if not columns or fields[0].startswith("-"):
            continue
        if len(fields) != len(columns):
            continue
        row: Dict = {"stations": int(fields[0])}
        for name, value in zip(columns[1:], fields[1:]):
            row[name] = float(value)
        rows.append(row)
    return rows
