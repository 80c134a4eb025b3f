"""CSV helpers for topology files and report emission.

SCALE-Sim's native interchange format is CSV: workload topologies come in
as CSV and every report goes out as CSV.  These helpers keep quoting and
header handling in one place.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.errors import ReportError, TopologyError


def read_csv_rows(path: str | Path) -> list[list[str]]:
    """Read a CSV file into a list of stripped string rows.

    Blank lines and lines whose first cell starts with ``#`` are skipped,
    matching how SCALE-Sim tolerates comments in topology files.
    """
    path = Path(path)
    if not path.exists():
        raise TopologyError(f"CSV file not found: {path}")
    with path.open(newline="") as handle:
        return parse_csv_rows(handle)


def parse_csv_rows(lines: Iterable[str]) -> list[list[str]]:
    """:func:`read_csv_rows` over lines already in memory."""
    rows: list[list[str]] = []
    try:
        for raw in csv.reader(lines):
            cells = [cell.strip() for cell in raw]
            if not cells or all(not cell for cell in cells):
                continue
            if cells[0].startswith("#"):
                continue
            rows.append(cells)
    except csv.Error as exc:
        raise TopologyError(f"malformed CSV: {exc}") from exc
    return rows


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> Path:
    """Write ``rows`` under ``header`` to ``path``, creating parents."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(header))
        for row in rows:
            if len(row) != len(header):
                raise ReportError(
                    f"row width {len(row)} does not match header width "
                    f"{len(header)} while writing {path}"
                )
            writer.writerow(list(row))
    return path
