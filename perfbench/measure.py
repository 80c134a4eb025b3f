"""Pure helpers the benchmark's metrics depend on.

Everything here is free of the simulator and of process handling, so
the self-tests can drive it with fake data: order statistics, the
percentile-admissibility rule, per-point output digests and the
failure accounting that turns child-process outcomes into
``attempted`` / ``failed``.
"""

from __future__ import annotations

import hashlib
import math

#: Percentiles the benchmark may report, lowest first.
CANDIDATE_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only when at least this many samples lie
#: beyond it, so a single outlier cannot be the whole tail.
MIN_SAMPLES_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``p``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def admissible_percentile(count: int) -> float | None:
    """Highest candidate percentile with ``MIN_SAMPLES_BEYOND`` samples past it.

    With ``count`` samples, ``count * (1 - p/100)`` of them lie beyond
    the ``p``-th percentile; ``None`` means not even the median has
    enough behind it.
    """
    best = None
    for p in CANDIDATE_PERCENTILES:
        if count * (1.0 - p / 100.0) >= MIN_SAMPLES_BEYOND - 1e-9:
            best = p
    return best


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def point_digests(files: list[bytes]) -> tuple[str, dict[str, str]]:
    """Split report CSVs into a header digest and one digest per point.

    Every report the benchmark checks keys its rows by ``PointID`` in
    the first column; a point's digest covers its rows in every file,
    in file order, so a changed layout row fails exactly the point it
    belongs to.
    """
    headers = []
    rows: dict[str, list[bytes]] = {}
    for data in files:
        lines = data.splitlines(keepends=True)
        if not lines:
            headers.append(b"")
            continue
        headers.append(lines[0])
        for line in lines[1:]:
            rows.setdefault(line.split(b",", 1)[0].decode(), []).append(line)
    return sha256(b"".join(headers)), {
        key: sha256(b"".join(lines)) for key, lines in rows.items()
    }


def mismatched(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    """Expected keys whose digest is missing from or differs in ``actual``.

    Keys present only in ``actual`` count too: an output nobody asked
    for is as wrong as a missing one.
    """
    bad = [key for key, digest in expected.items() if actual.get(key) != digest]
    bad += [key for key in actual if key not in expected]
    return bad


def tally(reps: list[dict | None], ops_per_rep: int) -> tuple[int, int]:
    """``(attempted, failed)`` over a run's repetitions.

    A repetition that crashed, timed out or printed no result (``None``)
    counts every operation it should have done as attempted and failed.
    """
    attempted = failed = 0
    for rep in reps:
        if rep is None:
            attempted += ops_per_rep
            failed += ops_per_rep
        else:
            attempted += rep["attempted"]
            failed += rep["failed"]
    return attempted, failed


def failed_frac(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0
