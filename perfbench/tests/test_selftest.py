"""Sub-second self-tests of the pieces the benchmark's metrics depend on.

They use fake workloads (hand-made spans, reports and repetition
results), never the simulator, so they run inside the tier-1 suite.
"""

from __future__ import annotations

import json
from collections import namedtuple
from pathlib import Path

import pytest

from perfbench.measure import (
    admissible_percentile,
    failed_frac,
    mismatched,
    percentile,
    point_digests,
    sha256,
    tally,
)
from perfbench.run import END_TO_END, calibrated
from perfbench.tracing import Tracer, layer_metrics, unit_of
from perfbench.workloads import REFERENCE_CALIBRATION_S, check_service, check_sweep

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_span_minus_covered_children() -> None:
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(seconds: float) -> str:
        clock.now += seconds
        return "leaf"

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle() -> None:
        clock.now += 2.0
        traced_leaf(1.0)  # a grandchild of outer: inside middle's span
        clock.now += 0.5

    traced_middle = tracer.wrap("middle", middle)

    def outer() -> None:
        clock.now += 3.0
        traced_middle()
        traced_leaf(4.0)  # a direct child of outer
        clock.now += 0.25

    tracer.wrap("outer", outer)()

    assert tracer.spans["outer"] == [1, 10.75, 3.25]
    assert tracer.spans["middle"] == [1, 3.5, 2.5]
    assert tracer.spans["leaf"] == [2, 5.0, 5.0]
    # Self times partition the outermost span exactly.
    assert sum(entry[2] for entry in tracer.spans.values()) == 10.75


def test_span_still_counts_when_the_call_raises() -> None:
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom() -> None:
        clock.now += 1.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans["boom"] == [1, 1.0, 1.0]
    assert tracer._stack() == []


def test_wrapped_call_returns_its_result_and_counts() -> None:
    tracer = Tracer()
    seen = []
    wrapped = tracer.wrap("add", lambda a, b: a + b, lambda result, args: seen.append((result, args)))
    assert wrapped(2, 3) == 5
    assert seen == [(5, (2, 3))]
    assert tracer.calls("add") == 1


def test_highest_percentile_with_ten_samples_beyond() -> None:
    assert admissible_percentile(100) == 90.0
    assert admissible_percentile(99) == 50.0
    assert admissible_percentile(300) == 90.0
    assert admissible_percentile(1000) == 99.0
    assert admissible_percentile(20) == 50.0
    assert admissible_percentile(19) is None


def test_nearest_rank_percentile() -> None:
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(list(reversed(samples)), 90) == 90
    assert percentile([7.0], 90) == 7.0


def test_times_are_scaled_to_the_reference_speed_and_memory_is_not() -> None:
    # A repetition on a machine running at half the reference speed.
    rep = {"setup_s": 0.8, "wall_s": 4.0, "cpu_s": 3.0, "peak_rss_mb": 50.0,
           "calibration_s": 2 * REFERENCE_CALIBRATION_S}
    assert calibrated(rep, "wall_s") == pytest.approx(2.0)
    assert calibrated(rep, "cpu_s") == pytest.approx(1.5)
    assert calibrated(rep, "setup_s") == pytest.approx(0.4)
    assert calibrated(rep, "peak_rss_mb") == 50.0


def test_failed_frac_counts_crashes_and_failures() -> None:
    reps = [
        {"attempted": 24, "failed": 0},
        None,  # crashed repetition: all of its 24 operations failed
        {"attempted": 24, "failed": 3},
    ]
    attempted, failed = tally(reps, ops_per_rep=24)
    assert (attempted, failed) == (72, 27)
    assert failed_frac(attempted, failed) == pytest.approx(27 / 72)
    assert failed_frac(0, 0) == 1.0  # nothing attempted is not a success


REPORT = (
    b"PointID,Topology,dram.channels,TotalCycles\n"
    b"0,resnet18,1,1000\n"
    b"1,resnet18,2,900\n"
)
LAYOUT = (
    b"PointID,LayerID,Slowdown\n"
    b"0,0,+0.100000\n"
    b"0,1,+0.200000\n"
    b"1,0,+0.050000\n"
)


def _flip_one_byte(data: bytes, needle: bytes) -> bytes:
    at = data.index(needle)
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


def test_digest_check_catches_a_one_byte_change() -> None:
    header, expected = point_digests([REPORT, LAYOUT])
    assert set(expected) == {"0", "1"}
    _, same = point_digests([REPORT, LAYOUT])
    assert mismatched(same, expected) == []

    changed = _flip_one_byte(LAYOUT, b"+0.200000")  # a layout row of point 0
    changed_header, actual = point_digests([REPORT, changed])
    assert changed_header == header
    assert mismatched(actual, expected) == ["0"]


def test_sweep_check_counts_each_failed_point_once() -> None:
    header, points = point_digests([REPORT, LAYOUT])
    expected = {"header": header, "points": points}
    ok = {"files": [REPORT, LAYOUT], "raised": []}
    assert check_sweep(ok, expected) == (0, [])

    # Point 1 raised and lost its rows: one failure, not two.
    truncated = {"files": [REPORT[: REPORT.index(b"1,resnet18")], LAYOUT[: LAYOUT.index(b"1,0")]],
                 "raised": ["1"]}
    assert check_sweep(truncated, expected) == (1, ["1"])

    renamed = {"files": [REPORT.replace(b"TotalCycles", b"TotalCycleZ"), LAYOUT], "raised": []}
    assert check_sweep(renamed, expected) == (2, ["header"])


def test_service_check_counts_mismatched_and_malformed_jobs() -> None:
    good = b"PointID,Topology,TotalCycles\n0,vit_s,1234\n"
    expected = {"jobs": {"ws/1/64": sha256(good), "os/2/128": sha256(good)}}
    outcome = {
        "reports": {"ws/1/64": good, "os/2/128": _flip_one_byte(good, b"1234")},
        "raised": [],
    }
    assert check_service(outcome, expected) == (1, ["os/2/128"])

    two_rows = good + b"1,vit_s,1234\n"
    outcome = {"reports": {"ws/1/64": two_rows}, "raised": ["os/2/128"]}
    assert check_service(outcome, expected) == (2, ["os/2/128", "ws/1/64"])


def test_benchmark_json_names_exactly_what_the_benchmark_reports() -> None:
    spec = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)

    info = namedtuple("CacheInfo", "hits misses")(0, 0)
    reported = list(layer_metrics(Tracer(), info, wall_s=1.0))
    reported += ["trace.overhead_s", "trace.overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == reported
    assert all(m["unit"] == unit_of(m["name"]) for m in spec["per_layer"])
