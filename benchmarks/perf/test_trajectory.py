"""The perf-trajectory aggregator stays in sync with the baselines."""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.perf.trajectory import (
    PERF_DIR,
    bench_paths,
    build_markdown,
    build_trajectory,
    gate_regressions,
    latest_bench_paths,
    write_markdown,
    write_trajectory,
)


def test_every_committed_bench_is_aggregated():
    trajectory = build_trajectory()
    bench_files = {path.name for path in PERF_DIR.glob("BENCH_*.json")}
    aggregated = {bench["file"] for bench in trajectory["benches"].values()}
    assert aggregated == bench_files
    assert bench_files, "no committed BENCH_*.json baselines found"


def test_known_seams_report_speedups():
    benches = build_trajectory()["benches"]
    for seam in ("memory_datapath", "layout_conflict", "layout_fanout", "dram_fanout"):
        assert seam in benches, f"missing perf baseline for {seam}"
        assert benches[seam]["speedups"], f"{seam} baseline carries no speedups"


def test_write_is_deterministic(tmp_path):
    first = write_trajectory(out_path=tmp_path / "a.json")
    second = write_trajectory(out_path=tmp_path / "b.json")
    assert first.read_bytes() == second.read_bytes()


def test_markdown_is_deterministic_and_covers_benches(tmp_path):
    first = write_markdown(out_path=tmp_path / "a.md")
    second = write_markdown(out_path=tmp_path / "b.md")
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    for name in build_trajectory()["benches"]:
        assert f"| {name} |" in text


def test_committed_markdown_covers_baselines():
    """TRAJECTORY.md is committed and names every bench seam.

    Values drift run to run (like TRAJECTORY.json), so only the seam
    coverage is pinned.
    """
    committed_path = PERF_DIR / "TRAJECTORY.md"
    assert committed_path.exists(), (
        "run benchmarks/perf/trajectory.py --markdown and commit"
    )
    text = committed_path.read_text()
    for name in build_trajectory()["benches"]:
        assert f"| {name} |" in text, name


def test_gates_are_folded_into_trajectory():
    """Every harness gate constant lands in the trajectory's gates map."""
    benches = build_trajectory()["benches"]
    dram_gates = benches["dram_fanout"]["gates"]
    assert "dram_grid.required_speedup" in dram_gates
    assert "cross_grid.required_speedup" in dram_gates
    assert dram_gates["dram_grid.required_speedup"] >= 2.0


def test_gate_bumps_are_monotonic():
    """A committed gate can only move upward.

    The committed TRAJECTORY.json records each harness's
    ``required_*`` floors.  The perf harnesses earlier in the run write
    their current gates into fresh BENCH files (under the gitignored
    ``benchmarks/out/perf/`` by default); a fresh gate *below* the
    committed one means a gate was silently relaxed — exactly the
    regression this assertion exists to catch.  Seams whose harness did
    not run are checked against their committed BENCH file.
    """
    committed_path = PERF_DIR / "TRAJECTORY.json"
    assert committed_path.exists(), "run benchmarks/perf/trajectory.py and commit"
    committed = json.loads(committed_path.read_text())
    assert gate_regressions(committed, build_trajectory(latest_bench_paths())) == []


def test_lowered_fresh_gate_is_caught(tmp_path):
    """A harness run that lowers a gate fails the monotonic check."""
    committed = json.loads((PERF_DIR / "TRAJECTORY.json").read_text())
    bench = json.loads((PERF_DIR / "BENCH_dram_fanout.json").read_text())
    bench["dram_grid"]["required_speedup"] -= 0.5
    (tmp_path / "BENCH_dram_fanout.json").write_text(json.dumps(bench))

    fresh = build_trajectory(latest_bench_paths(PERF_DIR, tmp_path))
    assert fresh["benches"]["dram_fanout"]["file"] == "BENCH_dram_fanout.json"
    problems = gate_regressions(committed, fresh)
    assert len(problems) == 1
    assert problems[0].startswith("dram_fanout.dram_grid.required_speedup: gate regressed")

    del bench["dram_grid"]["required_speedup"]
    (tmp_path / "BENCH_dram_fanout.json").write_text(json.dumps(bench))
    fresh = build_trajectory(latest_bench_paths(PERF_DIR, tmp_path))
    assert gate_regressions(committed, fresh) == [
        "dram_fanout.dram_grid.required_speedup: gate removed (committed floor "
        f"{committed['benches']['dram_fanout']['gates']['dram_grid.required_speedup']})"
    ]


def test_fresh_gate_at_another_worker_count_is_not_compared(tmp_path):
    """Floors picked for another pool size are not a lowered gate.

    The DRAM fan-out harness picks ``required_speedup`` by worker
    count; a 1-worker host records lower floors for the same constants.
    """
    committed = json.loads((PERF_DIR / "TRAJECTORY.json").read_text())
    assert committed["benches"]["dram_fanout"]["workers"] == 2
    bench = json.loads((PERF_DIR / "BENCH_dram_fanout.json").read_text())
    bench["workers"] = 1
    bench["cross_grid"]["required_speedup"] = 2.0
    (tmp_path / "BENCH_dram_fanout.json").write_text(json.dumps(bench))

    fresh = build_trajectory(latest_bench_paths(PERF_DIR, tmp_path))
    assert fresh["benches"]["dram_fanout"]["workers"] == 1
    assert gate_regressions(committed, fresh) == []


def test_latest_bench_paths_prefer_fresh_output(tmp_path):
    (tmp_path / "BENCH_dram_fanout.json").write_text("{}")
    (tmp_path / "BENCH_new_seam.json").write_text("{}")
    paths = latest_bench_paths(PERF_DIR, tmp_path)
    names = {path.name for path in PERF_DIR.glob("BENCH_*.json")} | {"BENCH_new_seam.json"}
    assert sorted(path.name for path in paths) == sorted(names)
    assert tmp_path / "BENCH_dram_fanout.json" in paths
    assert PERF_DIR / "BENCH_layout_conflict.json" in paths


def test_committed_trajectory_covers_baselines():
    """TRAJECTORY.json is committed and structurally current.

    Values drift run to run (the perf harnesses write fresh timings
    before this test executes), so only the bench set and speedup keys
    of the freshest BENCH files are pinned — a new or removed baseline,
    or a harness that adds or drops a speedup, must be re-aggregated
    and committed (``REPRO_UPDATE_BASELINES=1``).
    """
    committed_path = PERF_DIR / "TRAJECTORY.json"
    assert committed_path.exists(), "run benchmarks/perf/trajectory.py and commit"
    committed = json.loads(committed_path.read_text())
    fresh = build_trajectory(latest_bench_paths())
    assert set(committed["benches"]) == set(fresh["benches"])
    for name, bench in fresh["benches"].items():
        assert set(committed["benches"][name]["speedups"]) == set(bench["speedups"]), name


def test_committed_trajectory_matches_committed_baselines():
    """TRAJECTORY.{json,md} are exactly the aggregate of the committed BENCH files.

    Unlike the coverage checks above, this pins values: a baseline
    re-recorded without re-aggregating (``REPRO_UPDATE_BASELINES=1
    python benchmarks/perf/trajectory.py --markdown``) fails here.
    Fresh harness output under ``benchmarks/out/`` plays no part.
    """
    trajectory = build_trajectory(bench_paths())
    assert json.loads((PERF_DIR / "TRAJECTORY.json").read_text()) == trajectory
    assert (PERF_DIR / "TRAJECTORY.md").read_text() == build_markdown(trajectory)
