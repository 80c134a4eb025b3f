"""Fold the committed ``BENCH_*.json`` baselines into one trajectory file.

Each perf harness under ``benchmarks/perf/`` writes a ``BENCH_<seam>.json``
with its workload description and measured speedups.  This aggregator
collects every speedup-shaped number from those files into
``TRAJECTORY.json`` — one committed, diff-able summary of the repo's
performance trajectory, refreshed by the nightly perf-gate CI job.

Run with::

    python benchmarks/perf/trajectory.py             # TRAJECTORY.json
    python benchmarks/perf/trajectory.py --markdown  # + TRAJECTORY.md

``--markdown`` additionally renders ``TRAJECTORY.md`` — the same data
as one human-readable table per seam.  Both outputs are deterministic
(sorted keys, no timestamps): they change only when a baseline changes.

This module also owns the rule for where benchmark artifacts go
(:func:`output_dir`): by default under the gitignored ``benchmarks/out/``
(``out/perf/`` for the harnesses' ``BENCH_*.json``), and over the
committed baselines only with ``REPRO_UPDATE_BASELINES=1``.  The script
aggregates the freshest BENCH file per seam (:func:`latest_bench_paths`)
and writes the trajectory next to them, so it rewrites the committed
``TRAJECTORY.*`` only under ``REPRO_UPDATE_BASELINES=1``.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Iterable
from pathlib import Path

PERF_DIR = Path(__file__).parent
OUT_DIR = PERF_DIR.parent / "out"
TRAJECTORY_PATH = PERF_DIR / "TRAJECTORY.json"
MARKDOWN_PATH = PERF_DIR / "TRAJECTORY.md"

#: Rewrite the committed baselines instead of writing under ``OUT_DIR``.
UPDATE_BASELINES = os.environ.get("REPRO_UPDATE_BASELINES") == "1"


def output_dir(committed_dir: Path) -> Path:
    """Where to write artifacts whose committed baselines live in ``committed_dir``.

    ``committed_dir`` itself under ``REPRO_UPDATE_BASELINES=1``;
    otherwise ``OUT_DIR/<its name>``.
    """
    directory = committed_dir if UPDATE_BASELINES else OUT_DIR / committed_dir.name
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def bench_paths(perf_dir: Path = PERF_DIR) -> list[Path]:
    """The ``BENCH_*.json`` files in ``perf_dir``, sorted."""
    return sorted(perf_dir.glob("BENCH_*.json"))


def latest_bench_paths(perf_dir: Path = PERF_DIR, fresh_dir: Path | None = None) -> list[Path]:
    """The freshest ``BENCH_*.json`` per seam.

    A harness's own output under ``fresh_dir`` (default
    ``output_dir(perf_dir)``) replaces its committed file in ``perf_dir``;
    seams whose harness has not run fall back to the committed file.
    """
    fresh_dir = output_dir(perf_dir) if fresh_dir is None else fresh_dir
    paths = {path.name: path for path in bench_paths(perf_dir)}
    paths.update({path.name: path for path in bench_paths(fresh_dir)})
    return [paths[name] for name in sorted(paths)]


def _is_speedup_key(key: str) -> bool:
    """Measured speedup-shaped metrics: ``*speedup*`` or ``a_vs_b`` ratios.

    Gate constants (``required_*``) are thresholds, not measurements,
    and are aggregated separately (see :func:`_gates`).
    """
    return ("speedup" in key or "_vs_" in key) and not key.startswith("required")


def _speedups(payload: object, prefix: str = "") -> dict[str, float]:
    """Every numeric value under a speedup-shaped key, flattened."""
    found: dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, (int, float)) and _is_speedup_key(key):
                found[path] = value
            else:
                found.update(_speedups(value, path))
    return found


def _gates(payload: object, prefix: str = "") -> dict[str, float]:
    """Every ``required_*`` gate constant, flattened.

    Gates are the harness-enforced floors the measured speedups must
    clear; folding them into the trajectory makes a gate bump (e.g.
    ``dram_grid.required_speedup`` 1.0 -> 2.0) a diff-able, committed
    event — and lets the trajectory test enforce that bumps only ever
    move upward.
    """
    found: dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, (int, float)) and key.startswith("required"):
                found[path] = value
            else:
                found.update(_gates(value, path))
    return found


def build_trajectory(paths: Iterable[Path] | None = None) -> dict:
    """Aggregate ``BENCH_*.json`` files (default: the committed ones) into one mapping."""
    benches: dict[str, dict] = {}
    for path in bench_paths() if paths is None else paths:
        payload = json.loads(path.read_text())
        name = path.stem.removeprefix("BENCH_")
        benches[name] = {
            "file": path.name,
            "workload": payload.get("workload", ""),
            # Harnesses that pick their floors by pool size record it.
            "workers": payload.get("workers"),
            "speedups": _speedups(payload),
            "gates": _gates(payload),
        }
    return {
        "note": (
            "Perf trajectory of the engine seams; regenerated by "
            "benchmarks/perf/trajectory.py from the committed BENCH_*.json "
            "baselines (each gated by its harness in this directory)."
        ),
        "benches": benches,
    }


def gate_regressions(committed: dict, fresh: dict) -> list[str]:
    """Gates of the ``committed`` trajectory that ``fresh`` removed or lowered.

    New gates may appear and existing ones may rise; anything else
    means a harness's ``required_*`` floor was relaxed.  A harness that
    picks its floors by worker count is compared only with a fresh run
    at the committed ``workers``: a 1-worker host's lower floors are
    the same gate constants, not a relaxation.
    """
    problems = []
    for name, bench in fresh["benches"].items():
        committed_bench = committed["benches"].get(name, {})
        if committed_bench.get("workers") != bench.get("workers"):
            continue
        for key, floor in committed_bench.get("gates", {}).items():
            current = bench["gates"].get(key)
            if current is None:
                problems.append(f"{name}.{key}: gate removed (committed floor {floor})")
            elif current < floor:
                problems.append(f"{name}.{key}: gate regressed {floor} -> {current}")
    return problems


def write_trajectory(
    paths: Iterable[Path] | None = None, out_path: Path = TRAJECTORY_PATH
) -> Path:
    """Write the trajectory of ``paths`` (see :func:`build_trajectory`); returns ``out_path``."""
    trajectory = build_trajectory(paths)
    out_path.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    return out_path


def build_markdown(trajectory: dict) -> str:
    """Render a trajectory mapping as a deterministic markdown table."""
    lines = [
        "# Perf trajectory",
        "",
        "Measured speedups of the engine/fan-out seams, aggregated from the",
        "committed `BENCH_*.json` baselines by `benchmarks/perf/trajectory.py",
        "--markdown` (each number is gated by its harness in this directory).",
        "",
        "| seam | speedup metric | value | gate | workload |",
        "| --- | --- | ---: | ---: | --- |",
    ]
    for name in sorted(trajectory["benches"]):
        bench = trajectory["benches"][name]
        speedups = bench["speedups"]
        if not speedups:
            lines.append(f"| {name} | (no speedup fields) | | | {bench['workload']} |")
            continue
        for position, key in enumerate(sorted(speedups)):
            workload = bench["workload"] if position == 0 else ""
            seam = name if position == 0 else ""
            prefix, _, metric = key.rpartition(".")
            gate_key = f"{prefix}.required_{metric}" if prefix else f"required_{metric}"
            gate = bench.get("gates", {}).get(gate_key)
            gate_cell = f">= {gate}x" if gate is not None else ""
            lines.append(
                f"| {seam} | {key} | {speedups[key]}x | {gate_cell} | {workload} |"
            )
    return "\n".join(lines) + "\n"


def write_markdown(paths: Iterable[Path] | None = None, out_path: Path = MARKDOWN_PATH) -> Path:
    """Write the markdown trajectory of ``paths``; returns ``out_path``."""
    out_path.write_text(build_markdown(build_trajectory(paths)))
    return out_path


if __name__ == "__main__":
    paths = latest_bench_paths()
    out_dir = output_dir(PERF_DIR)
    path = write_trajectory(paths, out_dir / TRAJECTORY_PATH.name)
    trajectory = json.loads(path.read_text())
    print(f"wrote {path} ({len(trajectory['benches'])} benches)")
    if "--markdown" in sys.argv[1:]:
        print(f"wrote {write_markdown(paths, out_dir / MARKDOWN_PATH.name)}")
    for name, bench in trajectory["benches"].items():
        speedups = ", ".join(
            f"{key}={value}" for key, value in sorted(bench["speedups"].items())
        )
        print(f"  {name}: {speedups or '(no speedup fields)'}")
