"""End-to-end host-time benchmark of the simulator.

Usage::

    python3 perfbench/run.py --workload dram_grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --record-digests        # rewrite digests.json

A run repeats one workload cold, each repetition in a fresh process
(:mod:`perfbench.workloads`), until ``--seconds`` are used up, and
reports medians over the repetitions, times scaled to a reference
machine speed (see ``CALIBRATED``).  ``--trace 0`` reports the
end-to-end metrics (set-up, wall and CPU seconds, peak memory; the
service also its job latency percentiles).  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
the traced ones plus the tracing overhead.  Every repetition checks its
outputs against ``digests.json`` either way.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  All scratch data lives under ``perfbench/.work/`` and is
removed when the repetition ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.measure import admissible_percentile, failed_frac, percentile, tally  # noqa: E402
from perfbench.tracing import LAYER_SPANS, unit_of  # noqa: E402
from perfbench.workloads import DIGESTS, OPS, REFERENCE_CALIBRATION_S  # noqa: E402

WORKLOADS = ("dram_grid", "arch_energy", "layout_sparse", "service_dram")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
#: Times reported at the reference machine speed.  On a shared VM,
#: identical repetitions vary by up to 2x, in slow phases that can
#: outlast a whole run, so each repetition also times a fixed
#: calibration kernel around its timed section and the run reports
#: ``t * reference / calibration``: a slower program still reads
#: slower, a slower machine much less so (WHERE_TIME_GOES.md has the
#: measurements).  The raw times are printed next to them.
CALIBRATED = ("setup_s", "wall_s", "cpu_s")
WORK_ROOT = HERE / ".work"
#: Repetitions a run makes even when one repetition outlasts ``--seconds``.
MIN_REPS = 3
#: No repetition starts unless it can end this long after the run began,
#: which keeps a whole run well inside three minutes.
HARD_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 120.0


def fingerprint(seed: int) -> dict:
    """Machine and code identity recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        git = ["git", "--no-optional-locks", "-C", str(ROOT)]
        try:
            commit = subprocess.run(
                [*git, "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                [*git, "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            commit, dirty = "unknown", None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "dirty": dirty,
        "seed": seed,
    }


def run_child(workload: str, seed: int, trace: int, record: bool = False,
              timeout: float = CHILD_TIMEOUT_S) -> dict | None:
    """One cold repetition in a fresh process; ``None`` if it produced no result."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["TMPDIR"] = work
    command = [
        sys.executable, "-m", "perfbench.workloads", workload,
        "--seed", str(seed), "--trace", str(trace), "--work-dir", work,
        *(["--record"] if record else []),
        "--t0", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: repetition exceeded {timeout:.0f}s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: repetition exited {proc.returncode}\n{proc.stderr[-3000:]}",
              file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"{workload}: unreadable result {lines[-1][:200]!r}", file=sys.stderr)
        return None


def calibrated(rep: dict, name: str) -> float:
    """A repetition's metric, times scaled to the reference machine speed."""
    if name not in CALIBRATED:
        return rep[name]
    return rep[name] * REFERENCE_CALIBRATION_S / rep["calibration_s"]


def repeat(workload: str, seed: int, seconds: float, trace: int) -> list[tuple[dict | None, dict | None]]:
    """(untraced, traced) repetitions until ``seconds`` are used; traced is None untraced."""
    begun = time.monotonic()
    longest = 0.0
    reps: list[tuple[dict | None, dict | None]] = []
    while True:
        elapsed = time.monotonic() - begun
        if elapsed + longest > HARD_LIMIT_S:
            break
        if elapsed + longest > seconds and len(reps) >= (1 if trace else MIN_REPS):
            break
        started = time.monotonic()
        timeout = max(1.0, min(CHILD_TIMEOUT_S, HARD_LIMIT_S + 20.0 - elapsed))
        plain = run_child(workload, seed, 0, timeout=timeout)
        traced = run_child(workload, seed, 1, timeout=timeout) if trace else None
        reps.append((plain, traced))
        longest = max(longest, time.monotonic() - started)
        if plain is None or (trace and traced is None):
            break  # a broken build fails fast instead of burning the budget
    return reps


def summarize(workload: str, reps, trace: int) -> dict:
    """Metrics, attempted and failed of one workload's run, and its printout."""
    plain = [rep for rep, _ in reps if rep is not None]
    results = [rep for rep, _ in reps] + ([rep for _, rep in reps] if trace else [])
    attempted, failed = tally(results, OPS[workload])
    print(f"== {workload}: {len(reps)} repetition(s), "
          f"failed_frac {failed_frac(attempted, failed):.4f} ({failed}/{attempted} operations)")
    for rep in results:
        if rep is not None and rep["mismatched"]:
            print(f"   mismatched outputs: {', '.join(rep['mismatched'])}")
    metrics: dict[str, dict] = {}
    if plain and not trace:
        for name, unit in END_TO_END:
            value = statistics.median([calibrated(rep, name) for rep in plain])
            metrics[name] = {"value": value, "unit": unit}
        latencies = [ms for rep in plain for ms in rep["latencies_ms"]]
        if latencies:
            best = admissible_percentile(len(latencies))
            print(f"   job latency over {len(latencies)} jobs "
                  f"(highest percentile with 10 beyond: p{best:g})")
            for p in (50, 90):
                if best is not None and p <= best:
                    print(f"   job_p{p}_ms {percentile(latencies, p):.3f} ms")
        for name, value in metrics.items():
            raw = statistics.median([rep[name] for rep in plain])
            note = f" (raw {raw:.6g})" if name in CALIBRATED else ""
            print(f"   {name} {value['value']:.6g} {value['unit']}{note}")
        speed = REFERENCE_CALIBRATION_S / statistics.median([rep["calibration_s"] for rep in plain])
        print(f"   median of {len(plain)} repetitions; machine speed {speed:.2f}x reference")
    pairs = [(rep, twin) for rep, twin in reps if rep is not None and twin is not None]
    if trace and pairs:
        # One coherent snapshot: the fastest traced repetition.  The
        # overhead pairs each traced repetition with the untraced one
        # run just before it, so both saw the same machine.
        fastest = min((twin for _, twin in pairs), key=lambda rep: rep["wall_s"])
        layers = fastest["layers"]
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": unit_of(name)}
        untraced_wall = statistics.median([rep["wall_s"] for rep, _ in pairs])
        overhead = statistics.median([twin["wall_s"] - rep["wall_s"] for rep, twin in pairs])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": overhead / untraced_wall, "unit": "ratio"}
        print(f"   untraced wall_s {untraced_wall:.4f} s, tracing overhead {overhead:+.4f} s "
              f"({100.0 * overhead / untraced_wall:+.1f}%)")
        print("   layer      self share   counts and ratios")
        for layer in LAYER_SPANS:
            share = metrics[f"{layer}.share"]["value"]
            detail = ", ".join(
                f"{name.split('.', 1)[1]} {metrics[name]['value']:.4g}"
                for name in layers if name.startswith(f"{layer}.") and not name.endswith(".share")
            )
            print(f"   {layer:<10} {100.0 * share:6.2f}%     {detail}")
    correct = failed == 0 and all(rep is not None for rep in results)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_digests() -> int:
    """Run every workload once and commit its outputs as the expected digests."""
    digests = {}
    for workload in WORKLOADS:
        result = run_child(workload, 0, 0, record=True, timeout=600.0)
        if result is None or result["raised"]:
            print(f"{workload}: cannot record digests ({result and result['raised']})",
                  file=sys.stderr)
            return 1
        digests[workload] = result["record"]
        print(f"recorded {workload}")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not args.record_digests and not DIGESTS.is_file():
        print(f"missing {DIGESTS}; run with --record-digests first", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            return record_digests()
        print("fingerprint: " + json.dumps(fingerprint(args.seed), sort_keys=True))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        summaries = {
            workload: summarize(workload, repeat(workload, args.seed, args.seconds, args.trace),
                                args.trace)
            for workload in workloads
        }
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # absent, or still in use by another run
    if args.workload == "all":
        result = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{workload}.{name}": value
                for workload, s in summaries.items()
                for name, value in s["metrics"].items()
            },
        }
    else:
        result = summaries[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
