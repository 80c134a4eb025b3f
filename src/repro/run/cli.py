"""Command-line interface mirroring SCALE-Sim's ``scale.py``.

Usage::

    scale-sim-repro -c configs/tpu.cfg -t topologies/resnet18.csv -p outputs
    scale-sim-repro --preset google_tpu_v2 --model resnet18 --scale 8
    scale-sim-repro sweep --preset scale_sim_v2_default --model resnet18 \
        --scale 8 --set dram.channels=1,2,4,8 --workers 4

Either a ``.cfg`` file or a named preset selects the architecture, and
either a topology CSV or a built-in model name selects the workload.
The ``sweep`` subcommand crosses the selected config with one or more
``--set section.field=v1,v2,...`` axes, fans the grid out over a worker
pool (:mod:`repro.run.sweep`), and writes a sweep-report CSV.  ``sweep``
and ``submit`` turn their arguments into one
:class:`~repro.run.request.SweepRequest`, which types each ``--set``
value by its field's declared type and checks every grid point before
any work starts; input it rejects prints one ``error:`` line and exits
2.  The
``worker`` subcommand runs the spool worker loop
(:func:`repro.run.executors.process_spool`) against a shared spool
directory — the remote half of ``sweep --executor queue``.

The service subcommands turn sweeps into jobs against a long-running
server (:mod:`repro.service`): ``serve`` runs the crash-safe job server
over a durable ``--data-dir``, ``submit`` posts a sweep to it (honouring
429/503 + ``Retry-After`` with capped, jittered backoff), ``status``
inspects jobs, and ``fetch`` downloads report CSVs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.config.parser import load_config
from repro.config.presets import available_presets, get_preset
from repro.core.report import (
    write_failure_report,
    write_layout_sweep_report,
    write_sweep_report,
)
from repro.errors import ConfigError, ServiceError, TopologyError
from repro.run.executors import AVAILABLE_EXECUTORS, make_executor, process_spool
from repro.run.request import SweepRequest
from repro.run.runner import run_simulation
from repro.run.sweep import FAILURE_POLICIES, ResultCache, SweepRunner
from repro.store.artifact_store import ArtifactStore
from repro.topology.models import available_models, get_model
from repro.topology.topology import Topology


def _int_at_least(raw: str, minimum: int, kind: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
    if value < minimum:
        raise argparse.ArgumentTypeError(f"expected {kind}, got {raw!r}")
    return value


def positive_int(raw: str) -> int:
    """argparse type for options that only make sense strictly positive.

    Central validation for ``--workers``, ``--max-attempts``, ``--scale``
    and friends: a zero or negative value fails parsing with a clear
    message instead of surfacing later as a confusing deadlock, divide
    error, or silently-serial sweep.
    """
    return _int_at_least(raw, 1, "a positive integer")


def non_negative_int(raw: str) -> int:
    """argparse type for counts where zero means none (``--max-retries``)."""
    return _int_at_least(raw, 0, "a non-negative integer")


def positive_float(raw: str) -> float:
    """argparse type for durations (``--lease-ttl``, ``--poll``, ...)."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {raw!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {raw!r}")
    return value


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    """The config source, workload source and ``--scale`` of every sweep."""
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("-c", "--config", help="path to a SCALE-Sim style .cfg file")
    source.add_argument(
        "--preset", choices=available_presets(), help="named architecture preset"
    )
    workload = parser.add_mutually_exclusive_group(required=True)
    workload.add_argument("-t", "--topology", help="path to a topology CSV")
    workload.add_argument(
        "--model", choices=available_models(), help="built-in workload model"
    )
    parser.add_argument(
        "--scale",
        type=positive_int,
        default=1,
        help="divisor shrinking built-in model dimensions (default 1)",
    )


def _add_request_args(parser: argparse.ArgumentParser, failure_policy: str) -> None:
    """The source args plus what else :meth:`SweepRequest.from_args` reads."""
    _add_source_args(parser)
    parser.add_argument(
        "--set",
        dest="axes",
        action="append",
        default=[],
        metavar="FIELD=V1,V2,...",
        help="sweep axis over a dotted config field, e.g. dram.channels=1,2,4 "
        "(repeatable; axes cross-multiply; values take the field's type)",
    )
    parser.add_argument(
        "--name", default="sweep", help="sweep name used for run names and the CSV"
    )
    parser.add_argument(
        "--failure-policy",
        choices=FAILURE_POLICIES,
        default=failure_policy,
        help="what to do when a point exhausts its attempt budget: 'raise' "
        "aborts the sweep; 'degrade' finishes the surviving points and "
        f"reports the rest in <name>_failures.csv (default {failure_policy})",
    )
    parser.add_argument(
        "--max-attempts",
        type=positive_int,
        default=None,
        help="attempt budget per simulation unit before it is quarantined "
        "(default 3; a server's own for submit)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser."""
    parser = argparse.ArgumentParser(
        prog="scale-sim-repro",
        description="SCALE-Sim v3 reproduction: cycle-accurate systolic simulation",
        epilog=(
            "design-space sweeps: 'scale-sim-repro sweep --help' "
            "(grid over config fields, worker pool, result cache)"
        ),
    )
    _add_source_args(parser)
    parser.add_argument(
        "-p",
        "--output",
        default="outputs",
        help="output directory for reports (default ./outputs)",
    )
    parser.add_argument(
        "--no-reports",
        action="store_true",
        help="simulate without writing report files",
    )
    return parser


def build_sweep_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``sweep`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="scale-sim-repro sweep",
        description="fan a config grid out over a worker pool and report CSV",
    )
    _add_request_args(parser, failure_policy="raise")
    parser.add_argument(
        "--workers",
        type=positive_int,
        default=1,
        help="worker processes for the sweep (default 1 = serial)",
    )
    parser.add_argument(
        "--executor",
        choices=AVAILABLE_EXECUTORS,
        default="serial",
        help="execution backend for simulation units (default serial, which "
        "is a process pool when --workers > 1); 'queue' spools units through "
        "<output>/spool and drains them with a local worker",
    )
    parser.add_argument(
        "-p",
        "--output",
        default="outputs",
        help="output directory for the sweep report (default ./outputs)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help="content-addressed artifact store persisting simulated points "
        "and mid-level artifacts (compute schedules and fold-demand "
        "streams); repeated sweeps reuse them",
    )
    parser.add_argument(
        "--lease-ttl",
        type=positive_float,
        default=None,
        help="queue-executor lease time-to-live in seconds; a worker that "
        "stops heartbeating for this long forfeits its claim (default 300)",
    )
    return parser


def build_worker_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``worker`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="scale-sim-repro worker",
        description="drain simulation units from a shared spool directory "
        "(the remote half of 'sweep --executor queue')",
    )
    parser.add_argument(
        "--spool",
        required=True,
        help="spool directory shared with the sweep producer",
    )
    parser.add_argument(
        "--poll",
        type=positive_float,
        default=0.5,
        help="seconds to sleep between spool scans (default 0.5)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=positive_float,
        default=None,
        help="override the lease TTL used when reclaiming expired claims "
        "(default: each task's own TTL)",
    )
    parser.add_argument(
        "--max-tasks",
        type=positive_int,
        default=None,
        help="stop after executing this many units (default: unlimited)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="make a single pass over the spool and exit instead of looping",
    )
    parser.add_argument(
        "--reap",
        action="store_true",
        help="also prune batch directories whose producer process is dead",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="scale-sim-repro serve",
        description="run the crash-safe sweep job server (repro.service) "
        "over a durable data directory",
    )
    parser.add_argument(
        "--data-dir",
        required=True,
        help="root of all durable state: job journals, artifact store "
        "(simulated points included), spool; restarting on the same "
        "directory recovers unfinished jobs",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8537,
        help="bind port; 0 picks an ephemeral port (default 8537)",
    )
    parser.add_argument(
        "--executor",
        choices=AVAILABLE_EXECUTORS,
        default="serial",
        help="execution backend for each job's simulation units (default "
        "serial); 'queue' spools units through <data-dir>/spool",
    )
    parser.add_argument(
        "--workers",
        type=positive_int,
        default=1,
        help="per-job unit parallelism; serial with --workers > 1 is a "
        "process pool (default 1)",
    )
    parser.add_argument(
        "--max-queued",
        type=positive_int,
        default=16,
        help="admission bound: queued jobs beyond this get 429 + "
        "Retry-After (default 16)",
    )
    parser.add_argument(
        "--max-active",
        type=positive_int,
        default=1,
        help="jobs running concurrently; the server's unit budget is "
        "max-active x workers (default 1)",
    )
    parser.add_argument(
        "--max-attempts",
        type=positive_int,
        default=None,
        help="attempt budget per simulation unit before it is quarantined "
        "(default 3)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=positive_float,
        default=None,
        help="queue-executor lease time-to-live in seconds (default 300)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=positive_float,
        default=30.0,
        help="seconds SIGTERM waits for running jobs before journaling "
        "them interrupted (default 30)",
    )
    parser.add_argument(
        "--external-workers",
        action="store_true",
        help="with --executor queue, don't drain the spool in-process; "
        "remote 'scale-sim-repro worker --spool <data-dir>/spool' "
        "processes own execution",
    )
    return parser


def build_submit_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``submit`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="scale-sim-repro submit",
        description="submit a sweep job to a running server; retries "
        "429/503 answers honouring Retry-After with capped jittered backoff",
    )
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8537",
        help="server base URL (default http://127.0.0.1:8537)",
    )
    _add_request_args(parser, failure_policy="degrade")
    parser.add_argument(
        "--max-retries",
        type=non_negative_int,
        default=5,
        help="client retries for 429/503/connection errors (default 5)",
    )
    parser.add_argument(
        "--backoff-seed",
        type=int,
        default=None,
        help="seed for deterministic retry jitter (default: OS entropy)",
    )
    parser.add_argument(
        "--wait",
        action="store_true",
        help="wait until the job finishes and print its final state",
    )
    parser.add_argument(
        "--poll",
        type=positive_float,
        default=0.5,
        help="with --wait, seconds to pause after an answer that is not yet "
        "final (default 0.5)",
    )
    parser.add_argument(
        "--timeout",
        type=positive_float,
        default=3600.0,
        help="--wait deadline in seconds (default 3600)",
    )
    return parser


def build_status_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``status`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="scale-sim-repro status",
        description="inspect a running server: job list, one job, or health",
    )
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8537",
        help="server base URL (default http://127.0.0.1:8537)",
    )
    parser.add_argument(
        "job_id", nargs="?", default=None, help="job id (default: list all jobs)"
    )
    parser.add_argument(
        "--health",
        action="store_true",
        help="print the /healthz document instead of job status",
    )
    return parser


def build_fetch_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``fetch`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="scale-sim-repro fetch",
        description="download a finished job's report CSV",
    )
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8537",
        help="server base URL (default http://127.0.0.1:8537)",
    )
    parser.add_argument("job_id", help="job id")
    parser.add_argument(
        "--failures",
        action="store_true",
        help="fetch the failure report instead of the sweep report",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the CSV here (default: print to stdout)",
    )
    return parser


def sweep_main(argv: list[str]) -> int:
    """Entry point of the ``sweep`` subcommand."""
    args = build_sweep_parser().parse_args(argv)
    spec = SweepRequest.from_args(args).build()
    store = ArtifactStore(args.store_dir) if args.store_dir else None
    cache = ResultCache(store)
    executor = make_executor(
        args.executor,
        workers=args.workers,
        spool_dir=Path(args.output) / "spool",
        max_attempts=args.max_attempts,
        lease_ttl=args.lease_ttl,
    )
    runner = SweepRunner(
        cache=cache,
        executor=executor,
        store=store,
        failure_policy=args.failure_policy,
    )
    results = runner.run(spec)

    axis_names = [axis.name for axis in spec.axes]
    print(f"sweep:    {args.name} ({len(results)} points, {runner.workers} workers)")
    if runner.last_grouping is not None and runner.last_grouping[1]:
        simulated, units = runner.last_grouping
        unit_word = "unit" if units == 1 else "units"
        print(f"grouping: {simulated} points -> {units} simulation {unit_word}")
        for number, fanout in enumerate(runner.last_grouping.units):
            detail = f"  unit {number}: {fanout.points} points"
            if fanout.word_streams:
                stream_word = "stream" if fanout.word_streams == 1 else "streams"
                detail += f", {fanout.word_streams} word-size line {stream_word}"
            if fanout.grid_passes:
                passes = len(fanout.grid_passes)
                widths = "+".join(map(str, fanout.grid_passes))
                detail += (
                    f", {passes} grid pass{'' if passes == 1 else 'es'}"
                    f" ({widths} DRAM configs)"
                )
            print(detail)
    for result in results:
        knobs = "  ".join(
            f"{name}={result.assignment_dict[name]}" for name in axis_names
        )
        origin = "cache" if result.from_cache else "run"
        line = (
            f"  [{result.index:03d}] {result.topology_name:16s} {knobs}  "
            f"cycles={result.total_cycles:,}  stalls={result.total_stall_cycles:,}"
        )
        if result.energy_report is not None:
            line += f"  energy={result.energy_mj:.3f}mJ"
        print(f"{line}  ({origin})")
    hit_line = f"cache:    {runner.cache.hits} hits / {runner.cache.misses} misses"
    print(hit_line)
    if store is not None:
        print(f"store:    {store.hits} hits / {store.misses} misses")
    if results:
        report = write_sweep_report(
            results, Path(args.output) / f"{args.name}_report.csv"
        )
        print(f"report:   {report}")
    if runner.last_failures:
        failure_report = write_failure_report(
            runner.last_failures, Path(args.output) / f"{args.name}_failures.csv"
        )
        count = len(runner.last_failures)
        point_word = "point" if count == 1 else "points"
        print(f"failures: {count} {point_word} -> {failure_report}")
    if any(result.layout_results for result in results):
        layout_report = write_layout_sweep_report(
            results, Path(args.output) / f"{args.name}_layout_report.csv"
        )
        print(f"layout:   {layout_report}")
    if not results:
        print("sweep produced no successful points", file=sys.stderr)
        return 1
    return 0


def worker_main(argv: list[str]) -> int:
    """Entry point of the ``worker`` subcommand.

    Loops :func:`repro.run.executors.process_spool` over a shared spool
    directory until interrupted (or, with ``--once``/``--max-tasks``,
    until a bounded amount of work is done).  Lease reclaim runs on
    every pass, so a fleet of these processes tolerates any of its
    members dying mid-unit.
    """
    args = build_worker_parser().parse_args(argv)
    spool_dir = Path(args.spool)
    spool_dir.mkdir(parents=True, exist_ok=True)
    executed = 0
    try:
        while True:
            remaining = None
            if args.max_tasks is not None:
                remaining = args.max_tasks - executed
                if remaining <= 0:
                    break
            executed += process_spool(
                spool_dir,
                max_tasks=remaining,
                lease_ttl=args.lease_ttl,
                reap=args.reap,
            )
            if args.once:
                break
            time.sleep(args.poll)
    except KeyboardInterrupt:
        pass
    print(f"worker: executed {executed} unit(s) from {spool_dir}")
    return 0


def serve_main(argv: list[str]) -> int:
    """Entry point of the ``serve`` subcommand."""
    from repro.service import JobManager, serve

    args = build_serve_parser().parse_args(argv)
    manager = JobManager(
        args.data_dir,
        executor_name=args.executor,
        workers=args.workers,
        max_queued=args.max_queued,
        max_active=args.max_active,
        max_attempts=args.max_attempts,
        lease_ttl=args.lease_ttl,
        external_workers=args.external_workers,
    )
    return serve(
        manager, host=args.host, port=args.port, drain_timeout=args.drain_timeout
    )


def submit_main(argv: list[str]) -> int:
    """Entry point of the ``submit`` subcommand."""
    import json

    from repro.service import ServiceClient

    args = build_submit_parser().parse_args(argv)
    request = SweepRequest.from_args(args)
    request.build()  # reject bad input here, before any connection
    client = ServiceClient(
        args.url, max_retries=args.max_retries, backoff_seed=args.backoff_seed
    )
    try:
        job = client.submit(request.to_payload())
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    print(f"submitted: {job['id']} ({job['name']}, {job['state']})")
    if not args.wait:
        return 0
    final = client.wait(job["id"], timeout=args.timeout, poll=args.poll)
    progress = final["progress"]
    print(
        f"finished:  {final['id']} {final['state']} "
        f"({progress['units_done']}/{progress['units_total']} units, "
        f"{final['rows']} rows, {len(final['failures'])} failures)"
    )
    if final.get("error"):
        print(json.dumps(final["error"], indent=2), file=sys.stderr)
    return 0 if final["state"] in ("done", "degraded") else 1


def status_main(argv: list[str]) -> int:
    """Entry point of the ``status`` subcommand."""
    import json

    from repro.service import ServiceClient

    args = build_status_parser().parse_args(argv)
    client = ServiceClient(args.url, max_retries=0)
    try:
        if args.health:
            print(json.dumps(client.health(), indent=2, sort_keys=True))
            return 0
        if args.job_id is None:
            jobs = client.list_jobs()
            for job in jobs:
                done = job["units_done"]
                total = job["units_total"] if job["units_total"] is not None else "?"
                print(f"{job['id']}  {job['state']:9s}  {done}/{total}  {job['name']}")
            if not jobs:
                print("no jobs")
            return 0
        print(json.dumps(client.status(args.job_id), indent=2, sort_keys=True))
    except ServiceError as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 1
    return 0


def fetch_main(argv: list[str]) -> int:
    """Entry point of the ``fetch`` subcommand."""
    from repro.service import ServiceClient

    args = build_fetch_parser().parse_args(argv)
    client = ServiceClient(args.url, max_retries=0)
    which = "failures" if args.failures else "report"
    try:
        body = client.fetch_report(args.job_id, which=which)
    except ServiceError as exc:
        print(f"fetch failed: {exc}", file=sys.stderr)
        return 1
    if args.output is None:
        sys.stdout.write(body.decode("utf-8"))
    else:
        out_path = Path(args.output)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_bytes(body)
        print(f"wrote {out_path} ({len(body)} bytes)")
    return 0


_SUBCOMMANDS = {
    "sweep": sweep_main,
    "worker": worker_main,
    "serve": serve_main,
    "submit": submit_main,
    "status": status_main,
    "fetch": fetch_main,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Bad input (a config, topology or ``--set`` value the boundary
    rejects) prints one ``error:`` line on stderr and exits 2.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in _SUBCOMMANDS:
            return _SUBCOMMANDS[argv[0]](argv[1:])
        return run_main(argv)
    except (ConfigError, TopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_main(argv: list[str]) -> int:
    """Entry point of the classic single run (no subcommand)."""
    args = build_parser().parse_args(argv)
    config = load_config(args.config) if args.config else get_preset(args.preset)
    if args.topology:
        topology = Topology.from_csv(args.topology)
    else:
        topology = get_model(args.model, scale=args.scale)

    outputs = run_simulation(
        config,
        topology,
        output_dir=args.output,
        write_reports=not args.no_reports,
    )
    result = outputs.run_result
    print(f"run:            {result.run_name}")
    print(f"topology:       {result.topology_name} ({len(result.layers)} layers)")
    print(f"compute cycles: {result.total_compute_cycles}")
    print(f"stall cycles:   {result.total_stall_cycles}")
    print(f"total cycles:   {result.total_cycles}")
    if outputs.energy_report is not None:
        print(f"energy:         {outputs.energy_report.total_mj:.4f} mJ")
        print(f"avg power:      {outputs.energy_report.average_power_w:.3f} W")
        print(f"EdP:            {outputs.edp:.3f} cycles*mJ")
    if result.dram_stats is not None:
        stats = result.dram_stats
        print(
            f"dram:           {stats.reads} reads, {stats.writes} writes, "
            f"row-hit rate {stats.row_hit_rate * 100:.1f}%"
        )
    if outputs.layout_results:
        worst = max(outputs.layout_results, key=lambda r: r.slowdown)
        print(
            f"layout:         worst slowdown {worst.slowdown:+.4f} "
            f"({worst.layer_name}, {config.layout.num_banks} banks)"
        )
    for path in outputs.report_paths:
        print(f"report:         {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
