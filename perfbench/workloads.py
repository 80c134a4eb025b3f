"""One cold repetition of one workload, run in a fresh process.

``python3 -m perfbench.workloads <workload> --seed N --trace 0|1
--t0 T --work-dir DIR`` imports the simulator from the checkout's
``src/``, builds the workload's inputs, runs the timed section through
the public API, checks every simulated output against the committed
digests and prints one JSON line: set-up, wall and CPU seconds, the
calibration kernel's seconds around them, peak memory, operations
attempted and failed, and (traced) the per-layer metrics.
``--record`` prints the output digests instead of checking them;
``perfbench/run.py --record-digests`` collects them into
``digests.json``.

Each repetition is its own process because that is what a user pays
for: the compute-plan LRU, the result cache, the artifact store and the
service's data directory all start empty, as they do on every CLI run.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: The service's jobs: every job is one vit_s/4 point on the TPU-v2
#: preset, and a repetition submits each of these distinct configs
#: once, in an order drawn from the seed, so job i's parameters come
#: from the seed while a run's total work does not depend on it.
#: Request queues start at 64 entries: shallower queues make a job
#: several times slower and would dominate the latency tail.
SERVICE_POOL = [
    (dataflow, channels, queue)
    for dataflow in ("os", "ws", "is")
    for channels in (1, 2, 4, 8)
    for queue in (64, 128, 256, 512, 1024)
]
#: Client status-poll interval: it bounds latency resolution, so it is
#: well below a job's ~50 ms, yet long enough that polling does not
#: starve the job thread of the interpreter lock.
POLL_SECONDS = 0.01

#: What :func:`calibration_kernel` takes on an uncontended core of the
#: 2-vCPU Xeon VM the benchmark was tuned on: the reference speed that
#: ``perfbench/run.py`` scales every reported time to.
REFERENCE_CALIBRATION_S = 0.1

#: Operations one repetition attempts (sweep points or service jobs).
OPS = {"dram_grid": 24, "arch_energy": 36, "layout_sparse": 12, "service_dram": len(SERVICE_POOL)}


def service_jobs(seed: int) -> list[tuple[str, int, int]]:
    """The seed's jobs, in submit order."""
    return random.Random(seed).sample(SERVICE_POOL, len(SERVICE_POOL))


def job_key(job: tuple[str, int, int]) -> str:
    return "/".join(str(part) for part in job)


def calibration_kernel() -> float:
    """Seconds a fixed interpreted loop takes right now.

    A repetition runs it just before and just after its timed section,
    so it sees the same phase of a shared machine.  Of the kernels
    tried (interpreted loop, dict inserts, numpy sorts in and out of
    cache, memory streaming), the loop tracked the workloads' own
    slowdowns best and adds nothing to peak memory.
    """
    start = time.perf_counter()
    total = 0
    for i in range(1_200_000):
        total += i * i % 7
    return time.perf_counter() - start


# ------------------------------------------------------------- sweeps


def first_layers(model: str, scale: int, count: int):
    from repro.topology.models import get_model

    return get_model(model, scale=scale).first_layers(count, name=f"{model}_first{count}")


def without_layer(model: str, scale: int, layer: str):
    from repro.topology.models import get_model

    topology = get_model(model, scale=scale)
    kept = [other.name for other in topology if other.name != layer]
    return topology.subset(kept, name=f"{model}_no_{layer}")


def sweep_spec(name: str):
    """The SweepSpec of a sweep workload (the inputs its set-up builds)."""
    from repro.config.system import (
        ArchitectureConfig,
        DramConfig,
        EnergyConfig,
        LayoutConfig,
        SparsityConfig,
        SystemConfig,
    )
    from repro.run.sweep import Axis, SweepSpec
    from repro.topology.models import get_model

    square = ("arch.array_rows", "arch.array_cols")
    if name == "dram_grid":
        # fig9 x fig10: channels x request-queue depth, all one fan-out
        # group per model, resolved by the config-batched grid engine.
        # ResNet stops at conv4: its conv5 layers would double the run.
        base = SystemConfig(
            arch=ArchitectureConfig(
                array_rows=128, array_cols=128, dataflow="ws",
                ifmap_sram_kb=64, filter_sram_kb=64, ofmap_sram_kb=64,
            ),
            dram=DramConfig(enabled=True, technology="ddr4", issue_per_cycle=16),
        )
        axes = [
            Axis("dram.channels", (1, 2, 4, 8)),
            Axis("queue", (32, 128, 512),
                 fields=("dram.read_queue_entries", "dram.write_queue_entries")),
        ]
        topologies = [first_layers("resnet18", 4, 13), get_model("vit_s", scale=2)]
    elif name == "arch_energy":
        # fig15 / tab05: dataflow x array size with energy on and ideal
        # bandwidth, so every point is its own unit and no DRAM runs.
        # RCNN leaves out roi_fc6 (k=25088), which on the 16x16 array
        # alone would take three times the rest of the sweep.
        base = SystemConfig(
            arch=ArchitectureConfig(bandwidth_words=200),
            energy=EnergyConfig(enabled=True),
        )
        axes = [
            Axis("arch.dataflow", ("os", "ws", "is")),
            Axis("array", (16, 32, 64, 128), fields=square),
        ]
        topologies = [
            without_layer("rcnn", 8, "roi_fc6"),
            get_model("resnet50", scale=8),
            get_model("vit_base", scale=4),
        ]
    elif name == "layout_sparse":
        # fig12/13 through the sweep: banks x per-bank bandwidth, one
        # trace stream per model feeding six conflict cascades.  ResNet
        # stops at conv4_1a: the later layers would take four times as long.
        base = SystemConfig(
            arch=ArchitectureConfig(array_rows=32, array_cols=32, dataflow="ws"),
            layout=LayoutConfig(enabled=True),
            sparsity=SparsityConfig(sparsity_support=True),
        )
        axes = [
            Axis("layout.num_banks", (1, 4, 16)),
            Axis("layout.bandwidth_per_bank_words", (16, 64)),
        ]
        topologies = [
            first_layers("resnet18", 8, 10).with_sparsity("2:4"),
            get_model("vit_s", scale=4).with_sparsity("1:4"),
        ]
    else:
        raise ValueError(f"no sweep workload {name!r}")
    return SweepSpec(base=base, axes=axes, topologies=topologies, name=name)


def run_sweep(name: str, spec, work_dir: Path) -> dict:
    """Timed section of a sweep workload: the sweep plus its report CSVs."""
    from repro.core.report import write_layout_sweep_report, write_sweep_report
    from repro.run.sweep import SweepRunner

    runner = SweepRunner(workers=1, failure_policy="degrade")
    results = runner.run(spec)
    paths = [write_sweep_report(results, work_dir / f"{name}_report.csv")]
    if name == "layout_sparse":
        paths.append(write_layout_sweep_report(results, work_dir / f"{name}_layout.csv"))
    return {
        "files": [path.read_bytes() for path in paths],
        "raised": [str(failure.index) for failure in runner.last_failures],
    }


def check_sweep(outcome: dict, expected: dict) -> tuple[int, list[str]]:
    """(failed points, their ids): raised, or rows not matching the digests."""
    from perfbench.measure import mismatched, point_digests

    header, points = point_digests(outcome["files"])
    if header != expected["header"]:
        return len(expected["points"]), ["header"]
    bad = set(mismatched(points, expected["points"])) | set(outcome["raised"])
    return len(bad), sorted(bad)


# ------------------------------------------------------------ service


def start_service(work_dir: Path, seed: int) -> dict:
    """Set-up of the service workload: server on a fresh data directory."""
    from repro.service import JobManager, ServiceClient, start_server

    manager = JobManager(work_dir / "service")
    httpd, thread = start_server(manager)
    host, port = httpd.server_address[:2]
    return {
        "manager": manager,
        "httpd": httpd,
        "thread": thread,
        "client": ServiceClient(f"http://{host}:{port}"),
        "jobs": service_jobs(seed),
    }


def stop_service(service: dict) -> None:
    service["httpd"].shutdown()
    service["thread"].join(timeout=10.0)
    service["manager"].drain(timeout=30.0)
    service["httpd"].server_close()


def run_service(service: dict, jobs: list[tuple[str, int, int]]) -> dict:
    """Timed section: one closed-loop client, submit -> wait -> fetch per job."""
    client = service["client"]
    latencies, reports, failed = [], {}, []
    for number, job in enumerate(jobs):
        dataflow, channels, queue = job
        start = time.perf_counter()
        try:
            accepted = client.submit({
                "name": f"job{number:03d}",
                "preset": "google_tpu_v2",
                "model": "vit_s",
                "scale": 4,
                "axes": {
                    "arch.dataflow": [dataflow],
                    "dram.channels": [channels],
                    "dram.read_queue_entries": [queue],
                },
            })
            status = client.wait(accepted["id"], poll=POLL_SECONDS)
            report = client.fetch_report(accepted["id"])
        except Exception as exc:  # noqa: BLE001 - any client error is a failed job
            print(f"job {job_key(job)} raised {exc!r}", file=sys.stderr)
            failed.append(job_key(job))
            continue
        latencies.append(1000.0 * (time.perf_counter() - start))
        # A job counts as done only with one row and no failure rows.
        if status["state"] != "done" or status["rows"] != 1 or status["failures"]:
            failed.append(job_key(job))
        reports[job_key(job)] = report
    return {"latencies_ms": latencies, "reports": reports, "raised": failed}


def check_service(outcome: dict, expected: dict) -> tuple[int, list[str]]:
    from perfbench.measure import mismatched, sha256

    digests = {key: sha256(report) for key, report in outcome["reports"].items()}
    wanted = {key: expected["jobs"].get(key, "unrecorded") for key in digests}
    bad = set(mismatched(digests, wanted)) | set(outcome["raised"])
    for key, report in outcome["reports"].items():
        if len(report.splitlines()) != 2:  # header + the job's one point
            bad.add(key)
    return len(bad), sorted(bad)


# --------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    name, work_dir = args.workload, args.work_dir
    service = None
    if name == "service_dram":
        service = start_service(work_dir, args.seed)
    else:
        spec = sweep_spec(name)
    setup_s = time.monotonic() - args.t0

    calibration = [calibration_kernel()]

    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    cpu_start, wall_start = time.process_time(), time.perf_counter()
    try:
        if service is not None:
            outcome = run_service(service, service["jobs"])
        else:
            outcome = run_sweep(name, spec, work_dir)
        wall_s = time.perf_counter() - wall_start
        cpu_s = time.process_time() - cpu_start
    finally:
        if service is not None:
            stop_service(service)
    calibration.append(calibration_kernel())

    if args.record:
        from perfbench.measure import point_digests, sha256

        if service is not None:
            record = {"jobs": {key: sha256(r) for key, r in sorted(outcome["reports"].items())}}
        else:
            header, points = point_digests(outcome["files"])
            record = {"header": header, "points": points}
        print(json.dumps({"record": record, "raised": outcome["raised"]}))
        return 0

    expected = json.loads(DIGESTS.read_text())[name]
    check = check_service if service is not None else check_sweep
    failed, bad = check(outcome, expected)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "calibration_s": sum(calibration) / len(calibration),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": OPS[name],
        "failed": failed,
        "mismatched": bad[:10],
        "latencies_ms": outcome.get("latencies_ms", []),
    }
    if tracer is not None:
        from repro.core import simulator

        from perfbench.tracing import layer_metrics

        result["layers"] = layer_metrics(tracer, simulator.layer_compute.cache_info(), wall_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
