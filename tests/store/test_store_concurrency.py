"""Concurrent shared-directory caching: ResultCache + ArtifactStore.

Two runners (or two stores, or a process hammer) sharing one directory
with overlapping keys must never expose a corrupt payload, and each
instance's hit/miss counters must stay exact — the atomic-write +
guarded-read discipline both classes share is what these tests pin.
"""

import multiprocessing
import pickle

from repro.config.system import RunConfig, SystemConfig
from repro.core.simulator import clear_compute_plan_cache
from repro.run.sweep import Axis, ResultCache, SweepRunner, SweepSpec
from repro.store.artifact_store import ArtifactStore, content_address
from repro.topology.models import toy_gemm
from repro.utils.pool import pool_context


def _base() -> SystemConfig:
    return SystemConfig(run=RunConfig(run_name="unit_shared"))


def _spec(name: str = "shared") -> SweepSpec:
    return SweepSpec(
        base=_base(),
        axes=[Axis("arch.dataflow", ("os", "ws"))],
        topologies=[toy_gemm()],
        name=name,
    )


def test_two_runners_share_a_cache_directory(tmp_path):
    store_dir = tmp_path / "store"
    first = SweepRunner(cache=ResultCache(ArtifactStore(store_dir)))
    second = SweepRunner(cache=ResultCache(ArtifactStore(store_dir)))

    cold = first.run(_spec())
    warm = second.run(_spec())

    assert (first.cache.hits, first.cache.misses) == (0, 2)
    assert (second.cache.hits, second.cache.misses) == (2, 0)
    assert all(result.from_cache for result in warm)
    for a, b in zip(cold, warm):
        assert a.run_result == b.run_result


def test_two_stores_share_a_directory(tmp_path):
    store_dir = tmp_path / "store"
    first = SweepRunner(store=ArtifactStore(store_dir))
    second = SweepRunner(store=ArtifactStore(store_dir))

    # The in-process plan LRU sits above the store; clear it so every
    # lookup actually reaches the shared directory.
    clear_compute_plan_cache()
    cold = first.run(_spec())
    clear_compute_plan_cache()
    warm = second.run(_spec("shared_again"))  # new run names, same artifacts
    clear_compute_plan_cache()

    # The first runner populated the store (its lookups all missed);
    # the second served every artifact from disk without a single miss.
    assert first.store.misses > 0 and first.store.hits == 0
    assert second.store.hits == first.store.misses and second.store.misses == 0
    for a, b in zip(cold, warm):
        assert a.total_cycles == b.total_cycles
        assert a.total_stall_cycles == b.total_stall_cycles


def _hammer_store(args):
    """One hammer process: write + read overlapping keys repeatedly."""
    directory, worker = args
    store = ArtifactStore(directory)
    outcomes = []
    for round_index in range(20):
        key = content_address("hammer", {"round": round_index % 5})
        payload = {"round": round_index % 5, "blob": list(range(200))}
        store.put("hammer", key, payload)
        seen = store.get("hammer", key)
        # Concurrent writers race, but every visible payload is complete
        # and correct: all writers store the same value for a key.
        outcomes.append(seen == payload)
    return worker, all(outcomes), store.hits + store.misses


def test_store_survives_multiprocess_hammer(tmp_path):
    directory = tmp_path / "store"
    with pool_context().Pool(processes=4) as pool:
        results = pool.map(_hammer_store, [(str(directory), i) for i in range(4)])
    assert sorted(worker for worker, _, _ in results) == [0, 1, 2, 3]
    assert all(ok for _, ok, _ in results)
    assert all(lookups == 20 for _, _, lookups in results)
    # Every surviving file unpickles cleanly.
    files = list(directory.glob("hammer/*.pkl"))
    assert len(files) == 5
    for path in files:
        assert pickle.loads(path.read_bytes())["blob"] == list(range(200))


def _hammer_cache(args):
    directory, worker = args
    cache = ResultCache(ArtifactStore(directory))
    ok = True
    for round_index in range(10):
        key = f"key_{round_index % 3}"
        payload = {"round": round_index % 3, "worker-agnostic": True}
        cache.put(key, payload)
        fresh = ResultCache(ArtifactStore(directory))  # force a disk read
        ok = ok and fresh.get(key) == payload
    return worker, ok


def test_result_cache_survives_multiprocess_hammer(tmp_path):
    directory = tmp_path / "store"
    with pool_context().Pool(processes=4) as pool:
        results = pool.map(_hammer_cache, [(str(directory), i) for i in range(4)])
    assert all(ok for _, ok in results)


def test_result_cache_corrupt_entry_is_a_miss_and_repaired(tmp_path):
    cache = ResultCache(ArtifactStore(tmp_path))
    cache.put("k", {"v": 1})
    other = ResultCache(ArtifactStore(tmp_path))
    entry = tmp_path / "sweep_point" / "k.pkl"
    entry.write_bytes(b"\x80\x04 not a pickle")
    assert other.get("k") is None
    assert (other.hits, other.misses) == (0, 1)
    assert not entry.exists()
    cache.put("k", {"v": 2})  # repair
    assert ResultCache(ArtifactStore(tmp_path)).get("k") == {"v": 2}
