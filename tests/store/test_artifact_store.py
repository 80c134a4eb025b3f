"""Unit tests for the content-addressed artifact store (repro.store).

The round-trip tests double as the fast-lane smoke for the store: each
mid-level artifact kind the sweep persists — per-layer compute
schedules, fold-demand streams, decoded line batches — goes through a
tmpdir store and comes back equal, in well under a second.
"""

import pickle

import pytest

from repro.config.presets import get_preset
from repro.core.dataflow import Dataflow
from repro.core.simulator import (
    Simulator,
    layer_compute,
    layer_compute_store_key,
    plan_store_key,
)
from repro.dram.fanout import _build_line_batches
from repro.layout.integrate import _fold_demand_stream, fold_demand_store_key
from repro.store.artifact_store import (
    STORE_SCHEMA_VERSION,
    ArtifactStore,
    active_store,
    canonical_artifact,
    content_address,
    dump_pickle_atomic,
    load_pickle_guarded,
    set_active_store,
)
from repro.topology.models import toy_conv, toy_gemm


@pytest.fixture(autouse=True)
def _no_leaked_store():
    """No test here may leave a process-wide store installed."""
    assert active_store() is None
    yield
    assert active_store() is None


# ------------------------------------------------------------------ keys


def test_content_address_is_stable_and_sorted():
    a = content_address("kind", {"b": 2, "a": 1})
    b = content_address("kind", {"a": 1, "b": 2})
    assert a == b
    assert len(a) == 64 and int(a, 16) >= 0


def test_content_address_separates_kind_and_payload():
    assert content_address("x", {"v": 1}) != content_address("y", {"v": 1})
    assert content_address("x", {"v": 1}) != content_address("x", {"v": 2})


def test_content_address_salted_by_schema_version():
    # The schema version participates in every key: bumping it must
    # invalidate all existing store directories at once.
    blob = content_address("kind", {"v": 1})
    assert STORE_SCHEMA_VERSION  # non-empty by construction
    assert blob == content_address("kind", {"v": 1})


def test_canonical_artifact_tags_dataclasses_with_kind():
    conv = toy_conv()[0]
    gemm = toy_gemm()[0]
    assert canonical_artifact(conv)["__kind__"] == type(conv).__name__
    assert canonical_artifact(gemm)["__kind__"] == type(gemm).__name__
    assert canonical_artifact(7) == 7


def test_layer_store_keys_differ_across_layers_and_knobs():
    layer = toy_conv()[0]
    base = layer_compute_store_key(layer, Dataflow.OUTPUT_STATIONARY, 8, 8, 1024, 1024, 1024)
    assert base == layer_compute_store_key(layer, Dataflow.OUTPUT_STATIONARY, 8, 8, 1024, 1024, 1024)
    assert base != layer_compute_store_key(layer, Dataflow.WEIGHT_STATIONARY, 8, 8, 1024, 1024, 1024)
    assert base != layer_compute_store_key(layer, Dataflow.OUTPUT_STATIONARY, 16, 8, 1024, 1024, 1024)
    other = toy_gemm()[0]
    assert base != layer_compute_store_key(other, Dataflow.OUTPUT_STATIONARY, 8, 8, 1024, 1024, 1024)


def test_fold_demand_key_includes_cap():
    layer = toy_conv()[0]
    full = fold_demand_store_key(layer, Dataflow.OUTPUT_STATIONARY, 8, 8, None)
    capped = fold_demand_store_key(layer, Dataflow.OUTPUT_STATIONARY, 8, 8, 4)
    assert full != capped


# ----------------------------------------------------------- store basics


def test_store_get_put_roundtrip_and_counters(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    key = store.key("demo", {"v": 1})
    assert store.get("demo", key) is None
    store.put("demo", key, {"payload": [1, 2, 3]})
    assert store.get("demo", key) == {"payload": [1, 2, 3]}
    assert (store.hits, store.misses) == (1, 1)
    assert store.path("demo", key).exists()


def test_store_get_or_build_builds_once(tmp_path):
    store = ArtifactStore(tmp_path)
    calls = []

    def build():
        calls.append(1)
        return "built"

    key = store.key("demo", {"v": 2})
    assert store.get_or_build("demo", key, build) == "built"
    assert store.get_or_build("demo", key, build) == "built"
    assert len(calls) == 1
    assert (store.hits, store.misses) == (1, 1)


def test_corrupt_artifact_counts_as_miss_and_is_unlinked(tmp_path):
    store = ArtifactStore(tmp_path)
    key = store.key("demo", {"v": 3})
    store.put("demo", key, "good")
    path = store.path("demo", key)
    path.write_bytes(b"\x80\x04 truncated garbage")
    assert store.get("demo", key) is None
    assert not path.exists()  # repaired: next put recreates it
    store.put("demo", key, "good again")
    assert store.get("demo", key) == "good again"


def test_load_pickle_guarded_handles_missing_and_empty(tmp_path):
    assert load_pickle_guarded(tmp_path / "absent.pkl") is None
    empty = tmp_path / "empty.pkl"
    empty.touch()
    assert load_pickle_guarded(empty) is None
    assert not empty.exists()


def test_dump_pickle_atomic_leaves_no_temp_files(tmp_path):
    target = tmp_path / "artifact.pkl"
    dump_pickle_atomic(target, list(range(10)))
    assert pickle.loads(target.read_bytes()) == list(range(10))
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.pkl"]


def test_set_active_store_returns_previous(tmp_path):
    first = ArtifactStore(tmp_path / "a")
    second = ArtifactStore(tmp_path / "b")
    assert set_active_store(first) is None
    try:
        assert set_active_store(second) is first
        assert active_store() is second
    finally:
        set_active_store(None)


# ------------------------------------------- artifact-kind round trips


def _with_store(store):
    """Context-manager-free install/restore helper for these tests."""

    class _Scope:
        def __enter__(self):
            self.previous = set_active_store(store)
            return store

        def __exit__(self, *exc):
            set_active_store(self.previous)

    return _Scope()


def test_layer_compute_roundtrips_through_store(tmp_path):
    layer = toy_conv()[0]
    args = (layer, Dataflow.OUTPUT_STATIONARY, 8, 8, 4096, 4096, 4096)
    layer_compute.cache_clear()
    reference = layer_compute(*args)

    store = ArtifactStore(tmp_path)
    with _with_store(store):
        layer_compute.cache_clear()
        cold = layer_compute(*args)  # miss: builds and persists
        layer_compute.cache_clear()
        warm = layer_compute(*args)  # hit: loads from disk
    layer_compute.cache_clear()
    assert store.misses == 1 and store.hits == 1
    assert cold == reference
    assert warm == reference


def test_plan_through_store_roundtrips_to_equal_schedules(tmp_path):
    """A warm plan is served from pickles as the same columnar schedules."""
    from repro.core.compute_sim import FoldSchedule
    from repro.core.simulator import clear_compute_plan_cache, make_memory_backend, resolve_plan

    config = get_preset("scale_sim_v2_default")
    topology = toy_conv()
    simulator = Simulator(config)
    clear_compute_plan_cache()
    reference = simulator.plan(topology)

    store = ArtifactStore(tmp_path)
    with _with_store(store):
        clear_compute_plan_cache()
        simulator.plan(topology)  # misses: schedules and persists
        clear_compute_plan_cache()
        warm = simulator.plan(topology)  # hits: unpickled from disk
    clear_compute_plan_cache()
    assert store.hits == len(topology)
    assert warm == reference
    for got, want in zip(warm.computes, reference.computes):
        assert isinstance(got.fold_specs, FoldSchedule)
        assert got.fold_specs == want.fold_specs
        assert list(got.fold_specs) == list(want.fold_specs)
    resolved = [
        [layer.timeline for layer in resolve_plan(plan, make_memory_backend(config), "r").layers]
        for plan in (warm, reference)
    ]
    assert resolved[0] == resolved[1]


def test_fold_demand_roundtrips_through_store(tmp_path):
    layer = toy_conv()[0]
    args = (layer, Dataflow.OUTPUT_STATIONARY, 8, 8, None)
    reference = list(_fold_demand_stream(*args))

    store = ArtifactStore(tmp_path)
    with _with_store(store):
        cold = list(_fold_demand_stream(*args))
        warm = list(_fold_demand_stream(*args))
    assert store.misses == 1 and store.hits == 1
    assert len(cold) == len(reference) > 0
    for a, b, c in zip(reference, cold, warm):
        assert a.cycles == b.cycles == c.cycles
        assert (a.cycle_index == b.cycle_index).all()
        assert (a.cycle_index == c.cycle_index).all()
        assert (a.offsets == b.offsets).all() and (a.offsets == c.offsets).all()


def test_line_batches_roundtrip_through_store(tmp_path):
    config = get_preset("google_tpu_v2")
    topology = toy_conv()
    plan = Simulator(config).plan(topology)
    assert plan.store_key  # Simulator.plan stamps the content address
    reference = _build_line_batches(plan, config.arch.word_bytes)

    store = ArtifactStore(tmp_path)
    key = store.key(
        "line_batches",
        {"plan": plan.store_key, "word_bytes": config.arch.word_bytes},
    )
    cold = store.get_or_build(
        "line_batches", key, lambda: _build_line_batches(plan, config.arch.word_bytes)
    )
    warm = store.get_or_build(
        "line_batches", key, lambda: pytest.fail("warm run must not rebuild")
    )
    assert store.misses == 1 and store.hits == 1
    for built, loaded in ((cold, reference), (warm, reference)):
        assert len(built) == len(loaded)
        for layer_a, layer_b in zip(built, loaded):
            assert len(layer_a) == len(layer_b)


def test_plan_store_key_tracks_inputs():
    config = get_preset("scale_sim_v2_default")
    topology = toy_conv()
    key = plan_store_key(topology, config.arch)
    assert key == plan_store_key(topology, config.arch)
    assert key != plan_store_key(toy_gemm(), config.arch)
    other = get_preset("eyeriss_like")
    assert key != plan_store_key(topology, other.arch)
