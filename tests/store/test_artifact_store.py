"""Unit tests for the content-addressed artifact store (repro.store).

The round-trip tests double as the fast-lane smoke for the store: each
mid-level artifact kind the sweep persists — per-layer compute
schedules and fold-demand streams — goes through a tmpdir store and
comes back equal, in well under a second.
"""

import pickle

import pytest

from repro.config.presets import get_preset
from repro.core.dataflow import Dataflow
from repro.core.simulator import Simulator, layer_compute, layer_compute_store_key
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
    os_8x8 = (8, 8, Dataflow.OUTPUT_STATIONARY, 1024, 1024, 1024)
    base = layer_compute_store_key(layer, os_8x8)
    assert base == layer_compute_store_key(layer, os_8x8)
    ws_8x8 = (8, 8, Dataflow.WEIGHT_STATIONARY, 1024, 1024, 1024)
    assert base != layer_compute_store_key(layer, ws_8x8)
    os_16x8 = (16, 8, Dataflow.OUTPUT_STATIONARY, 1024, 1024, 1024)
    assert base != layer_compute_store_key(layer, os_16x8)
    other = toy_gemm()[0]
    assert base != layer_compute_store_key(other, os_8x8)


def test_layer_store_key_is_stable_across_releases():
    """Stores written by earlier code keep their addresses (pinned digest)."""
    layer = toy_conv()[0]
    signature = (8, 8, Dataflow.OUTPUT_STATIONARY, 1024, 1024, 1024)
    assert layer_compute_store_key(layer, signature) == (
        "cc6866b817e9511e14aac6ff6a93cab9be12e210afd6ecb45c9caf1156e3db25"
    )


def test_fold_demand_key_includes_cap():
    layer = toy_conv()[0]
    full = fold_demand_store_key(layer, Dataflow.OUTPUT_STATIONARY, 8, 8, None)
    capped = fold_demand_store_key(layer, Dataflow.OUTPUT_STATIONARY, 8, 8, 4)
    assert full != capped


# ----------------------------------------------------------- store basics


def test_store_get_put_roundtrip_and_counters(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    key = content_address("demo", {"v": 1})
    assert store.get("demo", key) is None
    store.put("demo", key, {"payload": [1, 2, 3]})
    assert store.get("demo", key) == {"payload": [1, 2, 3]}
    assert (store.hits, store.misses) == (1, 1)
    assert store.path("demo", key).exists()


@pytest.mark.parametrize(
    "garbage",
    [
        b"\x80\x04 truncated garbage",
        b"cno_such_module\nThing\n.",  # ModuleNotFoundError on load
        b"X\x02\x00\x00\x00\xff\xfe.",  # UnicodeDecodeError on load
    ],
    ids=["truncated", "missing_module", "bad_utf8"],
)
def test_corrupt_artifact_counts_as_miss_and_is_unlinked(tmp_path, garbage):
    store = ArtifactStore(tmp_path)
    key = content_address("demo", {"v": 3})
    store.put("demo", key, "good")
    path = store.path("demo", key)
    path.write_bytes(garbage)
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
    args = (layer, (8, 8, Dataflow.OUTPUT_STATIONARY, 4096, 4096, 4096))
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
    from repro.core.simulator import clear_compute_plan_cache
    from repro.dram.fanout import simulate_many_dram

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
        [layer.timeline for layer in simulate_many_dram(plan, [config])[0].layers]
        for plan in (warm, reference)
    ]
    assert resolved[0] == resolved[1]


def test_zero_stride_schedule_roundtrips_through_store(tmp_path):
    """A zero-stride always-present mask loads back as an equal schedule."""
    import dataclasses

    from repro.core.simulator import ComputePlan, plan_signature
    from repro.dram.fanout import prepare_line_batch, simulate_many_dram

    config = get_preset("google_tpu_v2")
    config = config.replace(
        arch=dataclasses.replace(config.arch, array_rows=4, array_cols=4, dataflow="ws")
    )
    signature = plan_signature(config.arch)
    layer = toy_conv()[1]
    layer_compute.cache_clear()
    reference = layer_compute(layer, signature)
    stationary = reference.fold_specs.slots[0]
    assert stationary.operand == "filter" and stationary.present.strides == (0,)

    store = ArtifactStore(tmp_path)
    with _with_store(store):
        layer_compute.cache_clear()
        layer_compute(layer, signature)  # miss: builds and persists
        layer_compute.cache_clear()
        warm = layer_compute(layer, signature)  # hit: loads from disk
    layer_compute.cache_clear()
    assert store.misses == 1 and store.hits == 1
    assert warm is not reference
    assert warm.fold_specs == reference.fold_specs
    word_bytes = config.arch.word_bytes
    assert [prepare_line_batch(fold, word_bytes) for fold in warm.fold_specs] == [
        prepare_line_batch(fold, word_bytes) for fold in reference.fold_specs
    ]
    resolved = [
        simulate_many_dram(ComputePlan("toy_conv", signature, (compute,)), [config])
        for compute in (warm, reference)
    ]
    assert resolved[0] == resolved[1]


def test_fold_demand_roundtrips_through_store(tmp_path):
    # WS with 16 filters on 4 columns: every row fold is a run of 4.
    layer = toy_conv()[1]
    args = (layer, Dataflow.WEIGHT_STATIONARY, 4, 4, None)
    reference = list(_fold_demand_stream(*args))
    assert any(repeats > 1 for _, repeats in reference)

    store = ArtifactStore(tmp_path)
    with _with_store(store):
        cold = list(_fold_demand_stream(*args))
        warm = list(_fold_demand_stream(*args))
    assert store.misses == 1 and store.hits == 1
    assert len(cold) == len(reference) > 0
    for (a, ra), (b, rb), (c, rc) in zip(reference, cold, warm):
        assert ra == rb == rc
        assert a.cycles == b.cycles == c.cycles
        assert (a.cycle_index == b.cycle_index).all()
        assert (a.cycle_index == c.cycle_index).all()
        assert (a.offsets == b.offsets).all() and (a.offsets == c.offsets).all()
