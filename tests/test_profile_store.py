"""Tests for the persistent profile store."""

import pytest

from repro.core import MECH_CDP, MECH_POLLING, ProactConfig, Profiler
from repro.core.cache import ProfileStore
from repro.errors import ProactError
from repro.hw import PLATFORM_4X_VOLTA
from repro.units import KiB, MiB
from repro.workloads import JacobiWorkload


def test_in_memory_store_roundtrip():
    store = ProfileStore()
    config = ProactConfig(MECH_POLLING, 128 * KiB, 2048)
    store.put("4x_volta", "Pagerank", config)
    assert store.get("4x_volta", "Pagerank") == config
    assert store.get("4x_volta", "SSSP") is None
    assert ("4x_volta", "Pagerank") in store
    assert len(store) == 1


def test_file_store_persists(tmp_path):
    path = tmp_path / "profiles.json"
    store = ProfileStore(path=path)
    config = ProactConfig(MECH_CDP, 1 * MiB, 512, poll_period=2e-6)
    store.put("4x_kepler", "ALS", config)
    assert path.exists()

    reloaded = ProfileStore(path=path)
    assert reloaded.get("4x_kepler", "ALS") == config


def test_file_store_rejects_garbage(tmp_path):
    path = tmp_path / "profiles.json"
    path.write_text("not json at all")
    with pytest.raises(ProactError):
        ProfileStore(path=path)

    path.write_text('{"missing-separator": {}}')
    with pytest.raises(ProactError):
        ProfileStore(path=path)

    path.write_text('{"a::b": {"mechanism": "polling"}}')
    with pytest.raises(ProactError):
        ProfileStore(path=path)


def test_sweep_signature_keys_roundtrip(tmp_path):
    # Different sweep signatures are distinct namespaces: a config chosen
    # from a coarse grid must not satisfy a query about a finer one.
    path = tmp_path / "profiles.json"
    store = ProfileStore(path=path)
    coarse = ProactConfig(MECH_POLLING, 1 * MiB, 2048)
    fine = ProactConfig(MECH_CDP, 128 * KiB, 4096)
    sig_coarse = "search|mech=a|chunks=1048576|threads=2048"
    sig_fine = "search|mech=a|chunks=131072,1048576|threads=2048,4096"
    store.put("4x_volta", "Pagerank", coarse, signature=sig_coarse)
    store.put("4x_volta", "Pagerank", fine, signature=sig_fine)
    assert store.get("4x_volta", "Pagerank", sig_coarse) == coarse
    assert store.get("4x_volta", "Pagerank", sig_fine) == fine
    assert store.get("4x_volta", "Pagerank") is None
    assert len(store) == 2

    reloaded = ProfileStore(path=path)
    assert reloaded.get("4x_volta", "Pagerank", sig_coarse) == coarse
    assert reloaded.get("4x_volta", "Pagerank", sig_fine) == fine
    assert ("4x_volta", "Pagerank", sig_fine) in reloaded


def test_legacy_two_part_keys_still_load(tmp_path):
    # Stores written before sweep-signature keys used 'platform::workload'.
    path = tmp_path / "profiles.json"
    path.write_text('{"4x_volta::Jacobi": {"mechanism": "inline", '
                    '"chunk_size": 4096, "transfer_threads": 32}}')
    store = ProfileStore(path=path)
    legacy = store.get("4x_volta", "Jacobi")
    assert legacy is not None
    assert legacy.mechanism == "inline"
    assert ("4x_volta", "Jacobi") in store


def test_get_or_profile_distinguishes_sweeps(tmp_path):
    # A store hit requires the same search space, not just the same app.
    store = ProfileStore(path=tmp_path / "profiles.json")
    workload = JacobiWorkload(num_unknowns=2_000_000, bandwidth=20,
                              iterations=2)
    narrow = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=(1 * MiB,),
                      thread_counts=(2048,))
    wide = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=(128 * KiB, 1 * MiB),
                    thread_counts=(1024, 2048))
    store.get_or_profile(PLATFORM_4X_VOLTA, workload, narrow)
    assert len(store) == 1
    store.get_or_profile(PLATFORM_4X_VOLTA, workload, wide)
    assert len(store) == 2  # the wider sweep did not hit the narrow entry


def test_get_or_profile_caches(tmp_path):
    calls = []

    class CountingProfiler(Profiler):
        def profile(self, phase_builder):
            calls.append(1)
            return super().profile(phase_builder)

    profiler = CountingProfiler(
        PLATFORM_4X_VOLTA, chunk_sizes=(1 * MiB,), thread_counts=(2048,))
    store = ProfileStore(path=tmp_path / "profiles.json")
    workload = JacobiWorkload(num_unknowns=2_000_000, bandwidth=20,
                              iterations=2)
    first = store.get_or_profile(PLATFORM_4X_VOLTA, workload, profiler)
    second = store.get_or_profile(PLATFORM_4X_VOLTA, workload, profiler)
    assert first == second
    assert len(calls) == 1  # second call hit the cache

    # A fresh store backed by the same file also skips profiling.
    fresh = ProfileStore(path=tmp_path / "profiles.json")
    third = fresh.get_or_profile(PLATFORM_4X_VOLTA, workload, profiler)
    assert third == first
    assert len(calls) == 1
