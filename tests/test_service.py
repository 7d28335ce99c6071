"""Behavior suite for the tuning service (queue → coalesce → shard → store).

Covers the service's externally observable contracts: the three answer
tiers (hit/coalesced/miss) and their plan byte-identity with the direct
``Session`` path, exactly-one-sweep coalescing under concurrent
identical queries, typed backpressure rejection at the bounded queues,
deadline expiry that detaches the waiter but keeps the pool healthy,
version-fenced invalidation forcing a re-sweep, and a small threaded
zipfian soak asserting the cache actually warms up.

Sweeps are kept tiny (one or two candidate configs on the small
conftest workloads) so every test runs in milliseconds; latency-shaped
tests inject a :class:`SlowBackend` through ``backend_factory`` instead
of relying on wall-clock-sized grids.
"""

import asyncio
import pickle
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Session
from repro.core.profiler import SerialBackend
from repro.errors import (
    ConfigurationError,
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from repro.hw import platform_by_name
from repro.service import (
    CollectiveQuery,
    ProfileQuery,
    QueryMix,
    ThreadedTuningService,
    TuningService,
    zipfian_indices,
)
from repro.units import KiB, MiB
from tests.conftest import small_jacobi, small_pagerank


def tiny_query(workload=None, **overrides):
    """A profile query whose sweep is a couple of milliseconds."""
    kwargs = dict(strategy="exhaustive", chunk_sizes=(128 * KiB,),
                  thread_counts=(1024,), mechanisms=("polling",))
    kwargs.update(overrides)
    return ProfileQuery("4x_volta", workload or small_pagerank(1),
                        **kwargs)


class SlowBackend(SerialBackend):
    """A serial backend with an injected per-sweep latency."""

    def __init__(self, delay_s):
        self.delay_s = delay_s

    def open_session(self, fn):
        time.sleep(self.delay_s)
        return super().open_session(fn)


class BoomBackend(SerialBackend):
    """A backend whose sweeps always die."""

    def open_session(self, fn):
        raise RuntimeError("sweep exploded")


# ---------------------------------------------------------------------------
# Answer tiers and coalescing
# ---------------------------------------------------------------------------


def test_miss_then_hit_and_plans_are_byte_identical():
    async def scenario():
        async with TuningService(shards=1) as service:
            first = await service.submit(tiny_query())
            second = await service.submit(tiny_query())
            return first, second, service.stats()

    first, second, stats = asyncio.run(scenario())
    assert first.outcome == "miss"
    assert second.outcome == "hit"
    assert pickle.dumps(first.plan) == pickle.dumps(second.plan)
    assert stats["sweeps"] == 1.0
    assert second.latency_s < first.latency_s


def test_n_identical_concurrent_queries_run_exactly_one_sweep():
    fanin = 12

    async def scenario():
        async with TuningService(shards=2) as service:
            results = await asyncio.gather(
                *(service.submit(tiny_query()) for _ in range(fanin)))
            return results, service.stats()

    results, stats = asyncio.run(scenario())
    assert stats["sweeps"] == 1.0
    outcomes = [r.outcome for r in results]
    assert outcomes.count("miss") == 1
    assert outcomes.count("coalesced") == fanin - 1
    plans = {pickle.dumps(r.plan) for r in results}
    assert len(plans) == 1  # every waiter got the one computed plan


def test_distinct_signatures_do_not_coalesce():
    async def scenario():
        async with TuningService(shards=2) as service:
            results = await asyncio.gather(
                service.submit(tiny_query(small_pagerank(1))),
                service.submit(tiny_query(small_jacobi(1))),
                service.submit(tiny_query(thread_counts=(2048,))))
            return results, service.stats()

    results, stats = asyncio.run(scenario())
    assert [r.outcome for r in results] == ["miss"] * 3
    assert stats["sweeps"] == 3.0
    assert len({r.signature for r in results}) == 3


def test_collective_queries_are_served_and_cached():
    query = CollectiveQuery("4x_volta", "all_reduce", 4 * MiB,
                            chunk_sizes=(128 * KiB, 1 * MiB))

    async def scenario():
        async with TuningService(shards=1) as service:
            first = await service.submit(query)
            second = await service.submit(query)
            return first, second

    first, second = asyncio.run(scenario())
    assert (first.outcome, second.outcome) == ("miss", "hit")
    assert pickle.dumps(first.plan) == pickle.dumps(second.plan)


def test_service_plans_match_the_direct_session_path():
    session = Session("4x_volta")
    profile_query = tiny_query(chunk_sizes=(128 * KiB, 1 * MiB))
    collective_query = CollectiveQuery(
        "4x_volta", "all_reduce", 1 * MiB, chunk_sizes=(128 * KiB,))

    async def scenario():
        async with TuningService(shards=1) as service:
            profile = await service.submit(profile_query)
            collective = await service.submit(collective_query)
            return profile, collective

    profile, collective = asyncio.run(scenario())
    direct_profile = session.profile(
        profile_query.workload, strategy=profile_query.strategy,
        chunk_sizes=profile_query.chunk_sizes,
        thread_counts=profile_query.thread_counts,
        mechanisms=profile_query.mechanisms).best_config
    direct_collective = session.plan_collective(
        collective_query.collective, collective_query.nbytes,
        chunk_sizes=collective_query.chunk_sizes)
    assert pickle.dumps(profile.plan) == pickle.dumps(direct_profile)
    assert pickle.dumps(collective.plan) == pickle.dumps(direct_collective)


def test_default_platform_serves_platformless_queries():
    query = ProfileQuery(None, small_pagerank(1), strategy="exhaustive",
                         chunk_sizes=(128 * KiB,), thread_counts=(1024,),
                         mechanisms=("polling",))

    async def scenario():
        async with TuningService(
                shards=1,
                default_platform=platform_by_name("4x_volta")) as service:
            return await service.submit(query)

    result = asyncio.run(scenario())
    assert result.outcome == "miss"
    assert "4x_volta" in result.signature


def test_platformless_query_without_default_is_rejected_at_submit():
    async def scenario():
        async with TuningService(shards=1) as service:
            await service.submit(ProfileQuery(None, small_pagerank(1)))

    with pytest.raises(ConfigurationError):
        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Backpressure, timeouts, failures
# ---------------------------------------------------------------------------


def test_full_shard_queue_rejects_with_typed_overload_error():
    async def scenario():
        async with TuningService(
                shards=1, queue_depth=1,
                backend_factory=lambda s: SlowBackend(0.2)) as service:
            queries = [tiny_query(thread_counts=(1024 * (i + 1),))
                       for i in range(5)]
            tasks = [asyncio.ensure_future(service.submit(q))
                     for q in queries]
            settled = await asyncio.gather(*tasks,
                                           return_exceptions=True)
            return settled, service.stats()

    settled, stats = asyncio.run(scenario())
    rejected = [s for s in settled
                if isinstance(s, ServiceOverloadedError)]
    served = [s for s in settled if not isinstance(s, BaseException)]
    # One queue slot, so at most one sweeping + one queued; whether the
    # worker has dequeued the first job yet decides if a second fits.
    # Everything else bounces immediately with the typed error.
    assert 3 <= len(rejected) <= 4
    assert len(served) == 5 - len(rejected)
    assert stats["requests"]["rejected"] == float(len(rejected))
    error = rejected[0]
    assert error.shard == 0 and error.depth == 1


def test_timeout_detaches_the_waiter_but_the_sweep_seeds_the_cache():
    async def scenario():
        async with TuningService(
                shards=1,
                backend_factory=lambda s: SlowBackend(0.3)) as service:
            with pytest.raises(ServiceTimeoutError) as excinfo:
                await service.submit(tiny_query(), timeout=0.05)
            # The sweep is still running; a patient retry coalesces
            # onto it and succeeds — the pool is healthy.
            retry = await service.submit(tiny_query(), timeout=5.0)
            return excinfo.value, retry, service.stats()

    error, retry, stats = asyncio.run(scenario())
    assert error.timeout == pytest.approx(0.05)
    assert error.signature == retry.signature
    assert retry.outcome == "coalesced"
    assert retry.plan is not None
    assert stats["requests"]["timeout"] == 1.0
    assert stats["sweeps"] == 1.0  # the timed-out sweep was not retried


def test_failing_sweep_propagates_and_the_pool_stays_healthy():
    calls = {"count": 0}

    def factory(shard):
        # First shard's backend explodes; replacements behave.
        calls["count"] += 1
        return BoomBackend() if calls["count"] == 1 else SerialBackend()

    async def scenario():
        async with TuningService(shards=1,
                                 backend_factory=factory) as service:
            with pytest.raises(RuntimeError, match="sweep exploded"):
                await service.submit(tiny_query())
            stats_after_error = service.stats()
            # The failure is not cached: the same query sweeps again
            # (and fails again on this backend) rather than serving a
            # poisoned plan.
            with pytest.raises(RuntimeError):
                await service.submit(tiny_query())
            return stats_after_error

    stats = asyncio.run(scenario())
    assert stats["requests"]["error"] == 1.0
    assert stats["inflight"] == 0
    assert stats["store_entries"] == {"profiles": 0, "plans": 0}


def test_submit_on_a_stopped_service_raises_closed_error():
    service = TuningService(shards=1)
    with pytest.raises(ServiceClosedError):
        asyncio.run(service.submit(tiny_query()))


def test_aclose_fails_leftover_inflight_waiters():
    async def scenario():
        service = await TuningService(
            shards=1,
            backend_factory=lambda s: SlowBackend(5.0)).start()
        waiter = asyncio.ensure_future(service.submit(tiny_query()))
        await asyncio.sleep(0.05)  # let the job reach the worker
        await service.aclose()
        with pytest.raises(ServiceClosedError):
            await waiter

    asyncio.run(scenario())


def test_invalid_construction_is_rejected():
    with pytest.raises(ConfigurationError):
        TuningService(shards=0)
    with pytest.raises(ConfigurationError):
        TuningService(queue_depth=0)


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------


def test_invalidate_forces_a_resweep():
    async def scenario():
        async with TuningService(shards=1) as service:
            first = await service.submit(tiny_query())
            assert (await service.submit(tiny_query())).outcome == "hit"
            removed = service.invalidate()
            second = await service.submit(tiny_query())
            return first, removed, second, service.stats()

    first, removed, second, stats = asyncio.run(scenario())
    assert removed == 1
    assert second.outcome == "miss"
    assert stats["sweeps"] == 2.0
    assert pickle.dumps(first.plan) == pickle.dumps(second.plan)
    assert stats["store_versions"]["profiles"] == 1


# ---------------------------------------------------------------------------
# Threaded facade and the zipfian soak
# ---------------------------------------------------------------------------


def test_threaded_service_blocks_from_many_client_threads():
    with ThreadedTuningService(shards=2) as service:
        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(service.query, [tiny_query()] * 8))
        stats = service.stats()
    assert stats["sweeps"] == 1.0
    assert {r.outcome for r in results} <= {"miss", "coalesced", "hit"}
    assert len({pickle.dumps(r.plan) for r in results}) == 1
    # Closed: further queries are refused, not hung.
    with pytest.raises(ServiceClosedError):
        service.query(tiny_query())


def test_zipfian_soak_warms_the_cache_and_coalesces():
    universe = [
        tiny_query(small_pagerank(1)),
        tiny_query(small_jacobi(1)),
        tiny_query(small_pagerank(1), thread_counts=(2048,)),
        CollectiveQuery("4x_volta", "all_reduce", 1 * MiB,
                        chunk_sizes=(128 * KiB,)),
    ]
    mix = QueryMix.zipfian(universe, 48, seed=3)
    wave_seconds = []
    with ThreadedTuningService(shards=2) as service:
        for wave in mix.waves(12):
            started = time.perf_counter()
            with ThreadPoolExecutor(4) as pool:
                for result in pool.map(service.query, wave):
                    assert result.plan is not None
            wave_seconds.append(time.perf_counter() - started)
        stats = service.stats()
    # Perfect coalescing: one sweep per distinct signature drawn.
    assert stats["sweeps"] <= mix.unique_queries
    assert stats["hit_rate"] > 0.5
    # The cache warms up: once every signature is seeded, a wave of
    # pure hits is far faster than the cold first wave.
    assert wave_seconds[-1] < wave_seconds[0]
    assert stats["requests"]["hit"] >= len(mix) - mix.unique_queries * 2


def test_stats_endpoint_shape():
    with ThreadedTuningService(shards=2, queue_depth=7) as service:
        service.query(tiny_query())
        service.query(tiny_query())
        stats = service.stats()
    for key in ("running", "shards", "queue_depth_bound", "requests",
                "answered", "hit_rate", "sweeps", "inflight",
                "queue_depths", "store_entries", "store_versions",
                "latency_s"):
        assert key in stats, key
    assert stats["running"] is True
    assert stats["shards"] == 2
    assert stats["queue_depth_bound"] == 7
    assert stats["answered"] == 2.0
    assert set(stats["queue_depths"]) == {0, 1}
    assert set(stats["latency_s"]) <= {"hit", "coalesced", "miss"}
    for summary in stats["latency_s"].values():
        assert {"count", "p50", "p99"} <= set(summary)
    import json
    json.dumps(stats)  # the endpoint view must be JSON-serializable


def test_zipfian_indices_are_deterministic_and_skewed():
    a = zipfian_indices(8, 400, seed=11)
    b = zipfian_indices(8, 400, seed=11)
    assert a == b
    assert a.count(0) > a.count(7)  # rank-1 dominates the tail
    assert set(a) <= set(range(8))
    with pytest.raises(ConfigurationError):
        zipfian_indices(0, 10)
