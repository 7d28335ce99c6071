"""Tuning-as-a-service under load: hit rate, coalescing, latency tiers.

The ROADMAP's north star is serving the profiler itself under heavy
traffic.  This harness stands up a :class:`~repro.service.TuningService`
per shard count, replays a reproducible zipfian signature mix from
concurrent client threads, and tabulates what the service layer buys:
the cache absorbs the head of the distribution (hit rate), identical
in-flight queries coalesce onto one sweep (sweeps == unique signatures),
and the hit path answers orders of magnitude faster than a sweep.

Correctness is asserted, not tabulated: every unique query's served
plan must be byte-identical (pickle) to the direct
``Session.profile`` / ``Session.plan_collective`` path — any divergence
raises and fails the suite, exactly like the autotune harness treats a
search-vs-brute disagreement.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ThreadPoolExecutor
from typing import List, Sequence, Tuple

from repro.api import Session
from repro.errors import ProactError
from repro.experiments.registry import ExperimentContext, ExperimentResult
from repro.experiments.report import TextTable
from repro.service import (
    CollectiveQuery,
    ProfileQuery,
    QueryMix,
    ThreadedTuningService,
    TuningQuery,
)
from repro.units import KiB, MiB
from repro.workloads import JacobiWorkload, PageRankWorkload

#: Client threads replaying the mix (concurrency, not parallelism).
CLIENT_THREADS = 4

PLATFORM = "4x_volta"


def query_universe() -> List[TuningQuery]:
    """A small, cheap, diverse signature universe (9 entries)."""
    pagerank = PageRankWorkload(num_vertices=2_000_000,
                                num_edges=60_000_000, iterations=1)
    jacobi = JacobiWorkload(num_unknowns=2_000_000, bandwidth=20,
                            iterations=1)
    universe: List[TuningQuery] = []
    for workload in (pagerank, jacobi):
        for chunks in ((128 * KiB,), (128 * KiB, 1 * MiB),
                       (256 * KiB, 4 * MiB)):
            universe.append(ProfileQuery(
                PLATFORM, workload, strategy="exhaustive",
                chunk_sizes=chunks, thread_counts=(1024, 4096),
                mechanisms=("polling", "cdp")))
    for nbytes in (64 * KiB, 4 * MiB, 64 * MiB):
        universe.append(CollectiveQuery(
            PLATFORM, "all_reduce", nbytes,
            chunk_sizes=(128 * KiB, 1 * MiB)))
    return universe


def _replay(service: ThreadedTuningService, mix: QueryMix) -> float:
    """Replay the mix from client threads; returns wall seconds."""
    import time
    queries = list(mix)
    started = time.perf_counter()
    with ThreadPoolExecutor(CLIENT_THREADS) as pool:
        for result in pool.map(service.query, queries):
            assert result.plan is not None
    return time.perf_counter() - started


def _check_plans_identical(service: ThreadedTuningService,
                           universe: Sequence[TuningQuery]) -> int:
    """Every cached plan must equal the direct Session path, bytewise."""
    session = Session(PLATFORM)
    checked = 0
    for query in universe:
        served = service.query(query)
        if served.outcome != "hit":
            continue  # not drawn by this mix; nothing cached to check
        if isinstance(query, ProfileQuery):
            direct = session.profile(
                query.workload, strategy=query.strategy,
                chunk_sizes=query.chunk_sizes,
                thread_counts=query.thread_counts,
                mechanisms=query.mechanisms).best_config
        else:
            direct = session.plan_collective(
                query.collective, query.nbytes,
                algorithms=query.algorithms,
                chunk_sizes=query.chunk_sizes)
        if pickle.dumps(served.plan) != pickle.dumps(direct):
            raise ProactError(
                f"service plan diverged from the direct path for "
                f"{served.signature}: {served.plan!r} != {direct!r}")
        checked += 1
    return checked


def run(quick: bool = True) -> Tuple[TextTable, TextTable, dict]:
    universe = query_universe()
    count = 80 if quick else 240
    shard_counts = (1, 2) if quick else (1, 2, 4)

    load = TextTable(
        title=f"Tuning service under a zipfian mix ({PLATFORM}, "
              f"{len(universe)}-signature universe, {count} queries, "
              f"{CLIENT_THREADS} client threads)",
        columns=["shards", "queries", "sweeps", "hit rate", "qps",
                 "hit p50 (us)", "hit p99 (us)", "miss p50 (ms)"])
    scalars = {}
    for shards in shard_counts:
        mix = QueryMix.zipfian(universe, count, seed=7 + shards)
        with ThreadedTuningService(shards=shards) as service:
            elapsed = _replay(service, mix)
            stats = service.stats()
            checked = _check_plans_identical(service, universe)
            hit = stats["latency_s"].get("hit", {})
            miss = stats["latency_s"].get("miss", {})
        sweeps = int(stats["sweeps"])
        if sweeps > mix.unique_queries:
            raise ProactError(
                f"coalescing failed at {shards} shard(s): {sweeps} "
                f"sweeps for {mix.unique_queries} unique signatures")
        load.add_row(
            shards, len(mix), sweeps, f"{stats['hit_rate']:.2f}",
            f"{len(mix) / elapsed:.0f}",
            f"{hit.get('p50', 0.0) * 1e6:.0f}",
            f"{hit.get('p99', 0.0) * 1e6:.0f}",
            f"{miss.get('p50', 0.0) * 1e3:.2f}")
        scalars[f"qps_{shards}shard"] = len(mix) / elapsed
        scalars[f"hit_rate_{shards}shard"] = stats["hit_rate"]
        scalars[f"sweeps_{shards}shard"] = float(sweeps)
        scalars[f"plans_checked_{shards}shard"] = float(checked)

    # Coalescing fan-in: N concurrent identical queries, one sweep.
    fanin = 8
    probe = universe[0]
    with ThreadedTuningService(shards=2) as service:
        with ThreadPoolExecutor(fanin) as pool:
            outcomes = [r.outcome for r in
                        pool.map(service.query, [probe] * fanin)]
        coalesce_sweeps = int(service.stats()["sweeps"])
    if coalesce_sweeps != 1:
        raise ProactError(
            f"{fanin} identical concurrent queries ran "
            f"{coalesce_sweeps} sweeps (expected 1): {outcomes}")
    coalesce = TextTable(
        title=f"Coalescing fan-in ({fanin} identical concurrent queries)",
        columns=["outcome", "count"])
    for outcome in ("miss", "coalesced", "hit"):
        coalesce.add_row(outcome, outcomes.count(outcome))
    scalars["coalesce_requests"] = float(fanin)
    scalars["coalesce_sweeps"] = float(coalesce_sweeps)
    return load, coalesce, scalars


def experiment(ctx: ExperimentContext) -> ExperimentResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    load, coalesce, scalars = run(quick=ctx.quick)
    return ExperimentResult.build(
        "service", "Tuning service", [load, coalesce], scalars)
