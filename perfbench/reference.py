"""A fixed host-speed reference for calibrating the benchmark's times.

A shared host's speed drifts: on a 2-vCPU VM the same op took 1.5 to 2x
longer in one minute than in another, and the spread of raw host times
over ten runs was larger than any bound a benchmark could hold a change
to.  Two different simulator ops slow down together, though: the ratio of
their times, each taken next to the other, barely moves.  So the
benchmark times each op between two runs of :func:`reference` and scales
the op's host seconds by how much slower the reference ran than
:data:`REFERENCE_S`.

The reference is a small fluid-network discrete-event model written
here against the standard library only.  It has the simulator's
character (a heap of timed events, generator processes, plain objects
with per-event attribute and dict work, a processor-sharing pool
rescanned at every launch and finish) but imports
nothing from ``repro``, so no change to the simulator can speed it up
and hide its own gain.  It is frozen: changing it changes every
calibrated number, like changing the workloads.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from typing import Dict, Iterator, List, Tuple

#: Host seconds one :func:`reference` call is scaled to.  Calibrated times
#: are host seconds on a host where the reference takes exactly this long
#: (about what it took on an unloaded 2-vCPU Xeon VM).
REFERENCE_S = 0.1
#: What :func:`reference` returns: (events fired, bytes over all links).
EXPECTED = (10258, 372768768)


class _Event:
    def __init__(self, when: float, callback, payload) -> None:
        self.when = when
        self.callback = callback
        self.payload = payload


class _Engine:
    def __init__(self) -> None:
        self.now = 0.0
        self.fired = 0
        self._heap: List[Tuple[float, int, _Event]] = []
        self._seq = itertools.count()

    def schedule(self, delay: float, callback, payload=None) -> None:
        event = _Event(self.now + delay, callback, payload)
        heapq.heappush(self._heap, (event.when, next(self._seq), event))

    def process(self, gen: Iterator[float]) -> None:
        self.schedule(0.0, self._resume, gen)

    def _resume(self, gen: Iterator[float]) -> None:
        try:
            delay = next(gen)
        except StopIteration:
            return
        self.schedule(delay, self._resume, gen)

    def run(self) -> None:
        heap = self._heap
        while heap:
            when, _seq, event = heapq.heappop(heap)
            self.now = when
            self.fired += 1
            event.callback(event.payload)


class _Link:
    def __init__(self, bandwidth: float) -> None:
        self.bandwidth = bandwidth
        self.flows: Dict[int, "_Flow"] = {}
        self.bytes = 0

    def share(self) -> float:
        return self.bandwidth / max(1, len(self.flows))


class _Flow:
    def __init__(self, fid: int, route: List[_Link], nbytes: int) -> None:
        self.fid = fid
        self.route = route
        self.remaining = nbytes
        self.sent: List[Tuple[float, int]] = []


def _sender(engine: _Engine, flow: _Flow, chunk: int,
            by_hops: Dict[int, int]) -> Iterator[float]:
    hops = len(flow.route)
    while flow.remaining > 0:
        size = min(chunk, flow.remaining)
        for link in flow.route:
            link.flows[flow.fid] = flow
        yield size / min(link.share() for link in flow.route)
        for link in flow.route:
            link.bytes += size
            del link.flows[flow.fid]
        flow.remaining -= size
        flow.sent.append((engine.now, size))
        by_hops[hops] = by_hops.get(hops, 0) + size


class _Task:
    def __init__(self, work: float, demand: float) -> None:
        self.work = work
        self.demand = demand
        self.consumed = 0.0
        self.rate = 0.0


def _fluid(tasks: int, resident: int, rng: random.Random) -> int:
    """Processor sharing: ``resident`` tasks at a time share one unit of
    capacity; each launch and finish advances and rebalances every task."""
    active: List[_Task] = []
    now = last = 0.0
    done = 0
    pending = [_Task(rng.uniform(1e-4, 1e-3), rng.choice((0.0625, 0.25, 1.0)))
               for _ in range(tasks)]
    pending.reverse()
    while pending or active:
        while pending and len(active) < resident:
            active.append(pending.pop())
        elapsed = now - last
        for task in active:
            task.consumed += task.rate * elapsed
        last = now
        demand = sum(task.demand for task in active)
        slowdown = max(1.0, demand)
        for task in active:
            task.rate = 1.0 / slowdown
        finishing = min(active, key=lambda t: (t.work - t.consumed) / t.rate)
        now += max(0.0, (finishing.work - finishing.consumed) / finishing.rate)
        active.remove(finishing)
        done += 1
    return done


def reference() -> Tuple[int, int]:
    """Run the model once; returns (events fired, bytes over all links).

    230 flows of 256 KiB to 1 MiB, in 16 KiB chunks, cross 1 to 4 of 96
    links; then 900 tasks pass through a pool that holds 400 at a time.
    """
    rng = random.Random(7)
    engine = _Engine()
    net = [_Link(25e9 * (1 + i % 3)) for i in range(96)]
    by_hops: Dict[int, int] = {}
    for fid in range(230):
        route = rng.sample(net, 1 + fid % 4)
        flow = _Flow(fid, route, 64 * 1024 * (4 + fid % 13))
        engine.process(_sender(engine, flow, 16 * 1024, by_hops))
    engine.run()
    finished = _fluid(900, 400, rng)
    return engine.fired + finished, sum(link.bytes for link in net)


def reference_seconds() -> float:
    """Host seconds of one :func:`reference` call, checked."""
    start = time.perf_counter()
    result = reference()
    elapsed = time.perf_counter() - start
    if result != EXPECTED:
        raise RuntimeError(f"host-speed reference returned {result}, "
                           f"expected {EXPECTED}")
    return elapsed
