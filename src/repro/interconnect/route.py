"""Routes: ordered sets of links between two endpoints, plus transfer logic.

A :class:`Route` carries messages from a source GPU to a destination GPU
over one or more links (e.g. GPU→switch→GPU).  A message moves in service
quanta, store-and-forward *per quantum*: each quantum occupies each link
only for that link's own service time, then moves to the next hop while
the following quantum takes its place.  Throughput is therefore gated by
the slowest hop, but faster hops stay free for other flows — exactly how
a transfer agent's thread-pool "throttle" can feed several destination
links concurrently.  Delivery latency is paid once, after the final
quantum.

Transfers run on engine callbacks, with no process per transfer or per
quantum: one :class:`_Flow` per transfer and one :class:`_Quantum` per
quantum in flight.  They put on the heap exactly the entries, at the
same times, priorities and relative order, that a transfer process
spawning one process per quantum would, minus three kinds that can have
no effect: the start of quanta after the first (each only waits on a
gate that cannot fire before it), the completion of every quantum but
the last (nobody waits on it), and the last quantum's per-hop gates (no
successor waits on them).  Results are therefore bit-identical to that
process chain; docs/MODELING.md lists the entries kept.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.interconnect.link import Link
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


@dataclass(frozen=True)
class TransferReceipt:
    """Summary of one completed route transfer."""

    src: int
    dst: int
    payload_bytes: int
    wire_bytes: int
    access_size: int
    start_time: float
    end_time: float

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


def check_transfer_args(payload_bytes: int, access_size: int) -> None:
    """Reject a negative payload or an access size below one byte."""
    if payload_bytes < 0:
        raise ConfigurationError(f"negative payload: {payload_bytes}")
    if access_size < 1:
        raise ConfigurationError(f"access size must be >= 1: {access_size}")


class Route:
    """A unidirectional path between two endpoints."""

    def __init__(self, engine: "Engine", src: int, dst: int,
                 links: Sequence[Link], latency: float) -> None:
        if not links:
            raise ConfigurationError(f"route {src}->{dst} has no links")
        if latency < 0:
            raise ConfigurationError(f"negative route latency: {latency}")
        self.engine = engine
        self.src = src
        self.dst = dst
        self.links = tuple(links)
        self.latency = latency
        self._quantum = min(link.quantum for link in self.links)
        # access_size -> per-hop (link, wire, service) plan for one full
        # quantum.
        self._full_plan_memo: dict = {}

    @property
    def bottleneck_bandwidth(self) -> float:
        """Raw wire bandwidth of the slowest link on the route."""
        return min(link.bandwidth for link in self.links)

    def transfer(self, payload_bytes: int, access_size: int) -> Event:
        """Send ``payload_bytes`` issued as ``access_size``-byte accesses.

        Returns an event whose value is a :class:`TransferReceipt`.
        """
        check_transfer_args(payload_bytes, access_size)
        done = Event(self.engine)
        flow = _Flow(self, payload_bytes, access_size, done)
        self.engine._resume_event(flow.start, True, None, False)
        return done

    def _hop_plan(self, quantum: int, access_size: int):
        """Per-hop ``(link, wire, service)`` for one ``quantum``-byte move.

        Each link frames the quantum with its own protocol overhead (a
        throttle pseudo-link has none; a PCIe link pays headers).
        """
        plan = []
        for link in self.links:
            wire = link.format.message_wire_bytes(quantum, access_size)
            plan.append((link, wire, link.service_time(wire)))
        return tuple(plan)


class _Flow:
    """One route transfer: cuts the payload into quanta and signs off.

    Quanta pipeline across hops: quantum k occupies hop h while quantum
    k+1 occupies hop h-1, so a multi-hop route still moves data at the
    slowest hop's rate while leaving faster hops free for other flows.
    Quantum k+1 may enter hop h only after quantum k's per-hop *gate*
    for h has fired, which keeps every link FIFO in quantum order.
    """

    __slots__ = ("route", "payload_bytes", "access_size", "done",
                 "start_time", "remaining", "full_plan", "tail_plan",
                 "wire_bytes")

    def __init__(self, route: Route, payload_bytes: int, access_size: int,
                 done: Event) -> None:
        self.route = route
        self.payload_bytes = payload_bytes
        self.access_size = access_size
        self.done = done

    def start(self, _event) -> None:
        """Transfer start: plan the quanta and start the first one."""
        route = self.route
        access_size = self.access_size
        self.start_time = route.engine.now
        self.remaining = self.payload_bytes
        full, tail = divmod(self.payload_bytes, route._quantum)
        self.wire_bytes = 0
        if full:
            # All quanta except a possible tail are exactly one full
            # quantum, so their per-hop plan is memoized per access size.
            plan = route._full_plan_memo.get(access_size)
            if plan is None:
                plan = route._full_plan_memo[access_size] = route._hop_plan(
                    route._quantum, access_size)
            self.full_plan = plan
            self.wire_bytes = full * max(wire for _link, wire, _s in plan)
        if tail:
            self.tail_plan = route._hop_plan(tail, access_size)
            self.wire_bytes += max(wire for _link, wire, _s in self.tail_plan)
        if self.payload_bytes == 0:
            self.finish(None)
            return
        route.engine._resume_event(self.next_quantum(None).request,
                                   True, None, False)

    def next_quantum(self, gates) -> "_Quantum":
        """The next quantum to send; ``gates`` as in :class:`_Quantum`."""
        step = self.route._quantum
        if self.remaining >= step:
            nbytes, plan = step, self.full_plan
        else:
            nbytes, plan = self.remaining, self.tail_plan
        self.remaining -= nbytes
        return _Quantum(self, nbytes, plan, gates)

    def delivered(self, _event) -> None:
        """The last quantum left the last hop: pay latency, then finish."""
        route = self.route
        if route.latency > 0:
            route.engine._sleep(route.latency).callbacks.append(self.finish)
        else:
            self.finish(None)

    def finish(self, _event) -> None:
        """Trace the transfer and fire the caller's event with a receipt."""
        route = self.route
        engine = route.engine
        tracer = engine.tracer
        if tracer.enabled:
            tracer.span(self.start_time, engine.now,
                        f"gpu{route.src}.transfer", f"->gpu{route.dst}",
                        payload={"bytes": self.payload_bytes,
                                 "wire_bytes": self.wire_bytes,
                                 "access_size": self.access_size})
        self.done.succeed(TransferReceipt(
            src=route.src,
            dst=route.dst,
            payload_bytes=self.payload_bytes,
            wire_bytes=self.wire_bytes,
            access_size=self.access_size,
            start_time=self.start_time,
            end_time=engine.now,
        ))


class _Quantum:
    """One quantum's journey across every hop of its flow's route.

    ``gates`` counts the predecessor quantum's per-hop gates that have
    fired (``None`` for a flow's first quantum, which waits on nothing);
    ``waiting`` is set while this quantum sits at hop ``gates`` for that
    gate.  ``succ`` is the successor, created when gate 0 fires.
    """

    __slots__ = ("flow", "nbytes", "plan", "gates", "hop", "service_start",
                 "last", "waiting", "succ")

    def __init__(self, flow: _Flow, nbytes: int, plan, gates) -> None:
        self.flow = flow
        self.nbytes = nbytes
        self.plan = plan
        self.gates = gates
        self.hop = 0
        self.last = flow.remaining == 0
        self.waiting = False
        self.succ = None

    def request(self, _event) -> None:
        """Queue for the current hop's link."""
        self.plan[self.hop][0].acquire(self.granted)

    def granted(self, event) -> None:
        """The link is ours: occupy it for this hop's service time."""
        self.service_start = event.engine.now
        event.engine._sleep(self.plan[self.hop][2]).callbacks.append(
            self.served)

    def served(self, event) -> None:
        """Service ended: account, release, open the gate, move on."""
        engine = event.engine
        plan = self.plan
        hop = self.hop
        link, wire, _service = plan[hop]
        link.account(self.service_start, engine.now, self.nbytes, wire)
        link.release()
        if not self.last:
            engine._sleep(0.0).callbacks.append(self.gate)
        hop = self.hop = hop + 1
        if hop == len(plan):
            if self.last:
                engine._sleep(0.0).callbacks.append(self.flow.delivered)
        elif self.gates is None:
            plan[hop][0].acquire(self.granted)
        elif self.gates > hop:
            # The predecessor's gate already fired: urgent bounce.
            engine._resume_event(self.request, True, None, False)
        else:
            self.waiting = True

    def gate(self, _event) -> None:
        """This quantum's next per-hop gate fired: wake the successor."""
        succ = self.succ
        if succ is None:
            self.succ = succ = self.flow.next_quantum(1)
            succ.request(None)
            return
        succ.gates += 1
        if succ.waiting:
            succ.waiting = False
            succ.request(None)


class LoopbackRoute(Route):
    """Zero-cost route from a GPU to itself (local 'transfers')."""

    def __init__(self, engine: "Engine", endpoint: int, fmt_link: Link) -> None:
        super().__init__(engine, endpoint, endpoint, [fmt_link], latency=0.0)

    def transfer(self, payload_bytes: int, access_size: int) -> Event:
        check_transfer_args(payload_bytes, access_size)
        event = Event(self.engine)
        event.succeed(TransferReceipt(
            src=self.src, dst=self.dst, payload_bytes=payload_bytes,
            wire_bytes=0, access_size=access_size,
            start_time=self.engine.now, end_time=self.engine.now))
        return event


class InfiniteRoute(Route):
    """A route with infinite bandwidth and zero latency (limit study).

    Used by the *Infinite Interconnect BW* paradigm from Section IV-B:
    transfers complete instantaneously but are still accounted.
    """

    def __init__(self, engine: "Engine", src: int, dst: int,
                 fmt_link: Link) -> None:
        super().__init__(engine, src, dst, [fmt_link], latency=0.0)

    def transfer(self, payload_bytes: int, access_size: int) -> Event:
        check_transfer_args(payload_bytes, access_size)
        event = Event(self.engine)
        tracer = self.engine.tracer
        if tracer.enabled:
            # Zero-width span: the transfer is instantaneous but still
            # visible (and accounted) on the source GPU's transfer lane.
            tracer.span(self.engine.now, self.engine.now,
                        f"gpu{self.src}.transfer", f"->gpu{self.dst}",
                        payload={"bytes": payload_bytes, "wire_bytes": 0,
                                 "access_size": access_size})
        event.succeed(TransferReceipt(
            src=self.src, dst=self.dst, payload_bytes=payload_bytes,
            wire_bytes=0, access_size=access_size,
            start_time=self.engine.now, end_time=self.engine.now))
        return event


def route_between(engine: "Engine", src: int, dst: int, links: Sequence[Link],
                  latency: float, infinite: bool = False) -> Route:
    """Factory used by topologies; picks the route flavour."""
    if infinite:
        return InfiniteRoute(engine, src, dst, links[0])
    return Route(engine, src, dst, links, latency)
