"""Unit tests for links, routes, and transfer accounting."""

import pytest

from repro.errors import ConfigurationError
from repro.interconnect import NVLINK_FORMAT, PCIE3_FORMAT, Link
from repro.interconnect.route import InfiniteRoute, LoopbackRoute, Route
from repro.sim import Engine


def make_link(engine, bandwidth=1e9, fmt=NVLINK_FORMAT, quantum=64 * 1024,
              name="test-link"):
    return Link(engine, name, bandwidth, fmt, quantum)


# ---------------------------------------------------------------------------
# Link basics
# ---------------------------------------------------------------------------

def test_link_rejects_bad_parameters():
    engine = Engine()
    with pytest.raises(ConfigurationError):
        Link(engine, "l", 0.0, NVLINK_FORMAT)
    with pytest.raises(ConfigurationError):
        Link(engine, "l", 1e9, NVLINK_FORMAT, quantum=0)


def test_link_service_time():
    engine = Engine()
    link = make_link(engine, bandwidth=1e9)
    assert link.service_time(1_000_000) == pytest.approx(1e-3)


def test_link_efficiency_accounting():
    engine = Engine()
    link = make_link(engine)
    assert link.efficiency() == 0.0
    link.account(0.0, 1.0, goodput=80, wire=100)
    assert link.efficiency() == pytest.approx(0.8)
    assert link.utilization(over_seconds=2.0) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Route transfers
# ---------------------------------------------------------------------------

def test_route_transfer_duration_includes_overhead_and_latency():
    engine = Engine()
    link = make_link(engine, bandwidth=1e9, quantum=1 << 30)
    route = Route(engine, 0, 1, [link], latency=1e-6)
    payload = 256 * 1024
    done = route.transfer(payload, access_size=256)
    receipt = engine.run(until=done)
    wire = NVLINK_FORMAT.message_wire_bytes(payload, 256)
    assert receipt.wire_bytes == wire
    assert receipt.duration == pytest.approx(wire / 1e9 + 1e-6)


def test_route_transfer_fine_grained_is_slower():
    def timed(access_size):
        engine = Engine()
        link = make_link(engine, bandwidth=1e9)
        route = Route(engine, 0, 1, [link], latency=0.0)
        done = route.transfer(1024 * 1024, access_size=access_size)
        receipt = engine.run(until=done)
        return receipt.duration

    assert timed(4) > 5 * timed(256)


def test_route_two_links_bottlenecked_by_slowest():
    engine = Engine()
    fast = make_link(engine, bandwidth=10e9, name="fast")
    slow = make_link(engine, bandwidth=1e9, name="slow")
    route = Route(engine, 0, 1, [fast, slow], latency=0.0)
    assert route.bottleneck_bandwidth == 1e9
    done = route.transfer(1024 * 1024, access_size=256)
    receipt = engine.run(until=done)
    wire = NVLINK_FORMAT.message_wire_bytes(1024 * 1024, 256)
    assert receipt.duration == pytest.approx(wire / 1e9, rel=0.01)


def test_concurrent_transfers_share_link():
    engine = Engine()
    link = make_link(engine, bandwidth=1e9, quantum=16 * 1024)
    route = Route(engine, 0, 1, [link], latency=0.0)
    payload = 512 * 1024
    done_a = route.transfer(payload, access_size=256)
    done_b = route.transfer(payload, access_size=256)
    both = engine.all_of([done_a, done_b])
    engine.run(until=both)
    wire = NVLINK_FORMAT.message_wire_bytes(payload, 256)
    # Two equal flows on one link take twice the solo time in total.
    assert engine.now == pytest.approx(2 * wire / 1e9, rel=0.02)
    # And they interleave: both complete near the end, not one at halftime.
    assert done_a.value.end_time > 0.9 * engine.now


def test_transfer_accounts_link_stats():
    engine = Engine()
    link = make_link(engine)
    route = Route(engine, 0, 1, [link], latency=0.0)
    engine.run(until=route.transfer(100_000, access_size=128))
    assert link.goodput_bytes == 100_000
    assert link.wire_bytes == NVLINK_FORMAT.message_wire_bytes(100_000, 128)
    assert 0.0 < link.efficiency() < 1.0


def test_zero_byte_transfer_completes_immediately():
    engine = Engine()
    link = make_link(engine)
    route = Route(engine, 0, 1, [link], latency=1e-6)
    receipt = engine.run(until=route.transfer(0, access_size=128))
    assert receipt.payload_bytes == 0
    assert receipt.wire_bytes == 0
    assert engine.now == 0.0  # no latency charged when nothing moves


def test_route_validation():
    engine = Engine()
    link = make_link(engine)
    with pytest.raises(ConfigurationError):
        Route(engine, 0, 1, [], latency=0.0)
    with pytest.raises(ConfigurationError):
        Route(engine, 0, 1, [link], latency=-1.0)
    route = Route(engine, 0, 1, [link], latency=0.0)
    with pytest.raises(ConfigurationError):
        route.transfer(-1, access_size=4)
    with pytest.raises(ConfigurationError):
        route.transfer(100, access_size=0)


@pytest.mark.parametrize("make_route", [
    lambda engine, link: Route(engine, 0, 1, [link], latency=0.0),
    lambda engine, link: InfiniteRoute(engine, 0, 1, link),
    lambda engine, link: LoopbackRoute(engine, 0, link),
], ids=["route", "infinite", "loopback"])
def test_every_route_flavour_validates_its_arguments(make_route):
    engine = Engine()
    route = make_route(engine, make_link(engine))
    with pytest.raises(ConfigurationError, match="negative payload"):
        route.transfer(-5, access_size=4)
    with pytest.raises(ConfigurationError, match="access size"):
        route.transfer(100, access_size=0)
    assert engine.events_scheduled == 0


def test_infinite_route_is_instantaneous():
    engine = Engine()
    link = make_link(engine)
    route = InfiniteRoute(engine, 0, 1, link)
    receipt = engine.run(until=route.transfer(1 << 30, access_size=4))
    assert engine.now == 0.0
    assert receipt.payload_bytes == 1 << 30
    assert receipt.wire_bytes == 0


def test_pcie_format_transfer_uses_pcie_framing():
    engine = Engine()
    link = make_link(engine, fmt=PCIE3_FORMAT)
    route = Route(engine, 0, 1, [link], latency=0.0)
    engine.run(until=route.transfer(4096, access_size=4))
    assert link.wire_bytes == PCIE3_FORMAT.message_wire_bytes(4096, 4)
