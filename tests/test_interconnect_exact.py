"""Exactness pins for route transfers: receipts and link accounting.

Every scenario below replays a fixed set of transfers and records, as
``repr`` strings, each receipt's start/end time (in completion order) and
each link's wire bytes, goodput bytes and raw busy intervals (in
accounting order).  ``tests/data/route_golden.json`` holds the expected
values; any change to when a quantum is granted a link, how long it holds
it, or in which order same-instant events fire shows up as a diff here.

Regenerate the golden file only for an intended model change::

    PYTHONPATH=src python tests/test_interconnect_exact.py --regen
"""

import json
import os
import sys

import pytest

from repro.cluster import HDR200_NIC, NodeSpec, cluster_platform
from repro.cluster.fabric import ClusterFabric
from repro.hw.specs import VOLTA_V100
from repro.interconnect import NVLINK_FORMAT, PCIE3, Fabric, Link
from repro.interconnect.route import Route
from repro.interconnect.specs import NVLINK2_CUBE_MESH, NVSWITCH
from repro.sim import Engine

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "route_golden.json")

KIB = 1024
QUANTUM = 64 * KIB

#: A 4-GPU node keeps the 9-node fat tree small; GPU 0 -> GPU 35 crosses
#: pods, so its route has six hops (switch, NIC, core up/down, NIC, switch).
QUAD_NODE = NodeSpec(name="quad", gpu=VOLTA_V100, interconnect=NVSWITCH,
                     gpus_per_node=4, nic=HDR200_NIC)


def _replay(engine, links, sends):
    """Start every ``(label, start_fn)`` now, run, and record the result."""
    done = []
    for label, start in sends:
        event = start()
        event.callbacks.append(
            lambda ev, label=label: done.append((label, ev.value)))
    engine.run()
    return {
        "receipts": [
            {"label": label, "payload_bytes": r.payload_bytes,
             "wire_bytes": r.wire_bytes, "start": repr(r.start_time),
             "end": repr(r.end_time)}
            for label, r in done],
        "links": {
            link.name: {
                "wire_bytes": link.wire_bytes,
                "goodput_bytes": link.goodput_bytes,
                "busy": [[repr(s), repr(e)] for s, e in link.busy.intervals]}
            for link in links if link.wire_bytes or link.busy.intervals},
        "end": repr(engine.now),
    }


def shared_pcie_uplink():
    """Three flows from GPU 0 on 4x Kepler PCIe, all issued at t=0."""
    engine = Engine()
    fabric = Fabric(engine, PCIE3, num_gpus=4)
    sends = [
        ("0->1", lambda: fabric.send(0, 1, 3 * QUANTUM + 1000, 128)),
        ("0->2", lambda: fabric.send(0, 2, 2 * QUANTUM, 32)),
        ("0->3", lambda: fabric.send(0, 3, 100_000, 4)),
    ]
    return _replay(engine, fabric.links, sends)


def cube_mesh_two_hop():
    """0 -> 5 routes 0 -> 1 -> 5; a 1 -> 5 flow contends for hop two."""
    engine = Engine()
    fabric = Fabric(engine, NVLINK2_CUBE_MESH, num_gpus=8)
    assert len(fabric.route(0, 5).links) == 2
    sends = [
        ("0->5", lambda: fabric.send(0, 5, 5 * QUANTUM + 1234, 128)),
        ("1->5", lambda: fabric.send(1, 5, QUANTUM + 7, 64)),
    ]
    return _replay(engine, fabric.links, sends)


def cluster_cross_pod():
    """A six-hop cross-pod route plus an intra-node flow sharing hop one."""
    engine = Engine()
    fabric = ClusterFabric(engine, cluster_platform(9, node=QUAD_NODE))
    assert len(fabric.route(0, 35).links) >= 5
    access = fabric.collective_access_size
    sends = [
        ("0->35", lambda: fabric.send(0, 35, 4 * QUANTUM + 300, access)),
        ("0->1", lambda: fabric.send(0, 1, 2 * QUANTUM, access)),
        ("4->35", lambda: fabric.send(4, 35, QUANTUM, access)),
    ]
    return _replay(engine, fabric.links, sends)


def zero_payload():
    """A zero-byte send completes at once, pays no latency, moves nothing."""
    engine = Engine()
    fabric = Fabric(engine, PCIE3, num_gpus=4)
    sends = [
        ("empty", lambda: fabric.send(0, 1, 0, 128)),
        ("after", lambda: fabric.send(0, 1, QUANTUM, 128)),
    ]
    return _replay(engine, fabric.links, sends)


def _link(engine, name, bandwidth):
    return Link(engine, name, bandwidth, NVLINK_FORMAT)


def zero_latency():
    """Two hops, no latency: the receipt fires right after the last quantum."""
    engine = Engine()
    links = [_link(engine, "a->b", 40e9), _link(engine, "b->c", 20e9)]
    route = Route(engine, 0, 1, links, latency=0.0)
    sends = [("0->1", lambda: route.transfer(3 * QUANTUM + 5, 256))]
    return _replay(engine, links, sends)


def gate_bounce():
    """Slow first hop, fast second hop.

    Each quantum finishes hop two long before its successor finishes hop
    one, so the successor reaches a gate that has already fired.
    """
    engine = Engine()
    links = [_link(engine, "slow", 5e9), _link(engine, "fast", 50e9)]
    route = Route(engine, 0, 1, links, latency=2e-6)
    sends = [("0->1", lambda: route.transfer(4 * QUANTUM + 99, 128))]
    return _replay(engine, links, sends)


SCENARIOS = {
    "shared_pcie_uplink": shared_pcie_uplink,
    "cube_mesh_two_hop": cube_mesh_two_hop,
    "cluster_cross_pod": cluster_cross_pod,
    "zero_payload": zero_payload,
    "zero_latency": zero_latency,
    "gate_bounce": gate_bounce,
}


def _golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_golden_covers_every_scenario():
    assert sorted(_golden()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden(name):
    assert SCENARIOS[name]() == _golden()[name]


def test_single_hop_transfer_fires_exact_event_count():
    # One transfer of N quanta over one link with latency fires: the
    # transfer start, the first quantum's start, per quantum a grant and
    # a service end, a done gate for each of the N-1 quanta that have a
    # successor, the last quantum's completion, the latency sleep, and
    # the receipt: 3N + 4 events.
    engine = Engine()
    link = _link(engine, "a->b", 25e9)
    route = Route(engine, 0, 1, [link], latency=1e-6)
    n = 4
    engine.run(until=route.transfer(n * QUANTUM, 128))
    assert engine.events_fired == 3 * n + 4
    assert engine.events_scheduled == engine.events_fired


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    with open(GOLDEN, "w") as out:
        json.dump({name: build() for name, build in SCENARIOS.items()},
                  out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"wrote {GOLDEN}")
