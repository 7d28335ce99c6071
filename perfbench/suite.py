"""The benchmark's four workloads: their ops, their inputs per seed, and
the checks on their simulated outputs.

An *op* is one top-level :class:`repro.Session` call (``run``,
``profile`` or ``collective``).  A workload is a fixed list of ops; one
*pass* issues every op once, serially, each after the previous returns.

Inputs come from the seed alone.  Without a seed, the paper-scale
inputs run, and their simulated outputs are pinned in ``pins.json``.
Any seed draws each app's size and the collective payload independently
from a narrow band around :data:`SEEDED_SCALE` of paper scale; those
outputs are checked by the repository's differential oracle instead of
the pin.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

#: Size factor, relative to paper scale, around which other seeds draw
#: their inputs.  A tenth keeps every op near a host second, so a run
#: times each op in many passes and its median is steady.
SEEDED_SCALE = 0.1
#: Half-width of the band each seeded size factor is drawn from.  Narrow,
#: so host time compares across seeds; wide enough that each seed's
#: sizes and chunk counts are its own.
SCALE_JITTER = 0.02

WORKLOADS = ("autotune-volta", "cdp-kepler", "baselines-volta",
             "allreduce-cluster64")

#: Paper-scale size parameters of each app, and the power of the size
#: factor each scales with (an image side scales with its square root).
_APP_SIZES = {
    "XrayCtWorkload": {"image_side": (2048, 0.5)},
    "JacobiWorkload": {"num_unknowns": (8_000_000, 1.0)},
    "PageRankWorkload": {"num_vertices": (13_600_000, 1.0),
                         "num_edges": (437_000_000, 1.0)},
    "SsspWorkload": {"num_vertices": (2_017_169, 1.0),
                     "num_edges": (283_073_458, 1.0)},
    "AlsWorkload": {"num_users": (500_000, 1.0),
                    "num_items": (500_000, 1.0),
                    "num_ratings": (283_000_000, 1.0)},
}
#: The collective payload at paper scale, and its granularity (a whole
#: number of bytes per GPU on 64 GPUs).
_PAYLOAD = 16 << 20
_PAYLOAD_GRAIN = 16 << 10


@dataclass
class Op:
    """One top-level Session call and how to judge its result."""

    key: str
    call: Callable[[], Any]
    #: Simulated outputs of a result, as JSON-able values (floats by repr).
    outputs: Callable[[Any], Dict[str, Any]]
    #: Re-checks a result with the differential oracle; raises on a
    #: mismatch.  Used for seeds whose outputs are not pinned.
    oracle: Callable[[Any], None]


class Inputs:
    """Size factors drawn from one seed (``None``: paper scale), or forced
    to ``scale`` for tiny test runs."""

    def __init__(self, seed: Optional[int],
                 scale: Optional[float] = None) -> None:
        self.seed = seed
        self._rng = random.Random(seed) if seed is not None else None
        self._scale = scale

    def factor(self) -> float:
        if self._scale is not None:
            return self._scale
        if self._rng is None:
            return 1.0
        return SEEDED_SCALE * (1 + self._rng.uniform(-SCALE_JITTER,
                                                     SCALE_JITTER))

    def app(self, cls):
        factor = self.factor()
        sizes = {name: max(1, round(base * factor ** power))
                 for name, (base, power) in _APP_SIZES[cls.__name__].items()}
        return cls(**sizes)

    def payload(self) -> int:
        factor = self.factor()
        if self._scale is None and self._rng is not None:
            # Seeded payloads stay at or below the SEEDED_SCALE one.  Up to
            # a quarter of paper scale every GPU's ring shard fits one
            # 64 KiB link quantum; a shard just past it takes two, which
            # would double the collective's events on some seeds and not
            # on others.
            factor = SEEDED_SCALE - abs(factor - SEEDED_SCALE)
        grains = round(_PAYLOAD * factor / _PAYLOAD_GRAIN)
        return max(1, grains) * _PAYLOAD_GRAIN


def _float(value: float) -> str:
    return repr(float(value))


def _run_outputs(result) -> Dict[str, Any]:
    return {"runtime": _float(result.runtime),
            "goodput_bytes": result.bytes_moved,
            "wire_bytes": result.wire_bytes}


def _profile_outputs(result) -> Dict[str, Any]:
    return {"best": result.best_config.label(),
            "runtime": _float(result.best.runtime),
            "entries": [[entry.config.label(), _float(entry.runtime)]
                        for entry in result.entries]}


def _collective_outputs(result) -> Dict[str, Any]:
    return {"bus_bandwidth": _float(result.bus_bandwidth),
            "sent_bytes": list(result.sent_bytes)}


def _expect(what: str, got, want) -> None:
    if got != want:
        raise AssertionError(f"{what}: got {got!r}, expected {want!r}")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _autotune_volta(inputs: Inputs) -> List[Op]:
    from repro import Session
    from repro.core.config import MECH_INLINE
    from repro.experiments.autotune import (SWEEP_CHUNK_SIZES,
                                            SWEEP_THREAD_COUNTS)
    from repro.validate.oracle import DifferentialOracle
    from repro.workloads import JacobiWorkload, PageRankWorkload

    session = Session("4x_volta")

    def op(workload) -> Op:
        def call():
            return session.profile(workload, strategy="search",
                                   chunk_sizes=SWEEP_CHUNK_SIZES,
                                   thread_counts=SWEEP_THREAD_COUNTS)

        def oracle(result) -> None:
            _expect("best runtime", result.best.runtime,
                    min(entry.runtime for entry in result.entries))
            decoupled = min((e for e in result.entries
                             if e.config.mechanism != MECH_INLINE),
                            key=lambda e: e.runtime)
            report = DifferentialOracle(decoupled.config).compare_paradigms(
                workload, session.platform)
            _expect(f"{decoupled.config.label()} runtime", decoupled.runtime,
                    report.results["PROACT-decoupled"].runtime)
            for entry in result.entries:
                if entry.config.mechanism == MECH_INLINE:
                    _expect("inline runtime", entry.runtime,
                            report.results["PROACT-inline"].runtime)

        return Op(f"profile:{workload.name}", call, _profile_outputs, oracle)

    return [op(inputs.app(PageRankWorkload)), op(inputs.app(JacobiWorkload))]


def _cdp_kepler(inputs: Inputs) -> List[Op]:
    from repro import Session
    from repro.core.config import MECH_CDP, ProactConfig
    from repro.units import KiB
    from repro.validate.oracle import DifferentialOracle
    from repro.workloads import JacobiWorkload, PageRankWorkload

    session = Session("4x_kepler")
    config = ProactConfig(MECH_CDP, 16 * KiB, 256)

    def op(workload) -> Op:
        def oracle(result) -> None:
            oracle_result = DifferentialOracle(config).compare_paradigms(
                workload, session.platform).results["PROACT-decoupled"]
            _expect("outputs", _run_outputs(result),
                    _run_outputs(oracle_result))

        return Op(f"decoupled:{workload.name}",
                  lambda: session.run(workload, "decoupled", config=config),
                  _run_outputs, oracle)

    return [op(inputs.app(PageRankWorkload)), op(inputs.app(JacobiWorkload))]


#: Oracle paradigm names for the baselines it replays itself.
_ORACLE_NAMES = {"memcpy": "cudaMemcpy", "um": "UM"}


def _baselines_volta(inputs: Inputs) -> List[Op]:
    from repro import Session
    from repro.validate.oracle import DifferentialOracle
    from repro.workloads import PAPER_WORKLOADS

    session = Session("4x_volta")
    reports: Dict[str, Any] = {}

    def report_for(workload):
        # One oracle replay per app serves its three ops.
        if workload.name not in reports:
            reports[workload.name] = DifferentialOracle().compare_paradigms(
                workload, session.platform)
        return reports[workload.name]

    def op(workload, paradigm: str) -> Op:
        def oracle(result) -> None:
            results = report_for(workload).results
            if paradigm in _ORACLE_NAMES:
                _expect("outputs", _run_outputs(result),
                        _run_outputs(results[_ORACLE_NAMES[paradigm]]))
                return
            floor = results["Infinite BW"].runtime
            if not result.runtime >= floor:
                raise AssertionError(
                    f"{paradigm} runtime {result.runtime!r} beats the "
                    f"infinite-bandwidth bound {floor!r}")
            if result.wire_bytes < result.bytes_moved:
                raise AssertionError(
                    f"{paradigm} carried {result.bytes_moved} goodput "
                    f"bytes in {result.wire_bytes} wire bytes")

        return Op(f"{paradigm}:{workload.name}",
                  lambda: session.run(workload, paradigm), _run_outputs,
                  oracle)

    apps = [inputs.app(cls) for cls in PAPER_WORKLOADS]
    return [op(workload, paradigm) for workload in apps
            for paradigm in ("memcpy", "um", "p2p")]


def _allreduce_cluster64(inputs: Inputs) -> List[Op]:
    from repro import Session
    from repro.collectives.algorithms import build_schedule
    from repro.units import MiB
    from repro.validate.oracle import DifferentialOracle

    chunk = 1 * MiB
    nbytes = inputs.payload()

    def op(platform: str, algorithm: str) -> Op:
        session = Session(platform)
        # The schedule the op must execute; its per-GPU bytes are the
        # expected output on every seed.
        schedule = build_schedule(
            "all_reduce", algorithm, session.platform.num_gpus, nbytes,
            chunk, gpus_per_node=session.platform.gpus_per_node)
        expected_sent = list(schedule.per_gpu_sent_bytes())

        def oracle(result) -> None:
            checked = DifferentialOracle().check_collective(
                session.platform, "all_reduce", algorithm, nbytes,
                chunk_size=chunk)
            _expect("outputs", _collective_outputs(result),
                    _collective_outputs(checked))

        def outputs(result) -> Dict[str, Any]:
            _expect("per-GPU sent bytes vs schedule",
                    list(result.sent_bytes), expected_sent)
            return _collective_outputs(result)

        return Op(f"{algorithm}:{platform}",
                  lambda: session.collective("all_reduce", nbytes,
                                             algorithm=algorithm,
                                             chunk_size=chunk),
                  outputs, oracle)

    return [op("64x_volta_fat_tree", "ring"),
            op("64x_volta_fat_tree", "hierarchical"),
            op("64x_volta_torus_2d", "hierarchical")]


_BUILDERS = {
    "autotune-volta": _autotune_volta,
    "cdp-kepler": _cdp_kepler,
    "baselines-volta": _baselines_volta,
    "allreduce-cluster64": _allreduce_cluster64,
}


def build(workload: str, seed: Optional[int],
          scale: Optional[float] = None) -> List[Op]:
    """The ops of ``workload`` for ``seed`` (``scale`` forces a size)."""
    return _BUILDERS[workload](Inputs(seed, scale))
