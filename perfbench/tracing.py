"""Instrumentation for the benchmark's traced run.

Nothing here edits the simulator: :class:`Tracer` patches public
classes from the outside for the duration of one traced pass and
restores them afterwards.  It produces three things:

* **self time per layer** — the standard library's deterministic
  profiler runs around each op, and its per-function self time is
  grouped by ``repro.<package>`` (``core/profiler.py`` is its own
  ``core.profiler`` layer).  This also catches generator resumes and
  engine callbacks, which run layer code no wrapper would see;
* **spans** — one per op (``Session.run`` / ``.profile`` /
  ``.collective``) plus one per call of ``Paradigm.execute``,
  ``Profiler.profile``, ``Engine.run``, ``build_schedule`` and each
  workload's phase builder, each with name, start, end, parent and op
  id, kept in memory and written out when the run ends;
* **counts** — read from public attributes after each op (engine event
  counters, fabric byte totals, device CDP launch counts, agent stats,
  profile and collective results), plus call counts of a few public
  methods.
"""

from __future__ import annotations

import cProfile
import collections
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers in report order; ``other`` is everything outside them
#: (stdlib, builtins, numpy, and repro's api/obs/validate glue).
LAYERS = ("sim", "hw", "interconnect", "core", "core.profiler", "runtime",
          "paradigms", "workloads", "collectives", "cluster", "other")

#: Process kinds, by the prefix of the name a process is started with.
PROCESS_KINDS = ("quantum", "xfer", "poll-send", "cdp-send", "kernel",
                 "phase-gpu", "proact-phase", "memcpy", "um-fault",
                 "um-prefetch", "p2p-reads", "collop")

_HERE = os.path.dirname(os.path.abspath(__file__))


def layer_of(filename: str) -> Optional[str]:
    """The layer a profiled function belongs to (``None``: tracing cost)."""
    if filename.startswith(_HERE):
        return None
    marker = f"{os.sep}repro{os.sep}"
    at = filename.rfind(marker)
    if at < 0:
        return "other"
    parts = filename[at + len(marker):].split(os.sep)
    if parts[0] == "core" and parts[-1] == "profiler.py":
        return "core.profiler"
    return parts[0] if parts[0] in LAYERS else "other"


def process_kind(name: Optional[str]) -> str:
    """``"phase-gpu3"`` -> ``"phase-gpu"``; unlisted kinds -> ``"other"``."""
    kind = (name or "").split(":", 1)[0].rstrip("0123456789")
    return kind if kind in PROCESS_KINDS else "other"


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({
        "sim.events_fired": "count",
        "sim.events_scheduled": "count",
        "sim.processes": "count",
        "sim.events_per_s": "1/s",
        "sim.canary_events_per_s": "1/s",
        "hw.fluid_launches": "count",
        "hw.fluid_stops": "count",
        "hw.fluid_demand_changes": "count",
        "hw.fluid_tasks_mean": "count",
        "interconnect.transfers": "count",
        "interconnect.quanta": "count",
        "interconnect.wire_bytes": "bytes",
        "interconnect.goodput_bytes": "bytes",
        "interconnect.efficiency": "ratio",
        "core.phase_executions": "count",
        "core.chunk_ready": "count",
        "core.agent_sends": "count",
        "core.profiler.grid": "count",
        "core.profiler.configs_measured": "count",
        "core.profiler.floor_runs": "count",
        "core.profiler.measured_frac": "ratio",
        "runtime.kernel_launches": "count",
        "runtime.dma_copies": "count",
        "runtime.cdp_launches": "count",
        "runtime.um_migrations": "count",
        "paradigms.executions": "count",
        "workloads.phase_build_s": "s",
        "collectives.schedule_build_s": "s",
        "collectives.ops": "count",
        "cluster.route_lookups": "count",
        "trace.overhead": "ratio",
        "trace.coverage": "ratio",
    })
    units.update({f"sim.processes.{kind}": "count"
                  for kind in PROCESS_KINDS + ("other",)})
    return units


class Tracer:
    """Patches the simulator's public classes; use as a context manager.

    Inside the ``with`` block, wrap each op in :meth:`op`.  After the
    block, :meth:`metrics` gives the per-layer numbers and :attr:`spans`
    the recorded spans.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, float] = collections.Counter()
        self.spans: List[Dict[str, Any]] = []
        self.traced_s = 0.0
        self._self_s: Dict[str, float] = collections.Counter()
        self._stack: List[int] = []
        self._op_id = 0
        self._systems: List[Any] = []
        self._agents: List[Any] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self._kinds: Dict[Optional[str], str] = {}

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        from repro.api import Session
        from repro.cluster.fabric import ClusterFabric
        from repro.collectives import algorithms
        from repro.core.agents import DecoupledAgent
        from repro.core.profiler import Profiler
        from repro.core.runtime import ProactPhaseExecutor
        from repro.hw.fluid import FluidShare
        from repro.interconnect.fabric import Fabric
        from repro.interconnect.route import (InfiniteRoute, LoopbackRoute,
                                              Route)
        from repro.paradigms.base import Paradigm
        from repro.runtime.device import Device
        from repro.runtime.system import System
        from repro.runtime.unified_memory import UnifiedMemoryModel
        from repro.sim.engine import Engine
        from repro.workloads.base import Workload

        for name in ("run", "profile"):
            self._patch(Session, name, self._span(f"Session.{name}"))
        self._patch(Session, "collective", self._collective_span)
        self._patch(Paradigm, "execute", self._span(
            "Paradigm.execute", "paradigms.executions"))
        self._patch(Profiler, "profile", self._profiler_span)
        self._patch(Engine, "run", self._span("Engine.run"))
        self._patch(algorithms, "build_schedule", self._span(
            "build_schedule", time_key="collectives.schedule_build_s"))
        self._patch(Workload, "phase_builder", self._phase_builder)

        self._patch(System, "__init__", self._collect(self._systems))
        self._patch(DecoupledAgent, "__init__", self._collect(self._agents))
        self._patch(Engine, "process", self._process)
        self._patch(FluidShare, "launch", self._fluid_launch)
        for name, key in (("stop", "hw.fluid_stops"),
                          ("set_demand", "hw.fluid_demand_changes")):
            self._patch(FluidShare, name, self._count(key))
        for cls in (Route, LoopbackRoute, InfiniteRoute):
            self._patch(cls, "transfer",
                        self._count("interconnect.transfers"))
        self._patch(Fabric, "send", self._local_send)
        self._patch(ClusterFabric, "route",
                    self._count("cluster.route_lookups"))
        self._patch(ProactPhaseExecutor, "execute",
                    self._count("core.phase_executions"))
        self._patch(DecoupledAgent, "chunk_ready",
                    self._count("core.chunk_ready"))
        for name, key in (("launch_kernel", "runtime.kernel_launches"),
                          ("memcpy_peer", "runtime.dma_copies")):
            self._patch(Device, name, self._count(key))
        for name in ("prefetch", "demand_migrate", "legacy_mirror"):
            self._patch(UnifiedMemoryModel, name,
                        self._count("runtime.um_migrations"))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str,
               make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[name]
        self._restore.append((owner, name, original))
        setattr(owner, name, make(original))

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def _count(self, key: str):
        counts = self.counts

        def make(original):
            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return counted
        return make

    def _collect(self, into: List[Any]):
        def make(original):
            def init(obj, *args, **kwargs):
                original(obj, *args, **kwargs)
                into.append(obj)
            return init
        return make

    def _process(self, original):
        counts, kinds = self.counts, self._kinds

        def process(engine, generator, name=None):
            kind = kinds.get(name)
            if kind is None:
                kind = kinds[name] = "sim.processes." + process_kind(name)
            counts[kind] += 1
            return original(engine, generator, name)
        return process

    def _fluid_launch(self, original):
        counts = self.counts

        def launch(share, *args, **kwargs):
            counts["hw.fluid_launches"] += 1
            counts["hw.fluid_tasks_total"] += len(share.active_tasks)
            return original(share, *args, **kwargs)
        return launch

    def _local_send(self, original):
        counts = self.counts

        def send(fabric, src, dst, nbytes, access_size):
            if src == dst:
                counts["interconnect.transfers"] += 1
            return original(fabric, src, dst, nbytes, access_size)
        return send

    def _span(self, name: str, count_key: Optional[str] = None,
              time_key: Optional[str] = None):
        def make(original):
            def spanned(*args, **kwargs):
                if count_key is not None:
                    self.counts[count_key] += 1
                index = self._open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    span = self._close(index)
                    if time_key is not None:
                        self.counts[time_key] += span["end"] - span["start"]
            return spanned
        return make

    def _collective_span(self, original):
        spanned = self._span("Session.collective")(original)

        def collective(*args, **kwargs):
            result = spanned(*args, **kwargs)
            self.counts["collectives.ops"] += result.op_count
            return result
        return collective

    def _profiler_span(self, original):
        spanned = self._span("Profiler.profile")(original)

        def profile(profiler, phase_builder):
            from repro.core.config import MECH_INLINE
            result = spanned(profiler, phase_builder)
            decoupled = [m for m in profiler.mechanisms if m != MECH_INLINE]
            grid = (len(decoupled) * len(profiler.chunk_sizes)
                    * len(profiler.thread_counts)
                    + (MECH_INLINE in profiler.mechanisms))
            self.counts["core.profiler.grid"] += grid
            self.counts["core.profiler.configs_measured"] += len(
                result.entries)
            self.counts["core.profiler.floor_runs"] += result.floor_runs
            return result
        return profile

    def _phase_builder(self, original):
        timed = self._span("phase_builder", time_key="workloads.phase_build_s")

        def phase_builder(workload):
            return timed(original(workload))
        return phase_builder

    # ------------------------------------------------------------------
    # Spans and ops
    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        self.spans.append({
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op_id})
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> Dict[str, Any]:
        self._stack.pop()
        span = self.spans[index]
        span["end"] = time.perf_counter()
        return span

    def op(self, call: Callable[[], Any]) -> Any:
        """Issue one op under the profiler; returns its result."""
        self._op_id += 1
        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.enable()
        try:
            result = call()
        finally:
            profiler.disable()
            self.traced_s += time.perf_counter() - start
        profiler.create_stats()
        for (filename, _line, func), stat in profiler.stats.items():
            layer = layer_of(filename)
            if layer is not None and "_lsprof" not in func:
                self._self_s[layer] += stat[2]
        self._read_counters()
        return result

    def _read_counters(self) -> None:
        counts = self.counts
        for system in self._systems:
            counts["sim.events_fired"] += system.engine.events_fired
            counts["sim.events_scheduled"] += system.engine.events_scheduled
            counts["interconnect.wire_bytes"] += \
                system.fabric.total_wire_bytes()
            counts["interconnect.goodput_bytes"] += \
                system.fabric.total_goodput_bytes()
            # Agents' dynamic launches and Device.cdp_launch both count here.
            counts["runtime.cdp_launches"] += sum(
                device.cdp_launch_count for device in system.devices)
        for agent in self._agents:
            counts["core.agent_sends"] += agent.stats.sends_issued
        self._systems.clear()
        self._agents.clear()

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def metrics(self, untraced_s: float, canary_events_per_s: float,
                ) -> Dict[str, float]:
        """Per-layer metrics; ``untraced_s`` is the same pass untraced."""
        counts = self.counts
        out: Dict[str, float] = {key: 0.0 for key in metric_units()}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self._self_s[layer]
        for key in out:
            if key in counts:
                out[key] = float(counts[key])
        out["sim.processes"] = float(sum(
            counts[f"sim.processes.{kind}"]
            for kind in PROCESS_KINDS + ("other",)))
        out["interconnect.quanta"] = float(counts["sim.processes.quantum"])
        if counts["hw.fluid_launches"]:
            out["hw.fluid_tasks_mean"] = (counts["hw.fluid_tasks_total"]
                                          / counts["hw.fluid_launches"])
        if counts["interconnect.wire_bytes"]:
            out["interconnect.efficiency"] = (
                counts["interconnect.goodput_bytes"]
                / counts["interconnect.wire_bytes"])
        if counts["core.profiler.grid"]:
            out["core.profiler.measured_frac"] = (
                counts["core.profiler.configs_measured"]
                / counts["core.profiler.grid"])
        out["sim.events_per_s"] = counts["sim.events_fired"] / untraced_s
        out["sim.canary_events_per_s"] = canary_events_per_s
        out["trace.overhead"] = self.traced_s / untraced_s
        out["trace.coverage"] = (sum(self._self_s[layer] for layer in LAYERS)
                                 / self.traced_s)
        return out
