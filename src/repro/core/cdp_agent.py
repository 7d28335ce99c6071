"""The CUDA-Dynamic-Parallelism transfer agent (Section III-C, "CDP").

When a chunk's counter reaches zero, the producer kernel launches a child
kernel that copies the chunk to every destination GPU.  Compared with
polling, CDP consumes compute resources only *during* copies — but every
launch pays a driver-serialized initiation latency, which is substantial
and architecture-dependent (highest on Volta, Section V-A).
"""

from __future__ import annotations

import typing
from typing import List

from repro.core.agents import DecoupledAgent
from repro.core.config import ProactConfig

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.system import System


class CdpAgent(DecoupledAgent):
    """Transfer agent using dynamic child-kernel launches."""

    def __init__(self, system: "System", src_id: int, config: ProactConfig,
                 destinations: List[int],
                 elide_transfers: bool = False,
                 peer_fraction: float = 1.0,
                 access_size: int | None = None) -> None:
        super().__init__(system, src_id, config, destinations,
                         elide_transfers, peer_fraction, access_size)
        self._device = system.devices[src_id]

    def _dispatch(self, nbytes: int, chunk=None) -> None:
        self._begin_send()
        self.system.engine.process(
            self._launch_and_copy(nbytes, chunk),
            name=f"cdp-send:gpu{self.src_id}")

    def _launch_and_copy(self, nbytes: int, chunk=None):
        engine = self.system.engine
        device = self._device
        # Dynamic kernel launches funnel through the host driver one at a
        # time; this is the initiation-bound region of Figure 6.
        launch_requested = engine.now
        yield device.cdp_launcher.request()
        try:
            yield engine._sleep(device.spec.cdp_launch_latency)
        finally:
            device.cdp_launcher.release()
        device.cdp_launch_count += 1
        if engine.tracer.enabled:
            engine.tracer.span(
                launch_requested, engine.now,
                f"gpu{self.src_id}.agent", "cdp-launch",
                payload={"bytes": nbytes})
        if engine.metrics.enabled:
            engine.metrics.inc("cdp_launches", src=self.src_id)
        # While the copy kernel runs, its threads occupy GPU resources —
        # unless the fluid_contention ablation turned that cost off.
        copy_task = None
        if self.fluid_contention:
            gpu = self.system.gpus[self.src_id]
            demand = gpu.spec.transfer_thread_demand(
                self.config.transfer_threads)
            copy_task = gpu.compute.launch(
                f"gpu{self.src_id}.cdp-copy", work=float("inf"),
                demand=max(demand, 1e-6))
        try:
            yield from self._send_chunk(nbytes, chunk)
        finally:
            if copy_task is not None:
                self.system.gpus[self.src_id].compute.stop(copy_task)
        self._end_send()
