"""A single simulated GPU: compute fabric plus bookkeeping.

The GPU's execution resources are a :class:`~repro.hw.fluid.FluidShare`;
kernels and transfer agents run as fluid tasks on it.  Memory-bandwidth
effects are folded into task work by the runtime layer (a kernel's work is
``max(flop_time, local_byte_time)``), which keeps the model first-order
accurate without a second shared resource.
"""

from __future__ import annotations

import typing

from repro.errors import ConfigurationError
from repro.hw.fluid import FluidShare
from repro.hw.specs import GpuSpec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class Gpu:
    """One GPU in a multi-GPU system."""

    def __init__(self, engine: "Engine", gpu_id: int, spec: GpuSpec) -> None:
        if gpu_id < 0:
            raise ConfigurationError(f"negative GPU id: {gpu_id}")
        self.engine = engine
        self.gpu_id = gpu_id
        self.spec = spec
        self.compute = FluidShare(engine, capacity=1.0,
                                  name=f"gpu{gpu_id}.compute")

    def kernel_time(self, flops: float, local_bytes: float = 0.0) -> float:
        """Uncontended execution time of a kernel.

        A kernel is limited by whichever is slower: arithmetic throughput
        or local memory bandwidth (simple roofline).
        """
        if flops < 0 or local_bytes < 0:
            raise ConfigurationError("kernel flops/bytes must be >= 0")
        return max(flops / self.spec.flops,
                   local_bytes / self.spec.mem_bandwidth)

    def __repr__(self) -> str:
        return f"<Gpu {self.gpu_id} {self.spec.name}>"
