"""Unit tests for GPU specs, platforms (Table I data), and the Gpu model."""

import pytest

from repro.errors import ConfigurationError
from repro.hw import (
    FOUR_GPU_PLATFORMS,
    KEPLER_K40M,
    PASCAL_P100,
    PLATFORM_16X_VOLTA,
    PLATFORM_4X_KEPLER,
    PLATFORMS,
    VOLTA_V100,
    Gpu,
    GpuSpec,
    platform_by_name,
)
from repro.interconnect import NVSWITCH, PCIE3
from repro.sim import Engine
from repro.units import GiB, usec


# ---------------------------------------------------------------------------
# Table I data integrity
# ---------------------------------------------------------------------------

def test_table1_sm_counts():
    assert KEPLER_K40M.num_sms == 15
    assert PASCAL_P100.num_sms == 56
    assert VOLTA_V100.num_sms == 80


def test_table1_tflops():
    assert KEPLER_K40M.tflops == pytest.approx(1.43)
    assert PASCAL_P100.tflops == pytest.approx(5.3)
    assert VOLTA_V100.tflops == pytest.approx(7.8)


def test_table1_memory_bandwidth():
    assert KEPLER_K40M.mem_bandwidth == pytest.approx(288.4e9)
    assert PASCAL_P100.mem_bandwidth == pytest.approx(720e9)
    assert VOLTA_V100.mem_bandwidth == pytest.approx(920e9)


def test_table1_memory_capacity():
    assert KEPLER_K40M.mem_capacity == 12 * GiB
    assert PASCAL_P100.mem_capacity == 16 * GiB
    assert VOLTA_V100.mem_capacity == 32 * GiB


def test_table1_platforms():
    assert set(PLATFORMS) == {"4x_kepler", "4x_pascal", "4x_volta",
                              "16x_volta", "8x_volta_cube", "8x_ampere"}
    assert PLATFORM_4X_KEPLER.interconnect is PCIE3
    assert PLATFORM_16X_VOLTA.interconnect is NVSWITCH
    assert PLATFORM_16X_VOLTA.num_gpus == 16
    assert len(FOUR_GPU_PLATFORMS) == 3
    assert all(p.num_gpus == 4 for p in FOUR_GPU_PLATFORMS)


def test_only_kepler_uses_legacy_um():
    assert KEPLER_K40M.um_legacy
    assert not PASCAL_P100.um_legacy
    assert not VOLTA_V100.um_legacy


def test_volta_has_highest_cdp_launch_latency():
    # Section V-A: CDP initiation overhead is highest on Volta.
    assert VOLTA_V100.cdp_launch_latency > PASCAL_P100.cdp_launch_latency
    assert VOLTA_V100.cdp_launch_latency > KEPLER_K40M.cdp_launch_latency


def test_dma_init_overhead_is_microseconds_scale():
    for spec in (KEPLER_K40M, PASCAL_P100, VOLTA_V100):
        assert usec(1) < spec.dma_init_overhead < usec(100)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

def test_max_threads():
    assert KEPLER_K40M.max_threads == 15 * 2048
    assert VOLTA_V100.max_threads == 80 * 2048


def test_transfer_thread_demand_scales_inversely_with_gpu_size():
    threads = 2048
    kepler = KEPLER_K40M.transfer_thread_demand(threads)
    volta = VOLTA_V100.transfer_thread_demand(threads)
    assert kepler > volta  # stealing hurts the small GPU more
    assert kepler == pytest.approx(2048 / (15 * 2048))


def test_transfer_thread_demand_capped_at_one():
    assert KEPLER_K40M.transfer_thread_demand(10**9) == 1.0


def test_transfer_thread_demand_rejects_negative():
    with pytest.raises(ConfigurationError):
        KEPLER_K40M.transfer_thread_demand(-1)


def test_platform_with_num_gpus():
    scaled = PLATFORM_16X_VOLTA.with_num_gpus(8)
    assert scaled.num_gpus == 8
    assert scaled.gpu is VOLTA_V100
    assert scaled.interconnect is NVSWITCH


def test_platform_by_name():
    assert platform_by_name("4x_pascal").gpu is PASCAL_P100
    with pytest.raises(ConfigurationError):
        platform_by_name("8x_hopper")


def test_invalid_spec_rejected():
    with pytest.raises(ConfigurationError):
        GpuSpec(name="bad", arch="X", num_sms=0, tflops=1.0,
                mem_bandwidth=1e9, mem_capacity=GiB,
                kernel_launch_latency=0.0, dma_init_overhead=0.0,
                cdp_launch_latency=0.0, atomic_track_cost=0.0,
                copy_thread_bandwidth=1e9, polling_overhead_fraction=0.0,
                um_fault_latency=0.0, um_legacy=False)
    with pytest.raises(ConfigurationError):
        GpuSpec(name="bad", arch="X", num_sms=4, tflops=1.0,
                mem_bandwidth=1e9, mem_capacity=GiB,
                kernel_launch_latency=0.0, dma_init_overhead=0.0,
                cdp_launch_latency=0.0, atomic_track_cost=0.0,
                copy_thread_bandwidth=0.0, polling_overhead_fraction=0.0,
                um_fault_latency=0.0, um_legacy=False)


# ---------------------------------------------------------------------------
# Gpu model
# ---------------------------------------------------------------------------

def test_gpu_kernel_time_roofline():
    engine = Engine()
    gpu = Gpu(engine, 0, VOLTA_V100)
    # Compute-bound: 7.8 TFLOP of work takes 1s.
    assert gpu.kernel_time(flops=7.8e12, local_bytes=0) == pytest.approx(1.0)
    # Memory-bound: 920 GB at 920 GB/s takes 1s even with negligible flops.
    assert gpu.kernel_time(flops=1.0, local_bytes=920e9) == pytest.approx(1.0)


def test_gpu_run_task_executes_on_fluid_share():
    engine = Engine()
    gpu = Gpu(engine, 0, VOLTA_V100)
    task = gpu.compute.launch("kernel", work=0.25)
    engine.run(until=task.done)
    assert engine.now == pytest.approx(0.25)


def test_gpu_rejects_negative_id_and_work_figures():
    engine = Engine()
    with pytest.raises(ConfigurationError):
        Gpu(engine, -1, VOLTA_V100)
    gpu = Gpu(engine, 0, VOLTA_V100)
    with pytest.raises(ConfigurationError):
        gpu.kernel_time(flops=-1.0)
