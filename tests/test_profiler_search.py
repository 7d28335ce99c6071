"""Property tests: the search autotuner returns the exhaustive argmin.

The default ``Profiler`` strategy (``"search"``) certifies its winner
against the infinite-bandwidth floors, so on any grid small enough to
also brute force, its chosen configuration — and the bitwise runtime —
must equal the exhaustive sweep's, for random platforms, grids, and
workloads, runtime ties included.  The randomized shapes come from
:mod:`tests.strategies`.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core import MECH_CDP, Profiler
from repro.core.profiler import ProcessPoolBackend
from repro.hw import PLATFORM_4X_KEPLER, PLATFORM_4X_VOLTA
from repro.units import KiB, MiB
from repro.workloads import AlsWorkload
from tests.conftest import small_jacobi, small_pagerank
from tests.strategies import platforms

GRIDS = (
    ((128 * KiB, 1 * MiB), (1024, 4096)),
    ((64 * KiB, 512 * KiB, 4 * MiB), (512, 2048)),
    ((256 * KiB, 4 * MiB), (2048, 8192)),
)

WORKLOADS = (
    lambda: small_pagerank(iterations=2),
    lambda: small_jacobi(iterations=2),
)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(platform=platforms(min_gpus=2, max_gpus=4),
       grid=st.sampled_from(GRIDS),
       make_workload=st.sampled_from(WORKLOADS))
def test_search_returns_exhaustive_argmin(platform, grid, make_workload):
    """Search argmin == brute-force argmin, config and bitwise runtime."""
    chunks, threads = grid
    builder = make_workload().phase_builder()
    brute = Profiler(platform, chunk_sizes=chunks, thread_counts=threads,
                     strategy="exhaustive").profile(builder)
    searched = Profiler(platform, chunk_sizes=chunks,
                        thread_counts=threads).profile(builder)

    assert searched.best.config == brute.best.config
    assert searched.best.runtime == brute.best.runtime  # bitwise

    # Every configuration the search did measure agrees bitwise with
    # brute force, and the bookkeeping covers the whole grid.
    brute_by_config = {e.config: e.runtime for e in brute.entries}
    for entry in searched.entries:
        assert brute_by_config[entry.config] == entry.runtime
    assert (len(searched.entries) + searched.pruned_configs
            == len(brute.entries))
    assert searched.floor_runs == len(brute.entries)


def test_default_profiler_returns_exhaustive_argmin_on_kepler():
    """A default-constructed profiler finds Kepler ALS's true argmin.

    Coordinate descent (sweep chunks at the top thread count, then
    threads at the winning chunk) locks onto 1 MB here and returns
    ``D 1MB 256 CDP``, about 0.6% slower than the grid's argmin.
    """
    builder = AlsWorkload(iterations=1).phase_builder()
    kwargs = dict(chunk_sizes=(128 * KiB, 1 * MiB),
                  thread_counts=(256, 8192), mechanisms=(MECH_CDP,))
    brute = Profiler(PLATFORM_4X_KEPLER, strategy="exhaustive",
                     **kwargs).profile(builder)
    default = Profiler(PLATFORM_4X_KEPLER, **kwargs).profile(builder)
    assert brute.best.config.label() == "D 128kB 256 CDP"
    assert default.best == brute.best


def test_parallel_search_picks_identical_argmin():
    """The warm-worker backend may measure a different entry set, but
    the certified winner (config and bitwise runtime) must not move."""
    chunks, threads = (64 * KiB, 512 * KiB, 4 * MiB), (512, 2048)
    builder = small_pagerank(iterations=2).phase_builder()
    serial = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=chunks,
                      thread_counts=threads).profile(builder)
    parallel = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=chunks,
                        thread_counts=threads,
                        backend=ProcessPoolBackend(2)).profile(builder)
    assert parallel.best.config == serial.best.config
    assert parallel.best.runtime == serial.best.runtime


def test_session_profile_strategy_search():
    """``Session.profile(strategy="search")`` routes to the autotuner
    and agrees with the exhaustive session sweep."""
    session = Session("4x_volta")
    kwargs = dict(chunk_sizes=(128 * KiB, 1 * MiB),
                  thread_counts=(1024, 4096))
    brute = session.profile(small_pagerank(iterations=2),
                            strategy="exhaustive", **kwargs)
    searched = session.profile(small_pagerank(iterations=2),
                               strategy="search", **kwargs)
    assert searched.best.config == brute.best.config
    assert searched.best.runtime == brute.best.runtime
    assert searched.pruned_configs >= 0


def test_search_signature_namespaces_the_mode():
    """Search sweeps must not share profile-store entries with
    exhaustive sweeps over the same grid."""
    kwargs = dict(chunk_sizes=(128 * KiB, 1 * MiB),
                  thread_counts=(1024, 4096))
    searched = Profiler(PLATFORM_4X_VOLTA, **kwargs)
    brute = Profiler(PLATFORM_4X_VOLTA, strategy="exhaustive", **kwargs)
    assert searched.sweep_signature() != brute.sweep_signature()
    assert searched.sweep_signature().startswith("search|")


@pytest.mark.slow
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(platform=platforms(min_gpus=2, max_gpus=4),
       grid=st.sampled_from(GRIDS),
       make_workload=st.sampled_from(WORKLOADS))
def test_search_argmin_exhaustive_slow(platform, grid, make_workload):
    """Nightly-depth version of the argmin property (more examples)."""
    chunks, threads = grid
    builder = make_workload().phase_builder()
    brute = Profiler(platform, chunk_sizes=chunks, thread_counts=threads,
                     strategy="exhaustive").profile(builder)
    searched = Profiler(platform, chunk_sizes=chunks,
                        thread_counts=threads).profile(builder)
    assert searched.best.config == brute.best.config
    assert searched.best.runtime == brute.best.runtime
