"""Floor pruning never changes which configuration wins a runtime tie.

The default ``Profiler`` strategy skips configurations whose
infinite-bandwidth floor exceeds the incumbent.  When several measured
configurations tie on runtime, the winner must still be the brute-force
sweep's: the global tie-break order (smallest chunk, then threads, then
name), not whichever tied entry the search happened to measure first.
"""

from repro.core import Profiler
from repro.hw import PLATFORM_4X_VOLTA
from repro.units import KiB, MiB
from tests.conftest import small_pagerank


def test_pruned_sweep_tie_break_preserved():
    """4x Volta PageRank has runtime ties; search and brute force must
    pick the same one."""
    chunks = (128 * KiB, 1 * MiB)
    threads = (1024, 4096)
    builder = small_pagerank(iterations=2).phase_builder()
    brute = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=chunks,
                     thread_counts=threads,
                     strategy="exhaustive").profile(builder)
    searched = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=chunks,
                        thread_counts=threads).profile(builder)

    ties = [e for e in brute.entries if e.runtime == brute.best.runtime]
    smallest = min(ties, key=lambda e: (e.config.chunk_size,
                                        e.config.transfer_threads,
                                        e.config.mechanism))
    assert brute.best == smallest
    assert searched.best.config == brute.best.config
    assert searched.best.runtime == brute.best.runtime  # bitwise
