#!/usr/bin/env python
"""Auto-tuning walkthrough: PROACT's compile-time profiler on Jacobi.

Mirrors the paper's Section III-A: sweep transfer mechanism, chunk
granularity, and transfer-thread count for one application/platform pair,
print the whole profile, and report the configuration the framework would
bake into the compiled binary (one cell of Table II).

The sweep goes through ``Session.profile``, whose default ``search``
strategy skips configurations whose infinite-bandwidth lower bound
cannot win; pass ``--exhaustive`` to measure the whole grid instead
(identical winner, more full measurements).

Run:  python examples/autotune_jacobi.py [platform] [--exhaustive]
      (platform defaults to 4x_pascal; see repro.hw.PLATFORMS)
"""

import sys

from repro import Session
from repro.experiments.report import TextTable
from repro.units import KiB, MiB, format_time
from repro.workloads import JacobiWorkload


def main() -> None:
    args = [arg for arg in sys.argv[1:] if arg != "--exhaustive"]
    exhaustive = "--exhaustive" in sys.argv[1:]
    platform_name = args[0] if args else "4x_pascal"
    session = Session(platform_name)
    workload = JacobiWorkload()

    strategy = "exhaustive" if exhaustive else "search"
    print(f"Profiling {workload.name} on {session.platform.name} "
          f"({strategy} strategy)...\n")
    profile = session.profile(
        workload,
        chunk_sizes=(16 * KiB, 128 * KiB, 1 * MiB, 4 * MiB),
        thread_counts=(256, 1024, 2048, 4096),
        strategy=strategy,
    )

    table = TextTable(
        title=f"Profile: {workload.name} on {session.platform.name}",
        columns=["configuration", "runtime"])
    for entry in sorted(profile.entries, key=lambda e: e.runtime):
        table.add_row(entry.config.label(), format_time(entry.runtime))
    print(table)
    if profile.pruned_configs:
        print(f"\n({profile.pruned_configs} configurations pruned by the "
              f"infinite-bandwidth lower bound; {profile.floor_runs} floor "
              f"simulations)")

    best = profile.best
    print(f"\nChosen configuration (Table II cell): {best.config.label()}"
          f" at {format_time(best.runtime)}")
    measured = {entry.config.mechanism for entry in profile.entries}
    for mechanism in ("inline", "polling", "cdp"):
        if mechanism not in measured:
            print(f"  best {mechanism:8s}: pruned (cannot win)")
            continue
        entry = profile.best_for_mechanism(mechanism)
        print(f"  best {mechanism:8s}: {entry.config.label():20s} "
              f"{format_time(entry.runtime)}")


if __name__ == "__main__":
    main()
