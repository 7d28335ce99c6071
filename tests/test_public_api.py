"""Public-API surface tests: snapshot + deprecation contract.

The checked-in snapshot (``tests/data/public_api.json``) records the
package's advertised surface — ``repro.__all__``, the ``repro.sim`` and
``repro.runtime`` exports, plus every public method signature on
:class:`repro.api.Session`.  CI fails when the
surface drifts, so renames and signature changes are always a conscious,
reviewed decision.  After an intentional change, regenerate with::

    PYTHONPATH=src python tests/test_public_api.py --regen

The remaining tests check that the supported paths stay warning-free.
"""

import inspect
import json
import pathlib
import warnings

import repro
import repro.ablation
import repro.api
import repro.runtime
import repro.sim
from repro.api import Session
from repro.core.config import Mechanisms

SNAPSHOT_PATH = pathlib.Path(__file__).parent / "data" / "public_api.json"


def current_surface():
    """The live public surface, in the snapshot's JSON shape."""
    methods = {}
    for name, member in inspect.getmembers(Session):
        if name.startswith("_") and name != "__init__":
            continue
        if callable(member):
            methods[name] = str(inspect.signature(member))
        elif isinstance(inspect.getattr_static(Session, name), property):
            methods[name] = "<property>"
    return {
        "repro_all": sorted(repro.__all__),
        "repro_ablation_all": sorted(repro.ablation.__all__),
        "repro_api_all": sorted(repro.api.__all__),
        "repro_runtime_all": sorted(repro.runtime.__all__),
        "repro_sim_all": sorted(repro.sim.__all__),
        "mechanisms": sorted(Mechanisms.component_names()),
        "session": methods,
    }


def load_snapshot():
    return json.loads(SNAPSHOT_PATH.read_text())


def test_snapshot_file_exists():
    assert SNAPSHOT_PATH.exists(), (
        "missing public-API snapshot; generate it with "
        "`PYTHONPATH=src python tests/test_public_api.py --regen`")


def test_public_surface_matches_snapshot():
    """Any drift in repro.__all__ or Session's signatures fails here."""
    snapshot = load_snapshot()
    surface = current_surface()
    assert surface == snapshot, (
        "public API surface drifted from tests/data/public_api.json; "
        "if the change is intentional, regenerate the snapshot with "
        "`PYTHONPATH=src python tests/test_public_api.py --regen` "
        "and include it in the same commit")


def test_all_names_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"


def test_session_is_front_door():
    assert repro.Session is Session
    assert repro.__all__[0] == "Session"


def test_mechanisms_surface_exported():
    """The mechanism-toggle API and ablation harness are first-class."""
    assert "Mechanisms" in repro.__all__
    assert "DEFAULT_MECHANISMS" in repro.__all__
    assert repro.Mechanisms is Mechanisms
    for name in ("AblationRun", "AblationReport", "generate_runset",
                 "run_ablation"):
        assert name in repro.__all__
        assert getattr(repro, name) is getattr(repro.ablation, name)


def test_session_accepts_mechanisms():
    session = Session("4x_volta",
                      mechanisms=Mechanisms(write_coalescing=False))
    assert session.mechanisms.ablated == ("write_coalescing",)
    assert "write_coalescing" in repr(session)


# ----------------------------------------------------------------------
# No deprecation shims
# ----------------------------------------------------------------------
def test_context_profile_policy_does_not_warn():
    from repro.experiments.registry import ExperimentContext, ProfilePolicy
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        ctx = ExperimentContext(profile=ProfilePolicy(jobs=2))
    assert ctx.profile.jobs == 2


def test_removed_shims_stay_removed():
    """Legacy spellings and unused helpers are gone, not kept as aliases."""
    import dataclasses
    import importlib
    import inspect

    from repro.core import profiler
    from repro.core.config import ProactConfig
    for name in ("from_name", "attach_validation", "finish_validation",
                 "finish_observation"):
        assert not hasattr(repro.System, name)
    assert "validate" not in {f.name for f in dataclasses.fields(ProactConfig)}
    assert not hasattr(profiler, "ParallelProfiler")
    assert not hasattr(profiler.ExecutorBackend, "run_tasks")
    assert profiler.STRATEGIES == ("search", "exhaustive")

    # The simulation toolkit keeps only the primitives a simulation runs
    # through; these extras had no caller outside the tests.
    from repro import cluster, collectives, errors
    from repro.collectives import executor
    from repro.core.profiler import _TelemetrySession
    from repro.experiments import utilization
    from repro.runtime import Device
    from repro.sim import Engine, Event, Process, Resource, events, trace

    for name in ("Store", "Counter", "AnyOf", "Interrupt", "CounterStats",
                 "PRIORITY_LOW"):
        assert not hasattr(repro.sim, name)
    assert not hasattr(events, "ConditionEvent")
    assert not hasattr(events, "AnyOf")
    assert not hasattr(trace, "CounterStats")
    assert not hasattr(Engine, "any_of")
    assert not hasattr(Engine, "active_process")
    assert not hasattr(Engine(), "_active_process")
    assert not hasattr(Resource, "acquire")
    assert not hasattr(Event, "_mark_processed")
    for name in ("interrupt", "is_alive", "_waiting_on"):
        assert not hasattr(Process, name)
    for name in ("Stream", "MemoryAllocator", "Allocation"):
        assert not hasattr(repro.runtime, name)
    for module in ("repro.runtime.stream", "repro.runtime.allocator"):
        try:
            importlib.import_module(module)
        except ModuleNotFoundError:
            continue
        raise AssertionError(f"{module} should stay deleted")
    assert not hasattr(errors, "MemoryError_")
    assert not hasattr(Device, "cdp_launch")
    assert not hasattr(Device, "_cdp")
    assert not hasattr(cluster, "cluster_platform_by_name")
    assert not hasattr(cluster.specs, "cluster_platform_names")
    assert not hasattr(collectives, "schedules_for")
    assert not hasattr(collectives.algorithms, "schedules_for")
    assert not hasattr(executor, "bus_bandwidth_table")
    assert not hasattr(utilization, "fabric_utilization_timeline")
    assert not hasattr(_TelemetrySession, "worker_count")

    # Options no run set are gone from the signatures that carried them.
    from repro.core import ProactPhaseExecutor
    from repro.core.profiler import run_phases
    from repro.obs import Observation, capture
    from repro.sim import Tracer

    removed = {
        Session: ("verbose_trace", "metrics", "quantum", "dma_engines",
                  "infinite_bw"),
        capture: ("trace", "verbose"),
        Observation: ("trace", "verbose"),
        Tracer: ("verbose",),
        repro.System: ("quantum",),
        ProactPhaseExecutor: ("instrument",),
        run_phases: ("instrument", "elide_transfers"),
    }
    for owner, names in removed.items():
        parameters = inspect.signature(owner).parameters
        for name in names:
            assert name not in parameters, (owner, name)
    for name in ("serve", "serve_threaded"):
        assert not hasattr(Session, name)


def test_session_paths_do_not_warn():
    """The supported facade never routes through deprecated shims."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        session = Session("4x_volta", validate=True, trace=True)
        system = session.system()
        kernel = system.devices[0].launch_kernel("k", work=1e-5)
        system.run(until=kernel.done)
        session.finish(system)
        assert session.validation_summary()["violations"] == 0


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        SNAPSHOT_PATH.parent.mkdir(parents=True, exist_ok=True)
        SNAPSHOT_PATH.write_text(
            json.dumps(current_surface(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {SNAPSHOT_PATH}")
    else:
        print(__doc__)
