"""Query types the tuning service accepts, and their resolution logic.

A query names a *search space*, not a search procedure: the service is
free to answer from its store, an in-flight sweep, or a fresh sweep on
any backend, because every one of those paths provably returns the same
plan (deterministic tie-breaking is the profiler's core contract, and
the sweep signature pins the grid).  That equivalence is what makes the
whole service a cache rather than a scheduler.

Each query kind knows four things: its coalescing/store *signature*,
how to *look up* a cached plan, how to *compute* the plan on a given
:class:`~repro.core.profiler.ExecutorBackend`, and how to *store* the
result (version-fenced, so plans computed before an invalidation are
dropped).  The service itself never inspects query internals — adding a
new query kind means implementing this protocol, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union

from repro.collectives.schedule import COLL_ALL_REDUCE
from repro.collectives.tuner import (
    CollectiveChoice,
    CollectivePlanStore,
    CollectiveTuner,
    payload_bucket,
)
from repro.core.cache import ProfileStore
from repro.core.config import (
    ALL_MECHANISMS,
    PROFILE_CHUNK_SIZES,
    PROFILE_THREAD_COUNTS,
    ProactConfig,
)
from repro.core.profiler import ExecutorBackend, Profiler
from repro.errors import ConfigurationError
from repro.hw.platform import PlatformSpec, platform_by_name

#: A platform argument: a Table-I/cluster name, a spec, or ``None`` for
#: the service's default platform.
PlatformLike = Union[str, PlatformSpec, None]


def _resolve_platform(platform: PlatformLike,
                      default: Optional[PlatformSpec]) -> PlatformSpec:
    if platform is None:
        if default is None:
            raise ConfigurationError(
                "query has no platform and the service has no default; "
                "pass platform= to the query or default_platform= to "
                "TuningService")
        return default
    if isinstance(platform, str):
        return platform_by_name(platform)
    if isinstance(platform, PlatformSpec):
        return platform
    raise ConfigurationError(
        f"platform must be a name, PlatformSpec, or None: {platform!r}")


@dataclass(frozen=True)
class TuningResult:
    """One answered query: the plan plus how the service got there.

    ``outcome`` is ``"hit"`` (store lookup), ``"coalesced"`` (attached
    to an identical in-flight sweep), or ``"miss"`` (this query caused
    the sweep).  ``plan`` is a
    :class:`~repro.core.config.ProactConfig` for profile queries and a
    :class:`~repro.collectives.tuner.CollectiveChoice` for collective
    queries — byte-identical to what the direct ``Session`` path
    returns.
    """

    plan: Any
    outcome: str
    latency_s: float
    signature: str


class TuningQuery:
    """Protocol every query kind implements (see module docstring)."""

    def resolve(self, default_platform: Optional[PlatformSpec]
                ) -> "ResolvedQuery":
        raise NotImplementedError


class ResolvedQuery:
    """A query bound to a concrete platform, ready to serve."""

    #: Coalescing / store key; equal signatures mean equal plans.
    signature: str

    def lookup(self, profiles: ProfileStore,
               plans: CollectivePlanStore) -> Optional[Any]:
        raise NotImplementedError

    def store_version(self, profiles: ProfileStore,
                      plans: CollectivePlanStore) -> int:
        raise NotImplementedError

    def compute(self, backend: ExecutorBackend) -> Any:
        raise NotImplementedError

    def store(self, profiles: ProfileStore, plans: CollectivePlanStore,
              plan: Any, if_version: int) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class ProfileQuery(TuningQuery):
    """Tune PROACT's transfer configuration for one workload.

    Mirrors :meth:`repro.api.Session.profile`: the same grid and
    strategy produce the same
    :class:`~repro.core.config.ProactConfig` plan, byte for byte.
    ``workload`` must expose ``name`` and ``phase_builder()`` (every
    :class:`~repro.workloads.base.Workload` does) and be picklable when
    the service runs process-pool backends.
    """

    platform: PlatformLike
    workload: Any
    strategy: str = "search"
    chunk_sizes: Tuple[int, ...] = PROFILE_CHUNK_SIZES
    thread_counts: Tuple[int, ...] = PROFILE_THREAD_COUNTS
    mechanisms: Tuple[str, ...] = ALL_MECHANISMS

    def __post_init__(self) -> None:
        object.__setattr__(self, "chunk_sizes", tuple(self.chunk_sizes))
        object.__setattr__(self, "thread_counts",
                           tuple(self.thread_counts))
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))

    def resolve(self, default_platform: Optional[PlatformSpec]
                ) -> "ResolvedProfileQuery":
        platform = _resolve_platform(self.platform, default_platform)
        return ResolvedProfileQuery(self, platform)


class ResolvedProfileQuery(ResolvedQuery):
    def __init__(self, query: ProfileQuery,
                 platform: PlatformSpec) -> None:
        self.query = query
        self.platform = platform
        # A throwaway profiler validates the grid up front (unknown
        # strategies/mechanisms fail at submit, not inside a shard) and
        # canonicalizes the signature.
        self.sweep_signature = self._profiler(None).sweep_signature()
        self.signature = "::".join((
            "profile", platform.name, query.workload.name,
            self.sweep_signature))

    def _profiler(self, backend: Optional[ExecutorBackend]) -> Profiler:
        query = self.query
        return Profiler(self.platform,
                        chunk_sizes=query.chunk_sizes,
                        thread_counts=query.thread_counts,
                        mechanisms=query.mechanisms,
                        strategy=query.strategy,
                        backend=backend)

    def lookup(self, profiles: ProfileStore,
               plans: CollectivePlanStore) -> Optional[ProactConfig]:
        return profiles.get(self.platform.name, self.query.workload.name,
                            self.sweep_signature)

    def store_version(self, profiles: ProfileStore,
                      plans: CollectivePlanStore) -> int:
        return profiles.version

    def compute(self, backend: ExecutorBackend) -> ProactConfig:
        profiler = self._profiler(backend)
        return profiler.profile(
            self.query.workload.phase_builder()).best_config

    def store(self, profiles: ProfileStore, plans: CollectivePlanStore,
              plan: ProactConfig, if_version: int) -> bool:
        return profiles.put(self.platform.name, self.query.workload.name,
                            plan, self.sweep_signature,
                            if_version=if_version)


@dataclass(frozen=True)
class CollectiveQuery(TuningQuery):
    """Tune (algorithm x chunk size) for one collective and payload.

    Mirrors a direct :class:`~repro.collectives.tuner.CollectiveTuner`
    sweep — :meth:`repro.api.Session.plan_collective` — and returns the
    same :class:`~repro.collectives.tuner.CollectiveChoice`.  Payloads
    are served per bucket (small/medium/large), exactly like the plan
    store.
    """

    platform: PlatformLike
    collective: str = COLL_ALL_REDUCE
    nbytes: int = 1 << 20
    algorithms: Optional[Tuple[str, ...]] = None
    chunk_sizes: Tuple[int, ...] = PROFILE_CHUNK_SIZES

    def __post_init__(self) -> None:
        if self.algorithms is not None:
            object.__setattr__(self, "algorithms",
                               tuple(self.algorithms))
        object.__setattr__(self, "chunk_sizes", tuple(self.chunk_sizes))

    def resolve(self, default_platform: Optional[PlatformSpec]
                ) -> "ResolvedCollectiveQuery":
        platform = _resolve_platform(self.platform, default_platform)
        return ResolvedCollectiveQuery(self, platform)


class ResolvedCollectiveQuery(ResolvedQuery):
    def __init__(self, query: CollectiveQuery,
                 platform: PlatformSpec) -> None:
        self.query = query
        self.platform = platform
        self.bucket = payload_bucket(query.nbytes)
        # Tuner construction validates collective/algorithm support for
        # this platform at submit time.
        self.sweep_signature = self._tuner(None).sweep_signature()
        self.signature = "::".join((
            "collective", platform.name, query.collective, self.bucket,
            self.sweep_signature))

    def _tuner(self, backend: Optional[ExecutorBackend]
               ) -> CollectiveTuner:
        query = self.query
        return CollectiveTuner(self.platform, query.collective,
                               algorithms=query.algorithms,
                               chunk_sizes=query.chunk_sizes,
                               backend=backend)

    def lookup(self, profiles: ProfileStore,
               plans: CollectivePlanStore) -> Optional[CollectiveChoice]:
        return plans.get(self.platform.name, self.query.collective,
                         self.bucket, self.sweep_signature)

    def store_version(self, profiles: ProfileStore,
                      plans: CollectivePlanStore) -> int:
        return plans.version

    def compute(self, backend: ExecutorBackend) -> CollectiveChoice:
        tuner = self._tuner(backend)
        return tuner.tune(self.query.nbytes).best_choice

    def store(self, profiles: ProfileStore, plans: CollectivePlanStore,
              plan: CollectiveChoice, if_version: int) -> bool:
        return plans.put(self.platform.name, self.query.collective,
                         self.bucket, plan, self.sweep_signature,
                         if_version=if_version)
