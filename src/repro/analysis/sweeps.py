"""Parameter sweeps: epsilon selectivity and scale growth curves.

Section 1.1 argues that CSJ "uses a meaningful value for epsilon and so
avoids the issues of finding a good value for epsilon in regards to the
selectivity of the join" that plague the classic epsilon-join.  The
epsilon sweep quantifies that claim on our datasets: similarity (join
selectivity) as a function of epsilon, which saturates quickly around
the meaningful threshold the data was generated for.  The scale sweep
measures runtime growth against community size for any method — the
generalisation of Table 11 beyond Ex-MinMax.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..catalog import PersistentCatalog
from ..core.errors import ConfigurationError
from ..core.types import Community, CSJResult
from ..datasets.couples import CoupleSpec, build_couple
from ..datasets.synthetic import SyntheticGenerator
from ..datasets.vk import VKGenerator
from ..engine import BatchEngine, CheckpointLog, FaultPolicy, JoinResultCache, PairJob
from ..obs import JoinTelemetry, MetricsRegistry

__all__ = [
    "SweepPoint",
    "catalog_epsilon_sweep",
    "epsilon_sweep",
    "scale_sweep",
    "render_sweep",
]


def _point(parameter: float, result: CSJResult) -> "SweepPoint":
    return SweepPoint(
        parameter=parameter,
        similarity_percent=result.similarity_percent,
        n_matched=result.n_matched,
        elapsed_seconds=result.elapsed_seconds,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep curve."""

    parameter: float
    similarity_percent: float
    n_matched: int
    elapsed_seconds: float


def epsilon_sweep(
    community_b: Community,
    community_a: Community,
    epsilons: list[int],
    *,
    method: str = "ex-minmax",
    n_jobs: int = 1,
    cache: JoinResultCache | int | None = None,
    metrics: MetricsRegistry | None = None,
    telemetry: list[JoinTelemetry] | None = None,
    fault_policy: FaultPolicy | None = None,
    checkpoint: CheckpointLog | str | Path | None = None,
    **options: object,
) -> list[SweepPoint]:
    """Similarity as a function of epsilon on a fixed couple.

    Similarity is monotonically non-decreasing in epsilon (a larger
    threshold only adds candidate edges), which the returned curve
    exhibits; the interesting feature is *where* it saturates — the
    data's meaningful epsilon.

    The joins run as one :class:`~repro.engine.BatchEngine` batch, so a
    shared ``cache`` makes repeated sweeps over the same couple free and
    ``n_jobs`` > 1 evaluates the epsilon grid in parallel.  With
    ``metrics`` attached, the engine's per-join records are appended to
    ``telemetry`` (when given).  ``fault_policy`` supervises the joins
    (timeouts / retries / quarantine) and ``checkpoint`` makes finished
    joins durable, so a killed sweep resumes without recomputation.
    """
    if not epsilons:
        raise ConfigurationError("epsilon_sweep needs at least one epsilon")
    if sorted(epsilons) != list(epsilons):
        raise ConfigurationError("epsilons must be given in ascending order")
    jobs = [
        PairJob.build(0, 1, method, epsilon, options) for epsilon in epsilons
    ]
    with BatchEngine(
        [community_b, community_a],
        n_jobs=n_jobs,
        cache=cache,
        metrics=metrics,
        fault_policy=fault_policy,
        checkpoint=checkpoint,
    ) as engine:
        outcomes = engine.run(jobs)
        if telemetry is not None:
            telemetry.extend(engine.telemetry)
    return [
        _point(float(epsilon), outcome.result)
        for epsilon, outcome in zip(epsilons, outcomes)
    ]


def catalog_epsilon_sweep(
    catalog: PersistentCatalog,
    key_b: str,
    key_a: str,
    epsilons: list[int],
    *,
    method: str = "ex-minmax",
    n_jobs: int = 1,
    cache: JoinResultCache | int | None = None,
    metrics: MetricsRegistry | None = None,
    telemetry: list[JoinTelemetry] | None = None,
    fault_policy: FaultPolicy | None = None,
    checkpoint: CheckpointLog | str | Path | None = None,
    **options: object,
) -> list[SweepPoint]:
    """:func:`epsilon_sweep` over a couple stored in a persistent catalog.

    The stored envelopes are consulted first: when they prove a zero
    similarity at *every* requested epsilon (epsilon-monotone — if the
    largest epsilon is separated, all smaller ones are), the whole
    curve is synthesised from metadata and **no vectors are loaded**.
    Otherwise both communities load once and the sweep runs on the
    engine exactly as the in-memory variant — the curves are identical.
    """
    if not epsilons:
        raise ConfigurationError("epsilon_sweep needs at least one epsilon")
    if sorted(epsilons) != list(epsilons):
        raise ConfigurationError("epsilons must be given in ascending order")
    if catalog.pair_screened(key_b, key_a, max(epsilons)):
        return [
            SweepPoint(
                parameter=float(epsilon),
                similarity_percent=0.0,
                n_matched=0,
                elapsed_seconds=0.0,
            )
            for epsilon in epsilons
        ]
    return epsilon_sweep(
        catalog.get(key_b),
        catalog.get(key_a),
        epsilons,
        method=method,
        n_jobs=n_jobs,
        cache=cache,
        metrics=metrics,
        telemetry=telemetry,
        fault_policy=fault_policy,
        checkpoint=checkpoint,
        **options,
    )


def scale_sweep(
    spec: CoupleSpec,
    generator: VKGenerator | SyntheticGenerator,
    scales: list[float],
    *,
    epsilon: int,
    method: str = "ex-minmax",
    n_jobs: int = 1,
    cache: JoinResultCache | int | None = None,
    metrics: MetricsRegistry | None = None,
    telemetry: list[JoinTelemetry] | None = None,
    fault_policy: FaultPolicy | None = None,
    checkpoint: CheckpointLog | str | Path | None = None,
    **options: object,
) -> list[SweepPoint]:
    """Runtime as a function of couple size for one couple spec.

    Each point rebuilds the couple at the given scale and times the
    method — a per-method generalisation of Table 11.  The joins of all
    scales execute as one :class:`~repro.engine.BatchEngine` batch.
    With ``metrics`` attached, the engine's per-join records are
    appended to ``telemetry`` (when given).  ``fault_policy`` and
    ``checkpoint`` behave as in :func:`epsilon_sweep`.
    """
    if not scales:
        raise ConfigurationError("scale_sweep needs at least one scale")
    communities: list[Community] = []
    for scale in scales:
        community_b, community_a = build_couple(spec, generator, scale=scale)
        communities.extend((community_b, community_a))
    jobs = [
        PairJob.build(2 * index, 2 * index + 1, method, epsilon, options)
        for index in range(len(scales))
    ]
    with BatchEngine(
        communities,
        n_jobs=n_jobs,
        cache=cache,
        metrics=metrics,
        fault_policy=fault_policy,
        checkpoint=checkpoint,
    ) as engine:
        outcomes = engine.run(jobs)
        if telemetry is not None:
            telemetry.extend(engine.telemetry)
    return [
        _point(
            float(len(communities[2 * index]) + len(communities[2 * index + 1])) / 2,
            outcome.result,
        )
        for index, outcome in enumerate(outcomes)
    ]


def render_sweep(points: list[SweepPoint], *, parameter_name: str) -> str:
    """Monospace rendering of a sweep curve with a text sparkline."""
    if not points:
        return "(empty sweep)"
    peak = max(point.similarity_percent for point in points) or 1.0
    lines = [f"{parameter_name:>12}  similarity  matched   time      curve"]
    for point in points:
        bar = "#" * max(1, int(round(24 * point.similarity_percent / peak)))
        lines.append(
            f"{point.parameter:12g}  {point.similarity_percent:9.2f}%  "
            f"{point.n_matched:7d}  {point.elapsed_seconds:7.3f}s  {bar}"
        )
    return "\n".join(lines)
