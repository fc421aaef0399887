"""Experiment harness: runs every table of the paper's evaluation.

Each evaluation table of the paper is one configuration of four axes:
dataset (VK / Synthetic), method family (approximate / exact), couple
set (different / same categories) and epsilon.  The mapping is:

===== ========== ============ ========== =========
Table Dataset    Methods      Couples    Epsilon
===== ========== ============ ========== =========
3     VK         approximate  1–10       1
4     VK         exact        1–10       1
5     VK         approximate  11–20      1
6     VK         exact        11–20      1
7     Synthetic  approximate  1–10       15000
8     Synthetic  exact        1–10       15000
9     Synthetic  approximate  11–20      15000
10    Synthetic  exact        11–20      15000
===== ========== ============ ========== =========

Table 11 is the Ex-MinMax scalability study and Table 1 the dataset
statistics; :func:`run_scalability` and :func:`run_table1` cover those.
Community sizes are the paper's, shrunk by ``scale`` (default 1/64).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..algorithms import APPROXIMATE_METHODS, EXACT_METHODS, get_algorithm
from ..core.errors import ConfigurationError
from ..core.types import Community, CSJResult
from ..engine import BatchEngine, CheckpointLog, JoinResultCache, PairJob
from ..obs import JoinTelemetry, MetricsRegistry
from ..datasets.categories import CATEGORIES
from ..datasets.couples import (
    DEFAULT_SCALE,
    SCALABILITY_SIZES,
    CoupleSpec,
    build_couple,
    couples_for_table,
    scale_size,
)
from ..datasets.stats import CategoryTotal, max_likes_per_dimension, ranking
from ..datasets.synthetic import SYNTHETIC_EPSILON, SyntheticGenerator
from ..datasets.vk import VK_EPSILON, VKGenerator
from .paper_reference import paper_similarity

__all__ = [
    "METHOD_TABLES",
    "CoupleRun",
    "TableRun",
    "ScalabilityCell",
    "Table1Run",
    "dataset_for_table",
    "epsilon_for_dataset",
    "make_generator",
    "methods_for_table",
    "run_couple",
    "run_method_table",
    "run_scalability",
    "run_table1",
]

#: The method-comparison tables of the evaluation section.
METHOD_TABLES = (3, 4, 5, 6, 7, 8, 9, 10)


def dataset_for_table(table: int) -> str:
    """``"vk"`` for Tables 3–6, ``"synthetic"`` for Tables 7–10."""
    if table in (3, 4, 5, 6):
        return "vk"
    if table in (7, 8, 9, 10):
        return "synthetic"
    raise ConfigurationError(f"tables 3-10 are method tables; got {table}")


def methods_for_table(table: int) -> tuple[str, ...]:
    """Approximate methods for odd tables, exact for even ones."""
    if table in (3, 5, 7, 9):
        return APPROXIMATE_METHODS
    if table in (4, 6, 8, 10):
        return EXACT_METHODS
    raise ConfigurationError(f"tables 3-10 are method tables; got {table}")


def epsilon_for_dataset(dataset: str) -> int:
    """Section 6.1: epsilon = 1 on VK, 15000 on Synthetic."""
    if dataset == "vk":
        return VK_EPSILON
    if dataset == "synthetic":
        return SYNTHETIC_EPSILON
    raise ConfigurationError(f"unknown dataset {dataset!r}")


def make_generator(dataset: str, seed: int = 7) -> VKGenerator | SyntheticGenerator:
    """Dataset generator factory keyed the way the tables name them."""
    if dataset == "vk":
        return VKGenerator(seed=seed)
    if dataset == "synthetic":
        return SyntheticGenerator(seed=seed)
    raise ConfigurationError(f"unknown dataset {dataset!r}")


@dataclass
class CoupleRun:
    """All method results for one couple (one row of a method table)."""

    spec: CoupleSpec
    size_b: int
    size_a: int
    results: dict[str, CSJResult] = field(default_factory=dict)
    #: Per-join telemetry records (populated when run with ``metrics``).
    telemetry: list[JoinTelemetry] = field(default_factory=list)

    def similarity_percent(self, method: str) -> float:
        return self.results[method].similarity_percent

    def elapsed(self, method: str) -> float:
        return self.results[method].elapsed_seconds


@dataclass
class TableRun:
    """A regenerated method table (Tables 3–10)."""

    table: int
    dataset: str
    epsilon: int
    scale: float
    methods: tuple[str, ...]
    rows: list[CoupleRun] = field(default_factory=list)
    #: Per-join telemetry records (populated when run with ``metrics``).
    telemetry: list[JoinTelemetry] = field(default_factory=list)

    def paper_value(self, c_id: int, method: str) -> float | None:
        return paper_similarity(self.table, c_id, method)


def _method_jobs(
    first: int,
    second: int,
    methods: tuple[str, ...],
    *,
    epsilon: int,
    engine: str,
    method_options: dict[str, dict] | None,
) -> list[PairJob]:
    """One engine job per requested method for a couple at (first, second)."""
    options = method_options or {}
    return [
        PairJob.build(
            first,
            second,
            method,
            epsilon,
            {"engine": engine, **options.get(method, {})},
        )
        for method in methods
    ]


def run_couple(
    spec: CoupleSpec,
    generator: VKGenerator | SyntheticGenerator,
    methods: tuple[str, ...],
    *,
    epsilon: int,
    scale: float = DEFAULT_SCALE,
    engine: str = "numpy",
    method_options: dict[str, dict] | None = None,
    cache: JoinResultCache | int | None = None,
    metrics: MetricsRegistry | None = None,
    checkpoint: CheckpointLog | str | Path | None = None,
) -> CoupleRun:
    """Build one couple and run every requested method on it.

    The methods execute on the :class:`~repro.engine.BatchEngine`, so a
    shared ``cache`` carries results across repeated calls.  With
    ``metrics`` the engine's per-join telemetry lands on the returned
    run's ``telemetry`` list; ``checkpoint`` makes completed joins
    durable for resumption.
    """
    community_b, community_a = build_couple(spec, generator, scale=scale)
    run = CoupleRun(spec=spec, size_b=len(community_b), size_a=len(community_a))
    jobs = _method_jobs(
        0, 1, methods, epsilon=epsilon, engine=engine, method_options=method_options
    )
    with BatchEngine(
        [community_b, community_a],
        cache=cache,
        metrics=metrics,
        checkpoint=checkpoint,
    ) as batch_engine:
        for job, outcome in zip(jobs, batch_engine.run(jobs)):
            run.results[job.method] = outcome.result
        run.telemetry = list(batch_engine.telemetry)
    return run


def run_method_table(
    table: int,
    *,
    scale: float = DEFAULT_SCALE,
    seed: int = 7,
    engine: str = "numpy",
    methods: tuple[str, ...] | None = None,
    couples: tuple[CoupleSpec, ...] | None = None,
    method_options: dict[str, dict] | None = None,
    cache: JoinResultCache | int | None = None,
    metrics: MetricsRegistry | None = None,
    checkpoint: CheckpointLog | str | Path | None = None,
) -> TableRun:
    """Regenerate one of Tables 3–10 at the given scale.

    All couples are generated up front (dataset generation stays
    deterministic and serial), then every ``couple x method`` join runs
    on one :class:`~repro.engine.BatchEngine`, in-process and one job
    per ``run`` call, so each join's runtime is measured alone rather
    than as a share of a batch; ``cache``
    makes sweep-style repeated table runs (or overlapping tables) skip
    identical joins entirely.  With ``metrics`` the per-join telemetry
    records land on the returned run's ``telemetry`` list (and on each
    row's, per couple).  ``checkpoint`` makes the finished joins
    durable, so a killed table run resumes with only the unfinished
    couple x method cells recomputed.
    """
    dataset = dataset_for_table(table)
    chosen_methods = methods if methods is not None else methods_for_table(table)
    chosen_couples = couples if couples is not None else couples_for_table(table)
    epsilon = epsilon_for_dataset(dataset)
    generator = make_generator(dataset, seed=seed)
    run = TableRun(
        table=table,
        dataset=dataset,
        epsilon=epsilon,
        scale=scale,
        methods=tuple(chosen_methods),
    )
    communities: list[Community] = []
    for spec in chosen_couples:
        community_b, community_a = build_couple(spec, generator, scale=scale)
        communities.extend((community_b, community_a))
        run.rows.append(
            CoupleRun(spec=spec, size_b=len(community_b), size_a=len(community_a))
        )
    jobs: list[PairJob] = []
    for row_index in range(len(chosen_couples)):
        jobs.extend(
            _method_jobs(
                2 * row_index,
                2 * row_index + 1,
                tuple(chosen_methods),
                epsilon=epsilon,
                engine=engine,
                method_options=method_options,
            )
        )
    with BatchEngine(
        communities,
        cache=cache,
        metrics=metrics,
        checkpoint=checkpoint,
    ) as batch_engine:
        outcomes = [batch_engine.run([job])[0] for job in jobs]
        run.telemetry = list(batch_engine.telemetry)
    for index, (job, outcome) in enumerate(zip(jobs, outcomes)):
        run.rows[index // len(chosen_methods)].results[job.method] = outcome.result
    for record in run.telemetry:
        # Jobs index communities pairwise, so the couple row is first // 2.
        run.rows[record.first // 2].telemetry.append(record)
    return run


@dataclass
class ScalabilityCell:
    """One (category, size step) cell of Table 11."""

    category: str
    step: int  # 1-based, the paper's size_1 .. size_4
    average_size: int
    similarity_percent: float
    elapsed_seconds: float


def run_scalability(
    *,
    scale: float = DEFAULT_SCALE,
    seed: int = 7,
    method: str = "ex-minmax",
    engine: str = "numpy",
    categories: tuple[str, ...] | None = None,
    steps: tuple[int, ...] = (1, 2, 3, 4),
    overlap_fraction: float = 0.25,
) -> list[ScalabilityCell]:
    """Regenerate Table 11: Ex-MinMax runtime across couple sizes.

    The paper reports, per category, the runtime on four couples of
    growing average size.  We build couples at the scaled paper sizes
    (``B`` at 90% of the average, ``A`` at 110%) with a fixed realistic
    overlap and time the chosen method.
    """
    generator = make_generator("vk", seed=seed)
    epsilon = epsilon_for_dataset("vk")
    chosen = categories if categories is not None else tuple(SCALABILITY_SIZES)
    cells: list[ScalabilityCell] = []
    for category in chosen:
        sizes = SCALABILITY_SIZES[category]
        for step in steps:
            average = scale_size(sizes[step - 1], scale)
            size_b = max(20, int(round(average * 0.9)))
            size_a = max(size_b, int(round(average * 1.1)))
            built = generator.make_couple_vectors(
                size_b=size_b,
                size_a=size_a,
                overlap_fraction=overlap_fraction,
                category_b=category,
                category_a=category,
                seed_key=("table11", category, step),
            )
            community_b = Community(f"{category}-B{step}", built.vectors_b, category)
            community_a = Community(f"{category}-A{step}", built.vectors_a, category)
            algorithm = get_algorithm(method, epsilon, engine=engine)
            result = algorithm.join(community_b, community_a)
            cells.append(
                ScalabilityCell(
                    category=category,
                    step=step,
                    average_size=(len(community_b) + len(community_a)) // 2,
                    similarity_percent=result.similarity_percent,
                    elapsed_seconds=result.elapsed_seconds,
                )
            )
    return cells


@dataclass
class Table1Run:
    """Regenerated Table 1: per-dataset category rankings."""

    n_users: int
    vk_ranking: list[CategoryTotal]
    synthetic_ranking: list[CategoryTotal]
    vk_max_per_dimension: int
    synthetic_max_per_dimension: int


def run_table1(*, n_users: int = 20_000, seed: int = 7) -> Table1Run:
    """Sample both populations and rank categories by total likes."""
    vk_population = VKGenerator(seed=seed).sample_population(n_users)
    synthetic_population = SyntheticGenerator(seed=seed).sample_population(n_users)
    return Table1Run(
        n_users=n_users,
        vk_ranking=ranking(vk_population),
        synthetic_ranking=ranking(synthetic_population),
        vk_max_per_dimension=max_likes_per_dimension(vk_population),
        synthetic_max_per_dimension=max_likes_per_dimension(synthetic_population),
    )


def categories_available() -> tuple[str, ...]:
    """All categories (Table 1 order)."""
    return CATEGORIES
