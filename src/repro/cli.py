"""Command-line interface: regenerate any table of the paper.

Examples::

    repro-csj table1 --users 20000
    repro-csj table2
    repro-csj table4 --scale 0.01 --seed 7
    repro-csj table11 --scale 0.005 --categories Sport Medicine
    repro-csj couple --cid 13 --dataset vk --method ex-minmax

(Equivalently ``python -m repro.cli ...``.)
"""

from __future__ import annotations

import argparse
import os
import sys

from ._version import __version__
from .algorithms import ALGORITHMS
from .analysis.runner import (
    METHOD_TABLES,
    run_couple,
    run_method_table,
    run_scalability,
    run_table1,
    make_generator,
    epsilon_for_dataset,
)
from .analysis.tables import (
    render_method_table,
    render_method_table_with_reference,
    render_scalability_table,
    render_table1,
    render_table2,
)
from .datasets.couples import DEFAULT_SCALE, PAPER_COUPLES
from .datasets.categories import CATEGORIES

__all__ = ["main", "build_parser"]


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Batch-engine knobs shared by the batch subcommands."""
    parser.add_argument(
        "--cache",
        type=int,
        default=0,
        metavar="ENTRIES",
        help="join-result cache capacity (0 disables caching)",
    )
    parser.add_argument(
        "--resume-from",
        default=None,
        metavar="PATH",
        help=(
            "JSON-lines checkpoint log: completed joins are loaded from it "
            "and new ones appended, so a killed run resumes for free"
        ),
    )


def _engine_kwargs(args: argparse.Namespace) -> dict:
    kwargs: dict = {"cache": args.cache if args.cache > 0 else None}
    if args.resume_from is not None:
        kwargs["checkpoint"] = args.resume_from
    return kwargs


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """Observability knobs shared by the batch subcommands."""
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="collect per-join telemetry and print the run summary",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="write the JSON-lines telemetry log here (implies --telemetry)",
    )


def _telemetry_registry(args: argparse.Namespace):
    """A fresh registry when telemetry was requested, else ``None``."""
    if getattr(args, "telemetry", False) or getattr(args, "telemetry_out", None):
        from .obs import MetricsRegistry

        return MetricsRegistry()
    return None


def _emit_telemetry(args, records, metrics, **header: object) -> None:
    """Write the run log and/or print the summary (no-op when disabled)."""
    if metrics is None:
        return
    from .obs import summarize_records, write_jsonl

    header = {"command": args.command, **header}
    if args.telemetry_out:
        summary = write_jsonl(
            args.telemetry_out, records, header=header, snapshot=metrics.snapshot()
        )
        print(f"telemetry log written to {args.telemetry_out}")
    else:
        summary = summarize_records(records)
    print("-- telemetry --")
    print(summary.render())


def _missing_database(path: str | None) -> bool:
    """True, after one line on stderr, when ``path`` names no file.

    Opening a catalog creates its database, so every command but
    ``catalog import`` checks first that a mistyped path is not made.
    """
    if path is None or os.path.isfile(path):
        return False
    print(f"repro-csj: no catalog database at {path}", file=sys.stderr)
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-csj",
        description=(
            "Reproduce the tables of 'Community Similarity based on User "
            "Profile Joins' (EDBT 2024)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser("table1", help="category rankings (Table 1)")
    table1.add_argument("--users", type=int, default=20_000)
    table1.add_argument("--seed", type=int, default=7)

    subparsers.add_parser("table2", help="the compared couples (Table 2)")

    for table in METHOD_TABLES:
        sub = subparsers.add_parser(
            f"table{table}", help=f"method comparison (Table {table})"
        )
        sub.add_argument("--scale", type=float, default=DEFAULT_SCALE)
        sub.add_argument("--seed", type=int, default=7)
        sub.add_argument("--engine", choices=("python", "numpy"), default="numpy")
        sub.add_argument(
            "--reference",
            action="store_true",
            help="print paper-vs-measured instead of the runtime layout",
        )
        _add_engine_arguments(sub)
        _add_telemetry_arguments(sub)

    table11 = subparsers.add_parser("table11", help="scalability (Table 11)")
    table11.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    table11.add_argument("--seed", type=int, default=7)
    table11.add_argument("--method", choices=tuple(ALGORITHMS), default="ex-minmax")
    table11.add_argument(
        "--categories", nargs="*", choices=CATEGORIES, default=None
    )
    table11.add_argument("--steps", type=int, nargs="*", default=[1, 2, 3, 4])

    sweep = subparsers.add_parser(
        "sweep", help="epsilon selectivity curve on one couple"
    )
    sweep.add_argument("--cid", type=int, default=1, choices=range(1, 21))
    sweep.add_argument("--dataset", choices=("vk", "synthetic"), default="vk")
    sweep.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument(
        "--epsilons", type=int, nargs="+", default=[0, 1, 2, 4, 8, 16]
    )
    sweep.add_argument("--method", choices=tuple(ALGORITHMS), default="ex-minmax")
    _add_engine_arguments(sweep)
    _add_telemetry_arguments(sweep)

    topk = subparsers.add_parser(
        "topk", help="rank the most similar community pairs (batch engine)"
    )
    topk.add_argument("--dataset", choices=("vk", "synthetic"), default="vk")
    topk.add_argument("--scale", type=float, default=DEFAULT_SCALE / 4)
    topk.add_argument("--seed", type=int, default=7)
    topk.add_argument("--k", type=int, default=5)
    topk.add_argument(
        "--couples",
        type=int,
        default=10,
        choices=range(1, 21),
        help="how many paper couples feed the community fleet (2 each)",
    )
    topk.add_argument(
        "--epsilon", type=int, default=None, help="defaults to the dataset's epsilon"
    )
    _add_engine_arguments(topk)
    _add_telemetry_arguments(topk)

    stats = subparsers.add_parser(
        "stats", help="summarize a JSON-lines telemetry log"
    )
    stats.add_argument("log", help="path to a --telemetry-out run log")
    stats.add_argument(
        "--prometheus",
        action="store_true",
        help="also dump the stored metrics snapshot in Prometheus text format",
    )

    events = subparsers.add_parser(
        "events", help="pruning-event breakdown on one couple (python engines)"
    )
    events.add_argument("--cid", type=int, default=1, choices=range(1, 21))
    events.add_argument("--dataset", choices=("vk", "synthetic"), default="vk")
    events.add_argument("--scale", type=float, default=DEFAULT_SCALE / 8)
    events.add_argument("--seed", type=int, default=7)

    experiments = subparsers.add_parser(
        "experiments", help="run everything and write EXPERIMENTS.md"
    )
    experiments.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    experiments.add_argument("--seed", type=int, default=7)
    experiments.add_argument("--users", type=int, default=20_000)
    experiments.add_argument("--output", default="EXPERIMENTS.md")

    run_config = subparsers.add_parser(
        "run-config", help="run a declarative experiment from a JSON config"
    )
    run_config.add_argument("config", help="path to the JSON experiment config")
    run_config.add_argument(
        "--save", default=None, help="also save the results to this JSON path"
    )

    manifest = subparsers.add_parser(
        "manifest", help="build or verify a dataset fingerprint manifest"
    )
    manifest.add_argument("action", choices=("build", "verify"))
    manifest.add_argument("path", help="manifest JSON path")
    manifest.add_argument("--dataset", choices=("vk", "synthetic"), default="vk")
    manifest.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    manifest.add_argument("--seed", type=int, default=7)
    manifest.add_argument("--couples", type=int, nargs="*", default=None)

    doctor = subparsers.add_parser(
        "doctor", help="run the cross-method invariant self-check"
    )
    doctor.add_argument("--cid", type=int, default=1, choices=range(1, 21))
    doctor.add_argument("--dataset", choices=("vk", "synthetic"), default="vk")
    doctor.add_argument("--scale", type=float, default=DEFAULT_SCALE / 8)
    doctor.add_argument("--seed", type=int, default=7)

    couple = subparsers.add_parser("couple", help="join one couple by cID")
    couple.add_argument("--cid", type=int, required=True, choices=range(1, 21))
    couple.add_argument("--dataset", choices=("vk", "synthetic"), default="vk")
    couple.add_argument("--method", choices=tuple(ALGORITHMS), default="ex-minmax")
    couple.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    couple.add_argument("--seed", type=int, default=7)
    couple.add_argument("--engine", choices=("python", "numpy"), default="numpy")

    serve = subparsers.add_parser(
        "serve", help="run the asyncio CSJ similarity service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7411, help="0 binds an ephemeral port"
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admitted-but-unfinished request bound (excess is shed)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="sustained requests/second (token bucket); unlimited when omitted",
    )
    serve.add_argument(
        "--burst", type=int, default=16, help="token-bucket burst capacity"
    )
    serve.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        help="implicit deadline for requests that carry none",
    )
    serve.add_argument(
        "--threads", type=int, default=4, help="executor threads for join work"
    )
    serve.add_argument(
        "--cache",
        type=int,
        default=1024,
        metavar="ENTRIES",
        help="shared join-result cache capacity (0 disables)",
    )
    serve.add_argument(
        "--preload",
        type=int,
        default=0,
        metavar="COUPLES",
        choices=range(0, 21),
        help="register this many paper couples (2 communities each) at startup",
    )
    serve.add_argument(
        "--delta",
        action="store_true",
        help="maintain per-couple delta joins for the update endpoint "
        "(falls back to full recompute per update when off)",
    )
    serve.add_argument(
        "--delta-couples",
        type=int,
        default=64,
        metavar="COUPLES",
        help="LRU bound on concurrently maintained couples",
    )
    serve.add_argument("--dataset", choices=("vk", "synthetic"), default="vk")
    serve.add_argument("--scale", type=float, default=DEFAULT_SCALE / 4)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--catalog",
        default=None,
        metavar="DB",
        help=(
            "back the store with a persistent catalog database; communities "
            "fault in lazily on first request (see docs/catalog.md)"
        ),
    )

    catalog = subparsers.add_parser(
        "catalog", help="manage a persistent community catalog database"
    )
    catalog_sub = catalog.add_subparsers(dest="catalog_command", required=True)

    cat_import = catalog_sub.add_parser(
        "import", help="register a directory of <key>.npz community archives"
    )
    cat_import.add_argument("db", help="catalog database path (created if missing)")
    cat_import.add_argument(
        "directory", help="directory of <key>.npz + <key>.meta.json archives"
    )

    cat_ls = catalog_sub.add_parser("ls", help="list catalogued communities")
    cat_ls.add_argument("db", help="catalog database path")

    cat_query = catalog_sub.add_parser(
        "query", help="indexed candidate-window query around one community"
    )
    cat_query.add_argument("db", help="catalog database path")
    cat_query.add_argument("key", help="probe community key")
    cat_query.add_argument(
        "--epsilon", type=int, default=1, help="per-dimension join threshold"
    )

    shard = subparsers.add_parser(
        "shard",
        help="shard a catalog and run distributed queries (docs/sharding.md)",
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    shard_partition = shard_sub.add_parser(
        "partition", help="split a catalog into per-shard catalogs"
    )
    shard_partition.add_argument("db", help="source catalog database path")
    shard_partition.add_argument(
        "out_dir", help="partition directory (plan.json + shard_NNN.db)"
    )
    shard_partition.add_argument(
        "--shards", type=int, default=4, help="number of shards"
    )
    shard_partition.add_argument(
        "--epsilon",
        type=int,
        default=1,
        help="plan epsilon: candidate pairs at or below it stay co-located",
    )
    shard_partition.add_argument(
        "--hot-fraction",
        type=float,
        default=1.0,
        help="components costing more than this fraction of the per-shard "
        "budget are split pair-wise with replicated endpoints",
    )
    shard_partition.add_argument(
        "--no-replicate",
        action="store_true",
        help="plain LPT bin-packing, never split a hot component",
    )
    shard_partition.add_argument(
        "--sample-pairs",
        type=int,
        default=0,
        metavar="N",
        help="calibrate the cost model by timing N sampled candidate joins",
    )
    shard_partition.add_argument("--seed", type=int, default=7)

    shard_serve = shard_sub.add_parser(
        "serve", help="serve every shard of a partition directory"
    )
    shard_serve.add_argument("plan_dir", help="partition directory")

    shard_topk = shard_sub.add_parser(
        "topk", help="distributed all-pairs top-k across the shards"
    )
    shard_topk.add_argument("plan_dir", help="partition directory")
    shard_topk.add_argument(
        "--epsilon", type=int, default=1, help="per-dimension join threshold"
    )
    shard_topk.add_argument("--k", type=int, default=10)
    shard_topk.add_argument(
        "--screen-method", choices=tuple(ALGORITHMS), default="ap-minmax"
    )
    shard_topk.add_argument(
        "--refine-method", choices=tuple(ALGORITHMS), default="ex-minmax"
    )
    shard_topk.add_argument("--screen-margin", type=float, default=0.8)
    shard_topk.add_argument(
        "--addresses",
        nargs="+",
        default=None,
        metavar="HOST:PORT",
        help="running shard servers, one per shard in plan order "
        "(default: self-host an in-process fleet)",
    )
    shard_topk.add_argument(
        "--allow-partial",
        action="store_true",
        help="return a degraded ranking instead of failing when shards are down",
    )

    shard_sweep = shard_sub.add_parser(
        "sweep", help="distributed epsilon sweep over selected couples"
    )
    shard_sweep.add_argument("plan_dir", help="partition directory")
    shard_sweep.add_argument(
        "--pair",
        nargs=2,
        action="append",
        required=True,
        metavar=("FIRST", "SECOND"),
        dest="pairs",
        help="a couple of catalog keys (repeatable)",
    )
    shard_sweep.add_argument(
        "--epsilons", type=int, nargs="+", required=True,
        help="ascending per-dimension thresholds",
    )
    shard_sweep.add_argument(
        "--method", choices=tuple(ALGORITHMS), default="ex-minmax"
    )
    shard_sweep.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help="JSONL checkpoint: completed cells are skipped on re-run",
    )
    shard_sweep.add_argument(
        "--addresses", nargs="+", default=None, metavar="HOST:PORT",
        help="running shard servers (default: self-host)",
    )
    shard_sweep.add_argument("--allow-partial", action="store_true")

    # Everything after ``lint`` goes to the repro-lint parser unparsed.
    subparsers.add_parser(
        "lint",
        add_help=False,
        help="run the repro.lint invariant checker (takes repro-lint's arguments)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    command: str = args.command

    if command == "lint":
        from .lint.cli import main as lint_main

        return lint_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")

    if command == "catalog":
        from .catalog import PersistentCatalog

        if args.catalog_command != "import" and _missing_database(args.db):
            return 2
        with PersistentCatalog(args.db) as catalog:
            if args.catalog_command == "import":
                imported = catalog.import_directory(args.directory)
                print(
                    f"imported {len(imported)} communities from "
                    f"{args.directory} into {args.db}"
                )
                return 0

            if args.catalog_command == "ls":
                keys = catalog.keys()
                for key in keys:
                    record = catalog.metadata(key)
                    print(
                        f"{record.key}  users={record.n_users} "
                        f"dims={record.n_dims} category={record.category} "
                        f"fingerprint={record.fingerprint[:12]}"
                    )
                storage = catalog.storage_stats()
                print(
                    f"{storage['communities']} communities, "
                    f"{storage['vector_bytes']} vector bytes"
                )
                return 0

            # query
            survivors = catalog.candidate_keys(args.key, args.epsilon)
            for key in survivors:
                print(key)
            stats = catalog.io_stats()
            print(
                f"{len(survivors)} candidates for {args.key!r} at "
                f"epsilon={args.epsilon} "
                f"(rows scanned: {stats['repro_catalog_rows_scanned_total']}, "
                f"vector loads: {stats['repro_catalog_vector_loads_total']})"
            )
            return 0

    if command == "shard":
        import contextlib
        from pathlib import Path

        from .shard import (
            PLAN_FILENAME,
            PartitionPlan,
            ShardCoordinator,
            ShardFleet,
            partition_catalog,
        )

        def _parse_addresses(raw: list[str]) -> list[tuple[str, int]]:
            addresses = []
            for item in raw:
                host, _, port = item.rpartition(":")
                addresses.append((host or "127.0.0.1", int(port)))
            return addresses

        if args.shard_command == "partition":
            from .catalog import PersistentCatalog

            if _missing_database(args.db):
                return 2
            with PersistentCatalog(args.db) as catalog:
                plan = partition_catalog(
                    catalog,
                    args.out_dir,
                    args.shards,
                    epsilon=args.epsilon,
                    hot_fraction=args.hot_fraction,
                    replicate=not args.no_replicate,
                    sample_pairs=args.sample_pairs,
                    seed=args.seed,
                )
            stats = plan.stats
            print(
                f"partitioned {stats['communities']} communities into "
                f"{plan.n_shards} shards at epsilon={plan.epsilon} "
                f"({args.out_dir})"
            )
            for spec in plan.shards:
                print(
                    f"  shard {spec.shard}: {len(spec.keys)} communities, "
                    f"cost {spec.cost} ({spec.db})"
                )
            print(
                f"  components={stats['components']} "
                f"split={stats['split_components']} "
                f"replicated_keys={len(plan.replicated)} "
                f"imbalance={stats['imbalance']:.3f}"
            )
            return 0

        if args.shard_command == "serve":
            import time as _time

            with ShardFleet(args.plan_dir) as fleet:
                for shard, (host, port) in enumerate(fleet.addresses):
                    print(f"shard {shard}: {host}:{port}")
                print(
                    f"serving {fleet.plan.n_shards} shards from "
                    f"{args.plan_dir} (Ctrl+C to stop)"
                )
                try:
                    while True:
                        _time.sleep(3600)
                except KeyboardInterrupt:
                    print("shutting down fleet")
            return 0

        with contextlib.ExitStack() as stack:
            if args.addresses:
                plan = PartitionPlan.load(Path(args.plan_dir) / PLAN_FILENAME)
                coordinator = stack.enter_context(
                    ShardCoordinator(plan, _parse_addresses(args.addresses))
                )
            else:
                fleet = stack.enter_context(ShardFleet(args.plan_dir))
                coordinator = stack.enter_context(fleet.coordinator())
            if args.shard_command == "topk":
                result = coordinator.top_k(
                    epsilon=args.epsilon,
                    k=args.k,
                    screen_method=args.screen_method,
                    refine_method=args.refine_method,
                    screen_margin=args.screen_margin,
                    allow_partial=args.allow_partial,
                )
                for rank, score in enumerate(result.scores, start=1):
                    print(
                        f"{rank:3d}. {score.label}  "
                        f"similarity={score.similarity:.6f} "
                        f"matched={score.result.n_matched}"
                    )
                if result.degraded:
                    print(
                        f"DEGRADED: missing shards {list(result.missing)}, "
                        f"{len(result.dropped_keys)} dropped communities, "
                        f"{len(result.lost_pairs)} lost pairs"
                    )
                return 0
            sweep_result = coordinator.sweep(
                [tuple(pair) for pair in args.pairs],
                args.epsilons,
                method=args.method,
                checkpoint=args.checkpoint,
                allow_partial=args.allow_partial,
            )
        for (first, second), points in sweep_result.curves.items():
            print(f"{first} | {second}")
            for point in points:
                print(
                    f"  epsilon={point.parameter:g} "
                    f"similarity={point.similarity_percent:.2f}% "
                    f"matched={point.n_matched}"
                )
        if sweep_result.resumed_cells:
            print(f"resumed {sweep_result.resumed_cells} checkpointed cells")
        if sweep_result.degraded:
            print(
                f"DEGRADED: missing shards {list(sweep_result.missing)}, "
                f"{len(sweep_result.lost_cells)} lost cells"
            )
        return 0

    if command == "serve":
        import asyncio

        if _missing_database(args.catalog):
            return 2

        from .serve import AdmissionPolicy, CommunityStore, CSJServer, ServeConfig

        if args.catalog is not None:
            from .catalog import PersistentCatalog
            from .serve import CatalogBackedStore

            store: CommunityStore = CatalogBackedStore(
                PersistentCatalog(args.catalog)
            )
        else:
            store = CommunityStore()
        if args.preload:
            import dataclasses

            from .datasets.couples import build_couple

            generator = make_generator(args.dataset, seed=args.seed)
            for spec in PAPER_COUPLES[: args.preload]:
                couple = build_couple(spec, generator, scale=args.scale)
                for side, community in zip("BA", couple):
                    # Same disambiguation as `topk`: paper couple names
                    # repeat across cIDs, the store needs unique names.
                    store.register_community(
                        dataclasses.replace(
                            community, name=f"c{spec.c_id}{side}:{community.name}"
                        )
                    )
        server = CSJServer(
            ServeConfig(
                host=args.host,
                port=args.port,
                admission=AdmissionPolicy(
                    max_pending=args.max_pending,
                    rate=args.rate,
                    burst=args.burst,
                    default_deadline_ms=args.default_deadline_ms,
                ),
                executor_threads=args.threads,
                cache_entries=args.cache,
                delta_maintenance=args.delta,
                delta_couples=args.delta_couples,
            ),
            store=store,
        )

        async def _serve() -> None:
            host, port = await server.start()
            print(
                f"repro-csj serve {__version__} listening on {host}:{port} "
                f"({len(store)} communities registered)"
            )
            try:
                await server.serve_forever()
            finally:
                await server.stop()

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            print("shutting down")
        return 0

    if command == "table1":
        print(render_table1(run_table1(n_users=args.users, seed=args.seed)))
        return 0

    if command == "table2":
        print(render_table2())
        return 0

    if command == "table11":
        cells = run_scalability(
            scale=args.scale,
            seed=args.seed,
            method=args.method,
            categories=tuple(args.categories) if args.categories else None,
            steps=tuple(args.steps),
        )
        print(render_scalability_table(cells, scale=args.scale))
        return 0

    if command == "sweep":
        from .analysis.sweeps import epsilon_sweep, render_sweep
        from .datasets.couples import build_couple

        spec = next(s for s in PAPER_COUPLES if s.c_id == args.cid)
        generator = make_generator(args.dataset, seed=args.seed)
        community_b, community_a = build_couple(spec, generator, scale=args.scale)
        metrics = _telemetry_registry(args)
        records: list = []
        points = epsilon_sweep(
            community_b,
            community_a,
            epsilons=sorted(args.epsilons),
            method=args.method,
            metrics=metrics,
            telemetry=records,
            **_engine_kwargs(args),
        )
        print(
            f"cID {spec.c_id} on {args.dataset}: |B|={len(community_b)}, "
            f"|A|={len(community_a)}, method={args.method}"
        )
        print(render_sweep(points, parameter_name="epsilon"))
        _emit_telemetry(
            args, records, metrics,
            cid=spec.c_id, dataset=args.dataset, method=args.method,
        )
        return 0

    if command == "stats":
        from .obs import MetricsRegistry, read_jsonl, summarize_records

        header, records, trailer = read_jsonl(args.log)
        if header:
            rendered = ", ".join(
                f"{key}={value}"
                for key, value in header.items()
                if key != "kind"
            )
            print(f"run: {rendered}")
        print(summarize_records(records).render())
        if args.prometheus:
            snapshot = (trailer or {}).get("metrics")
            if snapshot:
                from .catalog import init_catalog_metrics
                from .serve.store import init_delta_metrics
                from .shard.metrics import init_shard_metrics

                registry = MetricsRegistry()
                # Zero-initialise every metric family before merging so
                # dashboards see all repro_* samples even for runs that
                # never touched a subsystem (counters add on merge, so
                # recorded values pass through unchanged).
                init_delta_metrics(registry)
                init_catalog_metrics(registry)
                init_shard_metrics(registry)
                registry.merge(snapshot)
                print()
                print(registry.to_prometheus(), end="")
            else:
                print("(no metrics snapshot in log)")
        return 0

    if command == "events":
        from .analysis.events_report import profile_events, render_event_report
        from .datasets.couples import build_couple

        spec = next(s for s in PAPER_COUPLES if s.c_id == args.cid)
        generator = make_generator(args.dataset, seed=args.seed)
        community_b, community_a = build_couple(spec, generator, scale=args.scale)
        profiles = profile_events(
            community_b,
            community_a,
            epsilon=epsilon_for_dataset(args.dataset),
        )
        print(
            f"cID {spec.c_id} on {args.dataset}: |B|={len(community_b)}, "
            f"|A|={len(community_a)} (faithful python engines)"
        )
        print(render_event_report(profiles))
        return 0

    if command == "experiments":
        from .analysis.experiments import write_experiments_md

        path = write_experiments_md(
            args.output, scale=args.scale, seed=args.seed, n_users=args.users
        )
        print(f"wrote {path}")
        return 0

    if command == "run-config":
        from .analysis.config import ExperimentConfig, run_experiment
        from .analysis.results_io import save_table_run

        config = ExperimentConfig.from_json(args.config)
        run = run_experiment(config)
        print(f"experiment {config.name!r} on {config.dataset}, "
              f"epsilon {config.resolved_epsilon}, scale {config.scale:g}")
        print(render_method_table(run))
        if args.save:
            path = save_table_run(args.save, run)
            print(f"results saved to {path}")
        return 0

    if command == "manifest":
        from .datasets.manifest import (
            build_manifest,
            load_manifest,
            save_manifest,
            verify_manifest,
        )

        if args.action == "build":
            manifest = build_manifest(
                dataset=args.dataset,
                seed=args.seed,
                scale=args.scale,
                couples=tuple(args.couples) if args.couples else None,
            )
            path = save_manifest(args.path, manifest)
            print(f"manifest with {len(manifest['couples'])} couples "
                  f"written to {path}")
            return 0
        mismatches = verify_manifest(load_manifest(args.path))
        if mismatches:
            for line in mismatches:
                print(f"MISMATCH: {line}")
            return 1
        print("manifest verified: all fingerprints match")
        return 0

    if command == "doctor":
        from .analysis.selfcheck import run_selfcheck
        from .datasets.couples import build_couple

        spec = next(s for s in PAPER_COUPLES if s.c_id == args.cid)
        generator = make_generator(args.dataset, seed=args.seed)
        community_b, community_a = build_couple(spec, generator, scale=args.scale)
        report = run_selfcheck(
            community_b, community_a, epsilon=epsilon_for_dataset(args.dataset)
        )
        print(
            f"self-check on cID {spec.c_id} ({args.dataset}): "
            f"|B|={len(community_b)}, |A|={len(community_a)}"
        )
        print(report.render())
        return 0 if report.passed else 1

    if command == "topk":
        import dataclasses

        from .apps import top_k_pairs
        from .datasets.couples import build_couple

        generator = make_generator(args.dataset, seed=args.seed)
        communities = []
        for spec in PAPER_COUPLES[: args.couples]:
            couple = build_couple(spec, generator, scale=args.scale)
            for side, community in zip("BA", couple):
                # Paper couple names repeat across cIDs; rankings need
                # unique community names.
                communities.append(
                    dataclasses.replace(
                        community, name=f"c{spec.c_id}{side}:{community.name}"
                    )
                )
        epsilon = (
            args.epsilon
            if args.epsilon is not None
            else epsilon_for_dataset(args.dataset)
        )
        metrics = _telemetry_registry(args)
        records: list = []
        scores = top_k_pairs(
            communities,
            epsilon=epsilon,
            k=args.k,
            metrics=metrics,
            telemetry=records,
            **_engine_kwargs(args),
        )
        print(
            f"top-{args.k} of {len(communities)} {args.dataset} communities "
            f"(epsilon={epsilon})"
        )
        for rank, score in enumerate(scores, start=1):
            print(
                f"{rank:3d}. {score.label}  "
                f"{100 * score.similarity:6.2f}%  "
                f"matched={score.result.n_matched}"
            )
        if not scores:
            print("(no joinable pairs)")
        _emit_telemetry(
            args, records, metrics,
            dataset=args.dataset, k=args.k, epsilon=epsilon,
        )
        return 0

    if command == "couple":
        spec = next(s for s in PAPER_COUPLES if s.c_id == args.cid)
        generator = make_generator(args.dataset, seed=args.seed)
        run = run_couple(
            spec,
            generator,
            (args.method,),
            epsilon=epsilon_for_dataset(args.dataset),
            scale=args.scale,
            engine=args.engine,
        )
        result = run.results[args.method]
        print(f"cID {spec.c_id}: {spec.name_b!r} vs {spec.name_a!r}")
        print(result.summary())
        return 0

    table = int(command.removeprefix("table"))
    metrics = _telemetry_registry(args)
    run = run_method_table(
        table,
        scale=args.scale,
        seed=args.seed,
        engine=args.engine,
        metrics=metrics,
        **_engine_kwargs(args),
    )
    if args.reference:
        print(render_method_table_with_reference(run))
    else:
        print(render_method_table(run))
    _emit_telemetry(
        args, run.telemetry, metrics,
        table=table, dataset=run.dataset, epsilon=run.epsilon,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
