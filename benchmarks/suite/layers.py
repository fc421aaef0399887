"""Per-layer metrics of a traced run, computed from its spans.

Times are reported as shares of the traced wall time (the time the
workload's own operation spans cover), using the attributed times of
:func:`tracing.attribute`, so that layers sharing the wall with a
concurrent request are not counted twice and the layers' self shares
plus ``obs.unattributed_share`` sum to one.  Counts are per workload
operation (a join for ``couple``, a top-k call for the fleets, a
request for ``serve_mixed``).
"""

from __future__ import annotations

from collections import defaultdict

from tracing import Attribution, percentile

#: Algorithm stage names in ``CSJResult.stage_seconds`` (last path part).
STAGES = ("validate", "pairing", "encode", "enumerate", "matching")


def layer_metrics(
    attribution: Attribution,
    *,
    ops: int,
    overhead_pct: float,
    setup_seconds: dict[str, float],
    serve_stats: dict | None = None,
    late_share: float = 0.0,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of BENCHMARK.json, by name."""
    spans = attribution.spans
    wall = attribution.wall_ns
    self_ns = attribution.self_ns
    inclusive = attribution.inclusive_ns
    by_id = {span.id: span for span in spans}
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def share(ns: float) -> float:
        return ns / wall if wall else 0.0

    def per_op(count: float) -> float:
        return count / ops if ops else 0.0

    def incl(name: str) -> float:
        return sum(inclusive.get(span.id, 0.0) for span in by_name[name])

    def own(name: str) -> float:
        return sum(self_ns.get(span.id, 0.0) for span in by_name[name])

    def attr_sum(name: str, key: str) -> float:
        return sum(float(span.attrs.get(key, 0)) for span in by_name[name])

    def parent_name(span) -> str | None:
        parent = by_id.get(span.parent)
        return parent.name if parent is not None else None

    layer_self = attribution.layer_self_ns()
    out: dict[str, tuple[float, str]] = {}

    # -- obs / whole run ------------------------------------------------
    out["obs.trace_overhead_pct"] = (overhead_pct, "%")
    out["obs.unattributed_share"] = (share(layer_self["bench"]), "share")
    out["obs.spans_per_op"] = (per_op(len(spans)), "count")

    # -- apps.topk --------------------------------------------------------
    topk_runs = [
        span for span in by_name["engine.run"]
        if parent_name(span) == "apps.topk.top_k_pairs"
    ]
    submitted = sum(float(span.attrs.get("jobs", 0)) for span in topk_runs)
    useful = sum(float(span.attrs.get("computed", 0)) for span in topk_runs)
    out["apps.topk.self_share"] = (share(layer_self["apps.topk"]), "share")
    out["apps.topk.pairs_enumerated"] = (
        per_op(attr_sum("apps.topk.top_k_pairs", "pairs_enumerated")),
        "count",
    )
    out["apps.topk.jobs_submitted"] = (per_op(submitted), "count")
    out["apps.topk.useful_ratio"] = (useful / submitted if submitted else 0.0, "ratio")

    # -- engine -----------------------------------------------------------
    out["engine.run_share"] = (share(incl("engine.run")), "share")
    out["engine.self_share"] = (share(layer_self["engine"]), "share")
    out["engine.plan_share"] = (share(incl("engine.plan")), "share")
    out["engine.execute_share"] = (share(incl("engine.execute")), "share")
    for key in ("jobs", "computed", "screened", "cached"):
        out[f"engine.{key}"] = (per_op(attr_sum("engine.run", key)), "count")

    # -- algorithms -------------------------------------------------------
    joins = by_name["algorithms.join"]
    stage_ns = dict.fromkeys(STAGES, 0.0)
    for span in joins:
        duration = span.end - span.start
        if duration <= 0:
            continue
        # Scale raw stage seconds by the wall share this join received.
        factor = inclusive.get(span.id, 0.0) / duration
        for path, seconds in (span.attrs.get("stages") or {}).items():
            stage = path.rsplit(".", 1)[-1]
            if stage in stage_ns:
                stage_ns[stage] += seconds * 1e9 * factor
    matched = attr_sum("algorithms.join", "matched")
    examined = attr_sum("algorithms.join", "examined")
    out["algorithms.self_share"] = (share(layer_self["algorithms"]), "share")
    out["algorithms.joins"] = (per_op(len(joins)), "count")
    out["algorithms.join_share"] = (share(incl("algorithms.join")), "share")
    out["algorithms.join_p50_us"] = (
        percentile([(span.end - span.start) / 1e3 for span in joins], 50)
        if joins
        else 0.0,
        "us",
    )
    for stage in STAGES:
        out[f"algorithms.{stage}_share"] = (share(stage_ns[stage]), "share")
    out["algorithms.matched_per_examined"] = (
        matched / examined if examined else 0.0,
        "ratio",
    )

    # -- core -------------------------------------------------------------
    out["core.self_share"] = (share(layer_self["core"]), "share")
    out["core.to_dict_calls"] = (per_op(len(by_name["core.to_dict"])), "count")
    out["core.from_dict_calls"] = (per_op(len(by_name["core.from_dict"])), "count")
    out["core.to_dict_share"] = (share(incl("core.to_dict")), "share")
    out["core.from_dict_share"] = (share(incl("core.from_dict")), "share")

    # -- catalog ----------------------------------------------------------
    scanned = attr_sum("catalog.window", "rows_scanned")
    survivors = attr_sum("catalog.window", "survivors")
    setup_total = setup_seconds.get("total", 0.0)
    out["catalog.self_share"] = (share(layer_self["catalog"]), "share")
    out["catalog.window_share"] = (share(incl("catalog.window")), "share")
    out["catalog.rows_scanned"] = (per_op(scanned), "count")
    out["catalog.survivors"] = (per_op(survivors), "count")
    out["catalog.survivor_ratio"] = (survivors / scanned if scanned else 0.0, "ratio")
    out["catalog.metadata_calls"] = (per_op(len(by_name["catalog.metadata"])), "count")
    out["catalog.metadata_share"] = (share(incl("catalog.metadata")), "share")
    out["catalog.hydrate_share"] = (share(incl("catalog.get")), "share")
    out["catalog.vector_loads"] = (per_op(len(by_name["catalog.get"])), "count")
    out["catalog.register_setup_share"] = (
        setup_seconds.get("catalog.register", 0.0) / setup_total if setup_total else 0.0,
        "share",
    )

    # -- shard ------------------------------------------------------------
    shard_server = sum(
        inclusive.get(span.id, 0.0)
        for span in by_name["serve.handle_line"]
        if parent_name(span) == "shard.rpc"
    )
    out["shard.self_share"] = (share(layer_self["shard"]), "share")
    out["shard.rpc_calls"] = (per_op(len(by_name["shard.rpc"])), "count")
    out["shard.rpc_share"] = (share(incl("shard.rpc")), "share")
    out["shard.server_share"] = (share(shard_server), "share")
    out["shard.wire_share"] = (share(own("shard.rpc")), "share")
    out["shard.request_kib"] = (
        per_op(attr_sum("shard.rpc", "request_bytes")) / 1024.0,
        "KiB",
    )
    out["shard.response_kib"] = (
        per_op(attr_sum("shard.rpc", "response_bytes")) / 1024.0,
        "KiB",
    )
    out["shard.candidate_pairs"] = (
        per_op(attr_sum("shard.top_k", "candidate_pairs")),
        "count",
    )
    out["shard.executed_pairs"] = (
        per_op(attr_sum("shard.top_k", "executed_pairs")),
        "count",
    )
    out["shard.partition_setup_share"] = (
        setup_seconds.get("shard.partition", 0.0) / setup_total if setup_total else 0.0,
        "share",
    )

    # -- serve ------------------------------------------------------------
    out["serve.self_share"] = (share(layer_self["serve"]), "share")
    for op in ("join", "update", "mutate"):
        out[f"serve.loop_share.{op}"] = (share(incl(f"serve.loop.{op}")), "share")
    out["serve.snapshot_share"] = (share(incl("serve.snapshot")), "share")
    for op in ("join", "update"):
        out[f"serve.execute_share.{op}"] = (
            share(incl(f"serve.execute.{op}")),
            "share",
        )
    out["serve.queue_share"] = (share(own("serve.handle_line")), "share")
    out["serve.wire_share"] = (share(own("serve.client")), "share")
    stats = serve_stats or {}
    cache = stats.get("cache") or {}
    delta = stats.get("delta") or {}
    admission = stats.get("admission") or {}
    out["serve.cache_hit_rate"] = (float(cache.get("hit_rate", 0.0)), "ratio")
    out["serve.delta_updates"] = (float(delta.get("updates", 0)), "count")
    out["serve.delta_rebuilds"] = (float(delta.get("rebuilds", 0)), "count")
    out["serve.shed"] = (float(admission.get("shed_total", 0)), "count")
    out["serve.deadline_exceeded"] = (
        float(stats.get("deadline_exceeded_total", 0)),
        "count",
    )
    out["serve.gen_late_share"] = (late_share, "share")
    return out
