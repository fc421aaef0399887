"""Endpoint handlers of the CSJ similarity service.

Light endpoints (``register``, ``mutate``, ``stats``, ``health``) run
inline on the event loop — they are registry and numpy-copy work,
microseconds to low milliseconds.  Heavy endpoints (``join``, ``topk``)
are split in two:

* a **plan** step on the loop that validates arguments and freezes the
  involved communities into versioned snapshots (:class:`JoinWork` /
  :class:`TopkWork`); and
* an **execute** step (:func:`execute_join_work` /
  :func:`execute_topk_work`) that the server dispatches onto its thread
  executor via ``run_in_executor``.

Execution reuses the batch layer wholesale: each request runs a
short-lived :class:`~repro.engine.BatchEngine` over the frozen
snapshots, sharing the server's thread-safe
:class:`~repro.engine.JoinResultCache` (so repeated couples are served
from memory across requests and across threads) and the envelope
pre-screen.  A join that raises becomes the request's ``internal``
error response.  Engine-side metrics are collected into a scratch
registry that travels back with the result; the server merges it on the
loop, so the shared registry is only ever written from one thread.

Argument errors raise :class:`~repro.serve.protocol.ProtocolError`
(mapped to ``invalid``); unknown community names raise
:class:`~repro.serve.store.UnknownCommunityError` (mapped to
``not_found``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Mapping, Sequence

from ..algorithms.baseline import ExBaseline
from ..algorithms.registry import ALGORITHMS, get_algorithm
from ..apps import top_k_pairs
from ..core.types import Community
from ..engine import (
    BatchEngine,
    JoinResultCache,
    PairJob,
    PairOutcome,
    canonical_options,
)
from ..obs import MetricsRegistry
from .protocol import ProtocolError
from .store import CommunityStore, DeltaJoinPool, StoreSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server import CSJServer

__all__ = [
    "JoinWork",
    "TopkWork",
    "UpdateWork",
    "CandidatesWork",
    "JoinBatchWork",
    "plan_join",
    "plan_topk",
    "plan_update",
    "plan_candidates",
    "plan_join_batch",
    "execute_join_work",
    "execute_topk_work",
    "execute_update_work",
    "execute_candidates_work",
    "execute_join_batch_work",
    "handle_register",
    "handle_mutate",
]

#: Ops whose execute step runs on the thread executor.
HEAVY_OPS = frozenset({"join", "topk", "update", "candidates", "join_batch"})

#: JSON-representable option value types accepted in ``args.options``.
_OPTION_TYPES = (bool, int, float, str, type(None))

#: Parameters :func:`~repro.apps.top_k_pairs` binds itself: the server
#: sets them, so a ``topk`` request's method options may not.
_TOPK_PARAMETERS = frozenset(
    name
    for name, parameter in inspect.signature(top_k_pairs).parameters.items()
    if parameter.kind is not inspect.Parameter.VAR_KEYWORD
)


# ----------------------------------------------------------------------
# argument validation
# ----------------------------------------------------------------------
def _arg_str(args: Mapping[str, object], key: str) -> str:
    value = args.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError("invalid", f"'{key}' must be a non-empty string")
    return value


def _arg_int(
    args: Mapping[str, object], key: str, *, minimum: int | None = None,
    default: int | None = None, required: bool = False,
) -> int | None:
    value = args.get(key, default)
    if value is None:
        if required:
            raise ProtocolError("invalid", f"'{key}' is required")
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError("invalid", f"'{key}' must be an integer")
    if minimum is not None and value < minimum:
        raise ProtocolError("invalid", f"'{key}' must be >= {minimum}, got {value}")
    return value


def _arg_method(args: Mapping[str, object], key: str, default: str) -> str:
    value = args.get(key, default)
    if not isinstance(value, str):
        raise ProtocolError("invalid", f"'{key}' must be a string")
    method = value.strip().lower()
    if method not in ALGORITHMS:
        known = ", ".join(sorted(ALGORITHMS))
        raise ProtocolError(
            "invalid", f"unknown method {value!r} (known: {known})"
        )
    return method


def _arg_options(
    args: Mapping[str, object],
    epsilon: int,
    methods: Sequence[str],
    reserved: Collection[str] = (),
) -> dict[str, object]:
    """Method options, checked by building every method that will use them.

    An option no method accepts, or one a method rejects, is the
    client's mistake: it is answered ``invalid`` here, on the loop,
    before any work reaches the executor.
    """
    options = args.get("options", {})
    if not isinstance(options, dict):
        raise ProtocolError("invalid", "'options' must be a JSON object")
    for key, value in options.items():
        if key in reserved:
            raise ProtocolError(
                "invalid", f"option {key!r} is not a method option"
            )
        if not isinstance(value, _OPTION_TYPES):
            raise ProtocolError(
                "invalid",
                f"option {key!r} must be a JSON primitive, "
                f"got {type(value).__name__}",
            )
    for method in methods:
        try:
            get_algorithm(method, epsilon, **options)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ProtocolError(
                "invalid", f"options rejected by {method}: {exc}"
            ) from None
    return dict(options)


def _arg_bool(args: Mapping[str, object], key: str, default: bool) -> bool:
    value = args.get(key, default)
    if not isinstance(value, bool):
        raise ProtocolError("invalid", f"'{key}' must be a boolean")
    return value


# ----------------------------------------------------------------------
# heavy-op work descriptions (planned on the loop, run on the executor)
# ----------------------------------------------------------------------
@dataclass
class JoinWork:
    """One planned CSJ couple, frozen at specific store versions."""

    first: StoreSnapshot
    second: StoreSnapshot
    method: str
    epsilon: int
    options: dict[str, object]
    cache: JoinResultCache | None
    enforce_size_ratio: bool
    collect_metrics: bool = False


@dataclass
class TopkWork:
    """One planned top-k ranking over frozen snapshots."""

    snapshots: list[StoreSnapshot]
    epsilon: int
    k: int
    screen_method: str
    refine_method: str
    options: dict[str, object]
    cache: JoinResultCache | None
    collect_metrics: bool = False
    names: list[str] = field(default_factory=list)


def plan_join(server: "CSJServer", args: Mapping[str, object]) -> JoinWork:
    """Validate ``join`` arguments and freeze both communities."""
    first = _arg_str(args, "first")
    second = _arg_str(args, "second")
    epsilon = _arg_int(args, "epsilon", minimum=0, required=True)
    assert epsilon is not None
    method = _arg_method(args, "method", "ex-minmax")
    config = server.config
    return JoinWork(
        first=server.store.snapshot(first),
        second=server.store.snapshot(second),
        method=method,
        epsilon=epsilon,
        options=_arg_options(args, epsilon, (method,)),
        cache=server.cache,
        enforce_size_ratio=_arg_bool(
            args, "enforce_size_ratio", config.enforce_size_ratio
        ),
        collect_metrics=True,
    )


def plan_topk(server: "CSJServer", args: Mapping[str, object]) -> TopkWork:
    """Validate ``topk`` arguments and freeze the ranked communities."""
    epsilon = _arg_int(args, "epsilon", minimum=0, required=True)
    k = _arg_int(args, "k", minimum=1, default=5)
    assert epsilon is not None and k is not None
    names_arg = args.get("names")
    if names_arg is None:
        names = server.store.names()
    elif isinstance(names_arg, list) and all(
        isinstance(name, str) for name in names_arg
    ):
        names = list(names_arg)
    else:
        raise ProtocolError("invalid", "'names' must be a list of strings")
    if len(names) < 2:
        raise ProtocolError(
            "invalid", f"topk needs at least 2 communities, got {len(names)}"
        )
    if len(set(names)) != len(names):
        raise ProtocolError("invalid", "'names' must not repeat communities")
    screen_method = _arg_method(args, "screen_method", "ap-minmax")
    refine_method = _arg_method(args, "method", "ex-minmax")
    return TopkWork(
        snapshots=server.store.snapshots(names),
        epsilon=epsilon,
        k=k,
        screen_method=screen_method,
        refine_method=refine_method,
        options=_arg_options(
            args, epsilon, (screen_method, refine_method), _TOPK_PARAMETERS
        ),
        cache=server.cache,
        collect_metrics=True,
        names=names,
    )


@dataclass
class UpdateWork:
    """One planned live update: mutation already applied on the loop.

    The execute step only *reads*: it syncs (or, with delta maintenance
    disabled, recomputes) the couple's similarity at the store versions
    current after the mutation.
    """

    store: CommunityStore
    pool: DeltaJoinPool | None
    first: str
    second: str
    epsilon: int
    enforce_size_ratio: bool
    mutation: dict[str, object] | None
    collect_metrics: bool = False


def plan_update(server: "CSJServer", args: Mapping[str, object]) -> UpdateWork:
    """Validate ``update`` arguments and apply the mutation inline.

    The mutation (optional — an update without one just refreshes the
    couple) is applied on the event loop exactly like a ``mutate``
    request, so the store's per-community lock and mutation log see it
    before the executor syncs the maintainer.  The mutation must target
    one of the couple's two communities.
    """
    first = _arg_str(args, "first")
    second = _arg_str(args, "second")
    if first == second:
        raise ProtocolError(
            "invalid", "update needs two distinct communities"
        )
    epsilon = _arg_int(args, "epsilon", minimum=0, required=True)
    assert epsilon is not None
    config = server.config
    mutation_args = args.get("mutation")
    mutation: dict[str, object] | None = None
    if mutation_args is not None:
        if not isinstance(mutation_args, dict):
            raise ProtocolError("invalid", "'mutation' must be a JSON object")
        target = _arg_str(mutation_args, "name")
        if target not in (first, second):
            raise ProtocolError(
                "invalid",
                f"mutation targets {target!r}, which is neither "
                f"{first!r} nor {second!r}",
            )
        mutation = handle_mutate(server.store, mutation_args)
    return UpdateWork(
        store=server.store,
        pool=server.delta_pool,
        first=first,
        second=second,
        epsilon=epsilon,
        enforce_size_ratio=_arg_bool(
            args, "enforce_size_ratio", config.enforce_size_ratio
        ),
        mutation=mutation,
        collect_metrics=True,
    )


@dataclass
class CandidatesWork:
    """One planned local candidate scan (vector-free where possible)."""

    store: CommunityStore
    epsilon: int


@dataclass
class JoinBatchWork:
    """One planned batch of joins over frozen snapshots.

    The distributed coordinator's workhorse: a shard evaluates many
    couples in one round trip, through one short-lived engine over the
    union roster — the exact execution shape of the single-host
    catalog ranking, so the returned similarities are byte-identical
    to it.
    """

    snapshots: dict[str, StoreSnapshot]
    pairs: list[tuple[str, str]]
    method: str
    epsilon: int
    options: dict[str, object]
    include_results: bool
    cache: JoinResultCache | None
    collect_metrics: bool = False


def plan_candidates(
    server: "CSJServer", args: Mapping[str, object]
) -> CandidatesWork:
    """Validate ``candidates`` arguments (the scan itself runs off-loop)."""
    epsilon = _arg_int(args, "epsilon", minimum=0, required=True)
    assert epsilon is not None
    return CandidatesWork(store=server.store, epsilon=epsilon)


def plan_join_batch(
    server: "CSJServer", args: Mapping[str, object]
) -> JoinBatchWork:
    """Validate ``join_batch`` arguments and freeze every named community."""
    epsilon = _arg_int(args, "epsilon", minimum=0, required=True)
    assert epsilon is not None
    pairs_arg = args.get("pairs")
    if not isinstance(pairs_arg, list) or not pairs_arg:
        raise ProtocolError(
            "invalid", "'pairs' must be a non-empty list of [first, second]"
        )
    pairs: list[tuple[str, str]] = []
    for entry in pairs_arg:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(name, str) and name for name in entry)
        ):
            raise ProtocolError(
                "invalid",
                "each pair must be a [first, second] list of non-empty "
                "strings",
            )
        if entry[0] == entry[1]:
            raise ProtocolError(
                "invalid", f"pair names must differ, got {entry[0]!r} twice"
            )
        pairs.append((entry[0], entry[1]))
    names = sorted({name for pair in pairs for name in pair})
    method = _arg_method(args, "method", "ap-minmax")
    return JoinBatchWork(
        snapshots={name: server.store.snapshot(name) for name in names},
        pairs=pairs,
        method=method,
        epsilon=epsilon,
        options=_arg_options(args, epsilon, (method,)),
        include_results=_arg_bool(args, "include_results", False),
        cache=server.cache,
        collect_metrics=True,
    )


def execute_candidates_work(work: CandidatesWork) -> tuple[dict, dict | None]:
    """Run one local candidate scan (executor thread).

    A catalog-backed store screens its catalog rows (zero vector loads
    for never-materialised keys) and its snapshots' envelopes; a plain
    store screens its snapshots' envelopes.  Either way the result is the
    store's local slice of the surviving-pair set.
    """
    pairs = work.store.candidate_pairs(work.epsilon)
    result = {
        "epsilon": work.epsilon,
        "count": len(pairs),
        "pairs": [[first, second] for first, second in pairs],
    }
    return result, None


def execute_join_batch_work(work: JoinBatchWork) -> tuple[dict, dict | None]:
    """Run one batch of joins (executor thread).

    Mirrors the single-host catalog ranking's engine call exactly —
    one serial :class:`~repro.engine.BatchEngine` over the union
    roster, canonical options, default size-ratio handling — so a
    similarity computed here is bit-for-bit the one
    :func:`~repro.apps.top_k_pairs` computes for the same couple.
    Entries come back ranked by ``(-similarity, first, second)`` in
    request orientation.
    """
    scratch = MetricsRegistry() if work.collect_metrics else None
    roster_names = sorted(work.snapshots)
    roster = [work.snapshots[name].community for name in roster_names]
    index_of = {name: index for index, name in enumerate(roster_names)}
    job_options = canonical_options(work.options)
    jobs = [
        PairJob(index_of[first], index_of[second], work.method, work.epsilon, job_options)
        for first, second in work.pairs
    ]
    with BatchEngine(roster, cache=work.cache, metrics=scratch) as engine:
        outcomes = engine.run(jobs)
    entries: list[dict[str, object]] = []
    for (first, second), outcome in zip(work.pairs, outcomes):
        result = outcome.result
        entry: dict[str, object] = {
            "first": first,
            "second": second,
            "similarity": result.similarity,
            "n_matched": result.n_matched,
            "swapped": result.swapped,
        }
        if work.include_results:
            entry["result"] = result.to_dict()
        entries.append(entry)
    entries.sort(
        key=lambda entry: (-entry["similarity"], entry["first"], entry["second"])  # type: ignore[operator]
    )
    result_payload = {
        "epsilon": work.epsilon,
        "method": work.method,
        "count": len(entries),
        "pairs": entries,
    }
    return result_payload, (scratch.snapshot() if scratch is not None else None)


def execute_update_work(work: UpdateWork) -> tuple[dict, dict | None]:
    """Sync or recompute one couple after a mutation (executor thread).

    With delta maintenance enabled the couple's maintainer replays the
    mutation log through local augmenting-path repair (``mode`` is
    ``"delta"``, or ``"rebuild"`` after structural changes / log gaps).
    Without it, every update pays a full
    ``ExBaseline(matcher="hopcroft_karp")`` join (``mode`` is
    ``"recompute"``) — the reference computation the delta path is
    byte-identical to.
    """
    scratch = MetricsRegistry() if work.collect_metrics else None
    if work.pool is not None:
        summary = work.pool.refresh(
            work.first,
            work.second,
            work.epsilon,
            enforce_size_ratio=work.enforce_size_ratio,
            metrics=scratch,
        )
    else:
        first = work.store.snapshot(work.first)
        second = work.store.snapshot(work.second)
        result = ExBaseline(work.epsilon, matcher="hopcroft_karp").join(
            first.community,
            second.community,
            enforce_size_ratio=work.enforce_size_ratio,
        )
        if scratch is not None:
            scratch.inc("repro_delta_fallbacks_total")
        summary = {
            "mode": "recompute",
            "similarity": result.similarity,
            "n_matched": result.n_matched,
            "size_b": result.size_b,
            "size_a": result.size_a,
            "events": result.events.as_dict(),
            "versions": {
                work.first: first.version,
                work.second: second.version,
            },
        }
    payload: dict[str, object] = {"epsilon": work.epsilon, **summary}
    if work.mutation is not None:
        payload["mutation"] = work.mutation
    return payload, (scratch.snapshot() if scratch is not None else None)


def execute_join_work(work: JoinWork) -> tuple[dict, dict | None]:
    """Run one planned join (executor thread).

    Returns the endpoint's ``result`` object plus the scratch metrics
    snapshot for the loop to merge.  The short-lived engine takes the
    exact same path as a direct :class:`~repro.engine.BatchEngine` call
    over the same two communities — the parity tests assert the served
    similarity and matching are identical to that direct computation.
    """
    scratch = MetricsRegistry() if work.collect_metrics else None
    with BatchEngine(
        [work.first.community, work.second.community],
        cache=work.cache,
        enforce_size_ratio=work.enforce_size_ratio,
        metrics=scratch,
    ) as engine:
        job = PairJob.build(0, 1, work.method, work.epsilon, work.options)
        outcome: PairOutcome = engine.run([job])[0]
    result: dict[str, object] = {
        "disposition": outcome.disposition.value,
        "result": outcome.result.to_dict(),
        "first": _snapshot_info(work.first),
        "second": _snapshot_info(work.second),
    }
    return result, (scratch.snapshot() if scratch is not None else None)


def execute_topk_work(work: TopkWork) -> tuple[dict, dict | None]:
    """Run one planned top-k ranking (executor thread)."""
    scratch = MetricsRegistry() if work.collect_metrics else None
    communities: list[Community] = [
        snapshot.community for snapshot in work.snapshots
    ]
    scores = top_k_pairs(
        communities,
        epsilon=work.epsilon,
        k=work.k,
        screen_method=work.screen_method,
        refine_method=work.refine_method,
        cache=work.cache,
        metrics=scratch,
        **work.options,
    )
    versions = {
        snapshot.community.name: snapshot.version for snapshot in work.snapshots
    }
    result = {
        "k": work.k,
        "epsilon": work.epsilon,
        "candidates": len(communities),
        "versions": versions,
        "ranking": [
            {
                "rank": rank,
                "name_b": score.name_b,
                "name_a": score.name_a,
                "similarity": score.similarity,
                "n_matched": score.result.n_matched,
            }
            for rank, score in enumerate(scores, start=1)
        ],
    }
    return result, (scratch.snapshot() if scratch is not None else None)


def _snapshot_info(snapshot: StoreSnapshot) -> dict[str, object]:
    return {
        "name": snapshot.community.name,
        "version": snapshot.version,
        "n_users": snapshot.community.n_users,
    }


# ----------------------------------------------------------------------
# light endpoints (run inline on the event loop)
# ----------------------------------------------------------------------
def handle_register(store: CommunityStore, args: Mapping[str, object]) -> dict:
    name = _arg_str(args, "name")
    vectors = args.get("vectors")
    if not isinstance(vectors, list) or not vectors:
        raise ProtocolError(
            "invalid", "'vectors' must be a non-empty list of counter rows"
        )
    category = args.get("category", "")
    if not isinstance(category, str):
        raise ProtocolError("invalid", "'category' must be a string")
    page_id = _arg_int(args, "page_id", default=0)
    assert page_id is not None
    snapshot = store.register(
        name,
        vectors,
        category=category,
        page_id=page_id,
        replace=_arg_bool(args, "replace", False),
    )
    return {
        "name": name,
        "version": snapshot.version,
        "n_users": snapshot.community.n_users,
        "n_dims": snapshot.community.n_dims,
    }


#: ``mutate`` actions and their required integer arguments.
_MUTATE_ACTIONS = frozenset({"subscribe", "unsubscribe", "record_like"})


def handle_mutate(store: CommunityStore, args: Mapping[str, object]) -> dict:
    name = _arg_str(args, "name")
    action = _arg_str(args, "action")
    if action not in _MUTATE_ACTIONS:
        known = ", ".join(sorted(_MUTATE_ACTIONS))
        raise ProtocolError(
            "invalid", f"unknown mutate action {action!r} (known: {known})"
        )
    if action == "subscribe":
        profile = args.get("profile")
        if profile is not None and not isinstance(profile, list):
            raise ProtocolError(
                "invalid", "'profile' must be a list of counters"
            )
        info = store.subscribe(name, profile)
    elif action == "unsubscribe":
        user_id = _arg_int(args, "user_id", minimum=0, required=True)
        assert user_id is not None
        info = store.unsubscribe(name, user_id)
    else:  # record_like
        user_id = _arg_int(args, "user_id", minimum=0, required=True)
        dimension = _arg_int(args, "dimension", minimum=0, required=True)
        count = _arg_int(args, "count", minimum=1, default=1)
        assert user_id is not None and dimension is not None and count is not None
        info = store.record_like(name, user_id, dimension, count)
    info["action"] = action
    return info
