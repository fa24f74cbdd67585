"""Typed requests and responses for the serving engine, plus the wire codec.

One dataclass per core operation the engine serves:

* :class:`EvaluateRequest` — the view of a query (``repro eval``);
* :class:`WhyRequest` — a view row's minimal witnesses;
* :class:`WhereRequest` — a view field's where-provenance (source
  locations);
* :class:`HypotheticalRequest` — "which view rows are destroyed by
  hypothetically deleting the source set ``T``?"; the one operation the
  micro-batcher (:mod:`repro.service.batcher`) coalesces, because whole
  vectors of candidates are answered by one
  :meth:`~repro.provenance.bitset.BitsetProvenance.batch_destroyed` /
  ``batch_side_effects_mask`` pass;
* :class:`DeleteRequest` — a full deletion solve through the dichotomy
  dispatchers (exact by default, ``exact=False`` refuses/avoids the
  exponential algorithms exactly like ``allow_exponential=False``).
* :class:`StatsRequest` / :class:`HealthRequest` — the observability
  endpoints: a live metrics/stats snapshot (JSON, optionally with the
  Prometheus-style text exposition and the slow-query log) and a cheap
  liveness probe.  Neither names a query; both are served unbatched so
  they answer mid-traffic without queueing behind a coalesced batch.

Requests name their database by *registry name* (the engine owns a
named-database registry) and their query by *DSL text* (the engine interns
parses, so equal texts hit the same warm provenance).  All payload values
are JSON scalars; rows travel as JSON arrays and deletion sets as arrays of
``[relation, row]`` pairs.

The wire format is newline-delimited JSON envelopes::

    {"id": 7, "kind": "hypothetical", "database": "db", "query": "...",
     "deletions": [["R", [0, 1]]], "timeout_ms": 250}
    {"id": 7, "ok": true, "kind": "hypothetical", "destroyed": [[0]], ...}

``encode_request``/``decode_request`` and ``encode_response``/
``decode_response`` are exact inverses for every request/response type
(pinned by tests), so the same-process :class:`~repro.service.server.
ServiceClient` and the TCP front door answer bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.errors import ReproError
from repro.algebra.relation import Row
from repro.provenance.locations import Location, SourceTuple

__all__ = [
    "ServiceError",
    "ServiceOverloadError",
    "DeadlineExceededError",
    "EvaluateRequest",
    "WhyRequest",
    "WhereRequest",
    "HypotheticalRequest",
    "DeleteRequest",
    "ApplyDeltaRequest",
    "StatsRequest",
    "HealthRequest",
    "Response",
    "EvaluateResponse",
    "WhyResponse",
    "WhereResponse",
    "HypotheticalResponse",
    "DeleteResponse",
    "ApplyDeltaResponse",
    "StatsResponse",
    "HealthResponse",
    "error_response",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "REQUEST_KINDS",
]


class ServiceError(ReproError):
    """A serving-layer failure (bad request, unknown database, ...)."""


class ServiceOverloadError(ServiceError):
    """The bounded request queue is full; the caller should back off."""


class DeadlineExceededError(ServiceError):
    """The request's deadline passed before an answer was produced."""


def _freeze_row(row) -> Row:
    return tuple(row)


def _freeze_deletions(deletions) -> FrozenSet[SourceTuple]:
    """``[relation, row]`` pairs as a frozenset of source tuples.

    Every other shape — a string, a number, a pair whose relation is not a
    name or whose row is not a list, unhashable values — raises
    :class:`ServiceError`, so a malformed wire request is answered, never
    dropped.
    """
    try:
        pairs = list(deletions)
    except TypeError:
        raise ServiceError(
            f"deletions must be a list of [relation, row] pairs, got {deletions!r}"
        ) from None
    frozen = []
    for pair in pairs:
        if not (
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and isinstance(pair[0], str)
            and isinstance(pair[1], (list, tuple))
        ):
            raise ServiceError(
                f"malformed deletion {pair!r}: expected [relation, row]"
            )
        frozen.append((pair[0], tuple(pair[1])))
    try:
        return frozenset(frozen)
    except TypeError as err:
        raise ServiceError(f"unhashable value in deletions: {err}") from None


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluateRequest:
    """Evaluate ``query`` over the named database; answer the view rows."""

    database: str
    query: str
    kind = "evaluate"


@dataclass(frozen=True)
class WhyRequest:
    """The minimal witnesses of ``row`` in the view of ``query``."""

    database: str
    query: str
    row: Row
    kind = "why"

    def __post_init__(self):
        object.__setattr__(self, "row", _freeze_row(self.row))


@dataclass(frozen=True)
class WhereRequest:
    """The source locations propagating to view field ``(row, attribute)``."""

    database: str
    query: str
    row: Row
    attribute: str
    kind = "where"

    def __post_init__(self):
        object.__setattr__(self, "row", _freeze_row(self.row))


@dataclass(frozen=True)
class HypotheticalRequest:
    """Which view rows does hypothetically deleting ``deletions`` destroy?

    The batchable operation: concurrently arriving candidates for the same
    ``(database, query)`` coalesce into one mask-vector call, and identical
    candidates are answered once.
    """

    database: str
    query: str
    deletions: FrozenSet[SourceTuple]
    kind = "hypothetical"

    def __post_init__(self):
        object.__setattr__(self, "deletions", _freeze_deletions(self.deletions))


@dataclass(frozen=True)
class DeleteRequest:
    """Solve a deletion-propagation problem for ``target``.

    ``objective`` is ``"view"`` (minimize collateral view deletions) or
    ``"source"`` (minimize source deletions); ``exact=False`` maps to the
    dispatchers' ``allow_exponential=False``.
    """

    database: str
    query: str
    target: Row
    objective: str = "view"
    exact: bool = True
    kind = "delete"

    def __post_init__(self):
        object.__setattr__(self, "target", _freeze_row(self.target))
        if self.objective not in ("view", "source"):
            raise ServiceError(
                f"objective must be 'view' or 'source', got {self.objective!r}"
            )


@dataclass(frozen=True)
class ApplyDeltaRequest:
    """Apply a real write to the named database (not hypothetical).

    ``deletions``/``inserts`` are ``(relation, row)`` pairs.  The engine
    bumps the database's epoch and incrementally maintains its warm
    per-query state; the response reports the *net* applied delta.  The
    only request kind with no ``query`` — writes are per-database.
    """

    database: str
    deletions: FrozenSet[SourceTuple] = frozenset()
    inserts: FrozenSet[SourceTuple] = frozenset()
    kind = "apply_delta"

    def __post_init__(self):
        object.__setattr__(self, "deletions", _freeze_deletions(self.deletions))
        object.__setattr__(self, "inserts", _freeze_deletions(self.inserts))


@dataclass(frozen=True)
class StatsRequest:
    """A live observability snapshot from the serving engine.

    ``database`` is optional ("" = whole engine).  ``format`` selects the
    payload: ``"json"`` (default) answers the engine stats dict plus the
    metrics registry snapshot and slow-query entries; ``"text"``
    additionally includes the Prometheus-style text exposition — the
    HTTP-free ``/metrics`` equivalent a scraper can lift verbatim.
    """

    database: str = ""
    format: str = "json"
    kind = "stats"

    def __post_init__(self):
        if self.format not in ("json", "text"):
            raise ServiceError(
                f"format must be 'json' or 'text', got {self.format!r}"
            )


@dataclass(frozen=True)
class HealthRequest:
    """A cheap liveness/readiness probe (no query, no database required)."""

    database: str = ""
    kind = "health"


#: Every request type, keyed by its wire ``kind``.
REQUEST_KINDS = {
    cls.kind: cls
    for cls in (
        EvaluateRequest,
        WhyRequest,
        WhereRequest,
        HypotheticalRequest,
        DeleteRequest,
        ApplyDeltaRequest,
        StatsRequest,
        HealthRequest,
    )
}


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Response:
    """Base response: ``ok`` plus an error message when ``ok`` is false."""

    ok: bool = True
    error: Optional[str] = None
    kind = "error"


@dataclass(frozen=True)
class EvaluateResponse(Response):
    schema: Tuple[str, ...] = ()
    rows: Tuple[Row, ...] = ()
    kind = "evaluate"


@dataclass(frozen=True)
class WhyResponse(Response):
    #: Each witness a sorted tuple of (relation, row) pairs; witnesses sorted.
    witnesses: Tuple[Tuple[SourceTuple, ...], ...] = ()
    kind = "why"


@dataclass(frozen=True)
class WhereResponse(Response):
    #: Source locations as (relation, row, attribute) triples, sorted.
    locations: Tuple[Location, ...] = ()
    kind = "where"


@dataclass(frozen=True)
class HypotheticalResponse(Response):
    #: View rows destroyed by the candidate, deterministically ordered.
    destroyed: Tuple[Row, ...] = ()
    #: How many view rows survive (len(view) - len(destroyed)).
    surviving: int = 0
    kind = "hypothetical"


@dataclass(frozen=True)
class DeleteResponse(Response):
    algorithm: str = ""
    optimal: bool = False
    deletions: Tuple[SourceTuple, ...] = ()
    side_effects: Tuple[Row, ...] = ()
    kind = "delete"


@dataclass(frozen=True)
class ApplyDeltaResponse(Response):
    #: The database's epoch after the write (unchanged for a no-op delta).
    epoch: int = 0
    #: Net applied deletions/insertions (no-op pairs normalized away).
    deleted: int = 0
    inserted: int = 0
    #: Warm oracle accounting: delta-patched / reused as-is.
    patched: int = 0
    reused: int = 0
    kind = "apply_delta"


@dataclass(frozen=True)
class StatsResponse(Response):
    #: The engine's deep-copied stats snapshot (counters + subsystem dicts).
    stats: Dict[str, object] = None  # type: ignore[assignment]
    #: The metrics registry snapshot (counters/gauges/histograms/collected).
    metrics: Dict[str, object] = None  # type: ignore[assignment]
    #: Prometheus-style text exposition; empty unless format="text".
    text: str = ""
    #: Recent slow-query log entries, most-recent-last.
    slow_queries: Tuple[Dict[str, object], ...] = ()
    kind = "stats"

    def __post_init__(self):
        if self.stats is None:
            object.__setattr__(self, "stats", {})
        if self.metrics is None:
            object.__setattr__(self, "metrics", {})
        object.__setattr__(self, "slow_queries", tuple(self.slow_queries))


@dataclass(frozen=True)
class HealthResponse(Response):
    status: str = "ok"
    databases: Tuple[str, ...] = ()
    warm_oracles: int = 0
    uptime_s: float = 0.0
    kind = "health"

    def __post_init__(self):
        object.__setattr__(self, "databases", tuple(self.databases))


def error_response(message: str) -> Response:
    """The failure envelope every request kind shares."""
    return Response(ok=False, error=message)


# ----------------------------------------------------------------------
# Wire codec (newline-delimited JSON payloads)
# ----------------------------------------------------------------------

def encode_request(request) -> Dict[str, object]:
    """A JSON-ready dict for ``request`` (sans transport envelope fields)."""
    kind = request.kind
    out: Dict[str, object] = {"kind": kind, "database": request.database}
    if kind == "apply_delta":
        out["deletions"] = [
            [rel, list(row)] for rel, row in sorted(request.deletions, key=repr)
        ]
        out["inserts"] = [
            [rel, list(row)] for rel, row in sorted(request.inserts, key=repr)
        ]
        return out
    if kind == "stats":
        out["format"] = request.format
        return out
    if kind == "health":
        return out
    out["query"] = request.query
    if kind == "why":
        out["row"] = list(request.row)
    elif kind == "where":
        out["row"] = list(request.row)
        out["attribute"] = request.attribute
    elif kind == "hypothetical":
        out["deletions"] = [
            [rel, list(row)] for rel, row in sorted(request.deletions, key=repr)
        ]
    elif kind == "delete":
        out["target"] = list(request.target)
        out["objective"] = request.objective
        out["exact"] = request.exact
    return out


def _text(payload: Dict[str, object], key: str, default=None) -> str:
    """The string field ``key``; required unless a ``default`` is given."""
    value = payload.get(key, default) if default is not None else payload[key]
    if not isinstance(value, str):
        raise ServiceError(f"{key} must be a string, got {value!r}")
    return value


def _row(payload: Dict[str, object], key: str) -> Row:
    """The row field ``key``: a list of hashable values, as a tuple."""
    value = payload[key]
    if not isinstance(value, list):
        raise ServiceError(f"{key} must be a list of values, got {value!r}")
    row = tuple(value)
    try:
        hash(row)
    except TypeError:
        raise ServiceError(f"{key} holds an unhashable value: {value!r}") from None
    return row


def decode_request(payload: Dict[str, object]):
    """The typed request a wire dict denotes; raises :class:`ServiceError`."""
    if not isinstance(payload, dict):
        raise ServiceError(f"request must be a JSON object, got {payload!r}")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in REQUEST_KINDS:
        raise ServiceError(
            f"unknown request kind {kind!r}; expected one of "
            f"{sorted(REQUEST_KINDS)}"
        )
    try:
        # The observability kinds take no query and an optional database.
        if kind == "stats":
            return StatsRequest(
                _text(payload, "database", ""),
                format=_text(payload, "format", "json"),
            )
        if kind == "health":
            return HealthRequest(_text(payload, "database", ""))
        database = _text(payload, "database")
        if kind == "apply_delta":
            return ApplyDeltaRequest(
                database,
                _freeze_deletions(payload.get("deletions", ())),
                _freeze_deletions(payload.get("inserts", ())),
            )
        query = _text(payload, "query")
        if kind == "evaluate":
            return EvaluateRequest(database, query)
        if kind == "why":
            return WhyRequest(database, query, _row(payload, "row"))
        if kind == "where":
            return WhereRequest(
                database, query, _row(payload, "row"), _text(payload, "attribute")
            )
        if kind == "hypothetical":
            return HypotheticalRequest(
                database,
                query,
                _freeze_deletions(payload.get("deletions", ())),
            )
        return DeleteRequest(
            database,
            query,
            _row(payload, "target"),
            objective=_text(payload, "objective", "view"),
            exact=bool(payload.get("exact", True)),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ServiceError(f"malformed {kind!r} request: {err!r}") from None


def encode_response(response: Response) -> Dict[str, object]:
    """A JSON-ready dict for ``response``."""
    out: Dict[str, object] = {"ok": response.ok, "kind": response.kind}
    if response.error is not None:
        out["error"] = response.error
    if not response.ok:
        return out
    if isinstance(response, EvaluateResponse):
        out["schema"] = list(response.schema)
        out["rows"] = [list(row) for row in response.rows]
    elif isinstance(response, WhyResponse):
        out["witnesses"] = [
            [[rel, list(row)] for rel, row in witness]
            for witness in response.witnesses
        ]
    elif isinstance(response, WhereResponse):
        out["locations"] = [
            [loc.relation, list(loc.row), loc.attribute]
            for loc in response.locations
        ]
    elif isinstance(response, HypotheticalResponse):
        out["destroyed"] = [list(row) for row in response.destroyed]
        out["surviving"] = response.surviving
    elif isinstance(response, DeleteResponse):
        out["algorithm"] = response.algorithm
        out["optimal"] = response.optimal
        out["deletions"] = [
            [rel, list(row)] for rel, row in response.deletions
        ]
        out["side_effects"] = [list(row) for row in response.side_effects]
    elif isinstance(response, ApplyDeltaResponse):
        out["epoch"] = response.epoch
        out["deleted"] = response.deleted
        out["inserted"] = response.inserted
        out["patched"] = response.patched
        out["reused"] = response.reused
    elif isinstance(response, StatsResponse):
        out["stats"] = response.stats
        out["metrics"] = response.metrics
        out["text"] = response.text
        out["slow_queries"] = [dict(e) for e in response.slow_queries]
    elif isinstance(response, HealthResponse):
        out["status"] = response.status
        out["databases"] = list(response.databases)
        out["warm_oracles"] = response.warm_oracles
        out["uptime_s"] = response.uptime_s
    return out


def decode_response(payload: Dict[str, object]) -> Response:
    """The typed response a wire dict denotes (inverse of the encoder)."""
    if not isinstance(payload, dict) or "ok" not in payload:
        raise ServiceError(f"response must be a JSON object with 'ok': {payload!r}")
    if not payload["ok"]:
        return Response(ok=False, error=payload.get("error"))
    kind = payload.get("kind")
    if kind == "evaluate":
        return EvaluateResponse(
            schema=tuple(payload["schema"]),
            rows=tuple(tuple(row) for row in payload["rows"]),
        )
    if kind == "why":
        return WhyResponse(
            witnesses=tuple(
                tuple((rel, tuple(row)) for rel, row in witness)
                for witness in payload["witnesses"]
            )
        )
    if kind == "where":
        return WhereResponse(
            locations=tuple(
                Location(rel, tuple(row), attr)
                for rel, row, attr in payload["locations"]
            )
        )
    if kind == "hypothetical":
        return HypotheticalResponse(
            destroyed=tuple(tuple(row) for row in payload["destroyed"]),
            surviving=payload["surviving"],
        )
    if kind == "delete":
        return DeleteResponse(
            algorithm=payload["algorithm"],
            optimal=payload["optimal"],
            deletions=tuple(
                (rel, tuple(row)) for rel, row in payload["deletions"]
            ),
            side_effects=tuple(tuple(row) for row in payload["side_effects"]),
        )
    if kind == "apply_delta":
        return ApplyDeltaResponse(
            epoch=payload["epoch"],
            deleted=payload["deleted"],
            inserted=payload["inserted"],
            patched=payload.get("patched", 0),
            reused=payload.get("reused", 0),
        )
    if kind == "stats":
        return StatsResponse(
            stats=dict(payload.get("stats", {})),
            metrics=dict(payload.get("metrics", {})),
            text=payload.get("text", ""),
            slow_queries=tuple(
                dict(e) for e in payload.get("slow_queries", ())
            ),
        )
    if kind == "health":
        return HealthResponse(
            status=payload.get("status", "ok"),
            databases=tuple(payload.get("databases", ())),
            warm_oracles=payload.get("warm_oracles", 0),
            uptime_s=payload.get("uptime_s", 0.0),
        )
    raise ServiceError(f"unknown response kind {kind!r}")
