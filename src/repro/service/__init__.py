"""The serving engine: a long-lived front end over the library.

The deletion-propagation and annotation queries of the paper are exactly
the interactive "what if we delete T?" requests a curated-database frontend
fires at high volume.  This package turns the library into an engine built
to serve them:

* :mod:`repro.service.engine` — :class:`~repro.service.engine.ServiceEngine`:
  a named-database registry, interned query parses, and warm
  per-(database, query) provenance state behind the batch calls;
* :mod:`repro.service.requests` — typed request/response dataclasses for
  the core operations (evaluate, why/where provenance, hypothetical
  deletion, deletion solve) and the newline-delimited-JSON wire codec;
* :mod:`repro.service.batcher` — :class:`~repro.service.batcher.
  MicroBatcher`: coalesces concurrently arriving deletion candidates for
  the same (database, query) into one mask-vector kernel call,
  de-duplicating identical candidates;
* :mod:`repro.service.server` — the asyncio TCP front door
  (:class:`~repro.service.server.ServiceServer`) with bounded queues and
  per-request deadlines, plus the same-process
  :class:`~repro.service.server.ServiceClient` tests and benchmarks drive.

Every answer the serving path produces is bit-identical to the
corresponding direct library call; batching changes cost, never
semantics.  ``repro serve DB.json`` is the CLI entry point, and
``benchmarks/bench_service.py`` measures the unbatched-per-request vs
batched ablation.
"""

from repro.service.requests import (
    DeadlineExceededError,
    DeleteRequest,
    DeleteResponse,
    EvaluateRequest,
    EvaluateResponse,
    HealthRequest,
    HealthResponse,
    HypotheticalRequest,
    HypotheticalResponse,
    Response,
    ServiceError,
    ServiceOverloadError,
    StatsRequest,
    StatsResponse,
    WhereRequest,
    WhereResponse,
    WhyRequest,
    WhyResponse,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.service.engine import ServiceEngine
from repro.service.batcher import MicroBatcher
from repro.service.server import ServiceClient, ServiceServer

__all__ = [
    "ServiceEngine",
    "MicroBatcher",
    "ServiceClient",
    "ServiceServer",
    "ServiceError",
    "ServiceOverloadError",
    "DeadlineExceededError",
    "EvaluateRequest",
    "WhyRequest",
    "WhereRequest",
    "HypotheticalRequest",
    "DeleteRequest",
    "StatsRequest",
    "HealthRequest",
    "Response",
    "EvaluateResponse",
    "WhyResponse",
    "WhereResponse",
    "HypotheticalResponse",
    "DeleteResponse",
    "StatsResponse",
    "HealthResponse",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
]
