"""The async front door: newline-delimited JSON over ``asyncio``.

:class:`ServiceServer` is a stdlib-only TCP front door
(:func:`asyncio.start_server`): each connection sends one JSON request
envelope per line and receives one JSON response envelope per line.
Requests carry a client-chosen ``id`` echoed on the response, so a client
may pipeline; responses may interleave in completion order.  The envelope
adds two transport fields to the :mod:`repro.service.requests` payload::

    {"id": 3, "kind": "evaluate", "database": "db", "query": "...",
     "timeout_ms": 500}

* ``id`` — opaque, echoed back;
* ``timeout_ms`` — per-request deadline, a finite number.  A request that
  cannot be answered in time (still queued, or executing past the
  deadline) answers ``{"ok": false, "error": "deadline exceeded ..."}``
  instead of hanging the connection.

Every line gets exactly one answer: malformed input answers a
``ServiceError``, and anything unexpected raised while serving a line
answers an internal error — the connection never waits on a dead task.

Execution is delegated to the :class:`~repro.service.batcher.MicroBatcher`
— the event loop never blocks on the engine: futures from ``submit`` are
awaited through :func:`asyncio.wrap_future`, and the batcher's bounded
queue is the server's backpressure (overload answers ``ok=False``
immediately).

:class:`ServiceClient` is the same-process client: it speaks typed
requests straight to the batcher (no sockets, no JSON) and exists so tests
and benchmarks can drive the serving path — batching included — and
compare answers bit-for-bit with direct library calls.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
from concurrent.futures import Future
from typing import Dict, Optional, Set, Tuple

from repro.service.batcher import MicroBatcher
from repro.service.engine import ServiceEngine
from repro.service.requests import (
    Response,
    ServiceError,
    ServiceOverloadError,
    decode_request,
    encode_response,
    error_response,
)

__all__ = ["ServiceServer", "ServiceClient"]

_log = logging.getLogger(__name__)

#: Longest accepted request line; a run-away line answers an error and
#: drops the connection instead of buffering without bound.
MAX_LINE_BYTES = 1 << 20


class ServiceClient:
    """Same-process client over the engine's batcher.

    The test/benchmark front end: requests travel the exact serving path
    (bounded queue → micro-batching → engine) minus the socket hop.  When
    constructed without a batcher it owns one and closes it with the
    client.
    """

    def __init__(
        self,
        engine: ServiceEngine,
        batcher: "MicroBatcher | None" = None,
        **batcher_options,
    ):
        self._engine = engine
        self._owns_batcher = batcher is None
        self._batcher = (
            batcher if batcher is not None else MicroBatcher(engine, **batcher_options)
        )

    @property
    def batcher(self) -> MicroBatcher:
        return self._batcher

    @property
    def engine(self) -> ServiceEngine:
        return self._engine

    def submit(self, request, timeout_s: Optional[float] = None) -> Future:
        """Enqueue a typed request; the future resolves to its Response."""
        return self._batcher.submit(request, timeout_s=timeout_s)

    def request(self, request, timeout_s: Optional[float] = None) -> Response:
        """Submit and wait."""
        try:
            return self._batcher.request(request, timeout_s=timeout_s)
        except ServiceOverloadError as err:
            return error_response(str(err))

    def close(self) -> None:
        if self._owns_batcher:
            self._batcher.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ServiceServer:
    """The TCP front door.  Start with :meth:`start`, stop with :meth:`aclose`.

    ``default_timeout_s`` applies when a request names no ``timeout_ms``;
    ``max_requests`` (None = unlimited) stops the server after answering
    that many requests — the hook the CLI smoke path and tests use to
    serve a bounded session and exit cleanly.
    """

    def __init__(
        self,
        engine: ServiceEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        batcher: "MicroBatcher | None" = None,
        default_timeout_s: float = 30.0,
        max_requests: Optional[int] = None,
    ):
        self._engine = engine
        self._host = host
        self._port = port
        self._owns_batcher = batcher is None
        self._batcher = batcher if batcher is not None else MicroBatcher(engine)
        self._default_timeout_s = default_timeout_s
        self._max_requests = max_requests
        self._served = 0
        self._accepted = 0
        self._server: "asyncio.AbstractServer | None" = None
        self._done = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the (host, port) actually bound."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=MAX_LINE_BYTES,
        )
        sock = self._server.sockets[0]
        self._host, self._port = sock.getsockname()[:2]
        return self._host, self._port

    @property
    def address(self) -> Tuple[str, int]:
        return self._host, self._port

    @property
    def requests_served(self) -> int:
        return self._served

    async def wait_closed(self) -> None:
        """Block until the server decides to stop (``max_requests`` hit)."""
        await self._done.wait()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._owns_batcher:
            self._batcher.close()
        self._done.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        # Only pending tasks: each one leaves the set when it finishes, so
        # a long-lived connection holds no more tasks than are in flight.
        tasks: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                ):  # line longer than the stream limit
                    await self._send(
                        writer,
                        write_lock,
                        None,
                        error_response("request line too long"),
                    )
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                task = asyncio.ensure_future(
                    self._serve_line(text, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                if self._max_requests is not None:
                    # Count requests as *accepted*, not served: a served
                    # request whose task is still finishing would
                    # otherwise count twice and stop the server early.
                    self._accepted += 1
                    if self._accepted >= self._max_requests:
                        break
            if tasks:
                await asyncio.gather(*list(tasks), return_exceptions=True)
        finally:
            for task in list(tasks):
                task.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            if (
                self._max_requests is not None
                and self._served >= self._max_requests
            ):
                self._done.set()

    async def _serve_line(
        self,
        text: str,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        request_id = None
        try:
            payload = json.loads(text)
            if isinstance(payload, dict):
                request_id = payload.get("id")
            request = decode_request(payload)
            response = await self._answer(request, self._timeout_s(payload))
        except json.JSONDecodeError as err:
            response = error_response(f"invalid JSON: {err}")
        except ServiceError as err:
            response = error_response(str(err))
        except Exception as err:  # answer the line, whatever went wrong
            _log.exception("internal error serving a request line")
            self._engine.metrics.counter("server.internal_errors").inc()
            response = error_response(
                f"internal error: {type(err).__name__}: {err}"
            )
        self._served += 1
        await self._send(writer, write_lock, request_id, response)

    def _timeout_s(self, payload: dict) -> float:
        """The envelope's deadline in seconds (the default when absent)."""
        timeout_ms = payload.get("timeout_ms")
        if timeout_ms is None:
            return self._default_timeout_s
        if (
            isinstance(timeout_ms, (int, float))
            and not isinstance(timeout_ms, bool)
            and math.isfinite(timeout_ms)
        ):
            return timeout_ms / 1000.0
        raise ServiceError(
            f"timeout_ms must be a finite number, got {timeout_ms!r}"
        )

    async def _answer(self, request, timeout_s: float) -> Response:
        metrics = self._engine.metrics
        try:
            future = self._batcher.submit(request, timeout_s=timeout_s)
        except ServiceOverloadError as err:
            metrics.counter("server.overload").inc()
            return error_response(str(err))
        try:
            return await asyncio.wait_for(
                asyncio.wrap_future(future), timeout=timeout_s
            )
        except asyncio.TimeoutError:
            metrics.counter("server.deadline_exceeded").inc()
            return error_response(
                f"deadline exceeded after {timeout_s:.3f}s "
                "(DeadlineExceededError)"
            )

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        request_id,
        response: Response,
    ) -> None:
        envelope: Dict[str, object] = encode_response(response)
        if request_id is not None:
            envelope["id"] = request_id
        data = (json.dumps(envelope) + "\n").encode("utf-8")
        async with write_lock:
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, OSError):  # pragma: no cover - client gone
                pass
