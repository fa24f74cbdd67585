"""Micro-batching: coalesce concurrent requests into mask-vector calls.

The serving workload the paper's deletion problems induce — many users
concurrently probing "what if we delete T?" against the same curated view —
is embarrassingly batchable: the bitset kernel answers a *vector* of
candidates for nearly the cost of one (PR 2's batched-vs-per-candidate
ablation), and popular candidates repeat.  :class:`MicroBatcher` exploits
both:

* requests enter a bounded FIFO through :meth:`submit`, which returns a
  :class:`concurrent.futures.Future` immediately (raising
  :class:`~repro.service.requests.ServiceOverloadError` when the queue is
  full — the front door's backpressure);
* a scheduler thread drains the queue.  When the head is a
  :class:`~repro.service.requests.HypotheticalRequest` it waits up to
  ``max_delay_s`` for more candidates to arrive, gathers every queued
  hypothetical for the same ``(database, query)`` (up to ``max_batch``),
  and answers them through one
  :meth:`~repro.service.engine.ServiceEngine.execute_hypothetical_batch`
  call — which de-duplicates identical candidates and answers the distinct
  vector in one kernel pass;
* every other request kind executes immediately, unbatched — evaluation
  and provenance answers are already single cache hits on the warm engine,
  so there is nothing to coalesce.

Expired requests (their deadline passed while queued) fail fast with
:class:`~repro.service.requests.DeadlineExceededError` instead of wasting
a batch slot.  Answers are bit-identical to unbatched execution: batching
changes *when* a candidate is answered, never *what* the answer is
(pinned by ``tests/test_service.py``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Deque, List, Optional, Tuple

from repro.observability.tracing import tracer as _tracer
from repro.service.engine import ServiceEngine
from repro.service.requests import (
    DeadlineExceededError,
    HypotheticalRequest,
    Response,
    ServiceOverloadError,
    error_response,
)

__all__ = ["MicroBatcher", "PendingRequest"]


class PendingRequest:
    """A queued request: payload, future, deadline, and trace context.

    ``enqueued`` stamps the submit time (queue-wait latency); ``span`` is
    the submitter's captured trace span, re-adopted on the scheduler
    thread so engine spans nest under the request's tree.
    """

    __slots__ = ("request", "future", "deadline", "enqueued", "span")

    def __init__(self, request, future: Future, deadline: Optional[float]):
        self.request = request
        self.future = future
        self.deadline = deadline
        self.enqueued = time.monotonic()
        self.span = _tracer.capture()

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


class MicroBatcher:
    """A bounded request queue drained by one scheduler thread.

    ``max_batch`` caps how many hypothetical candidates one kernel call
    answers; ``max_delay_s`` is the longest a candidate waits for company
    (the classic batching latency/throughput knob); ``max_pending`` bounds
    the queue — beyond it, :meth:`submit` raises
    :class:`ServiceOverloadError` instead of buffering unboundedly.

    Context-manager friendly; :meth:`close` drains nothing: requests still
    queued fail with an engine-closed error.
    """

    def __init__(
        self,
        engine: ServiceEngine,
        max_batch: int = 256,
        max_delay_s: float = 0.002,
        max_pending: int = 10_000,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        self._engine = engine
        self._max_batch = max_batch
        self._max_delay_s = max_delay_s
        self._max_pending = max_pending
        self._queue: Deque[PendingRequest] = deque()
        self._cond = threading.Condition()
        self._closed = False
        # The batcher's counts live only in the engine's registry, so a
        # StatsRequest answered by the engine sees them mid-traffic.
        metrics = engine.metrics
        self._m_depth = metrics.gauge("batcher.queue_depth")
        # Count-shaped buckets (powers of two up to max_batch scale): this
        # histogram holds requests answered per kernel call, not seconds,
        # so quantiles must land on whole batch sizes.  Its count is the
        # number of batches issued.
        counts = tuple(float(2 ** i) for i in range(13))
        self._m_batch_size = metrics.histogram("batcher.batch_size", buckets=counts)
        self._m_queue_wait = metrics.histogram("batcher.queue_wait_seconds")
        self._m_expired = metrics.counter("batcher.expired")
        self._m_overload = metrics.counter("batcher.overload")
        self._thread = threading.Thread(
            target=self._run, name="repro-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(self, request, timeout_s: Optional[float] = None) -> Future:
        """Enqueue ``request``; the future resolves to its Response.

        ``timeout_s`` is the per-request deadline, measured from now: a
        request still queued when it passes fails fast with
        :class:`DeadlineExceededError` semantics (an ``ok=False`` response).
        """
        future: Future = Future()
        pending = PendingRequest(
            request,
            future,
            time.monotonic() + timeout_s if timeout_s is not None else None,
        )
        with self._cond:
            if self._closed:
                self._m_overload.inc()
                raise ServiceOverloadError("batcher is closed")
            if len(self._queue) >= self._max_pending:
                self._m_overload.inc()
                raise ServiceOverloadError(
                    f"request queue is full ({self._max_pending} pending)"
                )
            self._queue.append(pending)
            self._m_depth.set(len(self._queue))
            self._cond.notify()
        return future

    def request(self, request, timeout_s: Optional[float] = None) -> Response:
        """Submit and wait: the synchronous convenience entry point."""
        return self.submit(request, timeout_s=timeout_s).result()

    # ------------------------------------------------------------------
    # Scheduler side
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if self._closed:
                    leftovers = list(self._queue)
                    self._queue.clear()
                    self._m_depth.set(0)
                    break
                head = self._queue.popleft()
                self._m_depth.set(len(self._queue))
            if head.expired(time.monotonic()):
                self._fail_expired(head)
                continue
            try:
                if isinstance(head.request, HypotheticalRequest):
                    self._serve_batch(head)
                else:
                    self._serve_single(head)
            except Exception as err:  # pragma: no cover - last-ditch guard
                # The scheduler thread must survive anything; a dead
                # scheduler wedges every future request in the queue.
                if not head.future.done():
                    head.future.set_result(
                        error_response(f"{type(err).__name__}: {err}")
                    )
        for pending in leftovers:
            if not pending.future.done():
                pending.future.set_result(error_response("service is shutting down"))

    def _fail_expired(self, pending: PendingRequest) -> None:
        self._m_expired.inc()
        if not pending.future.done():
            pending.future.set_result(
                error_response(
                    "deadline exceeded before execution "
                    "(DeadlineExceededError)"
                )
            )

    def _serve_single(self, pending: PendingRequest) -> None:
        self._m_queue_wait.observe(time.monotonic() - pending.enqueued)
        try:
            with _tracer.adopt(pending.span):
                with _tracer.span(
                    "batcher_serve", wait_s=time.monotonic() - pending.enqueued
                ):
                    response = self._engine.execute(pending.request)
        except Exception as err:  # engine converts; this is the backstop
            response = error_response(f"{type(err).__name__}: {err}")
        if not pending.future.done():
            pending.future.set_result(response)

    def _gather_batch(self, head: PendingRequest) -> List[PendingRequest]:
        """Head plus every queued hypothetical sharing its (db, query).

        Waits up to ``max_delay_s`` for stragglers when the queue runs dry
        before the batch fills — the micro-batching window.  Non-matching
        requests keep their queue position.
        """
        key = (head.request.database, head.request.query)
        batch = [head]
        window_ends = time.monotonic() + self._max_delay_s
        while len(batch) < self._max_batch:
            with self._cond:
                matched = False
                kept: Deque[PendingRequest] = deque()
                while self._queue and len(batch) < self._max_batch:
                    pending = self._queue.popleft()
                    request = pending.request
                    if (
                        isinstance(request, HypotheticalRequest)
                        and (request.database, request.query) == key
                    ):
                        batch.append(pending)
                        matched = True
                    else:
                        kept.append(pending)
                kept.extend(self._queue)
                self._queue = kept
                self._m_depth.set(len(self._queue))
                if matched:
                    continue
                remaining = window_ends - time.monotonic()
                if remaining <= 0 or self._closed:
                    break
                self._cond.wait(remaining)
                if not self._queue:
                    break
        return batch

    def _serve_batch(self, head: PendingRequest) -> None:
        batch = self._gather_batch(head)
        now = time.monotonic()
        live: List[PendingRequest] = []
        for pending in batch:
            if pending.expired(now):
                self._fail_expired(pending)
            else:
                live.append(pending)
        if not live:
            return
        self._m_batch_size.observe(len(live))
        for pending in live:
            self._m_queue_wait.observe(now - pending.enqueued)
        try:
            with _tracer.adopt(head.span):
                with _tracer.span("batch_kernel", batch=len(live)):
                    responses = self._engine.execute_hypothetical_batch(
                        head.request.database,
                        head.request.query,
                        [pending.request.deletions for pending in live],
                    )
        except Exception as err:  # engine surfaces ReproError; be safe
            failure = error_response(str(err))
            for pending in live:
                if not pending.future.done():
                    pending.future.set_result(failure)
            return
        for pending, response in zip(live, responses):
            if not pending.future.done():
                pending.future.set_result(response)

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The engine's ``batcher`` section (read from the registry) plus
        this batcher's limits."""
        return dict(
            self._engine.stats()["batcher"],
            max_batch=self._max_batch,
            max_delay_s=self._max_delay_s,
            max_pending=self._max_pending,
        )

    def close(self) -> None:
        """Stop the scheduler; queued requests answer with a shutdown error."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
