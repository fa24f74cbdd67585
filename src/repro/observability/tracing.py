"""Lightweight request tracing: span trees with cross-thread propagation.

A *span* is a named, timed interval with string-keyed attributes and
child spans.  The serving stack opens one root span per request and
nests the stages under it — parse, plan compile (cached vs. fresh),
witness build, batcher queue wait, batch kernel, solver — so a slow
request decomposes into *where the time went* rather than one opaque
latency number.

The current span travels in a :class:`contextvars.ContextVar`, which
asyncio tasks inherit for free.  Plain worker threads do **not** inherit
context, so the two scheduler hops in the serving stack carry it by
hand: :meth:`Tracer.capture` on the submitting side packages the current
span, and :meth:`Tracer.adopt` (a context manager) re-installs it on the
executing thread.  ``MicroBatcher`` captures at ``submit`` and adopts in
the scheduler thread.

Finished **root** spans land in an installed :class:`TraceSink` — a
bounded ring buffer (old traces drop first) exportable as Chrome
trace-event JSON (:meth:`TraceSink.to_events` / :meth:`TraceSink.dump`):
``"X"`` complete events with microsecond ``ts``/``dur``, loadable in
``chrome://tracing`` or Perfetto.  With no sink installed, ``span()``
returns a shared no-op context manager — one attribute load and a
branch, the same discipline as the metrics no-op mode.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from collections import deque
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "TraceSink", "tracer", "install_sink"]


class Span:
    """One named, timed interval in a request's tree."""

    __slots__ = ("name", "start", "end", "attrs", "children", "thread")

    def __init__(self, name: str, attrs: Optional[Dict[str, object]] = None):
        self.name = name
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self.thread = threading.get_ident()

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def set(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        dur = f"{self.duration * 1e3:.3f}ms" if self.end is not None else "open"
        return f"Span({self.name!r}, {dur}, children={len(self.children)})"


class _NullContext:
    """The shared do-nothing context ``span()`` answers when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None

    # Callers may hold the yielded value and set attributes on it; make
    # that a no-op rather than an AttributeError on the disabled path.
    def set(self, key: str, value: object) -> None:
        return None


_NULL = _NullContext()


class _SpanContext:
    """Context manager that opens a span, parents it, and closes it."""

    __slots__ = ("_tracer", "_span", "_parent", "_token")

    def __init__(self, tracer: "Tracer", span: Span, parent: Optional[Span]):
        self._tracer = tracer
        self._span = span
        self._parent = parent
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Span:
        self._token = self._tracer._current.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._span
        span.end = time.perf_counter()
        if exc_type is not None:
            span.attrs.setdefault("error", exc_type.__name__)
        if self._token is not None:
            self._tracer._current.reset(self._token)
        if self._parent is not None:
            self._parent.children.append(span)
        else:
            sink = self._tracer._sink
            if sink is not None:
                sink.record(span)


class _AdoptContext:
    """Re-install a captured span as current on another thread."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Optional[Span]):
        self._tracer = tracer
        self._span = span
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Optional[Span]:
        if self._span is not None:
            self._token = self._tracer._current.set(self._span)
        return self._span

    def __exit__(self, *exc) -> None:
        if self._token is not None:
            self._tracer._current.reset(self._token)


class Tracer:
    """Hands out spans parented to the ambient current span.

    Tracing is *on* when a sink is installed; otherwise ``span()``
    returns the shared null context and nothing is allocated.  A span
    opened while another is current becomes its child; a span with no
    parent is a root and is recorded to the sink when it closes.
    """

    __slots__ = ("_current", "_sink")

    def __init__(self) -> None:
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("repro_current_span", default=None)
        )
        self._sink: Optional["TraceSink"] = None

    @property
    def enabled(self) -> bool:
        return self._sink is not None

    def install_sink(self, sink: Optional["TraceSink"]) -> Optional["TraceSink"]:
        """Install (or with ``None`` remove) the sink; returns the old one."""
        old = self._sink
        self._sink = sink
        return old

    def span(self, name: str, **attrs):
        """Open a child of the current span (or a new root).

        Usage: ``with tracer.span("witness_build", rows=n) as sp: ...``.
        When no sink is installed **and** no span is ambient (i.e. we are
        not inside a traced request), answers the shared null context.
        """
        parent = self._current.get()
        if self._sink is None and parent is None:
            return _NULL
        return _SpanContext(self, Span(name, attrs), parent)

    def current(self) -> Optional[Span]:
        return self._current.get()

    def capture(self) -> Optional[Span]:
        """The current span, packaged for hand-off to another thread."""
        return self._current.get()

    def adopt(self, span: Optional[Span]) -> _AdoptContext:
        """Context manager installing a captured span as current here.

        The cross-thread half of ``capture``: the scheduler/worker thread
        wraps its work in ``with tracer.adopt(captured): ...`` so spans it
        opens nest under the submitting request's tree.  ``adopt(None)``
        is a no-op, so callers need not branch on whether tracing was on
        at submit time.
        """
        return _AdoptContext(self, span)


class TraceSink:
    """Bounded ring buffer of finished root spans.

    Thread-safe; when full the oldest trace drops first, so a long-lived
    server keeps the most recent ``capacity`` requests regardless of
    uptime.  Export is Chrome trace-event JSON — ``"X"`` (complete)
    events with ``ts``/``dur`` in microseconds, one event per span, tree
    structure conveyed by nesting on the time axis per thread track.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("TraceSink capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: "deque[Span]" = deque(maxlen=capacity)
        self._dropped = 0

    def record(self, span: Span) -> None:
        with self._lock:
            if len(self._traces) == self._traces.maxlen:
                self._dropped += 1
            self._traces.append(span)

    def traces(self) -> List[Span]:
        with self._lock:
            return list(self._traces)

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._dropped = 0

    def to_events(self) -> List[Dict[str, object]]:
        """Chrome trace-event list for every buffered trace."""
        events: List[Dict[str, object]] = []
        for root in self.traces():
            for span in root.walk():
                if span.end is None:
                    continue
                args = {k: _jsonable(v) for k, v in span.attrs.items()}
                events.append(
                    {
                        "name": span.name,
                        "ph": "X",
                        "ts": span.start * 1e6,
                        "dur": (span.end - span.start) * 1e6,
                        "pid": 1,
                        "tid": span.thread,
                        "args": args,
                    }
                )
        return events

    def dump(self, path: str) -> int:
        """Write ``{"traceEvents": [...]}`` JSON to ``path``; returns #events."""
        events = self.to_events()
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)
        return len(events)


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


#: The process-wide tracer library instrumentation records through.  One
#: tracer is enough: enablement is per-sink, and the contextvar keeps
#: concurrent requests' trees separate.
tracer = Tracer()


def install_sink(sink: Optional[TraceSink]) -> Optional[TraceSink]:
    """Install ``sink`` on the process-wide tracer; returns the old sink."""
    return tracer.install_sink(sink)
