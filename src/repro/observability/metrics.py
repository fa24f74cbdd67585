"""A thread-safe registry of counters, gauges, and latency histograms.

:class:`MetricsRegistry` is the one store of every serving count: the
serving stack (:mod:`repro.service`) and the witness kernels record into
the process default registry, and ``ServiceEngine.stats()`` and
``MicroBatcher.stats()`` are reads of it.  Instruments:

* :class:`Counter` — a monotonically increasing total (requests served,
  deadline expiries, delta patches);
* :class:`Gauge` — a point-in-time level (batcher queue depth);
* :class:`Histogram` — **log-bucketed** latency distribution with fixed
  bucket bounds (powers of two from 1 µs), so p50/p95/p99 come from a
  cumulative bucket walk, two histograms merge by adding bucket counts
  (:meth:`Histogram.merge` — how per-thread shards combine), and
  recording costs one bisect plus one lock;
* **collectors** — callables polled at snapshot time.  The provenance
  cache is the one subsystem that keeps its own counters (hits, misses,
  evictions, invalidations, under the lock its lookups already take);
  its collector is how they reach a snapshot.

Three export forms: :meth:`MetricsRegistry.snapshot` (plain dicts, the
``StatsRequest`` payload), :meth:`MetricsRegistry.render_text`
(Prometheus-style text exposition — the HTTP-free ``/metrics``
equivalent), and JSON via the snapshot.

**No-op mode.**  Disabling a registry (``enabled=False`` or
:meth:`set_enabled`) turns every instrument it ever handed out into a
near-zero-overhead no-op: the fast path is one attribute load and one
branch, no lock — measured by ``benchmarks/bench_observability.py`` and
gated at ≤5% end-to-end overhead *enabled*, so disabled is free for any
practical purpose.  Instruments stay valid across enable/disable flips.

Metric names are dotted (``service.requests``); the text exposition maps
them to Prometheus conventions (dots → underscores).  The full name
catalog lives in PERFORMANCE.md's "Observability" section.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "set_default_registry",
    "DEFAULT_BUCKETS",
]

#: Log-spaced latency bucket upper bounds, in seconds: 1 µs · 2^i for
#: i ∈ [0, 28) — ~1 µs to ~134 s, 28 buckets plus the +Inf overflow.
#: Fixed bounds are what make histograms mergeable across threads and
#: comparable across processes without negotiation.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(1e-6 * (2 ** i) for i in range(28))


def _prom_name(name: str) -> str:
    """A Prometheus-legal metric name for a dotted internal name."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return text


class Counter:
    """A monotonically increasing total.  ``inc`` only; never decremented."""

    __slots__ = ("name", "_registry", "_lock", "_value")

    def __init__(self, name: str, registry: "MetricsRegistry"):
        self.name = name
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: "int | float" = 1) -> None:
        if not self._registry._enabled:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> "int | float":
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A point-in-time level: set / inc / dec."""

    __slots__ = ("name", "_registry", "_lock", "_value")

    def __init__(self, name: str, registry: "MetricsRegistry"):
        self.name = name
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: "int | float") -> None:
        if not self._registry._enabled:
            return
        with self._lock:
            self._value = value

    def inc(self, amount: "int | float" = 1) -> None:
        if not self._registry._enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: "int | float" = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> "int | float":
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """A log-bucketed distribution with fixed bounds.

    ``observe`` bisects the bound table and bumps one bucket; quantiles
    are answered from the cumulative counts, taking each bucket's upper
    bound (the conservative Prometheus convention — a reported p99 is an
    upper bound on the true p99, never an underestimate).  Two histograms
    with the same bounds merge by adding bucket counts, so per-thread
    shards combine losslessly.
    """

    __slots__ = (
        "name",
        "_registry",
        "_lock",
        "_bounds",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self._registry = registry
        self._lock = threading.Lock()
        self._bounds = tuple(sorted(buckets))
        #: One count per bound, plus the +Inf overflow bucket at the end.
        self._counts = [0] * (len(self._bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times (a batch whose members all
        took the same wall time records in one call)."""
        if count < 1 or not self._registry._enabled:
            return
        slot = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[slot] += count
            self._count += count
            self._sum += value * count
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram (same bounds)."""
        if other._bounds != self._bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.name} / {other.name}"
            )
        with other._lock:
            counts = list(other._counts)
            count, total = other._count, other._sum
            lo, hi = other._min, other._max
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._count += count
            self._sum += total
            if lo is not None and (self._min is None or lo < self._min):
                self._min = lo
            if hi is not None and (self._max is None or hi > self._max):
                self._max = hi

    def quantile(self, q: float) -> Optional[float]:
        """The upper bound of the bucket holding the ``q``-quantile.

        ``None`` when the histogram is empty.  Values landing in the
        overflow bucket answer the recorded maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        with self._lock:
            if self._count == 0:
                return None
            rank = q * self._count
            running = 0
            for i, c in enumerate(self._counts):
                running += c
                if running >= rank and c:
                    if i < len(self._bounds):
                        return self._bounds[i]
                    return self._max
            return self._max

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> Dict[str, object]:
        """Count, sum, min/max, p50/p95/p99, and the nonzero buckets."""
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        snap: Dict[str, object] = {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
        }
        # Quantiles from the copied counts (no second lock acquisition).
        for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            if count == 0:
                snap[label] = None
                continue
            rank = q * count
            running = 0
            answer: Optional[float] = hi
            for i, c in enumerate(counts):
                running += c
                if running >= rank and c:
                    answer = self._bounds[i] if i < len(self._bounds) else hi
                    break
            snap[label] = answer
        snap["buckets"] = {
            ("+Inf" if i == len(self._bounds) else repr(self._bounds[i])): c
            for i, c in enumerate(counts)
            if c
        }
        return snap

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self._bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None


class MetricsRegistry:
    """Named instruments plus pull-style collectors, behind one lock.

    Instrument accessors are **get-or-create**: the first caller naming a
    metric creates it, every later caller gets the same object — so layers
    can share a metric by name without passing objects around.  Asking for
    an existing name with a different instrument kind raises.
    """

    __slots__ = ("_lock", "_counters", "_gauges", "_histograms", "_collectors", "_enabled")

    def __init__(self, enabled: bool = True):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: Dict[str, Callable[[], Dict[str, object]]] = {}
        self._enabled = bool(enabled)

    # ------------------------------------------------------------------
    # Enablement
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def set_enabled(self, enabled: bool) -> None:
        """Flip recording on/off for every instrument this registry owns.

        Disabled instruments drop observations on a single branch — the
        no-op mode a latency-sensitive caller leaves in place permanently.
        """
        self._enabled = bool(enabled)

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def _get(self, table: Dict, others: "Tuple[Dict, ...]", name: str, factory):
        with self._lock:
            instrument = table.get(name)
            if instrument is not None:
                return instrument
            for other in others:
                if name in other:
                    raise ValueError(
                        f"metric {name!r} already registered as a different kind"
                    )
            instrument = factory()
            table[name] = instrument
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(
            self._counters,
            (self._gauges, self._histograms),
            name,
            lambda: Counter(name, self),
        )

    def gauge(self, name: str) -> Gauge:
        return self._get(
            self._gauges,
            (self._counters, self._histograms),
            name,
            lambda: Gauge(name, self),
        )

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(
            self._histograms,
            (self._counters, self._gauges),
            name,
            lambda: Histogram(name, self, buckets),
        )

    def register_collector(
        self, name: str, fn: Callable[[], Dict[str, object]]
    ) -> None:
        """Poll ``fn`` at snapshot/exposition time under ``name``.

        The bridge for the provenance cache's counters: its stats dict
        appears in every snapshot without a second store.  A collector
        that raises is reported as an error entry, never allowed to break
        the scrape.
        """
        with self._lock:
            self._collectors[name] = fn

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _collect(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            collectors = list(self._collectors.items())
        collected: Dict[str, Dict[str, object]] = {}
        for name, fn in collectors:
            try:
                collected[name] = dict(fn())
            except Exception as err:  # a bad collector must not kill a scrape
                collected[name] = {"error": f"{type(err).__name__}: {err}"}
        return collected

    def snapshot(self) -> Dict[str, object]:
        """Every instrument's current value as plain JSON-ready dicts."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "counters": {c.name: c.value for c in counters},
            "gauges": {g.name: g.value for g in gauges},
            "histograms": {h.name: h.snapshot() for h in histograms},
            "collected": self._collect(),
        }

    def render_text(self) -> str:
        """Prometheus-style text exposition (the ``/metrics`` equivalent)."""
        with self._lock:
            counters = sorted(self._counters.values(), key=lambda c: c.name)
            gauges = sorted(self._gauges.values(), key=lambda g: g.name)
            histograms = sorted(self._histograms.values(), key=lambda h: h.name)
        lines: List[str] = []
        for c in counters:
            name = _prom_name(c.name)
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}_total {c.value}")
        for g in gauges:
            name = _prom_name(g.name)
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {g.value}")
        for h in histograms:
            name = _prom_name(h.name)
            snap = h.snapshot()
            lines.append(f"# TYPE {name} histogram")
            running = 0
            buckets = snap["buckets"]
            for i, bound in enumerate(h._bounds):
                running += buckets.get(repr(bound), 0)
                lines.append(f'{name}_bucket{{le="{bound:.6g}"}} {running}')
            running += buckets.get("+Inf", 0)
            lines.append(f'{name}_bucket{{le="+Inf"}} {running}')
            lines.append(f"{name}_sum {snap['sum']}")
            lines.append(f"{name}_count {snap['count']}")
        for section, values in sorted(self._collect().items()):
            prefix = _prom_name(section)
            for key, value in sorted(values.items()):
                if isinstance(value, bool):
                    value = int(value)
                if isinstance(value, (int, float)):
                    lines.append(f"# TYPE {prefix}_{_prom_name(key)} gauge")
                    lines.append(f"{prefix}_{_prom_name(key)} {value}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every instrument, keeping registrations and collectors."""
        with self._lock:
            instruments = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
        for instrument in instruments:
            instrument._reset()


#: The process-default registry library-level instrumentation records to
#: when no explicit registry is handed down (swappable for tests/benches).
_DEFAULT = MetricsRegistry()
_DEFAULT_LOCK = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process default; returns the displaced registry.

    Benchmarks use this to measure a pristine registry, and the overhead
    harness to install a disabled one.  Instruments already bound by
    long-lived objects keep pointing at the registry they were created
    from — swap before building the engine under observation.
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        old = _DEFAULT
        _DEFAULT = registry
        return old
