"""Observability: metrics, request tracing, and the slow-query log.

The window into a running ``repro serve`` process.  Three small pieces,
each independently usable and each with a near-zero-overhead "off" mode:

* :mod:`repro.observability.metrics` — a thread-safe
  :class:`MetricsRegistry` of named counters, gauges, and log-bucketed
  latency histograms (p50/p95/p99 from fixed power-of-two buckets),
  the one store of every serving count, plus pull-style collectors (the
  provenance cache's counters).  Snapshot (JSON) and Prometheus-style
  text exposition.
* :mod:`repro.observability.tracing` — per-request span trees
  (parse → plan compile → witness build → queue wait → batch kernel →
  solver) with context carried across the batcher's thread hop,
  buffered in a ring :class:`TraceSink` and exportable as
  Chrome trace-event JSON.
* :mod:`repro.observability.slowlog` — a bounded ring of requests that
  exceeded a latency threshold, with the rendered plan and witness
  build stats attached for offline reproduction.

Layering rule: this package imports nothing from :mod:`repro.service`
or :mod:`repro.provenance` — they import *it*.
That keeps instrumentation available to every layer without cycles.
"""

from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from repro.observability.slowlog import SlowQueryLog
from repro.observability.tracing import Span, Tracer, TraceSink, install_sink, tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "default_registry",
    "set_default_registry",
    "Span",
    "Tracer",
    "TraceSink",
    "tracer",
    "install_sink",
    "SlowQueryLog",
]
