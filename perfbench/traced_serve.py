"""``repro serve`` with in-memory span recorders around each layer.

Usage: ``python perfbench/traced_serve.py SPANS.json serve DB.json ...``
(with the repository's ``src`` on ``PYTHONPATH``).  The launcher wraps the
public entry points of each serving layer, then calls
``repro.cli.main`` with the remaining arguments, so the serve path is the
same code the untraced runs measure.  On exit (SIGINT is the server's clean
shutdown) it writes every span to ``SPANS.json``.

Each span records its name, its parent (the innermost open span on the
same thread), its wall-clock start and end (``time.perf_counter_ns``,
which is ``CLOCK_MONOTONIC`` and so comparable with the client's clock),
its thread CPU time, and its *self* time: its own time minus the time of
its child spans.  Spans on the batcher's scheduler thread have no parent
on the event-loop thread; they are aggregated per layer by name, and a
span's layer is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import types
from typing import Callable, List, Optional, Union

Name = Union[str, Callable[[tuple, object], str]]

#: One span: id, parent id (0 = none), name, start ns, end ns, thread CPU ns,
#: weight (requests the span served; candidates for batched kernels).
FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "cpu_ns", "weight")


class SpanRecorder:
    """Spans kept in memory until :meth:`dump`; parents from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn: Callable, name: Name, weight: Optional[Callable[[tuple], int]] = None) -> Callable:
        """``fn``, recording one span per call.

        ``name`` is the span's name, or a function of the call's arguments
        and result that gives it; ``weight`` gives the span's weight from
        the arguments (default 1).
        """
        spans = self.spans
        ids = self._ids
        local = self._local
        wall = time.perf_counter_ns
        cpu = time.thread_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            cpu0 = cpu()
            t0 = wall()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = wall()
                cpu1 = cpu()
                stack.pop()
                label = name if isinstance(name, str) else name(args, result)
                spans.append((span_id, parent, label, t0, t1, cpu1 - cpu0, weight(args) if weight else 1))

        return traced

    def patch(self, owner, attr: str, name: Name, weight=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, weight))

    def dump(self, path: str) -> int:
        """Write every span plus its self wall and CPU time."""
        child_wall = {}
        child_cpu = {}
        for span_id, parent, _, t0, t1, cpu_ns, _ in self.spans:
            if parent:
                child_wall[parent] = child_wall.get(parent, 0) + (t1 - t0)
                child_cpu[parent] = child_cpu.get(parent, 0) + cpu_ns
        rows = [
            list(span) + [span[4] - span[3] - child_wall.get(span[0], 0), span[5] - child_cpu.get(span[0], 0)]
            for span in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"fields": list(FIELDS) + ["self_wall_ns", "self_cpu_ns"], "spans": rows}, handle)
        return len(rows)


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry points (see the module docstring)."""
    from repro.algebra.plan import CompiledPlan
    from repro.columnar.store import ColumnStore
    from repro.provenance import cache as cache_module
    from repro.provenance import where as where_module
    from repro.provenance import why as why_module
    from repro.provenance.bitset import BitsetProvenance
    from repro.provenance.cache import ProvenanceCache
    from repro.service import engine as engine_module
    from repro.service import server as server_module
    from repro.service.batcher import MicroBatcher
    from repro.service.engine import ServiceEngine
    from repro.versioning import VersionedDatabase

    patch = recorder.patch
    # service/server and the codec in service/requests.
    server_module.json = types.SimpleNamespace(
        loads=recorder.wrap(json.loads, "server.json_loads"),
        dumps=recorder.wrap(json.dumps, "server.json_dumps"),
        JSONDecodeError=json.JSONDecodeError,
    )
    patch(server_module, "decode_request", "server.decode_request")
    patch(server_module, "encode_response", "server.encode_response")
    # service/batcher.
    patch(MicroBatcher, "_serve_single", "batcher.serve_single")
    patch(MicroBatcher, "_serve_batch", "batcher.serve_batch")
    # service/engine: one span per request kind, one per batched call.
    patch(ServiceEngine, "execute", lambda args, _: f"engine.execute.{args[1].kind}")
    patch(ServiceEngine, "execute_hypothetical_batch", "engine.hypothetical_batch", weight=lambda args: len(args[3]))
    # algebra: parses (interned per text) and plan compiles (memo misses).
    patch(engine_module, "parse_query", "algebra.parse")
    patch(cache_module, "compile_plan", "algebra.plan_compile")
    # provenance/cache.
    patch(ProvenanceCache, "get_or_compute", "cache.get_or_compute")
    patch(ProvenanceCache, "plan_for", "cache.plan_for")
    # provenance/bitset (with witness_table and segmask behind it).
    patch(BitsetProvenance, "encode_deletions_auto", "bitset.encode")
    patch(BitsetProvenance, "batch_destroyed", "bitset.destroyed", weight=lambda args: len(args[1]))
    patch(BitsetProvenance, "apply_delta", "bitset.delta_patch")
    patch(why_module, "bitset_why_provenance", "bitset.witness_build")
    # provenance/why and provenance/where.
    patch(why_module.WhyProvenance, "witnesses", "why.witnesses")
    patch(where_module.WhereProvenance, "backward", "where.backward")
    patch(where_module, "where_provenance", "where.build")
    # columnar.
    patch(ColumnStore, "__init__", "columnar.store_build")
    patch(ColumnStore, "apply_delta", "columnar.store_delta")
    patch(CompiledPlan, "rows_columnar", "columnar.eval")
    # deletion and solvers, keyed by the plan's algorithm.
    solved = lambda args, plan: f"deletion.solve.{getattr(plan, 'algorithm', 'failed')}"
    patch(engine_module, "delete_view_tuple", solved)
    patch(engine_module, "minimum_source_deletion", solved)
    # versioning: the write path, measured at ServiceEngine.apply_delta.
    patch(ServiceEngine, "apply_delta", "versioning.apply")
    patch(VersionedDatabase, "apply_delta", "versioning.delta")


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_serve.py SPANS.json serve DB.json [repro serve flags]", file=sys.stderr)
        return 2
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
