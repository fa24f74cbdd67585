"""Backends that run shard chunks and merge their answers.

:func:`sharded_destroyed_indices` is the one entry point: plan shards over
the mask vector, answer each shard from the snapshot on the chosen backend,
and concatenate the per-shard answer lists in shard order — each candidate
is answered by exactly one shard, so the merge is deterministic regardless
of scheduling.

Backends:

* ``"serial"`` — answer the shards inline (no pool); the reference the
  others must match.
* ``"thread"`` — a thread pool.  The vectorized chunk kernel spends its
  time in numpy/scipy C routines that release the GIL, so threads scale on
  multicore hosts while sharing the snapshot zero-copy.
* ``"process"`` — a process pool.  The snapshot travels to each worker
  once, through the pool initializer (copy-on-write under ``fork``); per
  task only the chunk's masks travel.  On hosts without ``fork`` the
  snapshot is instead written once to its memory-mapped flat file and
  each task ships only the path (``ship_mmap``), so no snapshot bytes are
  pickled at all.
* ``"auto"`` — ``process`` when the host has more than one CPU, fork is
  available, and the vector is large enough to amortize pool start-up;
  ``thread`` otherwise.

**Pools are persistent.**  A long-lived serving process answers thousands
of batch calls; creating and tearing a pool down per call (the pre-serving
behaviour) pays thread/process start-up on every one of them.  Pools are
now owned by a process-wide :class:`PoolRegistry`: created on first use,
health-checked on every reuse (a closed or worker-dead pool is discarded
and rebuilt), and shared across batch calls.  Thread pools are keyed by
worker count alone; process pools additionally key on the snapshot they
were initialized with — the snapshot is delivered once through the pool
initializer, so a pool can only answer chunks of *its* snapshot — and the
registry keeps at most :data:`MAX_PROCESS_POOLS` of them alive (LRU),
bounding worker-side snapshot memory.  ``close_pools()`` (also registered
``atexit``) and the registry's context-manager form release everything
explicitly; the next call after a close simply builds fresh pools.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Sequence, Tuple

from repro.observability.metrics import default_registry
from repro.observability.tracing import tracer as _tracer
from repro.parallel.shards import ShardSnapshot, plan_shards

__all__ = [
    "resolve_backend",
    "sharded_destroyed_indices",
    "WorkerPool",
    "PoolRegistry",
    "pool_registry",
    "close_pools",
    "PROCESS_MIN_BATCH",
    "MAX_PROCESS_POOLS",
]

#: Below this many masks, "auto" never picks processes: pool start-up and
#: per-task pickling would dominate the answer time.
PROCESS_MIN_BATCH = 2048

#: Smallest default chunk: each chunk pays a fixed kernel set-up cost, so
#: small vectors use fewer chunks than workers rather than drown in it.
MIN_CHUNK_SIZE = 4096

#: Most process pools the registry keeps alive at once.  Each one pins a
#: snapshot copy in every worker, so the LRU bound is a memory bound.
MAX_PROCESS_POOLS = 4

#: Worker-process-side snapshot, set by the pool initializer.  Each pool
#: delivers its own snapshot through initargs, so concurrent pools in the
#: parent can never race on shared parent-side state.
_WORKER_SNAPSHOT: "ShardSnapshot | None" = None


def _init_worker(snapshot: ShardSnapshot) -> None:
    """Pool initializer: adopt this pool's snapshot in the worker process."""
    global _WORKER_SNAPSHOT
    _WORKER_SNAPSHOT = snapshot


def _run_chunk(args: Tuple[Sequence[int], int, int]) -> List[Tuple[int, ...]]:
    """Worker-side: answer one chunk from the process-global snapshot."""
    masks, start, stop = args
    assert _WORKER_SNAPSHOT is not None, "worker started without a snapshot"
    return _WORKER_SNAPSHOT.destroyed_indices_chunk(masks, start, stop)


#: Per-process cache of snapshots attached from flat files, so a worker
#: answering many chunks of the same snapshot maps the file exactly once.
#: Bounded: each entry holds only mmap views plus lazily built kernels.
_ATTACHED: "OrderedDict[str, ShardSnapshot]" = OrderedDict()

_MAX_ATTACHED = 8


def _attach_cached(path: str, expect_version=None) -> ShardSnapshot:
    """The per-process attachment for ``path``, re-attached when stale.

    With ``expect_version`` set, a cached attachment stamped with a
    different :class:`~repro.versioning.DatabaseVersion` is dropped and the
    file re-attached — the owning database advanced, and the path may by
    now hold a rewritten snapshot.  If the *file* is also stale, the
    re-attach raises :class:`~repro.errors.StaleSnapshotError` rather than
    letting a worker answer from a superseded epoch.
    """
    # The attach-vs-hit counters live in the *calling process's* default
    # registry: the parent and thread workers share one, while spawn/fork
    # process workers count in their own interpreter (unscraped — the
    # parent-side `parallel.batch_seconds` histogram still covers them).
    snapshot = _ATTACHED.get(path)
    if snapshot is not None and (
        expect_version is None or snapshot.version == expect_version
    ):
        _ATTACHED.move_to_end(path)
        default_registry().counter("parallel.mmap.attach_hits").inc()
        return snapshot
    if snapshot is not None:
        del _ATTACHED[path]
    default_registry().counter("parallel.mmap.attaches").inc()
    snapshot = ShardSnapshot.attach_file(path, expect_version=expect_version)
    _ATTACHED[path] = snapshot
    while len(_ATTACHED) > _MAX_ATTACHED:
        _ATTACHED.popitem(last=False)
    return snapshot


def _run_chunk_mmap(args: "Tuple[str, Sequence, object]") -> List[Tuple[int, ...]]:
    """Worker-side: attach the memory-mapped snapshot file, answer a chunk.

    Tasks are ``(path, masks, expect_version)``.
    """
    path, masks, expect = args
    return _attach_cached(path, expect).destroyed_indices_chunk(
        masks, 0, len(masks)
    )


def _timed_chunk(fn):
    """Run one chunk task, recording its latency per executing thread.

    Thread-backend chunks run in the parent process, so their latency
    lands in the shared default registry (``parallel.chunk_seconds``) —
    the per-worker task-latency distribution the pool's scheduling is
    judged by.  Near-free when the registry is disabled.
    """
    started = time.perf_counter()
    try:
        return fn()
    finally:
        default_registry().histogram("parallel.chunk_seconds").observe(
            time.perf_counter() - started
        )


def resolve_backend(backend: str, workers: int, total: int) -> str:
    """The concrete backend for an ``"auto"`` (or explicit) request."""
    if backend != "auto":
        if backend not in ("serial", "thread", "process"):
            raise ValueError(f"unknown shard backend {backend!r}")
        return backend
    if workers <= 1:
        return "serial"
    if (
        (os.cpu_count() or 1) > 1
        and "fork" in multiprocessing.get_all_start_methods()
        and total >= PROCESS_MIN_BATCH
    ):
        return "process"
    return "thread"


class WorkerPool:
    """One persistent chunk-execution pool (thread or process backend).

    Thread pools answer chunks of any snapshot — threads share the parent's
    memory.  Process pools are bound to the single snapshot their workers
    adopted through the initializer; :meth:`run` refuses any other.  A
    process pool built with ``snapshot=None`` is a **payload pool**: its
    workers adopt nothing, and each :meth:`run_mmap` task names the
    snapshot file to attach instead.
    """

    __slots__ = ("backend", "workers", "_executor", "_mp_pool", "_snapshot", "_closed")

    def __init__(
        self,
        backend: str,
        workers: int,
        snapshot: "ShardSnapshot | None" = None,
    ):
        if backend not in ("thread", "process"):
            raise ValueError(f"pools exist for thread/process, not {backend!r}")
        if workers < 1:
            raise ValueError("workers must be positive")
        self.backend = backend
        self.workers = workers
        self._closed = False
        self._executor: "ThreadPoolExecutor | None" = None
        self._mp_pool = None
        self._snapshot = snapshot
        if backend == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-shard"
            )
        else:
            start_methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in start_methods else start_methods[0]
            ctx = multiprocessing.get_context(method)
            if snapshot is None:  # payload pool: tasks name their snapshot
                self._mp_pool = ctx.Pool(processes=workers)
            else:
                self._mp_pool = ctx.Pool(
                    processes=workers,
                    initializer=_init_worker,
                    initargs=(snapshot,),
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def healthy(self) -> bool:
        """True when the pool can still accept work.

        A closed pool is unhealthy by definition.  For process pools the
        worker processes are additionally checked alive — a worker killed
        by the OS (OOM, signal) would otherwise wedge the next ``map``.
        """
        if self._closed:
            return False
        if self._mp_pool is not None:
            try:
                if getattr(self._mp_pool, "_state", "RUN") != "RUN":
                    return False
                procs = getattr(self._mp_pool, "_pool", None)
                if procs is not None and not all(p.is_alive() for p in procs):
                    return False
            except Exception:  # pragma: no cover - defensive on mp internals
                return False
        return True

    def close(self) -> None:
        """Release the OS resources.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._mp_pool is not None:
            self._mp_pool.terminate()
            self._mp_pool.join()
        self._snapshot = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        snapshot: ShardSnapshot,
        masks: Sequence[int],
        shards: Sequence[Tuple[int, int]],
        force_python: bool = False,
    ) -> List[List[Tuple[int, ...]]]:
        """Answer every shard, returning the per-shard parts in shard order."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if self._executor is not None:
            return list(
                self._executor.map(
                    lambda rng: _timed_chunk(
                        lambda: snapshot.destroyed_indices_chunk(
                            masks, rng[0], rng[1], force_python=force_python
                        )
                    ),
                    shards,
                )
            )
        if snapshot is not self._snapshot:
            raise RuntimeError(
                "process pool was initialized for a different snapshot"
            )
        return self._mp_pool.map(
            _run_chunk,
            [(list(masks[a:b]), 0, b - a) for a, b in shards],
        )

    def run_mmap(
        self,
        tasks: "Sequence[Tuple[str, Sequence, object]]",
        force_python: bool = False,
    ) -> List[List[Tuple[int, ...]]]:
        """Answer ``(snapshot file path, masks, version)`` tasks in order.

        Workers attach the snapshot via ``np.memmap`` (cached per process),
        so only the path and the chunk's masks travel per task — the
        snapshot bytes move zero times after the one-time file write.
        Process pools must be payload pools.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if self._executor is not None:
            return list(
                self._executor.map(
                    lambda task: _timed_chunk(
                        lambda: _attach_cached(
                            task[0], task[2]
                        ).destroyed_indices_chunk(
                            task[1], 0, len(task[1]), force_python=force_python
                        )
                    ),
                    tasks,
                )
            )
        if self._snapshot is not None:
            raise RuntimeError("snapshot-bound pools cannot run mmap tasks")
        return self._mp_pool.map(_run_chunk_mmap, list(tasks))


class PoolRegistry:
    """Process-wide cache of live :class:`WorkerPool` objects.

    ``get`` creates a pool on first use and hands the same object back on
    every later call with the same key — after a health check; an unhealthy
    pool is closed, discarded, and transparently rebuilt.  The registry is
    thread-safe and usable as a context manager (closing every pool on
    exit), and ``stats()`` exposes created/reused/evicted counters so tests
    can pin the reuse behaviour.
    """

    __slots__ = (
        "_threads",
        "_processes",
        "_max_process_pools",
        "_lock",
        "_created",
        "_reused",
        "_evicted",
        "_rebuilt",
    )

    def __init__(self, max_process_pools: int = MAX_PROCESS_POOLS):
        if max_process_pools < 1:
            raise ValueError("max_process_pools must be positive")
        #: workers -> pool (thread pools serve any snapshot).
        self._threads: Dict[int, WorkerPool] = {}
        #: (id(snapshot), workers) -> pool; the pool holds the snapshot
        #: ref, so the id cannot be recycled while the entry lives.
        self._processes: "OrderedDict[Tuple[int, int], WorkerPool]" = OrderedDict()
        self._max_process_pools = max_process_pools
        self._lock = threading.Lock()
        self._created = 0
        self._reused = 0
        self._evicted = 0
        self._rebuilt = 0

    def get(
        self,
        backend: str,
        workers: int,
        snapshot: "ShardSnapshot | None" = None,
    ) -> WorkerPool:
        """The live pool for ``(backend, workers[, snapshot])``."""
        with self._lock:
            if backend == "thread":
                pool = self._threads.get(workers)
                if pool is not None and pool.healthy():
                    self._reused += 1
                    return pool
                if pool is not None:
                    pool.close()
                    self._rebuilt += 1
                pool = WorkerPool("thread", workers)
                self._threads[workers] = pool
                self._created += 1
                return pool
            if backend != "process":
                raise ValueError(f"no pools for backend {backend!r}")
            # snapshot None -> one shared payload pool per worker count.
            key = (
                ("payload", workers)
                if snapshot is None
                else (id(snapshot), workers)
            )
            pool = self._processes.get(key)
            if pool is not None and pool.healthy():
                self._reused += 1
                self._processes.move_to_end(key)
                return pool
            if pool is not None:
                pool.close()
                del self._processes[key]
                self._rebuilt += 1
            pool = WorkerPool("process", workers, snapshot)
            self._processes[key] = pool
            self._created += 1
            while len(self._processes) > self._max_process_pools:
                _, evicted = self._processes.popitem(last=False)
                evicted.close()
                self._evicted += 1
            return pool

    def stats(self) -> Dict[str, int]:
        """Created/reused/evicted/rebuilt counters and live pool counts."""
        with self._lock:
            return {
                "created": self._created,
                "reused": self._reused,
                "evicted": self._evicted,
                "rebuilt": self._rebuilt,
                "live_thread_pools": len(self._threads),
                "live_process_pools": len(self._processes),
            }

    def close(self) -> None:
        """Close every pool and forget it.  The registry stays usable."""
        with self._lock:
            for pool in self._threads.values():
                pool.close()
            self._threads.clear()
            for pool in self._processes.values():
                pool.close()
            self._processes.clear()

    def __enter__(self) -> "PoolRegistry":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


#: The registry every sharded batch call draws its pool from.
_POOLS = PoolRegistry()
atexit.register(_POOLS.close)


def pool_registry() -> PoolRegistry:
    """The process-wide pool registry (for stats, tests, and lifecycle)."""
    return _POOLS


def close_pools() -> None:
    """Release every cached worker pool.  Later calls rebuild lazily."""
    _POOLS.close()


def sharded_destroyed_indices(
    snapshot: ShardSnapshot,
    masks: Sequence,
    workers: int,
    backend: str = "auto",
    chunk_size: "int | None" = None,
    force_python: bool = False,
    ship_mmap: bool = False,
) -> List[Tuple[int, ...]]:
    """Answer a whole mask vector through sharded execution.

    Returns one ascending row-index tuple per mask, in mask order —
    bit-identical to answering the vector serially, for every ``workers``
    count, ``backend``, ``chunk_size``, and ``ship_mmap`` setting
    (property-tested).

    ``force_python`` pins the pure-Python chunk kernel; it implies the
    thread/serial backends because worker processes re-detect numpy on
    their own import.

    ``ship_mmap`` writes the snapshot to its flat memory-mapped file once
    (:meth:`~repro.parallel.shards.ShardSnapshot.mmap_file`) and ships only
    the *path* per task; workers attach via ``np.memmap`` on a
    snapshot-less payload pool, so no snapshot bytes are pickled at all —
    neither per pool nor per task.  The process backend turns it on by
    itself on hosts without ``fork``, where the pool initializer could
    not share the snapshot copy-on-write.
    """
    total = len(masks)
    if total == 0:
        return []
    batch_started = time.perf_counter()
    if chunk_size is None and workers > 1:
        # Balanced over the workers, but never below the amortization
        # floor: fewer, larger shards beat idle-free scheduling once the
        # per-chunk kernel set-up cost is comparable to the chunk itself.
        shard_count = min(workers, max(1, total // MIN_CHUNK_SIZE))
        chunk_size = -(-total // shard_count)
    shards = plan_shards(total, max(1, workers), chunk_size)
    chosen = resolve_backend(backend, workers, total)
    if force_python and chosen == "process":
        chosen = "thread"
    if chosen == "process" and "fork" not in multiprocessing.get_all_start_methods():
        ship_mmap = True

    mmap_tasks: "List[Tuple[str, List, object]] | None" = None
    if ship_mmap:
        path = snapshot.mmap_file()
        # Each task carries the snapshot's version stamp, so every worker's
        # attachment (and its per-process cache entry) is pinned to the
        # epoch this call answers for.
        mmap_tasks = [
            (path, list(masks[a:b]), snapshot.version) for a, b in shards
        ]
    else:
        snapshot.prepare(force_python=force_python)

    def answer_inline() -> List[List[Tuple[int, ...]]]:
        if mmap_tasks is not None:
            # Attach (once) even in-process, so the inline path exercises
            # the same flat-file kernel the workers run.
            attached = _attach_cached(mmap_tasks[0][0], mmap_tasks[0][2])
            return [
                attached.destroyed_indices_chunk(
                    local, 0, len(local), force_python=force_python
                )
                for _path, local, _version in mmap_tasks
            ]
        return [
            snapshot.destroyed_indices_chunk(
                masks, start, stop, force_python=force_python
            )
            for start, stop in shards
        ]

    parts: "List[List[Tuple[int, ...]]] | None" = None
    if chosen == "serial" or len(shards) == 1 or workers <= 1:
        chosen = "serial"
        parts = answer_inline()
    else:
        # Persistent pools are shared process-wide, so a concurrent
        # close_pools() (another engine shutting down) or an LRU eviction
        # can close the pool between get() and run().  Retry once with a
        # fresh pool; if pools keep dying, answer inline — always correct,
        # just unsharded.
        for _attempt in range(2):
            pool = _POOLS.get(
                chosen,
                workers,
                snapshot if chosen == "process" and not ship_mmap else None,
            )
            try:
                with _tracer.span(
                    "shard_kernel",
                    backend=chosen,
                    workers=workers,
                    shards=len(shards),
                ):
                    if mmap_tasks is not None:
                        parts = pool.run_mmap(
                            mmap_tasks, force_python=force_python
                        )
                    else:
                        parts = pool.run(
                            snapshot, masks, shards, force_python=force_python
                        )
                break
            except (RuntimeError, ValueError, OSError):
                if pool.healthy():
                    raise  # a real task error, not a pool-lifecycle race
                continue
        if parts is None:
            parts = answer_inline()

    merged: List[Tuple[int, ...]] = []
    for part in parts:
        merged.extend(part)
    registry = default_registry()
    registry.histogram("parallel.batch_seconds").observe(
        time.perf_counter() - batch_started
    )
    registry.counter(f"parallel.batches.{chosen}").inc()
    return merged
