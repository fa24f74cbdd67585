"""Sharded execution of batch mask-vector queries.

The exact deletion solvers ask "what survives after deleting ``T``?" for
whole vectors of candidate masks (:meth:`~repro.provenance.bitset.
BitsetProvenance.batch_destroyed`).  This package partitions such a vector
into shards, answers each shard from an immutable snapshot of the witness
tables — on worker threads or processes — and merges the per-shard answers
deterministically:

* :mod:`repro.parallel.shards` — shard planning
  (:func:`~repro.parallel.shards.plan_shards`) and the read-only
  :class:`~repro.parallel.shards.ShardSnapshot` each worker answers from;
* :mod:`repro.parallel.executor` — the backends (serial, thread, process),
  the merge (:func:`~repro.parallel.executor.sharded_destroyed_indices`),
  and the **persistent pools** behind them: worker pools are created once,
  health-checked, and reused across batch calls through a process-wide
  :class:`~repro.parallel.executor.PoolRegistry`
  (:func:`~repro.parallel.executor.pool_registry`), with explicit
  :func:`~repro.parallel.executor.close_pools` / context-manager lifecycle
  and ``atexit`` cleanup — the substrate long-lived serving processes
  (:mod:`repro.service`) sit on.

The snapshot is immutable, so threads share it zero-copy and forked worker
processes share it copy-on-write; on hosts without ``fork`` workers attach
its memory-mapped flat file instead.  Answers are bit-identical to the serial path for every worker count
and backend — pinned by the property tests in ``tests/test_sharded.py``.
"""

from repro.parallel.shards import ShardSnapshot, plan_shards
from repro.parallel.executor import (
    PoolRegistry,
    WorkerPool,
    close_pools,
    pool_registry,
    resolve_backend,
    sharded_destroyed_indices,
)

__all__ = [
    "ShardSnapshot",
    "plan_shards",
    "resolve_backend",
    "sharded_destroyed_indices",
    "WorkerPool",
    "PoolRegistry",
    "pool_registry",
    "close_pools",
]
