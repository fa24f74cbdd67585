"""Shard planning and the snapshot workers answer mask chunks from.

A *shard* is a contiguous ``[start, stop)`` range of a candidate mask
vector.  :func:`plan_shards` partitions a vector into balanced shards;
:class:`ShardSnapshot` is the immutable, picklable view of a
:class:`~repro.provenance.bitset.BitsetProvenance` that answers one shard's
"which rows are destroyed by each mask?" question without the kernel, the
database, or any other mutable state.

The snapshot answers a chunk two ways, both bit-identical:

* **vectorized** (default when numpy + scipy are importable): the chunk's
  masks become a sparse bit × candidate incidence matrix; one sparse matmul
  against the witness × bit matrix marks every (witness, candidate) pair
  that intersects, a second aggregates per row, and a row is destroyed by a
  candidate exactly when *all* of its witnesses intersect it.  Work is
  proportional to the number of nonzeros — the same sparsity the serial
  path's inverted source-bit index exploits — but runs in C and releases
  the GIL, so thread shards scale on multicore hosts;
* **pure Python** (:data:`HAVE_NUMPY` false, or forced in tests): the one
  survival kernel every serial probe uses
  (:class:`~repro.provenance.witness_table.SurvivalIndex`), over the
  snapshot's row indices.

Answers are tuples of ascending row *indices* into :attr:`ShardSnapshot.rows`
— compact to pickle back from worker processes and directly usable as
interning keys by the merge step.  Candidates with identical answers within
a chunk share one tuple object, so duplicate-heavy vectors cost one answer
materialization per *distinct* answer.

A vector element is a sequence of source-bit ids
(:meth:`~repro.provenance.interning.SourceIndex.encode_ids`); an ``int``
mask is accepted too and decomposed to ids on entry.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from typing import Dict, List, Sequence, Tuple

from repro.provenance.interning import iter_bits
from repro.provenance.witness_table import SurvivalIndex, WitnessTable

try:  # numpy + scipy accelerate the chunk kernel; the library runs without.
    import numpy as _np
    from scipy import sparse as _sparse

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via the force_python flag
    _np = None
    _sparse = None
    HAVE_NUMPY = False

__all__ = ["HAVE_NUMPY", "plan_shards", "ShardSnapshot"]

#: The empty answer, shared so empty-heavy vectors intern for free.
_EMPTY: Tuple[int, ...] = ()


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass

#: A candidate in a mask vector: a sequence of bit ids, or an int mask.
MaskLike = "Sequence[int] | int"


def _mask_bits(value: MaskLike) -> "Sequence[int]":
    """The set bit ids of a vector element, whichever form it arrived in."""
    if isinstance(value, int):
        return tuple(iter_bits(value))
    return value


def plan_shards(
    total: int, workers: int, chunk_size: "int | None" = None
) -> Tuple[Tuple[int, int], ...]:
    """Partition ``range(total)`` into contiguous ``[start, stop)`` shards.

    With ``chunk_size`` unset the vector is split into at most ``workers``
    shards whose sizes differ by at most one — candidate masks cost roughly
    the same to answer, so balanced ranges balance work.  An explicit
    ``chunk_size`` yields fixed-size shards instead (the last may be
    short).  Deterministic: the same arguments always produce the same
    plan, and concatenating the shards in order reproduces the vector.

    >>> plan_shards(10, 4)
    ((0, 3), (3, 6), (6, 8), (8, 10))
    >>> plan_shards(5, 8)
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))
    >>> plan_shards(0, 4)
    ()
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if workers < 1:
        raise ValueError("workers must be positive")
    if total == 0:
        return ()
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        return tuple(
            (start, min(start + chunk_size, total))
            for start in range(0, total, chunk_size)
        )
    shards = min(workers, total)
    base, extra = divmod(total, shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return tuple(ranges)


class ShardSnapshot:
    """An immutable view of a witness table, answerable without the kernel.

    Built once per :class:`~repro.provenance.bitset.BitsetProvenance` (and
    cached there) around the kernel's CSR
    :class:`~repro.provenance.witness_table.WitnessTable`; row *indices*
    into :attr:`rows` are the currency of the sharded path.  All derived
    structures are functions of the table alone, so a pickled or
    memory-mapped copy in a worker process answers identically to the
    original.
    """

    __slots__ = (
        "nbits",
        "version",
        "_table",
        "_survival",
        "_np",
        "_mmap_path",
        "_mmap_finalizer",
        "__weakref__",
    )

    def __init__(self, table: WitnessTable, nbits: int, version=None):
        self.nbits = max(1, nbits)
        #: Optional :class:`~repro.versioning.DatabaseVersion` stamp of the
        #: epoch this snapshot was cut at.  ``None`` means unversioned (the
        #: read-only path); attach-time checks only fire when a caller
        #: passes an expectation.
        self.version = version
        self._table = table
        self._survival: "SurvivalIndex | None" = None
        self._np = None  # lazy numpy artifacts; rebuilt after unpickling
        self._mmap_path: "str | None" = None
        self._mmap_finalizer = None

    @classmethod
    def from_witness_table(cls, table, nbits: int, version=None) -> "ShardSnapshot":
        """Snapshot a CSR ``WitnessTable`` — zero-copy adoption.

        The table's ``row_offsets``/``wit_offsets``/``bit_ids`` arrays *are*
        this snapshot's internal (and on-disk) layout: both chunk kernels,
        :meth:`write_file`, and pickling all run from them.
        """
        return cls(table, nbits, version)

    @property
    def rows(self) -> Tuple[Tuple, ...]:
        """The view rows, in the order answers index them."""
        return self._table.rows

    def __getstate__(self):
        # Ship the CSR arrays as lists: they travel representation-portably
        # between numpy and pure-Python processes.
        return (self.rows, self.nbits, *self._table.as_lists(), self.version)

    def __setstate__(self, state):
        rows, nbits, row_offsets, wit_offsets, bit_ids, version = state
        self.__init__(
            WitnessTable(rows, row_offsets, wit_offsets, bit_ids), nbits, version
        )

    # ------------------------------------------------------------------
    # Flat-file (memory-mapped) form
    # ------------------------------------------------------------------
    def write_file(self, path: str) -> None:
        """Serialize to the flat container of :mod:`repro.columnar.flatfile`.

        The layout is exactly the CSR both chunk kernels consume —
        ``row_offsets`` (row → witness span), ``wit_offsets`` (witness →
        bit span), and ``bit_ids`` — so :meth:`attach_file` feeds them
        straight from the memory-mapped arrays.
        """
        from repro.columnar.flatfile import write_flat

        table = self._table
        meta = {
            "kind": "shard-snapshot",
            "nbits": self.nbits,
            "nrows": len(table),
        }
        if self.version is not None:
            meta["version"] = [self.version.name, self.version.epoch]
        write_flat(
            path,
            meta,
            {
                "row_offsets": table.row_offsets,
                "wit_offsets": table.wit_offsets,
                "bit_ids": table.bit_ids,
            },
        )

    @classmethod
    def attach_file(cls, path: str, expect_version=None) -> "ShardSnapshot":
        """Attach a snapshot written by :meth:`write_file`.

        With numpy available the offset/bit arrays stay memory-mapped: the
        OS pages them in on first touch and shares the clean pages between
        every worker attached to the same file.  Row content is never
        shipped — answers are row *indices* — so :attr:`rows` holds
        placeholders.

        ``expect_version`` pins the attachment to one database epoch: when
        the file's stamp (absent counts as mismatched) differs, the attach
        raises :class:`~repro.errors.StaleSnapshotError` instead of serving
        answers cut from a database the owner has since written past.
        """
        from repro.columnar.flatfile import read_flat

        meta, arrays, _ = read_flat(path)
        if meta.get("kind") != "shard-snapshot":
            raise ValueError(f"{path!r} does not hold a ShardSnapshot")
        raw_version = meta.get("version")
        version = None
        if raw_version is not None:
            from repro.versioning import DatabaseVersion

            version = DatabaseVersion(raw_version[0], raw_version[1])
        if expect_version is not None and version != expect_version:
            from repro.errors import StaleSnapshotError

            raise StaleSnapshotError(
                f"snapshot {path!r} is stamped {version!r}, "
                f"expected {expect_version!r}"
            )
        table = WitnessTable(
            (None,) * meta["nrows"],
            arrays["row_offsets"],
            arrays["wit_offsets"],
            arrays["bit_ids"],
        )
        snap = cls(table, meta["nbits"], version)
        snap._mmap_path = path
        return snap

    def mmap_file(self) -> str:
        """Path of this snapshot's flat file, writing it once on first use.

        The file lives in the temp directory and is unlinked when the
        snapshot is garbage collected (workers keep their own attachment;
        on POSIX the mapping stays valid until they drop it).
        """
        if self._mmap_path is None:
            handle, path = tempfile.mkstemp(prefix="repro-snapshot-", suffix=".flat")
            os.close(handle)
            self.write_file(path)
            self._mmap_path = path
            self._mmap_finalizer = weakref.finalize(self, _unlink_quietly, path)
        return self._mmap_path

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def _survival_index(self) -> SurvivalIndex:
        """The pure-Python kernel's state; slots are row indices here."""
        if self._survival is None:
            self._survival = SurvivalIndex.build(self._table)
        return self._survival

    def _numpy_tables(self):
        """(B, R, row_nwit): witness×bit and row×witness incidence matrices."""
        if self._np is None:
            table = self._table
            wit_offsets = _np.asarray(table.wit_offsets, dtype=_np.int64)
            bit_ids = _np.asarray(table.bit_ids, dtype=_np.int64)
            row_nwit = _np.diff(_np.asarray(table.row_offsets, dtype=_np.int64))
            nwit = len(wit_offsets) - 1
            wit_ids = _np.repeat(_np.arange(nwit), _np.diff(wit_offsets))
            wit_row = _np.repeat(_np.arange(len(table)), row_nwit)
            B = _sparse.csr_matrix(
                (_np.ones(bit_ids.size, dtype=_np.int32), (wit_ids, bit_ids)),
                shape=(nwit, self.nbits),
            )
            R = _sparse.csr_matrix(
                (_np.ones(nwit, dtype=_np.int32), (wit_row, _np.arange(nwit))),
                shape=(len(table), nwit),
            )
            self._np = (B, R, row_nwit.astype(_np.int32))
        return self._np

    def prepare(self, force_python: bool = False) -> None:
        """Build the derived structures eagerly (thread-safety, fork COW).

        Thread shards share this object, so the lazily built tables must
        exist before workers race for them; forked processes inherit them
        copy-on-write for free.
        """
        if HAVE_NUMPY and not force_python:
            self._numpy_tables()
        else:
            self._survival_index()

    # ------------------------------------------------------------------
    # Chunk answering
    # ------------------------------------------------------------------
    def destroyed_indices_chunk(
        self,
        masks: Sequence[MaskLike],
        start: int,
        stop: int,
        force_python: bool = False,
    ) -> List[Tuple[int, ...]]:
        """Per-candidate destroyed row indices for ``masks[start:stop]``.

        Each answer is the ascending tuple of indices (into :attr:`rows`)
        of the rows whose every witness intersects the candidate.  Vector
        elements may be bit-id sequences or int masks.  Candidates with
        identical answers share one tuple object.  ``force_python`` pins
        the pure-Python kernel (the property tests run both kernels
        against the oracle).
        """
        if HAVE_NUMPY and not force_python:
            return self._chunk_numpy(masks, start, stop)
        return self._chunk_python(masks, start, stop)

    def _chunk_python(
        self, masks: Sequence[MaskLike], start: int, stop: int
    ) -> List[Tuple[int, ...]]:
        destroyed = self._survival_index().destroyed
        interned: Dict[Tuple[int, ...], Tuple[int, ...]] = {_EMPTY: _EMPTY}
        out: List[Tuple[int, ...]] = []
        for pos in range(start, stop):
            answer = tuple(sorted(destroyed(_mask_bits(masks[pos]))))
            out.append(interned.setdefault(answer, answer))
        return out

    def _chunk_numpy(
        self, masks: Sequence[MaskLike], start: int, stop: int
    ) -> List[Tuple[int, ...]]:
        m = stop - start
        if m <= 0 or not self.rows:
            return [_EMPTY] * max(m, 0)
        B, R, row_nwit = self._numpy_tables()
        nbits = self.nbits
        # Encode the chunk as a bit × candidate incidence matrix.  Bits
        # past nbits belong to no witness, so dropping them is sound.
        bit_list: List[int] = []
        cand_list: List[int] = []
        for pos in range(start, stop):
            for bit in _mask_bits(masks[pos]):
                if bit < nbits:
                    bit_list.append(bit)
                    cand_list.append(pos - start)
        bit_ids = _np.asarray(bit_list, dtype=_np.int64)
        cand_ids = _np.asarray(cand_list, dtype=_np.int64)
        D = _sparse.csc_matrix(
            (_np.ones(cand_ids.size, dtype=_np.int32), (bit_ids, cand_ids)),
            shape=(nbits, m),
        )
        P = B @ D  # (witness, candidate) shared-bit counts
        if P.nnz:
            P.data.fill(1)  # indicator: witness intersects candidate
        cnt = (R @ P).tocsc()  # (row, candidate) intersecting-witness counts
        cnt.sort_indices()  # ascending row indices per candidate column
        # A row is destroyed when every one of its witnesses intersects.
        keep = cnt.data == row_nwit[cnt.indices]
        counts = _np.zeros(m, dtype=_np.int64)
        col_has = _np.diff(cnt.indptr) > 0
        if col_has.any():
            counts[col_has] = _np.add.reduceat(keep, cnt.indptr[:-1][col_has])
        ptr = _np.zeros(m + 1, dtype=_np.int64)
        _np.cumsum(counts, out=ptr[1:])
        idx = cnt.indices[keep]
        out: List[Tuple[int, ...]] = [_EMPTY] * m
        interned: Dict[bytes, Tuple[int, ...]] = {}
        for j in _np.flatnonzero(counts).tolist():
            key = idx[ptr[j] : ptr[j + 1]].tobytes()
            answer = interned.get(key)
            if answer is None:
                answer = tuple(idx[ptr[j] : ptr[j + 1]].tolist())
                interned[key] = answer
            out[j] = answer
        return out

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return (
            f"ShardSnapshot({len(self._table)} rows, "
            f"{self._table.witness_count} witnesses, {self.nbits} bits)"
        )
