"""Array-native witness tables: the CSR form of a view's minimal witnesses.

The bitset kernel's logical object is ``row -> tuple of witness masks``
(:mod:`repro.provenance.bitset`), where each mask is one whole-universe
Python int.  At scale the ints dominate: every scan/merge/join of the
annotated executor pays O(universe/64) words per mask however few bits are
set, and every derived structure (inverted index, vectorized kernel) would
re-walk the big ints to get the bit ids back out.

:class:`WitnessTable` stores the same witness sets as three flat arrays in
compressed-sparse-row layout:

* ``row_offsets`` (``nrows + 1``): row ``i``'s witnesses are the span
  ``[row_offsets[i], row_offsets[i+1])``;
* ``wit_offsets`` (``nwits + 1``): witness ``w``'s source-id bits are
  ``bit_ids[wit_offsets[w] : wit_offsets[w+1]]``;
* ``bit_ids``: flat int64 source ids, **ascending within each witness**.

Canonical-order invariant: each row's span is exactly the output of
:func:`~repro.provenance.bitset.minimize_masks` on its witness set —
deduplicated, inclusion-minimal, sorted by ``(popcount, mask value)`` — so
:meth:`to_masks` reproduces the tuple executor's witness tuples element for
element (the dict-of-ints view is a lazy *compatibility* view; the arrays
are the source of truth).

Containers are numpy ``int64`` arrays when the table was built by the
vectorized kernels and plain Python lists when built by the pure-Python
fallback; every method branches on the container, so values — and every
downstream answer — are bit-identical either way (property-tested).

Two survival kernels answer "which rows lose every witness when these
source ids are deleted?" over a table:

* :class:`SurvivalIndex`, pure Python, walks an inverted index from source
  id to rows, so one candidate costs only the rows it can reach;
* :class:`VectorSurvival` answers a whole candidate vector with two sparse
  matrix products (numpy + scipy, imported on first use), and interns
  identical answers.  Its set-up cost is per vector, so it only pays for
  long vectors; :class:`~repro.provenance.bitset.BitsetProvenance` picks
  between the two by vector length.
"""

from __future__ import annotations

import itertools
import sys
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.provenance.interning import iter_bits

try:  # optional acceleration; the list-backed form is bit-identical
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via the no-numpy CI leg
    _np = None
    HAVE_NUMPY = False

__all__ = ["WitnessTable", "SurvivalIndex", "VectorSurvival"]


def _as_int_list(container) -> List[int]:
    """A plain list of Python ints, whatever the container kind."""
    if isinstance(container, list):
        return container
    if hasattr(container, "tolist"):
        return container.tolist()
    return [int(v) for v in container]


class WitnessTable:
    """A view's minimal witnesses as CSR arrays, aligned with ``rows``."""

    __slots__ = (
        "rows",
        "row_offsets",
        "wit_offsets",
        "bit_ids",
        "_masks",
        "_row_pos",
        "_bits",
    )

    def __init__(self, rows, row_offsets, wit_offsets, bit_ids):
        self.rows: Tuple[Tuple, ...] = tuple(rows)
        self.row_offsets = row_offsets
        self.wit_offsets = wit_offsets
        self.bit_ids = bit_ids
        #: Cached dict-of-int-masks compatibility view (the oracle form).
        self._masks: "Optional[Dict[Tuple, Tuple[int, ...]]]" = None
        #: Lazy row -> position map for membership tests.
        self._row_pos: "Optional[Dict[Tuple, int]]" = None
        #: Memoized :meth:`bits_of` decodes (the table never changes).
        self._bits: "Dict[Tuple, Tuple[Tuple[int, ...], ...]]" = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_masks(cls, witnesses: "Dict[Tuple, Tuple[int, ...]]") -> "WitnessTable":
        """Build from the ``row -> mask tuple`` oracle form (order preserved).

        The input is assumed minimized in canonical order (every producer —
        :func:`~repro.provenance.bitset.minimize_masks` — guarantees it);
        masks decompose to ascending bit ids, so the round trip through
        :meth:`to_masks` is exact.
        """
        row_offsets: List[int] = [0]
        wit_offsets: List[int] = [0]
        bit_ids: List[int] = []
        for masks in witnesses.values():
            for mask in masks:
                bit_ids.extend(iter_bits(mask))
                wit_offsets.append(len(bit_ids))
            row_offsets.append(len(wit_offsets) - 1)
        table = cls(witnesses, row_offsets, wit_offsets, bit_ids)
        table._masks = dict(witnesses)
        return table

    @classmethod
    def from_padded(cls, rows, row_offsets, bits, lens) -> "WitnessTable":
        """Build from the kernels' padded form (numpy only).

        ``bits`` is ``(nwits, width)`` int64 with each witness's ids sorted
        *descending* and ``-1`` padding on the right; ``lens`` counts the
        real bits.  Reversing the columns and dropping the padding yields
        the ascending flat CSR form.
        """
        reversed_bits = bits[:, ::-1]
        flat = reversed_bits[reversed_bits != -1]
        wit_offsets = _np.zeros(bits.shape[0] + 1, dtype=_np.int64)
        _np.cumsum(lens, out=wit_offsets[1:])
        return cls(
            rows,
            _np.ascontiguousarray(row_offsets, dtype=_np.int64),
            wit_offsets,
            _np.ascontiguousarray(flat, dtype=_np.int64),
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    @property
    def witness_count(self) -> int:
        """Total number of witnesses across all rows."""
        return len(self.wit_offsets) - 1

    @property
    def total_bits(self) -> int:
        """Total number of (witness, source id) incidences."""
        return len(self.bit_ids)

    def contains(self, row) -> bool:
        if self._row_pos is None:
            self._row_pos = {r: i for i, r in enumerate(self.rows)}
        return row in self._row_pos

    def memory_bytes(self) -> int:
        """Approximate bytes held by the three CSR arrays."""
        total = 0
        for arr in (self.row_offsets, self.wit_offsets, self.bit_ids):
            if HAVE_NUMPY and isinstance(arr, _np.ndarray):
                total += int(arr.nbytes)
            else:
                total += sys.getsizeof(arr) + 28 * len(arr)
        return total

    def as_lists(self) -> "Tuple[List[int], List[int], List[int]]":
        """The three arrays as plain lists (container-independent equality)."""
        return (
            _as_int_list(self.row_offsets),
            _as_int_list(self.wit_offsets),
            _as_int_list(self.bit_ids),
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def to_masks(self) -> "Dict[Tuple, Tuple[int, ...]]":
        """The ``row -> minimized mask tuple`` compatibility view (cached).

        Bit-identical to the tuple executor's table: the canonical-order
        invariant means rebuilding each witness's int from its bits yields
        the same tuples :func:`minimize_masks` would have emitted.
        """
        if self._masks is None:
            row_offsets = _as_int_list(self.row_offsets)
            wit_offsets = _as_int_list(self.wit_offsets)
            bit_ids = _as_int_list(self.bit_ids)
            masks: List[int] = []
            for w in range(len(wit_offsets) - 1):
                mask = 0
                for k in range(wit_offsets[w], wit_offsets[w + 1]):
                    mask |= 1 << bit_ids[k]
                masks.append(mask)
            self._masks = {
                row: tuple(masks[row_offsets[i] : row_offsets[i + 1]])
                for i, row in enumerate(self.rows)
            }
        return self._masks

    def touched_rows(self) -> "Dict[int, Tuple[int, ...]]":
        """Inverted index: source bit id -> ascending indices (into
        :attr:`rows`) of the rows whose witness universe contains it."""
        row_offsets = _as_int_list(self.row_offsets)
        wit_offsets = _as_int_list(self.wit_offsets)
        bit_ids = _as_int_list(self.bit_ids)
        touched: Dict[int, List[int]] = {}
        for i in range(len(self.rows)):
            first = wit_offsets[row_offsets[i]]
            last = wit_offsets[row_offsets[i + 1]]
            for bit in set(bit_ids[first:last]):
                touched.setdefault(bit, []).append(i)
        return {bit: tuple(ids) for bit, ids in touched.items()}

    def bits_of(self, row) -> "Optional[Tuple[Tuple[int, ...], ...]]":
        """``row``'s witnesses as ascending bit-id tuples, or ``None`` when
        absent — a point lookup that decodes one row's spans only, once."""
        wits = self._bits.get(row)
        if wits is not None:
            return wits
        if self._row_pos is None:
            self._row_pos = {r: i for i, r in enumerate(self.rows)}
        i = self._row_pos.get(row)
        if i is None:
            return None
        row_offsets, wit_offsets = self.row_offsets, self.wit_offsets
        bit_ids = self.bit_ids
        wits = self._bits[row] = tuple(
            tuple(_as_int_list(bit_ids[wit_offsets[w] : wit_offsets[w + 1]]))
            for w in range(int(row_offsets[i]), int(row_offsets[i + 1]))
        )
        return wits

    def masks_of(self, row) -> "Optional[Tuple[int, ...]]":
        """``row``'s minimized mask tuple, or ``None`` when absent.

        A point lookup for the write path's insert merge and the decode
        boundary — without materializing the whole :meth:`to_masks` view.
        """
        if self._masks is not None:
            return self._masks.get(row)
        wits = self.bits_of(row)
        if wits is None:
            return None
        return tuple(sum(1 << bit for bit in wit) for wit in wits)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def drop_bits(self, deleted_ids) -> "WitnessTable":
        """A new table with every witness containing a deleted id removed.

        This is the deletion-patch kernel of the write path: deleting the
        source tuples behind ``deleted_ids`` kills exactly the witnesses
        whose monomial mentions one of them, and a row survives iff at
        least one witness remains.  Correctness of keeping the *surviving*
        witnesses untouched: a subset of an inclusion-minimal antichain is
        still an antichain, and filtering a canonically-sorted sequence
        preserves canonical order — so the result is bit-identical to
        rebuilding the table against the post-deletion database (pinned by
        the maintenance property suite).

        Containers follow the source table: numpy in, numpy out; lists in,
        lists out (same values either way).
        """
        doomed = set(int(b) for b in deleted_ids)
        if not doomed:
            return self
        if (
            HAVE_NUMPY
            and isinstance(self.bit_ids, _np.ndarray)
            and isinstance(self.wit_offsets, _np.ndarray)
        ):
            return self._drop_bits_numpy(doomed)
        return self._drop_bits_python(doomed)

    def _drop_bits_numpy(self, doomed: "set") -> "WitnessTable":
        bit_ids = _np.asarray(self.bit_ids, dtype=_np.int64)
        wit_offsets = _np.asarray(self.wit_offsets, dtype=_np.int64)
        row_offsets = _np.asarray(self.row_offsets, dtype=_np.int64)
        hit = _np.isin(bit_ids, _np.fromiter(doomed, dtype=_np.int64))
        if not hit.any():
            return self
        # Per-witness hit counts via cumsum differences (safe on empty spans).
        cs = _np.zeros(len(bit_ids) + 1, dtype=_np.int64)
        _np.cumsum(hit, out=cs[1:])
        wit_hits = cs[wit_offsets[1:]] - cs[wit_offsets[:-1]]
        keep_wit = wit_hits == 0
        # Per-row surviving-witness counts, same trick one level up.
        ks = _np.zeros(len(keep_wit) + 1, dtype=_np.int64)
        _np.cumsum(keep_wit, out=ks[1:])
        row_kept = ks[row_offsets[1:]] - ks[row_offsets[:-1]]
        row_alive = row_kept > 0
        wit_lens = wit_offsets[1:] - wit_offsets[:-1]
        keep_bits = _np.repeat(keep_wit, wit_lens)
        new_bit_ids = _np.ascontiguousarray(bit_ids[keep_bits])
        kept_lens = wit_lens[keep_wit]
        new_wit_offsets = _np.zeros(len(kept_lens) + 1, dtype=_np.int64)
        _np.cumsum(kept_lens, out=new_wit_offsets[1:])
        new_row_offsets = _np.zeros(int(row_alive.sum()) + 1, dtype=_np.int64)
        _np.cumsum(row_kept[row_alive], out=new_row_offsets[1:])
        new_rows = tuple(
            itertools.compress(self.rows, row_alive.tolist())
        )
        return WitnessTable(
            new_rows, new_row_offsets, new_wit_offsets, new_bit_ids
        )

    def merge_rows(self, updates: "Dict[Tuple, Tuple[int, ...]]") -> "WitnessTable":
        """A new table with each row in ``updates`` holding exactly the
        given (minimized, canonical-order) mask tuple.

        This is the insert-patch kernel of the write path: rows untouched
        by the delta keep their CSR spans (one vectorized copy, no mask
        decoding); updated rows are re-encoded from their merged masks and
        appended, and an empty mask tuple removes the row.  Containers
        follow the source table, like :meth:`drop_bits`.
        """
        if not updates:
            return self
        if self._row_pos is None:
            self._row_pos = {r: i for i, r in enumerate(self.rows)}
        replaced = set()
        app_rows: List[Tuple] = []
        app_bits: List[int] = []
        app_wit_lens: List[int] = []
        app_row_wits: List[int] = []
        for row, masks in updates.items():
            pos = self._row_pos.get(row)
            if pos is not None:
                replaced.add(pos)
            if not masks:
                continue
            app_rows.append(row)
            app_row_wits.append(len(masks))
            for mask in masks:
                bits = list(iter_bits(mask))
                app_bits.extend(bits)
                app_wit_lens.append(len(bits))
        if (
            HAVE_NUMPY
            and isinstance(self.bit_ids, _np.ndarray)
            and isinstance(self.wit_offsets, _np.ndarray)
        ):
            return self._merge_rows_numpy(
                replaced, app_rows, app_bits, app_wit_lens, app_row_wits
            )
        return self._merge_rows_python(
            replaced, app_rows, app_bits, app_wit_lens, app_row_wits
        )

    def _merge_rows_numpy(
        self, replaced, app_rows, app_bits, app_wit_lens, app_row_wits
    ) -> "WitnessTable":
        row_offsets = _np.asarray(self.row_offsets, dtype=_np.int64)
        wit_offsets = _np.asarray(self.wit_offsets, dtype=_np.int64)
        bit_ids = _np.asarray(self.bit_ids, dtype=_np.int64)
        keep_row = _np.ones(len(self.rows), dtype=bool)
        if replaced:
            keep_row[_np.fromiter(replaced, dtype=_np.int64)] = False
        row_wits = row_offsets[1:] - row_offsets[:-1]
        wit_lens = wit_offsets[1:] - wit_offsets[:-1]
        keep_wit = _np.repeat(keep_row, row_wits)
        keep_bit = _np.repeat(keep_wit, wit_lens)
        kept_row_wits = row_wits[keep_row]
        kept_wit_lens = wit_lens[keep_wit]
        new_row_wits = _np.concatenate(
            [kept_row_wits, _np.asarray(app_row_wits, dtype=_np.int64)]
        )
        new_wit_lens = _np.concatenate(
            [kept_wit_lens, _np.asarray(app_wit_lens, dtype=_np.int64)]
        )
        new_bit_ids = _np.concatenate(
            [bit_ids[keep_bit], _np.asarray(app_bits, dtype=_np.int64)]
        )
        new_row_offsets = _np.zeros(len(new_row_wits) + 1, dtype=_np.int64)
        _np.cumsum(new_row_wits, out=new_row_offsets[1:])
        new_wit_offsets = _np.zeros(len(new_wit_lens) + 1, dtype=_np.int64)
        _np.cumsum(new_wit_lens, out=new_wit_offsets[1:])
        new_rows = tuple(
            itertools.compress(self.rows, keep_row.tolist())
        ) + tuple(app_rows)
        return WitnessTable(
            new_rows,
            new_row_offsets,
            new_wit_offsets,
            _np.ascontiguousarray(new_bit_ids),
        )

    def _merge_rows_python(
        self, replaced, app_rows, app_bits, app_wit_lens, app_row_wits
    ) -> "WitnessTable":
        row_offsets = _as_int_list(self.row_offsets)
        wit_offsets = _as_int_list(self.wit_offsets)
        bit_ids = _as_int_list(self.bit_ids)
        new_rows: List[Tuple] = []
        new_row_offsets: List[int] = [0]
        new_wit_offsets: List[int] = [0]
        new_bit_ids: List[int] = []
        for i, row in enumerate(self.rows):
            if i in replaced:
                continue
            for w in range(row_offsets[i], row_offsets[i + 1]):
                new_bit_ids.extend(bit_ids[wit_offsets[w] : wit_offsets[w + 1]])
                new_wit_offsets.append(len(new_bit_ids))
            new_rows.append(row)
            new_row_offsets.append(len(new_wit_offsets) - 1)
        cursor = 0
        bit_cursor = 0
        for row, nwits in zip(app_rows, app_row_wits):
            for _ in range(nwits):
                span = app_wit_lens[cursor]
                new_bit_ids.extend(app_bits[bit_cursor : bit_cursor + span])
                bit_cursor += span
                new_wit_offsets.append(len(new_bit_ids))
                cursor += 1
            new_rows.append(row)
            new_row_offsets.append(len(new_wit_offsets) - 1)
        return WitnessTable(
            new_rows, new_row_offsets, new_wit_offsets, new_bit_ids
        )

    def _drop_bits_python(self, doomed: "set") -> "WitnessTable":
        row_offsets = _as_int_list(self.row_offsets)
        wit_offsets = _as_int_list(self.wit_offsets)
        bit_ids = _as_int_list(self.bit_ids)
        new_rows: List[Tuple] = []
        new_row_offsets: List[int] = [0]
        new_wit_offsets: List[int] = [0]
        new_bit_ids: List[int] = []
        for i, row in enumerate(self.rows):
            kept = 0
            for w in range(row_offsets[i], row_offsets[i + 1]):
                span = bit_ids[wit_offsets[w] : wit_offsets[w + 1]]
                if any(b in doomed for b in span):
                    continue
                new_bit_ids.extend(span)
                new_wit_offsets.append(len(new_bit_ids))
                kept += 1
            if kept:
                new_rows.append(row)
                new_row_offsets.append(len(new_wit_offsets) - 1)
        if len(new_bit_ids) == len(bit_ids):
            return self
        return WitnessTable(
            new_rows, new_row_offsets, new_wit_offsets, new_bit_ids
        )

    def __repr__(self) -> str:
        return (
            f"WitnessTable({len(self.rows)} rows, {self.witness_count} "
            f"witnesses, {self.total_bits} bits)"
        )


def _universe(wits: "Tuple[Tuple[int, ...], ...]") -> "set":
    """The set of bit ids mentioned by any of ``wits``."""
    return set().union(*wits)


class SurvivalIndex:
    """The survival kernel and its derived state over a witness table.

    A view row survives deleting a set of source ids iff one of its
    minimal witnesses is disjoint from the set.  :meth:`destroyed` answers
    that for every row at once, visiting only the rows the inverted index
    says the deletion can reach.  The state is addressed by *slot*: slot
    ``i`` holds ``rows[i]`` and its witnesses as ascending bit-id tuples.
    Slots of a freshly built index are the table's row indices; a
    :meth:`patched` index keeps every slot it had (a row that lost all its
    witnesses keeps an empty one, reused if the row comes back) and
    appends new rows at the end.

    Instances are never mutated after construction, so a kernel being
    patched can keep serving reads from the old one.
    """

    __slots__ = ("rows", "wits", "touched", "_slot_of")

    def __init__(self, rows, wits, touched, slot_of=None):
        #: slot -> view row.
        self.rows = rows
        #: slot -> the row's witnesses, each an ascending bit-id tuple.
        self.wits = wits
        #: source bit id -> slots whose witness universe contains it.
        self.touched: "Dict[int, Tuple[int, ...]]" = touched
        #: Lazy row -> slot map, built by the first insert patch.
        self._slot_of: "Optional[Dict[Tuple, int]]" = slot_of

    @classmethod
    def build(cls, table: WitnessTable) -> "SurvivalIndex":
        """Index ``table``; slot ``i`` is ``table.rows[i]``."""
        row_offsets, wit_offsets, bit_ids = table.as_lists()
        per_wit = [
            tuple(bit_ids[a:b]) for a, b in zip(wit_offsets, wit_offsets[1:])
        ]
        wits = [
            tuple(per_wit[a:b]) for a, b in zip(row_offsets, row_offsets[1:])
        ]
        return cls(table.rows, wits, table.touched_rows())

    def destroyed(self, ids: "Sequence[int]") -> List[int]:
        """Slots of the rows whose every witness meets the deleted ``ids``.

        This is the pure-Python survival kernel: every single probe and
        every short vector of :class:`~repro.provenance.bitset.
        BitsetProvenance` answers through it.
        """
        touched = self.touched
        if len(ids) == 1:
            reached = touched.get(ids[0], ())
        else:
            reached = set()
            for bit in ids:
                hit = touched.get(bit)
                if hit:
                    reached.update(hit)
        if not reached:
            return []
        disjoint = frozenset(ids).isdisjoint
        wits = self.wits
        out = []
        for i in reached:
            for wit in wits[i]:
                if disjoint(wit):
                    break  # an untouched witness: the row survives
            else:
                out.append(i)
        return out

    def patched(
        self,
        deleted_ids: "Sequence[int]" = (),
        updates: "Optional[Dict[Tuple, Tuple[int, ...]]]" = None,
    ) -> "SurvivalIndex":
        """This index carried across a write, without a rebuild.

        Mirrors :meth:`WitnessTable.drop_bits` (every witness mentioning a
        deleted id dies) followed by :meth:`WitnessTable.merge_rows` (each
        row in ``updates`` now holds exactly the given canonical mask
        tuple; an empty tuple removes it).  Only rows the deletion reaches
        or the update names are touched.
        """
        rows = list(self.rows)
        wits = list(self.wits)
        touched = dict(self.touched)

        def rewrite(slot: int, new: "Tuple[Tuple[int, ...], ...]") -> None:
            old_u = _universe(wits[slot])
            new_u = _universe(new)
            for bit in old_u - new_u:
                hit = touched.get(bit)
                if hit is None:
                    continue  # a deleted id: its whole entry is gone
                kept = tuple(s for s in hit if s != slot)
                if kept:
                    touched[bit] = kept
                else:
                    del touched[bit]
            for bit in new_u - old_u:
                touched[bit] = touched.get(bit, ()) + (slot,)
            wits[slot] = new

        if deleted_ids:
            dead = frozenset(deleted_ids)
            reached = set()
            for bit in dead:
                reached.update(touched.pop(bit, ()))
            for slot in reached:
                kept = tuple(w for w in wits[slot] if dead.isdisjoint(w))
                if len(kept) != len(wits[slot]):
                    rewrite(slot, kept)
        slot_of = self._slot_of
        if updates:
            slot_of = (
                dict(slot_of)
                if slot_of is not None
                else {row: i for i, row in enumerate(rows)}
            )
            for row, masks in updates.items():
                slot = slot_of.get(row)
                if slot is None:
                    slot = slot_of[row] = len(rows)
                    rows.append(row)
                    wits.append(())
                rewrite(slot, tuple(tuple(iter_bits(mask)) for mask in masks))
        return SurvivalIndex(rows, wits, touched, slot_of)


#: Candidates per sparse product.  Bounds the (witness, candidate) matrix
#: a long vector materializes at once; answers are interned across chunks.
_VECTOR_CHUNK = 4096

#: ``scipy.sparse`` once imported, ``False`` when it (or numpy) is
#: missing, ``None`` before the first long vector asks.
_SPARSE = None


def scipy_sparse():
    """``scipy.sparse``, imported on first use; ``None`` without it.

    Importing scipy costs about 150 ms and megabytes of memory, and only
    long candidate vectors need it, so it is not imported at module load.
    """
    global _SPARSE
    if _SPARSE is None:
        _SPARSE = False
        if HAVE_NUMPY:
            try:
                from scipy import sparse
            except ImportError:
                pass
            else:
                _SPARSE = sparse
    return _SPARSE or None


class VectorSurvival:
    """The vectorized survival kernel over one witness table.

    A candidate vector becomes a sparse candidate × bit matrix ``D``.
    With ``B`` the bit × witness matrix, ``D @ B`` marks every (candidate,
    witness) pair that shares a bit; with ``R`` the witness × row matrix,
    ``(D @ B) @ R`` counts, per candidate, each row's witnesses it meets.
    A row is destroyed exactly when that count equals its witness count.
    Work is proportional to the nonzeros, the same sparsity
    :class:`SurvivalIndex` exploits, but runs in C.

    Answers are ascending row *indices* into the table's ``rows``, each
    distinct answer listed once.  Built by :meth:`build`, which returns
    ``None`` without numpy and scipy.
    """

    __slots__ = ("_sparse", "_B", "_R", "_row_nwit", "_nbits")

    def __init__(self, sparse, table: WitnessTable):
        self._sparse = sparse
        wit_offsets = _np.asarray(table.wit_offsets, dtype=_np.int64)
        bit_ids = _np.asarray(table.bit_ids, dtype=_np.int64)
        row_offsets = _np.asarray(table.row_offsets, dtype=_np.int64)
        nwit = len(wit_offsets) - 1
        # Ids past the table's largest belong to no witness: a candidate's
        # copies of them are dropped on encode.
        self._nbits = int(bit_ids.max()) + 1 if bit_ids.size else 1
        row_nwit = _np.diff(row_offsets)
        # bit -> the witnesses holding it, in witness order.
        wit_of_bit = _np.repeat(_np.arange(nwit), _np.diff(wit_offsets))
        by_bit = _np.argsort(bit_ids, kind="stable")
        bit_starts = _np.zeros(self._nbits + 1, dtype=_np.int64)
        _np.cumsum(
            _np.bincount(bit_ids, minlength=self._nbits), out=bit_starts[1:]
        )
        self._B = sparse.csr_matrix(
            (
                _np.ones(bit_ids.size, dtype=_np.int32),
                wit_of_bit[by_bit],
                bit_starts,
            ),
            shape=(self._nbits, nwit),
        )
        # witness -> its row: one entry per witness.
        self._R = sparse.csr_matrix(
            (
                _np.ones(nwit, dtype=_np.int32),
                _np.repeat(_np.arange(len(table)), row_nwit),
                _np.arange(nwit + 1),
            ),
            shape=(nwit, len(table)),
        )
        self._row_nwit = row_nwit.astype(_np.int32)

    @classmethod
    def build(cls, table: WitnessTable) -> "Optional[VectorSurvival]":
        """The kernel over ``table``, or ``None`` without numpy and scipy."""
        sparse = scipy_sparse()
        return None if sparse is None else cls(sparse, table)

    def destroyed_indices(
        self, vector: "Sequence[Sequence[int]]"
    ) -> "Tuple[List[Tuple[int, ...]], List[int]]":
        """The rows each candidate destroys, as ``(answers, picks)``.

        ``answers`` lists each distinct answer once, as ascending row
        indices; candidate ``j`` destroys ``answers[picks[j]]``.  Each
        candidate is a sequence of source ids.
        """
        answers: List[Tuple[int, ...]] = [()]
        position: Dict[Tuple[int, ...], int] = {(): 0}
        picks: List[int] = []
        for start in range(0, len(vector), _VECTOR_CHUNK):
            chunk = vector[start : start + _VECTOR_CHUNK]
            for answer in self._chunk(chunk):
                pos = position.get(answer)
                if pos is None:
                    pos = position[answer] = len(answers)
                    answers.append(answer)
                picks.append(pos)
        return answers, picks

    def _chunk(self, chunk) -> "Iterator[Tuple[int, ...]]":
        """Each candidate's destroyed row indices, in candidate order."""
        m = len(chunk)
        if not self._row_nwit.size:
            return iter([()] * m)
        lengths = _np.fromiter(map(len, chunk), dtype=_np.int64, count=m)
        bit_ids = _np.fromiter(
            itertools.chain.from_iterable(chunk),
            dtype=_np.int64,
            count=int(lengths.sum()),
        )
        known = bit_ids < self._nbits
        # Candidate j's known ids end at kept_ends[offsets[j + 1]].
        kept_ends = _np.zeros(bit_ids.size + 1, dtype=_np.int64)
        _np.cumsum(known, out=kept_ends[1:])
        offsets = _np.zeros(m + 1, dtype=_np.int64)
        _np.cumsum(lengths, out=offsets[1:])
        D = self._sparse.csr_matrix(
            (
                _np.ones(int(kept_ends[-1]), dtype=_np.int32),
                bit_ids[known],
                kept_ends[offsets],
            ),
            shape=(m, self._nbits),
        )
        P = D @ self._B  # (candidate, witness) shared-bit counts
        P.data.fill(1)  # indicator: the candidate meets the witness
        cnt = P @ self._R  # (candidate, row) met-witness counts
        cnt.sort_indices()  # ascending row indices per candidate
        keep = cnt.data == self._row_nwit[cnt.indices]
        ends = _np.zeros(keep.size + 1, dtype=_np.int64)
        _np.cumsum(keep, out=ends[1:])
        bounds = ends[cnt.indptr].tolist()
        rows = cnt.indices[keep].tolist()
        return (tuple(rows[a:b]) for a, b in zip(bounds, bounds[1:]))
