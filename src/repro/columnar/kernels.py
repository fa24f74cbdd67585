"""Columnar execution of compiled plans: vectorized scan/filter/join kernels.

:func:`columnar_rows` and :func:`columnar_annotated_table` walk the same physical
operator tree that :mod:`repro.algebra.plan` interprets over tuples, but
execute it over the dictionary-encoded columns of a
:class:`~repro.columnar.store.ColumnStore`:

* Scan residual predicates and column masks evaluate as vectorized
  comparisons over code/raw arrays instead of per-row Python closures.
* Hash joins build and probe on encoded key columns (stable argsort +
  searchsorted run expansion; codes are exact join keys because code
  equality is value equality).
* Witness annotation *stays in arrays*: scan witnesses are the row-id
  vectors themselves, Project/Union group-merge and HashJoin witness
  products run as sort/repeat/offset kernels over a padded bit matrix
  (:class:`_WitMat`), and the result crosses the API boundary as a CSR
  :class:`~repro.provenance.witness_table.WitnessTable` — per-row Python
  big-int masks exist only in the lazy compatibility view.

Exactness discipline: the vectorizer never *raises* and never *guesses* —
any predicate shape whose vectorized result could diverge from the tuple
path (non-self-equal values on an attr=attr equality, int/float lowerings
past 2**53, mixed-type order comparisons, unknown operand protocols,
constant pairs that may be incomparable) returns the ``FALLBACK`` sentinel
and the whole predicate is evaluated per row with the plan's own bound
closure, preserving short-circuit and error semantics bit for bit.

Batches are duplicate-free by construction (base relations are sets, joins
of duplicate-free inputs are duplicate-free, projections/unions dedup), so
no kernel re-deduplicates except where the tuple semantics do.

Every kernel here is numpy-only.  Without numpy no
:class:`~repro.columnar.store.ColumnStore` can be built, and the tuple
executor of :mod:`repro.algebra.plan` is the one pure-Python path.
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.algebra.plan import (
    CompiledPlan,
    FilterOp,
    HashJoinOp,
    PlanNode,
    ProjectOp,
    RenameOp,
    ScanOp,
    UnionOp,
)
from repro.algebra.predicates import (
    COMPARATORS,
    And,
    AttributeRef,
    Comparison,
    Constant,
    Not,
    Or,
    TruePredicate,
)
from repro.algebra.relation import EvaluationError, Row
from repro.columnar.store import FLOAT_EXACT_MAX, HAVE_NUMPY, ColumnStore, RelationColumns

if HAVE_NUMPY:
    import numpy as _np

__all__ = ["columnar_rows", "columnar_annotated_table"]

FALLBACK = object()  # sentinel: predicate not vectorizable, use the bound closure

_FLIP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class _Batch:
    """Intermediate columnar result: code columns + optional base-row view.

    ``base`` is ``(relation_columns, kept)`` when the batch's rows are exactly
    base-relation rows (scan without a column mask, possibly filtered /
    renamed); decode then reuses the interned source tuples instead of
    re-zipping columns.  ``kept`` is None for "all rows, in order".
    """

    __slots__ = ("cols", "n", "base", "wits")

    def __init__(self, cols, n, base=None, wits=None):
        self.cols = cols
        self.n = n
        self.base = base
        self.wits = wits  # annotated mode: a _WitMat


def _as_root(plan_or_node) -> PlanNode:
    if isinstance(plan_or_node, CompiledPlan):
        return plan_or_node.root
    return plan_or_node


def columnar_rows(plan_or_node, store: ColumnStore) -> "FrozenSet[Row]":
    """Rows of the plan, executed over ``store``; equals ``plan.rows(db)``."""
    batch = _rows(_as_root(plan_or_node), store)
    return frozenset(_decode(batch, store))


def columnar_annotated_table(plan_or_node, store: ColumnStore, index):
    """Annotated evaluation over ``store`` as a CSR ``WitnessTable``.

    Bit-identical to ``plan.annotated_rows(db, index)`` (its ``to_masks()``
    view) when ``index`` is shared.  No witness is ever materialized as a
    Python int: witnesses travel through the operator tree as the padded
    bit matrix of :class:`_WitMat` and land in the table's flat offset/bit
    arrays.
    """
    from repro.provenance.witness_table import WitnessTable

    batch = _annotated(_as_root(plan_or_node), store, index)
    wits = batch.wits
    return WitnessTable.from_padded(
        _decode(batch, store), wits.row_offsets, wits.bits, wits.lens
    )


# -- shared helpers ---------------------------------------------------------


def _indices(kept, n):
    """Materialize a kept-index array (identity when ``kept`` is None)."""
    if kept is not None:
        return kept
    return _np.arange(n, dtype=_np.int64)


def _gather(cols, kept):
    if kept is None:
        return list(cols)
    return [col[kept] for col in cols]


def _packed_keys(column_sets):
    """Pack parallel multi-column int64 code columns into single int64 keys.

    ``column_sets`` is a list of column lists that must share a key space
    (e.g. the left and right key columns of a join); position ``i`` of every
    set is packed with the same base.  Packing keeps the first column most
    significant, so sorting packed keys is lexicographic row order — the
    same order ``np.unique(..., axis=0)`` produces.  Returns one packed
    array per set, or ``None`` when the combined key space could overflow
    int64 (callers keep the axis=0 path).
    """
    arity = len(column_sets[0])
    bases = []
    span = 1
    for pos in range(arity):
        hi = 1
        for cols in column_sets:
            col = cols[pos]
            if col.shape[0]:
                top = int(col.max()) + 1
                if top > hi:
                    hi = top
        span *= hi
        if span >= 2**62:
            return None
        bases.append(hi)
    packed = []
    for cols in column_sets:
        key = _np.zeros(cols[0].shape[0], dtype=_np.int64)
        for pos in range(arity):
            key *= bases[pos]
            key += cols[pos]
        packed.append(key)
    return packed


def _unique(cols, n):
    """Dedup rows of ``cols``; returns ``(new_cols, new_n, inverse)``.

    ``inverse[i]`` is the output group of input row ``i``.  Output groups
    come in sorted-code order, which is deterministic; every consumer
    either ignores order (sets/dicts) or groups through ``inverse``.
    """
    if not cols:
        return [], 1 if n else 0, _np.zeros(n, dtype=_np.int64)
    if len(cols) == 1:
        uniq, inverse = _np.unique(cols[0], return_inverse=True)
        return [uniq], int(uniq.shape[0]), inverse.reshape(-1)
    packed = _packed_keys([cols])
    if packed is not None:
        # Sorting packed keys is lexicographic row order, so the unique
        # groups and inverse are identical to the axis=0 result but the
        # sort runs on native int64 instead of void rows.
        _, first, inverse = _np.unique(
            packed[0], return_index=True, return_inverse=True
        )
        new_cols = [col[first] for col in cols]
        return new_cols, int(first.shape[0]), inverse.reshape(-1)
    stacked = _np.column_stack(cols)
    uniq, inverse = _np.unique(stacked, axis=0, return_inverse=True)
    new_cols = [_np.ascontiguousarray(uniq[:, j]) for j in range(uniq.shape[1])]
    return new_cols, int(uniq.shape[0]), inverse.reshape(-1)


def _join_indices(left_keys, right_keys, nl, nr):
    """Matching row-index pairs for an equi-join on encoded key columns."""
    if not left_keys:  # no shared attributes: explicit cross product
        l_idx = _np.repeat(_np.arange(nl, dtype=_np.int64), nr)
        r_idx = _np.tile(_np.arange(nr, dtype=_np.int64), nl)
        return l_idx, r_idx
    if len(left_keys) == 1:
        left_group = left_keys[0]
        right_group = right_keys[0]
    else:
        packed = _packed_keys([left_keys, right_keys])
        if packed is not None:
            left_group, right_group = packed
        else:
            stacked = _np.concatenate(
                [_np.column_stack(left_keys), _np.column_stack(right_keys)]
            )
            _, inverse = _np.unique(stacked, axis=0, return_inverse=True)
            inverse = inverse.reshape(-1)
            left_group = inverse[:nl]
            right_group = inverse[nl:]
    order = _np.argsort(right_group, kind="stable")
    sorted_right = right_group[order]
    if nr == 0:
        empty = _np.empty(0, dtype=_np.int64)
        return empty, empty
    # One binary search over the (typically much smaller) unique-key array
    # replaces two searches over the full sorted side; run start/end offsets
    # recover the same [lo, hi) match ranges.
    run_starts = _np.flatnonzero(
        _np.concatenate(([True], sorted_right[1:] != sorted_right[:-1]))
    )
    uniq = sorted_right[run_starts]
    run_ends = _np.concatenate((run_starts[1:], [nr]))
    pos = _np.minimum(_np.searchsorted(uniq, left_group), uniq.shape[0] - 1)
    hit = uniq[pos] == left_group
    lo = _np.where(hit, run_starts[pos], 0)
    hi = _np.where(hit, run_ends[pos], 0)
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = _np.empty(0, dtype=_np.int64)
        return empty, empty
    l_idx = _np.repeat(_np.arange(nl, dtype=_np.int64), counts)
    starts = _np.repeat(lo, counts)
    run_start = _np.repeat(_np.cumsum(counts) - counts, counts)
    r_idx = order[starts + (_np.arange(total, dtype=_np.int64) - run_start)]
    return l_idx, r_idx


def _decode(batch: _Batch, store: ColumnStore) -> "List[Row]":
    """Materialize Python row tuples at the API boundary."""
    if batch.base is not None:
        columns, kept = batch.base
        if kept is None:
            return list(columns.rows)
        return [columns.rows[i] for i in kept.tolist()]
    if not batch.cols:
        return [()] * batch.n
    pool_arr = store.pool_array()
    # .tolist() unwraps the object arrays once in C; zipping Python
    # lists beats iterating ndarray views element by element.
    return list(zip(*(pool_arr[col].tolist() for col in batch.cols)))


# -- predicate vectorization ------------------------------------------------


def _vector_mask(pred, schema, cols, store, raw_of, nonreflexive_of, n):
    """Vectorized predicate mask: bool ndarray, None (all pass), or FALLBACK.

    Never raises: anything uncertain — including constant pairs that *would*
    raise per row — defers to the bound closure so error and short-circuit
    semantics match the tuple path exactly.
    """
    if isinstance(pred, TruePredicate):
        return None
    if isinstance(pred, Comparison):
        return _comparison_mask(pred, schema, cols, store, raw_of, nonreflexive_of, n)
    if isinstance(pred, And):
        left = _vector_mask(pred.left, schema, cols, store, raw_of, nonreflexive_of, n)
        if left is FALLBACK:
            return FALLBACK
        right = _vector_mask(
            pred.right, schema, cols, store, raw_of, nonreflexive_of, n
        )
        if right is FALLBACK:
            return FALLBACK
        if left is None:
            return right
        if right is None:
            return left
        return left & right
    if isinstance(pred, Or):
        left = _vector_mask(pred.left, schema, cols, store, raw_of, nonreflexive_of, n)
        if left is FALLBACK:
            return FALLBACK
        if left is None:
            return None
        right = _vector_mask(
            pred.right, schema, cols, store, raw_of, nonreflexive_of, n
        )
        if right is FALLBACK:
            return FALLBACK
        if right is None:
            return None
        return left | right
    if isinstance(pred, Not):
        inner = _vector_mask(
            pred.child, schema, cols, store, raw_of, nonreflexive_of, n
        )
        if inner is FALLBACK:
            return FALLBACK
        if inner is None:
            return _np.zeros(n, dtype=bool)
        return ~inner
    return FALLBACK  # unknown predicate subtype: honor its own protocol per row


def _broadcast(value: bool, n: int):
    if value:
        return None
    return _np.zeros(n, dtype=bool)


def _comparison_mask(cmp, schema, cols, store, raw_of, nonreflexive_of, n):
    left, op, right = cmp.left, cmp.op, cmp.right
    left_attr = isinstance(left, AttributeRef)
    right_attr = isinstance(right, AttributeRef)
    left_const = isinstance(left, Constant)
    right_const = isinstance(right, Constant)
    if left_const and right_const:
        try:
            return _broadcast(bool(COMPARATORS[op](left.literal, right.literal)), n)
        except Exception:
            return FALLBACK  # per-row evaluation raises iff a row reaches it
    if left_attr and right_attr:
        p1 = schema.index_of(left.attribute)
        p2 = schema.index_of(right.attribute)
        if op in ("=", "!="):
            if nonreflexive_of(p1) or nonreflexive_of(p2):
                return FALLBACK  # NaN == NaN is False but codes are equal
            mask = cols[p1] == cols[p2]
            return mask if op == "=" else ~mask
        if raw_of is None:
            return FALLBACK
        return _order_mask_attrs(raw_of(p1), raw_of(p2), op)
    if left_attr and right_const:
        return _attr_const_mask(
            schema.index_of(left.attribute), op, right.literal, cols, store, raw_of, n
        )
    if left_const and right_attr:
        return _attr_const_mask(
            schema.index_of(right.attribute),
            _FLIP[op],
            left.literal,
            cols,
            store,
            raw_of,
            n,
        )
    return FALLBACK  # unknown operand subtype: use its .value() protocol per row


def _attr_const_mask(pos, op, const, cols, store, raw_of, n):
    if op in ("=", "!="):
        try:
            reflexive = bool(const == const)
        except Exception:
            return FALLBACK
        if not reflexive:
            # value == NaN is False for every row; codes never merge with it.
            return _broadcast(op == "!=", n)
        code = store.code_of(const)
        if code is None:
            return _broadcast(op == "!=", n)
        mask = cols[pos] == code
        return mask if op == "=" else ~mask
    if raw_of is None:
        return FALLBACK
    raw = raw_of(pos)
    if raw is None:
        return FALLBACK
    kind, arr, meta = raw
    if kind == "str":
        if not isinstance(const, str):
            return FALLBACK  # tuple path raises EvaluationError per row
        return COMPARATORS[op](arr, const)
    if isinstance(const, bool):
        const = int(const)
    if kind == "int":
        if isinstance(const, int):
            if -(2**63) <= const < 2**63:
                return COMPARATORS[op](arr, const)
            return FALLBACK
        if isinstance(const, float):
            if meta <= FLOAT_EXACT_MAX:
                return COMPARATORS[op](arr, const)
            return FALLBACK
        return FALLBACK
    if kind == "float":
        if isinstance(const, float):
            return COMPARATORS[op](arr, const)
        if isinstance(const, int):
            if -FLOAT_EXACT_MAX <= const <= FLOAT_EXACT_MAX:
                return COMPARATORS[op](arr, const)
            return FALLBACK
        return FALLBACK
    return FALLBACK


def _order_mask_attrs(raw1, raw2, op):
    if raw1 is None or raw2 is None:
        return FALLBACK
    kind1, arr1, meta1 = raw1
    kind2, arr2, meta2 = raw2
    if kind1 == "str" or kind2 == "str":
        if kind1 == "str" and kind2 == "str":
            return COMPARATORS[op](arr1, arr2)
        return FALLBACK
    if kind1 == "int" and kind2 == "int":
        return COMPARATORS[op](arr1, arr2)
    # numeric mix through float64: exact only while int magnitudes fit
    if meta1 is not None and meta1 > FLOAT_EXACT_MAX:
        return FALLBACK
    if meta2 is not None and meta2 > FLOAT_EXACT_MAX:
        return FALLBACK
    return COMPARATORS[op](arr1, arr2)


# -- scan ------------------------------------------------------------------


def _scan_columns(node: ScanOp, store: ColumnStore):
    columns = store.relation_columns(node.name)
    if columns.schema != node.base_schema:
        raise EvaluationError(
            f"compiled plan is stale: relation {node.name!r} has schema "
            f"{columns.schema.attributes}, plan was compiled against "
            f"{node.base_schema.attributes}"
        )
    return columns


def _scan_kept(node: ScanOp, columns: RelationColumns, store: ColumnStore):
    """Kept base-row indices after the residual predicate (None = all)."""
    if node.test is None or columns.n == 0:
        return None
    mask = _vector_mask(
        node.predicate,
        node.base_schema,
        columns.codes,
        store,
        columns.raw,
        lambda pos: columns.nonreflexive[pos],
        columns.n,
    )
    if mask is None:
        return None
    if mask is not FALLBACK:
        return _np.flatnonzero(mask)
    test = node.test
    return _np.asarray(
        [i for i, row in enumerate(columns.rows) if test(row)], dtype=_np.int64
    )


def _rows(node: PlanNode, store: ColumnStore) -> _Batch:
    if isinstance(node, ScanOp):
        columns = _scan_columns(node, store)
        kept = _scan_kept(node, columns, store)
        n = columns.n if kept is None else len(kept)
        if node.columns is None:
            return _Batch(_gather(columns.codes, kept), n, (columns, kept))
        idx = _indices(kept, columns.n)
        cols, n, _ = _unique([columns.codes[p][idx] for p in node.columns], n)
        return _Batch(cols, n)
    if isinstance(node, FilterOp):
        child = _rows(node.child, store)
        keep = _filter_positions(node, child, store)
        if keep is None:
            return child
        return _Batch(_gather(child.cols, keep), len(keep), _filtered_base(child, keep))
    if isinstance(node, ProjectOp):
        child = _rows(node.child, store)
        cols, n, _ = _unique([child.cols[p] for p in node.positions], child.n)
        return _Batch(cols, n)
    if isinstance(node, HashJoinOp):
        left = _rows(node.left, store)
        right = _rows(node.right, store)
        return _join_batch(node, left, right)[0]
    if isinstance(node, UnionOp):
        left = _rows(node.left, store)
        right = _rows(node.right, store)
        cols, n, _ = _unique(_union_cols(node, left, right), left.n + right.n)
        return _Batch(cols, n)
    if isinstance(node, RenameOp):
        return _rows(node.child, store)
    raise EvaluationError(f"columnar executor cannot run plan node {type(node).__name__}")


def _filtered_base(child: _Batch, keep):
    """The base-row view of ``child`` narrowed to ``keep`` (or None)."""
    if child.base is None:
        return None
    columns, kept = child.base
    return (columns, _indices(kept, columns.n)[keep])


def _join_batch(node: HashJoinOp, left: _Batch, right: _Batch):
    """The joined code columns as a batch, plus the matching index pairs."""
    l_idx, r_idx = _join_indices(
        [left.cols[p] for p in node.left_key_positions],
        [right.cols[p] for p in node.right_key_positions],
        left.n,
        right.n,
    )
    cols = [col[l_idx] for col in left.cols]
    cols += [right.cols[p][r_idx] for p in node.right_extra_positions]
    return _Batch(cols, l_idx.shape[0]), l_idx, r_idx


def _union_cols(node: UnionOp, left: _Batch, right: _Batch):
    """Both sides' code columns stacked, the right reordered to the left."""
    reorder = node.reorder
    right_cols = right.cols if reorder is None else [right.cols[p] for p in reorder]
    return [_np.concatenate([lcol, rcol]) for lcol, rcol in zip(left.cols, right_cols)]


def _filter_positions(node: FilterOp, child: _Batch, store: ColumnStore):
    """Kept positions in ``child`` after the filter predicate (None = all)."""
    if child.n == 0:
        return None
    raw_of = None
    nonreflexive_of = lambda pos: store.pool_has_nonreflexive
    if child.base is not None:
        columns, kept = child.base
        if kept is None:
            raw_of = columns.raw
            nonreflexive_of = lambda pos: columns.nonreflexive[pos]
    mask = _vector_mask(
        node.predicate,
        node.schema,
        child.cols,
        store,
        raw_of,
        nonreflexive_of,
        child.n,
    )
    if mask is None:
        return None
    if mask is FALLBACK:
        test = node.test
        keep = _np.asarray(
            [i for i, row in enumerate(_decode(child, store)) if test(row)],
            dtype=_np.int64,
        )
    else:
        keep = _np.flatnonzero(mask)
    return None if len(keep) == child.n else keep


# -- annotated (witness) mode ----------------------------------------------


def _minimize():
    from repro.provenance.bitset import minimize_masks

    return minimize_masks


def _scan_ids(node, columns, kept, store, index):
    """SourceIndex ids of the kept base rows, honoring the caller's index.

    Under a foreign index the whole scan is interned in one batch (and the
    id vector cached per ``(store, index, relation)`` by
    :meth:`ColumnStore.foreign_row_ids`) instead of re-interning
    ``(name, row)`` one row at a time on every evaluation.
    """
    ids = (
        columns.row_ids
        if index is store.index
        else store.foreign_row_ids(node.name, index)
    )
    if kept is None:
        return ids
    return ids[kept]


# -- array-native witness kernels --------------------------------------------


class _WitMat:
    """Witness sets of a batch as arrays (the numpy annotated carrier).

    ``row_offsets`` (``n + 1``) maps batch row ``i`` to the witness span
    ``[row_offsets[i], row_offsets[i+1])``; ``bits`` is ``(nwits, width)``
    int64 with each witness's source-id bits sorted **descending** and
    ``-1`` padding on the right; ``lens`` counts the real bits.  Width is
    bounded by the number of scan leaves of the plan, so the dense padding
    stays small.

    Invariant (kept by every kernel): each row's span is exactly what
    ``minimize_masks`` would return for its witness set — deduplicated,
    inclusion-minimal, sorted by ``(popcount, mask value)``.  Descending
    bit order makes lexicographic row comparison equal to int-mask value
    comparison among equal-length witnesses, which is what lets the sort
    kernels reproduce the tuple executor's canonical order without ever
    building the ints.
    """

    __slots__ = ("row_offsets", "bits", "lens")

    def __init__(self, row_offsets, bits, lens):
        self.row_offsets = row_offsets
        self.bits = bits
        self.lens = lens


def _wit_scan(ids) -> _WitMat:
    """One single-bit witness per scanned row: the id vector, as-is."""
    n = ids.shape[0]
    return _WitMat(
        _np.arange(n + 1, dtype=_np.int64),
        _np.ascontiguousarray(ids, dtype=_np.int64).reshape(n, 1),
        _np.ones(n, dtype=_np.int64),
    )


def _expand_spans(starts, counts):
    """Flat indices covering ``[starts[i], starts[i] + counts[i])`` runs."""
    total = int(counts.sum())
    if total == 0:
        return _np.empty(0, dtype=_np.int64)
    run_start = _np.repeat(_np.cumsum(counts) - counts, counts)
    return _np.repeat(starts, counts) + (
        _np.arange(total, dtype=_np.int64) - run_start
    )


def _wit_take(wits: _WitMat, idx) -> _WitMat:
    """Witness spans of the selected batch rows, in selection order."""
    starts = wits.row_offsets[idx]
    counts = wits.row_offsets[idx + 1] - starts
    sel = _expand_spans(starts, counts)
    offsets = _np.zeros(len(idx) + 1, dtype=_np.int64)
    _np.cumsum(counts, out=offsets[1:])
    return _WitMat(offsets, wits.bits[sel], wits.lens[sel])


def _pad_width(bits, width):
    if bits.shape[1] == width:
        return bits
    pad = _np.full((bits.shape[0], width - bits.shape[1]), -1, dtype=_np.int64)
    return _np.concatenate([bits, pad], axis=1)


def _wit_concat(a: _WitMat, b: _WitMat) -> _WitMat:
    """Stack two batches' witnesses (rows of ``a`` then rows of ``b``)."""
    width = max(a.bits.shape[1], b.bits.shape[1])
    return _WitMat(
        _np.concatenate([a.row_offsets, a.row_offsets[-1] + b.row_offsets[1:]]),
        _np.concatenate([_pad_width(a.bits, width), _pad_width(b.bits, width)]),
        _np.concatenate([a.lens, b.lens]),
    )


def _wit_group(wits: _WitMat, inverse, n_groups, minimize) -> _WitMat:
    """Re-target each witness to its row's output group and re-canonicalize.

    The tuple path merges the group's witness *sets* and minimizes; here
    the merge is just relabeling each witness with ``inverse[row]`` — the
    canonical sort/dedup/absorb pass does the rest.
    """
    counts = _np.diff(wits.row_offsets)
    wit_row = _np.repeat(_np.arange(counts.shape[0], dtype=_np.int64), counts)
    targets = _np.asarray(inverse, dtype=_np.int64)[wit_row]
    return _wit_canonical(targets, wits.bits, wits.lens, n_groups, minimize)


def _wit_join(lwits: _WitMat, rwits: _WitMat, l_idx, r_idx, minimize) -> _WitMat:
    """Per-pair witness products: every (left witness, right witness) union.

    The product is laid out by repeating/offsetting the two sides' witness
    runs; each product's bit union is the sorted concatenation of the two
    padded rows with duplicate bits knocked out (self-joins intern the same
    source ids on both sides).  Join outputs are duplicate-free, so the
    canonical pass per *pair* matches the tuple path's per-pair
    ``minimize({lm | rm ...})`` exactly.
    """
    npairs = l_idx.shape[0]
    lcnt = _np.diff(lwits.row_offsets)
    rcnt = _np.diff(rwits.row_offsets)
    cl = lcnt[l_idx]
    cr = rcnt[r_idx]
    products = cl * cr
    total = int(products.sum())
    width = max(lwits.bits.shape[1] + rwits.bits.shape[1], 1)
    if total == 0:
        return _WitMat(
            _np.zeros(npairs + 1, dtype=_np.int64),
            _np.empty((0, width), dtype=_np.int64),
            _np.empty(0, dtype=_np.int64),
        )
    run_start = _np.repeat(_np.cumsum(products) - products, products)
    t = _np.arange(total, dtype=_np.int64) - run_start
    cr_rep = _np.repeat(cr, products)
    l_wit = _np.repeat(lwits.row_offsets[l_idx], products) + t // cr_rep
    r_wit = _np.repeat(rwits.row_offsets[r_idx], products) + t % cr_rep
    merged = _np.concatenate([lwits.bits[l_wit], rwits.bits[r_wit]], axis=1)
    merged = _np.sort(merged, axis=1)[:, ::-1]  # descending, -1 pads last
    if merged.shape[1] > 1:
        dup = (merged[:, 1:] == merged[:, :-1]) & (merged[:, 1:] != -1)
        if dup.any():
            merged[:, 1:][dup] = -1
            merged = _np.sort(merged, axis=1)[:, ::-1]
    merged = _np.ascontiguousarray(merged)
    lens = (merged != -1).sum(axis=1).astype(_np.int64)
    pair_ids = _np.repeat(_np.arange(npairs, dtype=_np.int64), products)
    return _wit_canonical(pair_ids, merged, lens, npairs, minimize)


def _bits_desc(mask: int) -> "List[int]":
    """Descending set-bit ids of an int mask."""
    from repro.provenance.interning import iter_bits

    out = list(iter_bits(mask))
    out.reverse()
    return out


def _wit_canonical(row_ids, bits, lens, n_rows, minimize) -> _WitMat:
    """Sort/dedup witnesses per row into ``minimize_masks`` canonical order.

    One lexsort on ``(row, len, descending bits)`` yields, per row, the
    deduplicable ``(popcount, mask value)`` order.  Rows whose witnesses
    all share one length are finished by the adjacent-duplicate knockout —
    equal popcounts can only absorb when equal, so dedup *is* minimization
    there.  Only rows mixing witness lengths (possible after joins with
    overlapping sides, or unions of different-depth branches) can have
    proper subsets; those few fall back to the exact ``minimize_masks`` on
    small per-witness ints and are spliced back in.
    """
    nwit = bits.shape[0]
    offsets = _np.zeros(n_rows + 1, dtype=_np.int64)
    if nwit == 0:
        return _WitMat(offsets, bits.reshape(0, max(bits.shape[1], 1)), lens)
    width = bits.shape[1]
    keys = tuple(bits[:, j] for j in range(width - 1, -1, -1)) + (lens, row_ids)
    order = _np.lexsort(keys)
    row_s = _np.asarray(row_ids, dtype=_np.int64)[order]
    len_s = lens[order]
    bit_s = bits[order]
    if nwit > 1:
        dup = (row_s[1:] == row_s[:-1]) & (bit_s[1:] == bit_s[:-1]).all(axis=1)
        if dup.any():
            keep = _np.concatenate(([True], ~dup))
            row_s = row_s[keep]
            len_s = len_s[keep]
            bit_s = bit_s[keep]
    counts = _np.bincount(row_s, minlength=n_rows)
    _np.cumsum(counts, out=offsets[1:])
    starts = offsets[:-1]
    ends = offsets[1:]
    nonempty = counts > 0
    first_len = _np.zeros(n_rows, dtype=_np.int64)
    last_len = _np.zeros(n_rows, dtype=_np.int64)
    first_len[nonempty] = len_s[starts[nonempty]]
    last_len[nonempty] = len_s[ends[nonempty] - 1]
    mixed = _np.flatnonzero(first_len != last_len)
    if mixed.shape[0] == 0:
        new_width = max(int(len_s.max()) if len_s.shape[0] else 1, 1)
        return _WitMat(offsets, bit_s[:, :new_width], len_s)
    # Exact minimization for the (rare) rows with mixed witness lengths.
    keep_wit = _np.ones(row_s.shape[0], dtype=bool)
    rep_rows: "List[int]" = []
    rep_bits: "List[List[int]]" = []
    rep_lens: "List[int]" = []
    for r in mixed.tolist():
        span_start, span_end = int(offsets[r]), int(offsets[r + 1])
        masks = set()
        for w in range(span_start, span_end):
            mask = 0
            for bit in bit_s[w, : int(len_s[w])].tolist():
                mask |= 1 << bit
            masks.add(mask)
        keep_wit[span_start:span_end] = False
        for mask in minimize(masks):
            ids = _bits_desc(mask)
            rep_rows.append(r)
            rep_bits.append(ids + [-1] * (width - len(ids)))
            rep_lens.append(len(ids))
    row_f = _np.concatenate([row_s[keep_wit], _np.asarray(rep_rows, dtype=_np.int64)])
    bit_f = _np.concatenate(
        [bit_s[keep_wit], _np.asarray(rep_bits, dtype=_np.int64).reshape(-1, width)]
    )
    len_f = _np.concatenate([len_s[keep_wit], _np.asarray(rep_lens, dtype=_np.int64)])
    # Mixed rows keep no survivors, so a stable row sort leaves each row's
    # replacement block — already in canonical order — intact.
    order2 = _np.argsort(row_f, kind="stable")
    row_g = row_f[order2]
    bit_g = bit_f[order2]
    len_g = len_f[order2]
    counts = _np.bincount(row_g, minlength=n_rows)
    offsets = _np.zeros(n_rows + 1, dtype=_np.int64)
    _np.cumsum(counts, out=offsets[1:])
    new_width = max(int(len_g.max()) if len_g.shape[0] else 1, 1)
    return _WitMat(offsets, bit_g[:, :new_width], len_g)


def _annotated(node: PlanNode, store: ColumnStore, index) -> _Batch:
    if isinstance(node, ScanOp):
        columns = _scan_columns(node, store)
        kept = _scan_kept(node, columns, store)
        wits = _wit_scan(_scan_ids(node, columns, kept, store, index))
        n = columns.n if kept is None else len(kept)
        if node.columns is None:
            return _Batch(_gather(columns.codes, kept), n, (columns, kept), wits)
        idx = _indices(kept, columns.n)
        cols, n_out, inverse = _unique([columns.codes[p][idx] for p in node.columns], n)
        return _Batch(cols, n_out, None, _wit_group(wits, inverse, n_out, _minimize()))
    if isinstance(node, FilterOp):
        child = _annotated(node.child, store, index)
        keep = _filter_positions(node, child, store)
        if keep is None:
            return child
        return _Batch(
            _gather(child.cols, keep),
            len(keep),
            _filtered_base(child, keep),
            _wit_take(child.wits, keep),
        )
    if isinstance(node, ProjectOp):
        child = _annotated(node.child, store, index)
        cols, n, inverse = _unique([child.cols[p] for p in node.positions], child.n)
        return _Batch(cols, n, None, _wit_group(child.wits, inverse, n, _minimize()))
    if isinstance(node, HashJoinOp):
        left = _annotated(node.left, store, index)
        right = _annotated(node.right, store, index)
        batch, l_idx, r_idx = _join_batch(node, left, right)
        batch.wits = _wit_join(left.wits, right.wits, l_idx, r_idx, _minimize())
        return batch
    if isinstance(node, UnionOp):
        left = _annotated(node.left, store, index)
        right = _annotated(node.right, store, index)
        cols, n, inverse = _unique(_union_cols(node, left, right), left.n + right.n)
        wits = _wit_group(_wit_concat(left.wits, right.wits), inverse, n, _minimize())
        return _Batch(cols, n, None, wits)
    if isinstance(node, RenameOp):
        return _annotated(node.child, store, index)
    raise EvaluationError(f"columnar executor cannot run plan node {type(node).__name__}")
