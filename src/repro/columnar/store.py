"""Dictionary-encoded columnar mirror of a :class:`~repro.algebra.relation.Database`.

``ColumnStore`` lowers every relation of a database into columns of dense
integer *codes*: each distinct Python value across the database is interned
once into a global value pool, and each attribute becomes one ``int64`` array
of pool codes.  Alongside the codes every relation keeps a
row→:class:`~repro.provenance.interning.SourceIndex` id vector, so witness
annotation can emit source-id bits straight from the vector without
touching per-row tuples.

The frozenset-based ``Relation`` stays the construction source of truth: the
store is a read-only acceleration structure built from ``sorted_rows()`` (the
same deterministic order ``SourceIndex.from_database`` uses, so a store that
owns its index produces bit-identical witness masks).

Code equality is value equality: the pool is a Python dict, so ``1``/``1.0``/
``True`` collapse to one code exactly as they collapse inside a frozenset of
rows.  The one place dict semantics and ``==`` diverge is non-self-equal
values (NaN): those are flagged per column (``nonreflexive``) so the kernels
fall back to per-row evaluation for the affected comparisons.

The store exists only where numpy imports: constructing one without numpy
raises :class:`~repro.errors.ReproError`.  A host without numpy serves
every query on the tuple plan executor (:mod:`repro.algebra.plan`), which
is the faster pure-Python path, so there is no pure-Python columnar twin.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.algebra.relation import Database, EvaluationError, Relation
from repro.provenance.interning import SourceIndex

try:  # optional: without numpy there is no column store
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via the no-numpy CI leg
    _np = None
    HAVE_NUMPY = False

__all__ = [
    "ColumnStore",
    "RelationColumns",
    "HAVE_NUMPY",
    "cached_column_store",
]

# Integers above 2**53 are not exactly representable as float64, so order
# comparisons that would lower an int column through float64 must fall back.
FLOAT_EXACT_MAX = 2**53

#: Fraction of a relation changed (tombstones + appends over base rows) at
#: or above which :meth:`ColumnStore.apply_delta` relowers the relation's
#: columns from scratch instead of filter-and-append: past this point the
#: copy the filter pays approaches the full relower anyway, and compaction
#: restores the dense sorted layout.
COMPACT_FRACTION = 0.25


class RelationColumns:
    """One relation lowered to columns: codes, row ids, and the source rows."""

    __slots__ = ("name", "schema", "rows", "codes", "row_ids", "nonreflexive", "_raw")

    def __init__(self, name, schema, rows, codes, row_ids, nonreflexive):
        self.name = name
        self.schema = schema
        self.rows = rows  # tuple of row tuples, in sorted_rows() order
        self.codes = codes  # per attribute: int64 ndarray of pool codes
        self.row_ids = row_ids  # aligned SourceIndex ids, int64 ndarray
        self.nonreflexive = nonreflexive  # per attribute: column holds a NaN-like
        self._raw = {}

    @property
    def n(self) -> int:
        return len(self.rows)

    def raw(self, pos: int):
        """Typed raw array for order comparisons, or None when not lowerable.

        Returns ``(kind, array, meta)`` with kind ``"int"`` (int64, exact),
        ``"float"`` (float64; ``meta`` is the largest int magnitude seen, all
        ints guaranteed ≤ 2**53 so the lowering is exact), or ``"str"``
        (numpy unicode — elementwise comparison is code-point order, same as
        Python).  Mixed or non-scalar columns return None and the caller must
        fall back to per-row evaluation.
        """
        if pos in self._raw:
            return self._raw[pos]
        result = self._build_raw(pos)
        self._raw[pos] = result
        return result

    def _build_raw(self, pos: int):
        if not self.rows:
            return None
        is_int = is_num = is_str = True
        max_abs_int = 0
        for row in self.rows:
            value = row[pos]
            if isinstance(value, bool):
                is_str = False
                continue
            if isinstance(value, int):
                is_str = False
                magnitude = -value if value < 0 else value
                if magnitude > max_abs_int:
                    max_abs_int = magnitude
                continue
            is_int = False
            if isinstance(value, float):
                is_str = False
                continue
            is_num = False
            if not isinstance(value, str):
                return None
        count = len(self.rows)
        if is_int and max_abs_int < 2**63:
            arr = _np.fromiter((int(row[pos]) for row in self.rows), _np.int64, count)
            return ("int", arr, max_abs_int)
        if is_num and max_abs_int <= FLOAT_EXACT_MAX:
            arr = _np.fromiter(
                (float(row[pos]) for row in self.rows), _np.float64, count
            )
            return ("float", arr, max_abs_int)
        if is_str:
            return ("str", _np.array([row[pos] for row in self.rows]), None)
        return None


class ColumnStore:
    """Columnar, dictionary-encoded view of a whole database.

    Immutable after construction; safe to share across threads (the backing
    ``SourceIndex`` is fully populated at build time, so later lookups are
    read-only).  When ``index`` is omitted the store owns a fresh index built
    in the same deterministic order as ``SourceIndex.from_database`` — only
    index-owning stores are spillable, because the index can be rebuilt
    exactly by re-interning on attach.  Needs numpy: without it the
    constructor raises :class:`~repro.errors.ReproError`.
    """

    __slots__ = (
        "_db",
        "_index",
        "_own_index",
        "_relations",
        "_pool",
        "_code_of",
        "_pool_nonreflexive",
        "_pool_obj",
        "_foreign_ids",
        "_pending",
        "_pending_lock",
    )

    def __init__(self, db: Database, index: "Optional[SourceIndex]" = None):
        if not HAVE_NUMPY:
            raise ReproError(
                "ColumnStore needs numpy; without it queries run on the "
                "tuple plan executor"
            )
        own_index = index is None
        if own_index:
            index = SourceIndex()
        self._db = db
        self._index = index
        self._own_index = own_index
        self._pool: List[object] = []
        self._code_of: Dict[object, int] = {}
        self._pool_nonreflexive: set = set()
        self._pool_obj = None
        self._foreign_ids: Dict[tuple, tuple] = {}
        #: name -> (base columns, tombstoned rows, appended rows): relations
        #: an apply_delta changed, lowered lazily on first touch.
        self._pending: Dict[str, tuple] = {}
        self._pending_lock = threading.Lock()
        self._relations: Dict[str, RelationColumns] = {}
        for name in db:
            self._lower_relation(name, db[name])

    def _encode_rows(self, name: str, rows, nonreflexive: "List[bool]"):
        """Per-attribute code lists and source ids of ``name``'s ``rows``.

        Grows the value pool on a value's first sight and sets
        ``nonreflexive[position]`` for every column holding a NaN-like.
        """
        pool = self._pool
        code_of = self._code_of
        nonreflexive_codes = self._pool_nonreflexive
        intern = self._index.intern
        codes: List[List[int]] = [[] for _ in nonreflexive]
        row_ids: List[int] = []
        for row in rows:
            row_ids.append(intern((name, row)))
            for position, value in enumerate(row):
                code = code_of.get(value)
                if code is None:
                    code = len(pool)
                    code_of[value] = code
                    pool.append(value)
                    try:
                        if value != value:
                            nonreflexive_codes.add(code)
                    except Exception:
                        nonreflexive_codes.add(code)
                if code in nonreflexive_codes:
                    nonreflexive[position] = True
                codes[position].append(code)
        return codes, row_ids

    def _lower_relation(self, name: str, relation: Relation) -> None:
        rows = relation.sorted_rows()
        nonreflexive = [False] * relation.schema.arity
        codes, row_ids = self._encode_rows(name, rows, nonreflexive)
        self._relations[name] = RelationColumns(
            name,
            relation.schema,
            tuple(rows),
            [_np.asarray(col, dtype=_np.int64) for col in codes],
            _np.asarray(row_ids, dtype=_np.int64),
            nonreflexive,
        )

    # -- lookups -----------------------------------------------------------

    @property
    def index(self) -> SourceIndex:
        return self._index

    @property
    def owns_index(self) -> bool:
        return self._own_index

    @property
    def pool_has_nonreflexive(self) -> bool:
        return bool(self._pool_nonreflexive)

    def matches(self, db: Database) -> bool:
        return self._db is db

    def relation_columns(self, name: str) -> RelationColumns:
        columns = self._relations.get(name)
        if columns is not None:
            return columns
        if name in self._pending:
            return self._materialize(name)
        raise EvaluationError(
            f"database has no relation named {name!r}; "
            f"known relations: {sorted(set(self._relations) | set(self._pending))}"
        )

    def code_of(self, value) -> "Optional[int]":
        """Pool code for ``value``, or None when absent (or unhashable)."""
        try:
            return self._code_of.get(value)
        except TypeError:
            return None

    def foreign_row_ids(self, name: str, index):
        """Row ids of ``name`` under a *foreign* ``SourceIndex``, batch-interned.

        Evaluating under an index the store does not own (a caller-shared
        interner) used to re-intern ``(name, row)`` one row at a time on
        every annotated evaluation; here the whole relation is interned once
        and the id vector cached per ``(index, relation)``.  The cache entry
        pins the index object so identity-keyed hits can never alias a
        different interner that reused the same id().
        """
        key = (id(index), name)
        hit = self._foreign_ids.get(key)
        if hit is not None and hit[0] is index:
            return hit[1]
        columns = self.relation_columns(name)
        intern = index.intern
        ids = _np.asarray([intern((name, row)) for row in columns.rows], dtype=_np.int64)
        self._foreign_ids[key] = (index, ids)
        return ids

    def pool_array(self):
        """The value pool as an object ndarray (cached)."""
        if self._pool_obj is None:
            arr = _np.empty(len(self._pool), dtype=object)
            for position, value in enumerate(self._pool):
                arr[position] = value
            self._pool_obj = arr
        return self._pool_obj

    def memory_bytes(self) -> int:
        """Approximate bytes held by the encoded columns and id vectors."""
        return sum(
            int(col.nbytes)
            for columns in self._relations.values()
            for col in list(columns.codes) + [columns.row_ids]
        )

    # -- incremental maintenance (the write path) ---------------------------

    def apply_delta(
        self,
        new_db: Database,
        deleted_by_name: "Mapping[str, Iterable[tuple]]" = (),
        inserted_by_name: "Mapping[str, Iterable[tuple]]" = (),
    ) -> "ColumnStore":
        """A new store over ``new_db``, sharing this store's pool and index.

        ``deleted_by_name`` / ``inserted_by_name`` map relation names to the
        delta's **net** removed/added rows.  Unchanged relations share their
        :class:`RelationColumns` objects outright; changed relations go into
        an append/tombstone *pending* form lowered lazily on first touch —
        filter the base columns by the tombstones and append freshly encoded
        rows, or relower from scratch once the changed fraction reaches
        :data:`COMPACT_FRACTION`.  The value pool, code table, and
        :class:`SourceIndex` are shared (all append-only), so masks and
        codes from both stores stay mutually consistent; the new store does
        not own the index and is therefore never spillable (a re-interning
        replay could not reproduce the appended ids).
        """
        store = ColumnStore.__new__(ColumnStore)
        store._db = new_db
        store._index = self._index
        store._own_index = False
        store._pool = self._pool
        store._code_of = self._code_of
        store._pool_nonreflexive = self._pool_nonreflexive
        store._pool_obj = None
        store._foreign_ids = {}
        store._pending = {}
        store._pending_lock = threading.Lock()
        store._relations = {}
        deleted = {name: frozenset(map(tuple, rows)) for name, rows in dict(deleted_by_name).items()}
        inserted = {name: tuple(sorted(map(tuple, rows), key=repr)) for name, rows in dict(inserted_by_name).items()}
        changed = {n for n, rows in deleted.items() if rows}
        changed.update(n for n, rows in inserted.items() if rows)
        for name in new_db:
            if name not in changed:
                base = self._relations.get(name)
                if base is not None:
                    store._relations[name] = base
                elif name in self._pending:
                    # Still lazy upstream: copy the pending entry — both
                    # stores materialize independently but identically
                    # (interning and pool growth are idempotent).
                    store._pending[name] = self._pending[name]
                else:
                    store._pending[name] = (None, frozenset(), ())
                continue
            base = self._relations.get(name)
            if base is None and name in self._pending:
                # Patch of a patch: materialize the older delta first so
                # tombstones/appends never chain.
                base = self.relation_columns(name)
            store._pending[name] = (
                base,
                deleted.get(name, frozenset()),
                inserted.get(name, ()),
            )
        return store

    def _materialize(self, name: str) -> RelationColumns:
        """Lower a pending relation, once, under the store's pending lock."""
        with self._pending_lock:
            columns = self._relations.get(name)
            if columns is not None:
                return columns
            base, tombstones, appends = self._pending[name]
            relation = self._db[name]
            changed = len(tombstones) + len(appends)
            if base is None or changed >= COMPACT_FRACTION * max(1, base.n):
                self._lower_relation(name, relation)
            else:
                self._patch_relation(name, base, tombstones, appends)
            del self._pending[name]
            return self._relations[name]

    def _patch_relation(
        self,
        name: str,
        base: RelationColumns,
        tombstones: "frozenset",
        appends: "Tuple[tuple, ...]",
    ) -> None:
        """Filter-and-append lowering of one changed relation.

        Row order is the base's sorted order minus tombstones, with the
        appended rows at the end — *not* globally sorted; every consumer is
        row-order-independent (the maintenance property suite pins the
        decoded answers).  The base's nonreflexive flags are kept even when
        the offending rows were tombstoned — conservatively true only ever
        forces the slower exact fallback, never a wrong answer.
        """
        keep = [row not in tombstones for row in base.rows]
        nonreflexive = list(base.nonreflexive)
        app_codes, app_ids = self._encode_rows(name, appends, nonreflexive)
        rows = tuple(itertools.compress(base.rows, keep)) + appends
        mask = _np.asarray(keep, dtype=bool)
        lowered = [
            _np.concatenate(
                [
                    base.codes[position][mask],
                    _np.asarray(app_codes[position], dtype=_np.int64),
                ]
            )
            for position in range(base.schema.arity)
        ]
        ids = _np.concatenate(
            [base.row_ids[mask], _np.asarray(app_ids, dtype=_np.int64)]
        )
        self._relations[name] = RelationColumns(
            name, base.schema, rows, lowered, ids, nonreflexive
        )

    # -- spill protocol (ProvenanceCache) ----------------------------------

    def spill_save(self, path: str) -> bool:
        """Spill the encoded columns to a flat container; True on success.

        Only stores that own their index are spillable: the index is rebuilt
        on attach by re-interning rows in the deterministic build order, which
        only reproduces the original ids when no external interner seeded it.
        """
        if not self._own_index:
            return False
        from repro.columnar.flatfile import write_flat

        meta = {
            "kind": "column-store",
            "relations": [
                {
                    "name": name,
                    "attributes": list(columns.schema.attributes),
                    "rows": columns.n,
                }
                for name, columns in self._relations.items()
            ],
            "pool_size": len(self._pool),
        }
        arrays = {}
        for name, columns in self._relations.items():
            flat: List[int] = []
            for col in columns.codes:
                flat.extend(int(code) for code in col)
            arrays[f"codes:{name}"] = flat
        write_flat(path, meta, arrays)
        return True

    @classmethod
    def spill_load(cls, path: str, query, db: Database) -> "ColumnStore":
        """Re-attach a spilled store over the **same** ``db`` object.

        Only the code arrays come from disk.  The rows, value pool, and
        index are rebuilt from ``db`` itself by replaying the deterministic
        build order, so every decoded value is the database's *original
        object* — object identity matters for non-self-equal values (NaN)
        and for which of ``1``/``1.0``/``True`` represents a collapsed
        code.  The cache's spill stub pins the exact database, so the
        replay always sees the rows the codes were cut from.
        """
        from repro.columnar.flatfile import read_flat

        meta, arrays, _blobs = read_flat(path)
        if meta.get("kind") != "column-store":
            raise ValueError(f"{path!r} does not hold a spilled ColumnStore")
        pool_size = meta["pool_size"]
        pool: List[object] = [None] * pool_size
        filled = [False] * pool_size
        nonreflexive_codes: set = set()
        store = cls.__new__(cls)
        store._db = db
        store._index = SourceIndex()
        store._own_index = True
        store._pool_obj = None
        store._foreign_ids = {}
        store._relations = {}
        store._pending = {}
        store._pending_lock = threading.Lock()
        for entry in meta["relations"]:
            name = entry["name"]
            count = entry["rows"]
            schema = db[name].schema
            arity = schema.arity
            rows = db[name].sorted_rows()
            if len(rows) != count:
                raise ValueError(
                    f"spilled store is stale: {name!r} has {len(rows)} rows, "
                    f"file says {count}"
                )
            flat = arrays[f"codes:{name}"]
            columns = [
                [int(code) for code in flat[position * count : (position + 1) * count]]
                for position in range(arity)
            ]
            # First assignment wins, matching the interning order of
            # _lower_relation — the representative of a collapsed code is
            # the first value that produced it.
            for i, row in enumerate(rows):
                for position in range(arity):
                    code = columns[position][i]
                    if not filled[code]:
                        filled[code] = True
                        pool[code] = row[position]
            row_ids = [store._index.intern((name, row)) for row in rows]
            nonreflexive = [False] * arity
            for position in range(arity):
                for i, code in enumerate(columns[position]):
                    value = rows[i][position]
                    try:
                        reflexive = value == value
                    except Exception:
                        reflexive = False
                    if not reflexive:
                        nonreflexive_codes.add(code)
                        nonreflexive[position] = True
            store._relations[name] = RelationColumns(
                name,
                schema,
                tuple(rows),
                [_np.asarray(col, dtype=_np.int64) for col in columns],
                _np.asarray(row_ids, dtype=_np.int64),
                nonreflexive,
            )
        store._pool = pool
        store._code_of = {value: code for code, value in enumerate(pool) if filled[code]}
        store._pool_nonreflexive = nonreflexive_codes
        return store


def cached_column_store(db: Database) -> ColumnStore:
    """The shared per-database ColumnStore, memoized in the provenance cache.

    Keyed by database identity through the same identity-keyed cache as the
    provenance kernels, so a long-lived service builds the store once per
    registered database and shares it across queries (and the cache's spill
    machinery can page it out cold and re-attach it on the next hit).
    """
    from repro.provenance.cache import provenance_cache

    return provenance_cache.get_or_compute(
        "columnar", db, db, "", lambda: ColumnStore(db)
    )
