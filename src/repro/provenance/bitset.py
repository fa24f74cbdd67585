"""The bitset provenance kernel: minimal witnesses as integer bitmasks.

This is the engine under :func:`repro.provenance.why.why_provenance`.  The
semantics are exactly those of the witness DNF described there; only the
representation changes:

* a *monomial* (a set of source tuples) is one Python ``int`` whose set bits
  index source tuples through a :class:`~repro.provenance.interning.SourceIndex`;
* a tuple's *witness set* is a tuple of masks, kept inclusion-minimal;
* absorption ``a ⊆ b`` is ``a & b == a`` — one machine-word-per-limb AND
  instead of a hashed frozenset comparison;
* the join product of two monomials is ``lm | rm`` on ints;
* the witnesses are *stored* once, as the CSR
  :class:`~repro.provenance.witness_table.WitnessTable`; int masks are only
  a decode view of it;
* a deletion is the ascending tuple of its interned ids
  (:meth:`BitsetProvenance.encode_deletions_auto`), and survival — a row
  survives iff some witness is disjoint from the deletion — is answered by
  the one survival kernel, :class:`~repro.provenance.witness_table.
  SurvivalIndex`, whose inverted index from source bit to rows means a
  candidate only touches the rows it can actually reach;
* batched hypothetical deletion (:meth:`BitsetProvenance.batch_destroyed`,
  :meth:`BitsetProvenance.batch_side_effects_mask`,
  :meth:`BitsetProvenance.batch_surviving_rows`) answers "which view rows
  survive deleting ``T``" for whole vectors of candidates without
  re-running the query — the vector-level API under
  :class:`repro.deletion.hypothetical.HypotheticalDeletions`;
* a batch vector of at least :data:`VECTORIZED_MIN_BATCH` candidates is
  answered instead by the vectorized kernel
  (:class:`~repro.provenance.witness_table.VectorSurvival`, numpy + scipy
  when they import), which interns identical answers so a destroyed set —
  and the surviving view it induces — is built once per *distinct*
  answer.  Answers are the same on both kernels.

The annotated evaluation itself runs on the **compiled plan layer**
(:mod:`repro.algebra.plan`): :func:`bitset_why_provenance` compiles the
query once through the shared plan memo and executes the plan's
witness-annotated semantics, so schema resolution and column positions are
never recomputed per call.  Decoding back to the public
``frozenset``-of-``frozenset`` representation happens only at the API
boundary (:meth:`BitsetProvenance.decode_witnesses`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.errors import InfeasibleError
from repro.algebra.ast import Query, RelationRef
from repro.algebra.evaluate import DEFAULT_VIEW_NAME
from repro.algebra.plan import CompiledPlan
from repro.algebra.relation import Database, Relation, Row
from repro.algebra.schema import Schema
from repro.observability.metrics import default_registry as _registry
from repro.provenance.cache import cached_plan
from repro.provenance.interning import SourceIndex, iter_bits
from repro.provenance.locations import SourceTuple
from repro.provenance.witness_table import (
    SurvivalIndex,
    VectorSurvival,
    WitnessTable,
)

__all__ = [
    "Mask",
    "MaskWitnesses",
    "minimize_masks",
    "BitsetProvenance",
    "bitset_why_provenance",
]

#: A monomial as an integer bitmask over interned source-tuple ids.
Mask = int

#: A deletion, in either form the survival APIs take: a sequence of
#: interned source ids (what :meth:`BitsetProvenance.encode_deletions_auto`
#: returns) or a whole-universe int mask, converted to ids on entry.
DeletionLike = "Sequence[int] | int"

#: A tuple's witness basis: its minimal monomials, as masks.
MaskWitnesses = Tuple[int, ...]

#: Vectors at least this long go to the vectorized kernel.  Its set-up
#: cost is per vector: on a 32k-row view it overtakes the survival index
#: near 64 candidates, so serving batches stay on the survival index and
#: the solvers' long candidate vectors do not.
VECTORIZED_MIN_BATCH = 128

#: A kernel whose survival index has this many times more slots than the
#: view has rows stops patching the index across writes and rebuilds it
#: lazily instead, so rows that come and go cannot grow it without bound.
_SLOT_SLACK = 2


def minimize_masks(masks: "Set[int] | Iterable[int]") -> MaskWitnesses:
    """Remove masks that strictly contain another (absorption), deduplicated.

    ``a`` absorbs ``b`` when ``a & b == a`` (every bit of ``a`` is in ``b``).
    Scanning in popcount order means a kept mask can never be absorbed by a
    later one — a strict subset always has a strictly smaller popcount — so
    one pass suffices.  For large families the kept masks are indexed by
    their lowest set bit: any absorber of ``m`` has its lowest bit inside
    ``m``, so only the buckets of ``m``'s bits are probed instead of every
    kept mask.
    """
    if not isinstance(masks, (set, frozenset)):
        masks = set(masks)
    if len(masks) <= 1:
        return tuple(masks)
    # The mask value breaks popcount ties so the output tuple is a pure
    # function of the mask *set* — executors that build the same witness
    # sets in a different order (tuple vs columnar) emit identical tuples.
    ordered = sorted(masks, key=lambda mask: (mask.bit_count(), mask))
    kept: List[int] = []
    if len(ordered) <= 16:
        for mask in ordered:
            for existing in kept:
                if existing & mask == existing:
                    break
            else:
                kept.append(mask)
        return tuple(kept)

    by_low_bit: Dict[int, List[int]] = {}
    for mask in ordered:
        absorbed = False
        remaining = mask
        while remaining:
            low = remaining & -remaining
            bucket = by_low_bit.get(low)
            if bucket is not None:
                for existing in bucket:
                    if existing & mask == existing:
                        absorbed = True
                        break
                if absorbed:
                    break
            remaining ^= low
        if not absorbed:
            kept.append(mask)
            by_low_bit.setdefault(mask & -mask, []).append(mask)
    return tuple(kept)


def _relation_occurrences(query: Query) -> Dict[str, int]:
    """How many :class:`RelationRef` leaves mention each relation name."""
    counts: Dict[str, int] = {}
    stack = [query]
    while stack:
        node = stack.pop()
        if isinstance(node, RelationRef):
            counts[node.name] = counts.get(node.name, 0) + 1
        stack.extend(node.children)
    return counts


def _join_nonlinear_names(query: Query) -> FrozenSet[str]:
    """Relation names the query is *not* linear in: self-joined names.

    The annotated semantics is a polynomial whose monomials multiply one
    source row per :class:`RelationRef` reached through each
    :class:`~repro.algebra.ast.Join` — so a witness can mention two rows
    of the same relation only when some Join has that relation on both
    sides.  A name appearing several times *additively* (e.g. once per
    Union branch, the SPU shape) still yields witnesses linear in it, and
    the insert delta decomposition stays sound; only the names returned
    here force a full re-annotation.
    """
    from repro.algebra.ast import Join

    nonlinear: Set[str] = set()
    stack = [query]
    while stack:
        node = stack.pop()
        if isinstance(node, Join):
            nonlinear.update(
                node.left.relation_names() & node.right.relation_names()
            )
        stack.extend(node.children)
    return frozenset(nonlinear)


class BitsetProvenance:
    """Why-provenance of a view with witnesses held as bitmasks.

    Produced by :func:`bitset_why_provenance`.  This is the object the
    deletion solvers actually compute with; the ``frozenset`` view of the
    same data is available through :meth:`decode_witnesses` and the
    :class:`~repro.provenance.why.WhyProvenance` wrapper.
    """

    __slots__ = (
        "_schema",
        "_view_name",
        "_index",
        "_table",
        "_survival",
        "_vector",
        "build_stats",
    )

    def __init__(
        self,
        schema: Schema,
        witnesses: "WitnessTable | Dict[Row, MaskWitnesses]",
        index: SourceIndex,
        view_name: str = DEFAULT_VIEW_NAME,
    ):
        self._schema = schema
        if not isinstance(witnesses, WitnessTable):
            witnesses = WitnessTable.from_masks(witnesses)
        #: The CSR arrays: the one stored form of the witnesses.
        self._table: WitnessTable = witnesses
        self._index = index
        self._view_name = view_name
        #: Wall-time/shape counters of the annotated build that produced
        #: this kernel (set by :func:`bitset_why_provenance`; None when the
        #: kernel was constructed directly).
        self.build_stats: "Dict[str, object] | None" = None
        #: Lazy survival-kernel state (built on the first probe, carried
        #: across :meth:`apply_delta` once warm).
        self._survival: "SurvivalIndex | None" = None
        #: Lazy vectorized kernel for long vectors.
        self._vector: "VectorSurvival | None" = None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """Schema of the view."""
        return self._schema

    @property
    def view_name(self) -> str:
        """Name the view was evaluated under."""
        return self._view_name

    @property
    def index(self) -> SourceIndex:
        """The source-tuple interning table masks are expressed over."""
        return self._index

    @property
    def rows(self) -> Tuple[Row, ...]:
        """All view rows, deterministically ordered."""
        return tuple(sorted(self._table.rows, key=repr))

    def relation(self) -> Relation:
        """The view as a plain relation (provenance dropped)."""
        return Relation(self._view_name, self._schema, self._table.rows)

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, row: object) -> bool:
        return self._table.contains(row)

    # ------------------------------------------------------------------
    # Witness-level queries
    # ------------------------------------------------------------------
    def _witness_bits(self, row: Row) -> Tuple[Tuple[int, ...], ...]:
        """``row``'s witnesses as bit-id tuples; InfeasibleError if absent."""
        row = tuple(row)
        wits = self._table.bits_of(row)
        if wits is None:
            raise InfeasibleError(f"row {row!r} is not in the view")
        return wits

    def witness_masks(self, row: Row) -> MaskWitnesses:
        """The minimal witnesses of ``row`` as masks.

        Raises :class:`InfeasibleError` if the row is not in the view.
        """
        return tuple(
            sum(1 << bit for bit in wit) for wit in self._witness_bits(row)
        )

    def universe_mask(self, row: Row) -> int:
        """OR of all witness masks of ``row``."""
        universe = 0
        for mask in self.witness_masks(row):
            universe |= mask
        return universe

    def encode_deletions_auto(
        self, deletions: Iterable[SourceTuple]
    ) -> Tuple[int, ...]:
        """A deletion set as the ascending tuple of its interned ids.

        The one deletion encoding every survival API runs on.  Tuples the
        index has never seen are skipped: they appear in no witness, so
        they cannot change any answer.
        """
        return self._index.encode_ids(deletions)

    def survives_mask(self, row: Row, deletion: DeletionLike) -> bool:
        """True if ``row`` keeps a witness disjoint from ``deletion``."""
        disjoint = frozenset(_as_ids(deletion)).isdisjoint
        return any(map(disjoint, self._witness_bits(row)))

    def side_effects_mask(
        self, target: Row, deletion: DeletionLike
    ) -> FrozenSet[Row]:
        """View rows other than ``target`` destroyed by ``deletion``.

        Only rows whose witness universe meets the deletion can be
        destroyed, so the scan runs over the inverted index's union of
        reached rows — not the whole view.
        """
        return self._destroyed(_as_ids(deletion)).difference((tuple(target),))

    # ------------------------------------------------------------------
    # Batched hypothetical deletion
    # ------------------------------------------------------------------
    def _survival_index(self) -> SurvivalIndex:
        """The survival kernel's state, built once on the first probe."""
        if self._survival is None:
            self._survival = SurvivalIndex.build(self._table)
        return self._survival

    def _destroyed(self, ids: Sequence[int]) -> FrozenSet[Row]:
        """Rows whose every witness meets the deleted ``ids``."""
        return self._destroyed_each([ids])[0]

    def _destroyed_each(
        self, vector: "Sequence[Sequence[int]]"
    ) -> List[FrozenSet[Row]]:
        """:meth:`_destroyed` for a vector, with the lookups hoisted."""
        state = self._survival_index()
        destroyed, row_of = state.destroyed, state.rows.__getitem__
        return [frozenset(map(row_of, destroyed(ids))) for ids in vector]

    def surviving_rows(self, deletion: DeletionLike) -> FrozenSet[Row]:
        """The view after hypothetically deleting ``deletion``.

        Equal to re-evaluating the query over the deleted database, but
        answered from the witnesses: rows the deletion's inverted-index
        entries do not reach provably survive, the rest are tested witness
        by witness.
        """
        destroyed = self._destroyed(_as_ids(deletion)) if deletion else ()
        if not destroyed:
            return frozenset(self._table.rows)
        return frozenset(
            row for row in self._table.rows if row not in destroyed
        )

    def _vector_survival(self) -> "VectorSurvival | None":
        """The vectorized kernel over this version's table, built on the
        first long vector; ``None`` without numpy and scipy."""
        if self._vector is None:
            self._vector = VectorSurvival.build(self._table)
        return self._vector

    def _batch(self, masks: "Sequence[DeletionLike]", finish=None) -> List:
        """``finish(destroyed rows)`` for each candidate of a vector.

        Vectors of at least :data:`VECTORIZED_MIN_BATCH` candidates go to
        the vectorized kernel when it can be built; there identical
        destroyed sets are answered, and finished, once.  Everything else
        runs on the survival index.
        """
        ids = [_as_ids(mask) for mask in masks]
        vector = (
            self._vector_survival()
            if len(ids) >= VECTORIZED_MIN_BATCH
            else None
        )
        if vector is None:
            destroyed = self._destroyed_each(ids)
            return destroyed if finish is None else list(map(finish, destroyed))
        answers, picks = vector.destroyed_indices(ids)
        row = self._table.rows.__getitem__
        distinct = [frozenset(map(row, answer)) for answer in answers]
        if finish is not None:
            distinct = list(map(finish, distinct))
        return [distinct[pick] for pick in picks]

    def batch_destroyed(
        self, masks: "Sequence[DeletionLike]"
    ) -> List[FrozenSet[Row]]:
        """Destroyed-row sets for a whole vector of candidate deletions.

        The vector-level API of the exact solvers' candidate scans.  Short
        vectors cost one :meth:`side_effects_mask`-style pass per
        candidate; vectors of at least :data:`VECTORIZED_MIN_BATCH`
        candidates are answered by the vectorized kernel, which shares one
        answer object between candidates that destroy the same rows.
        Either way the answers are the same.
        """
        return self._batch(masks)

    def batch_side_effects_mask(
        self, target: Row, masks: "Sequence[DeletionLike]"
    ) -> List[FrozenSet[Row]]:
        """:meth:`side_effects_mask` for a whole vector of deletions."""
        exclude = (tuple(target),)
        return self._batch(masks, lambda d: d.difference(exclude))

    def batch_surviving_rows(
        self, masks: "Sequence[DeletionLike]"
    ) -> List[FrozenSet[Row]]:
        """:meth:`surviving_rows` for a whole vector of deletions.

        The literal "what survives after deleting ``T``?" vector — the
        question the exact solvers spend their time on.  Candidates that
        destroy nothing share one baseline frozenset.
        """
        all_rows = frozenset(self._table.rows)
        return self._batch(masks, lambda d: all_rows - d if d else all_rows)

    # ------------------------------------------------------------------
    # Incremental maintenance (the write path)
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        new_db: Database,
        deleted_sources: Iterable[SourceTuple] = (),
        inserted_by_name: "Dict[str, Iterable[Row]] | None" = None,
        query: "Query | None" = None,
        plan: "CompiledPlan | None" = None,
        store: "object | None" = None,
    ) -> "BitsetProvenance":
        """A new kernel reflecting a delta, without a from-scratch rebuild.

        ``new_db`` is the database *after* the delta; ``deleted_sources``
        and ``inserted_by_name`` are the delta's **net** effect (rows
        actually removed / actually added — the
        :class:`~repro.versioning.Delta` normalization).  The returned
        kernel shares this kernel's :class:`SourceIndex` (interning is
        append-only, so patched and original kernels coexist) and decodes
        identically to a full re-annotation over ``new_db``; this kernel
        is never mutated.

        *Deletions* patch the witness table directly: a witness dies iff
        its monomial mentions a deleted id, a row dies iff all its
        witnesses do (:meth:`WitnessTable.drop_bits`).  *Inserts* are
        evaluated as delta branches: for each inserted relation the plan
        is re-run over a database where that relation holds only its delta
        rows — sound when the query is linear in each inserted relation
        (:func:`_join_nonlinear_names`; a name may appear in several Union
        branches, only Join-on-both-sides breaks linearity).  Self-joins
        over an inserted relation take one full re-annotation over
        ``new_db`` instead (still on the shared index and plan).  Branch
        results splice into the arrays (:meth:`WitnessTable.merge_rows`).

        A warm survival index is carried across the same delta
        (:meth:`SurvivalIndex.patched`), so a probe after the write costs
        what a probe before it did; a cold one stays cold.

        ``store`` (a ColumnStore matching ``new_db`` — the engine hands
        the delta-patched one) routes any full re-annotation through the
        vectorized columnar kernels instead of the tuple executor.
        """
        inserted: Dict[str, FrozenSet[Row]] = {
            name: frozenset(tuple(row) for row in rows)
            for name, rows in (inserted_by_name or {}).items()
            if rows
        }
        deleted_ids = self._index.encode_ids(deleted_sources)

        # Phase 1: patch deletions out of the witness table.
        patched = self._table.drop_bits(deleted_ids)

        if inserted and query is None:
            raise ValueError("apply_delta needs the query to patch inserts")
        if inserted:
            # Only relations the query actually reads contribute witnesses.
            occurrences = _relation_occurrences(query)
            inserted = {
                name: rows
                for name, rows in inserted.items()
                if occurrences.get(name, 0) > 0
            }
        if not inserted:
            return self._patched_kernel(patched, deleted_ids, None)

        nonlinear = _join_nonlinear_names(query)
        if any(name in nonlinear for name in inserted):
            # The delta decomposition below is only sound when the query
            # is linear in each inserted relation (a self-join mixes old
            # and delta rows inside one witness).
            return self._reannotate(query, new_db, plan, store)

        if plan is None:
            plan = cached_plan(query, new_db)
        use_store = store is not None and store.matches(new_db)
        names = sorted(inserted)
        branch_tables: List[Dict[Row, MaskWitnesses]] = []
        for i, name in enumerate(names):
            branch_db = new_db
            removed_by: Dict[str, Set[Row]] = {}
            for j, other in enumerate(names):
                if j < i:
                    # Earlier deltas already contributed their cross
                    # terms; this branch sees those relations pre-insert.
                    mid = new_db[other].rows - inserted[other]
                    branch_db = branch_db.with_relation(
                        Relation._trusted(
                            other, new_db[other].schema, frozenset(mid)
                        )
                    )
                    removed_by[other] = set(inserted[other])
                elif j == i:
                    branch_db = branch_db.with_relation(
                        Relation._trusted(
                            name, new_db[name].schema, inserted[name]
                        )
                    )
                    removed_by[name] = set(new_db[name].rows - inserted[name])
            if use_store:
                # A throwaway branch store: the delta relation relowers
                # (it holds a handful of rows), everything else shares
                # the patched store's columns and index — so the branch
                # runs on the vectorized columnar kernels.
                branch_store = store.apply_delta(branch_db, removed_by, {})
                branch_tables.append(
                    plan.annotated_table_columnar(branch_store, self._index)
                    .to_masks()
                )
            else:
                branch_tables.append(
                    plan.annotated_rows(branch_db, self._index)
                )

        # Merge the branch contributions: only rows the delta actually
        # touched are decoded/re-minimized, and they splice back into the
        # arrays — the untouched bulk is one vectorized copy.
        updates: Dict[Row, MaskWitnesses] = {}
        for table in branch_tables:
            for row, masks in table.items():
                prev = updates.get(row)
                if prev is None:
                    prev = patched.masks_of(row)
                updates[row] = (
                    masks
                    if prev is None
                    else minimize_masks(set(prev) | set(masks))
                )
        return self._patched_kernel(
            patched.merge_rows(updates), deleted_ids, updates
        )

    def _patched_kernel(
        self,
        table: WitnessTable,
        deleted_ids: Sequence[int],
        updates: "Dict[Row, MaskWitnesses] | None",
    ) -> "BitsetProvenance":
        """The kernel over a delta-patched ``table``, carrying this
        kernel's warm survival index across the same delta."""
        kernel = BitsetProvenance(
            self._schema, table, self._index, self._view_name
        )
        state = self._survival
        if state is not None:
            state = state.patched(deleted_ids, updates)
            if len(state.rows) <= _SLOT_SLACK * len(table) + 64:
                kernel._survival = state
        _registry().counter("provenance.delta.patched").inc()
        return kernel

    def _reannotate(
        self,
        query: Query,
        new_db: Database,
        plan: "CompiledPlan | None",
        store: "object | None" = None,
    ) -> "BitsetProvenance":
        """Full re-annotation over ``new_db`` on the shared index.

        When the caller holds a ColumnStore matching ``new_db`` the
        annotation runs through the vectorized columnar kernels (foreign
        row ids translate into this kernel's index), landing back in the
        CSR form — the fallback is then no slower than a cold build.
        """
        _registry().counter("provenance.delta.reannotated").inc()
        return bitset_why_provenance(
            query,
            new_db,
            self._view_name,
            index=self._index,
            plan=plan,
            store=store,
        )

    # ------------------------------------------------------------------
    # Decoding (the API boundary)
    # ------------------------------------------------------------------
    def decode_witnesses(self, row: Row) -> FrozenSet[FrozenSet[SourceTuple]]:
        """The minimal witnesses of ``row`` in the public frozenset form."""
        decode = self._index.decode
        return frozenset(
            frozenset(map(decode, wit)) for wit in self._witness_bits(row)
        )

    def decode_all(self) -> Dict[Row, FrozenSet[FrozenSet[SourceTuple]]]:
        """The full row → witness-set mapping, decoded."""
        decode = self._index.decode_mask
        return {
            row: frozenset(decode(mask) for mask in masks)
            for row, masks in self._table.to_masks().items()
        }


def _as_ids(deletion: DeletionLike) -> Sequence[int]:
    """A deletion as a sequence of source ids (int masks are decomposed)."""
    if isinstance(deletion, int):
        return tuple(iter_bits(deletion))
    return deletion


def bitset_why_provenance(
    query: Query,
    db: Database,
    view_name: str = DEFAULT_VIEW_NAME,
    index: "SourceIndex | None" = None,
    plan: "CompiledPlan | None" = None,
    optimizer_level: "int | None" = None,
    store: "object | None" = None,
) -> BitsetProvenance:
    """Annotated evaluation of ``query`` over ``db``, natively on bitmasks.

    ``index`` lets callers share one interning table across several
    provenance computations over the same database; by default a fresh one
    is grown lazily, interning only the relations the query touches.

    The evaluation executes the compiled physical plan's witness-annotated
    semantics (:meth:`~repro.algebra.plan.CompiledPlan.annotated_rows`);
    ``plan`` lets callers supply a plan they already hold, otherwise the
    shared plan memo provides one at ``optimizer_level`` (``None`` = the
    library default).  Witness masks are invariant under the optimizer's
    rewrites — given the same ``index``, an optimized and an unoptimized
    plan produce identical masks (pinned by the soundness property tests).

    ``store`` (a :class:`repro.columnar.store.ColumnStore` built over this
    exact ``db`` object) routes the annotated evaluation through the
    vectorized columnar kernels
    (:meth:`~repro.algebra.plan.CompiledPlan.annotated_table_columnar`).
    A store over a different database object is ignored.  When no ``index``
    is supplied the store's own interning table is adopted, so its row-id
    vectors translate to witness bits without re-interning.
    """
    from time import perf_counter

    if store is not None and not store.matches(db):
        store = None
    if index is None:
        index = store.index if store is not None else SourceIndex()
    if plan is None:
        plan = cached_plan(query, db, optimizer_level)
    started = perf_counter()
    if store is not None:
        table = plan.annotated_table_columnar(store, index)
        path = "columnar-csr"
    else:
        table = WitnessTable.from_masks(plan.annotated_rows(db, index))
        path = "tuple"
    seconds = perf_counter() - started
    nwits = table.witness_count
    prov = BitsetProvenance(plan.schema, table, index, view_name)
    prov.build_stats = {
        "seconds": seconds,
        "rows": len(table),
        "witnesses": nwits,
        "path": path,
    }
    # The one record of a witness build: the histogram's count is the
    # number of builds, its sum their wall time.
    metrics = _registry()
    metrics.histogram("provenance.witness_build_seconds").observe(seconds)
    metrics.counter("provenance.witness_rows").inc(len(table))
    metrics.counter("provenance.witnesses").inc(nwits)
    return prov
