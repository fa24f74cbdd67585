"""Cross-module property-based tests (hypothesis).

These are the library-wide invariants that tie the layers together; every
oracle here is *independent re-evaluation of the query*, never the machinery
under test.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import (
    Database,
    Relation,
    evaluate,
    normalize,
    parse_query,
    view_rows,
)
from repro.algebra.plan import compile_plan
from repro.annotation import exhaustive_placement, verify_placement
from repro.deletion import (
    HypotheticalDeletions,
    delete_view_tuple,
    minimum_source_deletion,
    verify_plan,
)
from repro.errors import InfeasibleError
from repro.oracle import interpret_view_rows, legacy_witnesses
from repro.provenance import (
    Location,
    SourceIndex,
    bitset_why_provenance,
    iter_bits,
    where_provenance,
    why_provenance,
)
from repro.provenance import witness_table
from repro.provenance.bitset import VECTORIZED_MIN_BATCH
from repro.workloads import random_instance

seeds = st.integers(min_value=0, max_value=100_000)


def _random_deletion_sets(db, rng, count=4, max_size=4):
    """Random source-tuple deletion sets over ``db`` (may be empty)."""
    tuples = list(db.all_source_tuples())
    return [
        frozenset(rng.sample(tuples, rng.randint(0, min(max_size, len(tuples)))))
        for _ in range(count)
    ]


class TestWhyProvenanceSurvival:
    @settings(max_examples=50, deadline=None)
    @given(seed=seeds)
    def test_survives_matches_reevaluation(self, seed):
        """prov.survives(row, T) ⟺ row ∈ Q(S \\ T) for random deletion sets."""
        db, query = random_instance(seed, max_depth=3)
        prov = why_provenance(query, db)
        if not prov.rows:
            return
        rng = random.Random(seed)
        tuples = list(db.all_source_tuples())
        for _ in range(4):
            deletions = frozenset(
                rng.sample(tuples, rng.randint(0, min(4, len(tuples))))
            )
            after = view_rows(query, db.delete(deletions))
            for row in prov.rows:
                assert prov.survives(row, deletions) == (row in after), (
                    query,
                    row,
                    deletions,
                )

    @settings(max_examples=50, deadline=None)
    @given(seed=seeds)
    def test_side_effects_match_reevaluation(self, seed):
        db, query = random_instance(seed, max_depth=3)
        prov = why_provenance(query, db)
        if not prov.rows:
            return
        rng = random.Random(seed + 1)
        tuples = list(db.all_source_tuples())
        target = prov.rows[0]
        deletions = frozenset(
            rng.sample(tuples, rng.randint(1, min(4, len(tuples))))
        )
        before = view_rows(query, db)
        after = view_rows(query, db.delete(deletions))
        expected = frozenset(before - after - {target})
        assert prov.side_effects(target, deletions) == expected


class TestBitsetKernelEquivalence:
    """The bitset kernel is extensionally equal to the frozenset semantics.

    The oracles live in :mod:`repro.oracle`: the seed frozenset witness
    evaluator (``legacy_witnesses``) and, for survival, re-interpretation
    of the query over ``db.delete(T)`` (``interpret_view_rows``).
    """

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_same_minimal_witnesses(self, seed):
        """Decoded kernel witnesses == legacy witnesses, on every view row."""
        db, query = random_instance(seed, max_depth=3)
        legacy = legacy_witnesses(query, db)
        kernel = why_provenance(query, db)
        assert kernel.as_dict() == legacy
        # The raw kernel object agrees as well (no wrapper magic involved).
        assert bitset_why_provenance(query, db).decode_all() == legacy

    @settings(max_examples=50, deadline=None)
    @given(seed=seeds)
    def test_same_survival_and_side_effects(self, seed):
        """survives/side_effects agree with re-interpreting the query."""
        db, query = random_instance(seed, max_depth=3)
        kernel = why_provenance(query, db)
        rows = kernel.rows
        if not rows:
            return
        view = interpret_view_rows(query, db)
        rng = random.Random(seed)
        tuples = list(db.all_source_tuples())
        for _ in range(4):
            deletions = frozenset(
                rng.sample(tuples, rng.randint(0, min(4, len(tuples))))
            )
            after = interpret_view_rows(query, db.delete(deletions))
            target = rows[rng.randrange(len(rows))]
            assert kernel.side_effects(target, deletions) == (
                view - after - {target}
            )
            for row in rows:
                assert kernel.survives(row, deletions) == (row in after)

    @settings(max_examples=50, deadline=None)
    @given(seed=seeds)
    def test_same_witness_universe(self, seed):
        db, query = random_instance(seed, max_depth=3)
        kernel = why_provenance(query, db)
        for row, witnesses in legacy_witnesses(query, db).items():
            assert kernel.witness_universe(row) == frozenset().union(*witnesses)


def _padded_kernel(query, db, pad):
    """The bitset kernel over an index whose first ``pad`` ids are foreign
    tuples, so every witness bit sits at or above ``pad``."""
    index = SourceIndex()
    for i in range(pad):
        index.intern(("__pad__", (i,)))
    return bitset_why_provenance(query, db, index=index)


class TestOneSurvivalKernel:
    """Every survival answer — survival index, vectorized kernel, either
    deletion form — equals re-interpreting the query over ``db.delete(T)``.

    The oracle is :func:`interpret_view_rows`, which shares no code with
    the witness tables.  Padded universes put the witness bits above id
    2048, where the retired segmented masks used to take over.
    """

    @pytest.mark.parametrize("pad", [0, 2049, 4100])
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_padded_universes_match_reinterpretation(self, pad, seed):
        db, query = random_instance(seed, max_depth=3)
        kernel = _padded_kernel(query, db, pad)
        rng = random.Random(seed)
        deletion_sets = _random_deletion_sets(db, rng, count=5)
        ids = [kernel.encode_deletions_auto(d) for d in deletion_sets]
        masks = [kernel.index.encode(d) for d in deletion_sets]
        expected = [
            interpret_view_rows(query, db.delete(d)) for d in deletion_sets
        ]
        for d, encoded, mask in zip(deletion_sets, ids, masks):
            # The one encoding: ascending interned ids, all >= pad.
            assert encoded == tuple(iter_bits(mask))
            assert all(bit >= pad for bit in encoded)
        assert kernel.batch_surviving_rows(ids) == expected
        assert kernel.batch_surviving_rows(masks) == expected
        for encoded, mask, after in zip(ids, masks, expected):
            assert kernel.surviving_rows(encoded) == after
            for row in kernel.rows:
                assert kernel.survives_mask(row, encoded) == (row in after)
                assert kernel.survives_mask(row, mask) == (row in after)

    @pytest.mark.parametrize("force_python", [True, False])
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, pad=st.sampled_from([0, 2049]))
    def test_chunk_kernels_match_reinterpretation(self, force_python, seed, pad):
        """Vectors just below and above VECTORIZED_MIN_BATCH, mixing bit-id
        tuples and int masks; ``force_python`` takes scipy away, so long
        vectors fall back to the survival index."""
        if not force_python and witness_table.scipy_sparse() is None:
            pytest.skip("the vectorized kernel needs numpy and scipy")
        db, query = random_instance(seed, max_depth=3)
        rng = random.Random(seed + 5)
        distinct = _random_deletion_sets(db, rng, count=6)
        baseline = interpret_view_rows(query, db)
        destroyed = [
            baseline - interpret_view_rows(query, db.delete(d)) for d in distinct
        ]
        with pytest.MonkeyPatch.context() as patch:
            if force_python:
                patch.setattr(witness_table, "_SPARSE", False)
            kernel = _padded_kernel(query, db, pad)
            for length in (VECTORIZED_MIN_BATCH - 1, VECTORIZED_MIN_BATCH + 5):
                picks = [i % len(distinct) for i in range(length)]
                vector = [
                    kernel.encode_deletions_auto(distinct[k])
                    if i % 2
                    else kernel.index.encode(distinct[k])
                    for i, k in enumerate(picks)
                ]
                assert kernel.batch_destroyed(vector) == [
                    destroyed[k] for k in picks
                ]
            vectorized = kernel._vector_survival() is not None
        assert vectorized is not force_python


class TestCompiledPlanEquivalence:
    """Compiled-plan evaluation is extensionally equal to the interpreter.

    The oracle is :func:`interpret_view_rows` — the seed recursive
    interpreter, which re-resolves everything per call and shares no code
    with the plan layer.
    """

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_rows_match_interpreter(self, seed):
        db, query = random_instance(seed, max_depth=3)
        catalog = {name: db[name].schema for name in db}
        plan = compile_plan(query, catalog)
        expected = interpret_view_rows(query, db)
        assert plan.rows(db) == expected
        assert view_rows(query, db) == expected  # the cached front agrees

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_one_plan_serves_hypothetical_databases(self, seed):
        """One compiled plan answers every db.delete(T) variant correctly."""
        db, query = random_instance(seed, max_depth=3)
        catalog = {name: db[name].schema for name in db}
        plan = compile_plan(query, catalog)
        rng = random.Random(seed)
        for deletions in _random_deletion_sets(db, rng):
            hypo = db.delete(deletions)
            assert plan.rows(hypo) == interpret_view_rows(query, hypo)

    def test_rename_and_cross_product_join(self):
        """Explicit coverage: Rename and no-shared-attribute (cross) joins."""
        db = Database(
            [
                Relation("R", ["A", "B"], [(1, 2), (2, 3), (4, 2)]),
                Relation("S", ["C"], [(7,), (8,)]),
            ]
        )
        queries = [
            # Cross product: R and S share no attributes.
            parse_query("R JOIN S"),
            # Rename then self-join (path query through renamed schema).
            parse_query("R JOIN RENAME[A -> B, B -> C](R)"),
            # Rename inside a union branch.
            parse_query("PROJECT[A](R) UNION RENAME[B -> A](PROJECT[B](R))"),
            # Rename over the cross product, then a projection.
            parse_query("PROJECT[A, Z](R JOIN RENAME[C -> Z](S))"),
        ]
        for query in queries:
            catalog = {name: db[name].schema for name in db}
            plan = compile_plan(query, catalog)
            assert plan.rows(db) == interpret_view_rows(query, db)
            for deletions in [
                frozenset(),
                frozenset({("R", (1, 2))}),
                frozenset({("R", (2, 3)), ("S", (7,))}),
            ]:
                hypo = db.delete(deletions)
                assert plan.rows(hypo) == interpret_view_rows(query, hypo)


class TestBatchedHypotheticalDeletion:
    """Batched mask answers == per-candidate re-evaluation, exactly."""

    @settings(max_examples=50, deadline=None)
    @given(seed=seeds)
    def test_batch_view_after_matches_reevaluation(self, seed):
        db, query = random_instance(seed, max_depth=3)
        oracle = HypotheticalDeletions(query, db)
        rng = random.Random(seed)
        deletion_sets = _random_deletion_sets(db, rng, count=6)
        batched = oracle.batch_view_after(deletion_sets)
        afters = [interpret_view_rows(query, db.delete(d)) for d in deletion_sets]
        for deletions, after, expected in zip(deletion_sets, batched, afters):
            assert after == expected, (query, deletions)
        # Side effects too: the baseline minus the re-evaluated view,
        # less the target itself.
        baseline = interpret_view_rows(query, db)
        assert oracle.rows == baseline
        for target in sorted(baseline, key=repr)[:2]:
            assert oracle.batch_side_effects(target, deletion_sets) == [
                frozenset(baseline - after - {target}) for after in afters
            ], (query, target)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_batch_side_effects_matches_single_calls(self, seed):
        db, query = random_instance(seed, max_depth=3)
        prov = why_provenance(query, db)
        if not prov.rows:
            return
        rng = random.Random(seed + 3)
        deletion_sets = _random_deletion_sets(db, rng, count=5)
        target = prov.rows[rng.randrange(len(prov.rows))]
        batched = prov.batch_side_effects(target, deletion_sets)
        assert batched == [
            prov.side_effects(target, d) for d in deletion_sets
        ]


class TestWhereProvenanceDuality:
    @settings(max_examples=50, deadline=None)
    @given(seed=seeds)
    def test_forward_backward_inverse(self, seed):
        """ℓ ∈ backward(v) ⟺ v ∈ forward(ℓ): the relation R both ways."""
        db, query = random_instance(seed, max_depth=3)
        prov = where_provenance(query, db)
        closure = prov.forward_closure()
        for (row, attr), sources in prov.as_dict().items():
            view_loc = Location("V", row, attr)
            for source in sources:
                assert view_loc in closure[source]
        for source, image in closure.items():
            for view_loc in image:
                assert source in prov.backward(view_loc.row, view_loc.attribute)

    @settings(max_examples=50, deadline=None)
    @given(seed=seeds)
    def test_view_matches_plain_evaluation(self, seed):
        """Both annotated evaluators agree with the plain one on the rows."""
        db, query = random_instance(seed, max_depth=3)
        plain = view_rows(query, db)
        assert frozenset(why_provenance(query, db).rows) == plain
        assert frozenset(where_provenance(query, db).rows) == plain


class TestDispatcherPlansAlwaysVerify:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_view_objective(self, seed):
        db, query = random_instance(seed, max_depth=3)
        rows = sorted(view_rows(query, db), key=repr)
        if not rows:
            return
        plan = delete_view_tuple(query, db, rows[0])
        verify_plan(query, db, plan)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_source_objective(self, seed):
        db, query = random_instance(seed, max_depth=3)
        rows = sorted(view_rows(query, db), key=repr)
        if not rows:
            return
        plan = minimum_source_deletion(query, db, rows[0])
        verify_plan(query, db, plan)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_view_optimum_never_worse_than_source_plan(self, seed):
        """The view-optimal plan has ≤ side effects of the source-optimal."""
        db, query = random_instance(seed, max_depth=2, num_relations=2)
        rows = sorted(view_rows(query, db), key=repr)
        if not rows:
            return
        view_plan = delete_view_tuple(query, db, rows[0])
        source_plan = minimum_source_deletion(query, db, rows[0])
        assert view_plan.num_side_effects <= source_plan.num_side_effects
        assert source_plan.num_deletions <= view_plan.num_deletions


class TestPlacementAlwaysVerifies:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_exhaustive_placement_verifies(self, seed):
        db, query = random_instance(seed, max_depth=3)
        view = evaluate(query, db)
        rows = sorted(view.rows, key=repr)
        if not rows:
            return
        target = Location("V", rows[0], view.schema.attributes[0])
        try:
            placement = exhaustive_placement(query, db, target)
        except InfeasibleError:
            return
        verify_placement(query, db, placement)
        assert target in placement.propagated


class TestNormalizeIdempotence:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_second_normalization_is_stable(self, seed):
        db, query = random_instance(seed, max_depth=3)
        catalog = {name: db[name].schema for name in db}
        once = normalize(query, catalog)
        twice = normalize(once, catalog)
        assert view_rows(once, db) == view_rows(twice, db)
        # R stable across the second pass too.
        assert (
            where_provenance(once, db).as_dict()
            == where_provenance(twice, db).as_dict()
        )


class TestParserRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_repr_reparses_to_equal_query(self, seed):
        db, query = random_instance(seed, max_depth=3)
        assert parse_query(repr(query)) == query


class TestMonotonicity:
    @settings(max_examples=50, deadline=None)
    @given(seed=seeds)
    def test_deletion_never_adds_view_rows(self, seed):
        db, query = random_instance(seed, max_depth=3)
        rng = random.Random(seed)
        tuples = list(db.all_source_tuples())
        before = view_rows(query, db)
        deletions = rng.sample(tuples, rng.randint(0, min(5, len(tuples))))
        after = view_rows(query, db.delete(deletions))
        assert after <= before
