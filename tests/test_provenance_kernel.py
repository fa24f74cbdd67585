"""The bitset provenance kernel: interning, mask algebra, cache, wiring."""

import pytest

from repro.algebra import Database, Relation, parse_query
from repro.errors import InfeasibleError, ReproError
from repro.provenance import (
    BitsetProvenance,
    ProvenanceCache,
    SourceIndex,
    bitset_why_provenance,
    cached_why_provenance,
    iter_bits,
    minimize_masks,
    provenance_cache,
    why_provenance,
)
from repro.oracle import interpret_view_rows, legacy_witnesses
from repro.deletion import (
    count_minimal_translations,
    delete_view_tuple,
    enumerate_deletion_plans,
    minimum_source_deletion,
)
from repro.workloads import sj_workload


class TestSourceIndex:
    def test_intern_is_idempotent_and_dense(self):
        index = SourceIndex()
        assert index.intern(("R", (1, 2))) == 0
        assert index.intern(("S", (3,))) == 1
        assert index.intern(("R", (1, 2))) == 0
        assert len(index) == 2

    def test_round_trip(self):
        index = SourceIndex()
        source = ("R", (1, "x"))
        bit = index.intern(source)
        assert index.decode(bit) == source
        assert index.id_of(source) == bit
        assert index.bit(source) == 1 << bit

    def test_decode_mask(self):
        index = SourceIndex()
        a = index.intern(("R", (1,)))
        b = index.intern(("S", (2,)))
        assert index.decode_mask((1 << a) | (1 << b)) == frozenset(
            {("R", (1,)), ("S", (2,))}
        )
        assert index.decode_mask(0) == frozenset()

    def test_encode_skips_unknown_tuples(self):
        index = SourceIndex()
        a = index.intern(("R", (1,)))
        mask = index.encode([("R", (1,)), ("R", (99,)), ("Nope", (0,))])
        assert mask == 1 << a

    def test_unknown_lookups_raise(self):
        index = SourceIndex()
        with pytest.raises(ReproError):
            index.id_of(("R", (1,)))
        with pytest.raises(ReproError):
            index.decode(0)
        with pytest.raises(ReproError):
            index.decode_mask(1)

    def test_from_database_is_deterministic(self):
        db = Database(
            [
                Relation("R", ["A"], [(2,), (1,)]),
                Relation("S", ["B"], [(0,)]),
            ]
        )
        first = list(SourceIndex.from_database(db))
        second = list(SourceIndex.from_database(db))
        assert first == second
        assert set(first) == set(db.all_source_tuples())

    def test_containment(self):
        index = SourceIndex()
        index.intern(("R", (1,)))
        assert ("R", (1,)) in index
        assert ("R", (2,)) not in index
        assert "not-a-pair" not in index


class TestMaskAlgebra:
    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b101001)) == [0, 3, 5]

    def test_absorption_small(self):
        # {a} absorbs {a, b}.
        assert minimize_masks({0b01, 0b11}) == (0b01,)
        # Incomparable masks both survive.
        assert set(minimize_masks({0b01, 0b10})) == {0b01, 0b10}
        assert minimize_masks(set()) == ()
        assert minimize_masks({0b111}) == (0b111,)

    def test_absorption_large_family_matches_naive(self):
        # Above the small-family threshold the low-bit-indexed path runs;
        # compare against the definitional quadratic filter.
        import random

        rng = random.Random(7)
        masks = {rng.getrandbits(12) | 1 for _ in range(80)}
        expected = {
            m
            for m in masks
            if not any(o != m and o & m == o for o in masks)
        }
        assert set(minimize_masks(masks)) == expected

    def test_deduplication(self):
        assert minimize_masks([0b11, 0b11, 0b11]) == (0b11,)


class TestBitsetProvenance:
    @pytest.fixture
    def tiny(self):
        db = Database(
            [
                Relation("R", ["A", "B"], [(1, 2), (1, 3), (4, 2)]),
                Relation("S", ["B", "C"], [(2, 5), (3, 6)]),
            ]
        )
        query = parse_query("PROJECT[A](R JOIN S)")
        return db, query

    def test_matches_legacy_engine(self, tiny):
        db, query = tiny
        kernel = bitset_why_provenance(query, db)
        assert kernel.decode_all() == legacy_witnesses(query, db)

    def test_survives_and_side_effects_masks(self, tiny):
        db, query = tiny
        kernel = bitset_why_provenance(query, db)
        view = interpret_view_rows(query, db)
        for target in kernel.rows:
            for source in db.all_source_tuples():
                deletions = frozenset({source})
                after = interpret_view_rows(query, db.delete(deletions))
                mask = kernel.index.encode(deletions)
                assert kernel.survives_mask(target, mask) == (target in after)
                assert kernel.side_effects_mask(target, mask) == (
                    view - after - {target}
                )

    def test_missing_row_raises(self, tiny):
        db, query = tiny
        kernel = bitset_why_provenance(query, db)
        with pytest.raises(InfeasibleError):
            kernel.witness_masks((99,))

    def test_relation_and_len(self, tiny):
        db, query = tiny
        kernel = bitset_why_provenance(query, db)
        assert len(kernel) == len(kernel.rows)
        assert frozenset(kernel.relation().rows) == frozenset(kernel.rows)

    def test_shared_index_across_queries(self, tiny):
        db, _ = tiny
        index = SourceIndex.from_database(db)
        k1 = bitset_why_provenance(parse_query("R"), db, index=index)
        k2 = bitset_why_provenance(parse_query("R JOIN S"), db, index=index)
        # Masks from both kernels decode through the same table.
        for kernel in (k1, k2):
            for row in kernel.rows:
                for monomial in kernel.decode_witnesses(row):
                    assert all(s in index for s in monomial)


class TestWhyProvenanceKernelBacked:
    def test_default_engine_exposes_kernel(self, ):
        db, query, _ = sj_workload(10, seed=0)
        prov = why_provenance(query, db)
        assert isinstance(prov.kernel, BitsetProvenance)

    def test_unknown_engine_rejected(self):
        """There is one engine: why_provenance takes no engine option."""
        db, query, _ = sj_workload(5, seed=0)
        with pytest.raises(TypeError):
            why_provenance(query, db, engine="legacy")

    def test_lazy_decode_is_cached(self):
        db, query, _ = sj_workload(10, seed=0)
        prov = why_provenance(query, db)
        row = prov.rows[0]
        assert prov.witnesses(row) is prov.witnesses(row)

    def test_constructor_requires_witnesses_or_kernel(self):
        """WhyProvenance only wraps a kernel; a schema alone is refused."""
        db, query, _ = sj_workload(5, seed=0)
        schema = why_provenance(query, db).schema
        with pytest.raises(ReproError):
            from repro.provenance.why import WhyProvenance

            WhyProvenance(schema)


class TestProvenanceCache:
    def test_identity_hit(self):
        cache = ProvenanceCache(maxsize=4)
        calls = []
        args = ("why", object(), object(), "V")
        first = cache.get_or_compute(*args, lambda: calls.append(1) or "p")
        second = cache.get_or_compute(*args, lambda: calls.append(1) or "p2")
        assert first == second == "p"
        assert calls == [1]
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = ProvenanceCache(maxsize=2)
        keys = [(object(), object()) for _ in range(3)]
        for i, (q, d) in enumerate(keys):
            cache.get_or_compute("why", q, d, "V", lambda i=i: i)
        assert len(cache) == 2
        # The oldest entry was evicted; recomputing it misses.
        q, d = keys[0]
        assert cache.stats()["misses"] == 3
        cache.get_or_compute("why", q, d, "V", lambda: "recomputed")
        assert cache.stats()["misses"] == 4

    def test_distinct_objects_do_not_collide(self):
        # Equal-valued but distinct Database objects are different keys:
        # the cache keys on identity, not value.
        db1, query, _ = sj_workload(6, seed=3)
        db2 = Database(db1.relations)
        provenance_cache.clear()
        p1 = cached_why_provenance(query, db1)
        p2 = cached_why_provenance(query, db2)
        assert p1 is not p2
        assert p1.as_dict() == p2.as_dict()

    def test_shared_across_solvers(self):
        db, query, target = sj_workload(12, seed=1)
        provenance_cache.clear()
        before = provenance_cache.stats()["misses"]
        delete_view_tuple(query, db, target)
        minimum_source_deletion(query, db, target)
        count_minimal_translations(query, db, target)
        after = provenance_cache.stats()
        assert after["misses"] == before + 1  # one computation, shared
        assert after["hits"] >= 2

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            ProvenanceCache(maxsize=0)


class TestProvParameter:
    def test_enumerate_and_count_share_supplied_prov(self):
        db, query, target = sj_workload(12, seed=1)
        prov = why_provenance(query, db)
        plans = enumerate_deletion_plans(query, db, target, prov=prov)
        count = count_minimal_translations(query, db, target, prov=prov)
        assert len(plans) == count
