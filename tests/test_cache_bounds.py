"""ProvenanceCache for long-lived processes: byte bounds and thread safety.

Two serving-driven properties:

* the cache can be bounded by **approximate bytes** (LRU eviction, stats
  surfaced next to the hit/miss counters) while the default stays
  byte-unbounded, so batch/benchmark behaviour is unchanged;
* concurrent access never tears the counters and never computes/compiles
  the same key twice — a compile-counter hook observes exactly one
  compile per distinct key no matter how many threads race on it.
"""

import threading

import pytest

import repro.provenance.cache as cache_mod
from repro.algebra import Database, Relation, parse_query
from repro.provenance import why_provenance
from repro.provenance.cache import ProvenanceCache, approx_object_bytes


@pytest.fixture
def db():
    return Database(
        [Relation("R", ["A", "B"], [(i, i % 7) for i in range(60)])]
    )


def _queries(n):
    return [parse_query(f"PROJECT[A](SELECT[B >= {i % 7}](R))") for i in range(n)]


class TestApproxBytes:
    def test_scales_with_content(self):
        small = approx_object_bytes((1, 2, 3))
        large = approx_object_bytes(tuple(range(1000)))
        assert 0 < small < large

    def test_bounded_walk_terminates_on_huge_values(self):
        huge = {i: tuple(range(50)) for i in range(100_000)}
        size = approx_object_bytes(huge)
        assert size > 0  # estimated, not exhaustively walked

    def test_handles_cycles(self):
        a = []
        a.append(a)
        assert approx_object_bytes(a) > 0

    def test_counts_inherited_slots(self):
        # The walk must see slots from every class in the MRO, not just
        # the most-derived one — witness tables hang off base-class slots.
        class Base:
            __slots__ = ("payload",)

        class Derived(Base):
            __slots__ = ("tiny",)

        obj = Derived()
        obj.payload = tuple(range(5000))
        obj.tiny = 1
        assert approx_object_bytes(obj) > approx_object_bytes(obj.payload)

    def test_counts_single_string_slots(self):
        # A bare-string __slots__ is one slot, not an iterable of chars.
        class Holder:
            __slots__ = "payload"

        obj = Holder()
        obj.payload = tuple(range(5000))
        assert approx_object_bytes(obj) > approx_object_bytes(obj.payload)


class TestByteBound:
    def test_default_is_byte_unbounded(self, db):
        cache = ProvenanceCache(maxsize=64)
        for query in _queries(10):
            cache.get_or_compute(
                "why", query, db, "V", lambda q=query: why_provenance(q, db)
            )
        stats = cache.stats()
        assert stats["evictions"] == 0
        assert stats["max_bytes"] is None
        assert stats["approx_bytes"] == 0  # not even sized when unbounded

    def test_byte_bound_evicts_lru(self, db):
        cache = ProvenanceCache(maxsize=64, max_bytes=1)
        queries = _queries(5)
        for query in queries:
            cache.get_or_compute(
                "why", query, db, "V", lambda q=query: why_provenance(q, db)
            )
        stats = cache.stats()
        # Every entry dwarfs one byte, so each insert evicts the previous
        # entry — but never the entry just computed (no livelock).
        assert stats["size"] == 1
        assert stats["evictions"] == len(queries) - 1
        assert stats["approx_bytes"] > 0

    def test_eviction_is_lru_ordered(self, db):
        queries = _queries(4)
        sizes = []
        for query in queries:
            sizes.append(approx_object_bytes(why_provenance(query, db)))
        cache = ProvenanceCache(maxsize=64, max_bytes=sum(sizes))
        for query in queries:
            cache.get_or_compute(
                "why", query, db, "V", lambda q=query: why_provenance(q, db)
            )
        assert cache.stats()["evictions"] == 0
        # Touch the oldest so it is no longer LRU, then overflow.
        cache.get_or_compute("why", queries[0], db, "V", lambda: None)
        extra = parse_query("PROJECT[B](R)")
        cache.get_or_compute(
            "why", extra, db, "V", lambda: why_provenance(extra, db)
        )
        assert cache.stats()["evictions"] >= 1
        hits_before = cache.stats()["hits"]
        cache.get_or_compute("why", queries[0], db, "V", lambda: None)
        assert cache.stats()["hits"] == hits_before + 1  # survivor was kept

    def test_set_capacity_retro_sizes_and_evicts(self, db):
        cache = ProvenanceCache(maxsize=64)
        for query in _queries(6):
            cache.get_or_compute(
                "why", query, db, "V", lambda q=query: why_provenance(q, db)
            )
        assert cache.stats()["approx_bytes"] == 0
        cache.set_capacity(max_bytes=1)
        stats = cache.stats()
        assert stats["size"] == 1 and stats["evictions"] == 5
        assert stats["approx_bytes"] > 0
        cache.set_capacity(max_bytes=None)
        assert cache.stats()["max_bytes"] is None

    def test_set_capacity_validates(self):
        cache = ProvenanceCache()
        with pytest.raises(ValueError):
            cache.set_capacity(maxsize=0)
        with pytest.raises(ValueError):
            cache.set_capacity(max_bytes=0)
        with pytest.raises(ValueError):
            ProvenanceCache(max_bytes=0)

    def test_clear_resets_byte_accounting(self, db):
        cache = ProvenanceCache(max_bytes=10_000_000)
        query = parse_query("PROJECT[A](R)")
        cache.get_or_compute(
            "why", query, db, "V", lambda: why_provenance(query, db)
        )
        assert cache.stats()["approx_bytes"] > 0
        cache.clear()
        assert cache.stats()["approx_bytes"] == 0


class TestConcurrency:
    THREADS = 12
    ROUNDS = 40

    def test_no_duplicate_computes_and_no_torn_stats(self, db):
        cache = ProvenanceCache(maxsize=256)
        queries = _queries(7)
        computes = []
        barrier = threading.Barrier(self.THREADS)

        def compute(query):
            computes.append(query)  # list.append is atomic under the GIL
            return why_provenance(query, db)

        def worker():
            barrier.wait()
            for round_index in range(self.ROUNDS):
                for query in queries:
                    value = cache.get_or_compute(
                        "why", query, db, "V", lambda q=query: compute(q)
                    )
                    assert value is not None

        threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(computes) == len(queries)  # each key computed exactly once
        stats = cache.stats()
        total = self.THREADS * self.ROUNDS * len(queries)
        assert stats["hits"] + stats["misses"] == total
        assert stats["misses"] == len(queries)

    def test_no_duplicate_compiles_via_counter_hook(self, db, monkeypatch):
        cache = ProvenanceCache()
        queries = _queries(5)
        compiles = []
        real_compile = cache_mod.compile_plan

        def counting_compile(*args, **kwargs):
            compiles.append(args[0])
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(cache_mod, "compile_plan", counting_compile)
        barrier = threading.Barrier(self.THREADS)

        def worker():
            barrier.wait()
            for _ in range(self.ROUNDS):
                for query in queries:
                    cache.plan_for(query, db)

        threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(compiles) == len(queries)  # one compile per distinct key
        stats = cache.stats()
        total = self.THREADS * self.ROUNDS * len(queries)
        assert stats["plan_hits"] + stats["plan_misses"] == total
        assert stats["plan_misses"] == len(queries)

    def test_reentrant_compute_does_not_deadlock(self, db):
        """why-provenance computed through the cache compiles its plan
        through the same cache — the lock must be reentrant."""
        cache = ProvenanceCache()
        query = parse_query("PROJECT[A](R)")

        def compute():
            cache.plan_for(query, db)  # reenters the cache under the lock
            return why_provenance(query, db)

        value = cache.get_or_compute("why", query, db, "V", compute)
        assert value is not None
        assert cache.stats()["plan_misses"] >= 1
