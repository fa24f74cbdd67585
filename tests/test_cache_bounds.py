"""ProvenanceCache for long-lived processes: the entry bound and thread safety.

Two serving-driven properties:

* the cache is an LRU bounded by entry count, evicting least recently
  used entries first;
* concurrent access never tears the counters and never computes/compiles
  the same key twice — a compile-counter hook observes exactly one
  compile per distinct key no matter how many threads race on it.
"""

import threading

import pytest

import repro.provenance.cache as cache_mod
from repro.algebra import Database, Relation, parse_query
from repro.provenance import why_provenance
from repro.provenance.cache import ProvenanceCache


@pytest.fixture
def db():
    return Database(
        [Relation("R", ["A", "B"], [(i, i % 7) for i in range(60)])]
    )


def _queries(n):
    return [parse_query(f"PROJECT[A](SELECT[B >= {i % 7}](R))") for i in range(n)]


class TestEntryBound:
    def test_eviction_is_lru_ordered(self, db):
        cache = ProvenanceCache(maxsize=3)
        queries = _queries(3)
        for query in queries:
            cache.get_or_compute("why", query, db, "V", lambda: "v")
        # Touch the oldest so it is no longer LRU, then overflow.
        cache.get_or_compute("why", queries[0], db, "V", lambda: None)
        cache.get_or_compute("why", parse_query("PROJECT[B](R)"), db, "V", lambda: "w")
        stats = cache.stats()
        assert stats["size"] == 3 and stats["evictions"] == 1
        assert cache.peek("why", queries[0], db, "V") == "v"  # survivor kept
        assert cache.peek("why", queries[1], db, "V") is None  # LRU evicted

    def test_stats_report_no_byte_accounting(self):
        stats = ProvenanceCache().stats()
        assert not {"approx_bytes", "bytes_high_water", "max_bytes"} & set(stats)
        with pytest.raises(ValueError):
            ProvenanceCache(maxsize=0)


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
