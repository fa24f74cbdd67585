"""One differential harness: every live executor against :mod:`repro.oracle`.

Production runs one executor per semantics per platform — the numpy
columnar kernels where numpy imports, the tuple ``PlanNode`` executor
otherwise — and the serving engine routes requests to whichever is live.
On random (database, query) pairs this module checks each of them against
the two oracles: both executors at optimizer levels 0 and 1, and the
engine at the level it serves, ``DEFAULT_OPTIMIZER_LEVEL``:

* the view ``Q(S)`` against ``interpret_view_rows``;
* minimal witnesses against ``legacy_witnesses``;
* hypothetical survival against ``interpret_view_rows(query, db.delete(T))``,
  for single candidates and for a vector long enough to take the
  vectorized kernel;
* the served ``where`` of every attribute of a few rows, and of fields
  outside the view, against the plan's where executor
  (``where_provenance``) — derived from the warm witnesses where the plan
  has a column map, the where executor's own fallback where it does not
  (the absorption shapes);
* an exact source ``delete`` of a few rows against
  ``minimum_source_deletion`` without ``prov=`` (so the chain-join min cut
  scans the database instead of reading the warm witnesses).

A replay of write-heavy curator cycles (why, where, evaluate, a probe, an
exact source deletion, a delete/re-insert write pair) runs twice through
one engine, and every read answer must equal a cold engine's over a
value-equal copy of the database: warm state must not depend on history.
On the second pass the warm engine must do no cold work: no witness build,
no cold entry and no where-provenance pass.

Every check runs before and after one ``apply_delta`` of mixed deletions
and inserts, so the patched state (store, witness kernel, warm oracle) is
held to the same oracles as a cold build; the long vector runs on both
sides of the write, so a patched kernel never answers from matrices built
before it.  The module runs on both numpy legs; the columnar checks run
where numpy imports, and the long vector takes the survival index where
scipy does not.

It also guards the layout: no module under ``src/repro`` other than
``repro/oracle.py`` may import the oracles, and without numpy the column
store refuses to exist while the engine serves on the tuple executor.
"""

from __future__ import annotations

import ast
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.algebra import DEFAULT_OPTIMIZER_LEVEL, Database, Relation, parse_query
from repro.algebra.plan import compile_plan
from repro.columnar import HAVE_NUMPY, ColumnStore
from repro.deletion import minimum_source_deletion
from repro.errors import InfeasibleError, ReproError
from repro.observability import default_registry
from repro.oracle import interpret_view_rows, legacy_witnesses
from repro.provenance import SourceIndex, provenance_cache
from repro.provenance.bitset import VECTORIZED_MIN_BATCH
from repro.provenance.cache import cached_plan
from repro.provenance import where as where_module
from repro.provenance.where import where_provenance
from repro.service import (
    DeleteRequest,
    EvaluateRequest,
    HypotheticalRequest,
    ServiceEngine,
    WhereRequest,
    WhyRequest,
    encode_response,
)
from repro.service.requests import ApplyDeltaRequest
from repro.workloads import chain_workload, random_instance, sj_workload
from repro.workloads.random_instances import _VALUE_POOL

seeds = st.integers(min_value=0, max_value=100_000)


def _plan(query, db, level):
    catalog = {name: db[name].schema for name in db}
    return compile_plan(query, catalog, optimizer_level=level)


def _decoded(masks_by_row, index):
    """``row -> masks`` decoded to ``row -> frozenset of source-tuple sets``."""
    return {
        row: frozenset(index.decode_mask(mask) for mask in masks)
        for row, masks in masks_by_row.items()
    }


def _check_tuple_executor(query, db, level, rows, witnesses):
    plan = _plan(query, db, level)
    assert plan.rows(db) == rows
    index = SourceIndex()
    assert _decoded(plan.annotated_rows(db, index), index) == witnesses


def _check_columnar(query, db, level, rows, witnesses, store):
    plan = _plan(query, db, level)
    assert plan.rows_columnar(store) == rows
    index = store.index
    table = plan.annotated_table_columnar(store, index)
    assert _decoded(table.to_masks(), index) == witnesses


def _served_witnesses(witnesses):
    """A witness set in the engine's wire order."""
    return tuple(
        sorted((tuple(sorted(w, key=repr)) for w in witnesses), key=repr)
    )


def _check_engine(engine, text, query, db, candidates):
    rows = interpret_view_rows(query, db)
    evaluated = engine.execute(EvaluateRequest("db", text))
    assert evaluated.ok, evaluated
    assert evaluated.rows == tuple(sorted(rows, key=repr))
    witnesses = legacy_witnesses(query, db)
    for row in sorted(rows, key=repr)[:4]:
        why = engine.execute(WhyRequest("db", text, row))
        assert why.ok, why
        assert why.witnesses == _served_witnesses(witnesses[row])
    for deletions in candidates:
        after = interpret_view_rows(query, db.delete(deletions))
        hypo = engine.execute(HypotheticalRequest("db", text, deletions))
        assert hypo.ok, hypo
        assert hypo.destroyed == tuple(sorted(rows - after, key=repr))
        assert hypo.surviving == len(after)
    _check_where(engine, text, query, db, rows)
    _check_delete(engine, text, query, db, rows)


def _check_where(engine, text, query, db, rows):
    """Served ``where`` == the plan's where executor, errors included."""
    reference = where_provenance(query, db)
    attributes = reference.schema.attributes
    outside = tuple("no such value" for _ in attributes)
    fields = [
        (row, attribute)
        for row in sorted(rows, key=repr)[:3]
        for attribute in attributes
    ] + [(outside, attributes[0] if attributes else "A"), (outside, "no_attr")]
    if rows:
        fields.append((min(rows, key=repr), "no_attr"))
    for row, attribute in fields:
        served = engine.execute(WhereRequest("db", text, row, attribute))
        try:
            expected = reference.backward(row, attribute)
        except InfeasibleError as error:
            assert not served.ok and served.error == str(error), served
            continue
        assert served.ok, served
        assert served.locations == tuple(sorted(expected, key=repr))


def _check_delete(engine, text, query, db, rows):
    """An exact source deletion == the dispatcher without the warm table."""
    for row in sorted(rows, key=repr)[:2]:
        served = engine.execute(
            DeleteRequest("db", text, row, objective="source", exact=True)
        )
        assert served.ok, served
        expected = minimum_source_deletion(query, db, row)
        assert served.algorithm == expected.algorithm
        assert served.deletions == expected.sorted_deletions()
        assert served.side_effects == tuple(
            sorted(expected.side_effects, key=repr)
        )


def _check_long_vector(engine, text, query, db, candidates):
    """A vector past the vectorized threshold, on the engine's warm kernel."""
    kernel = engine.oracle("db", text).provenance.kernel
    vector = [
        candidates[i % len(candidates)] for i in range(VECTORIZED_MIN_BATCH + 2)
    ]
    rows = interpret_view_rows(query, db)
    expected = {
        d: rows - interpret_view_rows(query, db.delete(d)) for d in candidates
    }
    encoded = [kernel.encode_deletions_auto(d) for d in vector]
    assert kernel.batch_destroyed(encoded) == [expected[d] for d in vector]


def _candidates(db, rng):
    """A few deletion sets over the database's current source tuples."""
    sources = sorted(db.all_source_tuples(), key=repr)
    return [frozenset()] + [
        frozenset(rng.sample(sources, rng.randint(1, min(3, len(sources)))))
        for _ in range(4)
        if sources
    ]


def _mixed_delta(db, rng):
    """Up to two deletions and two inserts, as (relation, row) pairs."""
    sources = sorted(db.all_source_tuples(), key=repr)
    deletions = rng.sample(sources, min(2, len(sources)))
    inserts = []
    for name in rng.sample(sorted(db.names()), min(2, len(db.names()))):
        arity = db[name].schema.arity
        inserts.append((name, tuple(rng.choice(_VALUE_POOL) for _ in range(arity))))
    return deletions, inserts


def _run_differential(db, query, level, rng):
    """Every live executor == the oracles, before and after one delta: the
    executors at ``level``, the engine at the level it serves."""
    text = repr(query)
    provenance_cache.clear()
    with ServiceEngine({"db": db}) as engine:
        engine.register_query(text, query)
        store = ColumnStore(db) if HAVE_NUMPY else None
        current = db
        for step in range(2):
            rows = interpret_view_rows(query, current)
            witnesses = legacy_witnesses(query, current)
            _check_tuple_executor(query, current, level, rows, witnesses)
            if store is not None:
                _check_columnar(query, current, level, rows, witnesses, store)
            candidates = _candidates(current, rng)
            _check_engine(engine, text, query, current, candidates)
            _check_long_vector(engine, text, query, current, candidates)
            if step == 1:
                break
            deletions, inserts = _mixed_delta(current, rng)
            applied = engine.apply_delta("db", deletions, inserts)
            assert applied.ok, applied
            new_db = engine.database("db")
            expected = current.apply(deletions, inserts)
            assert {n: new_db[n].rows for n in new_db} == {
                n: expected[n].rows for n in expected
            }
            if store is not None:
                before = set(current.all_source_tuples())
                store = store.apply_delta(
                    new_db,
                    _by_name(before & set(deletions) - set(inserts)),
                    _by_name(set(inserts) - before),
                )
            current = new_db


#: Shapes whose witness sets need absorption (a witness of one row is a
#: strict subset of another's, and both meet in one output row), which
#: random instances reach only rarely.
_ABSORPTION_QUERIES = [
    "PROJECT[A](R UNION RENAME[C -> B](PROJECT[A, C](R JOIN S)))",
    "PROJECT[A](R JOIN S) UNION PROJECT[A](R)",
    "PROJECT[A](R JOIN RENAME[A -> A2](R))",
]


def _absorption_db():
    return Database(
        [
            Relation("R", ["A", "B"], [(1, 2), (1, 3), (2, 2), (3, 0)]),
            Relation("S", ["B", "C"], [(2, 7), (3, 1), (0, 0)]),
        ]
    )


class TestExecutorsMatchOracles:
    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, level=st.sampled_from([0, 1]))
    def test_before_and_after_apply_delta(self, seed, level):
        db, query = random_instance(seed, max_depth=3)
        _run_differential(db, query, level, random.Random(seed))

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("text", _ABSORPTION_QUERIES)
    def test_absorption_shapes(self, text, level):
        query = parse_query(text)
        # No column map: the served where takes the where executor's path.
        assert cached_plan(query, _absorption_db()).where_columns is None
        _run_differential(_absorption_db(), query, level, random.Random(7))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chain_join_shapes(self, seed):
        """Random instances rarely form a chain; the min cut needs some."""
        db, query, _ = chain_workload(3, 8, seed=seed)
        _run_differential(db, query, 1, random.Random(seed))


#: The two queries of a write-heavy curator session, an SJ query (a
#: selection over a two-relation join) and a three-relation chain join,
#: over one database holding both.
_SJ_TEXT = "SELECT[A != C](R JOIN S)"
_CHAIN_TEXT = "PROJECT[A1, A4](R1 JOIN R2 JOIN R3)"


def _history_cycles(db, cycles, rng):
    """Request cycles shaped like a curator's session.

    Each cycle reads (why, where, evaluate), probes a hypothetical
    deletion, solves an exact source-side deletion, then deletes a source
    tuple, reads a row that survives it, and re-inserts the tuple, so
    every cycle leaves the database as it found it.
    """
    queries = {t: parse_query(t) for t in (_SJ_TEXT, _CHAIN_TEXT)}
    views = {
        t: sorted(interpret_view_rows(q, db), key=repr) for t, q in queries.items()
    }
    sources = sorted(db.all_source_tuples(), key=repr)
    chain_sources = [t for t in sources if t[0] in ("R1", "R2", "R3")]
    out = []
    for _ in range(cycles):
        sj_row = rng.choice(views[_SJ_TEXT])
        while True:
            victim = rng.choice(sources)
            text = _SJ_TEXT if victim[0] in ("R", "S") else _CHAIN_TEXT
            after = sorted(
                interpret_view_rows(queries[text], db.delete([victim])), key=repr
            )
            if after:
                break
        pair = frozenset({victim})
        out.append(
            [
                WhyRequest("db", _SJ_TEXT, rng.choice(views[_SJ_TEXT])),
                WhyRequest("db", _CHAIN_TEXT, rng.choice(views[_CHAIN_TEXT])),
                WhereRequest("db", _SJ_TEXT, sj_row, rng.choice("ABC")),
                EvaluateRequest("db", _CHAIN_TEXT),
                HypotheticalRequest(
                    "db",
                    _CHAIN_TEXT,
                    frozenset(rng.sample(chain_sources, rng.choice((1, 2)))),
                ),
                DeleteRequest(
                    "db",
                    _CHAIN_TEXT,
                    rng.choice(views[_CHAIN_TEXT]),
                    objective="source",
                    exact=True,
                ),
                ApplyDeltaRequest("db", deletions=pair),
                WhyRequest("db", text, rng.choice(after)),
                ApplyDeltaRequest("db", inserts=pair),
            ]
        )
    return out


class TestWarmStateHasNoHistory:
    """Warm answers equal cold ones, however many writes came before.

    One engine serves every cycle twice; each read answer must equal, on
    the wire, the answer of a cold engine over a value-equal copy of the
    database at that moment.  The copy has its own identity, so no
    identity-keyed cache entry of the warm engine can serve the cold one.
    """

    CYCLES = 16

    def test_replayed_cycles_match_cold_engines(self, monkeypatch):
        sj_db, _, _ = sj_workload(60, seed=1)
        chain_db, _, _ = chain_workload(3, 40, seed=1)
        db = Database(list(sj_db.relations) + list(chain_db.relations))
        cycles = _history_cycles(db, self.CYCLES, random.Random(1))
        checked = 0
        where_builds = []
        build = where_module.where_provenance

        def counted_where_provenance(*args, **kwargs):
            where_builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(
            where_module, "where_provenance", counted_where_provenance
        )
        registry = default_registry()
        witness_builds = registry.histogram("provenance.witness_build_seconds")
        cold_builds = registry.counter("service.oracle.cold_builds")

        def cold_work():
            return (witness_builds.count, cold_builds.value, len(where_builds))

        with ServiceEngine({"db": db}) as engine:
            for second_pass in (False, True):
                for cycle in cycles:
                    for request in cycle:
                        before = cold_work()
                        answer = encode_response(engine.execute(request))
                        assert answer["ok"], (request, answer)
                        if second_pass:
                            # Steady state: every read and write is served
                            # from, or patches, the warm entries.
                            assert cold_work() == before, request
                        if isinstance(request, ApplyDeltaRequest):
                            assert answer["deleted"] + answer["inserted"] == 1
                            continue
                        copy = Database(list(engine.database("db").relations))
                        with ServiceEngine({"db": copy}) as cold:
                            expected = encode_response(cold.execute(request))
                        assert answer == expected, request
                        checked += 1
            assert {n: engine.database("db")[n].rows for n in db.names()} == {
                n: db[n].rows for n in db.names()
            }
        assert checked == 2 * self.CYCLES * 7


def _by_name(pairs):
    """Net (relation, row) pairs grouped as ``{relation: [rows]}``."""
    out = {}
    for name, row in pairs:
        out.setdefault(name, []).append(row)
    return out


# ----------------------------------------------------------------------
# Layout guards
# ----------------------------------------------------------------------

_ORACLE_NAMES = {"interpret_view_rows", "legacy_witnesses"}


def _oracle_imports(path):
    """(line, what) for every import of the oracles in one source file."""
    tree = ast.parse(open(path, encoding="utf-8").read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                (node.lineno, alias.name)
                for alias in node.names
                if alias.name == "repro.oracle"
            ]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if (
                module == "repro.oracle"
                or (module == "repro" and "oracle" in names)
                or (node.level and module == "oracle")
            ):
                found.append((node.lineno, f"from {module} import ..."))
            found += [(node.lineno, name) for name in sorted(names & _ORACLE_NAMES)]
    return found


class TestLayout:
    def test_only_the_oracle_module_holds_the_oracles(self):
        package = os.path.dirname(repro.__file__)
        offenders = []
        for folder, _dirs, files in os.walk(package):
            for name in files:
                path = os.path.join(folder, name)
                if not name.endswith(".py"):
                    continue
                if os.path.relpath(path, package) == "oracle.py":
                    continue
                offenders += [
                    (os.path.relpath(path, package), line, what)
                    for line, what in _oracle_imports(path)
                ]
        assert offenders == []

    def test_oracles_are_not_reexported(self):
        import repro.algebra
        import repro.provenance

        for module in (repro, repro.algebra, repro.provenance):
            for name in ("interpret_view_rows", "minimize_monomials", "legacy_witnesses"):
                assert not hasattr(module, name), (module.__name__, name)

    def test_the_engine_serves_the_default_level(self, usergroup_db):
        with pytest.raises(TypeError):
            ServiceEngine({"db": usergroup_db}, optimizer_level=0)
        text = "PROJECT[user, file](UserGroup JOIN GroupFile)"
        with ServiceEngine({"db": usergroup_db}) as engine:
            plan = engine.oracle("db", text).plan
        assert plan.optimizer_level == DEFAULT_OPTIMIZER_LEVEL

    @pytest.mark.skipif(HAVE_NUMPY, reason="the no-numpy leg's contract")
    def test_without_numpy_the_tuple_executor_serves(self, usergroup_db):
        with pytest.raises(ReproError, match="numpy"):
            ColumnStore(usergroup_db)
        text = "PROJECT[user, file](UserGroup JOIN GroupFile)"
        with ServiceEngine({"db": usergroup_db}) as engine:
            assert engine.stats()["columnar"] is False
            query = engine.query(text)
            candidates = [frozenset({s}) for s in usergroup_db.all_source_tuples()]
            _check_engine(engine, text, query, usergroup_db, candidates)
            prov = engine.oracle("db", text).provenance
            assert prov.kernel.build_stats["path"] == "tuple"

    @pytest.mark.requires_numpy
    def test_with_numpy_the_engine_serves_columnar(self, usergroup_db):
        text = "PROJECT[user, file](UserGroup JOIN GroupFile)"
        provenance_cache.clear()
        with ServiceEngine({"db": usergroup_db}) as engine:
            assert engine.stats()["columnar"] is True
            prov = engine.oracle("db", text).provenance
            assert prov.kernel.build_stats["path"] == "columnar-csr"

