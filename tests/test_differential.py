"""One differential harness: every live executor against :mod:`repro.oracle`.

Production runs one executor per semantics per platform — the numpy
columnar kernels where numpy imports, the tuple ``PlanNode`` executor
otherwise — and the serving engine routes requests to whichever is live.
On random (database, query) pairs, at optimizer levels 0 and 1, this
module checks each of them against the two oracles:

* the view ``Q(S)`` against ``interpret_view_rows``;
* minimal witnesses against ``legacy_witnesses``;
* hypothetical survival against ``interpret_view_rows(query, db.delete(T))``.

Every check runs before and after one ``apply_delta`` of mixed deletions
and inserts, so the patched state (store, witness kernel, warm oracle) is
held to the same oracles as a cold build.  The module runs on both numpy
legs; the columnar checks run where numpy imports.

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
from repro.algebra import Database, Relation, parse_query
from repro.algebra.plan import compile_plan
from repro.columnar import HAVE_NUMPY, ColumnStore
from repro.errors import ReproError
from repro.oracle import interpret_view_rows, legacy_witnesses
from repro.provenance import SourceIndex, provenance_cache
from repro.service import (
    EvaluateRequest,
    HypotheticalRequest,
    ServiceEngine,
    WhyRequest,
)
from repro.workloads import random_instance
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
    """Every live executor == the oracles, before and after one delta."""
    text = repr(query)
    provenance_cache.clear()
    with ServiceEngine({"db": db}, optimizer_level=level) as engine:
        engine.register_query(text, query)
        store = ColumnStore(db) if HAVE_NUMPY else None
        current = db
        for step in range(2):
            rows = interpret_view_rows(query, current)
            witnesses = legacy_witnesses(query, current)
            _check_tuple_executor(query, current, level, rows, witnesses)
            if store is not None:
                _check_columnar(query, current, level, rows, witnesses, store)
            _check_engine(engine, text, query, current, _candidates(current, rng))
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
        _run_differential(_absorption_db(), parse_query(text), level, random.Random(7))


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

