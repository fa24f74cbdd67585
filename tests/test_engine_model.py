"""A stateful model of the serving engine.

Hypothesis drives one warm :class:`ServiceEngine` through random sequences
of re-registrations, writes and reads, over queries of every class the
deletion dispatchers route (SPU, SJ, a chain-join PJ, a join-union, a
``RENAME`` self-join) plus two with empty views.  A plain
:class:`Database` is the model.  After each step:

* every read answer, after :func:`encode_response`, equals a cold
  engine's over ``Database(list(db.relations))`` — a value-equal copy
  with its own identity, so no warm entry or identity-keyed cache entry
  can serve it;
* every write reports the model's net counts and leaves the engine's
  database equal to the model;
* ``service.requests`` moves by exactly one per answer, batched
  hypotheticals included.

``REPRO_MODEL_EXAMPLES`` and ``REPRO_MODEL_STEPS`` lengthen the run
(defaults keep it to a few seconds)::

    REPRO_MODEL_EXAMPLES=200 REPRO_MODEL_STEPS=60 \\
        PYTHONPATH=src python -m pytest tests/test_engine_model.py -q
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.algebra import Database, Relation, parse_query
from repro.observability import default_registry
from repro.oracle import interpret_view_rows
from repro.service import (
    DeleteRequest,
    EvaluateRequest,
    HypotheticalRequest,
    MicroBatcher,
    ServiceEngine,
    WhereRequest,
    WhyRequest,
    encode_response,
)
from repro.service.requests import ApplyDeltaRequest

SCHEMAS = {
    "R": ("A", "B"),
    "S": ("B", "C"),
    "U": ("C", "D"),
    "E": ("A", "B"),  # starts empty
}

QUERIES = [
    "PROJECT[A](SELECT[B != 2](R)) UNION PROJECT[A](E)",  # SPU
    "SELECT[A != C](R JOIN S)",  # SJ
    "PROJECT[A, D](R JOIN S JOIN U)",  # chain-join PJ
    "PROJECT[B](R JOIN S) UNION PROJECT[B](S)",  # join + union
    "PROJECT[A, A2](R JOIN RENAME[A -> A2](R))",  # RENAME self-join
    "PROJECT[A, C](E JOIN S)",  # empty until E is written
    "SELECT[A = 9](R)",  # always empty
]

VALUES = st.integers(min_value=0, max_value=3)
ROWS = st.tuples(VALUES, VALUES)
NAMES = st.sampled_from(sorted(SCHEMAS))


class EngineModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = None
        self.batcher = None
        self.db = None
        self.requests = default_registry().counter("service.requests")

    @initialize(
        rows=st.fixed_dictionaries(
            {name: st.sets(ROWS, min_size=1, max_size=5) for name in "RSU"}
        )
    )
    def start(self, rows):
        self.db = Database(
            [
                Relation(name, SCHEMAS[name], rows.get(name, ()))
                for name in sorted(SCHEMAS)
            ]
        )
        self.engine = ServiceEngine({"db": self.db})
        self.batcher = MicroBatcher(self.engine, max_delay_s=0.001)

    def teardown(self):
        if self.batcher is not None:
            self.batcher.close()
        if self.engine is not None:
            self.engine.close()

    # -- helpers --------------------------------------------------------
    def _served(self, request):
        before = self.requests.value
        answer = encode_response(self.engine.execute(request))
        assert self.requests.value - before == 1, request
        return answer

    def _cold(self, request):
        with ServiceEngine({"db": Database(list(self.db.relations))}) as cold:
            return encode_response(cold.execute(request))

    def _read(self, request):
        assert self._served(request) == self._cold(request), request

    def _write(self, deletions=(), inserts=()):
        expected = self.db.apply(
            {p for p in deletions if p[1] in self.db[p[0]].rows} - set(inserts),
            {p for p in inserts if p[1] not in self.db[p[0]].rows},
        )
        deleted = sum(len(self.db[n].rows - expected[n].rows) for n in SCHEMAS)
        inserted = sum(len(expected[n].rows - self.db[n].rows) for n in SCHEMAS)
        answer = self._served(ApplyDeltaRequest("db", deletions, inserts))
        assert answer["ok"], answer
        assert (answer["deleted"], answer["inserted"]) == (deleted, inserted)
        self.db = expected

    def _sources(self):
        return sorted(self.db.all_source_tuples(), key=repr)

    def _attributes(self, text):
        catalog = {name: self.db[name].schema for name in self.db}
        return parse_query(text).output_schema(catalog).attributes

    def _row(self, data, text):
        """A view row of ``text``, or sometimes one outside the view."""
        view = sorted(interpret_view_rows(parse_query(text), self.db), key=repr)
        if view and data.draw(st.booleans()):
            return data.draw(st.sampled_from(view))
        return tuple(data.draw(VALUES) for _ in self._attributes(text))

    def _candidate(self, data):
        sources = self._sources()
        picked = set()
        if sources:
            picked = data.draw(st.sets(st.sampled_from(sources), max_size=2))
        if data.draw(st.booleans()):
            picked.add(("R", (9, 9)))  # never stored: changes nothing
        return frozenset(picked)

    # -- registration ---------------------------------------------------
    @rule(changed=st.booleans(), data=st.data())
    def register(self, changed, data):
        relations = list(self.db.relations)
        if changed:
            i = data.draw(st.integers(0, len(relations) - 1))
            old = relations[i]
            rows = set(old.rows) ^ {data.draw(ROWS)}
            relations[i] = Relation(old.name, old.schema, rows)
        self.db = Database(relations)
        self.engine.register_database("db", self.db)

    # -- writes ---------------------------------------------------------
    @precondition(lambda self: self.db.all_source_tuples())
    @rule(data=st.data())
    def delete_tuple(self, data):
        self._write(deletions=[data.draw(st.sampled_from(self._sources()))])

    @rule(name=NAMES, row=ROWS)
    def insert_tuple(self, name, row):
        self._write(inserts=[(name, row)])

    @precondition(lambda self: any(not rel.rows for rel in self.db.relations))
    @rule(data=st.data(), rows=st.sets(ROWS, min_size=1, max_size=2))
    def insert_into_empty(self, data, rows):
        empty = sorted(rel.name for rel in self.db.relations if not rel.rows)
        name = data.draw(st.sampled_from(empty))
        self._write(inserts=[(name, row) for row in rows])

    @precondition(lambda self: self.db.all_source_tuples())
    @rule(data=st.data(), text=st.sampled_from(QUERIES))
    def delete_then_reinsert(self, data, text):
        victim = data.draw(st.sampled_from(self._sources()))
        self._write(deletions=[victim])
        self._read(EvaluateRequest("db", text))
        self._write(inserts=[victim])

    @rule(data=st.data())
    def no_op_write(self, data):
        sources = self._sources()
        if sources and data.draw(st.booleans()):
            self._write(inserts=[data.draw(st.sampled_from(sources))])
        else:
            self._write()

    # -- reads ----------------------------------------------------------
    @rule(text=st.sampled_from(QUERIES))
    def evaluate(self, text):
        self._read(EvaluateRequest("db", text))

    @rule(text=st.sampled_from(QUERIES), data=st.data())
    def why(self, text, data):
        self._read(WhyRequest("db", text, self._row(data, text)))

    @rule(text=st.sampled_from(QUERIES), data=st.data())
    def where(self, text, data):
        row = self._row(data, text)
        attributes = list(self._attributes(text)) + ["Z"]
        attribute = data.draw(st.sampled_from(attributes))
        self._read(WhereRequest("db", text, row, attribute))

    @rule(text=st.sampled_from(QUERIES), data=st.data())
    def hypothetical(self, text, data):
        self._read(HypotheticalRequest("db", text, self._candidate(data)))

    @rule(text=st.sampled_from(QUERIES), data=st.data())
    def hypothetical_batched(self, text, data):
        requests = [
            HypotheticalRequest("db", text, self._candidate(data))
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        before = self.requests.value
        futures = [self.batcher.submit(request) for request in requests]
        answers = [encode_response(f.result(timeout=10)) for f in futures]
        assert self.requests.value - before == len(requests)
        assert answers == [self._cold(request) for request in requests]

    @rule(
        text=st.sampled_from(QUERIES),
        objective=st.sampled_from(["view", "source"]),
        exact=st.booleans(),
        data=st.data(),
    )
    def delete(self, text, objective, exact, data):
        target = self._row(data, text)
        self._read(DeleteRequest("db", text, target, objective, exact))

    @invariant()
    def engine_holds_the_model(self):
        if self.db is not None:
            served = self.engine.database("db")
            assert {n: served[n].rows for n in served} == {
                n: self.db[n].rows for n in self.db
            }


EngineModel.TestCase.settings = settings(
    max_examples=int(os.environ.get("REPRO_MODEL_EXAMPLES", "25")),
    stateful_step_count=int(os.environ.get("REPRO_MODEL_STEPS", "20")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEngineModel = EngineModel.TestCase
