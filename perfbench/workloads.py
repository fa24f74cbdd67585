"""The benchmark's workloads: databases, request streams, reference answers.

Every input is a pure function of the workload name and the seed.  A
workload is a database (written as the JSON file ``repro serve`` loads), a
list of warm-up requests (at least one per query and request kind the
stream uses; their answers end set-up), a *pool* of wire requests and an
*order*: the request with id ``i`` in the measured window is
``pool[order[i]]``.

* ``probe_small`` — ``hypothetical`` probes of 1-2 source tuples on a
  ``chain_workload(3, 12)`` view.  The kernel costs a few microseconds per
  candidate, so nearly all server time is the front door and the batcher.
* ``probe_wide`` — the same client shape on ``usergroup_workload`` at 8k
  users (about 32k view rows) with 16-tuple deletion sets.  Here the
  witness kernel (``provenance/bitset``) dominates and set-up includes a
  real witness build.
* ``write_mix`` — one curator with one request outstanding, cycling reads,
  a probe, a chain-join min-cut solve and a delete/re-insert write pair
  over one database holding SJ and chain relations.  Every cycle leaves
  the database as it found it, so later cycles cost what earlier ones did.

Probe answers do not depend on state, so their reference answers come from
one in-process ``ServiceEngine`` call per pool entry.  ``write_mix`` is
stateful; its reference answers come from replaying the same request
sequence, warm-ups first, through an in-process engine.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.algebra import evaluate
from repro.algebra.parser import parse_query
from repro.algebra.relation import Database
from repro.cli import load_database
from repro.service import ServiceEngine, decode_request, encode_response
from repro.workloads import chain_workload, sj_workload, usergroup_workload

DB_NAME = "db"

CHAIN_QUERY = "PROJECT[A1, A4](R1 JOIN R2 JOIN R3)"
SJ_QUERY = "SELECT[A != C](R JOIN S)"
USERGROUP_QUERY = "PROJECT[user, file](UserGroup JOIN GroupFile)"

#: Latency class of each request kind; every percentile is taken over one.
KIND_CLASS = {
    "hypothetical": "probe",
    "why": "read",
    "where": "read",
    "evaluate": "read",
    "apply_delta": "write",
    "delete": "solve",
}

#: Distinct probe candidates per probe workload; the stream repeats
#: seeded permutations of the pool, so a batch rarely holds duplicates.
PROBE_POOL = 1024


@dataclass
class Workload:
    name: str
    database: Database
    warmup: List[dict]
    pool: List[dict]
    order: List[int]
    #: Connections the client opens and requests it keeps in flight on each.
    connections: int
    depth: int
    #: True when answers depend on earlier writes (reference = replay).
    stateful: bool
    #: A window sends a whole number of these many requests.  For
    #: ``write_mix`` it is one pass over every cycle, so the window ends
    #: with the database in its initial state and every count per request
    #: is the same on every run of a seed.
    align: int = 1

    def db_payload(self) -> dict:
        return {
            "relations": [
                {
                    "name": rel.name,
                    "schema": list(rel.schema.attributes),
                    "rows": sorted([list(row) for row in rel.rows], key=repr),
                }
                for rel in self.database.relations
            ]
        }


def _probe(query: str, deletions) -> dict:
    return {
        "kind": "hypothetical",
        "database": DB_NAME,
        "query": query,
        "deletions": [[rel, list(row)] for rel, row in sorted(deletions, key=repr)],
    }


def _source_tuples(db: Database) -> List[tuple]:
    return sorted(
        ((rel.name, row) for rel in db.relations for row in rel.rows), key=repr
    )


def _probe_order(rng: random.Random, pool_size: int, length: int) -> List[int]:
    order: List[int] = []
    while len(order) < length:
        perm = list(range(pool_size))
        rng.shuffle(perm)
        order.extend(perm)
    return order[:length]


#: View size of every ``probe_small`` instance.  Chain instances of this
#: size have 11 to 38 view rows depending on the seed, and the answer
#: sizes with them; fixing the view size keeps the work per probe the same
#: on every seed while the seed still picks the instance and the stream.
PROBE_SMALL_VIEW_ROWS = 24


def probe_small(seed: int, length: int) -> Workload:
    query = parse_query(CHAIN_QUERY)
    for attempt in range(1000):
        db, _, _ = chain_workload(3, 12, seed=seed * 1000 + attempt)
        if len(evaluate(query, db).rows) == PROBE_SMALL_VIEW_ROWS:
            break
    else:
        raise RuntimeError(f"no chain instance with {PROBE_SMALL_VIEW_ROWS} view rows for seed {seed}")
    rng = random.Random(seed)
    sources = _source_tuples(db)
    candidates = set()
    while len(candidates) < min(PROBE_POOL, len(sources) * (len(sources) + 1) // 2):
        candidates.add(frozenset(rng.sample(sources, rng.choice((1, 2)))))
    pool = [_probe(CHAIN_QUERY, c) for c in sorted(candidates, key=lambda c: sorted(map(repr, c)))]
    return Workload(
        "probe_small",
        db,
        warmup=[_probe(CHAIN_QUERY, ())],
        pool=pool,
        order=_probe_order(rng, len(pool), length),
        connections=2,
        depth=32,
        stateful=False,
    )


def probe_wide(seed: int, length: int) -> Workload:
    db, _, _ = usergroup_workload(8000, 1000, 2000, seed=seed)
    rng = random.Random(seed)
    sources = _source_tuples(db)
    pool = [_probe(USERGROUP_QUERY, rng.sample(sources, 16)) for _ in range(PROBE_POOL)]
    return Workload(
        "probe_wide",
        db,
        warmup=[_probe(USERGROUP_QUERY, ())],
        pool=pool,
        order=_probe_order(rng, len(pool), length),
        connections=2,
        depth=32,
        stateful=False,
    )


#: Distinct curator cycles in ``write_mix``; the stream repeats them.
WRITE_MIX_CYCLES = 64


def write_mix(seed: int, length: int) -> Workload:
    sj_db, _, _ = sj_workload(60, seed=seed)
    chain_db, _, _ = chain_workload(3, 40, seed=seed)
    db = Database(list(sj_db.relations) + list(chain_db.relations))
    queries = {SJ_QUERY: parse_query(SJ_QUERY), CHAIN_QUERY: parse_query(CHAIN_QUERY)}
    views = {text: sorted(evaluate(q, db).rows, key=repr) for text, q in queries.items()}
    rng = random.Random(seed)
    sources = _source_tuples(db)
    chain_sources = [t for t in sources if t[0].startswith("R") and t[0] != "R"]

    def why(query: str, row) -> dict:
        return {"kind": "why", "database": DB_NAME, "query": query, "row": list(row)}

    def where(row, attribute: str) -> dict:
        return {"kind": "where", "database": DB_NAME, "query": SJ_QUERY, "row": list(row), "attribute": attribute}

    def solve(target) -> dict:
        return {
            "kind": "delete",
            "database": DB_NAME,
            "query": CHAIN_QUERY,
            "target": list(target),
            "objective": "source",
            "exact": True,
        }

    def write_pair(source) -> List[dict]:
        """A delete of ``source`` and its re-insert."""
        pair = [[source[0], list(source[1])]]
        return [
            {"kind": "apply_delta", "database": DB_NAME, "deletions": pair, "inserts": []},
            {"kind": "apply_delta", "database": DB_NAME, "deletions": [], "inserts": pair},
        ]

    evaluate_chain = {"kind": "evaluate", "database": DB_NAME, "query": CHAIN_QUERY}
    cycles: List[List[dict]] = []
    for _ in range(WRITE_MIX_CYCLES):
        sj_row = rng.choice(views[SJ_QUERY])
        cycle = [
            why(SJ_QUERY, rng.choice(views[SJ_QUERY])),
            why(CHAIN_QUERY, rng.choice(views[CHAIN_QUERY])),
            why(SJ_QUERY, rng.choice(views[SJ_QUERY])),
            where(sj_row, rng.choice(("A", "B", "C"))),
            evaluate_chain,
            _probe(CHAIN_QUERY, rng.sample(chain_sources, rng.choice((1, 2)))),
            solve(rng.choice(views[CHAIN_QUERY])),
        ]
        # A delete/re-insert pair with a read of the changed view between:
        # the read names a row that survives the deletion.
        while True:
            victim = rng.choice(sources)
            query = SJ_QUERY if victim[0] in ("R", "S") else CHAIN_QUERY
            after = sorted(evaluate(queries[query], db.delete([victim])).rows, key=repr)
            if after:
                break
        delete, insert = write_pair(victim)
        cycles.append(cycle + [delete, why(query, rng.choice(after)), insert])
    pool = [request for cycle in cycles for request in cycle]
    # The warm-up ends like every cycle, with a write pair, so the first
    # cycle of the window starts from the cache state every later one does.
    warmup = [
        why(SJ_QUERY, views[SJ_QUERY][0]),
        why(CHAIN_QUERY, views[CHAIN_QUERY][0]),
        where(views[SJ_QUERY][0], "A"),
        evaluate_chain,
        _probe(CHAIN_QUERY, ()),
        solve(views[CHAIN_QUERY][0]),
    ] + write_pair(sources[0])
    return Workload(
        "write_mix",
        db,
        warmup=warmup,
        pool=pool,
        order=[i % len(pool) for i in range(length)],
        connections=1,
        depth=1,
        stateful=True,
        align=len(pool),
    )


WORKLOADS = {"probe_small": probe_small, "probe_wide": probe_wide, "write_mix": write_mix}


def _answer(engine: ServiceEngine, wire: dict) -> dict:
    response = engine.execute(decode_request(wire))
    # The client sees the answer after a JSON round trip.
    return json.loads(json.dumps(encode_response(response)))


def reference_answers(
    workload: Workload, db_path: str, served: Sequence[int]
) -> Tuple[List[dict], Dict[int, dict]]:
    """The expected decoded answers (without ``id``): the warm-ups', and
    one per served request id.

    ``served`` lists the request ids the window sent, which for a stateful
    workload must be a prefix ``0..n-1`` of the order.
    """
    with ServiceEngine({DB_NAME: load_database(db_path)}) as engine:
        warm = [_answer(engine, wire) for wire in workload.warmup]
        if workload.stateful:
            if list(served) != list(range(len(served))):
                raise ValueError("a stateful stream must be served as a prefix")
            return warm, {i: _answer(engine, workload.pool[workload.order[i]]) for i in served}
        by_pool: Dict[int, dict] = {}
        expected: Dict[int, dict] = {}
        for i in served:
            slot = workload.order[i]
            if slot not in by_pool:
                by_pool[slot] = _answer(engine, workload.pool[slot])
            expected[i] = by_pool[slot]
        return warm, expected
