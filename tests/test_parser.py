"""Unit tests for the query DSL parser."""

import pytest

from repro.algebra import (
    Database,
    Join,
    Project,
    Relation,
    RelationRef,
    Rename,
    Select,
    Union,
    parse_predicate,
    parse_query,
)
from repro.algebra.predicates import (
    And,
    AttributeRef,
    Comparison,
    Constant,
    Not,
    Or,
    TruePredicate,
)
from repro.algebra.parser import MAX_DEPTH
from repro.errors import ParseError
from repro.service import (
    EvaluateRequest,
    HypotheticalRequest,
    ServiceEngine,
    WhyRequest,
)


class TestQueryParsing:
    def test_bare_relation(self):
        assert parse_query("R") == RelationRef("R")

    def test_project(self):
        q = parse_query("PROJECT[A, B](R)")
        assert isinstance(q, Project) and q.attributes == ("A", "B")

    def test_select(self):
        q = parse_query("SELECT[A = 1](R)")
        assert isinstance(q, Select)
        assert q.predicate == Comparison(AttributeRef("A"), "=", Constant(1))

    def test_rename(self):
        q = parse_query("RENAME[A -> X, B -> Y](R)")
        assert isinstance(q, Rename)
        assert q.mapping_dict == {"A": "X", "B": "Y"}

    def test_join_left_associative(self):
        q = parse_query("R JOIN S JOIN T")
        assert isinstance(q, Join) and isinstance(q.left, Join)

    def test_union_binds_looser_than_join(self):
        q = parse_query("R JOIN S UNION T")
        assert isinstance(q, Union)
        assert isinstance(q.left, Join)

    def test_parentheses_override(self):
        q = parse_query("R JOIN (S UNION T)")
        assert isinstance(q, Join) and isinstance(q.right, Union)

    def test_keywords_case_insensitive(self):
        q = parse_query("project[A](r join s)")
        assert isinstance(q, Project)
        # relation names keep their case
        assert {repr(l) for l in (q.child.left, q.child.right)} == {"r", "s"}

    def test_nested(self):
        q = parse_query("PROJECT[A](SELECT[A = 1](R JOIN S)) UNION PROJECT[A](T)")
        assert isinstance(q, Union)

    def test_roundtrip_through_repr(self):
        text = "PROJECT[A, C](SELECT[A = 1](R JOIN RENAME[B->Z](S)))"
        q = parse_query(text)
        assert parse_query(repr(q)) == q

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "PROJECT[](R)",
            "PROJECT[A](R",
            "R JOIN",
            "SELECT[A=](R)",
            "RENAME[A](R)",
            "R extra",
            "(R",
            "PROJECT[A] R",
        ],
    )
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            parse_query(bad)

    def test_error_carries_position(self):
        try:
            parse_query("R JOIN !")
        except ParseError as err:
            assert err.position == 7
        else:  # pragma: no cover
            pytest.fail("expected ParseError")


class TestPredicateParsing:
    def test_constants_types(self):
        assert parse_predicate("A = 1") == Comparison("A", "=", 1)
        assert parse_predicate("A = 1.5") == Comparison("A", "=", 1.5)
        assert parse_predicate("A = 'joe'") == Comparison("A", "=", "joe")
        assert parse_predicate("A = -2") == Comparison("A", "=", -2)

    def test_string_escapes(self):
        assert parse_predicate(r"A = 'it\'s'") == Comparison("A", "=", "it's")

    def test_attribute_comparison(self):
        assert parse_predicate("A = B") == Comparison(
            AttributeRef("A"), "=", AttributeRef("B")
        )

    def test_and_or_precedence(self):
        pred = parse_predicate("A = 1 OR B = 2 AND A = 3")
        assert isinstance(pred, Or)
        assert isinstance(pred.right, And)

    def test_not(self):
        pred = parse_predicate("NOT A = 1")
        assert isinstance(pred, Not)

    def test_true(self):
        assert isinstance(parse_predicate("TRUE"), TruePredicate)

    def test_parenthesized(self):
        pred = parse_predicate("(A = 1 OR B = 2) AND A = 3")
        assert isinstance(pred, And)
        assert isinstance(pred.left, Or)

    def test_all_operators(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            assert parse_predicate(f"A {op} 1").op == op

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_predicate("A = 1 B")


def _deep_shapes(depth):
    """One query per way of stacking ``depth`` tree levels (or nestings)."""
    inner = depth - 1
    return {
        "select": "SELECT[TRUE](" * inner + "R" + ")" * inner,
        "project": "PROJECT[A, B](" * inner + "R" + ")" * inner,
        "rename": "".join(
            "RENAME[A -> Z](" if i % 2 == 0 else "RENAME[Z -> A]("
            for i in range(inner)
        )
        + "R"
        + ")" * inner,
        "join_chain": " JOIN ".join(["R"] * depth),
        "union_chain": " UNION ".join(["R"] * depth),
        "right_joins": "(R JOIN " * inner + "R" + ")" * inner,
        "parentheses": "(" * depth + "R" + ")" * depth,
        "not_chain": "SELECT[" + "NOT " * (depth - 2) + "A = 1](R)",
        "and_chain": "SELECT[" + " AND ".join(["A = 1"] * inner) + "](R)",
        "predicate_parentheses": (
            "SELECT[" + "(" * inner + "A = 1" + ")" * inner + "](R)"
        ),
    }


class TestDepthLimit:
    """Nesting and tree height are bounded by MAX_DEPTH, on both sides."""

    @pytest.mark.parametrize("shape", sorted(_deep_shapes(MAX_DEPTH)))
    def test_at_limit_parses_and_serves(self, shape):
        """A query at the limit compiles, evaluates and annotates."""
        text = _deep_shapes(MAX_DEPTH)[shape]
        parse_query(text)
        db = Database([Relation("R", ["A", "B"], [(1, 2), (3, 4)])])
        with ServiceEngine({"db": db}) as engine:
            rows = engine.execute(EvaluateRequest("db", text))
            assert rows.ok, rows
            assert set(rows.rows) <= {(1, 2), (3, 4)}
            assert engine.execute(WhyRequest("db", text, (1, 2))).ok
            hypo = engine.execute(
                HypotheticalRequest("db", text, frozenset({("R", (1, 2))}))
            )
            assert hypo.ok and (1, 2) in hypo.destroyed

    @pytest.mark.parametrize("shape", sorted(_deep_shapes(MAX_DEPTH + 1)))
    def test_past_limit_is_a_parse_error(self, shape):
        with pytest.raises(ParseError, match=str(MAX_DEPTH)):
            parse_query(_deep_shapes(MAX_DEPTH + 1)[shape])

    @pytest.mark.parametrize(
        "text",
        [
            "(" * 3000 + "R" + ")" * 3000,
            "SELECT[" + "NOT " * 3000 + "TRUE](R)",
            " UNION ".join(["R"] * 3000),
        ],
    )
    def test_far_past_limit_is_a_parse_error_not_recursion(self, text):
        with pytest.raises(ParseError):
            parse_query(text)

    def test_bare_predicates_are_bounded_too(self):
        parse_predicate(" OR ".join(["A = 1"] * MAX_DEPTH))
        with pytest.raises(ParseError):
            parse_predicate(" OR ".join(["A = 1"] * (MAX_DEPTH + 1)))
        with pytest.raises(ParseError):
            parse_predicate("NOT " * 3000 + "TRUE")
