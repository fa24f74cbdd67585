"""A small text DSL for SPJRU queries.

The grammar (whitespace-insensitive, keywords case-insensitive)::

    query    := term ( "UNION" term )*
    term     := factor ( "JOIN" factor )*
    factor   := "SELECT"  "[" predicate "]" "(" query ")"
              | "PROJECT" "[" attrlist  "]" "(" query ")"
              | "RENAME"  "[" renames   "]" "(" query ")"
              | identifier
              | "(" query ")"
    attrlist := ident ( "," ident )*
    renames  := ident "->" ident ( "," ident "->" ident )*
    predicate:= disj
    disj     := conj ( "OR" conj )*
    conj     := unary ( "AND" unary )*
    unary    := "NOT" unary | "(" predicate ")" | comparison | "TRUE"
    comparison := operand op operand        (op in =, !=, <, <=, >, >=)
    operand  := identifier | number | quoted string

In a comparison, a bare identifier is an attribute reference; numbers and
quoted strings are constants.  Examples::

    PROJECT[user, file](UserGroup JOIN GroupFile)
    SELECT[age >= 21 AND name != 'joe'](People)
    RENAME[A -> B](R) UNION S

:func:`parse_query` returns the AST; :func:`parse_predicate` parses a bare
predicate (useful in tests).

Both refuse input deeper than :data:`MAX_DEPTH` with a
:class:`~repro.errors.ParseError`: every layer below the parser (plan
compilation, the optimizer, both executors, predicate evaluation) walks the
tree recursively, so the bound keeps a hostile query from surfacing as a
raw ``RecursionError``.  Two things are bounded by the same number: the
parser's own nesting (parentheses, ``SELECT``/``PROJECT``/``RENAME``
bodies, ``NOT``), and the height of the finished tree, where a ``SELECT``'s
predicate hangs below it and ``JOIN``/``UNION``/``AND``/``OR`` chains nest
one level per operator.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional

from repro.errors import ParseError
from repro.algebra.ast import Join, Project, Query, RelationRef, Rename, Select, Union
from repro.algebra.predicates import (
    And,
    AttributeRef,
    Comparison,
    Constant,
    Not,
    Or,
    Predicate,
    TruePredicate,
)

__all__ = ["parse_query", "parse_predicate", "MAX_DEPTH"]

#: Deepest nesting, and tallest query/predicate tree, the parser accepts.
MAX_DEPTH = 64


class _Token(NamedTuple):
    kind: str
    text: str
    position: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<punct>[\[\](),])
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"SELECT", "PROJECT", "RENAME", "JOIN", "UNION", "AND", "OR", "NOT", "TRUE"}


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup or ""
        value = match.group()
        if kind != "ws":
            if kind == "ident" and value.upper() in _KEYWORDS:
                tokens.append(_Token("keyword", value.upper(), pos))
            else:
                tokens.append(_Token(kind, value, pos))
        pos = match.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: List[_Token]):
        self._tokens = tokens
        self._index = 0
        self._nesting = 0

    # --- token plumbing -------------------------------------------------
    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        if token.kind != "eof":
            self._index += 1
        return token

    def _expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self._peek()
        if token.kind != kind or (text is not None and token.text != text):
            want = text if text is not None else kind
            raise ParseError(
                f"expected {want!r} but found {token.text or 'end of input'!r}",
                token.position,
            )
        return self._advance()

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        token = self._peek()
        if token.kind == kind and (text is None or token.text == text):
            return self._advance()
        return None

    def _nested(self, parse, token: _Token):
        """``parse()`` one level deeper, refusing nesting past MAX_DEPTH."""
        if self._nesting >= MAX_DEPTH:
            raise ParseError(
                f"nesting deeper than {MAX_DEPTH} levels", token.position
            )
        self._nesting += 1
        node = parse()
        self._nesting -= 1
        return node

    # --- grammar --------------------------------------------------------
    def parse_query(self) -> Query:
        query = self._parse_union()
        token = self._peek()
        if token.kind != "eof":
            raise ParseError(f"unexpected trailing input {token.text!r}", token.position)
        return query

    def _parse_union(self) -> Query:
        node = self._parse_join()
        while self._accept("keyword", "UNION"):
            node = Union(node, self._parse_join())
        return node

    def _parse_join(self) -> Query:
        node = self._parse_factor()
        while self._accept("keyword", "JOIN"):
            node = Join(node, self._parse_factor())
        return node

    def _parse_factor(self) -> Query:
        token = self._peek()
        if token.kind == "keyword" and token.text == "SELECT":
            self._advance()
            self._expect("punct", "[")
            predicate = self._nested(self._parse_predicate, token)
            self._expect("punct", "]")
            self._expect("punct", "(")
            child = self._nested(self._parse_union, token)
            self._expect("punct", ")")
            return Select(child, predicate)
        if token.kind == "keyword" and token.text == "PROJECT":
            self._advance()
            self._expect("punct", "[")
            attrs = [self._expect("ident").text]
            while self._accept("punct", ","):
                attrs.append(self._expect("ident").text)
            self._expect("punct", "]")
            self._expect("punct", "(")
            child = self._nested(self._parse_union, token)
            self._expect("punct", ")")
            return Project(child, attrs)
        if token.kind == "keyword" and token.text == "RENAME":
            self._advance()
            self._expect("punct", "[")
            mapping = {}
            old = self._expect("ident").text
            self._expect("arrow")
            mapping[old] = self._expect("ident").text
            while self._accept("punct", ","):
                old = self._expect("ident").text
                self._expect("arrow")
                mapping[old] = self._expect("ident").text
            self._expect("punct", "]")
            self._expect("punct", "(")
            child = self._nested(self._parse_union, token)
            self._expect("punct", ")")
            return Rename(child, mapping)
        if token.kind == "ident":
            self._advance()
            return RelationRef(token.text)
        if token.kind == "punct" and token.text == "(":
            self._advance()
            node = self._nested(self._parse_union, token)
            self._expect("punct", ")")
            return node
        raise ParseError(
            f"expected a query but found {token.text or 'end of input'!r}",
            token.position,
        )

    # --- predicates -----------------------------------------------------
    def _parse_predicate(self) -> Predicate:
        return self._parse_or()

    def _parse_or(self) -> Predicate:
        node = self._parse_and()
        while self._accept("keyword", "OR"):
            node = Or(node, self._parse_and())
        return node

    def _parse_and(self) -> Predicate:
        node = self._parse_unary()
        while self._accept("keyword", "AND"):
            node = And(node, self._parse_unary())
        return node

    def _parse_unary(self) -> Predicate:
        token = self._peek()
        if self._accept("keyword", "NOT"):
            return Not(self._nested(self._parse_unary, token))
        if self._accept("keyword", "TRUE"):
            return TruePredicate()
        if token.kind == "punct" and token.text == "(":
            self._advance()
            node = self._nested(self._parse_predicate, token)
            self._expect("punct", ")")
            return node
        return self._parse_comparison()

    def _parse_comparison(self) -> Predicate:
        left = self._parse_operand()
        op = self._expect("op").text
        right = self._parse_operand()
        return Comparison(left, op, right)

    def _parse_operand(self):
        token = self._peek()
        if token.kind == "ident":
            self._advance()
            return AttributeRef(token.text)
        if token.kind == "number":
            self._advance()
            text = token.text
            return Constant(float(text) if "." in text else int(text))
        if token.kind == "string":
            self._advance()
            body = token.text[1:-1]
            return Constant(body.replace("\\'", "'").replace("\\\\", "\\"))
        raise ParseError(
            f"expected an operand but found {token.text or 'end of input'!r}",
            token.position,
        )


def parse_query(text: str) -> Query:
    """Parse the query DSL into a :class:`~repro.algebra.ast.Query`.

    >>> parse_query("PROJECT[user, file](UserGroup JOIN GroupFile)")
    PROJECT[user, file]((UserGroup JOIN GroupFile))
    """
    return _check_height(_Parser(_tokenize(text)).parse_query())


def parse_predicate(text: str) -> Predicate:
    """Parse a bare predicate expression.

    >>> parse_predicate("A = 1 AND B != 'x'")
    (A = 1 AND B != 'x')
    """
    parser = _Parser(_tokenize(text))
    predicate = parser._parse_predicate()
    token = parser._peek()
    if token.kind != "eof":
        raise ParseError(f"unexpected trailing input {token.text!r}", token.position)
    return _check_height(predicate)


def _subtrees(node) -> tuple:
    """Children of a query or predicate node; a SELECT's include its predicate."""
    if isinstance(node, Select):
        return (node.child, node.predicate)
    if isinstance(node, Query):
        return node.children
    if isinstance(node, (And, Or)):
        return (node.left, node.right)
    if isinstance(node, Not):
        return (node.child,)
    return ()


def _check_height(root):
    """``root``, or ParseError when its tree is taller than MAX_DEPTH.

    Walks iteratively: the tree being measured may be too tall to recurse
    over, which is the point of measuring it.
    """
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ParseError(f"query tree taller than {MAX_DEPTH} levels")
        stack.extend((child, depth + 1) for child in _subtrees(node))
    return root
