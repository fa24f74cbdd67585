"""Shared fixtures: the paper's running examples and a few tiny databases."""

import pytest

from repro.algebra import Database, Relation, parse_query
from repro.columnar import HAVE_NUMPY


def pytest_collection_modifyitems(config, items):
    """Skip ``requires_numpy`` tests where numpy does not import."""
    if HAVE_NUMPY:
        return
    skip = pytest.mark.skip(reason="no numpy: the columnar substrate does not exist")
    for item in items:
        if "requires_numpy" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def usergroup_db():
    """The UserGroup/GroupFile example from Section 2.1.1 (after [14])."""
    return Database(
        [
            Relation(
                "UserGroup",
                ["user", "group"],
                [("joe", "g1"), ("joe", "g2"), ("ann", "g1"), ("bob", "g3")],
            ),
            Relation(
                "GroupFile",
                ["group", "file"],
                [("g1", "f1"), ("g2", "f1"), ("g2", "f2"), ("g3", "f3")],
            ),
        ]
    )


@pytest.fixture
def usergroup_query():
    """Π_{user,file}(UserGroup ⋈ GroupFile) — the paper's PJ example."""
    return parse_query("PROJECT[user, file](UserGroup JOIN GroupFile)")


@pytest.fixture
def tiny_db():
    """A minimal two-relation database for join-centric unit tests."""
    return Database(
        [
            Relation("R", ["A", "B"], [(1, 2), (1, 3), (4, 2)]),
            Relation("S", ["B", "C"], [(2, 5), (3, 6)]),
        ]
    )


@pytest.fixture
def single_db():
    """A single-relation database for select/project unit tests."""
    return Database(
        [Relation("People", ["name", "age"], [("joe", 41), ("ann", 30), ("bob", 41)])]
    )
