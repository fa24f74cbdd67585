"""Relational algebra substrate: schemas, relations, queries, evaluation.

This package implements the paper's data model exactly: set-semantics
relations over named attributes, and the monotone SPJRU query algebra
(select, project, natural join, union, rename).  Everything else in the
library — provenance, deletion propagation, annotation placement, and the
hardness reductions — is built on top of it.
"""

from repro.algebra.schema import Schema
from repro.algebra.relation import Database, Relation, Row
from repro.algebra.predicates import (
    And,
    AttributeRef,
    Comparison,
    Constant,
    Not,
    Or,
    Predicate,
    TruePredicate,
    conjoin,
)
from repro.algebra.ast import (
    Join,
    Project,
    Query,
    RelationRef,
    Rename,
    Select,
    Union,
)
from repro.algebra.evaluate import evaluate, output_schema, view_rows
from repro.algebra.plan import CompiledPlan, PlanNode, compile_plan
from repro.algebra.optimizer import (
    DEFAULT_OPTIMIZER_LEVEL,
    OptimizationResult,
    optimize,
)
from repro.algebra.stats import (
    TableStatistics,
    estimate_query,
    stats_version,
)
from repro.algebra.classify import (
    assert_normal_form,
    chain_join_order,
    flatten_join,
    flatten_union,
    involves,
    involves_ju,
    involves_pj,
    is_normal_form,
    is_sj,
    is_sju,
    is_sp,
    is_spu,
    query_class,
    uses_only,
)
from repro.algebra.normalize import normalize, simplify, union_of
from repro.algebra.dependencies import (
    FunctionalDependency,
    candidate_keys,
    closure,
    implies,
    is_key,
    is_superkey,
    satisfies,
    violations,
)
from repro.algebra.parser import parse_predicate, parse_query
from repro.algebra.render import (
    render_database,
    render_query_tree,
    render_relation,
    render_rows,
)

__all__ = [
    # schema / data
    "Schema",
    "Relation",
    "Database",
    "Row",
    # predicates
    "Predicate",
    "Comparison",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "AttributeRef",
    "Constant",
    "conjoin",
    # query AST
    "Query",
    "RelationRef",
    "Select",
    "Project",
    "Join",
    "Union",
    "Rename",
    # evaluation
    "evaluate",
    "view_rows",
    "output_schema",
    # compiled plans + the optimizer pipeline
    "CompiledPlan",
    "PlanNode",
    "compile_plan",
    "DEFAULT_OPTIMIZER_LEVEL",
    "OptimizationResult",
    "optimize",
    "TableStatistics",
    "estimate_query",
    "stats_version",
    # classification
    "query_class",
    "uses_only",
    "involves",
    "involves_pj",
    "involves_ju",
    "is_sp",
    "is_sj",
    "is_spu",
    "is_sju",
    "flatten_union",
    "flatten_join",
    "is_normal_form",
    "assert_normal_form",
    "chain_join_order",
    # dependencies
    "FunctionalDependency",
    "closure",
    "implies",
    "is_key",
    "is_superkey",
    "candidate_keys",
    "satisfies",
    "violations",
    # normalization
    "normalize",
    "simplify",
    "union_of",
    # parsing / rendering
    "parse_query",
    "parse_predicate",
    "render_relation",
    "render_database",
    "render_query_tree",
    "render_rows",
]
