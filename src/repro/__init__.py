"""repro — deletions and annotations through views.

A complete, from-scratch reproduction of

    Peter Buneman, Sanjeev Khanna, Wang-Chiew Tan.
    *On Propagation of Deletions and Annotations Through Views.*
    PODS 2002, pages 150–158.

The library provides:

* a set-semantics relational algebra for the monotone SPJRU fragment
  (:mod:`repro.algebra`), including the paper's normal form (Theorem 3.1),
  a query classifier, a text DSL, and renderers;
* why-provenance (minimal witnesses), where-provenance (the paper's five
  annotation-propagation rules) and the Cui–Widom lineage baseline
  (:mod:`repro.provenance`);
* the deletion-propagation algorithms of Section 2
  (:mod:`repro.deletion`): polynomial algorithms for SPU/SJ, the chain-join
  min-cut of Theorem 2.6, greedy and exact solvers for the NP-hard
  fragments, plus dispatchers mirroring the dichotomy tables;
* the annotation-placement algorithms of Section 3
  (:mod:`repro.annotation`);
* every hardness reduction of the paper, executable and machine-verified
  (:mod:`repro.reductions`);
* the algorithmic substrates those need — DPLL SAT, Dinic max-flow,
  greedy/exact set cover — built from scratch (:mod:`repro.solvers`);
* sharded execution of the solvers' batch mask-vector queries across
  worker threads/processes (:mod:`repro.parallel`; every batch API and
  both dispatchers accept ``workers=``);
* workload generators (:mod:`repro.workloads`).

Quickstart::

    from repro import (
        Database, Relation, parse_query, evaluate,
        delete_view_tuple, minimum_source_deletion, place_annotation, Location,
    )

    db = Database([
        Relation("UserGroup", ["user", "group"], [("joe", "g1"), ("ann", "g1")]),
        Relation("GroupFile", ["group", "file"], [("g1", "f1")]),
    ])
    q = parse_query("PROJECT[user, file](UserGroup JOIN GroupFile)")
    plan = delete_view_tuple(q, db, ("joe", "f1"))
    print(plan.describe())
"""

from repro.errors import (
    EvaluationError,
    ExponentialGuardError,
    InfeasibleError,
    ParseError,
    QueryClassError,
    ReductionError,
    ReproError,
    SchemaError,
)
from repro.algebra import (
    And,
    AttributeRef,
    Comparison,
    Constant,
    Database,
    Join,
    Not,
    Or,
    Predicate,
    Project,
    Query,
    Relation,
    RelationRef,
    Rename,
    Row,
    Schema,
    Select,
    TruePredicate,
    Union,
    chain_join_order,
    conjoin,
    evaluate,
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
    normalize,
    output_schema,
    FunctionalDependency,
    candidate_keys,
    closure,
    parse_predicate,
    parse_query,
    query_class,
    render_database,
    render_query_tree,
    render_relation,
    render_rows,
    simplify,
    union_of,
    view_rows,
)
from repro.provenance import (
    Location,
    SourceTuple,
    WhereProvenance,
    WhyProvenance,
    annotate,
    cui_widom_translation,
    lineage,
    lineage_of,
    locations_of_relation,
    validate_location,
    where_provenance,
    why_provenance,
    witnesses_of,
    Fact,
    Derivation,
    derivations,
    render_proof,
)
from repro.deletion import (
    DeletionPlan,
    apply_deletions,
    build_chain_network,
    chain_join_source_deletion,
    count_minimal_translations,
    delete_view_tuple,
    enumerate_deletion_plans,
    exact_source_deletion,
    exact_view_deletion,
    greedy_source_deletion,
    is_key_based,
    key_based_source_deletion,
    key_based_view_deletion,
    minimum_source_deletion,
    side_effect_free_exists,
    sj_source_deletion,
    sj_view_deletion,
    spu_source_deletion,
    spu_view_deletion,
    verify_plan,
)
from repro.annotation import (
    AnnotatedView,
    Annotation,
    AnnotationStore,
    AnnotationPlacement,
    exhaustive_placement,
    place_annotation,
    side_effect_free_annotation_exists,
    sju_placement,
    spu_placement,
    verify_placement,
)
from repro.service import (
    MicroBatcher,
    ServiceClient,
    ServiceEngine,
    ServiceServer,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SchemaError",
    "EvaluationError",
    "ParseError",
    "QueryClassError",
    "ExponentialGuardError",
    "InfeasibleError",
    "ReductionError",
    # algebra
    "Schema",
    "Relation",
    "Database",
    "Row",
    "Predicate",
    "Comparison",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "AttributeRef",
    "Constant",
    "conjoin",
    "Query",
    "RelationRef",
    "Select",
    "Project",
    "Join",
    "Union",
    "Rename",
    "evaluate",
    "view_rows",
    "output_schema",
    "query_class",
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
    "chain_join_order",
    "normalize",
    "simplify",
    "union_of",
    "FunctionalDependency",
    "candidate_keys",
    "closure",
    "parse_query",
    "parse_predicate",
    "render_relation",
    "render_database",
    "render_query_tree",
    "render_rows",
    # provenance
    "Location",
    "SourceTuple",
    "WhyProvenance",
    "why_provenance",
    "witnesses_of",
    "WhereProvenance",
    "where_provenance",
    "annotate",
    "lineage",
    "lineage_of",
    "cui_widom_translation",
    "locations_of_relation",
    "validate_location",
    "Fact",
    "Derivation",
    "derivations",
    "render_proof",
    # deletion
    "DeletionPlan",
    "apply_deletions",
    "verify_plan",
    "delete_view_tuple",
    "minimum_source_deletion",
    "spu_view_deletion",
    "sj_view_deletion",
    "exact_view_deletion",
    "side_effect_free_exists",
    "spu_source_deletion",
    "sj_source_deletion",
    "greedy_source_deletion",
    "exact_source_deletion",
    "chain_join_source_deletion",
    "build_chain_network",
    "is_key_based",
    "key_based_view_deletion",
    "key_based_source_deletion",
    "enumerate_deletion_plans",
    "count_minimal_translations",
    # annotation
    "Annotation",
    "AnnotationStore",
    "AnnotatedView",
    "AnnotationPlacement",
    "place_annotation",
    "spu_placement",
    "sju_placement",
    "exhaustive_placement",
    "side_effect_free_annotation_exists",
    "verify_placement",
    # service
    "ServiceEngine",
    "MicroBatcher",
    "ServiceClient",
    "ServiceServer",
]
