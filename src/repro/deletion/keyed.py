"""Key-constrained PJ deletion: the paper's §2.1.1 escape hatch, implemented.

The paper, after proving PJ deletion NP-hard (Theorem 2.1), remarks:

    "Fortunately, most joins are performed on foreign keys.  It is easy to
    show that project join queries based on key constraints (e.g. lossless
    joins with respect to a set of functional dependencies) allow us to
    decide whether there is a side-effect-free deletion in polynomial time."

This module makes the remark concrete.  A normal-form (S)PJ branch over
leaves ``L1 ⋈ ... ⋈ Lk`` with projection ``B`` is *key-based* for declared
per-relation FDs when:

1. every join step is lossless on a key: joining the accumulated prefix
   with the next leaf, the shared attributes form a superkey of one side —
   so intermediate join sizes never exceed the larger input, and
2. the projection preserves a key: ``B`` functionally determines the full
   join schema under the union of the (leaf-renamed) FDs — so no two joined
   tuples collapse onto one view tuple.

Under 1+2 every view tuple has **exactly one witness**, evaluation is
polynomial, and the SJ algorithms (Theorems 2.4/2.9) apply verbatim:

* :func:`is_key_based` — decide the structural condition;
* :func:`key_based_view_deletion` — polynomial minimum-side-effect deletion;
* :func:`key_based_source_deletion` — polynomial minimum source deletion
  (always a single tuple);
* both verify the declared FDs actually hold on the data first
  (:func:`repro.algebra.dependencies.satisfies`), failing loudly otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import QueryClassError, ReproError
from repro.algebra.ast import Query, RelationRef, Rename
from repro.algebra.classify import branch_parts, flatten_union
from repro.algebra.dependencies import FunctionalDependency, closure, satisfies
from repro.algebra.relation import Database, Row
from repro.algebra.schema import Schema
from repro.deletion.plan import DeletionPlan
from repro.provenance.cache import cached_why_provenance
from repro.provenance.why import WhyProvenance

__all__ = [
    "is_key_based",
    "key_based_view_deletion",
    "key_based_source_deletion",
]

#: Declared constraints: relation name → its functional dependencies.
FDMap = Mapping[str, Sequence[FunctionalDependency]]


def _leaf_base_and_rename(leaf: Query) -> Tuple[str, Dict[str, str]]:
    """Base relation name and the composed base→leaf attribute renaming."""
    renames: List[Dict[str, str]] = []
    node = leaf
    while isinstance(node, Rename):
        renames.append(node.mapping_dict)
        node = node.child
    if not isinstance(node, RelationRef):
        raise QueryClassError(f"{leaf!r} is not a normal-form leaf")
    return node.name, renames


def _renamed_fds(
    leaf: Query, catalog: Mapping[str, Schema], fds: FDMap
) -> List[FunctionalDependency]:
    """The leaf's FDs with attributes mapped through its renamings."""
    base, renames = _leaf_base_and_rename(leaf)
    mapping: Dict[str, str] = {}
    for attr in catalog[base].attributes:
        current = attr
        for rename in reversed(renames):
            current = rename.get(current, current)
        mapping[attr] = current
    out = []
    for fd in fds.get(base, ()):  # undeclared relations contribute nothing
        out.append(
            FunctionalDependency(
                [mapping[a] for a in fd.determinant],
                [mapping[a] for a in fd.dependent],
            )
        )
    return out


def is_key_based(
    query: Query, catalog: Mapping[str, Schema], fds: FDMap
) -> bool:
    """Decide whether a union-free (S)PJ query is key-based for ``fds``.

    Checks the two structural conditions in the module docstring.  Returns
    False (rather than raising) for queries outside the normal-form
    single-branch shape, so callers can use it as a dispatcher predicate.
    """
    branches = flatten_union(query)
    if len(branches) != 1:
        return False
    try:
        project, _select, leaves = branch_parts(branches[0])
    except QueryClassError:
        return False
    if project is None:
        return True  # no projection: SJ territory, always unique witness

    all_fds: List[FunctionalDependency] = []
    for leaf in leaves:
        all_fds.extend(_renamed_fds(leaf, catalog, fds))

    # Condition 1: each join step lossless on a key of one side.
    prefix_attrs = set(leaves[0].output_schema(catalog).attributes)
    for leaf in leaves[1:]:
        leaf_attrs = set(leaf.output_schema(catalog).attributes)
        shared = prefix_attrs & leaf_attrs
        if not shared:
            return False  # a cross product multiplies witnesses
        determines_leaf = leaf_attrs <= closure(shared, all_fds)
        determines_prefix = prefix_attrs <= closure(shared, all_fds)
        if not (determines_leaf or determines_prefix):
            return False
        prefix_attrs |= leaf_attrs

    # Condition 2: the projection preserves a key of the join result.
    return prefix_attrs <= closure(project.attributes, all_fds)


def _check_data(db: Database, fds: FDMap, relations: Sequence[str]) -> None:
    """Verify the declared FDs hold on the actual data."""
    for name in relations:
        declared = fds.get(name, ())
        if declared and not satisfies(db[name], declared):
            raise ReproError(
                f"relation {name!r} violates its declared functional "
                "dependencies; key-based deletion would be unsound"
            )


def _unique_witness_plan(
    query: Query,
    db: Database,
    target: Row,
    fds: FDMap,
    objective: str,
    algorithm: str,
    prov: Optional[WhyProvenance] = None,
) -> DeletionPlan:
    catalog = {name: db[name].schema for name in db}
    if not is_key_based(query, catalog, fds):
        raise QueryClassError(
            "query is not key-based for the declared dependencies; "
            "see repro.deletion.keyed.is_key_based"
        )
    _check_data(db, fds, sorted(query.relation_names()))

    if prov is None:
        prov = cached_why_provenance(query, db)
    witnesses = prov.witnesses(target)
    if len(witnesses) != 1:
        raise ReproError(
            f"key-based query produced {len(witnesses)} witnesses for "
            f"{target!r}; the declared dependencies are too weak"
        )  # pragma: no cover - conditions 1+2 guarantee uniqueness
    (witness,) = witnesses

    components = sorted(witness, key=repr)
    if objective == "source":
        # Any single component is optimal; only its side effects are needed.
        components = components[:1]
    candidates = [frozenset({component}) for component in components]
    best = None
    best_effects = None
    for component, effects in zip(
        components, prov.batch_side_effects(target, candidates)
    ):
        if best_effects is None or len(effects) < len(best_effects):
            best, best_effects = component, effects
            if not effects:
                break
    assert best is not None and best_effects is not None
    return DeletionPlan(
        target=tuple(target),
        deletions=frozenset({best}),
        side_effects=frozenset(best_effects),
        algorithm=algorithm,
        objective=objective,
        optimal=True,
    )


def key_based_view_deletion(
    query: Query,
    db: Database,
    target: Row,
    fds: FDMap,
    prov: Optional[WhyProvenance] = None,
) -> DeletionPlan:
    """Polynomial minimum-side-effect deletion for key-based PJ queries.

    With a unique witness the SJ component scan (Theorem 2.4) is optimal;
    the deletion is side-effect-free iff some witness component appears in
    no other view tuple's witness.
    """
    return _unique_witness_plan(
        query, db, target, fds, "view", "keyed-pj-component-scan", prov
    )


def key_based_source_deletion(
    query: Query,
    db: Database,
    target: Row,
    fds: FDMap,
    prov: Optional[WhyProvenance] = None,
) -> DeletionPlan:
    """Polynomial minimum source deletion for key-based PJ queries.

    A unique witness means any single component suffices (Theorem 2.9's
    argument); the plan deletes exactly one tuple.
    """
    return _unique_witness_plan(
        query, db, target, fds, "source", "keyed-pj-single-component", prov
    )
