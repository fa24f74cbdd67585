"""Rule-based logical plan rewrites for the staged query compiler.

:func:`repro.algebra.plan.compile_plan` is a staged pipeline: this
module's **logical rewriter** reads the catalog (schemas, never rows), and
the physical planner compiles its output (with Filter/Project fusion into
scans).  The rewriter is a classical rule engine: each rule is a small
class with an ``apply(node, ctx) -> node | None`` interface, and a fixpoint
driver applies a rule set bottom-up until nothing fires.

Three staged passes (the ordering prevents rule oscillation — selection
pushdown and projection pruning invert each other when interleaved):

1. **selection pushdown** — merge stacked selections, push selections
   through Project/Rename/Union and into the narrower side of a Join
   (conjunct by conjunct), so filters run as close to the scans as possible;
2. **join reordering** — each maximal join bush (``flatten_join``) of three
   or more leaves is rebuilt as a left-deep chain in *connectivity order*:
   the first leaf as written, then always the first remaining leaf that
   shares an attribute with what is joined so far (the first remaining
   leaf when none does, since that cross product is unavoidable); a
   permutation projection restores the original attribute order when the
   reorder changed it.  Provenance is positional over source tuples, so
   join order changes no answer, only the size of the intermediates; the
   pass avoids every avoidable cross product and reads no statistics;
3. **projection pruning** — insert projections that drop every column no
   ancestor needs (below joins, selections, renamings, and through unions),
   so intermediate results carry only live columns.

Every rewrite preserves not just the rows but the **provenance semantics**:
witness bitmasks and where-annotations are positional over source tuples,
and each rule keeps attribute *names* intact (no join-to-selection
rewrites, which the paper warns change annotation propagation).  The
soundness property tests (``tests/test_optimizer.py``) pin optimized plans
to the unoptimized ones row-for-row, mask-for-mask, and location-for-
location on randomized SPJRU workloads.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.ast import (
    Join,
    Project,
    Query,
    Rename,
    Select,
    Union,
)
from repro.algebra.classify import flatten_join
from repro.algebra.predicates import And, Predicate, TruePredicate, conjoin
from repro.algebra.schema import Schema

__all__ = [
    "DEFAULT_OPTIMIZER_LEVEL",
    "Rule",
    "RewriteContext",
    "OptimizationResult",
    "PUSHDOWN_RULES",
    "PRUNING_RULES",
    "optimize",
]

#: The optimizer level the shared plan memo uses when callers do not choose:
#: 0 = compile the query exactly as written; 1 = full rewrite pipeline.
DEFAULT_OPTIMIZER_LEVEL = 1

#: Upper bound on fixpoint passes (a safety net; real queries converge in
#: a handful of passes because every rule moves work strictly downward).
_MAX_PASSES = 100


class RewriteContext:
    """What the rules may consult: the catalog, and a trace of firings."""

    __slots__ = ("catalog", "applied", "changed")

    def __init__(self, catalog: Mapping[str, Schema]):
        self.catalog = catalog
        self.applied: List[str] = []
        #: Set by the fixpoint driver whenever a rule fires during a pass.
        self.changed = False

    def schema(self, node: Query) -> Schema:
        """The node's output schema (trees are small; recompute freely)."""
        return node.output_schema(self.catalog)

    def record(self, rule_name: str) -> None:
        self.applied.append(rule_name)
        self.changed = True


class OptimizationResult:
    """The rewritten logical tree plus the trace of rules that fired."""

    __slots__ = ("query", "applied")

    def __init__(self, query: Query, applied: Tuple[str, ...]):
        self.query = query
        self.applied = applied

    def __repr__(self) -> str:
        return f"OptimizationResult(applied={list(self.applied)!r})"


class Rule:
    """One logical rewrite: ``apply`` returns the replacement or ``None``.

    Rules must be *locally sound* (replacement ≡ node on every database
    over the catalog, including witness and where-provenance semantics) and
    must not fire on their own output (the fixpoint driver treats a
    returned node equal to the input as a non-fire, but rules should
    converge by construction).
    """

    name: str = "rule"

    def apply(self, node: Query, ctx: RewriteContext) -> Optional[Query]:
        raise NotImplementedError


def _split_conjuncts(predicate: Predicate) -> List[Predicate]:
    """Flatten a top-level conjunction into its conjuncts."""
    if isinstance(predicate, And):
        return _split_conjuncts(predicate.left) + _split_conjuncts(
            predicate.right
        )
    return [predicate]


def _inverse_rename(mapping: Mapping[str, str]) -> Dict[str, str]:
    """new name → old name, for rewriting predicates below a renaming."""
    return {new: old for old, new in mapping.items() if new != old}


# ----------------------------------------------------------------------
# Pass 1: selection pushdown
# ----------------------------------------------------------------------

class DropTrueSelect(Rule):
    """``σ_TRUE(E) → E``."""

    name = "drop-true-select"

    def apply(self, node: Query, ctx: RewriteContext) -> Optional[Query]:
        if isinstance(node, Select) and isinstance(
            node.predicate, TruePredicate
        ):
            return node.child
        return None


class MergeSelects(Rule):
    """``σ_C1(σ_C2(E)) → σ_{C2 ∧ C1}(E)`` (one filter pass, one node)."""

    name = "merge-selects"

    def apply(self, node: Query, ctx: RewriteContext) -> Optional[Query]:
        if isinstance(node, Select) and isinstance(node.child, Select):
            inner = node.child
            return Select(
                inner.child, conjoin(inner.predicate, node.predicate)
            )
        return None


class MergeProjects(Rule):
    """``Π_B1(Π_B2(E)) → Π_B1(E)`` (the outer projection decides)."""

    name = "merge-projects"

    def apply(self, node: Query, ctx: RewriteContext) -> Optional[Query]:
        if isinstance(node, Project) and isinstance(node.child, Project):
            return Project(node.child.child, node.attributes)
        return None


class PushSelectThroughProject(Rule):
    """``σ_C(Π_B(E)) → Π_B(σ_C(E))`` — sound because C only mentions B.

    Rows of ``E`` that collapse to one image under ``Π_B`` agree on every
    attribute of ``B``, hence on ``C``; groups survive or die whole, so the
    merged witness masks and where-locations are unchanged.
    """

    name = "push-select-project"

    def apply(self, node: Query, ctx: RewriteContext) -> Optional[Query]:
        if isinstance(node, Select) and isinstance(node.child, Project):
            project = node.child
            return Project(
                Select(project.child, node.predicate), project.attributes
            )
        return None


class PushSelectThroughRename(Rule):
    """``σ_C(δ_θ(E)) → δ_θ(σ_{θ⁻¹(C)}(E))`` — values are untouched by δ."""

    name = "push-select-rename"

    def apply(self, node: Query, ctx: RewriteContext) -> Optional[Query]:
        if isinstance(node, Select) and isinstance(node.child, Rename):
            rename = node.child
            inverse = _inverse_rename(rename.mapping_dict)
            predicate = node.predicate.rename(inverse) if inverse else node.predicate
            return Rename(
                Select(rename.child, predicate), rename.mapping_dict
            )
        return None


class PushSelectThroughUnion(Rule):
    """``σ_C(E1 ∪ E2) → σ_C(E1) ∪ σ_C(E2)`` — predicates go by name."""

    name = "push-select-union"

    def apply(self, node: Query, ctx: RewriteContext) -> Optional[Query]:
        if isinstance(node, Select) and isinstance(node.child, Union):
            union = node.child
            return Union(
                Select(union.left, node.predicate),
                Select(union.right, node.predicate),
            )
        return None


class PushSelectThroughJoin(Rule):
    """Push each conjunct of ``σ_C(E1 ⋈ E2)`` into the side that covers it.

    A joined row carries its operands' attribute values verbatim (shared
    attributes are equal on both sides), so a conjunct mentioning only one
    side's attributes filters exactly the operand rows that could have
    produced the filtered joined rows.  Conjuncts spanning both sides stay
    above the join.
    """

    name = "push-select-join"

    def apply(self, node: Query, ctx: RewriteContext) -> Optional[Query]:
        if not (isinstance(node, Select) and isinstance(node.child, Join)):
            return None
        join = node.child
        left_attrs = frozenset(ctx.schema(join.left).attributes)
        right_attrs = frozenset(ctx.schema(join.right).attributes)
        left_parts: List[Predicate] = []
        right_parts: List[Predicate] = []
        kept: List[Predicate] = []
        for conjunct in _split_conjuncts(node.predicate):
            mentioned = conjunct.attributes()
            if mentioned <= left_attrs:
                left_parts.append(conjunct)
            elif mentioned <= right_attrs:
                right_parts.append(conjunct)
            else:
                kept.append(conjunct)
        if not left_parts and not right_parts:
            return None
        left = Select(join.left, conjoin(*left_parts)) if left_parts else join.left
        right = (
            Select(join.right, conjoin(*right_parts)) if right_parts else join.right
        )
        rewritten: Query = Join(left, right)
        if kept:
            rewritten = Select(rewritten, conjoin(*kept))
        return rewritten


# ----------------------------------------------------------------------
# Pass 3: projection pruning
# ----------------------------------------------------------------------

class PushProjectThroughUnion(Rule):
    """``Π_B(E1 ∪ E2) → Π_B(E1) ∪ Π_B(E2)`` (also makes the union's
    right-operand reorder the identity, since both branches emit B)."""

    name = "push-project-union"

    def apply(self, node: Query, ctx: RewriteContext) -> Optional[Query]:
        if isinstance(node, Project) and isinstance(node.child, Union):
            union = node.child
            return Union(
                Project(union.left, node.attributes),
                Project(union.right, node.attributes),
            )
        return None


class PruneJoinColumns(Rule):
    """``Π_B(E1 ⋈ E2) → Π_B(Π_{B1}(E1) ⋈ Π_{B2}(E2))`` with
    ``Bi = attrs(Ei) ∩ (B ∪ shared)`` — operands carry only live columns.

    The join keys (shared attributes) always survive, so the join structure
    is untouched; operand rows that collapse under ``Π_{Bi}`` agree on the
    key and on every visible attribute, so merging their witness masks and
    where-locations early is exactly what the outer projection would have
    done later.
    """

    name = "prune-join-columns"

    def apply(self, node: Query, ctx: RewriteContext) -> Optional[Query]:
        if not (isinstance(node, Project) and isinstance(node.child, Join)):
            return None
        join = node.child
        left_schema = ctx.schema(join.left)
        right_schema = ctx.schema(join.right)
        shared = frozenset(left_schema.common(right_schema))
        needed = frozenset(node.attributes) | shared
        left_keep = tuple(a for a in left_schema.attributes if a in needed)
        right_keep = tuple(a for a in right_schema.attributes if a in needed)
        # Projection onto zero attributes is not representable; keep one
        # column of a side that contributes nothing visible (its rows only
        # gate the join through the cross product).
        if not left_keep:
            left_keep = (left_schema.attributes[0],)
        if not right_keep:
            right_keep = (right_schema.attributes[0],)
        shrank_left = len(left_keep) < left_schema.arity
        shrank_right = len(right_keep) < right_schema.arity
        if not shrank_left and not shrank_right:
            return None
        left = Project(join.left, left_keep) if shrank_left else join.left
        right = Project(join.right, right_keep) if shrank_right else join.right
        return Project(Join(left, right), node.attributes)


class PruneSelectColumns(Rule):
    """``Π_B(σ_C(E)) → Π_B(σ_C(Π_{B ∪ attrs(C)}(E)))`` when that shrinks.

    Rows collapsing under the inserted projection agree on every attribute
    of ``C``, so the selection filters whole groups — merging first is
    sound for all three semantics.
    """

    name = "prune-select-columns"

    def apply(self, node: Query, ctx: RewriteContext) -> Optional[Query]:
        if not (isinstance(node, Project) and isinstance(node.child, Select)):
            return None
        select = node.child
        child_schema = ctx.schema(select.child)
        needed = frozenset(node.attributes) | select.predicate.attributes()
        keep = tuple(a for a in child_schema.attributes if a in needed)
        if len(keep) >= child_schema.arity:
            return None
        return Project(
            Select(Project(select.child, keep), select.predicate),
            node.attributes,
        )


class PruneRenameColumns(Rule):
    """``Π_B(δ_θ(E)) → δ_{θ|B}(Π_{θ⁻¹(B)}(E))`` — sink the projection
    below the renaming (the outer projection becomes redundant because the
    renamed projection already emits exactly ``B``, in order)."""

    name = "prune-rename-columns"

    def apply(self, node: Query, ctx: RewriteContext) -> Optional[Query]:
        if not (isinstance(node, Project) and isinstance(node.child, Rename)):
            return None
        rename = node.child
        inverse = _inverse_rename(rename.mapping_dict)
        sources = tuple(inverse.get(b, b) for b in node.attributes)
        restricted = {
            old: new
            for old, new in rename.mapping_dict.items()
            if old in frozenset(sources) and old != new
        }
        pruned: Query = Project(rename.child, sources)
        return Rename(pruned, restricted) if restricted else pruned


# ----------------------------------------------------------------------
# Pass 2: connectivity join reordering
# ----------------------------------------------------------------------

_REORDER_RULE_NAME = "reorder-joins"


def _rebuild_join(original: Query, leaves: "List[Query]") -> Query:
    """Rebuild ``original``'s join shape with ``leaves`` consumed in order."""
    if isinstance(original, Join):
        left = _rebuild_join(original.left, leaves)
        right = _rebuild_join(original.right, leaves)
        return Join(left, right)
    return leaves.pop(0)


def _connectivity_order(attr_sets: Sequence[frozenset]) -> List[int]:
    """Leaf indices: the first leaf, then always the first remaining leaf
    sharing an attribute with those already joined (or, when none does,
    the first remaining leaf — the cross product is unavoidable)."""
    order = [0]
    joined = attr_sets[0]
    remaining = list(range(1, len(attr_sets)))
    while remaining:
        pick = next((i for i in remaining if attr_sets[i] & joined), remaining[0])
        remaining.remove(pick)
        order.append(pick)
        joined = joined | attr_sets[pick]
    return order


def _reorder_bush(node: Join, ctx: RewriteContext) -> Query:
    """Reorder one maximal join bush into connectivity order."""
    original = flatten_join(node)
    leaves = [_reorder_pass(leaf, ctx) for leaf in original]
    untouched = all(new is old for new, old in zip(leaves, original))
    if len(leaves) < 3:
        # A two-operand join has nothing to reorder: both sides are
        # iterated once either way, and swapping would only add a
        # permutation projection.
        return node if untouched else _rebuild_join(node, list(leaves))
    attr_sets = [frozenset(ctx.schema(leaf).attributes) for leaf in leaves]
    order = _connectivity_order(attr_sets)
    if order == list(range(len(leaves))):
        return node if untouched else _rebuild_join(node, list(leaves))
    reordered: Query = leaves[order[0]]
    for index in order[1:]:
        reordered = Join(reordered, leaves[index])
    original_attrs = node.output_schema(ctx.catalog).attributes
    if ctx.schema(reordered).attributes != original_attrs:
        reordered = Project(reordered, original_attrs)
    ctx.record(_REORDER_RULE_NAME)
    return reordered


def _reorder_pass(node: Query, ctx: RewriteContext) -> Query:
    if isinstance(node, Join):
        return _reorder_bush(node, ctx)
    children = node.children
    if not children:
        return node
    rewritten = [_reorder_pass(child, ctx) for child in children]
    if all(new is old for new, old in zip(rewritten, children)):
        return node
    return node.with_children(rewritten)


# ----------------------------------------------------------------------
# The fixpoint driver and the staged pipeline
# ----------------------------------------------------------------------

PUSHDOWN_RULES: Tuple[Rule, ...] = (
    DropTrueSelect(),
    MergeSelects(),
    MergeProjects(),
    PushSelectThroughProject(),
    PushSelectThroughRename(),
    PushSelectThroughUnion(),
    PushSelectThroughJoin(),
)

PRUNING_RULES: Tuple[Rule, ...] = (
    MergeProjects(),
    PushProjectThroughUnion(),
    PruneJoinColumns(),
    PruneSelectColumns(),
    PruneRenameColumns(),
)


def _rewrite_node(node: Query, rules: Sequence[Rule], ctx: RewriteContext) -> Query:
    """Rewrite one subtree bottom-up, applying rules at each node."""
    children = node.children
    if children:
        rewritten = [_rewrite_node(child, rules, ctx) for child in children]
        if any(new is not old for new, old in zip(rewritten, children)):
            node = node.with_children(rewritten)
    for _ in range(_MAX_PASSES):
        for rule in rules:
            replacement = rule.apply(node, ctx)
            if replacement is not None and replacement != node:
                ctx.record(rule.name)
                node = replacement
                break
        else:
            return node
    return node  # pragma: no cover - pass cap; rules converge by design


def _fixpoint(query: Query, rules: Sequence[Rule], ctx: RewriteContext) -> Query:
    """Apply ``rules`` bottom-up until a full pass fires nothing.

    Rules report firing through :meth:`RewriteContext.record`, so a quiet
    pass is detected without re-comparing whole trees.
    """
    for _ in range(_MAX_PASSES):
        ctx.changed = False
        query = _rewrite_node(query, rules, ctx)
        if not ctx.changed:
            return query
    return query  # pragma: no cover - pass cap; rules converge by design


def optimize(
    query: Query,
    catalog: Mapping[str, Schema],
    level: int = DEFAULT_OPTIMIZER_LEVEL,
) -> OptimizationResult:
    """Rewrite ``query`` through the staged rule pipeline.

    ``level`` 0 returns the query unchanged; any higher level runs all
    three passes — each skipped outright when the query lacks the operator
    the pass targets (no selections → no pushdown, no joins → no
    reordering, no projections → no pruning).  ``query`` must already be
    well-typed over
    ``catalog`` (:func:`repro.algebra.plan.compile_plan` validates before
    optimizing).
    """
    if level <= 0:
        return OptimizationResult(query, ())
    ctx = RewriteContext(catalog)
    operators = query.operators()
    rewritten = query
    if "S" in operators:
        rewritten = _fixpoint(rewritten, PUSHDOWN_RULES, ctx)
    if "J" in operators:
        rewritten = _reorder_pass(rewritten, ctx)
    # Reordering can introduce a permutation projection, so re-read the
    # operator set before deciding whether the pruning pass can fire.
    if "P" in rewritten.operators():
        rewritten = _fixpoint(rewritten, PRUNING_RULES, ctx)
    return OptimizationResult(rewritten, tuple(ctx.applied))
