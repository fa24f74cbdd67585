"""Provenance engines: why-provenance, where-provenance, lineage.

The paper's two view-update problems correspond to two distinct notions of
provenance:

* the deletion problems of Section 2 are governed by **why-provenance** —
  the minimal witnesses of a view tuple (:mod:`repro.provenance.why`);
* the annotation problems of Section 3 are governed by **where-provenance**
  — the copy paths annotations travel (:mod:`repro.provenance.where`);
* the Cui–Widom **lineage** baseline the paper compares against is in
  :mod:`repro.provenance.lineage`.

The why-provenance engine runs on the **bitset kernel** of
:mod:`repro.provenance.bitset` — witnesses as integer bitmasks over
interned source tuples (:mod:`repro.provenance.interning`).  Both the why-
and where-provenance engines share one memoized computation per
``(query, db)`` pair through :mod:`repro.provenance.cache`.
"""

from repro.provenance.locations import (
    Location,
    SourceTuple,
    locations_of_relation,
    validate_location,
)
from repro.provenance.interning import SourceIndex, iter_bits
from repro.provenance.witness_table import SurvivalIndex, WitnessTable
from repro.provenance.bitset import (
    BitsetProvenance,
    bitset_why_provenance,
    minimize_masks,
)
from repro.provenance.cache import (
    ProvenanceCache,
    cached_plan,
    cached_where_provenance,
    cached_why_provenance,
    provenance_cache,
)
from repro.provenance.why import (
    WhyProvenance,
    why_provenance,
    witnesses_of,
)
from repro.provenance.where import (
    WhereProvenance,
    annotate,
    where_provenance,
)
from repro.provenance.proof import (
    Derivation,
    Fact,
    derivations,
    render_proof,
)
from repro.provenance.lineage import (
    cui_widom_translation,
    lineage,
    lineage_of,
)

__all__ = [
    "Location",
    "SourceTuple",
    "locations_of_relation",
    "validate_location",
    "SourceIndex",
    "iter_bits",
    "SurvivalIndex",
    "WitnessTable",
    "BitsetProvenance",
    "bitset_why_provenance",
    "minimize_masks",
    "ProvenanceCache",
    "provenance_cache",
    "cached_plan",
    "cached_why_provenance",
    "cached_where_provenance",
    "WhyProvenance",
    "why_provenance",
    "witnesses_of",
    "WhereProvenance",
    "where_provenance",
    "annotate",
    "lineage",
    "lineage_of",
    "cui_widom_translation",
    "Fact",
    "Derivation",
    "derivations",
    "render_proof",
]
