"""Interning source tuples to dense integer ids.

The bitset provenance kernel (:mod:`repro.provenance.bitset`) represents a
monomial — a set of source tuples jointly sufficient to derive a view tuple —
as a single Python ``int`` whose set bits name source tuples.  That encoding
needs a bijection between source tuples and small integers; this module
provides it.

A :class:`SourceIndex` assigns each ``(relation, row)`` pair a dense id in
insertion order and supports round-trip decoding.  Building the index from a
:class:`~repro.algebra.relation.Database` walks relations and rows in sorted
order, so ids (and therefore masks) are deterministic per database content —
hash randomization never leaks into the encoding.

The index is append-only: interning never invalidates previously issued ids,
so one index can be shared by every provenance computation over the same
database (and by the provenance cache, :mod:`repro.provenance.cache`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.errors import ReproError
from repro.algebra.relation import Database, Row
from repro.provenance.locations import SourceTuple

__all__ = ["SourceIndex", "iter_bits"]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SourceIndex:
    """A bijection between source tuples and dense integer ids.

    >>> index = SourceIndex()
    >>> index.intern(("R", (1, 2)))
    0
    >>> index.intern(("S", (3,)))
    1
    >>> index.intern(("R", (1, 2)))  # idempotent
    0
    >>> index.decode(1)
    ('S', (3,))
    """

    __slots__ = ("_ids", "_tuples")

    def __init__(self) -> None:
        self._ids: Dict[SourceTuple, int] = {}
        self._tuples: List[SourceTuple] = []

    @classmethod
    def from_database(cls, db: Database) -> "SourceIndex":
        """Intern every source tuple of ``db`` in deterministic order."""
        index = cls()
        for name in db:
            for row in db[name].sorted_rows():
                index.intern((name, row))
        return index

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def intern(self, source: SourceTuple) -> int:
        """The id of ``source``, assigning a fresh one on first sight."""
        name, row = source
        key = (name, tuple(row))
        existing = self._ids.get(key)
        if existing is not None:
            return existing
        fresh = len(self._tuples)
        self._ids[key] = fresh
        self._tuples.append(key)
        return fresh

    def id_of(self, source: SourceTuple) -> int:
        """The id of an already-interned source tuple.

        Raises :class:`ReproError` for unknown tuples — use :meth:`intern`
        when the tuple may be new, or :meth:`encode` when unknown tuples
        should be ignored.
        """
        name, row = source
        try:
            return self._ids[(name, tuple(row))]
        except KeyError:
            raise ReproError(f"source tuple {source!r} is not interned") from None

    def bit(self, source: SourceTuple) -> int:
        """The singleton mask ``1 << id`` of an interned source tuple."""
        return 1 << self.id_of(source)

    def encode(self, sources: Iterable[SourceTuple]) -> int:
        """OR the ids of ``sources`` into one mask.

        Source tuples the index has never seen are skipped: an un-interned
        tuple appears in no witness, so including it could not change any
        survival or side-effect answer.
        """
        mask = 0
        ids = self._ids
        for name, row in sources:
            bit = ids.get((name, tuple(row)))
            if bit is not None:
                mask |= 1 << bit
        return mask

    def encode_ids(self, sources: Iterable[SourceTuple]) -> Tuple[int, ...]:
        """The ids of ``sources`` as an ascending tuple (unknown skipped).

        The flat-id twin of :meth:`encode`, and the deletion form the
        survival kernel runs on
        (:meth:`~repro.provenance.bitset.BitsetProvenance.encode_deletions_auto`):
        its cost is the deletion's size, not the interned universe's.
        """
        ids = self._ids
        found = []
        for name, row in sources:
            bit = ids.get((name, tuple(row)))
            if bit is not None:
                found.append(bit)
        found.sort()
        return tuple(found)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, bit_index: int) -> SourceTuple:
        """The source tuple with id ``bit_index``."""
        try:
            return self._tuples[bit_index]
        except IndexError:
            raise ReproError(f"no source tuple with id {bit_index}") from None

    def decode_mask(self, mask: int) -> FrozenSet[SourceTuple]:
        """The set of source tuples named by the set bits of ``mask``."""
        tuples = self._tuples
        out: Set[SourceTuple] = set()
        for bit_index in iter_bits(mask):
            try:
                out.add(tuples[bit_index])
            except IndexError:
                raise ReproError(f"mask bit {bit_index} is not interned") from None
        return frozenset(out)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, source: object) -> bool:
        if not (isinstance(source, tuple) and len(source) == 2):
            return False
        name, row = source
        try:
            return (name, tuple(row)) in self._ids
        except TypeError:
            return False

    def __iter__(self) -> Iterator[SourceTuple]:
        return iter(self._tuples)

    def __repr__(self) -> str:
        return f"SourceIndex({len(self._tuples)} tuples)"
