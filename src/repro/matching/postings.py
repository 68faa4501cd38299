"""Posting lists — the unit of storage and disk IO in the cost model.

A posting list maps one term to the ids of all filters containing it.
The cost model charges one seek per list retrieved plus ``y_p`` per
entry scanned, so the list also reports its length cheaply.

Entries are kept sorted in a compact ``array('q')`` (8 bytes per id,
no per-entry object overhead) and searched with the C-coded
:mod:`bisect` routines; :meth:`add_many` bulk-loads by sorting once
instead of N incremental inserts.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, Iterator, Optional, Tuple


class PostingList:
    """Sorted array of integer filter ids for one term."""

    __slots__ = ("term", "_ids")

    def __init__(
        self, term: str, ids: Optional[Iterable[int]] = None
    ) -> None:
        self.term = term
        self._ids: array = array("q", sorted(set(ids)) if ids else ())

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __contains__(self, filter_id: int) -> bool:
        ids = self._ids
        index = bisect_left(ids, filter_id)
        return index < len(ids) and ids[index] == filter_id

    def add(self, filter_id: int) -> bool:
        """Insert ``filter_id``; returns False when already present."""
        ids = self._ids
        index = bisect_left(ids, filter_id)
        if index < len(ids) and ids[index] == filter_id:
            return False
        ids.insert(index, filter_id)
        return True

    def add_many(self, filter_ids: Iterable[int]) -> int:
        """Bulk insert: one sort instead of N binary-search inserts.

        Final state is exactly that of calling :meth:`add` once per
        id; returns how many ids were actually new.
        """
        incoming = set(filter_ids)
        if not incoming:
            return 0
        before = len(self._ids)
        incoming.update(self._ids)
        if len(incoming) == before:
            return 0
        self._ids = array("q", sorted(incoming))
        return len(self._ids) - before

    def remove(self, filter_id: int) -> bool:
        """Remove ``filter_id``; returns False when absent."""
        ids = self._ids
        index = bisect_left(ids, filter_id)
        if index < len(ids) and ids[index] == filter_id:
            del ids[index]
            return True
        return False

    def ids(self) -> Tuple[int, ...]:
        """Immutable snapshot of the posting ids."""
        return tuple(self._ids)

    def snapshot(self) -> array:
        """A copy of the posting ids as an ``array('q')``: one memcpy,
        8 bytes per id, no per-id int objects."""
        return self._ids[:]
