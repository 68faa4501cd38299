"""Local inverted index over registered filters.

Every node indexes its locally stored filters with an inverted list
(Section III-B / Figure 3).  The index supports two retrieval modes:

- *home-node mode* — retrieve only the posting list of one term (the
  baseline/MOVE home-node matcher), and
- *full mode* — retrieve the lists of all document terms (SIFT).

Retrieval reports how many lists and entries were touched so the cost
model can charge the matching latency the paper's equations describe.

Storage is columnar: posting lists are keyed by **interned term-id**
and hold the filter's **slab slot** (a plain int) in a
:class:`~repro.model.slab.FilterSlabStore`, never a ``Filter`` object.
A dissemination system shares one slab across its registration table
and every index it builds; an index constructed on its own gets a
private slab.  Consequences:

- which local terms index a slot is answered by probing the slot's
  slab term-ids against the local postings (``O(|f| log n)``, and
  ``|f|`` averages 2–3) — no per-filter bookkeeping dicts;
- every object-returning read (``filters_for_term``, ``all_filters``,
  the matchers) *rehydrates* through the slab's bounded cache, so the
  hot boolean pipeline — which consumes only slot arrays via
  :meth:`InvertedIndex.retrieve_for_term` and resolves filter ids once
  per batch (:meth:`~repro.model.slab.FilterSlabStore.resolve_ids`) —
  never materializes a ``Filter`` at all;
- :meth:`InvertedIndex.add_slots` is the slot-native bulk loader the
  MOVE reallocation engine feeds directly from home-index postings, so
  rebuilding a subset index never rehydrates a single filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import MatchingError
from ..model import Document, Filter
from ..model.slab import FilterSlabStore
from .postings import PostingList


@dataclass(frozen=True)
class RetrievalCost:
    """Disk work performed by one index retrieval."""

    posting_lists: int
    posting_entries: int

    def __add__(self, other: "RetrievalCost") -> "RetrievalCost":
        return RetrievalCost(
            self.posting_lists + other.posting_lists,
            self.posting_entries + other.posting_entries,
        )


class _SlabPostingFilters:
    """Lazy ``Sequence[Filter]`` over a snapshot of posting slots.

    Sits in the ``filters`` position of the pipeline's memoized
    :data:`~repro.core.pipeline.Retrieval` tuple: boolean any-term
    paths never touch it, threshold paths iterate it and rehydrate
    through the slab's bounded cache on demand.
    """

    __slots__ = ("_slab", "_slots")

    def __init__(self, slab: FilterSlabStore, slots: Sequence[int]) -> None:
        self._slab = slab
        self._slots = slots

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[Filter]:
        get = self._slab.get
        for slot in self._slots:
            yield get(slot)

    def __getitem__(self, index: int) -> Filter:
        return self._slab.get(self._slots[index])


def _indexed_terms(
    profile: Filter, indexed_terms: Optional[Iterable[str]]
) -> Iterable[str]:
    """The terms ``profile`` is indexed under (default: all of them)."""
    if indexed_terms is None:
        return profile.terms
    terms = set(indexed_terms) & profile.terms
    if not terms:
        raise MatchingError(
            f"filter {profile.filter_id!r} indexed under none of its "
            f"terms"
        )
    return terms


class InvertedIndex:
    """Term-id → posting list of slab slots.

    ``indexed_terms`` restricts which of a filter's terms get posting
    lists: the distributed-inverted-list design (Section III-B) indexes
    only the home term on each node, while the rendezvous baseline
    indexes every term of every local filter.

    ``slab`` is the filter store the slots point into.  Pass the
    owning system's shared slab (the system then releases slots
    through its :class:`~repro.model.slab.SlabRegistry` on
    unregistration); omit it for a standalone index, which owns a
    private slab and releases a filter's slot when its last local
    posting goes.
    """

    def __init__(self, slab: Optional[FilterSlabStore] = None) -> None:
        self._owns_slab = slab is None
        self.slab = FilterSlabStore() if slab is None else slab
        #: Interned term-id -> :class:`PostingList` of slab slots.
        self._postings: Dict[int, PostingList] = {}
        #: Distinct filters indexed here, maintained by add/remove
        #: probes so ``__len__`` stays O(1).
        self._distinct = 0
        #: Running total of posting entries, maintained on every
        #: add/remove so :meth:`stored_replica_count` is O(1) — the
        #: reallocation engine reads it once per holder per refresh.
        self._replica_entries = 0

    # -- shape -------------------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct filters indexed."""
        return self._distinct

    def __contains__(self, filter_id: str) -> bool:
        slot = self.slab.slot_of(filter_id)
        return slot is not None and self._indexed_anywhere(slot)

    @property
    def distinct_terms(self) -> int:
        return len(self._postings)

    def stored_replica_count(self) -> int:
        """Total posting entries = stored filter replicas on this node.

        One filter indexed under k terms counts k times — this is the
        storage-cost metric of Figure 9(a).  O(1): the count is
        maintained incrementally by every mutation.
        """
        return self._replica_entries

    def _indexed_anywhere(self, slot: int) -> bool:
        """Is ``slot`` on any local posting of its slab terms?"""
        postings = self._postings
        if not postings:
            return False
        for term_id in self.slab.term_ids(slot):
            plist = postings.get(term_id)
            if plist is not None and slot in plist:
                return True
        return False

    # -- registration -----------------------------------------------------

    def _posting(self, term_id: int, term: Optional[str] = None) -> PostingList:
        plist = self._postings.get(term_id)
        if plist is None:
            if term is None:
                term = self.slab.interner.term(term_id)
            plist = PostingList(term)
            self._postings[term_id] = plist
        return plist

    def add_filter(
        self,
        profile: Filter,
        indexed_terms: Optional[Iterable[str]] = None,
    ) -> int:
        """Index ``profile`` under ``indexed_terms`` (default: all its
        terms).  Re-adding an existing filter extends its indexed terms.
        Returns its slab slot (the posting id)."""
        terms = _indexed_terms(profile, indexed_terms)
        slot = self.slab.add(profile)
        known = self._indexed_anywhere(slot)
        intern = self.slab.interner.intern
        for term in terms:
            if self._posting(intern(term), term).add(slot):
                self._replica_entries += 1
        if not known:
            self._distinct += 1
        return slot

    def add_filters(
        self,
        entries: Iterable[Tuple[Filter, Optional[Iterable[str]]]],
    ) -> int:
        """Bulk-index ``(profile, indexed_terms)`` pairs.

        Groups posting inserts by term so each touched
        :class:`PostingList` is rebuilt with one sort
        (:meth:`PostingList.add_many`) instead of one binary-search
        insert per filter.  Final index state is identical to calling
        :meth:`add_filter` once per pair.  Returns the number of
        posting entries added.
        """
        per_term: Dict[int, Tuple[str, List[int]]] = {}
        new_slots: Set[int] = set()
        intern = self.slab.interner.intern
        for profile, indexed_terms in entries:
            terms = _indexed_terms(profile, indexed_terms)
            slot = self.slab.add(profile)
            if slot not in new_slots and not self._indexed_anywhere(slot):
                new_slots.add(slot)
            for term in terms:
                term_id = intern(term)
                bucket = per_term.get(term_id)
                if bucket is None:
                    bucket = (term, [])
                    per_term[term_id] = bucket
                bucket[1].append(slot)
        added = 0
        for term_id, (term, slots) in per_term.items():
            added += self._posting(term_id, term).add_many(slots)
        self._replica_entries += added
        self._distinct += len(new_slots)
        return added

    def add_slots(
        self,
        entries: Iterable[Tuple[int, Optional[Iterable[int]]]],
    ) -> int:
        """Slot-native bulk load: ``(slot, indexed term-ids)`` pairs.

        The reallocation fast path — subset indexes are rebuilt
        straight from home-index postings of the same slab without
        rehydrating any ``Filter``.  ``None`` term-ids index the slot
        under all of its slab terms.
        """
        per_term: Dict[int, List[int]] = {}
        new_slots: Set[int] = set()
        for slot, term_ids in entries:
            if term_ids is None:
                term_ids = self.slab.term_ids(slot)
            if slot not in new_slots and not self._indexed_anywhere(slot):
                new_slots.add(slot)
            for term_id in term_ids:
                per_term.setdefault(term_id, []).append(slot)
        added = 0
        for term_id, slots in per_term.items():
            added += self._posting(term_id).add_many(slots)
        self._replica_entries += added
        self._distinct += len(new_slots)
        return added

    def remove_filter(self, filter_id: str) -> bool:
        """Unregister a filter everywhere it is indexed."""
        slot = self.slab.slot_of(filter_id)
        if slot is None:
            return False
        removed = False
        postings = self._postings
        for term_id in self.slab.term_ids(slot):
            plist = postings.get(term_id)
            if plist is None:
                continue
            if plist.remove(slot):
                removed = True
                self._replica_entries -= 1
            if not plist:
                del postings[term_id]
        if removed:
            self._distinct -= 1
            if self._owns_slab:
                self.slab.release(filter_id)
        return removed

    def remove_term(self, term: str) -> List[Filter]:
        """Drop the posting list of ``term`` and return its filters.

        Filters indexed only under ``term`` on this node are fully
        unregistered locally; filters also indexed under other local
        terms stay.  This is the primitive a home-node hand-off uses
        when ring membership changes move a term's ownership.
        """
        term_id = self.slab.interner.lookup(term)
        plist = (
            self._postings.pop(term_id, None)
            if term_id is not None
            else None
        )
        if plist is None:
            return []
        self._replica_entries -= len(plist)
        moved: List[Filter] = []
        for slot in plist:
            profile = self.slab.get(slot)
            moved.append(profile)
            if not self._indexed_anywhere(slot):
                self._distinct -= 1
                if self._owns_slab:
                    self.slab.release(profile.filter_id)
        return moved

    # -- retrieval ----------------------------------------------------------

    def posting_list(self, term: str) -> Optional[PostingList]:
        term_id = self.slab.interner.lookup(term)
        if term_id is None:
            return None
        return self._postings.get(term_id)

    def filters_for_term(
        self, term: str
    ) -> Tuple[List[Filter], RetrievalCost]:
        """Home-node retrieval: one posting list, its filters."""
        plist = self.posting_list(term)
        if plist is None:
            return [], RetrievalCost(0, 0)
        get = self.slab.get
        return [get(slot) for slot in plist], RetrievalCost(1, len(plist))

    def retrieve_for_term(self, term: str):
        """One posting retrieval in the pipeline's memo shape.

        Returns ``(filters, slots, posting_lists, posting_entries)`` —
        the :data:`repro.core.pipeline.Retrieval` tuple.  ``slots`` is
        a copy of the posting's slab slots, ascending, as an
        ``array('q')``; the boolean any-term paths
        consume only them.  ``filters`` is a lazy sequence that
        rehydrates objects only when threshold semantics actually
        iterate it.
        """
        plist = self.posting_list(term)
        if plist is None:
            return [], (), 0, 0
        slots = plist.snapshot()
        return _SlabPostingFilters(self.slab, slots), slots, 1, len(slots)

    def match_document_single_term(
        self, document: Document, term: str
    ) -> Tuple[List[Filter], RetrievalCost]:
        """Baseline/MOVE home-node matcher (Section III-B).

        Retrieves only the posting list of ``term``; every filter on
        that list shares ``term`` with the document, so under boolean
        any-term semantics all of them match.
        """
        if term not in document.terms:
            raise MatchingError(
                f"document {document.doc_id!r} does not contain the home "
                f"term {term!r}"
            )
        return self.filters_for_term(term)

    def all_terms_cost(self, document: Document) -> RetrievalCost:
        """The disk work of :meth:`match_document_all_terms` alone.

        Counts the present posting lists of the document's terms and
        their entries without collecting or rehydrating a filter — for
        callers that model the retrieval and discard the matches.
        """
        lookup = self.slab.interner.lookup
        postings = self._postings
        lists = 0
        entries = 0
        for term in document.terms:
            term_id = lookup(term)
            plist = postings.get(term_id) if term_id is not None else None
            if plist is not None:
                lists += 1
                entries += len(plist)
        return RetrievalCost(lists, entries)

    def match_document_all_terms(
        self, document: Document
    ) -> Tuple[List[Filter], RetrievalCost]:
        """SIFT-style full retrieval over all ``|d|`` document terms.

        Returns the de-duplicated matching filters and the total disk
        work (each present term costs one list retrieval).
        """
        lookup = self.slab.interner.lookup
        postings = self._postings
        seen: Set[int] = set()
        ordered: List[int] = []
        lists = 0
        entries = 0
        for term in document.terms:
            term_id = lookup(term)
            plist = postings.get(term_id) if term_id is not None else None
            if plist is None:
                continue
            lists += 1
            entries += len(plist)
            for slot in plist:
                if slot not in seen:
                    seen.add(slot)
                    ordered.append(slot)
        get = self.slab.get
        return [get(slot) for slot in ordered], RetrievalCost(lists, entries)

    # -- enumeration --------------------------------------------------------

    def iter_slot_items(self) -> Iterator[Tuple[int, str]]:
        """Distinct ``(slot, filter_id)`` pairs, posting-walk order."""
        seen: Set[int] = set()
        filter_id = self.slab.filter_id
        for plist in self._postings.values():
            for slot in plist:
                if slot not in seen:
                    seen.add(slot)
                    yield slot, filter_id(slot)

    def slot_entries_for_term(self, term: str) -> List[Tuple[int, str]]:
        """``(slot, filter_id)`` of one posting (reallocation origin)."""
        plist = self.posting_list(term)
        if plist is None:
            return []
        filter_id = self.slab.filter_id
        return [(slot, filter_id(slot)) for slot in plist]

    def posting_term_ids(self) -> Iterator[int]:
        """Term-ids with a live posting list here (insertion order)."""
        return iter(self._postings)

    def all_filters(self) -> List[Filter]:
        get = self.slab.get
        return [get(slot) for slot, _fid in self.iter_slot_items()]

    def terms(self) -> List[str]:
        term_of = self.slab.interner.term
        return sorted(term_of(term_id) for term_id in self._postings)
