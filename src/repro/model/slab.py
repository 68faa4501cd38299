"""Columnar filter storage: the million-filter memory tier.

At the paper's scale (Section VI-C registers 4M filters, replicated
``n_i ∝ √(p_i·q_i)`` times) per-object storage dominates memory long
before CPU does: one registered :class:`~repro.model.filter.Filter` is
a dataclass + a ``frozenset`` of python strings (~600 bytes), and every
index replica adds per-filter dict rows on top.  This module stores
filters *columnar* instead — struct-of-arrays over interned term-ids —
so a stored filter costs a few dozen bytes and posting lists can hold
plain integer slots:

- :class:`FilterSlabStore` — one contiguous ``array('i')`` of term-ids
  with per-slot offset/length columns, a dense slot ↔ filter-id map,
  and precomputed ``sqrt(|f|)`` norms.  ``Filter`` objects are
  *rehydrated* from the columns only at delivery boundaries, through a
  small bounded cache.
- an order-key column — the first :data:`ORDER_KEY_BYTES` bytes of
  each id's UTF-8 encoding as one big-endian integer, written at
  ``add`` — lets :meth:`FilterSlabStore.resolve_ids` put a batch's
  large match sets into id order with one vectorized argsort and
  resolve each id string once, already (nearly) sorted (the delivery
  boundary);
- :class:`SlabRegistry` — a ``MutableMapping`` view over the slab that
  :class:`~repro.baselines.base.DisseminationSystem` uses as its
  registration table: assignment interns into the slab, lookup
  rehydrates lazily.

Rehydration contract: a rehydrated filter compares ``==`` to the
originally registered one (same id, same term set, same owner) and its
``term_ids`` re-intern to the same ids.  This is what kept slab-backed
systems bit-identical — match sets, RNG streams, stored replica
counts — to the per-object layout they replaced.

Slots are reused: ``release`` puts a slot on a free list and the next
``add`` claims it, so long-lived churny systems don't grow without
bound; ``epoch`` bumps on every mutation so downstream caches (and the
hydration cache itself) can never serve a stale rebinding.  Term-id
cells abandoned by released slots are tracked as ``dead_term_cells``
and reclaimed by :meth:`FilterSlabStore.compact`, which ``release``
runs by itself once dead cells outnumber live ones.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from math import sqrt
from operator import itemgetter
from typing import (
    Collection,
    Dict,
    Iterator,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..text.interning import DEFAULT_INTERNER, TermInterner
from .filter import Filter
from .query import QueryNode, is_flat, parse_query
from .subscription import Subscription

__all__ = ["FilterSlabStore", "SlabRegistry"]

#: Parsed-predicate cache sentinel ("never parsed" vs "parsed, flat").
_UNPARSED = object()

#: Default bound on the rehydration cache (delivery working set).
DEFAULT_HYDRATION_CACHE = 4096

#: ``release`` compacts the term-id buffer once its dead cells exceed
#: both this floor and the live cells, so churn costs amortized O(1)
#: per release and the buffer never grows past twice its live cells
#: plus this floor.
COMPACT_MIN_DEAD_CELLS = 4096

#: Width of the order-key column: ids that share this many leading
#: UTF-8 bytes tie on the key, and only the final ``sorted`` of their
#: readers orders them (:meth:`FilterSlabStore.resolve_ids`).
ORDER_KEY_BYTES = 7

#: Groups (documents) with fewer posting entries than this resolve in
#: plain Python — a set union of their slots, ids in no particular
#: order: below it the numpy calls of a vectorized pass cost more than
#: the whole job.  A measured crossover (docs/PERFORMANCE.md,
#: "Slot-space delivery"): served ingest-small (~14 entries per
#: document) loses 16 % closed-loop docs/s with the pass on every
#: document, match-heavy (133-3 300) loses its gain with the set union
#: on every document, and 64-256 keep both.
VECTOR_MIN_ENTRIES = 64

#: Groups resolved in one vectorized pass of
#: :meth:`FilterSlabStore.resolve_ids`: a group's index fills the byte
#: above the order key in its sort keys.
GROUPS_PER_PASS = 256
_GROUP_RANKS = np.arange(GROUPS_PER_PASS, dtype=np.uint64) << np.uint64(
    8 * ORDER_KEY_BYTES
)
#: ``(group, slot)`` dedupe keys hold the slot in the low bits.
_SLOT_BITS = 40
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_GROUP_PAIRS = np.arange(GROUPS_PER_PASS + 1, dtype=np.int64) << _SLOT_BITS

#: CPython overhead estimate for one short str object (header + ascii).
_STR_OVERHEAD = 49
#: Rough per-entry cost of a dict slot (key/value pointers + hash).
_DICT_ENTRY = 104
#: Rough cost of one list cell (pointer).
_LIST_CELL = 8


class FilterSlabStore:
    """Struct-of-arrays storage for registered filters.

    Columns, all parallel by *slot* (a dense reusable integer):

    - ``_starts[slot]`` / ``_lengths[slot]`` — the filter's run inside
      the shared ``_term_ids`` buffer;
    - ``_norms[slot]`` — precomputed ``sqrt(|f|)`` (the VSM filter
      norm the scoring kernel's accumulation pass reads, so scoring
      never needs the object);
    - ``_filter_ids[slot]`` — the external string id (``None`` while
      the slot sits on the free list);
    - ``_order_keys[slot]`` — the id's order key (see
      :func:`order_key`): ``s < t`` implies ``key(s) <= key(t)``,
      because UTF-8 byte order is code-point order and zero padding
      sorts a prefix before its extensions;
    - ``_owners`` — sparse: only filters whose owner differs from
      their id pay for the extra string;
    - ``_queries`` — sparse: only predicate subscriptions store their
      raw query text (the compact predicate representation — the
      parsed tree is rebuilt lazily per slot and memoized in
      ``_parsed``, exactly like ``Filter`` rehydration).
    """

    __slots__ = (
        "interner",
        "_term_ids",
        "_starts",
        "_lengths",
        "_norms",
        "_filter_ids",
        "_order_keys",
        "_owners",
        "_queries",
        "_parsed",
        "_slot_of",
        "_free",
        "_hydrated",
        "_hydration_limit",
        "_epoch",
        "_dead_cells",
        "_id_bytes",
        "_query_bytes",
    )

    def __init__(
        self,
        interner: Optional[TermInterner] = None,
        hydration_cache_size: int = DEFAULT_HYDRATION_CACHE,
    ) -> None:
        self.interner = interner or DEFAULT_INTERNER
        self._term_ids: array = array("i")
        self._starts: array = array("q")
        self._lengths: array = array("i")
        self._norms: array = array("d")
        self._filter_ids: List[Optional[str]] = []
        self._order_keys: array = array("Q")
        self._owners: Dict[int, str] = {}
        self._queries: Dict[int, str] = {}
        self._parsed: Dict[int, Optional[QueryNode]] = {}
        self._slot_of: Dict[str, int] = {}
        self._free: List[int] = []
        self._hydrated: "OrderedDict[int, Filter]" = OrderedDict()
        self._hydration_limit = max(1, hydration_cache_size)
        self._epoch = 0
        self._dead_cells = 0
        self._id_bytes = 0
        self._query_bytes = 0

    # -- shape -------------------------------------------------------------

    def __len__(self) -> int:
        """Number of live (registered) filters."""
        return len(self._slot_of)

    def __contains__(self, filter_id: str) -> bool:
        return filter_id in self._slot_of

    @property
    def epoch(self) -> int:
        """Bumped on every add/release/compact; caches key on this."""
        return self._epoch

    @property
    def slot_count(self) -> int:
        """Total slots ever allocated (live + free-listed)."""
        return len(self._filter_ids)

    @property
    def free_slots(self) -> int:
        return len(self._free)

    @property
    def dead_term_cells(self) -> int:
        """Term-id cells abandoned by released slots (see compact)."""
        return self._dead_cells

    # -- mutation ----------------------------------------------------------

    def add(self, profile: Filter) -> int:
        """Intern ``profile`` and return its slot (idempotent upsert).

        An id that is already stored keeps its slot — registration
        layers validate duplicates before they reach the slab, so a
        repeat ``add`` is the batch-registration path ensuring a slot
        exists, not a rebind.
        """
        slot = self._slot_of.get(profile.filter_id)
        if slot is not None:
            return slot
        term_ids = profile.term_ids
        start = len(self._term_ids)
        self._term_ids.extend(term_ids)
        if self._free:
            slot = self._free.pop()
            self._starts[slot] = start
            self._lengths[slot] = len(term_ids)
            self._norms[slot] = sqrt(len(term_ids))
            self._filter_ids[slot] = profile.filter_id
            self._order_keys[slot] = order_key(profile.filter_id)
        else:
            slot = len(self._filter_ids)
            self._starts.append(start)
            self._lengths.append(len(term_ids))
            self._norms.append(sqrt(len(term_ids)))
            self._filter_ids.append(profile.filter_id)
            self._order_keys.append(order_key(profile.filter_id))
        if profile.owner != profile.filter_id:
            self._owners[slot] = profile.owner
        query = getattr(profile, "query", "")
        if query:
            self._queries[slot] = query
            self._query_bytes += len(query) + _STR_OVERHEAD
        self._slot_of[profile.filter_id] = slot
        self._id_bytes += len(profile.filter_id) + _STR_OVERHEAD
        self._epoch += 1
        return slot

    def release(self, filter_id: str) -> int:
        """Free the filter's slot (returned for listeners/tests).

        The slot goes on the free list and its term-id cells become
        dead until :meth:`compact` (run here once dead cells exceed
        both :data:`COMPACT_MIN_DEAD_CELLS` and the live cells);
        raises ``KeyError`` for unknown ids so the registry view keeps
        dict semantics.
        """
        slot = self._slot_of.pop(filter_id)
        self._dead_cells += self._lengths[slot]
        self._filter_ids[slot] = None
        self._owners.pop(slot, None)
        released_query = self._queries.pop(slot, None)
        if released_query is not None:
            self._query_bytes -= len(released_query) + _STR_OVERHEAD
        self._parsed.pop(slot, None)
        self._hydrated.pop(slot, None)
        self._free.append(slot)
        self._id_bytes -= len(filter_id) + _STR_OVERHEAD
        self._epoch += 1
        dead = self._dead_cells
        if dead > COMPACT_MIN_DEAD_CELLS and dead > len(self._term_ids) - dead:
            self.compact()
        return slot

    def compact(self) -> int:
        """Rewrite the term-id buffer dropping dead runs.

        Slot numbering is preserved (postings stay valid); returns the
        number of cells reclaimed.
        """
        if not self._dead_cells:
            return 0
        reclaimed = self._dead_cells
        fresh: array = array("i")
        old = self._term_ids
        for slot, filter_id in enumerate(self._filter_ids):
            if filter_id is None:
                continue
            start = self._starts[slot]
            length = self._lengths[slot]
            self._starts[slot] = len(fresh)
            fresh.extend(old[start : start + length])
        self._term_ids = fresh
        self._dead_cells = 0
        self._epoch += 1
        return reclaimed

    # -- reads -------------------------------------------------------------

    def slot_of(self, filter_id: str) -> Optional[int]:
        return self._slot_of.get(filter_id)

    def filter_id(self, slot: int) -> str:
        filter_id = self._filter_ids[slot]
        if filter_id is None:
            raise KeyError(f"slot {slot} is free")
        return filter_id

    def resolve_ids(
        self, groups: Sequence[Sequence[Sequence[int]]]
    ) -> List[Tuple[str, ...]]:
        """Each group's distinct filter ids, ready for a cheap sort.

        A group is one document's matched slots: memoized posting
        slots as they are, duplicates and all.  A group with fewer than
        :data:`VECTOR_MIN_ENTRIES` entries takes the union of its slots
        in a set, and its ids come back in no particular order — for a
        few dozen ids ``sorted`` is cheap anyway.  Larger groups, up to
        :data:`GROUPS_PER_PASS` at a time, share one vectorized pass
        (:meth:`_key_ordered_pass`), so a batch of documents pays the
        numpy calls' fixed cost once:

        1. one sort of ``(group, slot)`` keys drops each group's
           duplicate slots;
        2. one argsort of ``(group, order key)`` keys puts each group's
           slots in id order, up to ties on the key prefix;
        3. each id string is looked up once, so a group's ids come back
           in id order except among ids that tie on the key — a final
           ``sorted`` needs about ``n`` comparisons under Timsort.
        """
        ids = self._filter_ids
        resolved: List[Tuple[str, ...]] = []
        vectored: List[int] = []
        for group in groups:
            if sum(map(len, group)) < VECTOR_MIN_ENTRIES:
                resolved.append(_lookup(ids, set().union(*group)))
            else:
                vectored.append(len(resolved))
                resolved.append(())
        for start in range(0, len(vectored), GROUPS_PER_PASS):
            chunk = vectored[start : start + GROUPS_PER_PASS]
            passed = self._key_ordered_pass([groups[i] for i in chunk])
            for i, group_ids in zip(chunk, passed):
                resolved[i] = group_ids
        return resolved

    def _key_ordered_pass(
        self, groups: Sequence[Sequence[Sequence[int]]]
    ) -> List[Tuple[str, ...]]:
        flat = array("q")
        sizes: List[int] = []
        for group in groups:
            before = len(flat)
            for part in group:
                flat.extend(part)
            sizes.append(len(flat) - before)
        # A last pseudo-group holding the largest possible key closes
        # the final run of the dedupe below: a sort and one shifted
        # compare, several times cheaper here than ``np.unique``.
        flat.append(_SLOT_MASK)
        sizes.append(1)
        pairs = np.repeat(_GROUP_PAIRS[: len(sizes)], sizes)
        pairs |= np.frombuffer(flat, dtype=np.int64)
        pairs.sort()
        head = pairs[:-1]
        pairs = head[head != pairs[1:]]
        owners = pairs >> _SLOT_BITS
        slots = pairs & _SLOT_MASK
        # A transient view: an ``array`` exporting its buffer cannot
        # grow, so the view must not outlive this call.
        keys = np.frombuffer(self._order_keys, dtype=np.uint64)
        ranks = _GROUP_RANKS[owners] | keys[slots]
        del keys
        ordered = slots[np.argsort(ranks)].tolist()
        counts = np.bincount(owners, minlength=len(groups)).tolist()
        ids = self._filter_ids
        found = _lookup(ids, ordered)
        resolved: List[Tuple[str, ...]] = []
        start = 0
        for count in counts:
            end = start + count
            resolved.append(found[start:end])
            start = end
        return resolved

    def owner(self, slot: int) -> str:
        return self._owners.get(slot) or self.filter_id(slot)

    def term_ids(self, slot: int) -> Sequence[int]:
        """The filter's interned term-ids (a cheap buffer slice)."""
        start = self._starts[slot]
        return self._term_ids[start : start + self._lengths[slot]]

    def terms(self, slot: int) -> List[str]:
        term = self.interner.term
        return [term(tid) for tid in self.term_ids(slot)]

    def norm(self, slot: int) -> float:
        """Precomputed ``sqrt(|f|)`` of the slot's filter."""
        return self._norms[slot]

    def length(self, slot: int) -> int:
        """Number of terms (``|f|``) without touching strings."""
        return self._lengths[slot]

    def get(self, slot: int) -> Filter:
        """Rehydrate the slot's :class:`Filter` (bounded LRU cache).

        The rehydrated object is ``==`` the originally registered one
        and re-interns to the same term-ids; identity is *not*
        preserved, which no consumer relies on (postings and the
        scoring kernel work in slots; score memos key on ``filter_id``).
        """
        cached = self._hydrated.get(slot)
        if cached is not None:
            self._hydrated.move_to_end(slot)
            return cached
        query = self._queries.get(slot)
        if query is not None:
            profile: Filter = Subscription(
                filter_id=self.filter_id(slot),
                terms=frozenset(self.terms(slot)),
                owner=self._owners.get(slot, ""),
                query=query,
            )
        else:
            profile = Filter.from_terms(
                self.filter_id(slot),
                self.terms(slot),
                owner=self._owners.get(slot, ""),
            )
        self._hydrated[slot] = profile
        if len(self._hydrated) > self._hydration_limit:
            self._hydrated.popitem(last=False)
        return profile

    def get_by_id(self, filter_id: str) -> Filter:
        slot = self._slot_of.get(filter_id)
        if slot is None:
            raise KeyError(filter_id)
        return self.get(slot)

    def query(self, slot: int) -> str:
        """The slot's raw query text ("" for flat filters)."""
        return self._queries.get(slot, "")

    def predicate(self, slot: int) -> Optional[QueryNode]:
        """The slot's parsed delivery predicate, or None if flat.

        Parsed lazily from the stored raw text and memoized per slot
        (the memo dies with the slot on release) — the predicate twin
        of lazy ``Filter`` rehydration.  Queries that are semantically
        plain any-term matching over their own anchors memoize None.
        """
        text = self._queries.get(slot)
        if text is None:
            return None
        cached = self._parsed.get(slot, _UNPARSED)
        if cached is _UNPARSED:
            node = parse_query(text)
            cached = None if is_flat(node) else node
            self._parsed[slot] = cached
        return cached

    def predicate_by_id(self, filter_id: str) -> Optional[QueryNode]:
        slot = self._slot_of.get(filter_id)
        if slot is None:
            return None
        return self.predicate(slot)

    def iter_filter_ids(self) -> Iterator[str]:
        return iter(self._slot_of)

    def iter_slots(self) -> Iterator[Tuple[int, str]]:
        """Yield ``(slot, filter_id)`` for every live slot."""
        for filter_id, slot in self._slot_of.items():
            yield slot, filter_id

    # -- accounting --------------------------------------------------------

    def memory_bytes(self) -> int:
        """Estimated resident bytes of the columns (diagnostics).

        Array buffers are exact; string and dict costs use CPython
        per-object estimates.  RSS-level truth comes from the scale
        bench (``benchmarks/bench_scale.py``), which measures the
        process, not this estimate.
        """
        buffers = (
            len(self._term_ids) * self._term_ids.itemsize
            + len(self._order_keys) * self._order_keys.itemsize
            + len(self._starts) * self._starts.itemsize
            + len(self._lengths) * self._lengths.itemsize
            + len(self._norms) * self._norms.itemsize
        )
        maps = (
            len(self._slot_of) * _DICT_ENTRY
            + len(self._filter_ids) * _LIST_CELL
            + len(self._owners) * _DICT_ENTRY
            + len(self._queries) * _DICT_ENTRY
        )
        return buffers + maps + self._id_bytes + self._query_bytes

    def stats(self) -> Dict[str, int]:
        return {
            "live_filters": len(self._slot_of),
            "slots": len(self._filter_ids),
            "free_slots": len(self._free),
            "term_cells": len(self._term_ids),
            "dead_term_cells": self._dead_cells,
            "epoch": self._epoch,
            "memory_bytes": self.memory_bytes(),
            "hydrated": len(self._hydrated),
            "queries": len(self._queries),
            "parsed_predicates": len(self._parsed),
        }


def _lookup(
    ids: List[Optional[str]], slots: Collection[int]
) -> Tuple[str, ...]:
    """``ids[slot]`` for each slot, as a tuple, in one C call when
    there are several (``itemgetter`` returns a lone item bare)."""
    if len(slots) > 1:
        return itemgetter(*slots)(ids)
    return tuple([ids[slot] for slot in slots])


def order_key(filter_id: str) -> int:
    """The id's first :data:`ORDER_KEY_BYTES` UTF-8 bytes, zero-padded,
    as one big-endian unsigned integer.

    Lone surrogates encode as their three-byte form, which keeps byte
    order equal to code-point order for every Python string.
    """
    prefix = filter_id.encode("utf-8", "surrogatepass")[:ORDER_KEY_BYTES]
    return int.from_bytes(prefix.ljust(ORDER_KEY_BYTES, b"\0"), "big")


class SlabRegistry(MutableMapping):
    """Dict-shaped registration table backed by a slab.

    Drop-in for the base system's ``_registered`` dict: ``__setitem__``
    interns the filter into the slab (no object retained),
    ``__getitem__``/``get`` rehydrate lazily — the delivery boundary.
    """

    __slots__ = ("slab",)

    def __init__(self, slab: FilterSlabStore) -> None:
        self.slab = slab

    def __setitem__(self, filter_id: str, profile: Filter) -> None:
        if profile.filter_id != filter_id:
            raise ValueError(
                f"registry key {filter_id!r} != profile id "
                f"{profile.filter_id!r}"
            )
        self.slab.add(profile)

    def __getitem__(self, filter_id: str) -> Filter:
        return self.slab.get_by_id(filter_id)

    def __delitem__(self, filter_id: str) -> None:
        self.slab.release(filter_id)

    def __contains__(self, filter_id: object) -> bool:
        return filter_id in self.slab

    def __iter__(self) -> Iterator[str]:
        return self.slab.iter_filter_ids()

    def __len__(self) -> int:
        return len(self.slab)
