"""Vectorized CSR bulk-matching backend for the scoring kernel.

PR 3's :class:`~repro.matching.kernel.ScoreKernel` made threshold
matching O(|d| + |candidates|) but still touches every posting entry
from the Python interpreter.  This module is the second backend behind
the same kernel interface: each SIFT-shape index (RS replicas, the
Centralized node, any ``SiftMatcher``) is mirrored as an incrementally
maintained CSR-style sparse term×filter structure — per-term rows of
``int32`` dense filter slots with parallel ``float64`` data — and one
document's whole match against the block runs as a single vectorized
gather / segment-sum / norm-divide pass with the SIFT remaining-mass
prune applied per block.

Exactness contract (the non-negotiable part): every score must be
**bit-for-bit identical** to ``VsmScorer.similarity`` and to the
pure-python kernel.  Float addition is not associative, so the segment
sums deliberately do *not* use ``np.dot`` / ``np.add.reduceat`` (NumPy
sums pairwise); instead contributions are stably sorted by filter slot
— preserving document-term order within each segment, the canonical
summation order — and reduced with the "rounds" algorithm: one
vectorized add per contribution rank, each segment growing strictly
left to right.  The result is the exact addition sequence the python
accumulator executes, at numpy speed.

Integration points:

- ``ScoreKernel(backend="csr")`` owns one :class:`CsrAccelerator`;
- :meth:`ScoreKernel.bulk_match` → :meth:`CsrAccelerator.match_index`
  (accumulation mode: RS / Centralized ``_execute``, ``SiftMatcher``);
- lookup mode (:meth:`ScoreKernel.select`, the base
  ``_apply_semantics`` used by IL and MOVE) deliberately stays on the
  shared memoized scalar scorer under both backends: candidates carry
  2–3 terms, so a per-candidate dot is a handful of dict probes and
  profiling showed every batched-gather variant losing to it on the
  per-candidate array-building overhead alone;
- blocks register as :class:`~repro.matching.inverted_index.
  InvertedIndex` mutation listeners, so register / unregister /
  reallocation keep every mirror exact (the structural-invariant tests
  diff live blocks against from-scratch rebuilds);
- per-document numpy state hangs off
  :class:`~repro.matching.kernel.DocumentScores`, so the kernel's
  IDF-epoch / registration-epoch invalidation applies to it unchanged.
"""

from __future__ import annotations

from typing import (
    Dict,
    List,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

import numpy as np

from ..errors import ConfigurationError
from ..model import Document, Filter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import BatchCaches
    from .inverted_index import InvertedIndex
    from .kernel import DocumentScores, ScoreKernel

#: Relative slack applied to the remaining-mass prune (shared with the
#: python kernel, which imports it from here so the two backends can
#: never drift apart).  Summation order can perturb the suffix masses
#: and accumulated dots by a few ULPs each; the bound is inflated far
#: beyond that noise (but far below any real score gap) before it is
#: allowed to drop a candidate.
_PRUNE_SLACK = 1.0 + 1e-9

#: Valid ``SystemConfig.matching_backend`` values.
BACKENDS = ("auto", "csr", "python")


def resolve_backend(name: str) -> str:
    """Resolve a backend request to the concrete backend to run.

    ``"auto"`` is the vectorized ``"csr"`` backend; ``"python"``
    forces the pure-python kernel.
    """
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown matching backend {name!r}; expected one of "
            f"{BACKENDS}"
        )
    if name == "auto":
        return "csr"
    return name


class _CsrRow:
    """One term's posting row: parallel growable numpy arrays.

    ``local_ids`` (int64) keeps the index's posting order (ascending
    local id) so incremental inserts land where ``PostingList`` puts
    them; ``slots`` (int32) are the kernel's dense filter slots the
    scoring pass actually consumes; ``data`` (float64) is the CSR
    value lane — 1.0 per posting under set-valued filters, multiplied
    into the document weight (exact: ``w * 1.0 == w`` bit-for-bit).
    """

    __slots__ = ("local_ids", "slots", "data", "size")

    def __init__(self, capacity: int = 4) -> None:
        self.local_ids = np.empty(capacity, dtype=np.int64)
        self.slots = np.empty(capacity, dtype=np.int32)
        self.data = np.empty(capacity, dtype=np.float64)
        self.size = 0

    @classmethod
    def from_pairs(
        cls, pairs: List[Tuple[int, int]]
    ) -> "_CsrRow":
        """Bulk-build from ``(local_id, slot)`` pairs in posting order."""
        row = cls.__new__(cls)
        n = len(pairs)
        row.local_ids = np.fromiter(
            (lid for lid, _slot in pairs), dtype=np.int64, count=n
        )
        row.slots = np.fromiter(
            (slot for _lid, slot in pairs), dtype=np.int32, count=n
        )
        row.data = np.ones(n, dtype=np.float64)
        row.size = n
        return row

    def _grow(self) -> None:
        capacity = max(4, 2 * len(self.local_ids))
        for name in ("local_ids", "slots", "data"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=old.dtype)
            new[: self.size] = old[: self.size]
            setattr(self, name, new)

    def insert(self, local_id: int, slot: int) -> None:
        """Insert a posting, keeping ascending-local-id order."""
        size = self.size
        pos = int(np.searchsorted(self.local_ids[:size], local_id))
        if pos < size and self.local_ids[pos] == local_id:
            return  # already mirrored (index reported no change)
        if size == len(self.local_ids):
            self._grow()
        # Explicit .copy() of the shifted source: numpy slice
        # assignment between overlapping views of one buffer is not a
        # guaranteed memmove.
        for name, value in (
            ("local_ids", local_id),
            ("slots", slot),
            ("data", 1.0),
        ):
            arr = getattr(self, name)
            arr[pos + 1 : size + 1] = arr[pos:size].copy()
            arr[pos] = value
        self.size = size + 1

    def remove(self, local_id: int) -> bool:
        """Drop a posting; returns False when it was never mirrored."""
        size = self.size
        pos = int(np.searchsorted(self.local_ids[:size], local_id))
        if pos >= size or self.local_ids[pos] != local_id:
            return False
        for name in ("local_ids", "slots", "data"):
            arr = getattr(self, name)
            arr[pos : size - 1] = arr[pos + 1 : size].copy()
        self.size = size - 1
        return True

    def snapshot(
        self,
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[float, ...]]:
        """Materialized (local_ids, slots, data) — the test oracle view."""
        size = self.size
        return (
            tuple(int(x) for x in self.local_ids[:size]),
            tuple(int(x) for x in self.slots[:size]),
            tuple(float(x) for x in self.data[:size]),
        )


class CsrPostingBlock:
    """Incremental CSR mirror of one :class:`InvertedIndex`.

    Hydrated once from the index's live postings, then kept exact by
    the index's mutation listener hooks: every posting add / remove /
    term drop updates the matching row in place, so reallocation and
    subscription churn never require a rebuild (the structural tests
    assert snapshot equality against a from-scratch mirror after
    random interleavings).  Slots come from the owning kernel, so one
    kernel's blocks all speak the same dense filter-slot space.
    """

    __slots__ = ("_kernel", "_rows")

    def __init__(
        self, kernel: "ScoreKernel", index: "InvertedIndex"
    ) -> None:
        self._kernel = kernel
        self._rows: Dict[str, _CsrRow] = {}
        slot_for = kernel._slot_for
        for term, pairs in index.iter_term_postings():
            self._rows[term] = _CsrRow.from_pairs(
                [(lid, slot_for(profile)) for lid, profile in pairs]
            )
        index.add_listener(self)

    def __len__(self) -> int:
        """Number of non-empty term rows."""
        return len(self._rows)

    def row(self, term: str) -> Optional[_CsrRow]:
        return self._rows.get(term)

    # -- index mutation listener hooks ------------------------------------

    def posting_added(
        self, term: str, local_id: int, profile: Filter
    ) -> None:
        row = self._rows.get(term)
        if row is None:
            row = self._rows[term] = _CsrRow()
        row.insert(local_id, self._kernel._slot_for(profile))

    def posting_removed(self, term: str, local_id: int) -> None:
        row = self._rows.get(term)
        if row is None:
            return
        row.remove(local_id)
        if row.size == 0:
            del self._rows[term]  # mirror the index dropping the list

    def term_dropped(self, term: str) -> None:
        self._rows.pop(term, None)

    # -- diagnostics --------------------------------------------------------

    def snapshot(
        self,
    ) -> Dict[
        str,
        Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[float, ...]],
    ]:
        """Full materialized structure, for invariant tests."""
        return {
            term: row.snapshot() for term, row in self._rows.items()
        }


class _DocNumpyState:
    """Numpy twin of one :class:`DocumentScores` entry.

    Built lazily on first CSR use of the entry and cached on it, so
    the kernel's epoch invalidation (IDF ``documents_seen`` + the
    registration epoch) retires the numpy arrays together with the
    python vectors they were copied from.
    """

    __slots__ = ("suffix",)

    def __init__(self, entry: "DocumentScores") -> None:
        self.suffix = np.array(entry.suffix, dtype=np.float64)


class CsrAccelerator:
    """The vectorized engine bound to one :class:`ScoreKernel`.

    Owns the per-index posting blocks and implements accumulation-mode
    matching as a whole-block numpy pass that replays the python
    backend's exact addition sequence.
    """

    __slots__ = ("_kernel", "_blocks")

    def __init__(self, kernel: "ScoreKernel") -> None:
        self._kernel = kernel
        #: id(index) -> (index, block).  The strong index reference
        #: pins the id so it cannot be recycled while the block lives;
        #: blocks are only built for the long-lived SIFT-shape indexes
        #: (RS replicas, the central index, SiftMatcher indexes).
        self._blocks: Dict[
            int, Tuple["InvertedIndex", CsrPostingBlock]
        ] = {}

    # -- shared state -------------------------------------------------------

    def block_for(self, index: "InvertedIndex") -> CsrPostingBlock:
        """The index's CSR mirror, built on first use."""
        key = id(index)
        entry = self._blocks.get(key)
        if entry is not None and entry[0] is index:
            return entry[1]
        block = CsrPostingBlock(self._kernel, index)
        self._blocks[key] = (index, block)
        return block

    def _doc_state(self, entry: "DocumentScores") -> _DocNumpyState:
        state = entry.csr_state
        if state is None:
            state = _DocNumpyState(entry)
            entry.csr_state = state
        return state

    # -- accumulation mode: one document vs one whole posting block --------

    def match_index(
        self,
        document: Document,
        index: "InvertedIndex",
        caches: Optional["BatchCaches"] = None,
    ) -> Tuple[List[Filter], int, int]:
        """Threshold-match ``document`` against the index's block.

        Returns ``(matched filters in first-seen candidate order,
        posting lists touched, posting entries scanned)`` — the same
        triple the python posting walk produces, including the costs
        (every present document-term row counts one list and its
        entries, matched or not).
        """
        kernel = self._kernel
        entry = kernel.scores_for(document, caches)
        block = self.block_for(index)
        rows = block._rows
        position = entry.position
        lists = 0
        entries_scanned = 0
        row_slots: List["np.ndarray"] = []
        row_data: List["np.ndarray"] = []
        weights: List[float] = []
        positions: List[int] = []
        lens: List[int] = []
        for term in document.terms:
            row = rows.get(term)
            if row is None:
                continue
            lists += 1
            entries_scanned += row.size
            pos = position.get(term)
            if pos is None:
                continue  # not a scored term: contributes no weight
            row_slots.append(row.slots[: row.size])
            row_data.append(row.data[: row.size])
            weights.append(entry.weights[pos])
            positions.append(pos)
            lens.append(row.size)
        if not row_slots or entry.norm == 0.0:
            return [], lists, entries_scanned
        state = self._doc_state(entry)
        lens_arr = np.fromiter(lens, dtype=np.int64, count=len(lens))
        cols = np.concatenate(row_slots)
        # data is 1.0 per posting, so the product is exactly the
        # repeated document weight (w * 1.0 is bit-exact).
        vals = np.concatenate(row_data) * np.repeat(
            np.fromiter(weights, dtype=np.float64, count=len(weights)),
            lens_arr,
        )
        # One stable sort by slot groups each candidate's
        # contributions contiguously while preserving concatenation
        # order == document-term order within every group — the
        # canonical summation order of the python accumulator.
        order = np.argsort(cols, kind="stable")
        cols_sorted = cols[order]
        vals_sorted = vals[order]
        boundaries = (
            np.flatnonzero(cols_sorted[1:] != cols_sorted[:-1]) + 1
        )
        seg_start = np.empty(boundaries.size + 1, dtype=np.int64)
        seg_start[0] = 0
        seg_start[1:] = boundaries
        seg_len = np.empty_like(seg_start)
        seg_len[:-1] = np.diff(seg_start)
        seg_len[-1] = cols_sorted.size - seg_start[-1]
        # Stable sort → the first element of each segment carries the
        # smallest concatenation index: the candidate's first-seen
        # contribution, whose document position drives the
        # remaining-mass prune — identical to the python pass, which
        # admits a candidate once, at its first contributing term.
        first_global = order[seg_start]
        ends = np.cumsum(lens_arr)
        row_of_first = np.searchsorted(ends, first_global, side="right")
        first_pos = np.fromiter(
            positions, dtype=np.int64, count=len(positions)
        )[row_of_first]
        min_dot = kernel.threshold * entry.norm
        admitted = state.suffix[first_pos] * _PRUNE_SLACK >= min_dot
        if not admitted.any():
            return [], lists, entries_scanned
        adm_start = seg_start[admitted]
        dots = _exact_segment_sums(
            vals_sorted, adm_start, seg_len[admitted]
        )
        adm_slots = cols_sorted[adm_start]
        norms = np.frombuffer(kernel._norms)  # transient array('d') view
        scores = dots / (entry.norm * norms[adm_slots])
        # Threshold selection stays vectorized: only *matched*
        # candidates surface as python objects.  (The python pass also
        # memoizes the scores of admitted non-matches; skipping those
        # write-only entries here changes no observable value — a
        # later lookup recomputes the identical score — and keeps the
        # pass free of per-candidate python work.)
        mask = scores >= kernel.threshold
        if not mask.any():
            return [], lists, entries_scanned
        # Candidate order: ascending first contribution, exactly the
        # order ScoringPass.matched() reports.
        sel_first = first_global[admitted][mask]
        seen_order = np.argsort(sel_first)
        sel_slots = adm_slots[mask][seen_order]
        sel_scores = scores[mask][seen_order]
        profiles = kernel._profiles
        memo = entry.score_memo
        matched: List[Filter] = []
        for slot, score in zip(
            sel_slots.tolist(), sel_scores.tolist()
        ):
            profile = profiles[slot]
            memo[profile.filter_id] = score
            matched.append(profile)
        return matched, lists, entries_scanned


def _exact_segment_sums(
    vals_sorted: "np.ndarray",
    seg_start: "np.ndarray",
    seg_len: "np.ndarray",
) -> "np.ndarray":
    """Sequential left-to-right sum of each contiguous segment.

    The "rounds" reduction: round ``r`` adds every segment's ``r``-th
    element into its running total, so each segment's additions happen
    strictly in element order — the same non-associative float
    addition sequence a python ``for`` loop performs, unlike
    ``np.add.reduceat``/``np.sum`` (pairwise).  Rounds are bounded by
    the longest segment (≤ the document's term count in accumulation
    mode, ≤ the filter's term count in lookup mode), so the loop is a
    handful of vectorized adds.
    """
    dots = vals_sorted[seg_start].astype(np.float64, copy=True)
    max_len = int(seg_len.max())
    for r in range(1, max_len):
        active = seg_len > r
        dots[active] += vals_sorted[seg_start[active] + r]
    return dots
