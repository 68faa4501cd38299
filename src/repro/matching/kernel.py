"""Score-accumulation VSM matching kernel (the SIFT formulation).

Under the similarity-threshold semantics (Section III-A), the naive
scorer recomputes the document's full tf–idf weight vector and norm
once per candidate filter, making node-local matching
O(|d| * |candidates|).  This module is the postings-driven fast path
that restores the classic Yan & Garcia-Molina score-accumulation
shape:

- the document's weight vector and norm are computed **once** and
  memoized — in the pipeline's
  :class:`~repro.core.pipeline.BatchCaches` when one is active (so a
  batch shares the vector across every node/partition visit), else in
  a single-document slot on the kernel;
- the kernel keeps no per-filter state: it works in the slab's slot
  space, reading the index's own posting lists (``array('q')`` of
  slab slots) and the slab's ``sqrt(|f|)`` norm column;
- new candidates are pruned by the SIFT remaining-mass upper bound (a
  filter first seen at walk position ``i`` can accumulate at most the
  suffix mass ``sum(weights[i:])``).

Equivalence contract: every score the kernel produces is **bit-for-bit
identical** to :meth:`~repro.matching.vsm.VsmScorer.similarity`, which
sums the dot product in document-term order.  Float addition is not
associative, so the accumulation pass does *not* use ``np.dot`` /
``np.add.reduceat`` (NumPy sums pairwise); contributions are stably
sorted by slot — preserving document-term order within each segment —
and reduced one contribution rank at a time
(:func:`_exact_segment_sums`).  Because
:class:`~repro.matching.vsm.CorpusStatistics` updates IDF online,
every memoized vector carries the statistics' ``documents_seen`` epoch
(plus the kernel's registration epoch) and silently invalidates when
either changes, so observation and matching may interleave freely.

Two consumption modes:

- **accumulation** (:meth:`ScoreKernel.match_slots`) — for SIFT-style
  indexes where each filter is indexed under *all* of its terms
  (``SiftMatcher``, the RS replicas, the Centralized node): one
  vectorized gather / segment-sum / norm-divide pass over the posting
  lists of every document term, whose dots are therefore exact;
- **lookup** (:meth:`ScoreKernel.select` / :meth:`ScoreKernel.score`)
  — for single-term home-node postings (IL, MOVE), where a node's
  lists cover only its own terms: the full dot is gathered from the
  cached document vector in O(|f|) per candidate and memoized per
  (document, filter) so repeated visits across nodes are free.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..model import Document, Filter
from .vsm import VsmScorer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import BatchCaches
    from .inverted_index import InvertedIndex

__all__ = ["DocumentScores", "ScoreKernel"]

#: Relative slack applied to the remaining-mass prune.  Summation order
#: can perturb the suffix masses and accumulated dots by a few ULPs
#: each; the bound is inflated far beyond that noise (but far below any
#: real score gap) before it is allowed to drop a candidate.
_PRUNE_SLACK = 1.0 + 1e-9


class DocumentScores:
    """One document's cached scoring state at a fixed statistics epoch.

    Holds the tf–idf weights in document-term order (list + position
    map), the Euclidean norm, the suffix masses for the remaining-mass
    prune (built on first accumulation use), and a per-filter score
    memo shared by every node visit of the batch.  ``document`` is a
    strong reference on purpose: memo maps key by ``id(document)``,
    and pinning the object guarantees the id cannot be recycled while
    the entry lives.
    """

    __slots__ = (
        "document",
        "idf_epoch",
        "registration_epoch",
        "position",
        "weights",
        "norm",
        "suffix",
        "score_memo",
    )

    def __init__(
        self,
        document: Document,
        idf_epoch: int,
        registration_epoch: int,
        weight_map: Dict[str, float],
    ) -> None:
        self.document = document
        self.idf_epoch = idf_epoch
        self.registration_epoch = registration_epoch
        position: Dict[str, int] = {}
        weights: List[float] = []
        for term, weight in weight_map.items():
            position[term] = len(weights)
            weights.append(weight)
        self.position = position
        self.weights = weights
        # Same expression (and summation order) as VsmScorer.similarity
        # so the denominator is bit-identical to the naive scorer's.
        self.norm = math.sqrt(sum(w * w for w in weight_map.values()))
        #: suffix[i] = weights[i] + weights[i+1] + ... : the most a
        #: filter first seen at walk position i can still accumulate.
        self.suffix: Optional[np.ndarray] = None
        self.score_memo: Dict[str, float] = {}

    def suffix_masses(self) -> np.ndarray:
        """The remaining-mass array, built once per entry."""
        suffix = self.suffix
        if suffix is None:
            weights = self.weights
            masses = [0.0] * (len(weights) + 1)
            mass = 0.0
            for i in range(len(weights) - 1, -1, -1):
                mass += weights[i]
                masses[i] = mass
            suffix = self.suffix = np.array(masses, dtype=np.float64)
        return suffix


class ScoreKernel:
    """Threshold scoring over slab slots, for one scorer/threshold pair.

    Owned by a :class:`~repro.baselines.base.DisseminationSystem` (all
    four systems route their threshold semantics through it) or a
    :class:`~repro.matching.sift.SiftMatcher`.  The kernel holds no
    per-filter state — norms live in the slab, postings in the index —
    only the registration epoch that retires memoized scores when a
    filter id is rebound, and the single-document vector slot.
    """

    __slots__ = ("scorer", "threshold", "_registration_epoch", "_solo")

    def __init__(self, scorer: VsmScorer, threshold: float) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(
                f"threshold must be in (0, 1], got {threshold}"
            )
        self.scorer = scorer
        self.threshold = threshold
        self._registration_epoch = 0
        self._solo: Optional[DocumentScores] = None

    # -- registration epoch (wired to system register/unregister) ---------

    def register_filter(self, profile: Filter) -> None:
        """Drop per-document score memos that could mention the id."""
        self._registration_epoch += 1

    def unregister_filter(self, filter_id: str) -> None:
        """Drop per-document score memos that could mention the id."""
        self._registration_epoch += 1

    # -- cached document vectors ------------------------------------------

    def scores_for(
        self, document: Document, caches: Optional["BatchCaches"] = None
    ) -> DocumentScores:
        """The document's scoring state, memoized and epoch-checked.

        With ``caches`` (a pipeline batch), entries live in
        ``caches.doc_scores`` and are shared by every node/partition
        visit of the batch; without, a single-document slot on the
        kernel serves matcher-style one-document-at-a-time callers.
        Either way a vector computed under an older
        ``CorpusStatistics.documents_seen`` (or an older registration
        epoch) is discarded and rebuilt.
        """
        idf_epoch = self.scorer.statistics.documents_seen
        reg_epoch = self._registration_epoch
        if caches is not None:
            key = id(document)
            entry = caches.doc_scores.get(key)
            if (
                entry is not None
                and entry.document is document
                and entry.idf_epoch == idf_epoch
                and entry.registration_epoch == reg_epoch
            ):
                return entry
            entry = self._build(document, idf_epoch, reg_epoch)
            caches.doc_scores[key] = entry
            return entry
        entry = self._solo
        if (
            entry is not None
            and entry.document is document
            and entry.idf_epoch == idf_epoch
            and entry.registration_epoch == reg_epoch
        ):
            return entry
        entry = self._build(document, idf_epoch, reg_epoch)
        self._solo = entry
        return entry

    def _build(
        self, document: Document, idf_epoch: int, reg_epoch: int
    ) -> DocumentScores:
        return DocumentScores(
            document,
            idf_epoch,
            reg_epoch,
            self.scorer.document_weights(document),
        )

    # -- accumulation mode -------------------------------------------------

    def match_slots(
        self,
        document: Document,
        index: "InvertedIndex",
        caches: Optional["BatchCaches"] = None,
    ) -> Tuple[List[int], int, int]:
        """Threshold-match ``document`` against a whole SIFT index.

        Returns ``(matched slab slots in first-seen candidate order,
        posting lists touched, posting entries scanned)``; every
        present document-term list counts one list and its entries,
        matched or not.  Only valid over indexes that hold each filter
        under *all* of its terms (the SIFT/RS/Centralized shape) —
        otherwise the walk misses shared terms and the dot is partial;
        single-term home-node consumers use :meth:`select` instead.

        Posting arrays are read through transient zero-copy views that
        die inside this call: an ``array('q')`` with a live buffer
        export cannot resize, so none may outlive it.
        """
        entry = self.scores_for(document, caches)
        lookup = index.slab.interner.lookup
        postings = index._postings
        position = entry.position
        doc_weights = entry.weights
        lists = 0
        entries_scanned = 0
        rows: List[array] = []
        weights: List[float] = []
        positions: List[int] = []
        lens: List[int] = []
        for term in document.terms:
            term_id = lookup(term)
            plist = postings.get(term_id) if term_id is not None else None
            if plist is None:
                continue
            ids = plist._ids
            lists += 1
            entries_scanned += len(ids)
            pos = position.get(term)
            if pos is None:
                continue  # not a scored term: contributes no weight
            rows.append(ids)
            weights.append(doc_weights[pos])
            positions.append(pos)
            lens.append(len(ids))
        if not rows or entry.norm == 0.0:
            return [], lists, entries_scanned
        cols = np.concatenate(
            [np.frombuffer(ids, dtype=np.int64) for ids in rows]
        )
        lens_arr = np.fromiter(lens, dtype=np.int64, count=len(lens))
        vals = np.repeat(
            np.fromiter(weights, dtype=np.float64, count=len(weights)),
            lens_arr,
        )
        # One stable sort by slot groups each candidate's
        # contributions contiguously while preserving concatenation
        # order == document-term order within every group — the
        # canonical summation order of VsmScorer.similarity.
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
        # remaining-mass prune (a candidate is admitted once, at its
        # first contributing term).
        first_global = order[seg_start]
        ends = np.cumsum(lens_arr)
        row_of_first = np.searchsorted(ends, first_global, side="right")
        first_pos = np.fromiter(
            positions, dtype=np.int64, count=len(positions)
        )[row_of_first]
        min_dot = self.threshold * entry.norm
        admitted = entry.suffix_masses()[first_pos] * _PRUNE_SLACK >= min_dot
        if not admitted.any():
            return [], lists, entries_scanned
        adm_start = seg_start[admitted]
        dots = _exact_segment_sums(
            vals_sorted, adm_start, seg_len[admitted]
        )
        adm_slots = cols_sorted[adm_start]
        norms = np.frombuffer(index.slab._norms, dtype=np.float64)
        scores = dots / (entry.norm * norms[adm_slots])
        del norms  # release the buffer export (see docstring)
        mask = scores >= self.threshold
        if not mask.any():
            return [], lists, entries_scanned
        # Candidate order: ascending first contribution.
        sel_first = first_global[admitted][mask]
        matched = adm_slots[mask][np.argsort(sel_first)]
        return matched.tolist(), lists, entries_scanned

    # -- lookup mode ---------------------------------------------------------

    def select(
        self,
        document: Document,
        candidates: Iterable[Filter],
        caches: Optional["BatchCaches"] = None,
    ) -> List[Filter]:
        """Candidates reaching the threshold (input order preserved).

        Per-candidate dots over 2–3-term filters are a handful of dict
        probes each, which no batched gather beats (building
        per-candidate index arrays costs more than the dots
        themselves), so lookup mode is a memoized scalar loop.
        """
        entry = self.scores_for(document, caches)
        threshold = self.threshold
        memo = entry.score_memo
        selected: List[Filter] = []
        for profile in candidates:
            fid = profile.filter_id
            score = memo.get(fid)
            if score is None:
                score = self._score(entry, profile)
                memo[fid] = score
            if score >= threshold:
                selected.append(profile)
        return selected

    def score(
        self,
        document: Document,
        profile: Filter,
        caches: Optional["BatchCaches"] = None,
    ) -> float:
        """Bit-for-bit ``VsmScorer.similarity``, via the cached vector."""
        entry = self.scores_for(document, caches)
        memo = entry.score_memo
        score = memo.get(profile.filter_id)
        if score is None:
            score = self._score(entry, profile)
            memo[profile.filter_id] = score
        return score

    def _score(self, entry: DocumentScores, profile: Filter) -> float:
        """Full cosine from the cached vector, O(|f|).

        The dot sums the shared terms' weights in ascending document
        position — the exact addition sequence of the canonical
        ``VsmScorer.similarity`` loop and of the accumulation pass, so
        all three agree bit-for-bit.  The filter norm is the same
        ``sqrt(|f|)`` expression the slab's norm column stores.
        """
        doc_norm = entry.norm
        if doc_norm == 0.0:
            return 0.0
        position = entry.position
        hits: List[int] = []
        for term in profile.terms:
            pos = position.get(term)
            if pos is not None:
                hits.append(pos)
        dot = 0.0
        if hits:
            hits.sort()
            weights = entry.weights
            for pos in hits:
                dot += weights[pos]
        return dot / (doc_norm * math.sqrt(len(profile.terms)))


def _exact_segment_sums(
    vals_sorted: np.ndarray,
    seg_start: np.ndarray,
    seg_len: np.ndarray,
) -> np.ndarray:
    """Sequential left-to-right sum of each contiguous segment.

    The "rounds" reduction: round ``r`` adds every segment's ``r``-th
    element into its running total, so each segment's additions happen
    strictly in element order — the same non-associative float
    addition sequence a python ``for`` loop performs, unlike
    ``np.add.reduceat``/``np.sum`` (pairwise).  Rounds are bounded by
    the longest segment (≤ the document's term count), so the loop is
    a handful of vectorized adds.
    """
    dots = vals_sorted[seg_start].astype(np.float64, copy=True)
    max_len = int(seg_len.max())
    for r in range(1, max_len):
        active = seg_len > r
        dots[active] += vals_sorted[seg_start[active] + r]
    return dots
