"""Score-accumulation VSM matching kernel (the SIFT formulation).

Under the similarity-threshold semantics (Section III-A), the naive
scorer recomputes the document's full tf–idf weight vector and norm
once per candidate filter, making node-local matching
O(|d| * |candidates|).  This module is the postings-driven fast path
that restores the classic Yan & Garcia-Molina score-accumulation
shape, O(|d| + |candidates|):

- the document's weight vector, norm, and suffix masses are computed
  **once** and memoized — in the pipeline's
  :class:`~repro.core.pipeline.BatchCaches` when one is active (so a
  batch shares the vector across every node/partition visit), else in
  a single-document slot on the kernel;
- per-filter dot products accumulate in flat ``array('d')``
  accumulators keyed by **dense filter slots** while the caller walks
  the posting lists it already retrieved (:class:`ScoringPass`);
- per-filter norms (``sqrt(|f|)``) are precomputed in a parallel
  array, maintained by :meth:`ScoreKernel.register_filter` /
  :meth:`ScoreKernel.unregister_filter`;
- the threshold is applied in one pass over the touched slots, with
  new candidates pruned by the SIFT remaining-mass upper bound (a
  filter first seen at walk position ``i`` can accumulate at most the
  suffix mass ``sum(weights[i:])``).

Equivalence contract: every score the kernel produces is **bit-for-bit
identical** to :meth:`~repro.matching.vsm.VsmScorer.similarity`, which
sums the dot product in document-term order — the same order posting
walks visit terms and :meth:`ScoreKernel.score` replays.  Because
:class:`~repro.matching.vsm.CorpusStatistics` updates IDF online,
every memoized vector carries the statistics' ``documents_seen`` epoch
(plus the kernel's registration epoch) and silently invalidates when
either changes, so observation and matching may interleave freely.

Two consumption modes:

- **accumulation** (:meth:`ScoreKernel.begin` → :class:`ScoringPass`)
  — for SIFT-style indexes where each filter is indexed under *all*
  of its terms (``SiftMatcher``, the RS replicas, the Centralized
  node): walking every document term's posting list touches every
  shared term of every candidate, so the accumulated dot is exact;
- **lookup** (:meth:`ScoreKernel.select` / :meth:`ScoreKernel.score`)
  — for single-term home-node postings (IL, MOVE), where a node's
  lists cover only its own terms: the full dot is gathered from the
  cached document vector in O(|f|) per candidate and memoized per
  (document, filter) so repeated visits across nodes are free.

Filter identity caveat: slots and norms key on ``filter_id``.  Rebind
an id to a different term set only through the owning system's
``unregister``/``register`` (which notify the kernel); mutating an
index behind the kernel's back leaves a stale norm.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from ..model import Document, Filter
from .csr_kernel import _PRUNE_SLACK, CsrAccelerator, resolve_backend
from .vsm import VsmScorer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import BatchCaches
    from .inverted_index import InvertedIndex

__all__ = ["DocumentScores", "ScoringPass", "ScoreKernel", "_PRUNE_SLACK"]


class DocumentScores:
    """One document's cached scoring state at a fixed statistics epoch.

    Holds the tf–idf weights in document-term order (list + position
    map), the Euclidean norm, the suffix masses for the remaining-mass
    prune, and a per-filter score memo shared by every node visit of
    the batch.  ``document`` is a strong reference on purpose: memo
    maps key by ``id(document)``, and pinning the object guarantees
    the id cannot be recycled while the entry lives.
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
        "csr_state",
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
        # suffix[i] = weights[i] + weights[i+1] + ... : the most a
        # filter first seen at walk position i can still accumulate.
        suffix = [0.0] * (len(weights) + 1)
        mass = 0.0
        for i in range(len(weights) - 1, -1, -1):
            mass += weights[i]
            suffix[i] = mass
        self.suffix = suffix
        self.score_memo: Dict[str, float] = {}
        #: Lazily built numpy twin of the vectors above
        #: (:class:`repro.matching.csr_kernel._DocNumpyState`), owned
        #: by the CSR backend; riding on this entry means the epoch
        #: checks that retire the python vectors retire it too.
        self.csr_state: Optional[object] = None


class ScoringPass:
    """One accumulation pass over the posting lists of one node visit.

    Feed each retrieved posting list through :meth:`accumulate` in
    document-term order, then read :meth:`matched`.  Stamped
    accumulators make starting a pass O(1): a slot's accumulated value
    is valid only while its stamp equals this pass's id, so nothing is
    ever cleared.
    """

    __slots__ = ("kernel", "entry", "_pass_id", "_order", "_min_dot")

    def __init__(self, kernel: "ScoreKernel", entry: DocumentScores) -> None:
        self.kernel = kernel
        self.entry = entry
        kernel._pass_id += 1
        self._pass_id = kernel._pass_id
        #: (slot, profile) in first-contribution order — the same
        #: candidate order the naive candidate dict would build.
        self._order: List[Tuple[int, Filter]] = []
        # Filter norms are >= 1 (a filter has at least one term), so
        # threshold * |doc| lower-bounds the dot any match needs.
        self._min_dot = kernel.threshold * entry.norm

    def accumulate(self, term: str, filters: Iterable[Filter]) -> None:
        """Fold one term's posting list into the accumulators."""
        entry = self.entry
        pos = entry.position.get(term)
        if pos is None:
            return  # not a document term: contributes no weight
        weight = entry.weights[pos]
        kernel = self.kernel
        slot_of = kernel._slot_of
        acc = kernel._acc
        stamp = kernel._stamp
        pass_id = self._pass_id
        # SIFT remaining-mass bound: a candidate admitted here can
        # accumulate at most suffix[pos]; when even that (with slack
        # for summation rounding) cannot reach the cheapest possible
        # threshold dot, new candidates are provably non-matches and
        # are skipped.  Already-admitted candidates keep accumulating
        # so their final scores stay exact.
        admit = entry.suffix[pos] * _PRUNE_SLACK >= self._min_dot
        order = self._order
        for profile in filters:
            slot = slot_of.get(profile.filter_id)
            if slot is None:
                slot = kernel._add_slot(
                    profile, math.sqrt(len(profile.terms))
                )
            if stamp[slot] == pass_id:
                acc[slot] += weight
            elif admit:
                stamp[slot] = pass_id
                acc[slot] = weight
                order.append((slot, profile))

    def matched(self) -> List[Filter]:
        """Candidates reaching the threshold, in first-seen order."""
        entry = self.entry
        doc_norm = entry.norm
        if doc_norm == 0.0:
            return []
        kernel = self.kernel
        threshold = kernel.threshold
        acc = kernel._acc
        norms = kernel._norms
        memo = entry.score_memo
        matched: List[Filter] = []
        for slot, profile in self._order:
            score = acc[slot] / (doc_norm * norms[slot])
            memo[profile.filter_id] = score
            if score >= threshold:
                matched.append(profile)
        return matched

    def scores(self) -> Dict[str, float]:
        """Exact score of every admitted candidate (diagnostics)."""
        entry = self.entry
        if entry.norm == 0.0:
            return {
                profile.filter_id: 0.0 for _slot, profile in self._order
            }
        kernel = self.kernel
        acc = kernel._acc
        norms = kernel._norms
        return {
            profile.filter_id: acc[slot] / (entry.norm * norms[slot])
            for slot, profile in self._order
        }


class ScoreKernel:
    """Shared scoring state: dense filter slots, norms, accumulators.

    One kernel serves one scorer/threshold pair — typically owned by a
    :class:`~repro.baselines.base.DisseminationSystem` (all four
    systems route their threshold semantics through it) or a
    :class:`~repro.matching.sift.SiftMatcher`.  Construct with
    ``enabled=False`` — the ``SystemConfig.matching_kernel`` knob,
    plumbed through every owner — to make the owners fall back to the
    naive per-candidate scorer (the benchmarks' pre-kernel reference,
    and the oracle the equivalence suite diffs against).
    :attr:`enabled` is read-only after construction: the PR 4-era
    setter (and ``SiftMatcher(use_kernel=)``) made backend dispatch
    ambiguous and has been removed in favor of the config knobs.

    ``backend`` selects the scoring engine behind the same interface:
    ``"python"`` (the array('d') accumulators below), ``"csr"`` (the
    vectorized block engine of :mod:`repro.matching.csr_kernel`), or
    ``"auto"`` (the same as ``"csr"``).  Both backends produce
    bit-identical scores; the equivalence suite runs the full matrix.
    """

    __slots__ = (
        "scorer",
        "threshold",
        "backend",
        "_enabled",
        "_slot_of",
        "_norms",
        "_profiles",
        "_acc",
        "_stamp",
        "_pass_id",
        "_registration_epoch",
        "_solo",
        "_csr",
    )

    def __init__(
        self,
        scorer: VsmScorer,
        threshold: float,
        enabled: bool = True,
        backend: str = "python",
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(
                f"threshold must be in (0, 1], got {threshold}"
            )
        self.scorer = scorer
        self.threshold = threshold
        #: Resolved backend label ("python" or "csr"); "auto" resolves
        #: at construction so owners can report what actually runs.
        self.backend = resolve_backend(backend)
        self._enabled = enabled
        self._slot_of: Dict[str, int] = {}
        self._norms = array("d")
        #: slot -> last registered Filter (parallel to ``_norms``), so
        #: the CSR backend can map matched slots back to profiles.
        self._profiles: List[Filter] = []
        self._acc = array("d")
        self._stamp = array("q")
        self._pass_id = 0
        self._registration_epoch = 0
        self._solo: Optional[DocumentScores] = None
        self._csr: Optional[CsrAccelerator] = (
            CsrAccelerator(self) if self.backend == "csr" else None
        )

    @property
    def enabled(self) -> bool:
        """Whether accumulation/lookup scoring is active (read-only)."""
        return self._enabled

    def __len__(self) -> int:
        """Number of dense filter slots assigned."""
        return len(self._norms)

    # -- norm maintenance (wired to system register/unregister) ----------

    def register_filter(self, profile: Filter) -> None:
        """(Re)compute the filter's precomputed norm.

        Re-registering an id reuses its slot, so an id rebound to a
        different term set gets a fresh ``sqrt(|f|)``.  Bumps the
        registration epoch, dropping per-document score memos that
        could mention the id.
        """
        norm = math.sqrt(len(profile.terms))
        slot = self._slot_of.get(profile.filter_id)
        if slot is None:
            self._add_slot(profile, norm)
        else:
            self._norms[slot] = norm
            # Rebinding invalidates the CSR backend's cached per-slot
            # term-id row by identity (it validates against this).
            self._profiles[slot] = profile
        self._registration_epoch += 1

    def unregister_filter(self, filter_id: str) -> None:
        """Invalidate memoized scores mentioning ``filter_id``.

        The slot and norm stay allocated (dense ids are stable);
        postings simply stop yielding the filter.
        """
        self._registration_epoch += 1

    def _add_slot(self, profile: Filter, norm: float) -> int:
        slot = len(self._norms)
        self._slot_of[profile.filter_id] = slot
        self._norms.append(norm)
        self._profiles.append(profile)
        self._acc.append(0.0)
        self._stamp.append(0)
        return slot

    def _slot_for(self, profile: Filter) -> int:
        """Dense slot of ``profile``, lazily assigned on first sight."""
        slot = self._slot_of.get(profile.filter_id)
        if slot is None:
            slot = self._add_slot(
                profile, math.sqrt(len(profile.terms))
            )
        return slot

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

    def begin(
        self, document: Document, caches: Optional["BatchCaches"] = None
    ) -> ScoringPass:
        """Start one accumulation pass (one node visit).

        Only valid over indexes that hold each filter under *all* of
        its terms (the SIFT/RS/Centralized shape) — otherwise the walk
        misses shared terms and the dot is partial; single-term
        home-node consumers use :meth:`select` instead.
        """
        return ScoringPass(self, self.scores_for(document, caches))

    def bulk_match(
        self,
        document: Document,
        index: "InvertedIndex",
        caches: Optional["BatchCaches"] = None,
    ) -> Optional[Tuple[List[Filter], int, int]]:
        """Whole-block accumulation match, when the backend has one.

        The vectorized twin of a ``begin``/``accumulate``/``matched``
        posting walk over *all* of the index's document-term lists:
        returns ``(matched filters in first-seen candidate order,
        posting lists touched, posting entries scanned)``.  Returns
        ``None`` on the python backend, so call sites keep one shape::

            bulk = kernel.bulk_match(document, index, caches)
            if bulk is None:
                ... per-term ScoringPass walk ...

        The same SIFT-index contract as :meth:`begin` applies: the
        index must hold each filter under all of its terms.
        """
        if self._csr is None:
            return None
        return self._csr.match_index(document, index, caches)

    # -- lookup mode ---------------------------------------------------------

    def select(
        self,
        document: Document,
        candidates: Iterable[Filter],
        caches: Optional["BatchCaches"] = None,
    ) -> List[Filter]:
        """Candidates reaching the threshold (input order preserved).

        Lookup mode is backend-independent by design: per-candidate
        dots over 2–3-term filters are a handful of dict probes each,
        which the measured numbers say no batched gather can beat
        (building per-candidate index arrays costs more than the dots
        themselves), so both backends share this memoized scalar loop
        and the CSR backend accelerates the block-shaped accumulation
        mode (:meth:`bulk_match`) where vectorization has leverage.
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
        ``VsmScorer.similarity`` loop and of a posting-walk
        accumulation, so all three agree bit-for-bit.
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
        slot = self._slot_for(profile)
        return dot / (doc_norm * self._norms[slot])
