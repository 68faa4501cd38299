"""Test-only reference implementations the optimized paths diff against.

:func:`naive_threshold_twin` rebuilds any dissemination system as a
twin that scores every term-sharing candidate with the naive
``VsmScorer.similarity(d, f) >= threshold`` loop.  It does so by
swapping the system's score kernel — the one semantics seam every
node-matching step calls — for :class:`NaiveKernel`: single-term
indexes (IL, MOVE) score each candidate naively, all-terms indexes
(RS, Centralized) dedup candidates and score each one
(:func:`brute_force_sift`).  Routing, RNG draws and cost accounting
are unchanged; only the scoring is replaced.

:func:`cold_cache_twin` rebuilds any system as a twin whose pipeline
drops its memo set before every batch, so each batch recomputes every
route decision, posting retrieval and routing grouping from live
state.  The epoch-scoped caches must be invisible next to it: equal
plans, RNG streams and stored replicas.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple, Type

from repro.baselines.base import DisseminationSystem
from repro.matching.inverted_index import InvertedIndex, RetrievalCost
from repro.matching.kernel import ScoreKernel
from repro.matching.vsm import VsmScorer
from repro.model import Document, Filter

_COLD_CLASSES: Dict[type, Type[DisseminationSystem]] = {}


def _naive_apply_semantics(
    scorer: VsmScorer,
    threshold: float,
    document: Document,
    filters: Iterable[Filter],
) -> List[Filter]:
    return [
        profile
        for profile in filters
        if scorer.similarity(document, profile) >= threshold
    ]


class NaiveKernel(ScoreKernel):
    """A :class:`ScoreKernel` whose matching runs the naive scorer."""

    __slots__ = ()

    def select(self, document, candidates, caches=None):
        return _naive_apply_semantics(
            self.scorer, self.threshold, document, candidates
        )

    def match_slots(self, document, index, caches=None):
        matched, cost = brute_force_sift(
            index, self.scorer, self.threshold, document
        )
        slot_of = index.slab.slot_of
        return (
            [slot_of(profile.filter_id) for profile in matched],
            cost.posting_lists,
            cost.posting_entries,
        )


def naive_threshold_twin(system: DisseminationSystem) -> DisseminationSystem:
    """Switch ``system`` (in place) onto the naive per-candidate scorer.

    Call before registering anything; the system must have been built
    with a threshold.
    """
    if system.threshold is None:
        raise ValueError("the naive twin needs a threshold system")
    system._kernel = NaiveKernel(system._scorer, system.threshold)
    return system


def cold_cache_twin(system: DisseminationSystem) -> DisseminationSystem:
    """Switch ``system`` (in place) onto a pipeline with no memo reuse.

    Every ``publish_batch`` (and so every ``publish``) first drops the
    pipeline's cache set, as the pipeline did before its memos lasted
    an epoch.  Composes with :func:`naive_threshold_twin`.
    """

    cls = type(system)
    cold_cls = _COLD_CLASSES.get(cls)
    if cold_cls is None:

        def publish_batch(self, documents):
            self._engine._caches = None
            return cls.publish_batch(self, documents)

        cold_cls = _COLD_CLASSES[cls] = type(
            f"Cold{cls.__name__}", (cls,), {"publish_batch": publish_batch}
        )
    system.__class__ = cold_cls
    return system


def brute_force_sift(
    index: InvertedIndex,
    scorer: VsmScorer,
    threshold: float,
    document: Document,
) -> Tuple[List[Filter], RetrievalCost]:
    """SIFT by brute force: dedup candidates, score each one naively.

    Candidates keep first-appearance order over the document's terms;
    every present posting list costs one list and its entries.
    """
    lists = 0
    entries = 0
    candidates: Dict[str, Filter] = {}
    for term in document.terms:
        filters, cost = index.filters_for_term(term)
        lists += cost.posting_lists
        entries += cost.posting_entries
        for profile in filters:
            candidates.setdefault(profile.filter_id, profile)
    matched = [
        profile
        for profile in candidates.values()
        if scorer.similarity(document, profile) >= threshold
    ]
    return matched, RetrievalCost(lists, entries)
