"""Test-only reference implementations the optimized paths diff against.

:func:`naive_threshold_twin` rebuilds any dissemination system as a
twin that scores every term-sharing candidate with the naive
``VsmScorer.similarity(d, f) >= threshold`` loop.  It does so by
overriding ``_apply_semantics``: every scheme detects an override and
routes all candidates through its candidate-dedup path (see
``DisseminationSystem._kernel_accumulates``), so the twin runs the
pre-kernel program — routing, RNG draws and cost accounting unchanged,
only the scoring replaced.

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
from repro.matching.vsm import VsmScorer
from repro.model import Document, Filter

_TWIN_CLASSES: Dict[Tuple[str, type], Type[DisseminationSystem]] = {}


def _swap_class(system, prefix: str, make_attrs) -> DisseminationSystem:
    """Switch ``system`` (in place) onto a memoized subclass of its
    class named ``prefix + name`` with ``make_attrs(cls)`` as body."""
    cls = type(system)
    twin_cls = _TWIN_CLASSES.get((prefix, cls))
    if twin_cls is None:
        twin_cls = type(f"{prefix}{cls.__name__}", (cls,), make_attrs(cls))
        _TWIN_CLASSES[(prefix, cls)] = twin_cls
    system.__class__ = twin_cls
    return system


def _naive_apply_semantics(
    self, document: Document, filters: Iterable[Filter]
) -> List[Filter]:
    threshold = self.threshold
    scorer = self._scorer
    return [
        profile
        for profile in filters
        if scorer.similarity(document, profile) >= threshold
    ]


def naive_threshold_twin(system: DisseminationSystem) -> DisseminationSystem:
    """Switch ``system`` (in place) onto the naive per-candidate scorer.

    Call before registering anything; the system must have been built
    with a threshold.
    """
    if system.threshold is None:
        raise ValueError("the naive twin needs a threshold system")
    return _swap_class(
        system,
        "Naive",
        lambda cls: {"_apply_semantics": _naive_apply_semantics},
    )


def cold_cache_twin(system: DisseminationSystem) -> DisseminationSystem:
    """Switch ``system`` (in place) onto a pipeline with no memo reuse.

    Every ``publish_batch`` (and so every ``publish``) first drops the
    pipeline's cache set, as the pipeline did before its memos lasted
    an epoch.  Composes with :func:`naive_threshold_twin`.
    """

    def make_attrs(cls):
        def publish_batch(self, documents):
            self._engine._caches = None
            return cls.publish_batch(self, documents)

        return {"publish_batch": publish_batch}

    return _swap_class(system, "Cold", make_attrs)


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
