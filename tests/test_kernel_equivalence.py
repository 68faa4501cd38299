"""The score-accumulation kernel must be bit-identical to the naive scorer.

The kernel (:mod:`repro.matching.kernel`) replaces the per-(document,
filter) cosine recomputation with cached document vectors, a
vectorized accumulation pass over the index's posting arrays of slab
slots, and remaining-mass pruning — but every observable must stay
*exactly* the same: matched filter sets, unreachable sets,
``NodeTask``/``RetrievalCost`` accounting, and the scores themselves
under exact float equality (``==``, no tolerance).  Each test runs two
identically-seeded systems, one on the kernel and one switched onto
the naive per-candidate loop by the test-only
:func:`tests.oracles.naive_threshold_twin`, and diffs everything,
including under interleaved ``CorpusStatistics.observe`` calls (IDF
epoch invalidation), node failures, and unregister/re-subscribe churn
(registration-epoch invalidation).
"""

from __future__ import annotations

import math
import pickle

import pytest

import repro.matching.kernel as kernel_module
from repro.core import MoveSystem
from repro.experiments.harness import (
    ScaledWorkload,
    build_cluster,
    make_system,
)
from repro.matching import InvertedIndex, ScoreKernel, SiftMatcher
from repro.matching.vsm import VsmScorer
from repro.model import Document, Filter

from tests.oracles import brute_force_sift, naive_threshold_twin

WORKLOAD = ScaledWorkload(num_filters=600, num_documents=40, seed=11)

ALL_SCHEMES = ["move", "il", "rs", "central"]

THRESHOLD = 0.12


def _build(scheme, bundle, naive):
    workload = bundle.workload
    cluster, config = build_cluster(
        workload.num_nodes, workload.node_capacity, seed=3
    )
    system = make_system(scheme, cluster, config, threshold=THRESHOLD)
    if naive:
        naive_threshold_twin(system)
    system.subscribe(bundle.filters)
    if isinstance(system, MoveSystem):
        system.seed_frequencies(bundle.offline_corpus())
    system.finalize_registration()
    return system


def _fail_same_nodes(naive, fast, fraction):
    node_ids = sorted(naive.cluster.node_ids())
    victims = node_ids[: int(round(fraction * len(node_ids)))]
    for node_id in victims:
        naive.cluster.fail_node(node_id)
        fast.cluster.fail_node(node_id)


def _assert_plans_identical(naive_plans, kernel_plans):
    assert len(naive_plans) == len(kernel_plans)
    for naive_plan, kernel_plan in zip(naive_plans, kernel_plans):
        assert naive_plan.document.doc_id == kernel_plan.document.doc_id
        assert (
            naive_plan.matched_filter_ids
            == kernel_plan.matched_filter_ids
        )
        assert (
            naive_plan.unreachable_filter_ids
            == kernel_plan.unreachable_filter_ids
        )
        assert (
            naive_plan.routing_messages == kernel_plan.routing_messages
        )
        # Ordered task equality covers node ids, hop paths, and the
        # RetrievalCost accounting (posting_lists / posting_entries).
        assert naive_plan.tasks == kernel_plan.tasks


def _assert_scores_identical(naive, fast, documents):
    """Exact float equality of every (doc, registered filter) score."""
    for document in documents:
        for profile in fast.subscriptions().values():
            assert fast._kernel.score(document, profile) == (
                naive._scorer.similarity(document, profile)
            )


def _run_equivalence(scheme, fail=0.0, interleave_observe=False):
    bundle = WORKLOAD.build()
    naive = _build(scheme, bundle, naive=True)
    fast = _build(scheme, bundle, naive=False)
    if fail:
        _fail_same_nodes(naive, fast, fail)
    documents = bundle.documents
    if interleave_observe:
        # Chunked publishing with IDF updates between chunks: the
        # epoch bump must invalidate every memoized vector/score.
        chunk = max(1, len(documents) // 4)
        naive_plans = []
        kernel_plans = []
        for start in range(0, len(documents), chunk):
            batch = documents[start : start + chunk]
            naive_plans.extend(naive.publish_batch(batch))
            kernel_plans.extend(fast.publish_batch(batch))
            for document in batch:
                naive._scorer.statistics.observe(document)
                fast._scorer.statistics.observe(document)
    else:
        naive_plans = naive.publish_batch(documents)
        kernel_plans = fast.publish_batch(documents)
    _assert_plans_identical(naive_plans, kernel_plans)
    for load_name in ("documents_received", "posting_entries"):
        naive_load = naive.metrics.load(load_name).as_dict()
        fast_load = fast.metrics.load(load_name).as_dict()
        assert naive_load == fast_load
    _assert_scores_identical(naive, fast, documents[:5])


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_kernel_identical_healthy(scheme):
    _run_equivalence(scheme)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_kernel_identical_under_failures(scheme):
    _run_equivalence(scheme, fail=0.2)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_kernel_identical_with_interleaved_observation(scheme):
    _run_equivalence(scheme, interleave_observe=True)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_kernel_identical_observing_mid_batch(scheme):
    """IDF changes *inside* one batch: a system whose ``_observe``
    hook feeds the corpus statistics bumps the epoch between the
    documents of a single ``publish_batch`` — including between two
    disseminations of the *same* document object, which forces the
    memoized vector for a live cache entry to be rebuilt."""
    bundle = WORKLOAD.build()
    naive = _build(scheme, bundle, naive=True)
    fast = _build(scheme, bundle, naive=False)

    def observing(system):
        base_observe = type(system)._observe

        def _observe(document):
            base_observe(system, document)
            system._scorer.statistics.observe(document)

        system._observe = _observe
        return system

    observing(naive)
    observing(fast)
    documents = bundle.documents[:10]
    # Duplicate documents within the batch: the second dissemination
    # happens at a later epoch and must not reuse the stale vector.
    batch = documents + documents[:3]
    _assert_plans_identical(
        naive.publish_batch(batch), fast.publish_batch(batch)
    )
    _assert_scores_identical(naive, fast, documents[:3])


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_kernel_identical_under_registration_churn(scheme):
    """Unregister / re-subscribe between publishes: re-binding a filter
    id to a *different* term set must pick up the new ``sqrt(|f|)``
    norm and invalidate memoized scores (registration-epoch check)."""
    bundle = WORKLOAD.build()
    naive = _build(scheme, bundle, naive=True)
    fast = _build(scheme, bundle, naive=False)
    documents = bundle.documents[:12]
    first, second = documents[:6], documents[6:]
    _assert_plans_identical(
        naive.publish_batch(first), fast.publish_batch(first)
    )
    # Rebind a handful of filter ids to different term sets (with
    # different lengths, so the sqrt(|f|) norms genuinely change).
    victims = [profile.filter_id for profile in bundle.filters[:5]]
    donors = bundle.filters[5:10]
    for filter_id, donor in zip(victims, donors):
        for system in (naive, fast):
            old = system.unregister(filter_id)
            terms = set(donor.terms) | set(list(old.terms)[:1])
            system.subscribe(
                [Filter(filter_id=filter_id, terms=frozenset(terms))]
            )
    _assert_plans_identical(
        naive.publish_batch(second), fast.publish_batch(second)
    )
    _assert_scores_identical(naive, fast, second[:3])


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_churn_does_not_grow_kernel_state(scheme):
    """Subscribe → publish → unregister with ever-fresh ids: the slab
    reuses its slots and the kernel retains nothing per filter, so
    neither grows with the number of ids ever registered."""
    bundle = ScaledWorkload(
        num_filters=300, num_documents=8, seed=4
    ).build()
    workload = bundle.workload
    cluster, config = build_cluster(
        workload.num_nodes, workload.node_capacity, seed=3
    )
    system = make_system(scheme, cluster, config, threshold=THRESHOLD)
    system.subscribe(bundle.filters)
    if isinstance(system, MoveSystem):
        system.seed_frequencies(bundle.offline_corpus())
    system.finalize_registration()
    kernel_bytes_before = len(pickle.dumps(system._kernel))
    peak_live = len(bundle.filters) + 1
    documents = bundle.documents
    donors = bundle.filters
    for cycle in range(2_000):
        donor = donors[cycle % len(donors)]
        fresh = Filter(filter_id=f"churn{cycle}", terms=donor.terms)
        system.subscribe([fresh])
        system.publish_batch([documents[cycle % len(documents)]])
        system.unregister(fresh.filter_id)
    assert system.filter_slab.slot_count <= peak_live + 1
    assert len(pickle.dumps(system._kernel)) <= kernel_bytes_before


# ---------------------------------------------------------------------------
# SiftMatcher-level equivalence
# ---------------------------------------------------------------------------


def test_sift_matcher_kernel_matches_brute_force():
    bundle = WORKLOAD.build()
    scorer = VsmScorer()
    index = InvertedIndex()
    for profile in bundle.filters[:300]:
        index.add_filter(profile)
    matcher = SiftMatcher(index, scorer=scorer, threshold=THRESHOLD)
    for document in bundle.documents[:20]:
        fast_matched, fast_cost = matcher.match(document)
        naive_matched, naive_cost = brute_force_sift(
            index, scorer, THRESHOLD, document
        )
        # Same filters in the same (first-appearance) order, and the
        # same RetrievalCost despite pruning.
        assert [p.filter_id for p in fast_matched] == [
            p.filter_id for p in naive_matched
        ]
        assert fast_cost == naive_cost
        for profile in fast_matched:
            assert matcher.kernel.score(document, profile) == (
                scorer.similarity(document, profile)
            )


def test_match_slots_leaves_postings_resizable():
    """No buffer view of a posting array outlives the pass: an
    ``array('q')`` with a live export raises ``BufferError`` on
    resize, so mutating the index right after matching must work."""
    kernel = ScoreKernel(VsmScorer(), threshold=0.01)
    index = InvertedIndex()
    index.add_filter(Filter.from_terms("f1", ["a", "b"]))
    document = _doc("d1", ["a", "b", "c"])
    slots, lists, entries = kernel.match_slots(document, index)
    assert [index.slab.filter_id(slot) for slot in slots] == ["f1"]
    assert (lists, entries) == (2, 2)
    for i in range(50):
        index.add_filter(Filter.from_terms(f"g{i}", ["a", "c"]))
    index.remove_filter("f1")
    slots, lists, entries = kernel.match_slots(document, index)
    assert (lists, entries) == (2, 100)
    assert len(slots) == 50


# ---------------------------------------------------------------------------
# Kernel unit behavior
# ---------------------------------------------------------------------------


def _doc(doc_id, terms):
    return Document.from_terms(doc_id, terms)


def test_kernel_idf_epoch_invalidates_vector():
    scorer = VsmScorer()
    kernel = ScoreKernel(scorer, threshold=0.5)
    profile = Filter(filter_id="f1", terms=frozenset({"alpha"}))
    kernel.register_filter(profile)
    document = _doc("d1", ["alpha", "beta"])
    before = kernel.score(document, profile)
    assert before == scorer.similarity(document, profile)
    # Shift the IDF landscape: beta gets rarer relative to alpha.
    scorer.statistics.observe(_doc("seen1", ["alpha"]))
    scorer.statistics.observe(_doc("seen2", ["alpha"]))
    after = kernel.score(document, profile)
    assert after == scorer.similarity(document, profile)
    assert after != before  # the memo really was refreshed


def test_kernel_norm_refreshes_on_reregistration():
    scorer = VsmScorer()
    kernel = ScoreKernel(scorer, threshold=0.5)
    kernel.register_filter(Filter(filter_id="f1", terms=frozenset({"a"})))
    document = _doc("d1", ["a", "b", "c"])
    rebound = Filter(filter_id="f1", terms=frozenset({"a", "b", "c"}))
    kernel.unregister_filter("f1")
    kernel.register_filter(rebound)
    assert kernel.score(document, rebound) == scorer.similarity(
        document, rebound
    )


def test_kernel_accumulation_prunes_hopeless_candidates(monkeypatch):
    """With a high threshold, candidates first seen deep in the
    posting walk (small remaining mass) are never admitted to the
    segment sums — yet the matched set still equals the naive
    scorer's."""
    scorer = VsmScorer()
    kernel = ScoreKernel(scorer, threshold=0.9)
    # Build the document around its own (frozenset) iteration order so
    # the heavy term is provably first and the weak filter's term
    # provably last — remaining-mass pruning depends on walk position.
    term_set = frozenset({"t0", "t1", "t2", "t3", "t4", "t5"})
    order = list(term_set)
    heavy_term, weak_term = order[0], order[-1]
    counts = {term: 1 for term in term_set}
    counts[heavy_term] = 500_000_000  # tf weight ~21 vs ~1 elsewhere
    document = Document(
        doc_id="d1", terms=term_set, term_counts=counts
    )
    strong = Filter(filter_id="strong", terms=frozenset({heavy_term}))
    weak = Filter(filter_id="weak", terms=frozenset({weak_term}))
    index = InvertedIndex()
    for profile in (strong, weak):
        index.add_filter(profile)
    admitted = []
    segment_sums = kernel_module._exact_segment_sums

    def recording(vals_sorted, seg_start, seg_len):
        admitted.append(len(seg_start))
        return segment_sums(vals_sorted, seg_start, seg_len)

    monkeypatch.setattr(kernel_module, "_exact_segment_sums", recording)
    slots, _lists, _entries = kernel.match_slots(document, index)
    # "weak" was pruned at admission: only one candidate was summed ...
    assert admitted == [1]
    # ... and the matched set still agrees with the naive scorer.
    naive = [
        profile.filter_id
        for profile in (strong, weak)
        if scorer.similarity(document, profile) >= 0.9
    ]
    assert [index.slab.filter_id(slot) for slot in slots] == naive


def test_kernel_accumulation_scores_match_similarity():
    """Accumulated scores (all-terms index walk) equal the canonical
    ``VsmScorer.similarity`` bit for bit: a threshold set to a
    filter's exact similarity matches it, and one ULP above does
    not."""
    scorer = VsmScorer()
    for i in range(7):
        scorer.statistics.observe(
            _doc(f"bg{i}", ["a", "b"] if i % 2 else ["b", "c"])
        )
    filters = [
        Filter(filter_id="fa", terms=frozenset({"a"})),
        Filter(filter_id="fab", terms=frozenset({"a", "b"})),
        Filter(filter_id="fbc", terms=frozenset({"b", "c", "zz"})),
    ]
    index = InvertedIndex()
    for profile in filters:
        index.add_filter(profile)
    document = _doc("d1", ["a", "b", "c", "a", "d"])
    for profile in filters:
        exact = scorer.similarity(document, profile)
        slot = index.slab.slot_of(profile.filter_id)
        at = ScoreKernel(scorer, threshold=exact)
        above = ScoreKernel(scorer, threshold=math.nextafter(exact, 2.0))
        at_slots, _, _ = at.match_slots(document, index)
        above_slots, _, _ = above.match_slots(document, index)
        assert slot in at_slots
        assert slot not in above_slots


def test_kernel_batch_cache_shares_vectors_across_visits():
    """Within one batch the document vector is built once: the cache
    entry object is reused across node visits."""
    from repro.core.pipeline import BatchCaches

    scorer = VsmScorer()
    kernel = ScoreKernel(scorer, threshold=0.5)
    caches = BatchCaches()
    document = _doc("d1", ["a", "b"])
    entry_one = kernel.scores_for(document, caches)
    entry_two = kernel.scores_for(document, caches)
    assert entry_one is entry_two
    # A different cache set (a new batch) rebuilds.
    assert kernel.scores_for(document, BatchCaches()) is not entry_one


def test_kernel_rejects_invalid_threshold():
    with pytest.raises(ValueError):
        ScoreKernel(VsmScorer(), threshold=0.0)
    with pytest.raises(ValueError):
        ScoreKernel(VsmScorer(), threshold=1.5)
