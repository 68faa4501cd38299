"""Unit tests for the hot-path building blocks.

Covers the pieces the batched dissemination pipeline is built from:
term interning, posting-list bulk loading and serialization, the
ring's home-node memo (and its invalidation on membership change),
and the simulator's lazy heap compaction.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ConsistentHashRing
from repro.matching import InvertedIndex, PostingList
from repro.model import Document, Filter
from repro.sim import Simulator
from repro.text.interning import (
    DEFAULT_INTERNER,
    TermInterner,
    cached_stem,
    cached_tokenize,
    cached_tokenize_ids,
    intern_terms,
    interned_id_set,
)
from repro.text.porter import PorterStemmer
from repro.text.tokenizer import tokenize


# ---------------------------------------------------------------------------
# Term interning
# ---------------------------------------------------------------------------

class TestTermInterner:
    def test_dense_first_seen_order(self):
        interner = TermInterner()
        assert interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.intern("a") == 0
        assert len(interner) == 2

    def test_round_trip(self):
        interner = TermInterner(["x", "y"])
        assert interner.term(interner.intern("y")) == "y"
        assert interner.terms([0, 1]) == ["x", "y"]

    def test_lookup_without_interning(self):
        interner = TermInterner()
        assert interner.lookup("ghost") is None
        assert "ghost" not in interner

    def test_negative_id_rejected(self):
        with pytest.raises(IndexError):
            TermInterner().term(-1)

    def test_document_and_filter_ids_parallel_to_terms(self):
        document = Document.from_terms("d", ["alpha", "beta", "gamma"])
        profile = Filter.from_terms("f", ["beta", "delta"])
        for holder in (document, profile):
            ids = holder.term_ids
            assert len(ids) == len(holder.terms)
            for term, term_id in zip(holder.terms, ids):
                assert DEFAULT_INTERNER.term(term_id) == term
            # The lazy cache returns the identical tuple.
            assert holder.term_ids is ids

    def test_shared_interner_agrees_across_objects(self):
        doc = Document.from_terms("d1", ["shared", "other"])
        profile = Filter.from_terms("f1", ["shared"])
        shared_ids = interned_id_set(["shared"])
        assert shared_ids <= set(doc.term_ids)
        assert shared_ids == set(profile.term_ids)

    def test_cached_stem_matches_porter(self):
        stemmer = PorterStemmer()
        for word in ["caresses", "running", "relational", "sky"]:
            assert cached_stem(word) == stemmer.stem_word(word)

    def test_cached_tokenize_matches_pipeline(self):
        text = "The QUICK brown foxes were running and jumping"
        assert list(cached_tokenize(text)) == list(tokenize(text))

    def test_cached_tokenize_ids_round_trip(self):
        text = "distributed keyword filtering"
        ids = cached_tokenize_ids(text)
        assert DEFAULT_INTERNER.terms(ids) == list(cached_tokenize(text))

    def test_intern_terms_preserves_order(self):
        ids = intern_terms(["one", "two", "one"])
        assert ids[0] == ids[2]
        assert ids[0] != ids[1]


# ---------------------------------------------------------------------------
# Posting list bulk operations + serialization
# ---------------------------------------------------------------------------

class TestPostingBulk:
    def test_add_many_equals_repeated_add(self):
        rng = random.Random(5)
        ids = [rng.randrange(10_000) for _ in range(500)]
        one_by_one = PostingList("t")
        added_single = sum(1 for i in ids if one_by_one.add(i))
        bulk = PostingList("t")
        added_bulk = bulk.add_many(ids)
        assert bulk.ids() == one_by_one.ids()
        assert added_bulk == added_single

    def test_add_many_counts_only_new(self):
        plist = PostingList("t", [1, 2, 3])
        assert plist.add_many([2, 3, 4, 4, 5]) == 2
        assert plist.ids() == (1, 2, 3, 4, 5)

    def test_add_many_empty_and_all_duplicates(self):
        plist = PostingList("t", [7])
        assert plist.add_many([]) == 0
        assert plist.add_many([7, 7]) == 0
        assert plist.ids() == (7,)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**50),
            max_size=200,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_bulk_load_property(self, ids):
        plist = PostingList("t")
        plist.add_many(ids)
        assert plist.ids() == tuple(sorted(set(ids)))

    def test_index_add_filters_matches_per_filter_adds(self):
        profiles = [
            Filter.from_terms(f"f{i}", [f"t{i % 5}", f"t{(i + 1) % 5}"])
            for i in range(40)
        ]
        single = InvertedIndex()
        for profile in profiles:
            single.add_filter(profile)
        bulk = InvertedIndex()
        entries = bulk.add_filters(
            (profile, None) for profile in profiles
        )
        assert entries == single.stored_replica_count()
        assert bulk.terms() == single.terms()
        for term in single.terms():
            assert (
                bulk.posting_list(term).ids()
                == single.posting_list(term).ids()
            )

    def test_index_add_filters_single_term_indexing(self):
        profile = Filter.from_terms("f", ["a", "b"])
        index = InvertedIndex()
        index.add_filters([(profile, ["a"])])
        assert index.posting_list("b") is None
        filters, _ = index.filters_for_term("a")
        assert filters[0].filter_id == "f"


# ---------------------------------------------------------------------------
# Ring home-node memo
# ---------------------------------------------------------------------------

class TestRingHomeCache:
    def _ring(self, count=5):
        ring = ConsistentHashRing(vnodes=16)
        for i in range(count):
            ring.add_node(f"node{i}")
        return ring

    def test_cached_lookup_matches_uncached(self):
        ring = self._ring()
        keys = [f"key{i}" for i in range(300)]
        cached = [ring.home_node(key) for key in keys]
        ring.cache_enabled = False
        uncached = [ring.home_node(key) for key in keys]
        assert cached == uncached

    def test_cache_invalidated_on_remove(self):
        ring = self._ring()
        keys = [f"key{i}" for i in range(300)]
        for key in keys:
            ring.home_node(key)  # warm the memo
        ring.remove_node("node0")
        for key in keys:
            assert ring.home_node(key) != "node0"

    def test_cache_invalidated_on_add(self):
        ring = self._ring(2)
        keys = [f"key{i}" for i in range(500)]
        for key in keys:
            ring.home_node(key)
        ring.add_node("node2")
        # A fresh ring with the same membership must agree — stale memo
        # entries would disagree for keys the new node now owns.
        fresh = self._ring(3)
        assert all(
            ring.home_node(key) == fresh.home_node(key) for key in keys
        )

    def test_remove_node_keeps_state_consistent(self):
        # Regression: remove_node used to discard membership before
        # rebuilding token ownership, so a mid-rebuild comparison saw
        # inconsistent state.  After removal every remaining token
        # must belong to a remaining member.
        ring = self._ring()
        ring.remove_node("node3")
        assert "node3" not in ring.members
        owners = {ring.home_node(f"k{i}") for i in range(500)}
        assert owners <= ring.members

    def test_remove_unknown_leaves_ring_untouched(self):
        ring = self._ring(3)
        before = {f"k{i}": ring.home_node(f"k{i}") for i in range(100)}
        with pytest.raises(Exception):
            ring.remove_node("ghost")
        assert len(ring) == 3
        assert all(
            ring.home_node(key) == owner
            for key, owner in before.items()
        )


# ---------------------------------------------------------------------------
# Simulator heap compaction
# ---------------------------------------------------------------------------

class TestSimulatorCompaction:
    def test_cancelled_majority_triggers_compaction(self):
        sim = Simulator()
        events = [
            sim.schedule(float(i + 1), lambda: None) for i in range(100)
        ]
        # Cancel 70 of 100: the half-heap trigger fires at the 51st
        # cancel and rebuilds the heap without dead entries, so the
        # queue ends well under the 100 slots naive retention keeps.
        for event in events[:70]:
            event.cancel()
        assert sim.pending_events < 50
        assert sim.run() == 30

    def test_minority_cancellation_keeps_heap_lazy(self):
        sim = Simulator()
        events = [
            sim.schedule(float(i + 1), lambda: None) for i in range(10)
        ]
        events[0].cancel()
        # Below the trigger the cancelled entry still occupies a slot.
        assert sim.pending_events == 10

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        keep = []
        for i in range(50):
            event = sim.schedule(
                float(i + 1), lambda i=i: fired.append(i)
            )
            if i % 5 == 0:
                keep.append(i)
            else:
                event.cancel()
        sim.run()
        assert fired == keep

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        events = [
            sim.schedule(float(i + 1), lambda: None) for i in range(4)
        ]
        events[0].cancel()
        events[0].cancel()  # idempotent: must not inflate the counter
        assert sim._cancelled_count == 1
        assert sim.run() == 3

    def test_schedule_cancel_churn_bounds_heap(self):
        # The leak scenario: schedule-then-cancel churn (timeouts)
        # must not grow the heap without bound.
        sim = Simulator()
        sim.schedule(1e9, lambda: None)  # one long-lived event
        for i in range(10_000):
            sim.schedule(float(i + 1), lambda: None).cancel()
        assert sim.pending_events < 100
