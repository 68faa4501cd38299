"""Tests for the Bloom filter, SIFT matcher and VSM scorer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.matching import BloomFilter, InvertedIndex, SiftMatcher
from repro.matching.vsm import CorpusStatistics, VsmScorer
from repro.model import Document, Filter


class TestBloomFilter:
    def test_added_items_found(self):
        bloom = BloomFilter(expected_items=100)
        bloom.update(["a", "b", "c"])
        assert "a" in bloom
        assert "b" in bloom

    @given(st.sets(st.text(min_size=1, max_size=10), max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_no_false_negatives(self, items):
        bloom = BloomFilter(expected_items=max(len(items), 1))
        bloom.update(items)
        for item in items:
            assert item in bloom

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter(expected_items=1_000, fp_rate=0.01)
        bloom.update(str(i) for i in range(1_000))
        false_positives = sum(
            1 for i in range(1_000, 11_000) if str(i) in bloom
        )
        assert false_positives / 10_000 < 0.05

    def test_estimated_fp_rate(self):
        bloom = BloomFilter(expected_items=100, fp_rate=0.01)
        assert bloom.estimated_fp_rate() == 0.0
        bloom.update(str(i) for i in range(100))
        assert 0.0 < bloom.estimated_fp_rate() < 0.05

    def test_fill_ratio_grows(self):
        bloom = BloomFilter(expected_items=100)
        empty = bloom.fill_ratio()
        bloom.update(str(i) for i in range(50))
        assert bloom.fill_ratio() > empty

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(expected_items=0)
        with pytest.raises(ValueError):
            BloomFilter(expected_items=10, fp_rate=1.5)


class TestSiftMatcher:
    def _index(self):
        index = InvertedIndex()
        index.add_filter(Filter.from_terms("f1", ["cloud"]))
        index.add_filter(Filter.from_terms("f2", ["storm", "rain"]))
        index.add_filter(Filter.from_terms("f3", ["sun"]))
        return index

    def test_matches_all_sharing_filters(self):
        matcher = SiftMatcher(self._index())
        doc = Document.from_terms("d", ["cloud", "storm"])
        filters, cost = matcher.match(doc)
        assert {f.filter_id for f in filters} == {"f1", "f2"}
        assert cost.posting_lists == 2

    def test_retrieves_every_present_term_list(self):
        # SIFT pays one retrieval per document term with a list — the
        # cost signature the rendezvous baseline is charged.
        matcher = SiftMatcher(self._index())
        doc = Document.from_terms("d", ["cloud", "storm", "rain", "sun"])
        _, cost = matcher.match(doc)
        assert cost.posting_lists == 4

    def test_no_match_zero_entries(self):
        matcher = SiftMatcher(self._index())
        filters, cost = matcher.match(Document.from_terms("d", ["xyz"]))
        assert filters == []
        assert cost.posting_entries == 0

    def test_threshold_mode_filters_weak_matches(self):
        index = self._index()
        scorer = VsmScorer()
        matcher = SiftMatcher(index, scorer=scorer, threshold=0.9)
        # Document with many terms but one overlap: low cosine.
        doc = Document.from_terms(
            "d", ["cloud", "a", "b", "c", "e", "g", "h"]
        )
        filters, _ = matcher.match(doc)
        assert filters == []

    def test_threshold_requires_both_args(self):
        with pytest.raises(ValueError):
            SiftMatcher(self._index(), scorer=VsmScorer())


class TestVsmScorer:
    def test_identical_vectors_score_one(self):
        scorer = VsmScorer()
        doc = Document.from_terms("d", ["a"])
        assert scorer.similarity(
            doc, Filter.from_terms("f", ["a"])
        ) == pytest.approx(1.0)

    def test_idf_favours_rare_terms(self):
        stats = CorpusStatistics()
        for i in range(20):
            stats.observe(Document.from_terms(f"d{i}", ["common", f"u{i}"]))
        scorer = VsmScorer(stats)
        doc = Document.from_terms("q", ["common", "u1"])
        rare = scorer.similarity(doc, Filter.from_terms("f", ["u1"]))
        frequent = scorer.similarity(
            doc, Filter.from_terms("f", ["common"])
        )
        assert rare > frequent

    def test_rank_orders_by_similarity(self):
        scorer = VsmScorer()
        doc = Document.from_terms("d", ["a", "b"])
        profiles = [
            Filter.from_terms("partial", ["a", "z"]),
            Filter.from_terms("full", ["a", "b"]),
            Filter.from_terms("none", ["z"]),
        ]
        ranked = scorer.rank(doc, profiles)
        assert [p.filter_id for _s, p in ranked] == [
            "full",
            "partial",
            "none",
        ]

    def test_corpus_statistics_counts(self):
        stats = CorpusStatistics()
        stats.observe(Document.from_terms("d1", ["a", "b"]))
        stats.observe(Document.from_terms("d2", ["a"]))
        assert stats.documents_seen == 2
        assert stats.document_frequency("a") == 2
        assert stats.document_frequency("b") == 1
        assert stats.idf("a") < stats.idf("zz")
