"""Tests for posting lists and the local inverted index."""

from __future__ import annotations

import pytest

from repro.errors import MatchingError
from repro.matching import InvertedIndex, PostingList
from repro.model import Document, Filter


class TestPostingList:
    def test_sorted_deduplicated(self):
        plist = PostingList("t", [3, 1, 2, 1])
        assert plist.ids() == (1, 2, 3)

    def test_add_returns_whether_new(self):
        plist = PostingList("t")
        assert plist.add(5)
        assert not plist.add(5)
        assert len(plist) == 1

    def test_contains_binary_search(self):
        plist = PostingList("t", [1, 3, 5, 7])
        assert 5 in plist
        assert 4 not in plist

    def test_remove(self):
        plist = PostingList("t", [1, 2])
        assert plist.remove(1)
        assert not plist.remove(9)
        assert plist.ids() == (2,)

    def test_union(self):
        a = PostingList("t", [1, 3, 5])
        b = PostingList("t", [2, 3, 6])
        assert a.union(b) == [1, 2, 3, 5, 6]

    def test_intersect(self):
        a = PostingList("t", [1, 3, 5])
        b = PostingList("t", [3, 5, 7])
        assert a.intersect(b) == [3, 5]


class TestInvertedIndex:
    def _index(self):
        index = InvertedIndex()
        index.add_filter(Filter.from_terms("f1", ["a", "b"]))
        index.add_filter(Filter.from_terms("f2", ["b", "c"]))
        index.add_filter(Filter.from_terms("f3", ["c"]))
        return index

    def test_full_indexing(self):
        index = self._index()
        assert len(index) == 3
        assert index.distinct_terms == 3
        assert index.stored_replica_count() == 5

    def test_filters_for_term(self):
        index = self._index()
        filters, cost = index.filters_for_term("b")
        assert {f.filter_id for f in filters} == {"f1", "f2"}
        assert cost.posting_lists == 1
        assert cost.posting_entries == 2

    def test_missing_term_costs_nothing(self):
        filters, cost = self._index().filters_for_term("zz")
        assert filters == []
        assert cost.posting_lists == 0

    def test_single_term_indexing(self):
        index = InvertedIndex()
        index.add_filter(
            Filter.from_terms("f", ["a", "b"]), indexed_terms=["a"]
        )
        assert index.posting_list("b") is None
        filters, _ = index.filters_for_term("a")
        assert filters[0].filter_id == "f"

    def test_indexing_under_foreign_term_raises(self):
        index = InvertedIndex()
        with pytest.raises(MatchingError):
            index.add_filter(
                Filter.from_terms("f", ["a"]), indexed_terms=["z"]
            )

    def test_reindex_extends_terms(self):
        index = InvertedIndex()
        profile = Filter.from_terms("f", ["a", "b"])
        index.add_filter(profile, indexed_terms=["a"])
        index.add_filter(profile, indexed_terms=["b"])
        assert len(index) == 1
        assert index.stored_replica_count() == 2

    def test_match_single_term(self):
        index = self._index()
        doc = Document.from_terms("d", ["b", "x"])
        filters, cost = index.match_document_single_term(doc, "b")
        assert {f.filter_id for f in filters} == {"f1", "f2"}
        assert cost.posting_lists == 1

    def test_match_single_term_requires_document_term(self):
        index = self._index()
        doc = Document.from_terms("d", ["x"])
        with pytest.raises(MatchingError):
            index.match_document_single_term(doc, "b")

    def test_match_all_terms_deduplicates(self):
        index = self._index()
        doc = Document.from_terms("d", ["b", "c"])
        filters, cost = index.match_document_all_terms(doc)
        assert {f.filter_id for f in filters} == {"f1", "f2", "f3"}
        # Two lists retrieved (b and c), total four entries.
        assert cost.posting_lists == 2
        assert cost.posting_entries == 4

    def test_remove_filter(self):
        index = self._index()
        assert index.remove_filter("f2")
        assert not index.remove_filter("f2")
        assert len(index) == 2
        filters, _ = index.filters_for_term("b")
        assert {f.filter_id for f in filters} == {"f1"}

    def test_remove_clears_empty_lists(self):
        index = InvertedIndex()
        index.add_filter(Filter.from_terms("f", ["solo"]))
        index.remove_filter("f")
        assert index.posting_list("solo") is None

    def test_contains(self):
        index = self._index()
        assert "f1" in index
        assert "ghost" not in index

    def test_terms_sorted(self):
        assert self._index().terms() == ["a", "b", "c"]

    def test_retrieval_cost_addition(self):
        from repro.matching.inverted_index import RetrievalCost

        total = RetrievalCost(1, 5) + RetrievalCost(2, 7)
        assert total.posting_lists == 3
        assert total.posting_entries == 12
