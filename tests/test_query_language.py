"""Tests for the boolean query language: parsing and anchors."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.model import Subscription
from repro.model.query import (
    And,
    Not,
    Or,
    QueryError,
    QueryNode,
    Term,
    parse_query,
)


def _terms(*words):
    return frozenset(words)


class TestParsing:
    def test_single_term(self):
        node = parse_query("storm")
        assert isinstance(node, Term)
        assert node.matches(_terms("storm"))

    def test_terms_are_pipeline_normalized(self):
        node = parse_query("Storms")
        assert node.matches(_terms("storm"))  # stemmed + lowercased

    def test_explicit_and(self):
        node = parse_query("storm AND flood")
        assert node.matches(_terms("storm", "flood"))
        assert not node.matches(_terms("storm"))

    def test_implicit_and(self):
        node = parse_query("storm flood")
        assert not node.matches(_terms("storm"))
        assert node.matches(_terms("storm", "flood"))

    def test_or(self):
        node = parse_query("storm OR flood")
        assert node.matches(_terms("storm"))
        assert node.matches(_terms("flood"))
        assert not node.matches(_terms("sun"))

    def test_not(self):
        node = parse_query("storm NOT sports")
        assert node.matches(_terms("storm"))
        assert not node.matches(_terms("storm", "sport"))

    def test_parentheses_and_precedence(self):
        node = parse_query("storm AND (flood OR surge)")
        assert node.matches(_terms("storm", "flood"))
        assert node.matches(_terms("storm", "surg"))
        assert not node.matches(_terms("storm"))

    def test_or_binds_looser_than_and(self):
        node = parse_query("quake OR storm flood")
        # = quake OR (storm AND flood)
        assert node.matches(_terms("quak"))
        assert node.matches(_terms("storm", "flood"))
        assert not node.matches(_terms("storm"))

    def test_hyphenated_token_splits_to_and(self):
        node = parse_query("real-time")
        assert node.matches(_terms("real", "time"))
        assert not node.matches(_terms("real"))

    def test_case_insensitive_keywords(self):
        node = parse_query("storm or flood")
        assert node.matches(_terms("flood"))

    def test_errors(self):
        for bad in (
            "",
            "AND storm",
            "storm AND",
            "(storm",
            "storm)",
            "the",  # vanishes in pipeline
            "NOT",
        ):
            with pytest.raises(QueryError):
                parse_query(bad)

    def test_str_roundtrips_semantics(self):
        node = parse_query("storm AND (flood OR surge) NOT sports")
        reparsed = parse_query(str(node))
        for terms in (
            _terms("storm", "flood"),
            _terms("storm", "surg", "sport"),
            _terms("flood"),
        ):
            assert node.matches(terms) == reparsed.matches(terms)


class TestAnchors:
    def test_term_anchor(self):
        assert parse_query("storm").anchors() == {"storm"}

    def test_and_picks_smallest(self):
        node = parse_query("(aa OR bb OR cc) AND dd")
        assert node.anchors() == {"dd"}

    def test_or_unions(self):
        assert parse_query("aa OR bb").anchors() == {"aa", "bb"}

    def test_not_contributes_nothing(self):
        assert parse_query("aa NOT bb").anchors() == {"aa"}

    def test_pure_negation_unroutable(self):
        with pytest.raises(QueryError):
            Subscription.from_query("q", "NOT sports")

    def test_anchor_soundness_property(self):
        # Any document satisfying the query contains an anchor.
        queries = [
            "aa AND bb",
            "aa OR (bb AND cc)",
            "(aa OR bb) AND (cc OR dd)",
            "aa NOT bb",
            "aa bb cc",
        ]
        universe = ["aa", "bb", "cc", "dd", "ee"]
        import itertools

        for text in queries:
            node = parse_query(text)
            anchors = node.anchors()
            assert anchors
            for size in range(len(universe) + 1):
                for combo in itertools.combinations(universe, size):
                    terms = frozenset(combo)
                    if node.matches(terms):
                        assert terms & anchors, (text, combo)


_leaf = st.sampled_from(["aa", "bb", "cc", "dd"])


def _ast(depth=0):
    if depth >= 3:
        return _leaf.map(Term)
    return st.deferred(
        lambda: st.one_of(
            _leaf.map(Term),
            st.tuples(_ast(depth + 1), _ast(depth + 1)).map(
                lambda pair: And(pair)
            ),
            st.tuples(_ast(depth + 1), _ast(depth + 1)).map(
                lambda pair: Or(pair)
            ),
        )
    )


@given(node=_ast(), terms=st.sets(_leaf, max_size=4))
@settings(max_examples=80, deadline=None)
def test_anchor_soundness_random_asts(node, terms):
    anchors = node.anchors()
    assert anchors is not None  # no Not in generated ASTs
    term_set = frozenset(terms)
    if node.matches(term_set):
        assert term_set & anchors
