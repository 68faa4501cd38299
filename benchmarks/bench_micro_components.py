"""Micro-benchmarks of the hot components.

Not paper figures — these time the building blocks the figure
experiments stress (stemming, Bloom filter, posting lists, ring
lookup, SIFT vs home-node matching) so performance regressions in the
substrate are visible independently of the system-level numbers.
"""

from __future__ import annotations

import random

from repro.cluster import ConsistentHashRing
from repro.matching import BloomFilter, InvertedIndex, SiftMatcher
from repro.model import Document, Filter
from repro.text import PorterStemmer


WORDS = [
    "relational", "conditional", "operational", "distributed",
    "computing", "clusters", "allocation", "separation",
    "replication", "dissemination", "throughput", "filtering",
]


def test_micro_porter_stemmer(benchmark):
    stemmer = PorterStemmer()

    def stem_batch():
        return [stemmer.stem_word(word) for word in WORDS * 50]

    result = benchmark(stem_batch)
    assert len(result) == len(WORDS) * 50


def test_micro_bloom_filter(benchmark):
    bloom = BloomFilter(expected_items=10_000)
    bloom.update(f"term{i}" for i in range(10_000))
    probes = [f"term{i}" for i in range(0, 20_000, 2)]

    def probe_batch():
        return sum(1 for p in probes if p in bloom)

    hits = benchmark(probe_batch)
    assert hits >= len(probes) // 2


def test_micro_posting_list_operations(benchmark):
    from repro.matching import PostingList

    base = PostingList("t", range(0, 20_000, 2))
    other = PostingList("t", range(0, 20_000, 3))

    def merge():
        return len(base.union(other)), len(base.intersect(other))

    union_len, intersect_len = benchmark(merge)
    assert union_len > intersect_len


def test_micro_ring_lookup(benchmark):
    ring = ConsistentHashRing(vnodes=64)
    for i in range(100):
        ring.add_node(f"node{i:03d}")
    keys = [f"term{i}" for i in range(1_000)]

    def lookup_batch():
        return [ring.home_node(key) for key in keys]

    owners = benchmark(lookup_batch)
    assert len(set(owners)) > 10


def _build_index(num_filters: int) -> InvertedIndex:
    rng = random.Random(5)
    index = InvertedIndex()
    for i in range(num_filters):
        terms = [f"t{rng.randrange(2_000)}" for _ in range(3)]
        index.add_filter(Filter.from_terms(f"f{i}", terms))
    return index


def test_micro_sift_matching(benchmark):
    index = _build_index(5_000)
    matcher = SiftMatcher(index)
    rng = random.Random(6)
    document = Document.from_terms(
        "d", [f"t{rng.randrange(2_000)}" for _ in range(65)]
    )

    def match():
        filters, cost = matcher.match(document)
        return len(filters), cost.posting_entries

    matched, entries = benchmark(match)
    assert entries >= matched


def test_micro_query_evaluation(benchmark):
    from repro.model.query import parse_query

    node = parse_query(
        "(storm OR surge) AND (flood OR rain) NOT sports"
    )
    term_sets = [
        frozenset({"storm", "flood", f"w{i}"}) for i in range(500)
    ]

    def evaluate_batch():
        return sum(1 for terms in term_sets if node.matches(terms))

    hits = benchmark(evaluate_batch)
    assert hits == 500


def test_micro_home_node_matching(benchmark):
    index = _build_index(5_000)
    term = index.terms()[0]
    document = Document.from_terms("d", [term, "zz1", "zz2"])

    def match():
        filters, cost = index.match_document_single_term(document, term)
        return len(filters)

    benchmark(match)
