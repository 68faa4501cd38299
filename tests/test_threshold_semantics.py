"""Tests for the similarity-threshold semantics across all systems.

Section III-A: "our solution can be extended to approaches with more
involved matching semantics, such as similarity thresholds-based
semantics" — with the threshold active, a term-sharing candidate is
delivered only when its VSM cosine reaches the threshold, and all
three systems must agree with the brute-force threshold oracle.
"""

from __future__ import annotations

import pytest

from repro.baselines import InvertedListSystem, RendezvousSystem
from repro.cluster import Cluster
from repro.config import AllocationConfig, ClusterConfig, SystemConfig
from repro.core import MoveSystem
from repro.model import Document, Filter, ThresholdSemantics, brute_force_match

THRESHOLD = 0.4


def _config():
    return SystemConfig(
        cluster=ClusterConfig(num_nodes=8, num_racks=2, seed=1),
        allocation=AllocationConfig(node_capacity=400),
        expected_filter_terms=5_000,
        seed=1,
    )


def _build(scheme, filters, seed_docs=()):
    config = _config()
    cluster = Cluster(config.cluster)
    if scheme == "move":
        system = MoveSystem(cluster, config, threshold=THRESHOLD)
    elif scheme == "il":
        system = InvertedListSystem(cluster, config, threshold=THRESHOLD)
    else:
        system = RendezvousSystem(cluster, config, threshold=THRESHOLD)
    system.subscribe(filters)
    if scheme == "move" and seed_docs:
        system.seed_frequencies(seed_docs)
    system.finalize_registration()
    return system


def _oracle_ids(document, filters):
    semantics = ThresholdSemantics(threshold=THRESHOLD)
    return {
        f.filter_id
        for f in brute_force_match(document, filters, semantics=semantics)
    }


def test_invalid_threshold_rejected():
    config = _config()
    cluster = Cluster(config.cluster)
    with pytest.raises(ValueError):
        MoveSystem(cluster, config, threshold=0.0)
    with pytest.raises(ValueError):
        InvertedListSystem(cluster, config, threshold=2.0)


def test_threshold_prunes_weak_candidates():
    filters = [
        Filter.from_terms("strong", ["storm", "cloud"]),
        Filter.from_terms("weak", ["storm", "x1", "x2", "x3", "x4"]),
    ]
    system = _build("il", filters)
    # A focused document: full overlap with "strong", 1/5 with "weak".
    doc = Document.from_terms("d", ["storm", "cloud"])
    plan = system.publish(doc)
    assert "strong" in plan.matched_filter_ids
    assert "weak" not in plan.matched_filter_ids


@pytest.mark.parametrize("scheme", ["move", "il", "rs"])
def test_threshold_matches_oracle(scheme, tiny_workload):
    filters, documents = tiny_workload
    system = _build(scheme, filters, seed_docs=documents[:10])
    for document in documents[:20]:
        plan = system.publish(document)
        assert plan.matched_filter_ids == _oracle_ids(document, filters)


@pytest.mark.parametrize("scheme", ["move", "il", "rs"])
def test_threshold_subset_of_boolean(scheme, tiny_workload):
    filters, documents = tiny_workload
    thresholded = _build(scheme, filters, seed_docs=documents[:10])
    for document in documents[:10]:
        thresholded_ids = thresholded.publish(document).matched_filter_ids
        boolean_ids = {
            f.filter_id for f in brute_force_match(document, filters)
        }
        assert thresholded_ids <= boolean_ids


def test_threshold_one_requires_perfect_overlap():
    config = _config()
    cluster = Cluster(config.cluster)
    system = InvertedListSystem(cluster, config, threshold=1.0)
    system.subscribe(Filter.from_terms("exact", ["alpha"]))
    system.subscribe(Filter.from_terms("partial", ["alpha", "zz"]))
    plan = system.publish(Document.from_terms("d", ["alpha"]))
    assert "exact" in plan.matched_filter_ids
    assert "partial" not in plan.matched_filter_ids
