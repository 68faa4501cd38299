"""Property: under arbitrary failures, the accounting contract holds.

For every scheme and any random failure pattern:

- ``matched`` is a subset of the healthy oracle's matches (failures
  never invent deliveries),
- anything the oracle would match that was missed is accounted in
  ``unreachable`` (silent loss is a bug),
- the two sets are disjoint.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import InvertedListSystem, RendezvousSystem
from repro.cluster import Cluster
from repro.config import AllocationConfig, ClusterConfig, SystemConfig
from repro.core import MoveSystem
from repro.model import Document, Filter, brute_force_match

TERMS = ["aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"]


def _build(scheme, filters, seed_docs):
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=8, num_racks=2, seed=1),
        allocation=AllocationConfig(node_capacity=300),
        expected_filter_terms=1_000,
        seed=1,
    )
    cluster = Cluster(config.cluster)
    if scheme == "move":
        system = MoveSystem(cluster, config)
    elif scheme == "il":
        system = InvertedListSystem(cluster, config)
    else:
        system = RendezvousSystem(cluster, config)
    system.subscribe(filters)
    if scheme == "move":
        system.seed_frequencies(seed_docs)
    system.finalize_registration()
    return system, cluster


@st.composite
def failure_scenarios(draw):
    filter_terms = draw(
        st.lists(
            st.sets(st.sampled_from(TERMS), min_size=1, max_size=3),
            min_size=3,
            max_size=12,
        )
    )
    doc_terms = draw(
        st.sets(st.sampled_from(TERMS), min_size=1, max_size=6)
    )
    fail_fraction = draw(
        st.sampled_from([0.0, 0.25, 0.5])
    )
    seed = draw(st.integers(min_value=0, max_value=500))
    return filter_terms, doc_terms, fail_fraction, seed


@pytest.mark.parametrize("scheme", ["move", "il", "rs"])
@given(scenario=failure_scenarios())
@settings(max_examples=15, deadline=None)
def test_accounting_contract_under_failures(scheme, scenario):
    filter_terms, doc_terms, fail_fraction, seed = scenario
    filters = [
        Filter.from_terms(f"f{i}", terms)
        for i, terms in enumerate(filter_terms)
    ]
    document = Document.from_terms("d", doc_terms)
    system, cluster = _build(scheme, filters, [document])
    if fail_fraction:
        cluster.fail_fraction(fail_fraction, random.Random(seed))
    plan = system.publish(document)
    oracle = {
        f.filter_id for f in brute_force_match(document, filters)
    }
    assert plan.matched_filter_ids <= oracle
    assert (oracle - plan.matched_filter_ids) <= (
        plan.unreachable_filter_ids
    )
    assert not (
        plan.matched_filter_ids & plan.unreachable_filter_ids
    )
