"""Slot-space delivery: plans resolve filter ids once, already sorted.

Every scheme's execution stage appends memoized posting slot arrays;
the pipeline takes their union per document, orders large ones by the
slab's order-key column (the first ``ORDER_KEY_BYTES`` UTF-8 bytes of
each id) and resolves the ids once into ``DisseminationPlan``.  These
tests hold that delivery list to ``sorted()`` of the oracle's match set
where the prefix key alone cannot order it:

- ids that share a prefix longer than the key width (ties on the key);
- non-ASCII ids, whose UTF-8 bytes must sort like their code points;
- ids of 127 and 128 bytes (the one-byte length boundary on the wire);
- slots freed by ``unregister`` and reused by a later ``subscribe``,
  whose order key must be rewritten.

The wire test checks the served response lists the same order.
"""

from __future__ import annotations

import asyncio
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.base import DisseminationPlan
from repro.experiments.harness import build_cluster, make_system
from repro.model import Document, Filter
from repro.model.slab import (
    GROUPS_PER_PASS,
    ORDER_KEY_BYTES,
    VECTOR_MIN_ENTRIES,
    FilterSlabStore,
    order_key,
)
from repro.serve import (
    ServeConfig,
    ServiceClient,
    ServiceRuntime,
    ServiceServer,
)

_VOCABULARY = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]

#: Ids built to defeat the prefix key: long shared prefixes, non-ASCII
#: code points on both sides of the surrogate range, and the 127/128
#: byte boundary.
_SHARED = "subscriber-"  # longer than the key width
_ID_PARTS = st.one_of(
    st.text(alphabet="ab", min_size=0, max_size=3),
    st.text(max_size=4),
    st.sampled_from(["é", "ü", "\ud7ff", "\ue000", "\U0001f600", "z"]),
)
_IDS = st.lists(
    st.one_of(
        st.builds(lambda tail: _SHARED + tail, _ID_PARTS),
        st.builds(lambda tail: "f" + tail, _ID_PARTS),
        st.sampled_from(["x" * 127, "x" * 128, "x" * 126 + "é"]),
    ),
    min_size=1,
    max_size=30,
    unique=True,
)


def test_order_key_is_monotone_in_string_order():
    ids = sorted(
        [
            "",
            "a",
            "a\x00",
            "ab",
            _SHARED + "1",
            _SHARED + "10",
            _SHARED + "2",
            "é",
            "\ud7ff",
            "\ue000",
            "\U0001f600",
            "x" * 128,
        ]
    )
    keys = [order_key(i) for i in ids]
    assert keys == sorted(keys)
    assert order_key(_SHARED + "1") == order_key(_SHARED + "2")
    assert len(_SHARED) > ORDER_KEY_BYTES


def test_resolved_ids_sort_past_ties_beyond_the_key_width():
    slab = FilterSlabStore()
    ids = [_SHARED + s for s in ("b", "a", "c", "", "ab")] + ["é", "e"]
    slots = [slab.add(Filter.from_terms(i, ["t"])) for i in ids]
    # Enough entries for the vectorized pass, then a small group.
    crowd = [
        slab.add(Filter.from_terms(f"z{i:03d}", ["t"])) for i in range(70)
    ]
    big = [tuple(slots[::-1]), tuple(crowd)]
    resolved = slab.resolve_ids([big, [tuple(slots[::-1])], [], [()]])
    expected = sorted(ids + [f"z{i:03d}" for i in range(70)])
    # Key order: sorted except among ids that tie on the key prefix.
    assert [order_key(i) for i in resolved[0]] == sorted(
        order_key(i) for i in expected
    )
    assert sorted(resolved[0]) == expected
    assert sorted(resolved[1]) == sorted(ids)
    assert resolved[2:] == [(), ()]
    assert slab.resolve_ids([]) == []


def test_resolve_ids_handles_many_groups_with_duplicates():
    """Small groups (a set union) and large ones (the vectorized pass)
    keep their duplicates apart from each other's; a batch spanning
    several passes resolves like each group alone."""
    rng = random.Random(5)
    slab = FilterSlabStore()
    ids = [f"{_SHARED}{i:04d}" for i in range(400)] + ["é", "z", "a"]
    slots = [slab.add(Filter.from_terms(i, ["t"])) for i in ids]
    groups = []
    for _ in range(GROUPS_PER_PASS + 60):
        picks = rng.sample(slots, rng.choice([0, 3, 30, 90, 250]))
        group = [
            tuple(sorted(rng.sample(picks, len(picks) // 2))),
            tuple(sorted(picks)),
        ]
        groups.append(group[: rng.randint(0, 2)])
    sizes = [sum(map(len, group)) for group in groups]
    assert min(sizes) < VECTOR_MIN_ENTRIES <= max(sizes)
    expected = [
        tuple(sorted({ids[s] for part in group for s in part}))
        for group in groups
    ]
    resolved = [tuple(sorted(got)) for got in slab.resolve_ids(groups)]
    assert resolved == expected
    alone = [tuple(sorted(slab.resolve_ids([g])[0])) for g in groups]
    assert alone == expected


def test_plans_sort_and_compare_by_their_match_sets():
    document = Document.from_terms("d", ["alpha"])
    plan = DisseminationPlan(document, ("b", "é", "a"))
    assert plan.matched_ids == ("a", "b", "é")
    assert plan.matched_filter_ids == {"a", "b", "é"}
    assert plan == DisseminationPlan(document, ("a", "é", "b"))
    assert plan != DisseminationPlan(document, ("a", "b"))


def _oracle(document, profiles):
    return {
        p.filter_id for p in profiles if p.terms & document.terms
    }


@pytest.mark.parametrize("scheme", ["move", "il", "rs", "central"])
@settings(max_examples=25, deadline=None)
@given(ids=_IDS, crowd=st.integers(0, 90), seed=st.integers(0, 2**16))
def test_matched_ids_equal_sorted_oracle(scheme, ids, crowd, seed):
    """``crowd`` extra filters on the hot term ``alpha`` push some
    documents past :data:`VECTOR_MIN_ENTRIES`, onto the vectorized
    pass; the rest resolve through the small-set path."""
    rng = random.Random(seed)
    profiles = [
        Filter.from_terms(fid, rng.sample(_VOCABULARY, rng.randint(1, 2)))
        for fid in ids
    ] + [
        Filter.from_terms(f"{_SHARED}crowd{i:02d}", ["alpha", "beta"])
        for i in range(crowd)
    ]
    rng.shuffle(profiles)
    cluster, config = build_cluster(4, 2_000, seed=seed)
    system = make_system(scheme, cluster, config)
    live = profiles[: len(profiles) // 2 + 1]
    system.subscribe(live)
    system.finalize_registration()
    documents = [
        Document.from_terms(f"d{i}", rng.sample(_VOCABULARY, 3))
        for i in range(6)
    ]
    documents.append(Document.from_terms("hot", ["alpha", "beta"]))
    for document in documents:
        plan = system.publish(document)
        assert plan.matched_ids == tuple(sorted(_oracle(document, live)))
        assert plan.matched_filter_ids == set(plan.matched_ids)
    # Churn: freed slots are reused by the remaining ids, whose order
    # keys must replace the released ones.
    for profile in live[::2]:
        system.unregister(profile.filter_id)
    live = [p for p in live if p not in live[::2]]
    extra = profiles[len(profiles) // 2 + 1:]
    if extra:
        system.subscribe(extra)
        live += extra
    for document in documents:
        plan = system.publish(document)
        assert plan.matched_ids == tuple(sorted(_oracle(document, live)))


def test_served_responses_list_ids_in_sorted_order():
    ids = [
        _SHARED + "b",
        _SHARED + "a",
        _SHARED + "ab",
        "é-accent",
        "e-plain",
        "x" * 127,
        "x" * 128,
        "x" * 126 + "é",
    ]
    crowd = [f"{_SHARED}{i:03d}" for i in range(VECTOR_MIN_ENTRIES + 6)]
    profiles = [Filter.from_terms(i, ["alpha"]) for i in ids] + [
        Filter.from_terms(i, ["gamma"]) for i in crowd
    ]
    results: dict = {}

    def drive(port: int) -> None:
        try:
            with ServiceClient(port=port) as client:
                client.subscribe(profiles)
                client.finalize()
                results["one"] = client.ingest("d1", terms=["alpha"])
                results["batch"] = client.ingest_batch(
                    [
                        {"doc_id": "d2", "terms": ["alpha", "beta"]},
                        {"doc_id": "d3", "terms": ["beta"]},
                        {"doc_id": "d4", "terms": ["alpha", "gamma"]},
                    ]
                )
        finally:
            with ServiceClient(port=port) as client:
                client.shutdown()

    async def scenario():
        runtime = ServiceRuntime(ServeConfig(scheme="move", num_nodes=4))
        server = ServiceServer(runtime, port=0)
        await server.start()
        thread = threading.Thread(target=drive, args=(server.port,))
        thread.start()
        await asyncio.wait_for(
            server.shutdown_requested.wait(), timeout=30.0
        )
        await server.close()
        await asyncio.to_thread(thread.join)

    asyncio.run(scenario())
    assert results["one"]["matched"] == sorted(ids)
    assert [plan["matched"] for plan in results["batch"]] == [
        sorted(ids),
        [],
        sorted(ids + crowd),
    ]
