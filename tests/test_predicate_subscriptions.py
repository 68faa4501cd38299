"""First-class predicate subscriptions, end to end.

The contract under test: a :class:`~repro.model.Subscription` routes
through the home-node/Bloom machinery *exactly* like a flat filter
over its anchor terms, and the full boolean predicate is enforced
only at the delivery boundary.  Therefore a predicated system must be
indistinguishable from a flat twin registered with the anchor-only
profiles — same tasks, same routing, same unreachable sets, same RNG
stream — except that delivery drops exactly the matched ids whose
predicate rejects the document.

That twin-oracle property is checked across every scheme, boolean
and threshold semantics, and under node failures; an independent pure-model oracle re-derives
the boolean case from :meth:`QueryNode.matches` alone.  Around it:
the redesigned ``subscribe`` entrypoint (uniform item kinds, auto
ids, all-or-nothing chunks), rarest-anchor homing against live popularity
statistics, deterministic anchor tie-breaks, slab rehydration, WAL
replay of ``subscribe``, reallocation carrying predicates along, and
query subscriptions over the TCP protocol.
"""

from __future__ import annotations

import asyncio
import random
import threading
from dataclasses import replace

import pytest

from repro.baselines.base import DisseminationSystem
from repro.cluster import Cluster
from repro.config import ClusterConfig, SystemConfig
from repro.core import MoveSystem
from repro.errors import ServiceError
from repro.experiments.harness import (
    ScaledWorkload,
    build_cluster,
    make_system,
)
from repro.model import (
    Document,
    Filter,
    QueryError,
    Subscription,
    parse_query,
)
from repro.model.query import anchor_candidates, is_flat
from repro.obs import Tracer
from repro.serve import ServeConfig, ServiceClient, ServiceRuntime, ServiceServer
from repro.serve.journal import JournaledSystem
from repro.text import tokenize

ALL_SCHEMES = ["move", "il", "rs", "central"]

WORKLOAD = ScaledWorkload(
    num_filters=240,
    num_documents=30,
    num_nodes=6,
    seed=7,
    predicate_fraction=0.4,
)


def _flat_twin(profile: Filter) -> Filter:
    """The anchor-only flat profile a subscription routes as."""
    return Filter(
        filter_id=profile.filter_id,
        terms=profile.terms,
        owner=profile.owner,
    )


def _predicate_of(profile: Filter):
    if isinstance(profile, Subscription):
        return profile.predicate
    return None


def _build(scheme, bundle, *, threshold=None, flat=False, seed=3):
    workload = bundle.workload
    cluster, config = build_cluster(
        workload.num_nodes, workload.node_capacity, seed=seed
    )
    system = make_system(scheme, cluster, config, threshold=threshold)
    profiles = bundle.filters
    if flat:
        profiles = [_flat_twin(p) for p in profiles]
    system.subscribe(profiles)
    if isinstance(system, MoveSystem):
        system.seed_frequencies(bundle.offline_corpus())
    system.finalize_registration()
    return system


def _fail_same_nodes(*systems, fraction=0.25):
    node_ids = sorted(systems[0].cluster.node_ids())
    victims = node_ids[: int(round(fraction * len(node_ids)))]
    for system in systems:
        for node_id in victims:
            system.cluster.fail_node(node_id)


def _check_twin_property(scheme, *, threshold=None, fail=0.0):
    bundle = WORKLOAD.build()
    predicates = {
        p.filter_id: _predicate_of(p) for p in bundle.filters
    }
    assert any(v is not None for v in predicates.values())
    predicated = _build(scheme, bundle, threshold=threshold)
    flat = _build(scheme, bundle, threshold=threshold, flat=True)
    if fail:
        _fail_same_nodes(predicated, flat, fraction=fail)
    pred_plans = predicated.publish_batch(bundle.documents)
    flat_plans = flat.publish_batch(bundle.documents)
    rejected_total = 0
    for pred_plan, flat_plan in zip(pred_plans, flat_plans):
        document = pred_plan.document
        expected = {
            fid
            for fid in flat_plan.matched_filter_ids
            if predicates[fid] is None
            or predicates[fid].matches(document.terms)
        }
        rejected_total += len(flat_plan.matched_filter_ids) - len(expected)
        assert pred_plan.matched_filter_ids == expected, document.doc_id
        # Everything upstream of the delivery gate is untouched.
        assert (
            pred_plan.unreachable_filter_ids
            == flat_plan.unreachable_filter_ids
        )
        assert pred_plan.routing_messages == flat_plan.routing_messages
        assert pred_plan.tasks == flat_plan.tasks
    # The gate consumes no randomness: where the scheme keeps an RNG
    # (MOVE's placement randomness), both streams are at the same
    # position after the identical upstream work.
    if hasattr(predicated, "_rng"):
        assert predicated._rng.getstate() == flat._rng.getstate()
    # The workload is built so some documents actually exercise NOT/
    # AND rejection; a gate that never fires would vacuously pass.
    if not fail and threshold is None:
        assert rejected_total > 0
    return predicated


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_delivery_matches_flat_twin_plus_predicate(scheme):
    _check_twin_property(scheme)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_delivery_matches_twin_under_node_failure(scheme):
    _check_twin_property(scheme, fail=0.25)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_delivery_matches_twin_under_threshold(scheme):
    _check_twin_property(scheme, threshold=0.12)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_boolean_delivery_matches_pure_model_oracle(scheme):
    """Independent oracle: any-anchor hit gated by QueryNode.matches."""
    bundle = WORKLOAD.build()
    system = _build(scheme, bundle)
    for document in bundle.documents:
        expected = set()
        for profile in bundle.filters:
            if not (document.terms & profile.terms):
                continue
            predicate = _predicate_of(profile)
            if predicate is None or predicate.matches(document.terms):
                expected.add(profile.filter_id)
        plan = system.publish(document)
        assert plan.matched_filter_ids == expected, document.doc_id


def test_failure_soundness_with_predicates():
    """Under failures: no false positives, and every reference match
    is delivered or accounted unreachable."""
    bundle = WORKLOAD.build()
    for scheme in ALL_SCHEMES:
        system = _build(scheme, bundle)
        _fail_same_nodes(system, fraction=0.25)
        for document in bundle.documents[:10]:
            reference = set()
            for profile in bundle.filters:
                if not (document.terms & profile.terms):
                    continue
                predicate = _predicate_of(profile)
                if predicate is None or predicate.matches(document.terms):
                    reference.add(profile.filter_id)
            plan = system.publish(document)
            delivered = set(plan.matched_filter_ids)
            unreachable = set(plan.unreachable_filter_ids)
            assert delivered <= reference, (scheme, document.doc_id)
            assert reference <= delivered | unreachable, (
                scheme,
                document.doc_id,
            )


# ---------------------------------------------------------------------------
# The subscribe() entrypoint
# ---------------------------------------------------------------------------


def _small_system():
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=4, num_racks=2, seed=1), seed=1
    )
    return MoveSystem(Cluster(config.cluster), config)


def test_subscribe_accepts_uniform_item_kinds():
    system = _small_system()
    ids = system.subscribe(
        [
            Filter.from_text("f1", "distributed systems"),
            Subscription.from_query("s1", "storm AND flood"),
            ("q-pair", "cloud AND (storage OR compute)", "carol"),
            "llm NOT hype",
        ]
    )
    assert ids == ["f1", "s1", "q-pair", "q1"]
    subs = system.subscriptions()
    assert set(subs) == set(ids)
    assert subs["q-pair"].owner == "carol"
    assert subs["q1"].query == "llm NOT hype"
    # A single bare item works without wrapping.
    assert system.subscribe("quake") == ["q2"]
    assert system.subscribe(Filter.from_text("f2", "lava")) == ["f2"]


def test_subscribe_auto_id_skips_explicit_ids_in_same_batch():
    system = _small_system()
    ids = system.subscribe([("q1", "storm AND flood"), "quake NOT sport"])
    assert ids == ["q1", "q2"]


def test_subscribe_not_only_query_raises_at_boundary():
    system = _small_system()
    with pytest.raises(QueryError):
        system.subscribe(["NOT sports"])
    assert not system.subscriptions()
    assert not system.has_predicates
    with pytest.raises(QueryError):
        Subscription.from_query("q", "NOT sports")


def test_subscribe_rejects_garbage_items():
    system = _small_system()
    with pytest.raises(TypeError):
        system.subscribe([42])
    with pytest.raises(ValueError):
        system.subscribe(["storm"], chunk_size=0)


def test_subscribe_chunked_matches_unchunked():
    bundle = ScaledWorkload(
        num_filters=90,
        num_documents=10,
        num_nodes=4,
        seed=5,
        predicate_fraction=0.3,
    ).build()
    one = _build("il", bundle)
    cluster, config = build_cluster(4, bundle.workload.node_capacity, seed=3)
    chunked = make_system("il", cluster, config, threshold=None)
    chunked.subscribe(bundle.filters, chunk_size=7)
    chunked.finalize_registration()
    for document in bundle.documents:
        assert (
            one.publish(document).matched_filter_ids
            == chunked.publish(document).matched_filter_ids
        )


def test_subscribe_is_all_or_nothing_per_chunk():
    system = _small_system()
    system.subscribe([Filter.from_text("dup", "storm")])
    with pytest.raises(ValueError):
        system.subscribe(
            [Filter.from_text("new", "flood"), Filter.from_text("dup", "x")]
        )
    assert set(system.subscriptions()) == {"dup"}
    assert not system.has_predicates


def test_unregister_retires_predicate_state():
    system = _small_system()
    system.subscribe([("q", "storm NOT sport"), "flood AND surge"])
    assert system.has_predicates
    system.unregister("q")
    system.unregister("q1")
    assert not system.has_predicates
    assert not system.subscriptions()


# ---------------------------------------------------------------------------
# Anchors and homing
# ---------------------------------------------------------------------------


def test_and_anchor_tie_break_is_deterministic():
    left = parse_query("(bb OR aa) AND (dd OR cc)")
    right = parse_query("(dd OR cc) AND (bb OR aa)")
    assert left.anchors() == right.anchors() == {"aa", "bb"}


def test_anchor_candidates_ordering():
    node = parse_query("(bb OR aa) AND cc AND (dd OR ee)")
    candidates = anchor_candidates(node)
    assert candidates[0] == frozenset({"cc"})
    assert set(map(frozenset, candidates)) == {
        frozenset({"cc"}),
        frozenset({"aa", "bb"}),
        frozenset({"dd", "ee"}),
    }


def test_is_flat_detection():
    assert is_flat(parse_query("storm"))
    assert is_flat(parse_query("storm OR flood OR surge"))
    assert not is_flat(parse_query("storm AND flood"))
    assert not is_flat(parse_query("storm NOT flood"))
    assert Subscription.from_query("q", "storm OR flood").predicate is None
    assert Subscription.from_query("q", "storm AND flood").predicate is not None


def test_rarest_anchor_homing_uses_live_popularity():
    system = _small_system()
    # Make "cloud" popular among registered filters; the conjunction
    # then homes at the rarer (storage OR compute) disjunct even
    # though it needs two terms instead of one.
    system.subscribe(
        [Filter.from_text(f"f{i}", f"cloud extra{i}") for i in range(5)]
    )
    (qid,) = system.subscribe([("q", "cloud AND (storage OR compute)")])
    profile = system.subscriptions()[qid]
    assert profile.terms == frozenset(tokenize("storage compute"))
    # Without popularity statistics the smallest candidate wins.
    cold = Subscription.from_query("q2", "cloud AND (storage OR compute)")
    assert cold.terms == frozenset(tokenize("cloud"))


# ---------------------------------------------------------------------------
# Slab storage
# ---------------------------------------------------------------------------


def test_slab_rehydrates_subscriptions_with_query_text():
    system = _small_system()
    original = Subscription.from_query(
        "q", "storm AND (flood OR surge) NOT sport", owner="alice"
    )
    system.subscribe([original, Filter.from_text("f", "quake")])
    slab = system.filter_slab
    stats = slab.stats()
    assert stats["queries"] == 1
    rehydrated = system.subscriptions()["q"]
    assert isinstance(rehydrated, Subscription)
    assert rehydrated == original
    assert rehydrated.query == original.query
    flat = system.subscriptions()["f"]
    assert not isinstance(flat, Subscription)
    # Predicates parse lazily and are memoized per slot.
    assert stats["parsed_predicates"] == 0
    system.finalize_registration()
    system.publish(Document.from_text("d", "storm flood news"))
    assert slab.stats()["parsed_predicates"] == 1


def test_slab_accounts_query_bytes_and_releases_them():
    system = _small_system()
    baseline = system.filter_slab.memory_bytes()
    system.subscribe([("q", "storm AND flood NOT sport")])
    grown = system.filter_slab.memory_bytes()
    assert grown > baseline
    system.unregister("q")
    assert system.filter_slab.memory_bytes() < grown
    assert system.filter_slab.stats()["queries"] == 0


def test_reallocation_carries_predicates_with_slots():
    bundle = ScaledWorkload(
        num_filters=120,
        num_documents=8,
        num_nodes=4,
        seed=9,
        predicate_fraction=0.5,
    ).build()
    system = _build("move", bundle)
    before = [system.publish(d).matched_filter_ids for d in bundle.documents]
    system.reallocate(force=True)
    after = [system.publish(d).matched_filter_ids for d in bundle.documents]
    assert before == after
    assert system.has_predicates


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def test_predicate_counters_and_span_tags():
    system = _small_system()
    system.subscribe([("q", "storm NOT sport"), ("f", "flood OR storm")])
    system.finalize_registration()
    system.publish(Document.from_text("d1", "storm sport update"))
    assert system.metrics.counter("predicate_evaluated").value >= 1
    assert system.metrics.counter("predicate_rejected").value >= 1
    tracer = Tracer()
    system.tracer = tracer
    system.publish(Document.from_text("d2", "storm calm"))
    execute_spans = [s for s in tracer.spans if s.name == "execute"]
    assert execute_spans
    assert any(
        "predicate_evaluated" in span.tags for span in execute_spans
    )


def test_traced_and_untraced_predicate_delivery_agree():
    bundle = ScaledWorkload(
        num_filters=80,
        num_documents=12,
        num_nodes=4,
        seed=13,
        predicate_fraction=0.5,
    ).build()
    plain = _build("il", bundle)
    traced = _build("il", bundle)
    traced.tracer = Tracer()
    for document in bundle.documents:
        assert (
            plain.publish(document).matched_filter_ids
            == traced.publish(document).matched_filter_ids
        )


# ---------------------------------------------------------------------------
# WAL replay
# ---------------------------------------------------------------------------


def _drive_journal(journaled):
    journaled.subscribe(
        [
            Filter.from_terms("f1", ["alpha", "beta"]),
            Subscription.from_query("s1", "alpha AND gamma"),
            ("p1", "beta NOT delta", "bob"),
            "gamma NOT alpha",
        ]
    )
    journaled.finalize_registration()
    plans = journaled.publish_batch(
        [
            Document.from_terms("d1", ["alpha", "gamma"]),
            Document.from_terms("d2", ["beta", "delta"]),
        ]
    )
    return [p.matched_filter_ids for p in plans]


def test_wal_replays_subscribe_bit_identically(tmp_path):
    live_dir = tmp_path / "live"
    twin_dir = tmp_path / "twin"
    with JournaledSystem(live_dir, scheme="move", num_nodes=4) as live:
        live_matches = _drive_journal(live)
        live_state = live.system._rng.getstate()
        live_ids = set(live.system.subscriptions())
    with JournaledSystem(twin_dir, scheme="move", num_nodes=4) as twin:
        assert _drive_journal(twin) == live_matches
    # Recover the crashed-at-any-point journal from disk.
    with JournaledSystem(live_dir) as recovered:
        assert set(recovered.system.subscriptions()) == live_ids
        assert recovered.system._rng.getstate() == live_state
        assert recovered.system.has_predicates
        # Auto-id sequence resumes exactly where the live node left it.
        (next_id,) = recovered.subscribe(["epsilon NOT alpha"])
        assert next_id == "q2"
        plan = recovered.publish(
            Document.from_terms("d3", ["alpha", "beta", "delta"])
        )
        assert plan.matched_filter_ids == {"f1"}


# ---------------------------------------------------------------------------
# Query subscriptions over TCP
# ---------------------------------------------------------------------------


def test_register_query_over_tcp():
    async def scenario():
        runtime = ServiceRuntime(ServeConfig(scheme="move", num_nodes=4))
        server = ServiceServer(runtime, port=0)
        await server.start()
        results = {}

        def client_work():
            with ServiceClient(port=server.port) as client:
                results["ids"] = client.subscribe(
                    [
                        Filter.from_terms("f1", ["alpha"]),
                        ("q-alert", "alpha NOT beta"),
                        "gamma AND alpha",
                    ]
                )
                client.finalize()
                results["hit"] = client.ingest("d1", terms=["alpha"])
                results["miss"] = client.ingest(
                    "d2", terms=["alpha", "beta"]
                )
                try:
                    client.subscribe(["NOT sports"])
                except ServiceError as error:
                    results["bad_query"] = str(error)
                client.shutdown()

        thread = threading.Thread(target=client_work)
        thread.start()
        await asyncio.wait_for(
            server.shutdown_requested.wait(), timeout=30.0
        )
        await server.close()
        await asyncio.to_thread(thread.join)
        return results

    results = asyncio.run(scenario())
    assert results["ids"] == ["f1", "q-alert", "q1"]
    assert results["hit"]["matched"] == ["f1", "q-alert"]
    assert results["miss"]["matched"] == ["f1"]
    assert "QueryError" in results["bad_query"]


# ---------------------------------------------------------------------------
# Workload predicate mix
# ---------------------------------------------------------------------------


def test_predicate_fraction_validation():
    with pytest.raises(ValueError):
        ScaledWorkload(num_filters=10, num_documents=5, predicate_fraction=1.5)


def test_predicate_workload_build_and_stream_are_twins():
    workload = ScaledWorkload(
        num_filters=120,
        num_documents=10,
        num_nodes=4,
        seed=21,
        predicate_fraction=0.35,
    )
    built = list(workload.build().filters)
    streamed = list(workload.stream().iter_filters())
    assert len(built) == len(streamed)
    for one, two in zip(built, streamed):
        assert type(one) is type(two)
        assert one == two
    predicated = [
        p for p in built
        if isinstance(p, Subscription) and p.predicate is not None
    ]
    assert 0 < len(predicated) < len(built)
    # Anchors stay inside the flat generator's own term universe, and
    # queries re-parse to the predicate they carry.
    for profile in predicated:
        reparsed = parse_query(profile.query)
        assert not is_flat(reparsed)
        for probe in (frozenset(), profile.terms):
            assert reparsed.matches(probe) == profile.predicate.matches(
                probe
            )


def test_zero_predicate_fraction_is_bit_identical_to_flat():
    flat = ScaledWorkload(
        num_filters=50, num_documents=5, num_nodes=4, seed=2
    )
    zero = replace(flat, predicate_fraction=0.0)
    assert [f for f in flat.build().filters] == [
        f for f in zero.build().filters
    ]
    assert all(
        type(f) is Filter for f in zero.build().filters
    )
