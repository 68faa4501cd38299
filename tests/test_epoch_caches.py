"""Epoch-scoped pipeline memos are observationally inert.

The pipeline keeps one memo set per batch epoch (registration,
allocation and membership state) instead of one per batch.  These
tests drive random operation sequences — subscribe, unregister,
reallocate, node failure and recovery, node joins, the rebalance
hand-off (as its own op, so batches, subscriptions and unregistrations
land between a join and its hand-off), and batches of random sizes —
through every scheme and matching mode, next to the cold-cache twin of
:func:`tests.oracles.cold_cache_twin`, which drops the memos before
every batch.  Plans, RNG streams and stored replicas must be equal
throughout, and the memo set must never reach a pickle.
"""

from __future__ import annotations

import pickle
import random
import zlib

import pytest

from repro.core import MoveSystem
from repro.experiments.harness import (
    ScaledWorkload,
    build_cluster,
    make_system,
)
from repro.obs import Tracer

from tests.oracles import cold_cache_twin

SCHEMES = ("move", "il", "rs", "central")
THRESHOLD = 0.12
INITIAL_FILTERS = 240
OPS = 28

_BUNDLES = {}


def _bundle(predicates: bool):
    bundle = _BUNDLES.get(predicates)
    if bundle is None:
        bundle = ScaledWorkload(
            num_filters=400,
            num_documents=60,
            num_nodes=8,
            node_capacity=200,
            vocabulary_size=1_500,
            mean_doc_terms=24.0,
            seed=11,
            predicate_fraction=0.3 if predicates else 0.0,
        ).build()
        _BUNDLES[predicates] = bundle
    return bundle


def _build(scheme, bundle, threshold, traced, cold):
    workload = bundle.workload
    cluster, config = build_cluster(
        workload.num_nodes, workload.node_capacity, seed=2
    )
    system = make_system(scheme, cluster, config, threshold=threshold)
    if cold:
        cold_cache_twin(system)
    if traced:
        system.tracer = Tracer()
    system.subscribe(bundle.filters[:INITIAL_FILTERS])
    if isinstance(system, MoveSystem):
        system.seed_frequencies(bundle.offline_corpus())
    system.finalize_registration()
    return system


def _rng_states(system):
    owners = {"system": system}
    if isinstance(system, MoveSystem):
        owners["coordinator"] = system.coordinator
    return {
        f"{label}.{name}": value.getstate()
        for label, owner in owners.items()
        for name, value in vars(owner).items()
        if isinstance(value, random.Random)
    }


def _plan_key(plan):
    return (
        plan.document.doc_id,
        frozenset(plan.matched_filter_ids),
        frozenset(plan.unreachable_filter_ids),
        tuple(plan.tasks),
        plan.routing_messages,
    )


def _assert_twins_equal(warm, cold):
    assert _rng_states(warm) == _rng_states(cold)
    assert warm.storage_distribution() == cold.storage_distribution()
    assert sorted(warm.subscriptions()) == sorted(cold.subscriptions())


def _run_sequence(warm, cold, bundle, seed):
    """Apply one random op sequence to both twins, diffing plans."""
    rng = random.Random(seed)
    pool = list(bundle.filters[INITIAL_FILTERS:])
    documents = bundle.documents
    joins = 0
    published = 0
    for _ in range(OPS):
        op = rng.choice(
            (
                "publish", "publish", "publish", "publish",
                "subscribe", "unregister", "reallocate",
                "fail", "recover", "join", "rebalance",
            )
        )
        if op == "publish":
            start = rng.randrange(len(documents))
            batch = documents[start : start + rng.randint(0, 6)]
            warm_plans = warm.publish_batch(batch)
            cold_plans = cold.publish_batch(batch)
            assert [_plan_key(p) for p in warm_plans] == [
                _plan_key(p) for p in cold_plans
            ]
            published += len(batch)
        elif op == "subscribe" and pool:
            take = rng.randint(1, 8)
            chunk, pool = pool[:take], pool[take:]
            warm.subscribe(chunk)
            cold.subscribe(chunk)
        elif op == "unregister":
            ids = sorted(warm.subscriptions())
            for filter_id in rng.sample(ids, k=min(3, len(ids))):
                warm.unregister(filter_id)
                cold.unregister(filter_id)
        elif op == "reallocate" and isinstance(warm, MoveSystem):
            force = rng.random() < 0.5
            warm.reallocate(force=force)
            cold.reallocate(force=force)
        elif op == "fail":
            live = warm.cluster.live_node_ids()
            if len(live) > 2:
                node_id = rng.choice(live)
                warm.cluster.fail_node(node_id)
                cold.cluster.fail_node(node_id)
        elif op == "recover":
            down = sorted(
                set(warm.cluster.node_ids())
                - set(warm.cluster.live_node_ids())
            )
            if down:
                node_id = rng.choice(down)
                warm.cluster.recover_node(node_id)
                cold.cluster.recover_node(node_id)
        elif op == "join" and joins < 2:
            joins += 1
            warm.cluster.add_node()
            cold.cluster.add_node()
        elif op == "rebalance" and hasattr(warm, "rebalance"):
            # RS and the central node have no hand-off: a join only
            # gives them another ingest node.
            assert warm.rebalance() == cold.rebalance()
        _assert_twins_equal(warm, cold)
    # Close on a batch so the comparison ends on warm memos.
    batch = documents[:5]
    assert [_plan_key(p) for p in warm.publish_batch(batch)] == [
        _plan_key(p) for p in cold.publish_batch(batch)
    ]
    _assert_twins_equal(warm, cold)
    return published


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "predicates", [False, True], ids=["flat", "predicated"]
)
@pytest.mark.parametrize(
    "threshold", [None, THRESHOLD], ids=["boolean", "threshold"]
)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_epoch_caches_match_cold_twin(scheme, threshold, predicates, traced):
    bundle = _bundle(predicates)
    warm = _build(scheme, bundle, threshold, traced, cold=False)
    cold = _build(scheme, bundle, threshold, traced, cold=True)
    assert warm.has_predicates == predicates
    seed = zlib.crc32(repr((scheme, threshold, predicates, traced)).encode())
    assert _run_sequence(warm, cold, bundle, seed) > 0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_memos_survive_batches_until_the_epoch_moves(scheme):
    bundle = _bundle(False)
    system = _build(scheme, bundle, None, traced=False, cold=False)
    system.publish_batch(bundle.documents[:3])
    caches = system._engine._caches
    assert caches is not None and caches.retrieval
    assert not caches.doc_scores
    system.publish(bundle.documents[3])
    assert system._engine._caches is caches
    system.cluster.fail_node(system.cluster.node_ids()[-1])
    system.publish(bundle.documents[4])
    assert system._engine._caches is not caches


@pytest.mark.parametrize("scheme", SCHEMES)
def test_memos_never_reach_a_pickle(scheme):
    bundle = _bundle(False)
    system = _build(scheme, bundle, THRESHOLD, traced=False, cold=False)
    batch = bundle.documents[:10]
    system.publish_batch(batch)
    size = len(pickle.dumps(system))
    for _ in range(2):
        # Republishing hits every memo; only MOVE's frequency
        # statistics change, so the other snapshots keep their size.
        system.publish_batch(batch)
        assert system._engine._caches is not None
        warm = pickle.dumps(system)
        if not isinstance(system, MoveSystem):
            assert len(warm) == size
        restored = pickle.loads(warm)
        assert restored._engine._caches is None
        assert len(pickle.dumps(restored)) == len(warm)
    # The warm original and its cold restored copy go on identically.
    later = bundle.documents[10:20]
    assert [_plan_key(p) for p in system.publish_batch(later)] == [
        _plan_key(p) for p in restored.publish_batch(later)
    ]


def test_snapshot_state_from_before_epoch_memos_loads():
    # Snapshots written while the memo set still lived for one batch
    # pickled the pipeline's default slots state: (None, {system, clock}).
    from repro.core.pipeline import DisseminationPipeline
    from repro.sim.engine import PERF_CLOCK

    bundle = _bundle(False)
    system = _build("move", bundle, None, traced=False, cold=False)
    engine = DisseminationPipeline.__new__(DisseminationPipeline)
    engine.__setstate__((None, {"system": system, "clock": PERF_CLOCK}))
    assert engine._caches is None
    assert len(engine.publish_batch(bundle.documents[:2])) == 2
    assert engine._caches is not None
