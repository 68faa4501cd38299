"""publish_batch must be bit-identical to the per-document loop.

The batched pipeline memoizes per-term routing/retrieval work but
must not change a single bit of the outcome: same matched filter-id
sets, same unreachable sets, same :class:`NodeTask` tuples (and hence
the same RetrievalCost totals), same routing-message counts, and the
same RNG stream consumption.  Each test builds two identically-seeded
systems, runs per-document :meth:`publish` on one (the cold-cache twin
of :func:`tests.oracles.cold_cache_twin`: a singleton batch with fresh
caches per document — no cross-document sharing, with the ring's
home-node memo disabled to recover the seed routing exactly) and
:meth:`publish_batch` on the other, and diffs every plan field.

The reference system subscribes one profile at a time and the batched
one in a single ``subscribe`` call, so bulk registration's
state-identity contract is exercised end-to-end as well.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    CentralizedSystem,
    DisseminationSystem,
    InvertedListSystem,
    RendezvousSystem,
)
from repro.config import (
    AllocationConfig,
    SystemConfig,
)
from repro.core import MoveSystem
from repro.experiments.harness import (
    ScaledWorkload,
    build_cluster,
    make_system,
)

from tests.oracles import cold_cache_twin

#: Small enough to keep the suite fast, large enough that per-term
#: memos actually get hit across documents.
WORKLOAD = ScaledWorkload(num_filters=600, num_documents=40, seed=11)

#: Every dissemination system under the equivalence contract.
ALL_SCHEMES = ["move", "il", "rs", "central"]

_MAKERS = {
    "move": MoveSystem,
    "il": InvertedListSystem,
    "rs": RendezvousSystem,
    "central": CentralizedSystem,
}


def _build(scheme, bundle, threshold=None, per_term=False, bulk=False):
    workload = bundle.workload
    cluster, config = build_cluster(
        workload.num_nodes, workload.node_capacity, seed=3
    )
    if per_term:
        config = SystemConfig(
            cluster=config.cluster,
            cost_model=config.cost_model,
            allocation=AllocationConfig(
                node_capacity=config.allocation.node_capacity,
                aggregate_per_node=False,
            ),
            seed=config.seed,
        )
    if threshold is not None:
        system = _MAKERS[scheme](cluster, config, threshold=threshold)
    else:
        system = make_system(scheme, cluster, config)
    if bulk:
        system.subscribe(bundle.filters)
    else:
        for profile in bundle.filters:
            system.subscribe([profile])
    if isinstance(system, MoveSystem):
        system.seed_frequencies(bundle.offline_corpus())
    system.finalize_registration()
    return system


def _fail_same_nodes(slow, fast, fraction):
    """Kill the identical node set on both clusters."""
    node_ids = sorted(slow.cluster.node_ids())
    victims = node_ids[: int(round(fraction * len(node_ids)))]
    for node_id in victims:
        slow.cluster.fail_node(node_id)
        fast.cluster.fail_node(node_id)


def _assert_plans_identical(reference_plans, batched_plans):
    assert len(reference_plans) == len(batched_plans)
    for slow_plan, fast_plan in zip(reference_plans, batched_plans):
        assert slow_plan.document.doc_id == fast_plan.document.doc_id
        assert (
            slow_plan.matched_filter_ids == fast_plan.matched_filter_ids
        )
        assert (
            slow_plan.unreachable_filter_ids
            == fast_plan.unreachable_filter_ids
        )
        assert slow_plan.routing_messages == fast_plan.routing_messages
        # Ordered task comparison covers node ids, hop paths, and the
        # RetrievalCost accounting (posting_lists / posting_entries).
        assert slow_plan.tasks == fast_plan.tasks


def _run_equivalence(scheme, threshold=None, per_term=False, fail=0.0):
    bundle = WORKLOAD.build()
    slow = cold_cache_twin(
        _build(scheme, bundle, threshold=threshold, per_term=per_term)
    )
    fast = _build(
        scheme, bundle, threshold=threshold, per_term=per_term, bulk=True
    )
    if fail:
        _fail_same_nodes(slow, fast, fail)
    # Per-document loop with the ring memo off == seed routing.
    slow.cluster.ring.cache_enabled = False
    reference_plans = [
        slow.publish(document) for document in bundle.documents
    ]
    batched_plans = fast.publish_batch(bundle.documents)
    _assert_plans_identical(reference_plans, batched_plans)
    # Total retrieval-cost accounting must agree too (metrics layer).
    for load_name in ("documents_received", "posting_entries"):
        slow_load = slow.metrics.load(load_name).as_dict()
        fast_load = fast.metrics.load(load_name).as_dict()
        assert slow_load == fast_load


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_batch_identical_healthy(scheme):
    _run_equivalence(scheme)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_batch_identical_under_failures(scheme):
    _run_equivalence(scheme, fail=0.2)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_batch_identical_vsm_threshold(scheme):
    _run_equivalence(scheme, threshold=0.1)


def test_batch_identical_per_term_allocation():
    _run_equivalence("move", per_term=True)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_batch_consumes_same_rng_stream(scheme):
    """After equal-length publish histories, both systems' RNG streams
    are in the same state: interleaving more publishes stays identical.
    """
    bundle = WORKLOAD.build()
    slow = cold_cache_twin(_build(scheme, bundle))
    fast = _build(scheme, bundle)
    slow.cluster.ring.cache_enabled = False
    half = len(bundle.documents) // 2
    first, second = (
        bundle.documents[:half],
        bundle.documents[half:],
    )
    reference_plans = [slow.publish(document) for document in first]
    batched_plans = fast.publish_batch(first)
    _assert_plans_identical(reference_plans, batched_plans)
    # Second batch: the batched system reuses its epoch memos, and
    # the RNG streams must still agree.
    reference_plans = [slow.publish(document) for document in second]
    batched_plans = fast.publish_batch(second)
    _assert_plans_identical(reference_plans, batched_plans)


def test_publish_override_no_longer_reroutes_batches():
    """The pre-pipeline compatibility shim is retired: a subclass that
    overrides ``publish`` no longer has ``publish_batch`` rerouted
    through its override — batches always run the staged engine, and
    the batched plans still match the per-document reference loop."""
    calls = []

    class LegacySystem(InvertedListSystem):
        def publish(self, document):
            # A hand-rolled per-document override; publish_batch must
            # bypass it now that the shim is gone.
            calls.append(document.doc_id)
            return self._engine.publish_batch([document])[0]

    bundle = WORKLOAD.build()
    workload = bundle.workload
    cluster, config = build_cluster(
        workload.num_nodes, workload.node_capacity, seed=3
    )
    legacy = LegacySystem(cluster, config)
    legacy.subscribe(bundle.filters)
    legacy.finalize_registration()
    documents = bundle.documents[:5]
    plans = legacy.publish_batch(documents)
    assert calls == []
    reference = cold_cache_twin(_build("il", bundle))
    reference.cluster.ring.cache_enabled = False
    _assert_plans_identical(
        [reference.publish(document) for document in documents], plans
    )


def test_stage_hooks_are_required_without_publish_override():
    """A subclass that neither overrides ``publish`` nor supplies the
    stage hooks fails loudly, pointing at the missing hook."""

    class HookLess(DisseminationSystem):
        def _register(self, profile):
            pass

        def _choose_ingest(self):
            return "node0"

    bundle = WORKLOAD.build()
    system = HookLess()
    with pytest.raises(NotImplementedError, match="_resolve_routes"):
        system.publish(bundle.documents[0])
