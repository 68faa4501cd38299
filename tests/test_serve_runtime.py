"""Service-mode tests: clocks, the asyncio dataplane, batch contract.

Covers the :class:`~repro.sim.engine.Clock` /
:class:`~repro.sim.engine.EventDriver` abstraction, the
:class:`~repro.serve.runtime.ServiceRuntime` queueing semantics
(equivalence with direct calls, micro-batching, admission control,
backpressure, graceful drain, fail-stop on a failed WAL fsync), the
TCP protocol end to end, the Prometheus exposition, and the
batch-contract guard raised on mid-batch mutation.  Async tests drive
their own loops with ``asyncio.run`` — no pytest plugin required.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.errors import (
    AdmissionError,
    BatchContractError,
    ServiceDrainingError,
    ServiceError,
    WalError,
)
from repro.experiments.harness import build_cluster, make_system
from repro.model import Document, Filter
from repro.obs.metrics import MetricsRegistry, prometheus_text
from repro.serve import (
    AsyncioEventDriver,
    ServeConfig,
    ServiceClient,
    ServiceRuntime,
    ServiceServer,
)
from repro.sim.engine import (
    MONOTONIC_CLOCK,
    PERF_CLOCK,
    Simulator,
)

# ---------------------------------------------------------------------------
# Clock / EventDriver abstraction
# ---------------------------------------------------------------------------


def test_real_clocks_advance():
    for clock in (MONOTONIC_CLOCK, PERF_CLOCK):
        first = clock.now
        second = clock.now
        assert second >= first


def test_simulator_is_an_event_driver():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append(sim.now))
    event = sim.schedule(1.0, lambda: fired.append(sim.now))
    event.cancel()
    sim.run()
    assert fired == [2.0]
    assert sim.now == 2.0


def test_asyncio_driver_now_and_schedule():
    async def scenario():
        driver = AsyncioEventDriver()
        start = driver.now
        fired = asyncio.get_running_loop().create_future()
        driver.schedule(0.01, lambda: fired.set_result(driver.now))
        when = await asyncio.wait_for(fired, timeout=5.0)
        assert when >= start
        cancelled = driver.schedule(0.01, lambda: fired)
        cancelled.cancel()
        assert cancelled.cancelled
        with pytest.raises(ServiceError):
            driver.schedule(-1.0, lambda: None)

    asyncio.run(scenario())


def test_asyncio_driver_requires_a_loop():
    driver = AsyncioEventDriver()
    with pytest.raises(ServiceError):
        driver.now


# ---------------------------------------------------------------------------
# ServiceRuntime semantics
# ---------------------------------------------------------------------------

_PROFILES = [
    Filter.from_terms("f-alpha", ["alpha", "beta"]),
    Filter.from_terms("f-gamma", ["gamma"]),
    Filter.from_terms("f-shared", ["alpha", "gamma"]),
]
_DOCS = [
    Document.from_terms("d0", ["alpha", "x"]),
    Document.from_terms("d1", ["gamma", "y"]),
    Document.from_terms("d2", ["beta", "alpha"]),
    Document.from_terms("d3", ["nothing", "here"]),
]


def _reference_plans(scheme="move", seed=0):
    cluster, config = build_cluster(4, 2_000, seed=seed)
    system = make_system(scheme, cluster, config)
    system.subscribe(list(_PROFILES))
    system.finalize_registration()
    return system.publish_batch(list(_DOCS))


def test_runtime_matches_direct_system_calls():
    async def scenario():
        runtime = ServiceRuntime(
            ServeConfig(scheme="move", num_nodes=4, seed=0)
        )
        await runtime.start()
        await runtime.subscribe(list(_PROFILES))
        await runtime.command("finalize")
        plans = await asyncio.gather(
            *(runtime.ingest(doc) for doc in _DOCS)
        )
        await runtime.close()
        return plans

    served = asyncio.run(scenario())
    reference = _reference_plans()
    for ours, theirs in zip(served, reference):
        assert ours.matched_filter_ids == theirs.matched_filter_ids
        assert ours.fanout == theirs.fanout


def test_runtime_micro_batches_concurrent_ingest():
    async def scenario():
        runtime = ServiceRuntime(
            ServeConfig(scheme="il", num_nodes=4, batch_max_docs=16)
        )
        await runtime.start()
        await runtime.subscribe([_PROFILES[0]])
        await runtime.command("finalize")
        docs = [
            Document.from_terms(f"d{i}", ["alpha", f"t{i}"])
            for i in range(24)
        ]
        plans = await asyncio.gather(*(runtime.ingest(d) for d in docs))
        batches = runtime.metrics.counter("serve.batches").value
        await runtime.close()
        return plans, batches

    plans, batches = asyncio.run(scenario())
    assert all(p.matched_filter_ids == {"f-alpha"} for p in plans)
    # 24 concurrent documents must have shared batches.
    assert batches < 24


def test_admission_control_sheds_above_watermark():
    async def scenario():
        runtime = ServiceRuntime(
            ServeConfig(
                scheme="il",
                num_nodes=4,
                queue_capacity=10,
                admission_high_watermark=0.3,  # sheds at depth 3
            )
        )
        await runtime.start()
        # Freeze the worker so the queue can only fill.
        runtime._worker.cancel()
        producers = [
            asyncio.ensure_future(runtime.ingest(doc))
            for doc in _DOCS[:3]
        ]
        await asyncio.sleep(0)  # let the producers enqueue
        assert runtime.queue_depth == 3
        with pytest.raises(AdmissionError):
            await runtime.ingest(_DOCS[3])
        assert runtime.metrics.counter("serve.shed").value == 1.0
        for producer in producers:
            producer.cancel()

    asyncio.run(scenario())


def test_full_queue_backpressures_instead_of_shedding():
    async def scenario():
        runtime = ServiceRuntime(
            ServeConfig(scheme="il", num_nodes=4, queue_capacity=2)
        )
        await runtime.start()
        runtime._worker.cancel()
        producers = [
            asyncio.ensure_future(runtime.ingest(doc))
            for doc in _DOCS[:3]
        ]
        await asyncio.sleep(0.01)
        # Two enqueued, the third is parked in Queue.put — no shed.
        assert runtime.queue_depth == 2
        assert not producers[2].done()
        assert runtime.metrics.counter("serve.shed").value == 0.0
        for producer in producers:
            producer.cancel()

    asyncio.run(scenario())


def test_drain_finishes_accepted_work_then_rejects():
    async def scenario():
        runtime = ServiceRuntime(ServeConfig(scheme="il", num_nodes=4))
        await runtime.start()
        await runtime.subscribe([_PROFILES[0]])
        await runtime.command("finalize")
        pending = [
            asyncio.ensure_future(runtime.ingest(doc))
            for doc in _DOCS[:3]
        ]
        await asyncio.sleep(0)
        await runtime.drain()
        plans = [await task for task in pending]
        assert all(plan is not None for plan in plans)
        with pytest.raises(ServiceDrainingError):
            await runtime.ingest(_DOCS[3])
        assert not runtime.started

    asyncio.run(scenario())


def test_periodic_reallocate_fires_under_the_driver():
    async def scenario():
        runtime = ServiceRuntime(
            ServeConfig(
                scheme="move", num_nodes=4, reallocate_interval=0.02
            )
        )
        await runtime.start()
        await runtime.subscribe([_PROFILES[0]])
        await runtime.command("finalize")
        await asyncio.sleep(0.1)
        refreshes = runtime.metrics.counter("serve.refreshes").value
        await runtime.close()
        return refreshes

    assert asyncio.run(scenario()) >= 1.0


def test_drift_gate_counts_skipped_refreshes():
    """With the operator epsilon above any plausible drift, every
    periodic tick is gated off: the reallocation is skipped (counted
    separately), never executed."""

    async def scenario():
        runtime = ServiceRuntime(
            ServeConfig(
                scheme="move",
                num_nodes=4,
                reallocate_interval=0.02,
                drift_epsilon=1e9,
            )
        )
        await runtime.start()
        await runtime.subscribe([_PROFILES[0]])
        await runtime.command("finalize")
        await asyncio.sleep(0.1)
        skipped = runtime.metrics.counter(
            "serve.reallocations_skipped"
        ).value
        applied = runtime.metrics.counter("serve.refreshes").value
        await runtime.close()
        return skipped, applied

    skipped, applied = asyncio.run(scenario())
    assert skipped >= 1.0
    assert applied == 0.0


def test_ingest_batch_matches_per_doc_ingest():
    async def scenario():
        runtime = ServiceRuntime(
            ServeConfig(scheme="move", num_nodes=4, seed=0)
        )
        await runtime.start()
        assert await runtime.ingest_batch([]) == []
        await runtime.subscribe(list(_PROFILES))
        await runtime.command("finalize")
        plans = await runtime.ingest_batch(list(_DOCS))
        ingested = runtime.metrics.counter("serve.ingested").value
        await runtime.close()
        return plans, ingested

    plans, ingested = asyncio.run(scenario())
    reference = _reference_plans()
    assert ingested == float(len(_DOCS))
    for ours, theirs in zip(plans, reference):
        assert ours.matched_filter_ids == theirs.matched_filter_ids
        assert ours.fanout == theirs.fanout


def test_ingest_batch_coalesces_wal_fsyncs(tmp_path):
    """One worker drain cycle = one commit window = one fsync: the
    batch's records become durable together and the acks are released
    only after the group fsync."""

    async def scenario():
        runtime = ServiceRuntime(
            ServeConfig(
                scheme="move",
                num_nodes=4,
                wal_dir=str(tmp_path),
            )
        )
        await runtime.start()
        await runtime.subscribe(list(_PROFILES))
        await runtime.command("finalize")
        docs = [
            Document.from_terms(f"b{i}", ["alpha", f"t{i}"])
            for i in range(32)
        ]
        writer = runtime.journal.writer
        before = writer.fsyncs
        plans = await runtime.ingest_batch(docs)
        coalesced = writer.fsyncs - before
        group_commits = writer.group_commits
        text = runtime.prometheus_text()
        await runtime.close()
        return plans, coalesced, group_commits, text

    plans, coalesced, group_commits, text = asyncio.run(scenario())
    assert len(plans) == 32
    # 32 queued documents drained under (at most a couple of) commit
    # windows instead of 32 per-append fsyncs.
    assert coalesced <= 2
    assert group_commits >= 1
    assert "repro_serve_wal_fsyncs" in text
    assert "repro_serve_wal_records_per_fsync" in text


def test_failed_fsync_fails_the_window_and_stops_intake(
    tmp_path, monkeypatch
):
    """An fsync that fails must never be acked: every producer of the
    window gets a WalError, later requests are refused with the same
    typed error instead of hanging, and the runtime still drains."""

    async def scenario():
        runtime = ServiceRuntime(
            ServeConfig(scheme="move", num_nodes=4, wal_dir=str(tmp_path))
        )
        await runtime.start()
        await runtime.subscribe(list(_PROFILES))
        await runtime.command("finalize")

        def broken_fsync(fd):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr("repro.cluster.storage.os.fsync", broken_fsync)
        window = [
            runtime.ingest(Document.from_terms(f"w{i}", ["alpha"]))
            for i in range(3)
        ]
        outcomes = await asyncio.wait_for(
            asyncio.gather(*window, return_exceptions=True), timeout=3.0
        )
        with pytest.raises(WalError, match="fsync failed"):
            await asyncio.wait_for(
                runtime.ingest(Document.from_terms("late", ["alpha"])),
                timeout=3.0,
            )
        with pytest.raises(WalError):
            await asyncio.wait_for(runtime.unregister("f-gamma"), 3.0)
        monkeypatch.undo()
        await asyncio.wait_for(runtime.close(), timeout=3.0)
        return outcomes

    outcomes = asyncio.run(scenario())
    assert len(outcomes) == 3
    assert all(isinstance(outcome, WalError) for outcome in outcomes)


def test_runtime_checkpoint_command(tmp_path):
    async def scenario():
        runtime = ServiceRuntime(
            ServeConfig(
                scheme="move", num_nodes=4, wal_dir=str(tmp_path)
            )
        )
        await runtime.start()
        await runtime.subscribe(list(_PROFILES))
        await runtime.command("finalize")
        await runtime.ingest(Document.from_terms("d0", ["alpha"]))
        report = await runtime.checkpoint()
        text = runtime.prometheus_text()
        await runtime.close()
        return report, text

    report, text = asyncio.run(scenario())
    assert report["lsn"] > 0
    assert report["bytes"] > 0
    assert "repro_serve_checkpoints 1" in text
    assert "repro_serve_checkpoint_seconds" in text


def test_checkpoint_requires_a_journal():
    async def scenario():
        runtime = ServiceRuntime(ServeConfig(scheme="move", num_nodes=4))
        await runtime.start()
        with pytest.raises(ServiceError):
            await runtime.checkpoint()
        await runtime.close()
        runtime = ServiceRuntime(
            ServeConfig(
                scheme="move", num_nodes=4, checkpoint_interval=0.02
            )
        )
        with pytest.raises(ServiceError):
            await runtime.start()
        assert not runtime.started

    asyncio.run(scenario())


def test_periodic_checkpoint_fires(tmp_path):
    async def scenario():
        runtime = ServiceRuntime(
            ServeConfig(
                scheme="move",
                num_nodes=4,
                wal_dir=str(tmp_path),
                checkpoint_interval=0.02,
            )
        )
        await runtime.start()
        await runtime.subscribe([_PROFILES[0]])
        await runtime.command("finalize")
        await asyncio.sleep(0.1)
        checkpoints = runtime.journal.checkpoints
        await runtime.close()
        return checkpoints

    assert asyncio.run(scenario()) >= 1


def test_serve_config_validates_new_knobs():
    with pytest.raises(ServiceError):
        ServeConfig(drift_epsilon=-0.5)
    with pytest.raises(ServiceError):
        ServeConfig(checkpoint_interval=0.0)
    with pytest.raises(ServiceError):
        ServeConfig(snapshot_retain=0)


def test_reallocate_interval_rejected_for_schemes_without_reallocate():
    """Arming the refresh timer for a scheme lacking ``reallocate``
    must fail at start(), not raise from the timer on every tick."""

    async def scenario():
        runtime = ServiceRuntime(
            ServeConfig(
                scheme="il", num_nodes=4, reallocate_interval=0.02
            )
        )
        with pytest.raises(ServiceError):
            await runtime.start()
        assert not runtime.started

    asyncio.run(scenario())


def test_commands_serialize_between_batches():
    """A register enqueued among documents lands between batches, so
    the batch contract holds by construction even under interleaving."""

    async def scenario():
        runtime = ServiceRuntime(ServeConfig(scheme="il", num_nodes=4))
        await runtime.start()
        await runtime.subscribe([_PROFILES[0]])
        await runtime.command("finalize")
        work = [
            runtime.ingest(Document.from_terms("da", ["alpha"])),
            runtime.subscribe([_PROFILES[1]]),
            runtime.ingest(Document.from_terms("db", ["gamma"])),
        ]
        results = await asyncio.gather(*work)
        await runtime.close()
        return results

    first, _, second = asyncio.run(scenario())
    assert first.matched_filter_ids == {"f-alpha"}
    # The late registration is visible to the later document.
    assert second.matched_filter_ids == {"f-gamma"}


def test_plans_name_their_filters_when_a_later_item_reuses_the_slot(
    tmp_path,
):
    """Plans carry filter ids resolved while the batch ran.  An
    ``unregister`` + ``subscribe`` in the same commit window hands the
    freed slab slot to another filter before any ack is released, and
    the batch's plans must still name the filter that matched."""

    async def scenario():
        runtime = ServiceRuntime(
            ServeConfig(scheme="move", num_nodes=4, wal_dir=str(tmp_path))
        )
        await runtime.start()
        await runtime.subscribe(
            [Filter.from_terms("f-x", ["alpha"]), _PROFILES[1]]
        )
        await runtime.command("finalize")
        slab = runtime.system.filter_slab
        slot = slab.slot_of("f-x")
        docs = [
            Document.from_terms(f"w{i}", ["alpha", f"t{i}"])
            for i in range(8)
        ]
        writer = runtime.journal.writer
        before = writer.fsyncs
        plans, _, _ = await asyncio.gather(
            runtime.ingest_batch(docs),
            runtime.unregister("f-x"),
            runtime.subscribe([Filter.from_terms("f-y", ["zeta"])]),
        )
        windows = writer.fsyncs - before
        reused = slab.slot_of("f-y") == slot
        after = await runtime.ingest(
            Document.from_terms("late", ["alpha", "zeta"])
        )
        await runtime.close()
        return plans, windows, reused, after

    plans, windows, reused, after = asyncio.run(scenario())
    assert windows == 1  # batch, unregister and subscribe: one window
    assert reused
    assert [plan.matched_ids for plan in plans] == [("f-x",)] * 8
    assert after.matched_ids == ("f-y",)


# ---------------------------------------------------------------------------
# Batch contract enforcement (pipeline level)
# ---------------------------------------------------------------------------


def _registered_system(scheme="il"):
    cluster, config = build_cluster(4, 2_000, seed=0)
    system = make_system(scheme, cluster, config)
    system.subscribe(list(_PROFILES))
    system.finalize_registration()
    return system


def test_mid_batch_registration_raises_contract_error():
    system = _registered_system()
    mutated = []

    original = system._observe

    def mutate_once(document):
        if not mutated:
            mutated.append(document.doc_id)
            system.subscribe(Filter.from_terms("late", ["zzz"]))
        original(document)

    system._observe = mutate_once
    with pytest.raises(BatchContractError):
        system.publish_batch(_DOCS[:2])


def test_mutation_during_the_last_document_raises_contract_error():
    """Ids are resolved after the batch's last document, so a mutation
    there — which could hand a matched slot to another filter — is
    caught too."""
    system = _registered_system()
    original = system._observe

    def mutate(document):
        system.subscribe(Filter.from_terms("late", ["zzz"]))
        original(document)

    system._observe = mutate
    with pytest.raises(BatchContractError):
        system.publish_batch(_DOCS[:1])


def test_mid_batch_membership_change_raises_contract_error():
    system = _registered_system()
    failed = []

    original = system._observe

    def fail_once(document):
        if not failed:
            failed.append(document.doc_id)
            system.cluster.fail_node("node003")
        original(document)

    system._observe = fail_once
    with pytest.raises(BatchContractError):
        system.publish_batch(_DOCS[:2])


def test_mutations_between_batches_are_fine():
    system = _registered_system()
    system.publish_batch(_DOCS[:2])
    system.subscribe(Filter.from_terms("late", ["zzz"]))
    system.cluster.fail_node("node003")
    system.cluster.recover_node("node003")
    plans = system.publish_batch(_DOCS[2:])
    assert len(plans) == 2


# ---------------------------------------------------------------------------
# TCP protocol end to end
# ---------------------------------------------------------------------------


def test_tcp_server_round_trip(tmp_path):
    async def scenario():
        runtime = ServiceRuntime(
            ServeConfig(
                scheme="move",
                num_nodes=4,
                wal_dir=str(tmp_path / "wal"),
            )
        )
        server = ServiceServer(runtime, port=0)
        await server.start()
        results = {}

        def client_work():
            with ServiceClient(port=server.port) as client:
                assert client.ping()
                client.subscribe(
                    [
                        Filter.from_terms("f1", ["alpha", "beta"]),
                        Filter.from_terms("f2", ["gamma"]),
                    ]
                )
                client.finalize()
                results["plan"] = client.ingest(
                    "d1", terms=["alpha", "zeta"]
                )
                client.unregister("f2")
                results["stats"] = client.stats()
                results["metrics"] = client.metrics()
                with pytest.raises(Exception):
                    client.request({"op": "bogus"})
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
    assert results["plan"]["matched"] == ["f1"]
    assert results["stats"]["active_filters"] == 1
    assert "repro_documents_published" in results["metrics"]
    assert "repro_serve" in results["metrics"].replace(".", "_")


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


def test_prometheus_text_exposition():
    registry = MetricsRegistry()
    registry.counter("documents_published").add(5)
    registry.gauge("queue.depth").set(3)
    registry.histogram("span.route").observe(0.002)
    registry.load("documents_received").add("node000", 2.0)
    text = prometheus_text(registry, prefix="repro")
    assert "# TYPE repro_documents_published counter" in text
    assert "repro_documents_published 5" in text
    assert "repro_queue_depth 3" in text
    assert 'le="+Inf"' in text
    assert "repro_span_route_count 1" in text
    assert 'repro_documents_received{key="node000"} 2' in text
    assert text.endswith("\n")
