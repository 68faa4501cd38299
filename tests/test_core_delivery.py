"""Tests for the delivery layer (inboxes, ownership dedup)."""

from __future__ import annotations

import pytest

from repro.baselines import InvertedListSystem
from repro.cluster import Cluster
from repro.config import ClusterConfig, SystemConfig
from repro.core.delivery import DeliveryService, Inbox, Notification
from repro.model import Document, Filter


@pytest.fixture
def service():
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=4, num_racks=2, seed=1),
        expected_filter_terms=100,
        seed=1,
    )
    system = InvertedListSystem(Cluster(config.cluster), config)
    system.subscribe(Filter.from_terms("f1", ["cloud"], owner="alice"))
    system.subscribe(Filter.from_terms("f2", ["storm"], owner="alice"))
    system.subscribe(Filter.from_terms("f3", ["cloud"], owner="bob"))
    return DeliveryService(system)


class TestInbox:
    def test_push_and_drain(self):
        inbox = Inbox("alice")
        note = Notification("d1", "alice", frozenset({"f1"}))
        inbox.push(note)
        assert len(inbox) == 1
        assert inbox.drain() == [note]
        assert len(inbox) == 0

    def test_capacity_drops_oldest(self):
        inbox = Inbox("alice", capacity=2)
        notes = [
            Notification(f"d{i}", "alice", frozenset({"f"}))
            for i in range(3)
        ]
        for note in notes:
            inbox.push(note)
        assert inbox.peek() == notes[1:]
        assert inbox.dropped == 1
        assert inbox.total_received == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Inbox("alice", capacity=0)


class TestDeliveryService:
    def test_one_notification_per_owner(self, service):
        # alice has two filters matching the same document: one copy.
        notes = service.publish(
            Document.from_terms("d", ["cloud", "storm"])
        )
        owners = [note.owner for note in notes]
        assert owners == ["alice", "bob"]
        alice_note = notes[0]
        assert alice_note.matched_filter_ids == {"f1", "f2"}

    def test_inboxes_accumulate(self, service):
        service.publish(Document.from_terms("d1", ["cloud"]))
        service.publish(Document.from_terms("d2", ["storm"]))
        assert len(service.inbox("alice")) == 2
        assert len(service.inbox("bob")) == 1
        assert service.documents_delivered == 2
        assert service.notifications_sent == 3

    def test_no_match_no_notification(self, service):
        notes = service.publish(Document.from_terms("d", ["nothing"]))
        assert notes == []
        assert service.owners() == []

    def test_notification_str(self):
        note = Notification("d1", "alice", frozenset({"f1"}))
        assert "alice" in str(note)
        assert "d1" in str(note)
