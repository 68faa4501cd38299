"""Write-ahead log framing and crash-recovery equivalence tests.

Two layers:

- :class:`~repro.cluster.storage.WalWriter` /
  :class:`~repro.cluster.storage.WalReader` — CRC framing, segment
  rotation, torn-tail tolerance, corruption detection, repair,
  fsync-per-append outside group-commit windows, fail-stop on a
  failed fsync;
- :class:`~repro.serve.journal.JournaledSystem` — the property at the
  heart of the service mode: a node killed after a random prefix of
  mutations and recovered from its journal is **bit-identical** to a
  twin that never crashed (same match sets, same stored replica
  counts, same RNG stream positions) — and a record that does not
  decode stops recovery by name instead of being skipped.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.storage import WalReader, WalWriter
from repro.errors import WalCorruptionError, WalError
from repro.experiments.harness import build_cluster, make_system
from repro.model import Document, Filter
from repro.serve.journal import JournaledSystem
from repro.serve.wire import WireEncoder, decode_record, encode_record

# ---------------------------------------------------------------------------
# WAL framing
# ---------------------------------------------------------------------------


def test_roundtrip_and_rotation(tmp_path):
    writer = WalWriter(tmp_path, segment_max_bytes=64)
    payloads = [f"record-{i}".encode() for i in range(12)]
    lsns = [writer.append(p) for p in payloads]
    writer.close()
    assert lsns == list(range(1, 13))
    reader = WalReader(tmp_path)
    assert len(reader.segments()) > 1  # 64-byte cap forces rotation
    assert list(reader.replay()) == list(zip(lsns, payloads))
    assert reader.last_lsn() == 12


def test_oversized_record_gets_its_own_segment(tmp_path):
    writer = WalWriter(tmp_path, segment_max_bytes=32)
    big = b"x" * 100
    writer.append(b"small")
    writer.append(big)
    writer.close()
    replayed = list(WalReader(tmp_path).replay())
    assert replayed == [(1, b"small"), (2, big)]


def test_empty_log_replays_nothing(tmp_path):
    assert WalReader(tmp_path).last_lsn() == 0
    assert list(WalReader(tmp_path).replay()) == []


def test_missing_directory_raises(tmp_path):
    with pytest.raises(WalError):
        WalReader(tmp_path / "nope")


def test_torn_tail_tolerated_in_final_segment(tmp_path):
    writer = WalWriter(tmp_path, segment_max_bytes=1 << 20)
    writer.append(b"alpha")
    writer.append(b"beta")
    writer.close()
    final = WalReader(tmp_path).segments()[-1]
    data = final.read_bytes()
    final.write_bytes(data[:-3])  # tear mid-record
    replayed = list(WalReader(tmp_path).replay())
    assert replayed == [(1, b"alpha")]


def test_truncated_non_final_segment_raises(tmp_path):
    writer = WalWriter(tmp_path, segment_max_bytes=48)
    for i in range(8):
        writer.append(f"payload-{i}".encode())
    writer.close()
    reader = WalReader(tmp_path)
    segments = reader.segments()
    assert len(segments) >= 2
    first = segments[0]
    first.write_bytes(first.read_bytes()[:-3])
    with pytest.raises(WalCorruptionError):
        list(reader.replay())


def test_crc_corruption_mid_log_raises(tmp_path):
    writer = WalWriter(tmp_path)
    writer.append(b"alpha")
    writer.append(b"beta")
    writer.close()
    segment = WalReader(tmp_path).segments()[0]
    raw = bytearray(segment.read_bytes())
    raw[18] ^= 0xFF  # flip a byte inside the first record's payload
    segment.write_bytes(bytes(raw))
    with pytest.raises(WalCorruptionError):
        list(WalReader(tmp_path).replay())


def test_repair_truncates_torn_tail_and_writer_continues(tmp_path):
    writer = WalWriter(tmp_path)
    for i in range(3):
        writer.append(f"r{i}".encode())
    writer.close()
    reader = WalReader(tmp_path)
    final = reader.segments()[-1]
    final.write_bytes(final.read_bytes()[:-2])
    assert reader.repair() > 0
    assert reader.repair() == 0  # idempotent
    assert reader.last_lsn() == 2
    reopened = WalWriter(tmp_path)
    assert reopened.next_lsn == 3  # the torn lsn 3 is reassigned
    reopened.append(b"again")
    reopened.close()
    assert [lsn for lsn, _ in reader.replay()] == [1, 2, 3]


def test_writer_reopen_after_torn_tail_repairs_automatically(tmp_path):
    """Reopening a crashed directory must not strand the tear in a
    non-final segment: the writer repairs first, so later replays of
    the combined log succeed."""
    writer = WalWriter(tmp_path)
    writer.append(b"alpha")
    writer.append(b"beta")
    writer.close()
    final = WalReader(tmp_path).segments()[-1]
    final.write_bytes(final.read_bytes()[:-2])  # crash tears record 2
    reopened = WalWriter(tmp_path)  # no explicit repair() by caller
    assert reopened.next_lsn == 2
    reopened.append(b"gamma")
    reopened.close()
    assert list(WalReader(tmp_path).replay()) == [
        (1, b"alpha"),
        (2, b"gamma"),
    ]


def test_append_outside_a_window_is_durable_on_return(tmp_path):
    writer = WalWriter(tmp_path)
    for i in range(4):
        writer.append(f"r{i}".encode())
        # Each append fsynced before returning: a crash right now
        # (abandon without close) keeps every record so far.
        assert writer.fsyncs == i + 1
        assert len(list(WalReader(tmp_path).replay())) == i + 1
    writer.close()


def test_failed_fsync_poisons_the_writer(tmp_path, monkeypatch):
    writer = WalWriter(tmp_path)
    writer.append(b"durable")

    def broken_fsync(fd):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr("repro.cluster.storage.os.fsync", broken_fsync)
    writer.begin_group()
    writer.append(b"never acked")
    with pytest.raises(WalError, match="fsync failed") as first:
        writer.end_group()
    monkeypatch.undo()
    # A retried fsync may "succeed" after the kernel dropped the dirty
    # pages, so the writer refuses everything from here on.
    for call in (
        lambda: writer.append(b"more"),
        writer.begin_group,
        writer.sync,
        writer.rotate,
    ):
        with pytest.raises(WalError) as later:
            call()
        assert later.value is first.value
    writer.close()  # releases the file without another fsync


def test_writer_validates_parameters(tmp_path):
    with pytest.raises(WalError):
        WalWriter(tmp_path, segment_max_bytes=0)


# ---------------------------------------------------------------------------
# Group commit
# ---------------------------------------------------------------------------


def test_group_commit_coalesces_appends_into_one_fsync(tmp_path):
    writer = WalWriter(tmp_path)
    baseline = writer.fsyncs
    writer.begin_group()
    for i in range(10):
        writer.append(f"g{i}".encode())
    assert writer.fsyncs == baseline  # deferred inside the window
    covered = writer.end_group()
    assert covered == 10
    assert writer.fsyncs == baseline + 1
    assert writer.group_commits == 1
    assert writer.last_fsync_records == 10
    # The records are durable: a reader sees all of them.
    assert len(list(WalReader(tmp_path).replay())) == 10
    writer.close()


def test_group_commit_nests(tmp_path):
    writer = WalWriter(tmp_path)
    writer.begin_group()
    writer.append(b"outer")
    writer.begin_group()
    writer.append(b"inner")
    assert writer.end_group() == 0  # inner close defers to the outer
    assert writer.group_commits == 0
    writer.append(b"tail")
    assert writer.end_group() == 3
    assert writer.group_commits == 1
    writer.close()


def test_empty_group_commits_nothing(tmp_path):
    writer = WalWriter(tmp_path)
    writer.begin_group()
    assert writer.end_group() == 0
    assert writer.fsyncs == 0  # nothing to sync, no fsync issued
    assert writer.group_commits == 0
    writer.close()


def test_unbalanced_end_group_raises(tmp_path):
    writer = WalWriter(tmp_path)
    with pytest.raises(WalError):
        writer.end_group()
    writer.close()
    with pytest.raises(WalError):
        writer.begin_group()


def test_group_commit_spanning_rotation_stays_durable(tmp_path):
    # A rotation inside the window fsyncs the old file before moving
    # on (durability ordering), but the acks are still held until
    # end_group — every record in the window must replay.
    writer = WalWriter(tmp_path, segment_max_bytes=64)
    writer.begin_group()
    payloads = [f"rot{i}".encode() * 3 for i in range(8)]
    for payload in payloads:
        writer.append(payload)
    writer.end_group()
    writer.close()
    assert [p for _, p in WalReader(tmp_path).replay()] == payloads


def test_journal_commit_window_defers_durability(tmp_path):
    journal = JournaledSystem(tmp_path, scheme="move", num_nodes=4)
    baseline = journal.writer.fsyncs
    journal.begin_commit_window()
    journal.subscribe([Filter.from_terms("f1", ["term01"])])
    journal.finalize_registration()
    journal.publish(Document.from_terms("d1", ["term01"]))
    assert journal.writer.fsyncs == baseline
    assert journal.end_commit_window() == 3
    assert journal.writer.fsyncs == baseline + 1
    journal.close()


# ---------------------------------------------------------------------------
# Crash-recovery equivalence (the service-mode property)
# ---------------------------------------------------------------------------

_VOCAB = [f"term{i:02d}" for i in range(50)]


def _make_ops(seed: int, count: int = 24):
    """A valid random mutation history: (method, args) pairs."""
    rng = random.Random(seed)
    profiles = [
        Filter.from_terms(f"f{i}", rng.sample(_VOCAB, rng.randint(2, 4)))
        for i in range(25)
    ]
    ops = [
        ("subscribe", (list(profiles),)),
        ("finalize_registration", ()),
    ]
    registered = [p.filter_id for p in profiles]
    doc_seq = 0
    late_seq = 0
    while len(ops) < count:
        roll = rng.random()
        if roll < 0.45:
            docs = []
            for _ in range(rng.randint(1, 4)):
                docs.append(
                    Document.from_terms(
                        f"d{doc_seq}", rng.choices(_VOCAB, k=8)
                    )
                )
                doc_seq += 1
            ops.append(("publish_batch", (docs,)))
        elif roll < 0.65:
            profile = Filter.from_terms(
                f"late{late_seq}",
                rng.sample(_VOCAB, rng.randint(2, 4)),
            )
            late_seq += 1
            registered.append(profile.filter_id)
            ops.append(("subscribe", ([profile],)))
        elif roll < 0.8 and len(registered) > 5:
            victim = registered.pop(rng.randrange(len(registered)))
            ops.append(("unregister", (victim,)))
        else:
            ops.append(("reallocate", (True, None)))
    return ops


def _apply(target, ops):
    for method, args in ops:
        getattr(target, method)(*args)


def _twin(seed: int):
    cluster, config = build_cluster(4, 2_000, seed=seed)
    return make_system("move", cluster, config)


def _replica_counts(system):
    return {
        node_id: index.stored_replica_count()
        for node_id, index in system._home_indexes.items()
    }


def _assert_bit_identical(recovered, twin):
    """Match sets, replica counts, and RNG streams must all agree."""
    assert recovered._rng.getstate() == twin._rng.getstate()
    assert _replica_counts(recovered) == _replica_counts(twin)
    probe_rng = random.Random(0xBEEF)
    for i in range(5):
        probe = Document.from_terms(
            f"probe{i}", probe_rng.choices(_VOCAB, k=10)
        )
        ours = recovered.publish(probe)
        theirs = twin.publish(probe)
        assert ours.matched_filter_ids == theirs.matched_filter_ids
        assert ours.fanout == theirs.fanout
    assert recovered._rng.getstate() == twin._rng.getstate()


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_recovery_after_random_prefix_matches_uncrashed_twin(
    tmp_path, seed
):
    """Kill the node after a random prefix of mutations; the replayed
    restart must be indistinguishable from a twin that applied the
    same prefix and never crashed."""
    ops = _make_ops(seed)
    rng = random.Random(seed * 31)
    prefix = rng.randrange(2, len(ops) + 1)
    journal = JournaledSystem(
        tmp_path, scheme="move", num_nodes=4, seed=seed
    )
    _apply(journal, ops[:prefix])
    # Crash: abandon without close().  Outside a commit window every
    # append fsyncs, so every applied mutation is already durable.
    recovered = JournaledSystem(tmp_path)
    twin = _twin(seed)
    _apply(twin, ops[:prefix])
    assert recovered.setup["seed"] == seed
    _assert_bit_identical(recovered.system, twin)


def test_torn_final_record_recovers_to_previous_op(tmp_path):
    """A torn write of the last journal record rolls the node back by
    exactly one operation — the twin for the shorter history."""
    ops = _make_ops(seed=9, count=10)
    journal = JournaledSystem(tmp_path, scheme="move", num_nodes=4, seed=9)
    _apply(journal, ops)
    journal.close()
    reader = WalReader(tmp_path)
    final = reader.segments()[-1]
    final.write_bytes(final.read_bytes()[:-4])
    recovered = JournaledSystem(tmp_path)
    twin = _twin(9)
    _apply(twin, ops[:-1])
    _assert_bit_identical(recovered.system, twin)


def test_double_replay_is_idempotent(tmp_path):
    ops = _make_ops(seed=5, count=8)
    journal = JournaledSystem(tmp_path, scheme="move", num_nodes=4, seed=5)
    _apply(journal, ops)
    journal.close()
    recovered = JournaledSystem(tmp_path)
    state_before = recovered.system._rng.getstate()
    replicas_before = _replica_counts(recovered.system)
    applied_again = 0
    for lsn, payload in WalReader(tmp_path).replay():
        record = decode_record(payload)
        if record["op"] == "setup":
            continue
        if recovered.replay_record(lsn, record):
            applied_again += 1
    assert applied_again == 0
    assert recovered.system._rng.getstate() == state_before
    assert _replica_counts(recovered.system) == replicas_before


def test_recovery_requires_setup_record(tmp_path):
    writer = WalWriter(tmp_path)
    writer.append(encode_record(WireEncoder(), {"op": "finalize"}))
    writer.close()
    with pytest.raises(WalError, match="expected 'setup'"):
        JournaledSystem(tmp_path)


@pytest.mark.parametrize("json_at", ["setup", "tail"])
def test_json_era_record_refuses_recovery_by_lsn(tmp_path, json_at):
    """A record in the retired JSON format never decodes: recovery
    names its lsn and refuses to boot rather than skip it."""
    if json_at == "setup":
        writer = WalWriter(tmp_path)
        writer.append(b'{"num_nodes": 4, "op": "setup", "seed": 0}')
        writer.close()
        lsn = 1
    else:
        journal = JournaledSystem(tmp_path, scheme="move", num_nodes=4)
        _apply(journal, _make_ops(seed=3, count=4))
        journal.close()
        writer = WalWriter(tmp_path)
        lsn = writer.append(b'{"filter_id": "f1", "op": "unregister"}')
        writer.close()
    with pytest.raises(WalError, match=f"lsn {lsn} does not decode"):
        JournaledSystem(tmp_path)


def test_failed_operations_do_not_poison_recovery(tmp_path):
    """A journalled request whose apply raises (duplicate register,
    unknown unregister) left the live node running; replay must skip
    it the same way instead of aborting recovery forever."""
    ops = _make_ops(seed=13, count=8)
    anchor = Filter.from_terms("anchor", ["term01", "term02"])
    journal = JournaledSystem(tmp_path, scheme="move", num_nodes=4, seed=13)
    _apply(journal, ops)
    journal.subscribe([anchor])
    with pytest.raises(ValueError):
        journal.subscribe([Filter.from_terms("anchor", ["term05"])])
    with pytest.raises(KeyError):
        journal.unregister("no-such-filter")
    more = [
        ("subscribe", ([Filter.from_terms("fresh", ["term03", "term04"])],)),
        ("reallocate", (True, None)),
    ]
    _apply(journal, more)
    journal.close()
    recovered = JournaledSystem(tmp_path)
    assert recovered.replay_skipped == 2
    twin = _twin(13)
    _apply(twin, ops)
    twin.subscribe([anchor])
    _apply(twin, more)
    _assert_bit_identical(recovered.system, twin)


def test_empty_segments_boot_fresh(tmp_path):
    """Segments with zero durable records (crash before the first
    fsync) must not brick the node: restart falls back to a fresh
    system and logs a new setup record."""
    WalWriter(tmp_path).close()  # segment file exists, no records
    assert WalReader(tmp_path).last_lsn() == 0
    journal = JournaledSystem(tmp_path, scheme="move", num_nodes=4, seed=7)
    assert journal.setup["seed"] == 7
    ops = _make_ops(seed=7, count=6)
    _apply(journal, ops)
    journal.close()
    recovered = JournaledSystem(tmp_path)
    twin = _twin(7)
    _apply(twin, ops)
    _assert_bit_identical(recovered.system, twin)


def test_fully_torn_journal_boots_fresh(tmp_path):
    """Same contract when the only record was torn by the crash."""
    writer = WalWriter(tmp_path)
    writer.append(
        encode_record(
            WireEncoder(),
            {
                "op": "setup",
                "scheme": "move",
                "num_nodes": 2,
                "node_capacity": 10,
                "seed": 0,
                "threshold": None,
            },
        )
    )
    writer.close()
    segment = WalReader(tmp_path).segments()[-1]
    segment.write_bytes(segment.read_bytes()[:-4])  # setup never durable
    journal = JournaledSystem(tmp_path, scheme="move", num_nodes=4, seed=3)
    assert journal.setup["num_nodes"] == 4
    journal.subscribe([Filter.from_terms("f0", ["term00"])])
    journal.close()
    recovered = JournaledSystem(tmp_path)
    assert recovered.setup["seed"] == 3
    assert "f0" in recovered.system.subscriptions()


def test_journal_continues_across_restarts(tmp_path):
    """Mutations after a recovery land in the same journal, and a
    second recovery sees the full combined history."""
    ops = _make_ops(seed=11, count=8)
    journal = JournaledSystem(
        tmp_path, scheme="move", num_nodes=4, seed=11
    )
    _apply(journal, ops[:5])
    journal.close()
    middle = JournaledSystem(tmp_path)
    _apply(middle, ops[5:])
    middle.close()
    recovered = JournaledSystem(tmp_path)
    twin = _twin(11)
    _apply(twin, ops)
    _assert_bit_identical(recovered.system, twin)
