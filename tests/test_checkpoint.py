"""Checkpoint/compaction: snapshots, WAL truncation, crash matrix.

The journal's :meth:`~repro.serve.journal.JournaledSystem.checkpoint`
sequence — sync, snapshot, rotate, marker, prune, truncate — must be
crash-safe at every point and must leave recovery bit-identical to an
uncrashed twin.  These tests kill (abandon) journals at each boundary
of that sequence, corrupt snapshots, and verify that truncation never
outruns what the retained snapshots can justify.  Twin-equivalence
helpers are shared with ``test_wal_recovery``.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.storage import _list_segments
from repro.errors import SnapshotError, WalCorruptionError, WalError
from repro.experiments.harness import build_cluster, make_system
from repro.model import Document
from repro.serve.journal import JournaledSystem
from repro.serve.snapshot import (
    _MAGIC,
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    snapshot_lsn,
    write_snapshot,
)

from tests.test_wal_recovery import (
    _VOCAB,
    _apply,
    _assert_bit_identical,
    _make_ops,
    _twin,
)

# ---------------------------------------------------------------------------
# Snapshot file format
# ---------------------------------------------------------------------------


def test_snapshot_roundtrip(tmp_path):
    payload = b"state bytes" * 100
    path = write_snapshot(tmp_path, 42, payload)
    assert path.name == "snapshot-0000000000000042.snap"
    assert snapshot_lsn(path) == 42
    assert load_snapshot(path) == (42, payload)
    assert list_snapshots(tmp_path) == [path]


def test_snapshot_rejects_damage(tmp_path):
    path = write_snapshot(tmp_path, 7, b"payload")
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # flip one payload bit
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match="CRC mismatch"):
        load_snapshot(path)
    path.write_bytes(b"not a snapshot at all")
    with pytest.raises(SnapshotError, match="bad magic"):
        load_snapshot(path)
    path.write_bytes(_MAGIC + b"\x00")
    with pytest.raises(SnapshotError, match="truncated header"):
        load_snapshot(path)


def test_snapshot_rejects_renamed_file(tmp_path):
    # A header lsn that disagrees with the file name means the rename
    # landed on the wrong target; the file must not load.
    path = write_snapshot(tmp_path, 7, b"payload")
    renamed = tmp_path / "snapshot-0000000000000099.snap"
    path.rename(renamed)
    with pytest.raises(SnapshotError, match="disagrees"):
        load_snapshot(renamed)


def test_prune_keeps_newest_and_sweeps_orphans(tmp_path):
    paths = [write_snapshot(tmp_path, lsn, b"x") for lsn in (5, 9, 20)]
    (tmp_path / "snapshot-0000000000000030.tmp").write_bytes(b"torn")
    removed = prune_snapshots(tmp_path, retain=2)
    assert removed == 1
    assert list_snapshots(tmp_path) == paths[1:]
    assert not list(tmp_path.glob("*.tmp"))


# ---------------------------------------------------------------------------
# Checkpoint sequence
# ---------------------------------------------------------------------------


def _journal(tmp_path, seed=1, **kwargs):
    kwargs.setdefault("segment_max_bytes", 4_096)
    return JournaledSystem(
        tmp_path, scheme="move", num_nodes=4, seed=seed, **kwargs
    )


def test_checkpoint_truncates_and_recovery_replays_only_tail(tmp_path):
    ops = _make_ops(1, count=40)
    journal = _journal(tmp_path, seed=1, segment_max_bytes=512)
    _apply(journal, ops[:20])
    segments_before = len(_list_segments(tmp_path))
    assert segments_before > 1
    first = journal.checkpoint()
    # The only snapshot is both newest and oldest retained, so the
    # first checkpoint already drops everything below its lsn.
    assert first["segments_removed"] > 0
    assert len(_list_segments(tmp_path)) < segments_before
    _apply(journal, ops[20:30])
    second = journal.checkpoint()
    # The second truncates only below the *oldest* retained snapshot
    # (= the first), which is already clear — the segments between the
    # two snapshots stay on disk as the corrupt-newest fallback path.
    assert second["segments_removed"] == 0
    assert journal.checkpoints == 2
    assert journal.last_checkpoint_lsn == second["lsn"]
    assert second["lsn"] > first["lsn"]
    assert len(list_snapshots(tmp_path)) == 2
    tail = ops[30:]
    _apply(journal, tail)
    # Crash (abandon without close) and recover: the boot must come
    # from the newest snapshot and replay only the tail above it.
    recovered = JournaledSystem(tmp_path)
    assert recovered.recovered_from_snapshot_lsn == second["lsn"]
    # Tail = the checkpoint marker plus the post-checkpoint ops (one
    # record each) — nothing from before the snapshot is re-decoded.
    assert recovered.recovery_replayed_records == len(tail) + 1
    twin = _twin(1)
    _apply(twin, ops)
    _assert_bit_identical(recovered.system, twin)
    recovered.close()


@pytest.mark.parametrize("seed", [2, 3])
def test_recovery_across_snapshot_boundary_is_bit_identical(
    tmp_path, seed
):
    """Checkpoint at a random point of a random history; the recovered
    node must be indistinguishable from an uncrashed twin."""
    ops = _make_ops(seed, count=30)
    cut = random.Random(seed).randrange(2, len(ops))
    journal = _journal(tmp_path, seed=seed)
    _apply(journal, ops[:cut])
    journal.checkpoint()
    _apply(journal, ops[cut:])
    recovered = JournaledSystem(tmp_path)
    twin = _twin(seed)
    _apply(twin, ops)
    _assert_bit_identical(recovered.system, twin)
    recovered.close()


@pytest.mark.parametrize("scheme", ["move", "il", "rs", "central"])
def test_threshold_recovery_from_snapshot_is_bit_identical(
    tmp_path, scheme
):
    """A threshold node checkpointed mid-churn and recovered from the
    snapshot plus the WAL tail equals an uncrashed twin: the pickled
    scoring state (kernel epochs, slab norms, posting arrays) carries
    everything the next plans depend on."""
    seed = 5
    ops = [
        op
        for op in _make_ops(seed, count=40)
        if scheme == "move" or op[0] != "reallocate"
    ]
    assert {"subscribe", "publish_batch", "unregister"} <= {
        method for method, _args in ops
    }
    journal = JournaledSystem(
        tmp_path, scheme=scheme, num_nodes=4, seed=seed, threshold=0.12
    )
    cut = len(ops) // 2
    _apply(journal, ops[:cut])
    checkpoint = journal.checkpoint()
    _apply(journal, ops[cut:])
    recovered = JournaledSystem(tmp_path)  # crash: abandon, reopen
    assert recovered.recovered_from_snapshot_lsn == checkpoint["lsn"]
    cluster, config = build_cluster(4, 2_000, seed=seed)
    twin = make_system(scheme, cluster, config, threshold=0.12)
    _apply(twin, ops)
    ours, theirs = recovered.system, twin
    assert ours.storage_distribution() == theirs.storage_distribution()
    assert (
        ours.metrics.load("storage_replicas").as_dict()
        == theirs.metrics.load("storage_replicas").as_dict()
    )
    probe_rng = random.Random(0xBEEF)
    probes = [
        Document.from_terms(f"probe{i}", probe_rng.choices(_VOCAB, k=10))
        for i in range(8)
    ]
    matched = 0
    for mine, twins in zip(
        ours.publish_batch(probes), theirs.publish_batch(probes)
    ):
        assert mine.matched_filter_ids == twins.matched_filter_ids
        assert mine.unreachable_filter_ids == twins.unreachable_filter_ids
        assert mine.routing_messages == twins.routing_messages
        assert mine.tasks == twins.tasks
        matched += len(mine.matched_filter_ids)
    assert matched > 0  # the threshold admits real matches
    if hasattr(theirs, "_rng"):
        assert ours._rng.getstate() == theirs._rng.getstate()
    recovered.close()


def test_double_checkpoint_without_new_records(tmp_path):
    journal = _journal(tmp_path, seed=1)
    _apply(journal, _make_ops(1, count=10))
    first = journal.checkpoint()
    second = journal.checkpoint()
    # The second snapshot covers the marker record logged by the
    # first, nothing else; both must remain loadable.
    assert second["lsn"] == first["lsn"] + 1
    assert len(list_snapshots(tmp_path)) == 2
    recovered = JournaledSystem(tmp_path)
    assert recovered.recovered_from_snapshot_lsn == second["lsn"]
    recovered.close()


# ---------------------------------------------------------------------------
# Crash matrix: kill at every boundary of the checkpoint sequence
# ---------------------------------------------------------------------------


def _checkpoint_steps(journal, tmp_path, *, stop_after: str):
    """Run checkpoint's sequence by hand, crashing after one step.

    Reproduces the exact order of ``JournaledSystem.checkpoint`` so a
    test can abandon the journal between any two steps.
    """
    journal._writer.sync()
    lsn = journal.last_applied_lsn
    payload = journal._pickle_state()
    if stop_after == "pickle":
        # Crash mid-snapshot-write: only a torn .tmp ever exists.
        tmp = tmp_path / f"snapshot-{lsn:016d}.tmp"
        tmp.write_bytes(_MAGIC + payload[: len(payload) // 2])
        return lsn
    write_snapshot(tmp_path, lsn, payload)
    if stop_after == "snapshot":
        return lsn
    journal._writer.rotate()
    journal._log_and_apply({"op": "checkpoint", "lsn": lsn})
    journal._writer.sync()
    if stop_after == "marker":
        return lsn
    raise AssertionError(f"unknown stop point {stop_after!r}")


@pytest.mark.parametrize("stop_after", ["pickle", "snapshot", "marker"])
def test_crash_inside_checkpoint_recovers_bit_identical(
    tmp_path, stop_after
):
    """Kill -9 mid-checkpoint — before the snapshot rename, after it
    but before the marker, or after the marker but before truncation.
    Every cut point must recover bit-identical to the uncrashed twin
    (from the new snapshot when it committed, from the full log when
    it did not)."""
    seed = 4
    ops = _make_ops(seed, count=24)
    journal = _journal(tmp_path, seed=seed)
    _apply(journal, ops[:16])
    lsn = _checkpoint_steps(journal, tmp_path, stop_after=stop_after)
    # The node keeps serving after the crash point's work was lost...
    _apply(journal, ops[16:])
    # ...then dies for real (abandon without close).
    recovered = JournaledSystem(tmp_path)
    if stop_after == "pickle":
        assert recovered.recovered_from_snapshot_lsn is None
    else:
        assert recovered.recovered_from_snapshot_lsn == lsn
    twin = _twin(seed)
    _apply(twin, ops)
    _assert_bit_identical(recovered.system, twin)
    recovered.close()


def test_corrupt_newest_snapshot_falls_back_to_older_plus_tail(
    tmp_path,
):
    seed = 5
    ops = _make_ops(seed, count=30)
    journal = _journal(tmp_path, seed=seed)
    _apply(journal, ops[:15])
    journal.checkpoint()
    _apply(journal, ops[15:25])
    journal.checkpoint()
    _apply(journal, ops[25:])
    newest = list_snapshots(tmp_path)[-1]
    data = bytearray(newest.read_bytes())
    data[len(data) // 2] ^= 0xFF
    newest.write_bytes(bytes(data))
    # Truncation kept every segment above the *oldest* retained
    # snapshot, so the older snapshot plus tail still reconstructs
    # the full history.
    recovered = JournaledSystem(tmp_path)
    assert recovered.snapshots_skipped == 1
    older = list_snapshots(tmp_path)[0]
    assert recovered.recovered_from_snapshot_lsn == snapshot_lsn(older)
    twin = _twin(seed)
    _apply(twin, ops)
    _assert_bit_identical(recovered.system, twin)
    recovered.close()


# ---------------------------------------------------------------------------
# Snapshots written by an older build
# ---------------------------------------------------------------------------

#: Formats an older build wrote; this one must refuse each by name.
OLD_FORMATS = [1, 2, 3, 4]


def _refusal(found):
    """What ``load_snapshot`` says about a file of an older format."""
    return (
        f"snapshot format {found} was written by an older build; "
        "this build reads format 5"
    )


def _as_format(path, found):
    """Rewrite a snapshot's header as format ``found``, leaving the
    framed lsn, length, CRC and pickle intact — a file an older build
    would have loaded (and this one must not)."""
    path.write_bytes(
        b"MVSNAP%d\n" % found + path.read_bytes()[len(_MAGIC):]
    )


@pytest.mark.parametrize("found", OLD_FORMATS)
def test_format_snapshot_is_refused_by_name(tmp_path, found):
    path = write_snapshot(tmp_path, 7, b"payload")
    _as_format(path, found)
    with pytest.raises(SnapshotError) as refused:
        load_snapshot(path)
    assert str(refused.value) == f"{path.name}: {_refusal(found)}"
    path.write_bytes(b"MVSNAP9\n" + path.read_bytes()[len(_MAGIC):])
    with pytest.raises(SnapshotError, match="format 9 was written by a newer"):
        load_snapshot(path)


@pytest.mark.parametrize("found", OLD_FORMATS)
def test_format_snapshot_with_full_wal_recovers_by_replay(tmp_path, found):
    """An old-format snapshot over an untruncated WAL: skipped with its
    reason, and full replay reaches the uncrashed twin's state."""
    seed = 6
    ops = _make_ops(seed, count=24)
    journal = _journal(tmp_path, seed=seed)
    _apply(journal, ops[:14])
    journal._writer.sync()
    # A committed snapshot whose checkpoint never truncated the WAL
    # (the crash-matrix "snapshot" cut point), rewritten as old.
    snapshot = write_snapshot(
        tmp_path, journal.last_applied_lsn, journal._pickle_state()
    )
    _as_format(snapshot, found)
    _apply(journal, ops[14:])
    recovered = JournaledSystem(tmp_path)
    assert recovered.snapshots_skipped == 1
    assert recovered.snapshot_skip_reasons == [
        f"{snapshot.name}: {_refusal(found)}"
    ]
    assert recovered.recovered_from_snapshot_lsn is None
    twin = _twin(seed)
    _apply(twin, ops)
    _assert_bit_identical(recovered.system, twin)
    recovered.close()


@pytest.mark.parametrize("found", OLD_FORMATS)
def test_format_snapshot_over_truncated_wal_refuses_to_boot(tmp_path, found):
    journal = _journal(tmp_path, seed=1)
    _apply(journal, _make_ops(1, count=12))
    journal.checkpoint()  # truncates every segment below the snapshot
    journal.close()
    (snapshot,) = list_snapshots(tmp_path)
    _as_format(snapshot, found)
    with pytest.raises(WalError, match="truncated journal") as refused:
        JournaledSystem(tmp_path)
    assert str(refused.value).endswith(
        f"; skipped {snapshot.name}: {_refusal(found)}"
    )


def test_truncated_journal_without_snapshot_fails_loud(tmp_path):
    journal = _journal(tmp_path, seed=1)
    _apply(journal, _make_ops(1, count=12))
    journal.checkpoint()
    journal.checkpoint()  # second one truncates below the oldest
    journal.close()
    for snap in list_snapshots(tmp_path):
        snap.unlink()
    # With every snapshot gone the remaining log starts mid-history
    # (its first record is a checkpoint marker, not setup); silently
    # replaying it would build a wrong system.
    with pytest.raises(WalError, match="expected 'setup'"):
        JournaledSystem(tmp_path)


def test_missing_tail_segment_is_detected_as_a_gap(tmp_path):
    journal = _journal(tmp_path, seed=1, segment_max_bytes=1_024)
    _apply(journal, _make_ops(1, count=10))
    journal.checkpoint()
    rng = random.Random(7)
    for i in range(40):  # tail records spanning several segments
        journal.publish(
            Document.from_terms(f"tail{i}", rng.choices(_VOCAB, k=8))
        )
    journal.close()
    tail_segments = _list_segments(tmp_path)
    assert len(tail_segments) >= 3
    # Losing a middle tail segment leaves a hole the snapshot cannot
    # cover; replay must refuse rather than skip it.
    tail_segments[1].unlink()
    with pytest.raises(WalCorruptionError, match="jumps"):
        JournaledSystem(tmp_path)


def test_snapshot_retain_is_validated(tmp_path):
    with pytest.raises(WalError):
        JournaledSystem(tmp_path, snapshot_retain=0)


def test_snapshot_retain_one_keeps_single_snapshot(tmp_path):
    journal = _journal(tmp_path, seed=1, snapshot_retain=1)
    _apply(journal, _make_ops(1, count=10))
    journal.checkpoint()
    journal.checkpoint()
    assert len(list_snapshots(tmp_path)) == 1
    recovered = JournaledSystem(tmp_path)
    twin = _twin(1)
    _apply(twin, _make_ops(1, count=10))
    _assert_bit_identical(recovered.system, twin)
    recovered.close()
