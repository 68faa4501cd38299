"""Write-ahead journalling of system mutations, and crash recovery.

:class:`JournaledSystem` wraps one dissemination system and logs every
state-changing operation — registration, unregistration, allocation
refresh, frequency seeding, and document publication — to a
:class:`~repro.cluster.storage.WalWriter` *before* applying it.  The
first record of a journal captures the system's construction
parameters, so a crashed node restarts by rebuilding a fresh system
from that record and replaying everything after it.

Determinism is the whole point: a system is pure state machine over
its operation sequence (all randomness flows from the seeded RNGs the
constructor creates), so a recovered instance is **bit-identical** to
a twin that never crashed — same match sets, same stored replica
counts, same RNG stream positions.  The crash-recovery tests assert
exactly this.

Two details make the equivalence structural rather than hopeful:

- every record goes through the one record codec of
  :mod:`repro.serve.wire`, and the live path applies inputs already in
  the canonical form that codec's decoder rebuilds (sorted term order,
  str-ified tuples), so live apply and replay apply execute identical
  inputs.  A document the wire decoded from canonical bytes carries
  those bytes, and the record codec appends them verbatim: a
  ``publish_batch`` record of an ``OP_INGEST_BATCH`` is a copy of the
  request body, not a second encode;
- replay tracks the last applied lsn and skips records at or below
  it, so replaying a log twice (or resuming a partially replayed
  one) is idempotent.

Note the failure contract of log-before-apply: a record is durable
before its operation runs, so an operation that *raises* after
logging (duplicate registration, unregistering an unknown filter id)
raises the same exception again on replay.  The live service
survived that error — the client saw the failure and the node kept
running — so recovery survives it the same way: replay catches the
application-level exception and moves past the record.  Because the
apply path is deterministic, the re-raised error leaves state exactly
as the original did, preserving bit-identity.  Only WAL-integrity
errors (:class:`~repro.errors.WalError` and subclasses) abort
recovery — including a record that does not decode (for example one
written by a build with a different record format): recovery names
its lsn and refuses to boot rather than skip it.
"""

from __future__ import annotations

import pickle
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from ..cluster.storage import WalReader, WalWriter, _list_segments
from ..errors import (
    ProtocolError,
    SnapshotError,
    WalCorruptionError,
    WalError,
)
from ..experiments.harness import build_cluster, make_system
from ..model import Document, Filter
from ..obs import NULL_TRACER, get_default_tracer
from ..sim.engine import PERF_CLOCK
from .snapshot import (
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    snapshot_lsn,
    write_snapshot,
)
from .wire import WireEncoder, decode_record, encode_record, received_bytes


def _is_sorted(terms: Sequence[str]) -> bool:
    return all(terms[i] <= terms[i + 1] for i in range(len(terms) - 1))


def _canonical_document(document: Document) -> Document:
    """``document`` with term_counts in sorted insertion order.

    The journal applies the *same object* it encodes, so the object
    must already be in the canonical order a replay decode will
    reconstruct — otherwise live and recovered twins would
    iterate ``term_counts`` differently.  A document the wire decoded
    from canonical bytes is canonical by construction and skips the
    scan; any other document is checked and, if need be, copied.
    """
    if received_bytes(document) is not None:
        return document
    counts = document.term_counts
    terms = list(counts)
    if _is_sorted(terms):
        return document
    ordered = {term: counts[term] for term in sorted(terms)}
    return Document(
        doc_id=document.doc_id,
        terms=frozenset(ordered),
        term_counts=ordered,
    )


def _canonical_subscribe_item(item: Any) -> Any:
    """``item`` as the record decoder will rebuild it.

    Tuples are str-ified at encode time, so the live apply must see
    the str-ified form too.  Every other item kind round-trips as-is.
    """
    if isinstance(item, tuple):
        return tuple(str(v) for v in item)
    return item


class JournaledSystem:
    """A dissemination system with log-before-apply durability.

    Opening a directory that already holds journal segments recovers:
    the torn tail (if any) is repaired, the ``setup`` record rebuilds
    the system, and every following record is replayed.  Opening an
    empty directory — or one whose segments hold no durable records,
    the trace of a crash before the first fsync — builds a fresh
    system from the keyword arguments and logs them as the ``setup``
    record.

    The wrapped system is :attr:`system`; reads (``stats()``,
    ``match`` inspection, metrics) go straight to it.  Writes must go
    through the journal methods here — mutating :attr:`system`
    directly bypasses the log and forfeits recovery.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        scheme: str = "move",
        num_nodes: int = 8,
        node_capacity: int = 2_000,
        seed: int = 0,
        threshold: Optional[float] = None,
        segment_max_bytes: int = 1 << 20,
        snapshot_retain: int = 2,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if snapshot_retain < 1:
            raise WalError(
                f"snapshot_retain must be >= 1, got {snapshot_retain}"
            )
        self.snapshot_retain = snapshot_retain
        self.last_applied_lsn = 0
        #: Records whose replay raised an application-level error and
        #: was skipped (each corresponds to a live operation that also
        #: failed); nonzero after a recovery over such a history.
        self.replay_skipped = 0
        #: Records actually applied by the last recovery (with a
        #: snapshot boot, only the post-checkpoint tail).
        self.recovery_replayed_records = 0
        #: Wall seconds the last recovery took (0.0 for a fresh boot).
        self.recovery_seconds = 0.0
        #: lsn of the snapshot recovery booted from, or None.
        self.recovered_from_snapshot_lsn: Optional[int] = None
        #: Snapshot files recovery tried and rejected as unreadable.
        self.snapshots_skipped = 0
        #: Why each of them was rejected (newest file first).
        self.snapshot_skip_reasons: List[str] = []
        #: Checkpoint accounting, updated by :meth:`checkpoint`.
        self.checkpoints = 0
        self.last_checkpoint_lsn = 0
        self.last_checkpoint_seconds = 0.0
        self.last_checkpoint_bytes = 0
        self.last_checkpoint_segments_removed = 0
        #: Reused encode buffer for the record codec.
        self._enc = WireEncoder()
        recovered = False
        if _list_segments(self.directory) or list_snapshots(
            self.directory
        ):
            recovered = self._recover()
        if not recovered:
            self.setup = {
                "scheme": scheme,
                "num_nodes": num_nodes,
                "node_capacity": node_capacity,
                "seed": seed,
                "threshold": (
                    None if threshold is None else float(threshold)
                ),
            }
            self.system = self._build(self.setup)
        self._writer = WalWriter(
            self.directory, segment_max_bytes=segment_max_bytes
        )
        if not recovered:
            self.last_applied_lsn = self._writer.append(
                encode_record(self._enc, {"op": "setup", **self.setup})
            )

    # -- construction / recovery -----------------------------------------

    @staticmethod
    def _build(setup: Dict[str, Any]):
        cluster, config = build_cluster(
            setup["num_nodes"],
            setup["node_capacity"],
            seed=setup["seed"],
        )
        return make_system(
            setup["scheme"], cluster, config, threshold=setup["threshold"]
        )

    def _recover(self) -> bool:
        """Rebuild from snapshots + journal; False if neither exists.

        Boots from the newest loadable snapshot and replays only the
        WAL tail above its lsn; an unreadable snapshot is skipped in
        favour of the next older one, and with no usable snapshot the
        full-history replay runs as before.  Segment files with zero
        replayable records (and no snapshot) are the trace of a crash
        before the setup record was durable — the caller falls back
        to a fresh start instead of refusing to boot.
        """
        started = time.perf_counter()
        reader = WalReader(self.directory)
        reader.repair()
        tracer = get_default_tracer()
        with tracer.span("recovery", directory=str(self.directory)):
            if self._recover_from_snapshot(reader):
                self.recovery_seconds = time.perf_counter() - started
                return True
            if self._recover_full(reader):
                self.recovery_seconds = time.perf_counter() - started
                return True
        return False

    def _recover_from_snapshot(self, reader: WalReader) -> bool:
        for path in reversed(list_snapshots(self.directory)):
            try:
                lsn, payload = load_snapshot(path)
                setup, system = pickle.loads(payload)
            except SnapshotError as error:
                self._skip_snapshot(str(error))
                continue
            except Exception as error:
                # CRC passed but the pickle won't load — same
                # treatment as damage: try the next older snapshot.
                self._skip_snapshot(
                    f"{path.name}: payload does not unpickle ({error!r})"
                )
                continue
            self.setup = setup
            self.system = system
            # The snapshot was pickled with neutral attachments; give
            # the revived system the process's current tracer (the
            # runtime re-installs its clock on start()).
            self.system.tracer = get_default_tracer()
            self.last_applied_lsn = lsn
            self.recovered_from_snapshot_lsn = lsn
            self._replay_tail(reader, after=lsn)
            return True
        return False

    def _skip_snapshot(self, reason: str) -> None:
        self.snapshots_skipped += 1
        self.snapshot_skip_reasons.append(reason)

    def _recover_full(self, reader: WalReader) -> bool:
        records = iter(reader.replay())
        try:
            lsn, payload = next(records)
        except StopIteration:
            return False
        first = self._decode(lsn, payload)
        if first["op"] != "setup":
            skipped = "".join(
                f"; skipped {reason}" for reason in self.snapshot_skip_reasons
            )
            raise WalError(
                f"{self.directory}: first journal record is "
                f"{first['op']!r}, expected 'setup' — with no "
                "usable snapshot, a truncated journal cannot be "
                f"replayed from scratch{skipped}"
            )
        self.setup = {k: v for k, v in first.items() if k != "op"}
        self.system = self._build(self.setup)
        self.last_applied_lsn = lsn
        for lsn, payload in records:
            if self.replay_record(lsn, self._decode(lsn, payload)):
                self.recovery_replayed_records += 1
        return True

    def _decode(self, lsn: int, payload: bytes) -> Dict[str, Any]:
        """Decode one record; a record that does not decode aborts
        recovery with a :class:`WalError` naming its lsn."""
        try:
            return decode_record(payload)
        except ProtocolError as error:
            raise WalError(
                f"{self.directory}: journal record at lsn {lsn} does "
                f"not decode ({error}); refusing to recover past it"
            ) from error

    def _replay_tail(self, reader: WalReader, after: int) -> None:
        """Replay every record above ``after``, verifying contiguity.

        The writer assigns lsns with no holes, so the tail above a
        snapshot must start at ``after + 1`` and increase by exactly
        one — a gap means segments holding unreplayed records were
        lost (e.g. truncation outran the snapshots that justified it)
        and silently skipping it would diverge from the uncrashed
        twin.  Records at or below ``after`` are skipped without even
        decoding their payloads.
        """
        expected = after + 1
        for lsn, payload in reader.replay():
            if lsn <= after:
                continue
            if lsn != expected:
                raise WalCorruptionError(
                    f"{self.directory}: journal tail jumps from lsn "
                    f"{expected - 1} to {lsn}; records in between "
                    "were lost"
                )
            expected += 1
            if self.replay_record(lsn, self._decode(lsn, payload)):
                self.recovery_replayed_records += 1

    def replay_record(self, lsn: int, record: Dict[str, Any]) -> bool:
        """Apply one decoded record; False if already applied.

        Skipping ``lsn <= last_applied_lsn`` is what makes double
        replay idempotent.  An application-level exception out of the
        apply (a duplicate registration, an unknown filter id) is
        caught and the record skipped: the live node logged the
        record, saw the same deterministic error, answered the client
        with it, and kept running — so must recovery.  WAL-integrity
        errors still propagate.
        """
        if lsn <= self.last_applied_lsn:
            return False
        try:
            self._apply(record)
        except WalError:
            raise
        except Exception:
            self.replay_skipped += 1
        self.last_applied_lsn = lsn
        return True

    # -- the single apply path --------------------------------------------

    def _apply(self, record: Dict[str, Any]) -> Any:
        """Apply one record in the form :func:`decode_record` returns."""
        op = record["op"]
        system = self.system
        if op == "publish_batch":
            return system.publish_batch(record["docs"])
        if op == "subscribe":
            return system.subscribe(
                record["items"], chunk_size=record["chunk_size"]
            )
        if op == "unregister":
            return system.unregister(record["filter_id"])
        if op == "finalize":
            return system.finalize_registration()
        if op == "seed_frequencies":
            return system.seed_frequencies(record["docs"])
        if op == "reallocate":
            return system.reallocate(
                force=record["force"],
                drift_epsilon=record["drift_epsilon"],
            )
        if op == "rebalance":
            return system.rebalance()
        if op == "checkpoint":
            # A marker, not a mutation: it records that a snapshot at
            # record["lsn"] exists so operators can correlate the log
            # with snapshot files.  Replay applies nothing.
            return None
        raise WalError(f"unknown journal op {op!r}")

    def _log_and_apply(self, record: Dict[str, Any]) -> Any:
        """Log ``record``, then apply it.

        ``record`` carries live model objects; the codec canonicalizes
        them into bytes once (or reuses the bytes a canonical
        document was decoded from), and the same objects are applied —
        valid because callers pre-canonicalize (sorted term order,
        str-ified tuples, plain bools and floats) so encode → decode
        reconstructs equal inputs.
        """
        lsn = self._writer.append(encode_record(self._enc, record))
        try:
            return self._apply(record)
        finally:
            # The record is in the log whether or not apply raised;
            # the cursor tracks the log, and replay_record survives
            # failed records the same way the live path did.
            self.last_applied_lsn = lsn

    # -- journalled mutations ---------------------------------------------

    def subscribe(
        self, items: Iterable[Any], *, chunk_size: Optional[int] = None
    ) -> List[str]:
        canonical = [_canonical_subscribe_item(i) for i in items]
        if not canonical:
            return []
        return self._log_and_apply(
            {
                "op": "subscribe",
                "items": canonical,
                "chunk_size": chunk_size,
            }
        )

    def unregister(self, filter_id: str) -> Filter:
        return self._log_and_apply(
            {"op": "unregister", "filter_id": filter_id}
        )

    def finalize_registration(self) -> None:
        self._log_and_apply({"op": "finalize"})

    def seed_frequencies(self, corpus: Sequence[Document]) -> None:
        self._require("seed_frequencies")
        self._log_and_apply(
            {
                "op": "seed_frequencies",
                "docs": [_canonical_document(d) for d in corpus],
            }
        )

    def reallocate(
        self,
        force: bool = False,
        drift_epsilon: Optional[float] = None,
    ):
        self._require("reallocate")
        return self._log_and_apply(
            {
                "op": "reallocate",
                "force": bool(force),
                "drift_epsilon": (
                    None if drift_epsilon is None else float(drift_epsilon)
                ),
            }
        )

    def rebalance(self) -> int:
        self._require("rebalance")
        return self._log_and_apply({"op": "rebalance"})

    def publish_batch(self, documents: Sequence[Document]) -> List:
        if not documents:
            return []
        return self._log_and_apply(
            {
                "op": "publish_batch",
                "docs": [_canonical_document(d) for d in documents],
            }
        )

    def publish(self, document: Document):
        return self.publish_batch([document])[0]

    def _require(self, op: str) -> None:
        if not hasattr(self.system, op):
            raise WalError(
                f"scheme {self.setup['scheme']!r} does not support "
                f"{op!r}"
            )

    # -- checkpoint / compaction -------------------------------------------

    def _pickle_state(self) -> bytes:
        """Pickle ``(setup, system)`` with neutral attachments.

        The service runtime installs its asyncio event-loop clock on
        the pipeline and may install a live tracer with sink
        callables; neither survives pickling.  Both are swapped for
        process-neutral defaults for the duration of the dump and
        restored after — the snapshot captures pure dissemination
        state (slab columns, postings, RNG streams), never plumbing.
        """
        system = self.system
        engine = getattr(system, "_engine", None)
        saved_clock = engine.clock if engine is not None else None
        saved_tracer = getattr(system, "tracer", None)
        try:
            if engine is not None:
                engine.clock = PERF_CLOCK
            if saved_tracer is not None:
                system.tracer = NULL_TRACER
            return pickle.dumps(
                (self.setup, system),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        finally:
            if engine is not None:
                engine.clock = saved_clock
            if saved_tracer is not None:
                system.tracer = saved_tracer

    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot state, mark the log, and drop replayed segments.

        The sequence is crash-safe at every point:

        1. ``sync()`` — everything at or below the snapshot lsn is
           durable before the snapshot can claim it;
        2. write the snapshot (temp + fsync + atomic rename) — a
           crash mid-write leaves the previous snapshot authoritative;
        3. rotate to a fresh segment and log a ``checkpoint`` marker
           (a replay no-op) — a crash before the marker just means
           the tail replay starts from the snapshot with no marker;
        4. prune snapshots to ``snapshot_retain``, then truncate
           segments fully below the **oldest retained** snapshot —
           never below the newest, so a latently corrupt newest
           snapshot still recovers from the older one plus tail.

        Returns a summary dict (lsn, snapshot path, segments removed,
        bytes, seconds); the same numbers land on the
        ``last_checkpoint_*`` attributes for the metrics surface.
        """
        started = time.perf_counter()
        tracer = getattr(self.system, "tracer", None) or NULL_TRACER
        with tracer.span(
            "checkpoint", directory=str(self.directory)
        ):
            self._writer.sync()
            lsn = self.last_applied_lsn
            payload = self._pickle_state()
            path = write_snapshot(self.directory, lsn, payload)
            self._writer.rotate()
            self._log_and_apply({"op": "checkpoint", "lsn": lsn})
            self._writer.sync()
            prune_snapshots(
                self.directory, retain=self.snapshot_retain
            )
            retained = list_snapshots(self.directory)
            removed = self._writer.truncate_through(
                snapshot_lsn(retained[0])
            )
        elapsed = time.perf_counter() - started
        self.checkpoints += 1
        self.last_checkpoint_lsn = lsn
        self.last_checkpoint_seconds = elapsed
        self.last_checkpoint_bytes = len(payload)
        self.last_checkpoint_segments_removed = removed
        return {
            "lsn": lsn,
            "snapshot": str(path),
            "bytes": len(payload),
            "segments_removed": removed,
            "seconds": elapsed,
        }

    # -- durability plumbing ----------------------------------------------

    @property
    def writer(self) -> WalWriter:
        """The underlying WAL writer (fsync/group-commit counters)."""
        return self._writer

    def begin_commit_window(self) -> None:
        """Open a WAL group-commit window (see ``WalWriter``)."""
        self._writer.begin_group()

    def end_commit_window(self) -> int:
        """Close the window with one fsync; records made durable."""
        return self._writer.end_group()

    def sync(self) -> None:
        """Force the batched fsync (durability barrier)."""
        self._writer.sync()

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "JournaledSystem":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
