"""The segmented, CRC-framed write-ahead log behind crash recovery.

:class:`WalWriter` appends framed records to numbered segment files
and :class:`WalReader` replays them in lsn order.  The service mode
(:mod:`repro.serve`) frames and appends every mutation *before* it is
applied in memory, so a crashed node can be rehydrated bit-identically
by replaying its log (see ``repro.serve.journal``).
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from ..errors import WalCorruptionError, WalError

# -- write-ahead log ------------------------------------------------------

#: Frame header: little-endian (lsn: u64, payload length: u32, crc: u32).
#: The CRC covers the lsn bytes *and* the payload, so a frame whose
#: header and body were written by different appends cannot verify.
_WAL_HEADER = struct.Struct("<QII")

#: Segment file name pattern; the index orders segments on replay.
_SEGMENT_FMT = "wal-{index:08d}.log"
_SEGMENT_GLOB = "wal-*.log"


def _frame(lsn: int, payload: bytes) -> bytes:
    lsn_bytes = struct.pack("<Q", lsn)
    crc = zlib.crc32(payload, zlib.crc32(lsn_bytes))
    return _WAL_HEADER.pack(lsn, len(payload), crc) + payload


def _segment_index(path: Path) -> int:
    return int(path.name[len("wal-"):-len(".log")])


def _list_segments(directory: Path) -> List[Path]:
    return sorted(directory.glob(_SEGMENT_GLOB), key=_segment_index)


def _first_frame_lsn(segment: Path) -> Optional[int]:
    """The lsn of a segment's first frame header, or None if empty.

    Only the header is read — no CRC verification — because the
    caller (:meth:`WalWriter.truncate_through`) uses it purely as an
    upper bound on the *previous* segment's lsns.
    """
    try:
        with open(segment, "rb") as handle:
            header = handle.read(_WAL_HEADER.size)
    except OSError:
        return None
    if len(header) < _WAL_HEADER.size:
        return None
    lsn, _, _ = _WAL_HEADER.unpack_from(header)
    return lsn


class WalWriter:
    """Appends CRC-framed records to a segmented write-ahead log.

    - **Framing**: each record is ``<lsn u64><len u32><crc u32>`` +
      payload; the CRC covers the lsn bytes and the payload.
    - **LSNs** are assigned by the writer and strictly increase across
      segments; the reader rejects regressions as corruption.
    - **Rotation**: when the current segment would exceed
      ``segment_max_bytes`` a new ``wal-NNNNNNNN.log`` is started (a
      single record larger than the limit still goes through — it
      simply gets a segment to itself).
    - **Durability**: an append outside a group-commit window fsyncs
      before it returns; appends inside a window (:meth:`begin_group`
      … :meth:`end_group`) share that window's single fsync.
    - **Fail-stop**: a failed fsync raises :class:`WalError` and
      poisons the writer — every later append, window, or sync raises
      the same error.  The kernel may already have dropped the dirty
      pages, so a retried fsync that "succeeds" proves nothing.

    Reopening a directory with existing segments first runs
    :meth:`WalReader.repair` — a torn tail left by a crash is
    truncated away so the old final segment ends on a record boundary
    — then continues after the highest replayable lsn in a **fresh**
    segment.  Without the repair the tear would sit in a non-final
    segment and every later :meth:`WalReader.replay` would reject the
    log as corrupted at rest.  Mid-log damage repair cannot fix still
    raises :class:`WalCorruptionError` here rather than opening a
    writer over a broken log.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        segment_max_bytes: int = 1 << 20,
    ) -> None:
        if segment_max_bytes <= 0:
            raise WalError(
                f"segment_max_bytes must be positive, got {segment_max_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = segment_max_bytes
        existing = _list_segments(self.directory)
        if existing:
            reader = WalReader(self.directory)
            # Truncate a crash's torn tail now: once this writer opens
            # a fresh segment the old final segment is no longer final,
            # and a tear there would fail every subsequent replay().
            reader.repair()
            self._next_lsn = reader.last_lsn() + 1
            next_index = _segment_index(existing[-1]) + 1
        else:
            self._next_lsn = 1
            next_index = 0
        self._segment_index = next_index
        self._segment_bytes = 0
        self._unsynced = 0
        self._group_depth = 0
        self._file = None
        #: The error of a failed fsync; once set, the writer refuses
        #: all further work.
        self.failure: Optional[WalError] = None
        #: Count of fsync syscalls issued (durability barriers).
        self.fsyncs = 0
        #: Cumulative records covered by those fsyncs.
        self.records_synced = 0
        #: Records covered by the most recent fsync.
        self.last_fsync_records = 0
        #: Group-commit windows that closed with a real fsync.
        self.group_commits = 0
        self._open_segment()

    # -- segment plumbing ------------------------------------------------

    @property
    def next_lsn(self) -> int:
        """The lsn the next :meth:`append` will be assigned."""
        return self._next_lsn

    @property
    def segment_path(self) -> Path:
        """Path of the segment currently being appended to."""
        return self.directory / _SEGMENT_FMT.format(
            index=self._segment_index
        )

    def _open_segment(self) -> None:
        if self._file is not None:
            self._fsync()
            self._file.close()
        self._file = open(self.segment_path, "ab")
        self._segment_bytes = self._file.tell()

    def _rotate(self) -> None:
        self._segment_index += 1
        self._open_segment()

    def _check_usable(self) -> None:
        if self.failure is not None:
            raise self.failure
        if self._file is None:
            raise WalError("WalWriter is closed")

    def _fsync(self) -> None:
        if self.failure is not None:
            raise self.failure
        if self._file is not None and self._unsynced:
            try:
                self._file.flush()
                os.fsync(self._file.fileno())
            except OSError as error:
                self.failure = WalError(
                    f"{self.segment_path.name}: fsync failed with "
                    f"{self._unsynced} unsynced record(s): {error}"
                )
                raise self.failure from error
            self.fsyncs += 1
            self.records_synced += self._unsynced
            self.last_fsync_records = self._unsynced
            self._unsynced = 0

    # -- public API ------------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Frame and append ``payload``; returns its assigned lsn.

        Outside a group-commit window the record is fsynced before
        this returns; inside one it is durable once :meth:`end_group`
        returns.
        """
        self._check_usable()
        if self._segment_bytes and (
            self._segment_bytes + _WAL_HEADER.size + len(payload)
            > self.segment_max_bytes
        ):
            self._rotate()
        lsn = self._next_lsn
        self._next_lsn += 1
        frame = _frame(lsn, payload)
        self._file.write(frame)
        self._segment_bytes += len(frame)
        self._unsynced += 1
        if self._group_depth == 0:
            self._fsync()
        return lsn

    def begin_group(self) -> None:
        """Open a group-commit window: appends defer their fsync.

        Inside the window no append fsyncs — every record written
        before the matching :meth:`end_group` becomes durable
        together, under **one** fsync.  Callers must not release
        durability acks for the window's records until
        :meth:`end_group` returns (and must fail them if it raises).
        Windows nest; only the outermost ``end_group`` syncs.
        """
        self._check_usable()
        self._group_depth += 1

    def end_group(self) -> int:
        """Close the window; returns records made durable by its fsync.

        Returns 0 when the window wrote nothing (no fsync issued) or
        when closing an inner nested window.
        """
        if self._group_depth <= 0:
            raise WalError("end_group without begin_group")
        self._group_depth -= 1
        if self._group_depth > 0:
            return 0
        covered = self._unsynced
        if covered:
            self._fsync()
            self.group_commits += 1
        return covered

    def sync(self) -> None:
        """Force the batched fsync now (durability barrier)."""
        self._fsync()

    def rotate(self) -> Path:
        """Cut over to a fresh segment; returns the new segment path.

        The old segment is fsynced and closed first.  Checkpointing
        uses this so its marker record (and everything after it) lands
        in a segment the subsequent truncation will keep.
        """
        self._check_usable()
        self._rotate()
        return self.segment_path

    def truncate_through(self, lsn: int) -> int:
        """Delete segments whose records are all ``<= lsn``.

        Returns the number of segment files removed.  The current
        (open) segment is never removed, and a segment is only removed
        when the *next* segment proves — via its first record's lsn —
        that no record above the threshold would be lost.  Deleting
        prefixes is safe for the reader: replay's monotonicity check
        only requires lsns to increase, not to start at 1.
        """
        if self._file is None:
            raise WalError("WalWriter is closed")
        segments = _list_segments(self.directory)
        removed = 0
        for position in range(len(segments) - 1):
            following = segments[position + 1]
            first_after = _first_frame_lsn(following)
            if first_after is None or first_after > lsn + 1:
                break
            segments[position].unlink()
            removed += 1
        if removed:
            # Make the deletions themselves durable: fsync the
            # directory so a crash cannot resurrect half the prefix.
            dir_fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        return removed

    def close(self) -> None:
        """Fsync and close; a failed writer just releases its file."""
        if self._file is not None:
            try:
                if self.failure is None:
                    self._fsync()
            finally:
                self._file.close()
                self._file = None

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class WalReader:
    """Replays a segmented write-ahead log written by :class:`WalWriter`.

    Corruption policy: a **torn tail** — a truncated or CRC-failing
    record at the very end of the *final* segment — is the expected
    signature of a crash mid-append and is silently tolerated (replay
    stops there).  The same damage anywhere else (mid-segment, or in a
    non-final segment followed by more data) means the log was
    corrupted at rest and raises :class:`WalCorruptionError`; so does
    an lsn that fails to increase across records.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise WalError(f"no such WAL directory: {self.directory}")

    def segments(self) -> List[Path]:
        """The segment files in replay order."""
        return _list_segments(self.directory)

    def replay(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(lsn, payload)`` for every verifiable record."""
        segments = self.segments()
        last_lsn = 0
        for position, segment in enumerate(segments):
            is_final = position == len(segments) - 1
            data = segment.read_bytes()
            offset = 0
            while offset < len(data):
                record = self._decode(
                    data, offset, segment, final_segment=is_final
                )
                if record is None:  # tolerated torn tail
                    break
                lsn, payload, offset = record
                if lsn <= last_lsn:
                    raise WalCorruptionError(
                        f"{segment.name}: lsn {lsn} does not increase "
                        f"(previous {last_lsn})"
                    )
                last_lsn = lsn
                yield lsn, payload

    def last_lsn(self) -> int:
        """Highest replayable lsn (0 for an empty or missing log)."""
        last = 0
        for lsn, _ in self.replay():
            last = lsn
        return last

    def repair(self) -> int:
        """Truncate a tolerated torn tail; returns the bytes dropped.

        After repair the final segment ends on a record boundary, so a
        reopening :class:`WalWriter` never leaves unreachable garbage
        between the tear and its fresh segment.  Raises
        :class:`WalCorruptionError` for damage repair cannot fix
        (mid-log corruption), same as :meth:`replay`.
        """
        segments = self.segments()
        if not segments:
            return 0
        final = segments[-1]
        data = final.read_bytes()
        offset = 0
        while offset < len(data):
            record = self._decode(data, offset, final, final_segment=True)
            if record is None:
                break
            _, _, offset = record
        dropped = len(data) - offset
        if dropped:
            with open(final, "r+b") as handle:
                handle.truncate(offset)
                handle.flush()
                os.fsync(handle.fileno())
        return dropped

    def _decode(
        self,
        data: bytes,
        offset: int,
        segment: Path,
        final_segment: bool,
    ) -> Optional[Tuple[int, bytes, int]]:
        """Decode one frame at ``offset``; None for a tolerated tear."""

        def torn(reason: str) -> Optional[Tuple[int, bytes, int]]:
            if final_segment:
                return None
            raise WalCorruptionError(
                f"{segment.name} @ {offset}: {reason} in a non-final "
                "segment — log corrupted at rest"
            )

        if offset + _WAL_HEADER.size > len(data):
            return torn("truncated frame header")
        lsn, length, crc = _WAL_HEADER.unpack_from(data, offset)
        body_start = offset + _WAL_HEADER.size
        if body_start + length > len(data):
            return torn("truncated payload")
        payload = data[body_start:body_start + length]
        expected = zlib.crc32(payload, zlib.crc32(struct.pack("<Q", lsn)))
        if crc != expected:
            # A CRC failure mid-segment (more bytes follow) is at-rest
            # corruption even in the final segment.
            if final_segment and body_start + length == len(data):
                return None
            raise WalCorruptionError(
                f"{segment.name} @ {offset}: CRC mismatch "
                f"(stored {crc:#010x}, computed {expected:#010x})"
            )
        return lsn, payload, body_start + length
