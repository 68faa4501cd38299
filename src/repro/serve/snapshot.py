"""CRC-framed checkpoint snapshot files for the journal.

A snapshot is the pickled state of a :class:`~repro.serve.journal.
JournaledSystem` — its setup record plus the whole wrapped system,
columnar slab arrays and RNG streams included — captured at a known
lsn.  Recovery boots from the newest loadable snapshot and replays
only the WAL tail above its lsn, which is what turns recovery time
from O(history) into O(since-last-checkpoint).

The pickle names the classes it holds, so the header carries a format
number that changes whenever they change shape: a snapshot of another
format is refused by name instead of being unpickled into objects
this build's code does not expect.

File format
-----------
``snapshot-<lsn:016d>.snap`` containing::

    <8-byte magic "MVSNAP" + format digit + "\\n">
    <lsn u64 LE> <payload length u32 LE> <crc u32 LE>
    <payload bytes>

The CRC covers the lsn bytes and the payload (same convention as the
WAL frame), so a header and body written by different attempts cannot
verify.  Writes go through a temp file + fsync + atomic rename +
directory fsync: a crash mid-write leaves a ``.tmp`` orphan, never a
half-valid ``.snap``.

Format history: 1 — filters as per-object ``InvertedIndex`` dicts;
2 — filters in the columnar slab, postings of slab slots; 3 — the
scoring kernel keeps no per-filter slots, norms or profiles, and
indexes carry no mutation listeners; 4 — cluster nodes carry no
key/value storage engine and the cluster no replication strategies;
5 — the filter slab carries a per-slot order-key column.

Any validation failure loads as :class:`~repro.errors.SnapshotError`;
callers treat that snapshot as nonexistent and fall back to the next
older one (or full WAL replay).
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import List, Tuple, Union

from ..errors import SnapshotError

#: Snapshot format this build writes and reads (see the module doc).
FORMAT = 5
_MAGIC_PREFIX = b"MVSNAP"
_MAGIC = _MAGIC_PREFIX + str(FORMAT).encode() + b"\n"
_HEADER = struct.Struct("<QII")
_NAME_FMT = "snapshot-{lsn:016d}.snap"
_NAME_GLOB = "snapshot-*.snap"


def snapshot_lsn(path: Path) -> int:
    """The lsn encoded in a snapshot file's name."""
    return int(path.name[len("snapshot-"):-len(".snap")])


def list_snapshots(directory: Union[str, Path]) -> List[Path]:
    """Snapshot files, oldest first (callers scan the reverse)."""
    return sorted(Path(directory).glob(_NAME_GLOB), key=snapshot_lsn)


def write_snapshot(
    directory: Union[str, Path], lsn: int, payload: bytes
) -> Path:
    """Durably write ``payload`` as the snapshot at ``lsn``.

    Returns the final path.  The rename is the commit point: until it
    happens recovery cannot see the file, after it the file is fully
    framed and fsynced.
    """
    directory = Path(directory)
    final = directory / _NAME_FMT.format(lsn=lsn)
    tmp = final.with_suffix(".tmp")
    lsn_bytes = struct.pack("<Q", lsn)
    crc = zlib.crc32(payload, zlib.crc32(lsn_bytes))
    with open(tmp, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(_HEADER.pack(lsn, len(payload), crc))
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return final


def load_snapshot(path: Union[str, Path]) -> Tuple[int, bytes]:
    """Validate and read a snapshot; ``(lsn, payload)``.

    Raises :class:`SnapshotError` on any damage — wrong magic,
    truncation, CRC mismatch, or a header lsn that disagrees with the
    file name (a rename aimed at the wrong target) — and on a
    snapshot of another format, naming both formats.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"{path.name}: unreadable ({exc})") from exc
    magic = data[: len(_MAGIC)]
    if magic != _MAGIC:
        digit = magic[len(_MAGIC_PREFIX) : -1]
        if (
            magic.startswith(_MAGIC_PREFIX)
            and magic.endswith(b"\n")
            and digit.isdigit()
        ):
            found = int(digit)
            written_by = "an older" if found < FORMAT else "a newer"
            raise SnapshotError(
                f"{path.name}: snapshot format {found} was written by "
                f"{written_by} build; this build reads format {FORMAT}"
            )
        raise SnapshotError(f"{path.name}: bad magic")
    header_end = len(_MAGIC) + _HEADER.size
    if len(data) < header_end:
        raise SnapshotError(f"{path.name}: truncated header")
    lsn, length, crc = _HEADER.unpack_from(data, len(_MAGIC))
    if lsn != snapshot_lsn(path):
        raise SnapshotError(
            f"{path.name}: header lsn {lsn} disagrees with file name"
        )
    payload = data[header_end:]
    if len(payload) != length:
        raise SnapshotError(
            f"{path.name}: payload is {len(payload)} bytes, "
            f"header says {length}"
        )
    expected = zlib.crc32(payload, zlib.crc32(struct.pack("<Q", lsn)))
    if crc != expected:
        raise SnapshotError(
            f"{path.name}: CRC mismatch "
            f"(stored {crc:#010x}, computed {expected:#010x})"
        )
    return lsn, payload


def prune_snapshots(
    directory: Union[str, Path], retain: int = 2
) -> int:
    """Delete all but the newest ``retain`` snapshots; count removed.

    Keeping more than one means a latent corruption in the newest
    snapshot (bad disk, not torn write) still leaves a recovery path:
    the older snapshot plus the WAL tail above *its* lsn — which is
    why truncation in the journal only drops segments below the
    **oldest retained** snapshot's lsn.
    """
    snapshots = list_snapshots(directory)
    removed = 0
    for stale in snapshots[:-retain] if retain > 0 else snapshots:
        stale.unlink()
        removed += 1
    # A crash between two write_snapshot attempts can leave an orphan
    # .tmp; it is invisible to recovery but worth sweeping here.
    for orphan in Path(directory).glob("snapshot-*.tmp"):
        orphan.unlink()
    return removed
