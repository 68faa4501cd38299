#!/usr/bin/env python
"""Serve-mode smoke: boot, mutate, kill -9, restart, assert recovery.

The CI counterpart of the in-process crash-recovery property tests:
it exercises the real deployment story across *process* boundaries.

1. boot ``python -m repro serve`` with a WAL directory and port 0,
   wait for ``READY port=<n>``;
2. subscribe filters and a query, finalize, ingest documents (all
   over the binary protocol via ``ServiceClient``); record the stats
   snapshot and each document's matched set;
3. ``SIGKILL`` the process mid-flight (no drain, no fsync courtesy);
4. boot a fresh process on the same WAL directory;
5. assert the recovered stats match the pre-kill snapshot (documents
   published, active filters) and that a probe document matches
   exactly the filters it should;
6. grow the WAL across several segments, checkpoint via the client,
   assert the truncation shrank the on-disk segment count, ingest a
   small tail, ``SIGKILL`` again;
7. boot a third process and assert recovery replayed *only* the
   post-checkpoint tail (the ``repro_serve_recovery_replayed_records``
   gauge equals tail records + the checkpoint marker) while the
   recovered state still answers probes correctly;
8. shut that process down while a second connection sits idle, and
   assert it exits 0 with no traceback on its stderr.

Matched *sets* are the cross-process invariant; RNG-stream identity
is only meaningful in-process (hash randomization perturbs set
iteration order between interpreters) and is covered by
``tests/test_wal_recovery.py``.

Exit status 0 on success; any assertion or timeout fails the smoke.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.model import Filter  # noqa: E402
from repro.serve.client import ServiceClient  # noqa: E402

_FILTERS = {
    "f-alpha": ["alpha", "beta"],
    "f-gamma": ["gamma"],
    "f-shared": ["alpha", "gamma"],
    "f-delta": ["delta", "epsilon"],
    "f-zeta": ["zeta"],
}
_DOCS = {
    "d0": ["alpha", "noise0"],
    "d1": ["gamma", "noise1"],
    "d2": ["delta", "epsilon"],
    "d3": ["nothing", "matches"],
    "d4": ["beta", "zeta"],
}


_QUERY_ID = "q-pred"
_QUERY = "alpha NOT zeta"

#: Documents ingested after the checkpoint; recovery must replay
#: exactly these plus the checkpoint marker record.
_TAIL_DOCS = 5


def _segments(wal_dir: str) -> "list[Path]":
    return sorted(Path(wal_dir).glob("wal-*.log"))


def _gauge(metrics_text: str, name: str) -> float:
    for line in metrics_text.splitlines():
        if line.startswith(f"{name} ") or line.startswith(f"{name}\t"):
            return float(line.split()[-1])
    raise AssertionError(f"gauge {name} missing from /metrics")


def _expected_matches(terms):
    doc_terms = set(terms)
    matched = [
        fid
        for fid, fterms in _FILTERS.items()
        if doc_terms & set(fterms)
    ]
    if "alpha" in doc_terms and "zeta" not in doc_terms:
        matched.append(_QUERY_ID)
    return sorted(matched)


def _boot(wal_dir: str, stderr=None) -> "tuple[subprocess.Popen, int]":
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--scheme",
            "move",
            "--nodes",
            "4",
            "--port",
            "0",
            "--wal-dir",
            wal_dir,
            # Small segments so the checkpoint leg spans several and
            # its truncation is visible in the on-disk file count.
            "--segment-max-bytes",
            "4096",
        ],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
    )
    deadline = time.monotonic() + 60
    while True:
        line = process.stdout.readline()
        if line.startswith("READY port="):
            # "READY port=<n> protocol=<v>" — fields are one token each.
            fields = dict(
                part.split("=", 1)
                for part in line.strip().split()
                if "=" in part
            )
            return process, int(fields["port"])
        if not line or time.monotonic() > deadline:
            process.kill()
            raise SystemExit(
                f"server did not become READY (last line: {line!r})"
            )


def main() -> int:
    wal_dir = tempfile.mkdtemp(prefix="serve-smoke-wal-")
    process, port = _boot(wal_dir)
    try:
        with ServiceClient(port=port) as client:
            assert client.ping()
            ids = client.subscribe(
                [
                    Filter.from_terms(fid, terms)
                    for fid, terms in _FILTERS.items()
                ]
                + [(_QUERY_ID, _QUERY)]
            )
            assert ids == [*_FILTERS, _QUERY_ID], ids
            client.finalize()
            before = {}
            for doc_id, terms in _DOCS.items():
                plan = client.ingest(doc_id, terms=terms)
                assert plan["matched"] == _expected_matches(terms), (
                    doc_id,
                    plan["matched"],
                )
                before[doc_id] = plan["matched"]
            stats_before = client.stats()
        # Crash hard: no drain, no graceful anything.
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()

    process, port = _boot(wal_dir)
    try:
        with ServiceClient(port=port) as client:
            stats_after = client.stats()
            for key in (
                "active_filters",
                "documents_published",
                "filters_registered",
            ):
                assert stats_after[key] == stats_before[key], (
                    key,
                    stats_before[key],
                    stats_after[key],
                )
            probe_terms = ["alpha", "zeta", "unseen"]
            plan = client.ingest("probe", terms=probe_terms)
            assert plan["matched"] == _expected_matches(probe_terms), (
                plan["matched"]
            )
            metrics = client.metrics()
            assert "repro_documents_published" in metrics

            # -- checkpoint leg: grow, checkpoint, tail, kill -9 ----
            for batch in range(10):
                client.ingest_batch(
                    [
                        {
                            "doc_id": f"fill-{batch}-{i}",
                            "terms": [f"fill{batch}t{i}k{k}"
                                      for k in range(6)],
                        }
                        for i in range(30)
                    ]
                )
            segments_before = len(_segments(wal_dir))
            assert segments_before > 1, segments_before
            report = client.checkpoint()
            assert report["segments_removed"] > 0, report
            segments_after = len(_segments(wal_dir))
            assert segments_after < segments_before, (
                segments_before,
                segments_after,
            )
            for i in range(_TAIL_DOCS):
                client.ingest(f"tail-{i}", terms=["gamma", f"t{i}"])
            stats_before = client.stats()
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()

    # The graceful leg keeps the server's stderr: a clean shutdown
    # with a client connection still open must log no traceback.
    server_log = tempfile.TemporaryFile(mode="w+")
    process, port = _boot(wal_dir, stderr=server_log)
    try:
        with ServiceClient(port=port) as client:
            # Recovery must boot from the snapshot and replay only the
            # tail: one record per post-checkpoint ingest plus the
            # checkpoint marker itself — not the whole history.
            replayed = _gauge(
                client.metrics(), "repro_serve_recovery_replayed_records"
            )
            assert replayed == _TAIL_DOCS + 1, replayed
            stats_after = client.stats()
            assert (
                stats_after["documents_published"]
                == stats_before["documents_published"]
            ), (stats_before, stats_after)
            probe_terms = ["alpha", "zeta", "unseen"]
            plan = client.ingest("probe2", terms=probe_terms)
            assert plan["matched"] == _expected_matches(probe_terms), (
                plan["matched"]
            )
            # A second connection stays open, blocked in the server's
            # frame read, for the whole shutdown.
            with ServiceClient(port=port) as idle:
                assert idle.ping()
                client.shutdown()
                process.wait(timeout=60)
        assert process.returncode == 0, process.returncode
        server_log.seek(0)
        errors = server_log.read()
        assert "Traceback" not in errors, errors
    finally:
        if process.poll() is None:
            process.kill()
        server_log.close()
    print(
        "serve smoke OK: recovered after SIGKILL with state intact; "
        f"checkpoint shrank the WAL and recovery replayed only "
        f"{_TAIL_DOCS + 1} tail records"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
