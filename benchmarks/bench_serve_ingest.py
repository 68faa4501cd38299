#!/usr/bin/env python
"""Service recovery bench: snapshot boot vs full WAL replay.

One served ingest run writes the journal: N concurrent
:class:`~repro.serve.client.ServiceClient` connections drive batched
``ingest_batch`` frames through a real
:class:`~repro.serve.server.ServiceServer` +
:class:`~repro.serve.runtime.ServiceRuntime` (TCP loopback, WAL on
disk, one group-commit fsync per worker cycle).  Its docs/s and
records-per-fsync are recorded for context, not gated — the
steady-state ingest latency and throughput of the service are
``perfbench``'s job (see ``BENCHMARK.json``).

That journal is then recovered twice — full replay, then checkpoint +
snapshot boot — and the recovered twins are checked bit-identical
(RNG fingerprint + stored replicas).  Checkpointed recovery must beat
full replay by ``recovery_speedup_min``, a same-host ratio and so
machine-portable.

Two tiers::

    python benchmarks/bench_serve_ingest.py --tier small   # CI smoke
    python benchmarks/bench_serve_ingest.py --tier full --json BENCH_serve.json

The floor travels inside the JSON (see ``FLOORS``) and is re-asserted
from the committed file by ``scripts/run_benchmarks.py`` in both gate
modes; the bench itself also hard-fails when a fresh run misses it.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import shutil
import sys
import tempfile
import threading
import time
import zlib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.model import Filter  # noqa: E402
from repro.serve import (  # noqa: E402
    ServeConfig,
    ServiceClient,
    ServiceRuntime,
    ServiceServer,
)
from repro.serve.journal import JournaledSystem  # noqa: E402

#: Self-describing floor recorded into the JSON and re-asserted from
#: the committed file by scripts/run_benchmarks.py.
FLOORS = {
    # Snapshot-boot recovery vs full-history replay of the same WAL.
    "recovery_speedup_min": 5.0,
}

TIERS = {
    "small": {"docs": 1_200, "filters": 200, "connections": 2},
    "full": {"docs": 8_000, "filters": 500, "connections": 4},
}

#: Documents per ``ingest_batch`` request.
CLIENT_BATCH = 16

_VOCAB_SIZE = 600
_DOC_TERMS = 8
_NODES = 4


def _vocab():
    return [f"term{i:04d}" for i in range(_VOCAB_SIZE)]


def _profiles(count: int):
    rng = random.Random(11)
    vocab = _vocab()
    return [
        Filter.from_terms(
            f"f{i:05d}", sorted(rng.sample(vocab, rng.randint(2, 4)))
        )
        for i in range(count)
    ]


def _doc_entries(worker: int, count: int):
    """Deterministic per-connection document stream."""
    rng = random.Random(1000 + worker)
    vocab = _vocab()
    return [
        {
            "doc_id": f"w{worker}-d{i}",
            "terms": rng.choices(vocab, k=_DOC_TERMS),
        }
        for i in range(count)
    ]


def run_ingest(tier: dict, wal_dir: str) -> dict:
    """Serve the workload and hammer it from client threads."""
    connections = tier["connections"]
    per_worker = tier["docs"] // connections
    errors: list = []

    def client_work(worker: int, port: int) -> None:
        try:
            with ServiceClient(port=port) as client:
                entries = _doc_entries(worker, per_worker)
                for start in range(0, len(entries), CLIENT_BATCH):
                    client.ingest_batch(
                        entries[start:start + CLIENT_BATCH]
                    )
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    async def scenario() -> dict:
        runtime = ServiceRuntime(
            ServeConfig(
                scheme="move",
                num_nodes=_NODES,
                seed=0,
                wal_dir=wal_dir,
                queue_capacity=4_096,
            )
        )
        server = ServiceServer(runtime, port=0)
        await server.start()
        await runtime.subscribe(_profiles(tier["filters"]))
        await runtime.command("finalize")
        writer = runtime.journal.writer
        fsyncs_before = writer.fsyncs
        records_before = writer.records_synced
        threads = [
            threading.Thread(target=client_work, args=(w, server.port))
            for w in range(connections)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        await asyncio.gather(
            *(asyncio.to_thread(t.join) for t in threads)
        )
        elapsed = time.perf_counter() - started
        fsyncs = writer.fsyncs - fsyncs_before
        records = writer.records_synced - records_before
        await server.close()
        return {"elapsed": elapsed, "fsyncs": fsyncs, "records": records}

    measured = asyncio.run(scenario())
    if errors:
        raise RuntimeError(f"client worker failed: {errors[0]!r}")
    docs = per_worker * connections
    return {
        "connections": connections,
        "client_batch": CLIENT_BATCH,
        "docs": docs,
        "seconds": round(measured["elapsed"], 3),
        "docs_per_second": round(docs / measured["elapsed"], 1),
        "wal_fsyncs": measured["fsyncs"],
        "wal_records": measured["records"],
        "records_per_fsync": round(
            measured["records"] / max(1, measured["fsyncs"]), 2
        ),
    }


def _fingerprint(journal: JournaledSystem) -> tuple:
    system = journal.system
    replicas = {
        node_id: index.stored_replica_count()
        for node_id, index in system._home_indexes.items()
    }
    # The checkpoint marker logged between the two boots bumps the
    # lsn without touching state, so the lsn is not part of the print.
    return (
        zlib.crc32(repr(system._rng.getstate()).encode()),
        tuple(sorted(replicas.items())),
    )


def run_recovery(wal_dir: str) -> dict:
    """Full replay vs checkpoint + snapshot boot over the same WAL."""
    full = JournaledSystem(wal_dir)
    full_seconds = full.recovery_seconds
    full_records = full.recovery_replayed_records
    full_print = _fingerprint(full)
    checkpoint = full.checkpoint()
    full.close()

    snap = JournaledSystem(wal_dir)
    snap_seconds = snap.recovery_seconds
    snap_records = snap.recovery_replayed_records
    snap_print = _fingerprint(snap)
    snap.close()

    return {
        "full_replay_seconds": round(full_seconds, 4),
        "full_replayed_records": full_records,
        "checkpoint_seconds": round(checkpoint["seconds"], 4),
        "snapshot_bytes": checkpoint["bytes"],
        "segments_removed": checkpoint["segments_removed"],
        "snapshot_recovery_seconds": round(snap_seconds, 4),
        "tail_replayed_records": snap_records,
        "speedup": round(full_seconds / max(1e-9, snap_seconds), 1),
        "bit_identical": full_print == snap_print,
    }


def run_tier(tier_name: str) -> dict:
    tier = TIERS[tier_name]
    wal_dir = tempfile.mkdtemp(prefix="serve-bench-")
    try:
        ingest = run_ingest(tier, wal_dir)
        print(
            f"   ingest {ingest['docs_per_second']:>9,.0f} docs/s  "
            f"({ingest['connections']} conns, batch "
            f"{ingest['client_batch']}; "
            f"{ingest['records_per_fsync']:.1f} rec/fsync)",
            flush=True,
        )
        recovery = run_recovery(wal_dir)
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
    print(
        f"   recovery speedup: {recovery['speedup']:.1f}x "
        f"(full {recovery['full_replay_seconds']:.3f}s / "
        f"{recovery['full_replayed_records']} records vs snapshot "
        f"{recovery['snapshot_recovery_seconds']:.4f}s / "
        f"{recovery['tail_replayed_records']} tail records; twins "
        f"{'identical' if recovery['bit_identical'] else 'DIVERGED'})",
        flush=True,
    )

    failures = []
    if recovery["speedup"] < FLOORS["recovery_speedup_min"]:
        failures.append(
            f"recovery speedup {recovery['speedup']:.1f}x below floor "
            f"{FLOORS['recovery_speedup_min']}x"
        )
    if not recovery["bit_identical"]:
        failures.append("snapshot-recovered twin diverged from replay")
    for failure in failures:
        print(f"FAILURE: {failure}", file=sys.stderr)
    if failures:
        raise SystemExit(1)

    return {
        "workload": {
            "docs": tier["docs"],
            "filters": tier["filters"],
            "vocabulary": _VOCAB_SIZE,
            "doc_terms": _DOC_TERMS,
            "nodes": _NODES,
        },
        "ingest": ingest,
        "recovery": recovery,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Service recovery bench (snapshot boot vs replay)."
    )
    parser.add_argument(
        "--tier",
        default="small",
        choices=["small", "full", "both"],
        help="workload tier (default: small)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="write the result trajectory to this file",
    )
    args = parser.parse_args(argv)

    tiers = ["small", "full"] if args.tier == "both" else [args.tier]
    payload = {
        "version": 2,
        "datetime": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "floors": FLOORS,
        "tiers": {},
    }
    for tier_name in tiers:
        print(f"== tier: {tier_name} ==", flush=True)
        payload["tiers"][tier_name] = run_tier(tier_name)
    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
