#!/usr/bin/env python
"""Million-filter scale bench: memory budget + streaming throughput.

The memory-tier companion to ``bench_hot_path.py``: where the hot-path
bench times the per-document pipeline at default scale, this one
measures what the ISSUE's scale tier actually buys — resident bytes
per registered filter, streamed registration throughput, batched
publish docs/sec and the p99 *simulated* match latency — across all
four schemes on workloads that are generated on the fly and never
materialized (``ScaledWorkload.stream``).

Two tiers::

    python benchmarks/bench_scale.py --tier ci            # ~100k filters
    python benchmarks/bench_scale.py --tier full          # 1M filters
    python benchmarks/bench_scale.py --tier both --json BENCH_scale.json

- **ci** runs every scheme over a 100k-filter / 2k-document stream.
  This is the CI smoke job.
- **full** runs every scheme over 1M filters / 100k documents.

Both tiers check each fresh run against a recorded oracle: its
``ORACLE_KEYS`` (match checksum, matches per document, stored
replicas, RNG fingerprint) must equal the values committed in
``BENCH_scale.json`` for the same tier and scheme.  Those values were
recorded while the per-object filter layout and the columnar slab ran
side by side and agreed bit for bit, so a layout or hot-path change
that alters what is delivered, stored or drawn fails here.

Each measurement runs in its own subprocess (``--worker``) so RSS
deltas and peaks are clean per run; the parent collects one JSON
object per worker from stdout.  The recorded floors travel inside the
JSON (see ``FLOORS``) and are re-asserted from the committed file by
``scripts/run_benchmarks.py`` in both gate modes, so a regression in a
re-recorded trajectory fails the gate without any external config.
``--json`` rewrites only the tiers that ran; the file's other tiers
keep their recorded entries.  Per-scheme entries keep the ``slab`` key
the trajectory has always been recorded under.

Simulated latency: each published document's latency is the slowest of
its delivery tasks under the cost model's ``match_time`` (the same
y_seek/y_p accounting the cluster harness charges), i.e. the parallel
completion time across nodes, excluding queueing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import subprocess
import sys
import time
import zlib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Marker line prefix a worker uses to hand its result to the parent.
RESULT_MARK = "BENCH_SCALE_RESULT:"

#: The committed trajectory, which doubles as the run's oracle.
COMMITTED_PATH = REPO_ROOT / "BENCH_scale.json"

#: Result fields a fresh run must reproduce exactly from the committed
#: trajectory (see the module docstring).
ORACLE_KEYS = (
    "match_checksum",
    "matches_per_doc",
    "stored_replicas",
    "rng_fingerprint",
)

#: Self-describing floors recorded into the JSON and re-asserted from
#: the committed file by scripts/run_benchmarks.py.  Values are
#: deliberately conservative: they catch a storage-layout or hot-path
#: collapse, not host-speed jitter.
FLOORS = {
    # Resident bytes per registered filter, full tier.
    "slab_bytes_per_filter_max": 800.0,
    # Batched publish throughput, any scheme, full tier (docs/s).
    "docs_per_second_min": 50.0,
}

#: Tier geometry.  Vocabulary scales at ~0.19x filters (the ratio the
#: default 4k-filter/10k-vocab workload has at 1/1000 paper scale
#: keeps posting densities realistic without letting the shared
#: vocabulary dominate the memory measurement) and node capacity at
#: 3x P/N so the √(p·q) allocation stays capacity-bounded.
TIERS = {
    "ci": {
        "filters": 100_000,
        "documents": 2_000,
        "vocabulary": 19_000,
    },
    "full": {
        "filters": 1_000_000,
        "documents": 100_000,
        "vocabulary": 190_000,
    },
}

SCHEMES = ("move", "il", "rs", "central")
NODES = 20
#: Streamed-registration chunk.  Deliberately modest: the transient
#: chunk list of Filter objects is itself resident while a chunk
#: registers, and at 20k filters/chunk that transient (~18 MB) would
#: dominate the bytes/filter measurement.
REGISTER_CHUNK = 5_000
PUBLISH_BATCH = 1_000


def _rss_bytes() -> int:
    """Resident set size right now (``/proc/self/statm``)."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * resource.getpagesize()


def _checksum(value: int, items) -> int:
    """Fold an iterable of strings into a running CRC32."""
    for item in items:
        value = zlib.crc32(item.encode(), value)
    return value


def run_worker(spec: dict) -> dict:
    """One measurement: build, stream-register, stream-publish."""
    from repro.core import MoveSystem
    from repro.experiments.harness import (
        ScaledWorkload,
        build_cluster,
        make_system,
    )
    from repro.sim.costs import MatchCostModel

    workload = ScaledWorkload(
        num_filters=spec["filters"],
        num_documents=spec["documents"],
        num_nodes=spec["nodes"],
        node_capacity=spec["capacity"],
        vocabulary_size=spec["vocabulary"],
        seed=spec["seed"],
    )
    stream = workload.stream()
    cluster, config = build_cluster(
        workload.num_nodes, workload.node_capacity, seed=spec["seed"]
    )
    system = make_system(spec["scheme"], cluster, config)
    cost_model = MatchCostModel(config.cost_model)

    rss_base = _rss_bytes()
    t0 = time.perf_counter()
    registered = len(
        system.subscribe(stream.iter_filters(), chunk_size=REGISTER_CHUNK)
    )
    register_seconds = time.perf_counter() - t0
    if isinstance(system, MoveSystem):
        system.seed_frequencies(stream.offline_corpus(200))
    t0 = time.perf_counter()
    system.finalize_registration()
    finalize_seconds = time.perf_counter() - t0
    rss_registered = _rss_bytes()

    match_checksum = 0
    total_matches = 0
    latencies = []
    documents = 0
    publish_seconds = 0.0
    doc_stream = stream.iter_documents()
    while True:
        chunk = list(itertools.islice(doc_stream, PUBLISH_BATCH))
        if not chunk:
            break
        t0 = time.perf_counter()
        plans = system.publish_batch(chunk)
        publish_seconds += time.perf_counter() - t0
        documents += len(chunk)
        for plan in plans:
            matched = sorted(plan.matched_filter_ids)
            total_matches += len(matched)
            match_checksum = _checksum(match_checksum, matched)
            latencies.append(
                max(
                    (
                        cost_model.match_time(
                            task.posting_lists, task.posting_entries
                        )
                        for task in plan.tasks
                    ),
                    default=0.0,
                )
            )

    latencies.sort()

    def quantile(q: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    rng = getattr(system, "_rng", None)
    storage = system.storage_distribution()
    result = {
        "scheme": spec["scheme"],
        "filters": registered,
        "documents": documents,
        "register_seconds": round(register_seconds, 3),
        "filters_per_second": round(registered / register_seconds, 1),
        "finalize_seconds": round(finalize_seconds, 3),
        "publish_seconds": round(publish_seconds, 3),
        "docs_per_second": round(documents / publish_seconds, 1),
        "matches_per_doc": round(total_matches / documents, 3),
        "match_checksum": match_checksum,
        "rng_fingerprint": (
            zlib.crc32(repr(rng.getstate()).encode())
            if rng is not None
            else None
        ),
        "stored_replicas": int(sum(storage.values())),
        "bytes_per_filter": round(
            max(0, rss_registered - rss_base) / max(1, registered), 1
        ),
        "p50_sim_latency_ms": round(quantile(0.50) * 1e3, 4),
        "p99_sim_latency_ms": round(quantile(0.99) * 1e3, 4),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
    }
    stats = system.filter_slab.stats()
    result["slab"] = {
        key: stats[key]
        for key in ("live_filters", "slots", "term_cells", "memory_bytes")
    }
    return result


def spawn_worker(spec: dict) -> dict:
    """Run one measurement in a clean subprocess; parse its result."""
    label = spec["scheme"]
    print(f"-- {label}: {spec['filters']:,} filters, "
          f"{spec['documents']:,} docs", flush=True)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker",
         json.dumps(spec)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {label} failed ({proc.returncode})")
    payload = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_MARK):
            payload = json.loads(line[len(RESULT_MARK):])
    if payload is None:
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"worker {label} produced no result line")
    print(
        f"   reg {payload['register_seconds']:.1f}s "
        f"({payload['filters_per_second']:,.0f} filters/s), "
        f"publish {payload['docs_per_second']:,.0f} docs/s, "
        f"{payload['bytes_per_filter']:,.0f} B/filter, "
        f"p99 {payload['p99_sim_latency_ms']:.3f} ms, "
        f"peak {payload['peak_rss_mb']:,.0f} MB "
        f"[{time.perf_counter() - t0:.0f}s wall]",
        flush=True,
    )
    return payload


def _check_oracle(scheme: str, run: dict, recorded: dict) -> list:
    """Failures where ``run`` differs from the recorded oracle run."""
    if recorded is None:
        return [f"{scheme}: no committed run to check against"]
    failures = []
    for key in ORACLE_KEYS:
        if run[key] != recorded.get(key):
            failures.append(
                f"{scheme}: {key} {run[key]!r} != committed "
                f"{recorded.get(key)!r}"
            )
    verdict = "FAIL: differs from" if failures else "ok: matches"
    print(f"   {scheme} {verdict} the committed oracle", flush=True)
    return failures


def run_tier(tier: str, schemes, committed: dict) -> dict:
    geometry = TIERS[tier]
    recorded = committed.get(tier, {}).get("schemes", {})
    results = {}
    failures = []
    for scheme in schemes:
        spec = {
            "scheme": scheme,
            "filters": geometry["filters"],
            "documents": geometry["documents"],
            "vocabulary": geometry["vocabulary"],
            "nodes": NODES,
            "capacity": 3 * geometry["filters"] // NODES,
            "seed": 7,
        }
        run = spawn_worker(spec)
        failures += _check_oracle(
            scheme, run, recorded.get(scheme, {}).get("slab")
        )
        results[scheme] = {"slab": run}
    if failures:
        for failure in failures:
            print(f"FAILURE: {failure}", file=sys.stderr)
        raise SystemExit(1)
    return {
        "workload": {
            "filters": geometry["filters"],
            "documents": geometry["documents"],
            "vocabulary": geometry["vocabulary"],
            "nodes": NODES,
            "capacity": 3 * geometry["filters"] // NODES,
            "register_chunk": REGISTER_CHUNK,
            "publish_batch": PUBLISH_BATCH,
        },
        "schemes": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Million-filter scale tier bench."
    )
    parser.add_argument(
        "--tier",
        default="ci",
        choices=["ci", "full", "both"],
        help="workload tier (default: ci)",
    )
    parser.add_argument(
        "--scheme",
        action="append",
        choices=list(SCHEMES),
        default=None,
        help="scheme(s) to run (default: all four)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="write the result trajectory to this file",
    )
    parser.add_argument(
        "--worker",
        default=None,
        help=argparse.SUPPRESS,  # internal: one measurement, JSON out
    )
    args = parser.parse_args(argv)

    if args.worker is not None:
        result = run_worker(json.loads(args.worker))
        print(RESULT_MARK + json.dumps(result))
        return 0

    schemes = args.scheme or list(SCHEMES)
    tiers = ["ci", "full"] if args.tier == "both" else [args.tier]
    committed = json.loads(COMMITTED_PATH.read_text())["tiers"]
    previous = {}
    if args.json is not None and args.json.exists():
        previous = json.loads(args.json.read_text())["tiers"]
    payload = {
        "version": 1,
        "datetime": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "floors": FLOORS,
        "tiers": previous,
    }
    for tier in tiers:
        print(f"== tier: {tier} ==", flush=True)
        payload["tiers"][tier] = run_tier(tier, schemes, committed)
    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
