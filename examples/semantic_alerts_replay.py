#!/usr/bin/env python3
"""Similarity-threshold alerts with a persisted, replayable trace.

Two production concerns on top of the boolean quickstart:

1. **Relevance thresholds** — boolean any-term matching fires an alert
   whenever one keyword appears anywhere; the similarity-threshold
   extension (Section III-A) only delivers when the document's VSM
   cosine against the filter reaches a threshold, cutting noisy
   single-keyword hits.
2. **Trace persistence** — the workload (filters + documents) is
   written to JSONL and replayed from disk, so a run can be shipped
   alongside a bug report and reproduced byte-identically.

Run:  python examples/semantic_alerts_replay.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import Cluster, ClusterConfig, Document, Filter, SystemConfig
from repro.baselines import InvertedListSystem
from repro.core import MoveSystem
from repro.workloads import (
    dump_documents,
    dump_filters,
    load_documents,
    load_filters,
)


def build_workload():
    filters = [
        Filter.from_text("alice", "electric vehicles battery", owner="alice"),
        Filter.from_text("bob", "quantum computing", owner="bob"),
        Filter.from_text("carol", "battery", owner="carol"),
    ]
    documents = [
        Document.from_text(
            "focused",
            "Electric vehicles get a new battery design with higher "
            "battery density for electric drivetrains",
        ),
        Document.from_text(
            "tangent",
            "A cooking story: the reporter's camera battery died "
            "while filming a ten course tasting menu downtown with "
            "friends and a long narrative about dessert wine pairings",
        ),
        Document.from_text(
            "quantum",
            "Quantum computing milestone: new qubit error correction",
        ),
    ]
    return filters, documents


def run_system(label, system, documents):
    print(f"\n== {label} ==")
    for document in documents:
        matched = sorted(system.publish(document).matched_filter_ids)
        print(f"  {document.doc_id:8s} -> {', '.join(matched) or '(nobody)'}")


def main() -> None:
    filters, documents = build_workload()

    # Persist the workload and replay it from disk.
    with tempfile.TemporaryDirectory() as tmp:
        filters_path = Path(tmp) / "filters.jsonl"
        docs_path = Path(tmp) / "docs.jsonl"
        dump_filters(filters, filters_path)
        dump_documents(documents, docs_path)
        replayed_filters = load_filters(filters_path)
        replayed_docs = load_documents(docs_path)
        print(
            f"replayed {len(replayed_filters)} filters and "
            f"{len(replayed_docs)} documents from {tmp}"
        )

    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=6, num_racks=2, seed=5), seed=5
    )

    # Boolean semantics: carol's single keyword fires on the tangent
    # article where "battery" is incidental.
    boolean_system = InvertedListSystem(Cluster(config.cluster), config)
    boolean_system.subscribe(replayed_filters)
    run_system("boolean any-term", boolean_system, replayed_docs)

    # Threshold semantics: the incidental mention is filtered out.
    threshold_system = MoveSystem(
        Cluster(config.cluster), config, threshold=0.35
    )
    threshold_system.subscribe(replayed_filters)
    threshold_system.seed_frequencies(replayed_docs[:1])
    threshold_system.finalize_registration()
    run_system("VSM threshold 0.35", threshold_system, replayed_docs)
    print(
        "\nthe threshold drops the incidental 'battery' mention in the"
        "\ncooking story while keeping the focused EV article."
    )


if __name__ == "__main__":
    main()
