#!/usr/bin/env python
"""cProfile the batched publish path and print the top-N hot spots.

The companion to docs/PERFORMANCE.md's methodology section: builds one
scheme over a scaled workload (registration/allocation excluded from
the profile), runs ``publish_batch`` under cProfile, and prints the
top-N functions by cumulative time.  Use it to find the next
bottleneck before touching the dissemination hot path.

Examples::

    python scripts/profile_publish.py --scheme move
    python scripts/profile_publish.py --scheme rs --threshold 0.15
    python scripts/profile_publish.py --scheme il --sort tottime --top 40
    python scripts/profile_publish.py --scheme central --threshold 0.2
    python scripts/profile_publish.py --scheme move --memory

``--memory`` switches from cProfile to tracemalloc: each pipeline
stage (registration, finalize/allocation, publish) is snapshotted and
its top allocators printed by aggregate size — the tool that located
the per-filter overheads the columnar slab store eliminated.

Run from the repository root; ``src/`` is put on ``sys.path``
automatically.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import MoveSystem  # noqa: E402
from repro.experiments.harness import (  # noqa: E402
    ScaledWorkload,
    build_cluster,
    make_system,
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Profile the batched publish hot path."
    )
    parser.add_argument(
        "--scheme",
        default="move",
        choices=["move", "il", "rs", "central"],
        help="dissemination scheme to profile (default: move)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="VSM similarity threshold; omit for boolean semantics",
    )
    parser.add_argument(
        "--filters",
        type=int,
        default=4_000,
        help="number of registered filters (default: 4000)",
    )
    parser.add_argument(
        "--documents",
        type=int,
        default=300,
        help="number of published documents (default: 300)",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=20,
        help="cluster size (default: 20)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=25,
        help="how many rows of the profile to print (default: 25)",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls"],
        help="pstats sort key (default: cumulative)",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help=(
            "profile allocations (tracemalloc) instead of CPU: print "
            "the top allocation sites per pipeline stage"
        ),
    )
    return parser.parse_args(argv)


def build_system(args):
    workload = ScaledWorkload(
        num_filters=args.filters,
        num_documents=args.documents,
        num_nodes=args.nodes,
    )
    bundle = workload.build()
    cluster, config = build_cluster(
        workload.num_nodes, workload.node_capacity, seed=0
    )
    system = make_system(
        args.scheme, cluster, config, threshold=args.threshold
    )
    system.subscribe(bundle.filters)
    if isinstance(system, MoveSystem):
        system.seed_frequencies(bundle.offline_corpus())
    system.finalize_registration()
    return system, bundle


def profile_publish(args) -> None:
    """Fresh system, one profiled publish."""
    system, bundle = build_system(args)
    documents = bundle.documents
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    plans = system.publish_batch(documents)
    profile.disable()
    elapsed = time.perf_counter() - start
    stream = io.StringIO()
    stats = pstats.Stats(profile, stream=stream)
    stats.sort_stats(args.sort).print_stats(args.top)
    print(stream.getvalue())
    matches = sum(len(plan.matched_filter_ids) for plan in plans)
    mode = (
        f"threshold={args.threshold}"
        if args.threshold is not None
        else "boolean"
    )
    print(
        f"# {args.scheme} ({mode}): "
        f"{len(documents)} docs in {elapsed * 1e3:.1f} ms "
        f"({len(documents) / elapsed:.0f} docs/s), "
        f"{matches} matches over {args.filters} filters"
    )


def _print_memory_stage(
    label: str, before, after, top: int
) -> None:
    """Top allocators of one stage (diff of two snapshots)."""
    import tracemalloc

    stats = after.compare_to(before, "lineno")
    print(f"-- {label}: top {top} allocators --")
    total = sum(stat.size_diff for stat in stats)
    for stat in stats[:top]:
        frame = stat.traceback[0]
        print(
            f"  {stat.size_diff / 1024:+10.1f} KiB  "
            f"({stat.count_diff:+d} blocks)  "
            f"{frame.filename}:{frame.lineno}"
        )
    print(f"  {'':>10}  stage net: {total / (1024 * 1024):+.2f} MiB")


def profile_memory(args) -> None:
    """tracemalloc per pipeline stage: register, finalize, publish.

    Filters the traces to this repository so interpreter noise does
    not drown the stage diffs, and reports net bytes per stage plus
    the peak traced size — the numbers docs/PERFORMANCE.md's
    memory-budget section is built from.
    """
    import tracemalloc

    workload = ScaledWorkload(
        num_filters=args.filters,
        num_documents=args.documents,
        num_nodes=args.nodes,
    )
    bundle = workload.build()
    cluster, config = build_cluster(
        workload.num_nodes, workload.node_capacity, seed=0
    )

    root = str(Path(__file__).resolve().parent.parent)
    tracemalloc.start(1)
    try:
        baseline = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, root + "/*")]
        )
        system = make_system(
            args.scheme, cluster, config, threshold=args.threshold
        )
        system.subscribe(bundle.filters)
        registered = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, root + "/*")]
        )
        if isinstance(system, MoveSystem):
            system.seed_frequencies(bundle.offline_corpus())
        system.finalize_registration()
        finalized = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, root + "/*")]
        )
        plans = system.publish_batch(bundle.documents)
        published = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, root + "/*")]
        )
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    print(f"== memory profile: {args.scheme} ==")
    _print_memory_stage(
        "registration", baseline, registered, args.top
    )
    _print_memory_stage(
        "finalize/allocation", registered, finalized, args.top
    )
    _print_memory_stage("publish", finalized, published, args.top)
    matches = sum(len(plan.matched_filter_ids) for plan in plans)
    register_bytes = sum(
        stat.size_diff
        for stat in registered.compare_to(baseline, "lineno")
    )
    print(
        f"# {args.filters} filters, {len(bundle.documents)} docs, "
        f"{matches} matches; registration net "
        f"{register_bytes / (1024 * 1024):.2f} MiB "
        f"({register_bytes / max(1, args.filters):.0f} B/filter), "
        f"traced peak {peak / (1024 * 1024):.2f} MiB"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.memory:
        profile_memory(args)
    else:
        profile_publish(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
