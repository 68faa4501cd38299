"""Command-line entry point: ``python -m repro``.

Subcommands:

- ``experiments [ids...]`` — regenerate paper figures as text tables
  (all of them when no ids are given); ``--trace PATH`` additionally
  installs a pipeline :class:`~repro.obs.Tracer` as the session
  default and dumps every span to ``PATH`` as JSON lines,
- ``trace`` — run one scheme over a tiny traced workload and write
  the spans as JSON lines (the CI observability smoke; feed the
  output to ``scripts/trace_report.py``),
- ``serve`` — run the real service mode: an asyncio TCP endpoint
  speaking the binary protocol v3 (subscribe / ingest / admin ops;
  drive it with :class:`repro.serve.ServiceClient`) over one
  dissemination system, with optional write-ahead-log durability and
  crash recovery (``--wal-dir``); prints ``READY port=<n>
  protocol=<v>`` once listening (see ``docs/OPERATIONS.md``),
- ``list`` — list the available experiment ids,
- ``demo`` — run the quickstart scenario inline.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_list(_args: argparse.Namespace) -> int:
    from .experiments.registry import experiment_ids

    for experiment_id in experiment_ids():
        print(experiment_id)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.registry import (
        export_csv,
        format_result,
        run_experiment,
        experiment_ids,
    )
    from .obs import Tracer, set_default_tracer

    tracer = None
    if args.trace:
        # Systems adopt the session default tracer at construction, so
        # installing it here traces every system the figures build.
        tracer = Tracer()
        set_default_tracer(tracer)
    targets = args.ids or experiment_ids()
    try:
        for experiment_id in targets:
            result = run_experiment(experiment_id)
            print(f"=== {experiment_id} ===")
            print(format_result(result))
            print()
            if args.csv_dir:
                written = export_csv(experiment_id, result, args.csv_dir)
                for path in written:
                    print(f"wrote {path}")
    finally:
        if tracer is not None:
            set_default_tracer(None)
            count = tracer.write_jsonl(args.trace)
            print(f"wrote {count} spans to {args.trace}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .experiments.harness import ScaledWorkload, run_scheme_once
    from .obs import Tracer

    workload = ScaledWorkload(
        num_filters=args.filters,
        num_documents=args.documents,
        num_nodes=args.nodes,
        seed=args.seed,
    )
    bundle = workload.build()
    tracer = Tracer()
    result = run_scheme_once(args.scheme, bundle, tracer=tracer)
    count = tracer.write_jsonl(args.out)
    print(
        f"{args.scheme}: {len(bundle.documents)} documents, "
        f"{result.total_matches} matches, "
        f"{count} spans -> {args.out}"
    )
    for name, row in sorted(tracer.stage_summary().items()):
        print(
            f"  {name:<14} count={int(row['count']):<5d} "
            f"mean={row['mean_s'] * 1e6:8.1f}us "
            f"p95={row['p95_s'] * 1e6:8.1f}us"
        )
    realloc = [s for s in tracer.spans if s.name == "reallocate"]
    if realloc:
        skipped = sum(1 for s in realloc if s.tags.get("skipped"))
        kept = sum(s.tags.get("keys_kept", 0) for s in realloc)
        rebuilt = sum(s.tags.get("keys_rebuilt", 0) for s in realloc)
        moved = sum(s.tags.get("replicas_moved", 0) for s in realloc)
        print(
            f"  reallocations: {len(realloc)} "
            f"({len(realloc) - skipped} applied, {skipped} skipped), "
            f"keys kept {kept} / rebuilt {rebuilt}, "
            f"replicas moved {moved}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve import ServeConfig, ServiceRuntime, ServiceServer

    config = ServeConfig(
        scheme=args.scheme,
        num_nodes=args.nodes,
        node_capacity=args.capacity,
        seed=args.seed,
        threshold=args.threshold,
        wal_dir=args.wal_dir,
        segment_max_bytes=args.segment_max_bytes,
        queue_capacity=args.queue_capacity,
        admission_high_watermark=args.admission_watermark,
        batch_max_docs=args.batch_max_docs,
        reallocate_interval=args.reallocate_interval,
        drift_epsilon=args.drift_epsilon,
        checkpoint_interval=args.checkpoint_interval,
        snapshot_retain=args.snapshot_retain,
    )

    async def run() -> None:
        from .serve.wire import BINARY_PROTOCOL_VERSION

        runtime = ServiceRuntime(config)
        if runtime.journal is not None:
            for reason in runtime.journal.snapshot_skip_reasons:
                print(f"snapshot skipped: {reason}", file=sys.stderr)
        server = ServiceServer(runtime, host=args.host, port=args.port)
        await server.start()
        print(
            f"READY port={server.port} "
            f"protocol={BINARY_PROTOCOL_VERSION}",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, server.shutdown_requested.set
                )
            except NotImplementedError:  # pragma: no cover - non-posix
                pass
        await server.shutdown_requested.wait()
        print("draining", flush=True)
        await server.close()
        print("stopped", flush=True)

    asyncio.run(run())
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from . import Cluster, Document, Filter, MoveSystem

    cluster = Cluster()
    move = MoveSystem(cluster)
    move.subscribe(
        [
            Filter.from_text("alice", "distributed systems"),
            Filter.from_text("bob", "cloud storage"),
            ("carol", "cloud AND (storage OR compute)"),
        ]
    )
    move.seed_frequencies(
        [Document.from_text("seed", "cloud systems news")]
    )
    move.finalize_registration()
    plan = move.publish(
        Document.from_text("d1", "new distributed cloud tricks")
    )
    print(f"matched filters: {list(plan.matched_ids)}")
    print(f"nodes involved:  {plan.fanout}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "MOVE reproduction (ICDCS 2012): keyword-based content "
            "filtering and dissemination"
        ),
    )
    subparsers = parser.add_subparsers(dest="command")

    list_parser = subparsers.add_parser(
        "list", help="list experiment ids"
    )
    list_parser.set_defaults(func=_cmd_list)

    exp_parser = subparsers.add_parser(
        "experiments", help="regenerate paper figures"
    )
    exp_parser.add_argument(
        "ids", nargs="*", help="experiment ids (default: all)"
    )
    exp_parser.add_argument(
        "--csv-dir",
        default=None,
        help="also export each figure's series as CSV into this "
        "directory",
    )
    exp_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="trace every pipeline run and write the spans to PATH "
        "as JSON lines (see scripts/trace_report.py)",
    )
    exp_parser.set_defaults(func=_cmd_experiments)

    trace_parser = subparsers.add_parser(
        "trace",
        help="run one traced workload and dump spans as JSON lines",
    )
    trace_parser.add_argument(
        "--scheme",
        default="move",
        choices=["move", "il", "rs", "central"],
        help="dissemination scheme to trace (default: move)",
    )
    trace_parser.add_argument(
        "--filters", type=int, default=200, help="filter count"
    )
    trace_parser.add_argument(
        "--documents", type=int, default=20, help="document count"
    )
    trace_parser.add_argument(
        "--nodes", type=int, default=8, help="cluster size"
    )
    trace_parser.add_argument(
        "--seed", type=int, default=0, help="workload seed"
    )
    trace_parser.add_argument(
        "--out",
        default="trace.jsonl",
        help="JSON-lines output path (default: trace.jsonl)",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the live TCP service (binary protocol v3; see "
        "docs/OPERATIONS.md)",
    )
    serve_parser.add_argument(
        "--scheme",
        default="move",
        choices=["move", "il", "rs", "central"],
        help="dissemination scheme to serve (default: move)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = let the OS pick; the bound port is "
        "printed as READY port=<n>)",
    )
    serve_parser.add_argument(
        "--nodes", type=int, default=8, help="cluster size"
    )
    serve_parser.add_argument(
        "--capacity",
        type=int,
        default=2_000,
        help="per-node filter capacity",
    )
    serve_parser.add_argument(
        "--seed", type=int, default=0, help="system seed"
    )
    serve_parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="similarity threshold (default: boolean semantics)",
    )
    serve_parser.add_argument(
        "--wal-dir",
        default=None,
        help="write-ahead-log directory; enables durability and "
        "crash recovery on restart",
    )
    serve_parser.add_argument(
        "--segment-max-bytes",
        type=int,
        default=1 << 20,
        help="WAL segment rotation size in bytes (default: 1 MiB); "
        "checkpoints can only truncate whole segments, so smaller "
        "segments mean tighter disk bounds at more files",
    )
    serve_parser.add_argument(
        "--queue-capacity",
        type=int,
        default=1_024,
        help="ingest queue bound",
    )
    serve_parser.add_argument(
        "--admission-watermark",
        type=float,
        default=1.0,
        help="queue fraction at which ingest sheds (1.0 = never "
        "shed, rely on backpressure)",
    )
    serve_parser.add_argument(
        "--batch-max-docs",
        type=int,
        default=64,
        help="micro-batch size cap",
    )
    serve_parser.add_argument(
        "--reallocate-interval",
        type=float,
        default=None,
        help="seconds between periodic allocation refreshes "
        "(default: disabled)",
    )
    serve_parser.add_argument(
        "--drift-epsilon",
        type=float,
        default=None,
        help="drift threshold for the periodic refresh; a tick "
        "below it skips reallocation (default: the system's "
        "configured epsilon)",
    )
    serve_parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=None,
        help="seconds between automatic journal checkpoints "
        "(snapshot + WAL truncation; requires --wal-dir)",
    )
    serve_parser.add_argument(
        "--snapshot-retain",
        type=int,
        default=2,
        help="checkpoint snapshots kept on disk (default: 2)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    demo_parser = subparsers.add_parser(
        "demo", help="run the quickstart scenario"
    )
    demo_parser.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
