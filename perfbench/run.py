"""The service benchmark: one command, every metric with its unit.

    python3 perfbench/run.py --workload ingest-small --seed 1 --seconds 24 --trace 0

runs one workload against a real ``python -m repro serve`` subprocess
and prints, as its last line, ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from a traced server) with ``--trace 1``.

    python3 perfbench/run.py --workload match-heavy --seed 1 --repeat 10

is the steadiness mode: it runs the workload N times (seeds ``seed``,
``seed+1``, ...; with ``--same-seed`` all on ``seed``), prints each
end-to-end metric's median, quartiles and spreads, and asserts that
every count repeats exactly across runs of one seed.  Without
``--same-seed`` one extra run repeats the first seed for that check.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The end-to-end metrics (``--trace 0``), with their units.
END_TO_END = {
    "setup_s": "s",
    "docs_per_s": "1/s",
    "ack_p50_ms": "ms",
    "ack_p90_ms": "ms",
    "server_peak_rss_mb": "MB",
    "subscribe_p50_ms": "ms",
    "recovery_s": "s",
}

#: The per-layer metrics (``--trace 1``), with their units.
PER_LAYER = {
    "wire.req_decode_us_per_doc": "us",
    "wire.resp_encode_us_per_doc": "us",
    "wire.req_bytes_per_doc": "bytes",
    "wire.resp_bytes_per_doc": "bytes",
    "client.resp_decode_us_per_doc": "us",
    "runtime.queue_wait_us_p50": "us",
    "runtime.docs_per_batch": "count",
    "journal.record_encode_us_per_doc": "us",
    "journal.append_us_per_doc": "us",
    "journal.fsync_us_p50": "us",
    "journal.records_per_fsync": "count",
    "journal.wal_bytes_per_doc": "bytes",
    "pipeline.publish_us_per_doc": "us",
    "pipeline.observe_us_per_doc": "us",
    "pipeline.ingest_us_per_doc": "us",
    "pipeline.route_us_per_doc": "us",
    "pipeline.execute_us_per_doc": "us",
    "pipeline.account_us_per_doc": "us",
    "matching.postings_per_doc": "count",
    "matching.matched_per_doc": "count",
    "route.fanout_per_doc": "count",
    "subscribe.us_per_item": "us",
    "unregister.us_per_call": "us",
    "state.bytes_per_filter": "bytes",
    "alloc.reallocate_ms_p50": "ms",
    "alloc.reallocations_executed": "count",
    "snapshot.checkpoint_ms_p50": "ms",
    "snapshot.mb": "MB",
    "snapshot.load_ms": "ms",
    "recovery.replayed_records": "count",
    "driver.late_ms_p90": "ms",
    "driver.ack_p99_ms": "ms",
    "unattributed_us_per_doc": "us",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeat", type=int, default=0, help="steadiness mode: N runs"
    )
    parser.add_argument(
        "--same-seed",
        action="store_true",
        help="steadiness mode: every run on --seed",
    )
    return parser.parse_args(argv)


def run_once(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from driver import COUNT_METRICS, InvalidRun, Run
    from workloads import SPECS

    spec = SPECS.get(args.workload)
    if spec is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_run" / f"{spec.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(spec, args.seed, args.seconds, bool(args.trace), ROOT, workdir)
    # SIGTERM unwinds like an exception, so the servers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        asyncio.run(run.execute())
    except InvalidRun as error:
        print(f"invalid run: {error}", file=sys.stderr)
        return 3
    finally:
        run.stop_all()
    tally = run.tally
    layers = dict(run.layers)
    layers.update(run.counts)
    print(f"# workload {spec.name} seed {args.seed} trace {args.trace}")
    print(f"# attempted {tally.attempted} failed {tally.failed} "
          f"mismatched {tally.mismatched}")
    for message in tally.errors:
        print(f"# error: {message}")
    for name, value in sorted(run.diagnostics.items()):
        print(f"# diag {name} = {value:.6g}")
    for name, values in run.detail.items():
        print(f"# detail {name} " + " ".join(f"{v:.4g}" for v in values))
    for name, unit in END_TO_END.items():
        print(f"  {name:<36s} {run.metrics[name]:>14.4f} {unit}")
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<36s} {layers[name]:>14.4f} {unit}")
        total = run.diagnostics["ack_p50_raw_ms"] * 1e3
        print(f"# open-loop ack p50 {total:.0f} us per document (raw, whole "
              "open loop), by layer (self time), largest first:")
        for name, value in sorted(run.breakdown.items(), key=lambda kv: -kv[1]):
            print(f"#   {name:<24s} {value:10.1f} us  {value / total:6.1%}")
    print("COUNTS " + json.dumps({k: run.counts[k] for k in COUNT_METRICS}))
    chosen = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else run.metrics
    result = {
        "correct": tally.mismatched == 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in chosen.items()
        },
    }
    print(json.dumps(result))
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # another run's directory is still there
    return 0 if result["correct"] else 1


def steadiness_seeds(seed: int, repeat: int, same_seed: bool) -> list:
    """The seeds of a steadiness run: ``repeat`` measured runs, then,
    unless they already share one seed, a repeat of the first seed so
    the count check always has a pair to compare (it is left out of
    the spreads)."""
    if same_seed:
        return [seed] * repeat
    return [seed + i for i in range(repeat)] + [seed]


def steadiness(args) -> int:
    from stats import spread

    seeds = steadiness_seeds(args.seed, args.repeat, args.same_seed)
    runs = []
    for i, seed in enumerate(seeds):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stdout + done.stderr, file=sys.stderr)
            print(f"run {i} (seed {seed}) exited {done.returncode}")
            return 1
        result = json.loads(lines[-1])
        counts = json.loads(next(l for l in lines if l.startswith("COUNTS "))[7:])
        runs.append((seed, result, counts))
        summary = " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        )
        print(f"run {i} seed {seed} {summary}", flush=True)
        for line in lines:
            if line.startswith(("# diag probe", "# diag fsync", "# diag quiet", "# detail")):
                print("   " + line, flush=True)
    ok = True
    print(f"{'metric':<24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'range/med':>9s}")
    measured = runs[:args.repeat]
    for name in runs[0][1]["metrics"]:
        row = spread([r[1]["metrics"][name]["value"] for r in measured])
        print(f"{name:<24s} {row['median']:12.4f} {row['q1']:12.4f} "
              f"{row['q3']:12.4f} {row['iqr_frac']:8.4f} "
              f"{row['range_frac']:9.4f}")
    by_seed = {}
    for seed, _result, counts in runs:
        by_seed.setdefault(seed, []).append(counts)
    for seed, seen in by_seed.items():
        for other in seen[1:]:
            for name, value in seen[0].items():
                if other[name] != value:
                    print(f"count {name} differs for seed {seed}: "
                          f"{value} vs {other[name]}")
                    ok = False
    if not all(r[1]["correct"] for r in runs):
        print("a run reported incorrect output")
        ok = False
    print("counts repeat exactly per seed" if ok else "STEADINESS CHECK FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    from stats import check_metric_names

    check_metric_names(list(END_TO_END) + list(PER_LAYER))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Input generation must not depend on the hash seed either.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    if args.repeat:
        return steadiness(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
