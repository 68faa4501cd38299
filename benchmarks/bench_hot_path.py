"""Hot-path bench — batched dissemination vs the seed per-document loop.

Times the Figure-8 ``BENCH_WORKLOAD`` (4k filters / 300 docs)
dissemination loop two ways on all four schemes:

- *reference* — per-document :meth:`publish` with the ring's home-node
  memo disabled, on the cold-cache twin
  (:func:`tests.oracles.cold_cache_twin`): singleton batches with
  fresh caches per document, recovering the seed implementation's
  per-term work (MD5 + bisect per ring lookup, Bloom hashing per term
  per document, posting lists re-materialized per retrieval);
- *batched* — :meth:`publish_batch` with all hot-path caches live
  (interned term ids, ring memo, routing and retrieval memos shared
  across the whole stream).

Each scheme is benched in two matching modes: the paper's boolean
any-term semantics and the VSM similarity-threshold extension.  In the
threshold benches the reference loop additionally runs on the
test-only naive twin (:func:`tests.oracles.naive_threshold_twin`,
the naive score-per-candidate scorer), so the ratio gates the scoring
kernel (:mod:`repro.matching.kernel`); those benches assert an
acceptance floor of >= 3x for every scheme.

The speedup ratio is recorded in ``extra_info`` (and asserted >= 2x
for MOVE, the paper's scheme); the committed ``BENCH_hot_path.json``
baseline lets ``scripts/run_benchmarks.py`` flag regressions.

The ``test_csr_*`` benches time the kernel's accumulation pass on
matching-heavy loops (the 20k/50k-filter SiftMatcher loop and whole
threshold pipelines) and record absolute docs/s only: the python
accumulator they used to divide by no longer exists.  They keep their
names so the committed baseline still gates that absolute docs/s.

``test_tracing_disabled_overhead`` gates the observability layer's
disabled path: with the default no-op tracer installed,
``publish_batch`` must run within 2% of the traced-twin-free engine
loop — the only extra work is one ``tracer.enabled`` check per batch.

The predicate benches gate the first-class subscription layer:
``test_predicate_mix_throughput`` times the Figure-8 workload with a
20% boolean-predicate mix against its anchor-only flat twin (the
ratio is the delivery gate's whole cost), and
``test_predicate_flat_overhead`` re-runs the paired dispatcher
measurement on a predicate-free system — the dispatcher now also
checks ``has_predicates`` per batch, and flat workloads must stay
within the same 2% budget.

Set ``REPRO_BENCH_PROFILE=1`` to print a cProfile breakdown of each
timed loop (the profiling methodology of docs/PERFORMANCE.md).
"""

from __future__ import annotations

import cProfile
import gc
import io
import os
import pstats
import statistics
import time
from dataclasses import replace

from repro.core import MoveSystem
from repro.experiments.harness import build_cluster, make_system

from conftest import BENCH_WORKLOAD, record, run_once
from tests.oracles import cold_cache_twin, naive_threshold_twin

#: Flag gating the cProfile hook: profiling skews absolute timings, so
#: it is opt-in and the profiled run is separate from the timed run.
PROFILE_FLAG = "REPRO_BENCH_PROFILE"

#: Threshold for the VSM benches: low enough that candidate sets stay
#: non-trivial at the bench workload's scores, so matching does real
#: scoring work in both loops.
BENCH_THRESHOLD = 0.15


def _build_system(
    scheme: str,
    bundle,
    seed: int = 0,
    threshold=None,
    naive: bool = False,
):
    """Register + allocate one scheme over the bench workload.

    ``naive`` switches a threshold system onto the naive
    per-candidate scorer (the kernel's reference).
    """
    workload = bundle.workload
    cluster, config = build_cluster(
        workload.num_nodes, workload.node_capacity, seed=seed
    )
    system = make_system(scheme, cluster, config, threshold=threshold)
    if naive:
        naive_threshold_twin(system)
    system.subscribe(bundle.filters)
    if isinstance(system, MoveSystem):
        system.seed_frequencies(bundle.offline_corpus())
    system.finalize_registration()
    return system


def _maybe_profile(label: str, runner):
    """Run ``runner`` under cProfile when the env flag is set."""
    if not os.environ.get(PROFILE_FLAG):
        return
    profile = cProfile.Profile()
    profile.enable()
    runner()
    profile.disable()
    stream = io.StringIO()
    pstats.Stats(profile, stream=stream).sort_stats("cumulative")
    pstats.Stats(profile, stream=stream).print_stats(25)
    print(f"\n# cProfile: {label}\n{stream.getvalue()}")


def _time_reference(scheme: str, bundle, threshold=None) -> float:
    """Seconds for the seed-equivalent per-document publish loop.

    The system is the cold-cache twin, so no memo outlives its
    singleton batch.  With a threshold it is also the naive twin, so
    matching runs the naive per-candidate cosine loop — the pre-kernel
    work.
    """
    system = _build_system(
        scheme, bundle, threshold=threshold, naive=threshold is not None
    )
    cold_cache_twin(system)
    system.cluster.ring.cache_enabled = False
    documents = bundle.documents
    start = time.perf_counter()
    for document in documents:
        system.publish(document)
    return time.perf_counter() - start


def _time_batched(scheme: str, bundle, threshold=None) -> float:
    """Seconds for the batched fast path."""
    system = _build_system(scheme, bundle, threshold=threshold)
    documents = bundle.documents
    start = time.perf_counter()
    system.publish_batch(documents)
    return time.perf_counter() - start


def _best_of(runs: int, timer, *args) -> float:
    """Minimum over ``runs`` fresh-system runs (noise suppression)."""
    return min(timer(*args) for _ in range(runs))


def _bench_scheme(benchmark, scheme: str, threshold=None) -> float:
    """Time both loops, record ratios, return the speedup."""
    bundle = BENCH_WORKLOAD.build()
    label = f"{scheme}+vsm" if threshold is not None else scheme
    _maybe_profile(
        f"{label} reference publish loop",
        lambda: _time_reference(scheme, bundle, threshold),
    )
    _maybe_profile(
        f"{label} publish_batch",
        lambda: _time_batched(scheme, bundle, threshold),
    )
    reference_s = _best_of(5, _time_reference, scheme, bundle, threshold)
    batched_s = _best_of(5, _time_batched, scheme, bundle, threshold)
    # One extra timed run for pytest-benchmark's own stats; the
    # regression gate reads the controlled best-of numbers from
    # extra_info, not this row's wall time (which includes the
    # register/allocate system build).
    run_once(benchmark, _time_batched, scheme, bundle, threshold)
    speedup = reference_s / batched_s
    docs = len(bundle.documents)
    print(
        f"\n{label}: reference {reference_s * 1e3:.1f} ms "
        f"({docs / reference_s:.0f} docs/s) -> batched "
        f"{batched_s * 1e3:.1f} ms ({docs / batched_s:.0f} docs/s), "
        f"speedup {speedup:.2f}x"
    )
    record(
        benchmark,
        reference_seconds=reference_s,
        batched_seconds=batched_s,
        speedup=speedup,
        docs_per_second_batched=docs / batched_s,
        docs_per_second_reference=docs / reference_s,
    )
    return speedup


def test_hot_path_move(benchmark):
    """MOVE dissemination loop: the acceptance gate is >= 1.5x.

    (Originally 2x; the scale tier's cheaper memoized retrieval —
    ``InvertedIndex.retrieve_for_term`` — sped up the per-document
    reference loop itself, compressing the batched ratio to ~1.6-2.4x
    while both absolute paths got faster.)
    """
    speedup = _bench_scheme(benchmark, "move")
    assert speedup >= 1.5


def test_hot_path_il(benchmark):
    """IL baseline loop (no forwarding tables, purest posting path)."""
    speedup = _bench_scheme(benchmark, "il")
    assert speedup >= 2.0


def test_hot_path_rs(benchmark):
    """RS flooding loop, batched for the first time by the pipeline.

    RS floods every partition per document, so only the live-roster
    and per-replica retrieval memos amortize — the per-partition
    replica draw stays per-document work.  No ratio assert: the memo
    win depends on how many distinct replicas the draws visit.
    """
    speedup = _bench_scheme(benchmark, "rs")
    assert speedup > 0


def test_hot_path_central(benchmark):
    """Centralized system loop (single node, SIFT over all terms)."""
    speedup = _bench_scheme(benchmark, "central")
    assert speedup > 0


def test_hot_path_move_vsm(benchmark):
    """MOVE under the VSM threshold: kernel acceptance gate >= 3x."""
    speedup = _bench_scheme(benchmark, "move", threshold=BENCH_THRESHOLD)
    assert speedup >= 3.0


def test_hot_path_il_vsm(benchmark):
    """IL under the VSM threshold: kernel acceptance gate >= 3x."""
    speedup = _bench_scheme(benchmark, "il", threshold=BENCH_THRESHOLD)
    assert speedup >= 3.0


def test_hot_path_rs_vsm(benchmark):
    """RS under the VSM threshold: kernel acceptance gate >= 3x.

    RS is where score accumulation bites hardest — every replica runs
    the full SIFT walk, so the naive loop rescored every candidate at
    every partition.
    """
    speedup = _bench_scheme(benchmark, "rs", threshold=BENCH_THRESHOLD)
    assert speedup >= 3.0


def test_hot_path_central_vsm(benchmark):
    """Centralized under the VSM threshold: kernel gate >= 3x."""
    speedup = _bench_scheme(
        benchmark, "central", threshold=BENCH_THRESHOLD
    )
    assert speedup >= 3.0


# -- accumulation-pass throughput ---------------------------------------------
#
# The kernel's vectorized accumulation pass on matching-heavy loops:
# the pure SiftMatcher threshold loop at 20k and 50k filters (all
# kernel work: posting gather + exact segment sums) and whole
# threshold pipelines whose execute stage runs it per node visit.
# These record absolute docs/s only — the python accumulator the old
# ratio floors divided by is gone; scores stay bit-identical to the
# naive scorer (the equivalence suite proves it).

from repro.matching import InvertedIndex, SiftMatcher
from repro.matching.vsm import VsmScorer

#: Matching-dominant workload sizes for the matcher-level benches.
MATCHER_BULK_FILTERS = 50_000
MATCHER_MID_FILTERS = 20_000
MATCHER_DOCUMENTS = 200

_MATCHING_BUNDLES = {}


def _matching_bundle(num_filters: int):
    """Build (once) and share the big matching workloads."""
    bundle = _MATCHING_BUNDLES.get(num_filters)
    if bundle is None:
        from repro.experiments.harness import ScaledWorkload

        bundle = ScaledWorkload(
            num_filters=num_filters,
            num_documents=MATCHER_DOCUMENTS,
            node_capacity=num_filters,
            seed=7,
        ).build()
        _MATCHING_BUNDLES[num_filters] = bundle
    return bundle


def _time_matcher(bundle) -> float:
    """Best-of-3 seconds for the pure SiftMatcher threshold loop."""
    index = InvertedIndex()
    for profile in bundle.filters:
        index.add_filter(profile)
    matcher = SiftMatcher(
        index, scorer=VsmScorer(), threshold=BENCH_THRESHOLD
    )
    documents = bundle.documents
    for document in documents[:10]:  # warm caches
        matcher.match(document)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for document in documents:
            matcher.match(document)
        best = min(best, time.perf_counter() - start)
    return best


def _time_pipeline(scheme, bundle) -> float:
    """Best-of-5 seconds for the whole threshold publish_batch."""
    system = _build_system(scheme, bundle, threshold=BENCH_THRESHOLD)
    documents = bundle.documents
    system.publish_batch(documents[:10])  # warm caches
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        system.publish_batch(documents)
        best = min(best, time.perf_counter() - start)
    return best


def _bench_accumulation(benchmark, label, timer, *args) -> float:
    """Time the loop and record its absolute throughput."""
    seconds = timer(*args)
    run_once(benchmark, timer, *args)
    docs = len(args[-1].documents)  # the bundle is always last
    print(
        f"\n{label}: {seconds * 1e3:.1f} ms "
        f"({docs / seconds:.0f} docs/s)"
    )
    record(
        benchmark,
        kernel_seconds=seconds,
        docs_per_second_batched=docs / seconds,
    )
    return seconds


def test_csr_matcher_50k(benchmark):
    """Pure threshold matching at 50k filters."""
    bundle = _matching_bundle(MATCHER_BULK_FILTERS)
    _bench_accumulation(benchmark, "matcher 50k", _time_matcher, bundle)


def test_csr_matcher_20k(benchmark):
    """Pure threshold matching at 20k filters."""
    bundle = _matching_bundle(MATCHER_MID_FILTERS)
    _bench_accumulation(benchmark, "matcher 20k", _time_matcher, bundle)


def test_csr_central_pipeline_20k(benchmark):
    """Whole Centralized threshold publish_batch at 20k filters: one
    node sees every posting list, the largest accumulation surface
    any scheme offers the kernel."""
    bundle = _matching_bundle(MATCHER_MID_FILTERS)
    _bench_accumulation(
        benchmark,
        "central pipeline 20k",
        _time_pipeline,
        "central",
        bundle,
    )


def test_csr_rs_pipeline_4k(benchmark):
    """Whole RS threshold publish_batch on the Figure-8 workload:
    every partition replica runs an accumulation pass per document."""
    bundle = BENCH_WORKLOAD.build()
    _bench_accumulation(
        benchmark, "rs pipeline 4k", _time_pipeline, "rs", bundle
    )


def test_csr_move_pipeline_4k(benchmark):
    """Whole MOVE threshold publish_batch on the Figure-8 workload
    (home-node lookup mode: the kernel's scalar select path)."""
    bundle = BENCH_WORKLOAD.build()
    _bench_accumulation(
        benchmark, "move pipeline 4k", _time_pipeline, "move", bundle
    )


# -- observability disabled-path gate (ISSUE-4) ------------------------------


#: Paired rounds of the disabled-path protocol (was 60).  The median of
#: 200 paired ratios spread about half as much across repeated runs as
#: the median of 60 did (see docs/PERFORMANCE.md), so the fixed 2%
#: ceiling sits well outside run-to-run noise.
OVERHEAD_ROUNDS = 200


def _paired_disabled_overhead(system, documents, rounds=OVERHEAD_ROUNDS):
    """Median paired public/raw ratio for the disabled tracing path.

    Times the public ``publish_batch`` (tracer dispatcher included)
    against the engine's ``_publish_batch_untraced`` — the *same* code
    object the dispatcher delegates to — on one shared system, so code
    layout, allocator state and cache warmth are identical for both
    paths and the ratio isolates exactly the dispatcher's cost (one
    ``getattr`` + ``enabled`` check + delegating call per batch).

    Noise control for shared/containerized hosts: three warm-up calls
    per path (the first publishes on a fresh system still populate
    interning tables, ring memos, and allocator arenas, and a single
    warm call leaves the first timed rounds measurably hot-vs-cold
    skewed), garbage collection paused across the timed region, the
    two paths alternated first/second every round, and the overhead
    taken as the median of the per-round paired ratios (a scheduler
    stall inflates one round's pair, not the median), over
    :data:`OVERHEAD_ROUNDS` rounds.
    """
    engine = system._engine
    public = engine.publish_batch
    raw = engine._publish_batch_untraced

    def timed(fn):
        start = time.perf_counter()
        fn(documents)
        return time.perf_counter() - start

    for _ in range(3):
        timed(public)
        timed(raw)
    public_times, raw_times = [], []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for index in range(rounds):
            if index % 2 == 0:
                public_times.append(timed(public))
                raw_times.append(timed(raw))
            else:
                raw_times.append(timed(raw))
                public_times.append(timed(public))
    finally:
        if gc_was_enabled:
            gc.enable()
    ratios = sorted(
        pub / base for pub, base in zip(public_times, raw_times)
    )
    overhead = statistics.median(ratios) - 1.0
    return overhead, min(public_times), min(raw_times)


def test_tracing_disabled_overhead(benchmark):
    """Disabled-path guarantee: tracing off costs <= 2% on the hot path.

    The default tracer is the no-op singleton, so the public
    ``publish_batch`` does exactly one extra ``enabled`` check (plus
    the delegating call) per batch versus the raw engine loop; the
    paired-median protocol in :func:`_paired_disabled_overhead` keeps
    wall-clock noise inside the 2% budget.
    ``scripts/run_benchmarks.py --check`` re-asserts the recorded
    ``disabled_overhead`` as part of the CI gate.
    """
    bundle = BENCH_WORKLOAD.build()
    system = _build_system("move", bundle)
    overhead, public_s, raw_s = run_once(
        benchmark, _paired_disabled_overhead, system, bundle.documents
    )
    print(
        f"\ntracing disabled overhead: public {public_s * 1e3:.1f} ms vs "
        f"raw engine {raw_s * 1e3:.1f} ms (best-of-round) -> median "
        f"paired ratio {overhead * 100:+.2f}%"
    )
    record(
        benchmark,
        public_seconds=public_s,
        raw_engine_seconds=raw_s,
        disabled_overhead=overhead,
    )
    assert overhead <= 0.02


# -- predicate subscriptions (first-class boolean filters) -------------------


def _time_batched_system(system, documents) -> float:
    """Best-of-5 seconds for publish_batch on a prebuilt system."""
    system.publish_batch(documents[:10])  # warm caches
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        system.publish_batch(documents)
        best = min(best, time.perf_counter() - start)
    return best


def test_predicate_mix_throughput(benchmark):
    """Figure-8 workload with a 20% boolean-predicate mix.

    The predicated system registers the mixed subscriptions; the flat
    twin registers the same profiles reduced to their anchor terms, so
    routing, allocation, and matching work are identical and the ratio
    isolates the delivery gate (predicate lookups + AST evaluation on
    matched candidates).  ``speedup`` records flat/predicated — a
    same-host ratio the ``--check`` gate tracks; it should hover near
    1x because the gate only touches matched candidates.
    """
    from repro.model import Filter, Subscription

    workload = replace(BENCH_WORKLOAD, predicate_fraction=0.2)
    bundle = workload.build()
    flat_profiles = [
        Filter(
            filter_id=p.filter_id, terms=p.terms, owner=p.owner
        )
        if isinstance(p, Subscription)
        else p
        for p in bundle.filters
    ]

    def build(profiles):
        cluster, config = build_cluster(
            workload.num_nodes, workload.node_capacity, seed=0
        )
        system = make_system("move", cluster, config, threshold=None)
        system.subscribe(profiles)
        system.seed_frequencies(bundle.offline_corpus())
        system.finalize_registration()
        return system

    predicated = build(bundle.filters)
    flat = build(flat_profiles)
    assert predicated.has_predicates and not flat.has_predicates
    documents = bundle.documents
    _maybe_profile(
        "move 20% predicate mix publish_batch",
        lambda: predicated.publish_batch(documents),
    )
    flat_s = _time_batched_system(flat, documents)
    predicated_s = run_once(
        benchmark, _time_batched_system, predicated, documents
    )
    ratio = flat_s / predicated_s
    docs = len(documents)
    evaluated = predicated.metrics.counter("predicate_evaluated").value
    rejected = predicated.metrics.counter("predicate_rejected").value
    print(
        f"\nmove 20% predicate mix: flat twin {flat_s * 1e3:.1f} ms "
        f"({docs / flat_s:.0f} docs/s) -> predicated "
        f"{predicated_s * 1e3:.1f} ms ({docs / predicated_s:.0f} docs/s), "
        f"flat/predicated {ratio:.2f}x; gate evaluated {evaluated:.0f}, "
        f"rejected {rejected:.0f}"
    )
    record(
        benchmark,
        flat_seconds=flat_s,
        predicated_seconds=predicated_s,
        speedup=ratio,
        docs_per_second_batched=docs / predicated_s,
        docs_per_second_reference=docs / flat_s,
        predicate_evaluated=evaluated,
        predicate_rejected=rejected,
    )
    assert evaluated > 0 and rejected > 0


def test_predicate_flat_overhead(benchmark):
    """Flat workloads pay <= 2% for the predicate-capable dispatcher.

    Same paired-median protocol as the tracing gate, on a system with
    zero predicated subscriptions: the public ``publish_batch`` now
    performs the ``has_predicates`` check (plus the tracer check) per
    batch before delegating to the identical untraced loop, and that
    dispatch must stay within the 2% hot-path budget.
    ``scripts/run_benchmarks.py --check`` re-asserts the recorded
    ``predicate_flat_overhead``.
    """
    bundle = BENCH_WORKLOAD.build()
    system = _build_system("move", bundle)
    assert not system.has_predicates
    overhead, public_s, raw_s = run_once(
        benchmark, _paired_disabled_overhead, system, bundle.documents
    )
    print(
        f"\npredicate flat overhead: public {public_s * 1e3:.1f} ms vs "
        f"raw engine {raw_s * 1e3:.1f} ms (best-of-round) -> median "
        f"paired ratio {overhead * 100:+.2f}%"
    )
    record(
        benchmark,
        public_seconds=public_s,
        raw_engine_seconds=raw_s,
        predicate_flat_overhead=overhead,
    )
    assert overhead <= 0.02
