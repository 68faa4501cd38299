"""Cluster throughput harness and shared experiment plumbing.

The throughput experiment mirrors Section VI-A's methodology: register
all filters, then inject documents at a fixed rate from clients;
"for a document, if all matching filters are found, we then add the
throughput by 1; after all documents are published, we measure the
overall average throughput per second."

The harness executes each document's dissemination plan on the
discrete-event cluster: network hops (rack-locality aware) deliver the
payload, each destination node serves its match job on its disk-bound
FIFO queue, and the document completes when its last task finishes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..baselines import (
    CentralizedSystem,
    DisseminationSystem,
    InvertedListSystem,
    RendezvousSystem,
)
from ..cluster.cluster import Cluster
from ..config import (
    AllocationConfig,
    ClusterConfig,
    CostModelConfig,
    SystemConfig,
)
from ..core import MoveSystem
from ..model import Document, Filter, Subscription
from ..text import tokenize
from ..sim.costs import MatchCostModel
from ..workloads import (
    CorpusGenerator,
    CorpusProfile,
    FilterTraceGenerator,
    SharedVocabulary,
    TREC_WT_PROFILE,
    UniformArrivals,
)


# ---------------------------------------------------------------------------
# Results and reporting
# ---------------------------------------------------------------------------

@dataclass
class ThroughputResult:
    """One throughput measurement (one point of Figures 8/9c).

    ``throughput`` is the paper's metric: documents fully matched per
    second of *bottleneck* processing time — the busiest node's busy
    time bounds how fast the cluster can drain matching work, so under
    saturation it equals completions per wall second.  ``elapsed`` (the
    arrival-to-last-completion span) is kept for diagnostics.
    """

    system: str
    documents: int
    completed: int
    elapsed: float
    bottleneck_busy: float
    throughput: float
    mean_fanout: float
    total_matches: int
    unreachable: int = 0

    def __str__(self) -> str:
        return (
            f"{self.system:>5s}: {self.throughput:10.2f} docs/s "
            f"({self.completed}/{self.documents} docs, "
            f"fanout {self.mean_fanout:.1f})"
        )


@dataclass
class ExperimentSeries:
    """A labelled (x, y) series — one curve of one figure."""

    label: str
    x_label: str
    y_label: str
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.xs.append(x)
        self.ys.append(y)

    def rows(self) -> List[Tuple[float, float]]:
        return list(zip(self.xs, self.ys))

    def format_table(self) -> str:
        lines = [
            f"# {self.label}",
            f"{self.x_label:>16s}  {self.y_label:>16s}",
        ]
        for x, y in self.rows():
            lines.append(f"{x:16.6g}  {y:16.6g}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """CSV rendering (header + rows) for external plotting."""

        def quote(field: str) -> str:
            if any(ch in field for ch in ',"\n'):
                return '"' + field.replace('"', '""') + '"'
            return field

        lines = [f"{quote(self.x_label)},{quote(self.y_label)}"]
        lines.extend(f"{x:.10g},{y:.10g}" for x, y in self.rows())
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        """Write :meth:`to_csv` output to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_csv())


def format_multi_series(
    title: str, series: Sequence[ExperimentSeries]
) -> str:
    """Side-by-side table of several series sharing an x axis."""
    if not series:
        return f"# {title}\n(empty)"
    header = f"{series[0].x_label:>16s}" + "".join(
        f"  {s.label:>14s}" for s in series
    )
    lines = [f"# {title}", header]
    for row_index in range(len(series[0].xs)):
        cells = [f"{series[0].xs[row_index]:16.6g}"]
        for s in series:
            value = s.ys[row_index] if row_index < len(s.ys) else float("nan")
            cells.append(f"  {value:14.6g}")
        lines.append("".join(cells))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Workload construction (scaled-down paper defaults)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaledWorkload:
    """A scaled version of the paper's evaluation workload.

    Paper scale: P = 4e6 filters, Q = 1e3 docs/s, N = 20 nodes,
    C = 3e6 filters/node, TREC WT documents.  The pure-Python default
    divides filter/document counts by 1000 and scales the per-node
    capacity in proportion so the storage-budget geometry (C / (P/N))
    is preserved — EXPERIMENTS.md records this factor.
    """

    num_filters: int = 4_000
    num_documents: int = 500
    num_nodes: int = 20
    node_capacity: int = 3_000
    vocabulary_size: int = 10_000
    mean_doc_terms: Optional[float] = 64.8
    corpus_profile: CorpusProfile = TREC_WT_PROFILE
    injection_rate: float = 1_000.0
    seed: int = 7
    #: Fraction of the filter trace upgraded to boolean predicate
    #: subscriptions (AND/OR/NOT over the filter's own terms, drawn
    #: from a dedicated ``seed + 4`` RNG stream so the flat workload
    #: at 0.0 — the default — is bit-identical to the pre-predicate
    #: harness, and build/stream stay twins at any fraction).
    predicate_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.predicate_fraction <= 1.0:
            raise ValueError(
                "predicate_fraction must be in [0, 1], got "
                f"{self.predicate_fraction}"
            )

    def build(self) -> "WorkloadBundle":
        vocabulary = SharedVocabulary(
            size=self.vocabulary_size,
            overlap_fraction=self.corpus_profile.query_overlap,
            overlap_k=max(10, self.vocabulary_size // 10),
            seed=self.seed,
        )
        filter_gen = FilterTraceGenerator(vocabulary, seed=self.seed + 1)
        corpus_gen = CorpusGenerator(
            vocabulary,
            self.corpus_profile,
            seed=self.seed + 2,
            mean_terms_override=self.mean_doc_terms,
        )
        filters = filter_gen.generate(self.num_filters)
        if self.predicate_fraction > 0.0:
            filters = list(
                _iter_with_predicates(iter(filters), self, vocabulary)
            )
        documents = corpus_gen.generate(self.num_documents)
        return WorkloadBundle(
            workload=self,
            vocabulary=vocabulary,
            filters=filters,
            documents=documents,
        )

    def stream(self) -> "StreamingWorkload":
        """The never-materialized twin of :meth:`build`.

        Only the shared vocabulary is held in memory; filters and
        documents are regenerated on demand from the same seeds, so a
        streamed run sees bit-identical workload objects to a built
        one without ever holding ``num_filters`` profiles at once.
        This is what lets the scale bench drive million-filter runs
        at a resident set bounded by the system under test, not the
        workload.
        """
        vocabulary = SharedVocabulary(
            size=self.vocabulary_size,
            overlap_fraction=self.corpus_profile.query_overlap,
            overlap_k=max(10, self.vocabulary_size // 10),
            seed=self.seed,
        )
        return StreamingWorkload(workload=self, vocabulary=vocabulary)


@dataclass
class WorkloadBundle:
    """Materialized workload: vocabulary, filters and documents."""

    workload: ScaledWorkload
    vocabulary: SharedVocabulary
    filters: List[Filter]
    documents: List[Document]

    def offline_corpus(self, size: int = 100) -> List[Document]:
        """The q_i bootstrap corpus (the paper uses 1000 documents)."""
        generator = CorpusGenerator(
            self.vocabulary,
            self.workload.corpus_profile,
            seed=self.workload.seed + 3,
            mean_terms_override=self.workload.mean_doc_terms,
        )
        return generator.generate(size, prefix="seed")


@dataclass
class StreamingWorkload:
    """Workload whose filters/documents are generated, never stored.

    Each ``iter_*`` call builds a fresh generator from the same seeds
    :meth:`ScaledWorkload.build` uses, so the yielded objects are
    bit-identical to the materialized bundle's — the streaming and
    built paths are twins, not approximations.
    """

    workload: ScaledWorkload
    vocabulary: SharedVocabulary

    def iter_filters(self) -> Iterator[Filter]:
        generator = FilterTraceGenerator(
            self.vocabulary, seed=self.workload.seed + 1
        )
        base = generator.iter_generate(self.workload.num_filters)
        if self.workload.predicate_fraction > 0.0:
            return _iter_with_predicates(
                base, self.workload, self.vocabulary
            )
        return base

    def iter_documents(self) -> Iterator[Document]:
        generator = CorpusGenerator(
            self.vocabulary,
            self.workload.corpus_profile,
            seed=self.workload.seed + 2,
            mean_terms_override=self.workload.mean_doc_terms,
        )
        return generator.iter_generate(self.workload.num_documents)

    def offline_corpus(self, size: int = 100) -> List[Document]:
        """Same bootstrap corpus as :meth:`WorkloadBundle.offline_corpus`."""
        generator = CorpusGenerator(
            self.vocabulary,
            self.workload.corpus_profile,
            seed=self.workload.seed + 3,
            mean_terms_override=self.workload.mean_doc_terms,
        )
        return generator.generate(size, prefix="seed")


def _iter_with_predicates(
    profiles: Iterator[Filter],
    workload: ScaledWorkload,
    vocabulary: SharedVocabulary,
) -> Iterator[Filter]:
    """Upgrade a deterministic fraction of a flat filter stream to
    boolean predicate subscriptions.

    Every upgrade decision and shape draw comes from one dedicated
    ``Random(seed + 4)`` stream consumed identically whether the
    workload is built or streamed, so the two stay bit-identical
    twins; the flat generators' own RNG streams are never touched.
    Upgraded subscriptions reuse the profile's id/owner and compose
    their query from the profile's own terms (conjunctions, an
    AND-of-OR shape, and NOT over a popular document term), so the
    predicate mix stresses exactly the delivery-gate path.  Terms the
    text pipeline would rewrite (a non-round-tripping stem) leave the
    profile flat rather than silently changing its term set.
    """
    fraction = workload.predicate_fraction
    rng = random.Random(workload.seed + 4)
    popular = min(200, vocabulary.size)
    for profile in profiles:
        if rng.random() >= fraction:
            yield profile
            continue
        # Draw the shape inputs unconditionally so the stream position
        # never depends on the fallback branches below.
        negated = vocabulary.doc_term(rng.randrange(popular))
        shape = rng.random()
        terms = list(profile.sorted_terms())
        if any(tokenize(term) != [term] for term in terms):
            yield profile
            continue
        if negated in terms or tokenize(negated) != [negated]:
            negated = ""
        if len(terms) == 1:
            if not negated:
                yield profile
                continue
            query = f"{terms[0]} NOT {negated}"
        elif len(terms) == 2:
            query = f"{terms[0]} AND {terms[1]}"
            if negated and shape < 0.5:
                query += f" NOT {negated}"
        elif shape < 0.5:
            query = f"{terms[0]} AND ({' OR '.join(terms[1:])})"
        else:
            query = " AND ".join(terms)
            if negated:
                query += f" NOT {negated}"
        yield Subscription.from_query(
            profile.filter_id, query, owner=profile.owner
        )


#: Cost-model constants for the scaled-down workloads.  The paper's
#: absolute latencies belong to 2012 hardware at P up to 1e7 filters;
#: at a 1/1000 filter scale the per-entry and per-seek costs are scaled
#: up so the cluster saturates at comparable document rates and the
#: relative scheme ordering is preserved (see EXPERIMENTS.md).
SCALED_COST = CostModelConfig(y_p=1e-4, y_d=2e-4, y_seek=4e-4)


def build_cluster(
    num_nodes: int,
    node_capacity: int,
    seed: int = 0,
    cost_model: Optional[CostModelConfig] = None,
) -> Tuple[Cluster, SystemConfig]:
    """A cluster plus a system config scaled to it."""
    cluster_config = ClusterConfig(
        num_nodes=num_nodes,
        num_racks=max(1, min(4, num_nodes // 4 or 1)),
        seed=seed,
    )
    system_config = SystemConfig(
        cluster=cluster_config,
        cost_model=cost_model or SCALED_COST,
        allocation=AllocationConfig(node_capacity=node_capacity),
        seed=seed,
    )
    return Cluster(cluster_config), system_config


def make_system(
    scheme: str,
    cluster: Cluster,
    config: SystemConfig,
    threshold: Optional[float] = None,
) -> DisseminationSystem:
    """Factory for the four schemes under comparison.

    ``threshold`` switches the built system from the paper's boolean
    any-term semantics to the VSM similarity-threshold extension.
    """
    scheme_lower = scheme.lower()
    if scheme_lower == "move":
        return MoveSystem(cluster, config, threshold=threshold)
    if scheme_lower == "il":
        return InvertedListSystem(cluster, config, threshold=threshold)
    if scheme_lower == "rs":
        return RendezvousSystem(cluster, config, threshold=threshold)
    if scheme_lower in ("central", "centralized"):
        return CentralizedSystem(cluster, config, threshold=threshold)
    raise ValueError(
        f"unknown scheme {scheme!r}; expected Move/IL/RS/Central"
    )


# ---------------------------------------------------------------------------
# The discrete-event throughput harness
# ---------------------------------------------------------------------------

class ClusterThroughputHarness:
    """Runs one system over one document stream on the event engine."""

    def __init__(
        self,
        system: DisseminationSystem,
        cluster: Cluster,
        cost_model: Optional[MatchCostModel] = None,
        injection_rate: float = 1_000.0,
        intra_rack_payload_discount: float = 0.25,
        disk_pressure_slope: float = 1.5,
        contention_coefficient: float = 3.0,
        refresh_interval: Optional[float] = None,
        movement_cost_factor: float = 0.3,
    ) -> None:
        """``contention_coefficient`` models disk-seek interference
        between concurrently pending match jobs: a job submitted behind
        ``w`` seconds of queued work runs ``(1 + c * sqrt(w))`` times
        slower (extra seeks between interleaved disk streams; the
        square root keeps the backlog feedback loop convergent).  This
        is what makes higher injection rates *reduce* measured
        throughput (Figure 8b) and punishes the IL scheme's hot-spot
        backlogs hardest, matching the paper's 14.11x (IL) vs 6.09x
        (RS) vs 3.62x (Move) degradation ordering.

        ``refresh_interval`` (simulated seconds) schedules MOVE's
        periodic statistics renewal and reallocation on the virtual
        clock — the paper's 10-minute refresh loop — for systems that
        expose ``reallocate``."""
        self.system = system
        self.cluster = cluster
        self.cost_model = cost_model or MatchCostModel(
            system.config.cost_model
        )
        self.arrivals = UniformArrivals(injection_rate)
        self.intra_rack_payload_discount = intra_rack_payload_discount
        self.disk_pressure_slope = disk_pressure_slope
        self.contention_coefficient = contention_coefficient
        self.refresh_interval = refresh_interval
        self.refreshes_performed = 0
        self.movement_cost_factor = movement_cost_factor

    # -- per-node disk pressure -----------------------------------------

    #: The disk-pressure knee sits above the allocation capacity ``C``:
    #: the paper allocates against C = 3e6 filters/node while the
    #: single-node experiments locate the working-set knee near 5e6
    #: (Figure 6) — the same 5/3 ratio is used here.
    MEMORY_KNEE_OVER_CAPACITY = 5.0 / 3.0

    def _pressure_factors(self) -> Dict[str, float]:
        """Service-time multiplier per node from stored-filter volume."""
        capacity = (
            self.system.config.allocation.node_capacity
            * self.MEMORY_KNEE_OVER_CAPACITY
        )
        stored = getattr(self.system, "storage_distribution", dict)()
        factors: Dict[str, float] = {}
        for node_id in self.cluster.node_ids():
            load = stored.get(node_id, 0.0)
            overflow = load / capacity - 1.0
            factors[node_id] = (
                1.0 + self.disk_pressure_slope * overflow
                if overflow > 0
                else 1.0
            )
        return factors

    def _hop_cost(self, source: str, destination: str) -> float:
        """Payload transfer cost of one hop (rack-aware y_d)."""
        y_d = self.cost_model.config.y_d
        if source == destination:
            return 0.0
        if self.cluster.topology.same_rack(source, destination):
            return y_d * self.intra_rack_payload_discount
        return y_d

    def _payload_cost(self, path: Sequence[str]) -> float:
        """Document transfer cost along a hop path."""
        if len(path) < 2:
            return 0.0
        return sum(
            self._hop_cost(source, destination)
            for source, destination in zip(path, path[1:])
        )

    def _receive_cost(self, path: Sequence[str]) -> float:
        """The executing node's work to ingest the payload (final hop).

        Receiving a document occupies the node (NIC + buffer write), so
        this cost lands in the service time — which is how cheap
        intra-rack placement translates into higher throughput
        (Figure 9c's rack-aware advantage)."""
        if len(path) < 2:
            return 0.0
        return self._hop_cost(path[-2], path[-1])

    # -- the run ---------------------------------------------------------------

    def _charge_allocation_movement(self) -> None:
        """Occupy receiving nodes with the filter-copy transfer work.

        Allocation moves filter subsets across the cluster; the paper
        flags this as the ring placement's cost.  Each moved filter
        costs one ``y_d`` of receive work (intra-rack discounted), so
        placements that keep copies in-rack start the measurement
        window with less backlog.
        """
        mover = getattr(self.system, "allocation_movement", None)
        if mover is None or self.movement_cost_factor <= 0:
            return
        # A filter copy is far smaller than a document payload; the
        # factor amortizes the periodic reallocation over the
        # measurement window (see EXPERIMENTS.md / INTERPRETATION.md).
        y_f = self.cost_model.config.y_d * self.movement_cost_factor
        for home_id, node_id, count in mover():
            node = self.cluster.node(node_id)
            if not node.alive:
                continue
            if self.cluster.topology.same_rack(home_id, node_id):
                cost = count * y_f * self.intra_rack_payload_discount
            else:
                cost = count * y_f
            node.submit_work(cost)

    def _schedule_refreshes(self, horizon: float) -> None:
        """Arm periodic statistic renewal on the virtual clock."""
        if self.refresh_interval is None:
            return
        reallocate = getattr(self.system, "reallocate", None)
        if reallocate is None:
            return
        sim = self.cluster.sim

        def refresh() -> None:
            reallocate()
            self.refreshes_performed += 1
            # Keep refreshing only while documents are still arriving,
            # so the event queue drains once the stream ends.
            if sim.now + self.refresh_interval <= horizon:
                sim.schedule(self.refresh_interval, refresh)

        if self.refresh_interval <= horizon:
            sim.schedule(self.refresh_interval, refresh)

    def run(
        self,
        documents: Iterable[Document],
        expected_documents: Optional[int] = None,
    ) -> ThroughputResult:
        """Drive one document stream to completion.

        ``documents`` is normally a materialized sequence (scheduled
        up front, exactly as before).  A generator may be passed
        instead together with ``expected_documents``: arrivals are
        then chained — injecting document *k* schedules arrival
        *k+1* — so at most one undelivered document is resident at a
        time and a million-document corpus never materializes.
        """
        try:
            total: int = len(documents)  # type: ignore[arg-type]
            streaming = False
        except TypeError:
            if expected_documents is None:
                raise ValueError(
                    "streaming document iterables require "
                    "expected_documents"
                )
            total = expected_documents
            streaming = True
        sim = self.cluster.sim
        pressure = self._pressure_factors()
        self._charge_allocation_movement()
        if total:
            horizon = total / self.arrivals.rate
            self._schedule_refreshes(horizon)
        meter_completed = 0
        last_completion = [0.0]
        total_fanout = 0
        total_matches = 0
        total_unreachable = 0

        outstanding: Dict[str, int] = {}

        def finish_task(doc_id: str) -> None:
            nonlocal meter_completed
            outstanding[doc_id] -= 1
            if outstanding[doc_id] == 0:
                meter_completed += 1
                last_completion[0] = max(last_completion[0], sim.now)

        def inject(document: Document) -> None:
            nonlocal total_fanout, total_matches, total_unreachable
            plan = self.system.publish(document)
            total_fanout += plan.fanout
            total_matches += len(plan.delivered_ids)
            total_unreachable += len(plan.unreachable_filter_ids)
            if not plan.tasks:
                nonlocal meter_completed
                meter_completed += 1
                last_completion[0] = max(last_completion[0], sim.now)
                return
            outstanding[document.doc_id] = len(plan.tasks)
            for task in plan.tasks:
                delay = self._payload_cost(task.path)
                for source, destination in zip(task.path, task.path[1:]):
                    delay += self.cluster.network.latency(
                        source, destination
                    )
                node = self.cluster.node(task.node_id)
                base_service = self._receive_cost(task.path) + (
                    pressure[task.node_id]
                    * self.cost_model.match_time(
                        task.posting_lists, task.posting_entries
                    )
                )
                doc_id = document.doc_id

                def deliver(
                    node=node, base=base_service, doc_id=doc_id
                ) -> None:
                    # Disk-seek interference: pending backlog inflates
                    # the job's effective service time (sublinear in
                    # queued work so the feedback converges).
                    contention = 1.0 + self.contention_coefficient * (
                        node.server.queued_work ** 0.5
                    )
                    node.submit_work(
                        base * contention, lambda: finish_task(doc_id)
                    )

                sim.schedule(delay, deliver)

        injected = 0

        def count_inject(document: Document) -> None:
            nonlocal injected
            injected += 1
            inject(document)

        if streaming:
            pairs = zip(self.arrivals.times(total), documents)

            def schedule_next() -> None:
                # Chained arrivals: pull one (time, document) pair and
                # arm the next pull for when it fires.  Arrival times
                # are non-decreasing, so scheduling from inside the
                # previous arrival's event never goes backwards.
                for arrival_time, document in pairs:

                    def fire(document=document) -> None:
                        count_inject(document)
                        schedule_next()

                    sim.schedule_at(arrival_time, fire)
                    return

            schedule_next()
        else:
            for arrival_time, document in zip(
                self.arrivals.times(total), documents
            ):
                sim.schedule_at(
                    arrival_time, lambda d=document: count_inject(d)
                )
        sim.run()

        elapsed = max(last_completion[0], sim.now) or 1.0
        completed = meter_completed
        bottleneck_busy = max(
            (
                node.server.stats.busy_time
                for node in self.cluster.nodes.values()
            ),
            default=0.0,
        )
        throughput = (
            completed / bottleneck_busy if bottleneck_busy > 0 else 0.0
        )
        return ThroughputResult(
            system=self.system.name,
            documents=injected,
            completed=completed,
            elapsed=elapsed,
            bottleneck_busy=bottleneck_busy,
            throughput=throughput,
            mean_fanout=(
                total_fanout / injected if injected else 0.0
            ),
            total_matches=total_matches,
            unreachable=total_unreachable,
        )


def run_scheme_once(
    scheme: str,
    bundle: Union[WorkloadBundle, StreamingWorkload],
    num_nodes: Optional[int] = None,
    node_capacity: Optional[int] = None,
    fail_fraction: float = 0.0,
    fail_whole_racks: bool = False,
    placement: Optional[str] = None,
    allocation_rule: Optional[str] = None,
    injection_rate: Optional[float] = None,
    seed: int = 0,
    tracer=None,
    register_chunk_size: int = 10_000,
) -> ThroughputResult:
    """End-to-end: build cluster + system, register, allocate, run.

    The one-stop entry the figure modules and benches call.

    ``bundle`` may be a materialized :class:`WorkloadBundle` or a
    :class:`StreamingWorkload` (from :meth:`ScaledWorkload.stream`):
    the streaming form registers filters in ``register_chunk_size``
    batches and chains document arrivals, so the run's resident set is
    the system under test, not the workload.

    ``tracer`` (a :class:`repro.obs.Tracer`) attaches pipeline tracing
    to the built system: every publish in the run emits per-stage and
    per-node spans into it (the CLI's ``--trace`` flag builds one and
    writes its spans to JSON lines afterwards).
    """
    workload = bundle.workload
    cluster, config = build_cluster(
        num_nodes or workload.num_nodes,
        node_capacity or workload.node_capacity,
        seed=seed,
    )
    if placement is not None or allocation_rule is not None:
        # dataclasses.replace keeps every other knob (bloom_fp_rate,
        # seed, ...) at its built value.
        config = replace(
            config,
            allocation=AllocationConfig(
                node_capacity=config.allocation.node_capacity,
                rule=allocation_rule or config.allocation.rule,
                placement=placement or config.allocation.placement,
            ),
        )
    system = make_system(scheme, cluster, config)
    if tracer is not None:
        system.tracer = tracer
    streaming = isinstance(bundle, StreamingWorkload)
    if streaming:
        system.subscribe(
            bundle.iter_filters(), chunk_size=register_chunk_size
        )
    else:
        system.subscribe(bundle.filters)
    if isinstance(system, MoveSystem):
        system.seed_frequencies(bundle.offline_corpus())
    system.finalize_registration()
    if fail_fraction > 0.0:
        _inject_failures(cluster, fail_fraction, fail_whole_racks, seed)
    harness = ClusterThroughputHarness(
        system,
        cluster,
        injection_rate=injection_rate or workload.injection_rate,
    )
    if streaming:
        return harness.run(
            bundle.iter_documents(),
            expected_documents=workload.num_documents,
        )
    return harness.run(bundle.documents)


def _inject_failures(
    cluster: Cluster,
    fraction: float,
    whole_racks: bool,
    seed: int,
) -> None:
    """Fail a fraction of nodes — random nodes or rack-correlated.

    Rack-correlated failures (whole racks going dark) are the scenario
    that separates the placement policies in Figure 9(d).
    """
    rng = random.Random(seed + 0x99)
    if not whole_racks:
        cluster.fail_fraction(fraction, rng)
        return
    target = int(round(fraction * len(cluster)))
    racks = cluster.topology.racks()
    rng.shuffle(racks)
    failed = 0
    for rack in racks:
        members = cluster.topology.nodes_in_rack(rack)
        if failed + len(members) <= target:
            failed += len(cluster.fail_rack(rack))
        else:
            # Partial last rack: fail just enough nodes to hit target.
            for node_id in members[: target - failed]:
                cluster.fail_node(node_id)
                failed += 1
        if failed >= target:
            break
