"""Workload shapes, seeded input generation and the match oracle.

Every input the benchmark sends is generated here before anything is
timed: the filter population, the churn pool, the documents (drawn
from ``--seed``) and, for every document, the sorted list of filter
ids it must match.  The server receives only these generated inputs;
its own ``--seed`` (the system's RNG) stays fixed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments.harness import ScaledWorkload
from repro.model import Document, Filter, Subscription
from repro.model.match import brute_force_match
from repro.workloads import CorpusGenerator

from client import encode_body

#: Prefix of the churn population's ids; never part of the base set.
CHURN_PREFIX = "churn-"


@dataclass(frozen=True)
class Spec:
    """One workload: state size, document shape and offered load."""

    name: str
    filters: int
    doc_terms: float
    #: Per-node filter capacity handed to ``repro serve --capacity``.
    capacity: int
    #: Open-loop offered rate (docs/s), well below saturation.
    open_rate: float
    #: Distinct documents for the closed loop (cycled when exhausted).
    closed_pool: int


#: Why each workload exists is in BENCHMARK.json and README.md.
SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="ingest-small",
            filters=5_000,
            doc_terms=8.0,
            capacity=2_000,
            open_rate=1_000.0,
            closed_pool=8_000,
        ),
        Spec(
            name="match-heavy",
            filters=20_000,
            doc_terms=64.8,
            capacity=7_500,
            open_rate=150.0,
            closed_pool=1_500,
        ),
    )
}

#: Seed of every workload's filter population (see ``build_inputs``).
POPULATION_SEED = 7
#: Filters generated past the population, renamed into the churn
#: range: connection B's subscribe/unregister churn draws from these.
CHURN_POOL = 1_000

#: Documents of the bootstrap corpus ingested during set-up so the
#: forced reallocation has term frequencies to plan from.
LEARNING_DOCS = 100


@dataclass
class Inputs:
    """Everything one run sends, plus what each document must match."""

    profiles: List[Filter]
    learning: List[bytes]
    #: Open-loop documents first, then the closed-loop pool.
    bodies: List[bytes]
    expected: List[Tuple[str, ...]]
    open_count: int
    churn_items: List[Filter]


class Oracle:
    """Any-term matching for flat filters, the parsed query for
    predicate subscriptions — computed through term → filter postings
    so it is fast enough to precompute every document's answer."""

    def __init__(self, profiles: Sequence[Filter]) -> None:
        self.flat: Dict[str, List[str]] = {}
        self.predicates: Dict[str, List[Subscription]] = {}
        for profile in profiles:
            node = getattr(profile, "predicate", None)
            target = self.flat if node is None else self.predicates
            for term in profile.terms:
                entry = profile.filter_id if node is None else profile
                target.setdefault(term, []).append(entry)

    def match(self, document: Document) -> Tuple[str, ...]:
        matched = set()
        candidates = {}
        for term in document.terms:
            matched.update(self.flat.get(term, ()))
            for sub in self.predicates.get(term, ()):
                candidates[sub.filter_id] = sub
        for filter_id, sub in candidates.items():
            if sub.predicate.matches(document.terms):
                matched.add(filter_id)
        return tuple(sorted(matched))


def brute_force_ids(
    document: Document, profiles: Sequence[Filter]
) -> Tuple[str, ...]:
    """The reference the fast oracle is checked against."""
    flat = [p for p in profiles if getattr(p, "predicate", None) is None]
    ids = {p.filter_id for p in brute_force_match(document, flat)}
    ids.update(
        p.filter_id
        for p in profiles
        if getattr(p, "predicate", None) is not None
        and p.predicate.matches(document.terms)
    )
    return tuple(sorted(ids))


def _renamed(profile: Filter, filter_id: str) -> Filter:
    return dataclasses.replace(profile, filter_id=filter_id)


def build_inputs(spec: Spec, seed: int, open_seconds: float) -> Inputs:
    """The run's inputs: the fixed population, documents from ``seed``.

    The filter population (and the churn pool behind it) is drawn with
    :data:`POPULATION_SEED` whatever the run's seed: which vocabulary
    terms end up popular in both filters and documents decides how
    many filters a document matches, and across population seeds that
    moved match-heavy's mean by ±20 %.  The documents are drawn from
    ``seed`` over the same vocabulary.
    """
    open_count = int(round(spec.open_rate * open_seconds))
    workload = ScaledWorkload(
        num_filters=spec.filters + CHURN_POOL,
        num_documents=0,
        num_nodes=8,
        node_capacity=spec.capacity,
        mean_doc_terms=spec.doc_terms,
        seed=POPULATION_SEED,
    )
    bundle = workload.build()
    # The filter stream is prefix-stable, so the first ``filters``
    # profiles are the population and the rest the churn pool.
    profiles = bundle.filters[:spec.filters]
    churn_items = [
        _renamed(p, f"{CHURN_PREFIX}{i:06d}")
        for i, p in enumerate(bundle.filters[spec.filters:])
    ]
    documents = CorpusGenerator(
        bundle.vocabulary,
        workload.corpus_profile,
        seed=seed,
        mean_terms_override=spec.doc_terms,
    ).generate(open_count + spec.closed_pool)
    oracle = Oracle(profiles)
    expected = [oracle.match(d) for d in documents]
    # Keep the fast oracle honest against the one-filter-at-a-time
    # reference on a few documents of every run.
    for document, answer in list(zip(documents, expected))[:4]:
        if brute_force_ids(document, profiles) != answer:
            raise AssertionError(
                f"oracle disagrees with brute_force_match on "
                f"{document.doc_id}"
            )
    return Inputs(
        profiles=profiles,
        learning=[
            encode_body(d)
            for d in bundle.offline_corpus(LEARNING_DOCS)
        ],
        bodies=[encode_body(d) for d in documents],
        expected=expected,
        open_count=open_count,
        churn_items=churn_items,
    )

