"""Structural and dispatch tests for the CSR matching backend.

The bit-exactness of CSR *scores* is covered by the backend-
parametrized equivalence matrix (``test_kernel_equivalence.py``);
this module tests the machinery around the scores:

- backend resolution (``auto`` / explicit / unknown names) and
  the ``SystemConfig.matching_backend`` validation,
- the structural invariant of :class:`CsrPostingBlock`: after any
  random interleaving of ``add_filter`` / ``remove_filter`` /
  ``remove_term`` mutations, the incrementally maintained block is
  byte-equal to a from-scratch rebuild over the same index and kernel,
- accumulation-mode parity units (``bulk_match`` triple vs the python
  posting walk, including the lists/entries cost accounting),
- the ``backend=`` tag on traced ``execute`` spans.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.experiments.harness import (
    ScaledWorkload,
    build_cluster,
    make_system,
)
from repro.matching import (
    CsrPostingBlock,
    InvertedIndex,
    ScoreKernel,
    resolve_backend,
)
from repro.matching.vsm import VsmScorer
from repro.model import Document, Filter
from repro.obs import Tracer

# ---------------------------------------------------------------------------
# Backend resolution and config validation
# ---------------------------------------------------------------------------


def test_resolve_backend_python_is_always_available():
    assert resolve_backend("python") == "python"


def test_resolve_backend_auto_is_csr():
    assert resolve_backend("auto") == "csr"


def test_resolve_backend_rejects_unknown_names():
    with pytest.raises(ConfigurationError):
        resolve_backend("cuda")


def test_config_validates_matching_backend():
    assert SystemConfig(matching_backend="auto").matching_backend
    with pytest.raises(ConfigurationError):
        SystemConfig(matching_backend="fortran")


def test_kernel_reports_resolved_backend():
    kernel = ScoreKernel(VsmScorer(), threshold=0.5, backend="auto")
    assert kernel.backend == "csr"


# ---------------------------------------------------------------------------
# CsrPostingBlock structural invariant under random mutation
# ---------------------------------------------------------------------------


def _filter_pool(rng, vocabulary, count):
    pool = []
    for i in range(count):
        k = rng.randint(1, 4)
        terms = frozenset(rng.sample(vocabulary, k))
        pool.append(Filter(filter_id=f"f{i}", terms=terms))
    return pool


def _assert_block_matches_rebuild(kernel, index, block):
    """The incrementally maintained block equals a fresh hydration."""
    rebuilt = CsrPostingBlock(kernel, index)
    index.remove_listener(rebuilt)  # oracle only: do not double-apply
    assert block.snapshot() == rebuilt.snapshot()
    # And both mirror the index's own posting lists exactly.
    assert sorted(block.snapshot()) == sorted(index.terms())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_csr_block_survives_random_mutation_interleavings(seed):
    rng = random.Random(seed)
    vocabulary = [f"t{i}" for i in range(25)]
    pool = _filter_pool(rng, vocabulary, 120)
    kernel = ScoreKernel(VsmScorer(), threshold=0.5, backend="csr")
    index = InvertedIndex()
    block = kernel._csr.block_for(index)
    live = set()
    for step in range(400):
        op = rng.random()
        if op < 0.55 or not live:
            profile = rng.choice(pool)
            kernel.register_filter(profile)
            index.add_filter(profile)
            live.add(profile.filter_id)
        elif op < 0.85:
            filter_id = rng.choice(sorted(live))
            kernel.unregister_filter(filter_id)
            index.remove_filter(filter_id)
            live.discard(filter_id)
        else:
            terms = index.terms()
            if terms:
                dropped = index.remove_term(rng.choice(terms))
                live.difference_update(
                    p.filter_id
                    for p in dropped
                    if p.filter_id not in index
                )
        if step % 80 == 0:
            _assert_block_matches_rebuild(kernel, index, block)
    _assert_block_matches_rebuild(kernel, index, block)


def test_csr_block_reflects_filter_rebinding():
    """Re-registering a filter id with new terms re-slots its postings
    (same dense slot, new rows) once the index is re-populated."""
    kernel = ScoreKernel(VsmScorer(), threshold=0.5, backend="csr")
    index = InvertedIndex()
    block = kernel._csr.block_for(index)
    original = Filter(filter_id="f", terms=frozenset({"a", "b"}))
    kernel.register_filter(original)
    index.add_filter(original)
    assert set(block.snapshot()) == {"a", "b"}
    rebound = Filter(filter_id="f", terms=frozenset({"c"}))
    kernel.unregister_filter("f")
    index.remove_filter("f")
    kernel.register_filter(rebound)
    index.add_filter(rebound)
    assert set(block.snapshot()) == {"c"}
    _assert_block_matches_rebuild(kernel, index, block)


def test_csr_block_drops_empty_rows():
    """Rows vanish with their posting lists, so ``len(block)`` mirrors
    the index's distinct term count at all times."""
    kernel = ScoreKernel(VsmScorer(), threshold=0.5, backend="csr")
    index = InvertedIndex()
    block = kernel._csr.block_for(index)
    profile = Filter(filter_id="f", terms=frozenset({"x", "y"}))
    kernel.register_filter(profile)
    index.add_filter(profile)
    assert len(block) == index.distinct_terms == 2
    index.remove_filter("f")
    assert len(block) == index.distinct_terms == 0


# ---------------------------------------------------------------------------
# Accumulation-mode parity units
# ---------------------------------------------------------------------------


def _walk_reference(kernel, document, index):
    """The python posting walk ``bulk_match`` replaces (sift.py)."""
    scoring = kernel.begin(document)
    lists = 0
    entries = 0
    for term in document.terms:
        plist = index.posting_list(term)
        if plist is None:
            continue
        lists += 1
        entries += len(plist)
        filters, _ = index.filters_for_term(term)
        scoring.accumulate(term, filters)
    return scoring.matched(), lists, entries


def test_bulk_match_equals_python_walk():
    bundle = ScaledWorkload(
        num_filters=400, num_documents=30, seed=5
    ).build()
    scorer = VsmScorer()
    csr = ScoreKernel(scorer, threshold=0.12, backend="csr")
    ref = ScoreKernel(scorer, threshold=0.12, backend="python")
    index = InvertedIndex()
    for profile in bundle.filters:
        csr.register_filter(profile)
        ref.register_filter(profile)
        index.add_filter(profile)
    for document in bundle.documents:
        bulk = csr.bulk_match(document, index)
        assert bulk is not None
        matched, lists, entries = bulk
        ref_matched, ref_lists, ref_entries = _walk_reference(
            ref, document, index
        )
        assert [p.filter_id for p in matched] == [
            p.filter_id for p in ref_matched
        ]
        assert (lists, entries) == (ref_lists, ref_entries)


def test_bulk_match_is_none_on_python_backend():
    kernel = ScoreKernel(VsmScorer(), threshold=0.5, backend="python")
    index = InvertedIndex()
    document = Document.from_terms("d", ["a"])
    assert kernel.bulk_match(document, index) is None


def test_bulk_match_counts_costs_for_unscored_terms():
    """A posting row whose term carries no document weight still costs
    its list + entries — mirroring the python walk, which pays the
    retrieval before discovering the zero weight."""
    scorer = VsmScorer()
    kernel = ScoreKernel(scorer, threshold=0.9, backend="csr")
    index = InvertedIndex()
    profile = Filter(filter_id="f", terms=frozenset({"a", "b"}))
    kernel.register_filter(profile)
    index.add_filter(profile)
    document = Document.from_terms("d", ["a", "b", "zzz"])
    bulk = kernel.bulk_match(document, index)
    assert bulk is not None
    _, lists, entries = bulk
    assert (lists, entries) == (2, 2)


# ---------------------------------------------------------------------------
# Backend tag on traced execute spans
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["python", "csr"])
def test_execute_span_carries_backend_tag(backend):
    bundle = ScaledWorkload(
        num_filters=200, num_documents=6, seed=9
    ).build()
    workload = bundle.workload
    cluster, config = build_cluster(
        workload.num_nodes, workload.node_capacity, seed=3
    )
    config = replace(config, matching_backend=backend)
    system = make_system("central", cluster, config, threshold=0.15)
    tracer = Tracer()
    system.tracer = tracer
    system.register_batch(bundle.filters)
    system.finalize_registration()
    system.publish_batch(bundle.documents)
    execute_spans = [s for s in tracer.spans if s.name == "execute"]
    assert execute_spans
    for span in execute_spans:
        assert span.tags["backend"] == backend
