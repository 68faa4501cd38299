"""Matching engines: inverted lists, Bloom filters, SIFT, VSM.

The paper's matching machinery in one place:

- :mod:`repro.matching.postings` — posting lists (the unit of disk IO
  in the cost model),
- :mod:`repro.matching.inverted_index` — a local inverted index over
  registered filters: term-id-keyed postings of slots in a columnar
  :class:`~repro.model.slab.FilterSlabStore`,
- :mod:`repro.matching.bloom` — the Bloom filter used to prune
  document forwarding (Section V),
- :mod:`repro.matching.sift` — the SIFT centralized matcher used by the
  rendezvous baseline (retrieves all ``|d|`` posting lists),
- :mod:`repro.matching.home_node` — the home-node matcher of the
  baseline/MOVE (retrieves only the home term's posting list),
- :mod:`repro.matching.vsm` — tf–idf / cosine scoring for the
  similarity-threshold extension,
- :mod:`repro.matching.kernel` — the score-accumulation kernel shared
  by all threshold-semantics consumers (cached document vectors,
  dense-slot accumulators, remaining-mass pruning),
- :mod:`repro.matching.csr_kernel` — the vectorized CSR bulk-matching
  backend behind the same kernel interface (incremental sparse
  term×filter blocks, whole-block segment-sum scoring; selected via
  ``SystemConfig.matching_backend``).
"""

from .bloom import BloomFilter
from .csr_kernel import CsrAccelerator, CsrPostingBlock, resolve_backend
from .home_node import HomeNodeMatcher
from .inverted_index import InvertedIndex
from .kernel import DocumentScores, ScoreKernel, ScoringPass
from .postings import PostingList
from .query import (
    QueryEngine,
    QueryError,
    QuerySubscription,
    compile_subscription,
    parse_query,
)
from .sift import SiftMatcher
from .vsm import VsmScorer

__all__ = [
    "PostingList",
    "InvertedIndex",
    "BloomFilter",
    "SiftMatcher",
    "HomeNodeMatcher",
    "VsmScorer",
    "ScoreKernel",
    "ScoringPass",
    "DocumentScores",
    "CsrAccelerator",
    "CsrPostingBlock",
    "resolve_backend",
    "QueryEngine",
    "QueryError",
    "QuerySubscription",
    "parse_query",
    "compile_subscription",
]
