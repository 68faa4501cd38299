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
- :mod:`repro.matching.vsm` — tf–idf / cosine scoring for the
  similarity-threshold extension,
- :mod:`repro.matching.kernel` — the one score-accumulation kernel
  shared by all threshold-semantics consumers (cached document
  vectors, a vectorized pass over the index's own posting arrays of
  slab slots, remaining-mass pruning).
"""

from .bloom import BloomFilter
from .inverted_index import InvertedIndex
from .kernel import DocumentScores, ScoreKernel
from .postings import PostingList
from .sift import SiftMatcher
from .vsm import VsmScorer

__all__ = [
    "PostingList",
    "InvertedIndex",
    "BloomFilter",
    "SiftMatcher",
    "VsmScorer",
    "ScoreKernel",
    "DocumentScores",
]
