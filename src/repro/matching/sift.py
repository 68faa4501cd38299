"""SIFT centralized matcher (Yan & Garcia-Molina, 1999).

The rendezvous baseline matches a document against *locally registered*
filters with the classic SIFT algorithm: with the help of the local
inverted index, retrieve the posting lists of all ``|d|`` document
terms and collect the filters they reference (Section VI-A).  Under the
boolean any-term semantics every referenced filter matches; under the
threshold extension SIFT accumulates per-filter scores from the lists
and applies the threshold at the end — both modes are provided.

Threshold matching runs through the score-accumulation kernel
(:meth:`repro.matching.kernel.ScoreKernel.match_slots`), which reads
the index's posting arrays of slab slots directly; matched slots are
rehydrated into ``Filter`` objects only here, at the matcher's public
boundary.  Accumulation is exact because a ``SiftMatcher``'s index
holds each filter under **all** of its terms (the SIFT index
contract), so walking every document term's posting list touches
every shared term of every candidate.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..model import Document, Filter
from .inverted_index import InvertedIndex, RetrievalCost
from .kernel import ScoreKernel
from .vsm import VsmScorer


class SiftMatcher:
    """Centralized full-retrieval matcher over one local index."""

    def __init__(
        self,
        index: InvertedIndex,
        scorer: Optional[VsmScorer] = None,
        threshold: Optional[float] = None,
    ) -> None:
        if (scorer is None) != (threshold is None):
            raise ValueError(
                "scorer and threshold must be supplied together"
            )
        self.index = index
        self.scorer = scorer
        self.threshold = threshold
        self.kernel: Optional[ScoreKernel] = (
            ScoreKernel(scorer, threshold) if scorer is not None else None
        )

    def match(
        self, document: Document
    ) -> Tuple[List[Filter], RetrievalCost]:
        """All locally registered filters matching ``document``.

        Retrieves the posting list of *every* document term — this is
        what makes flooding expensive for large articles and is exactly
        the work the cost model charges the rendezvous baseline.
        """
        if self.kernel is None:
            return self.index.match_document_all_terms(document)
        slots, lists, entries = self.kernel.match_slots(
            document, self.index
        )
        get = self.index.slab.get
        return [get(slot) for slot in slots], RetrievalCost(lists, entries)
