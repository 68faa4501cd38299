"""MSN-like profile-filter trace generation.

The paper uses a 4,000,000-entry MSN query history as the filter trace
(Section VI-A), with these published statistics:

- average 2.843 terms per query,
- cumulative share of queries with at most 1 / 2 / 3 terms:
  31.33 % / 67.75 % / 85.31 %,
- 757,996 distinct query terms with heavily skewed popularity
  (top-1000 accumulated popularity 0.437).

:class:`FilterTraceGenerator` reproduces those statistics at a
configurable scale: query lengths are drawn from the published length
distribution and terms from a Zipf sampler over a
:class:`~repro.workloads.terms.SharedVocabulary` query ranking whose
exponent is calibrated so the top-1000 mass lands near 0.437 at paper
scale (the calibration helper searches the right exponent for scaled
vocabularies).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import WorkloadError
from ..model import Filter
from .terms import SharedVocabulary
from .zipf import ZipfSampler, zipf_weights


@dataclass(frozen=True)
class MsnTraceProfile:
    """Published statistics of the MSN filter trace."""

    total_queries: int = 4_000_000
    distinct_terms: int = 757_996
    mean_terms_per_query: float = 2.843
    #: P(|f| <= 1), P(|f| <= 2), P(|f| <= 3).
    cumulative_length_shares: Tuple[float, float, float] = (
        0.3133,
        0.6775,
        0.8531,
    )
    top_1000_popularity_mass: float = 0.437

    def length_distribution(self, max_length: int = 12) -> List[float]:
        """Per-length probabilities extending the published CDF.

        Lengths 1–3 follow the published cumulative shares; the
        remaining 14.69 % tail follows a geometric shape over
        4..max_length whose ratio is fitted so the overall mean matches
        ``mean_terms_per_query`` (the published tail is heavy: its
        conditional mean must be ~8.7 terms, so ratios above 1 —
        mass increasing towards the longest queries — are allowed).
        """
        c1, c2, c3 = self.cumulative_length_shares
        probabilities = [c1, c2 - c1, c3 - c2]
        tail_mass = 1.0 - c3
        best: Optional[List[float]] = None
        best_error = float("inf")
        ratios = np.linspace(0.05, 3.0, 296)
        for ratio in ratios:
            weights = [ratio**i for i in range(max_length - 3)]
            scale = tail_mass / sum(weights)
            tail = [w * scale for w in weights]
            candidate = probabilities + tail
            mean = sum(
                (i + 1) * p for i, p in enumerate(candidate)
            )
            error = abs(mean - self.mean_terms_per_query)
            if error < best_error:
                best_error = error
                best = candidate
        assert best is not None
        return best


#: The paper's trace statistics as a ready-made profile.
MSN_PROFILE = MsnTraceProfile()


#: Fraction of the vocabulary the paper's top-1000 terms represent
#: (1000 of 757,996 distinct MSN query terms).
PAPER_TOP_FRACTION = 1000.0 / 757_996.0

#: Share of all term *draws* those top terms account for.  The paper
#: reports accumulated popularity 0.437 while the popularities sum to
#: the mean query length 2.843, so the draw share is 0.437 / 2.843.
PAPER_TOP_MASS_FRACTION = 0.437 / 2.843


def calibrate_popularity_exponent(
    vocabulary_size: int,
    target_mass_fraction: float = PAPER_TOP_MASS_FRACTION,
    top_fraction: float = PAPER_TOP_FRACTION,
    tolerance: float = 0.005,
) -> float:
    """Zipf exponent reproducing the paper's popularity concentration.

    The paper's statistic — the top 1000 of 757,996 terms accumulate
    0.437 of the summed popularities — translates scale-free into "the
    top ``top_fraction`` of terms receive ``target_mass_fraction`` of
    all term draws"; binary search finds the exponent achieving it at
    the (scaled) vocabulary size.
    """
    if not 0.0 < target_mass_fraction < 1.0:
        raise WorkloadError(
            f"target mass must be in (0, 1), got {target_mass_fraction}"
        )
    if not 0.0 < top_fraction < 1.0:
        raise WorkloadError(
            f"top_fraction must be in (0, 1), got {top_fraction}"
        )
    top_k = max(1, int(round(top_fraction * vocabulary_size)))
    lo, hi = 0.0, 4.0
    for _ in range(60):
        mid = (lo + hi) / 2
        weights = zipf_weights(vocabulary_size, mid)
        top = weights[:top_k]
        mass = float(sum(top) if np is None else top.sum())
        if abs(mass - target_mass_fraction) <= tolerance:
            return mid
        if mass < target_mass_fraction:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class FilterTraceGenerator:
    """Generates :class:`~repro.model.Filter` streams MSN-style.

    ``scale`` shrinks the trace (query count and vocabulary) while
    preserving the length distribution and the *shape* of the
    popularity skew.
    """

    def __init__(
        self,
        vocabulary: SharedVocabulary,
        profile: MsnTraceProfile = MSN_PROFILE,
        seed: int = 0,
        popularity_exponent: Optional[float] = None,
        max_query_length: int = 12,
    ) -> None:
        self.vocabulary = vocabulary
        self.profile = profile
        self._rng = random.Random(seed)
        exponent = (
            popularity_exponent
            if popularity_exponent is not None
            else calibrate_popularity_exponent(vocabulary.size)
        )
        self.popularity_exponent = exponent
        self._term_sampler = ZipfSampler(
            vocabulary.size, exponent, rng=self._rng
        )
        self._length_probabilities = profile.length_distribution(
            max_query_length
        )
        self._length_cdf = np.cumsum(self._length_probabilities)

    def _sample_length(self) -> int:
        u = self._rng.random()
        for index, threshold in enumerate(self._length_cdf):
            if u <= threshold:
                return index + 1
        return len(self._length_cdf)

    def generate_filter(self, filter_id: str) -> Filter:
        """One filter with MSN-like length and term popularity."""
        length = min(self._sample_length(), self.vocabulary.size)
        ranks = self._term_sampler.sample_distinct(length)
        terms = [self.vocabulary.query_term(rank) for rank in ranks]
        return Filter.from_terms(filter_id, terms)

    def generate(self, count: int, prefix: str = "f") -> List[Filter]:
        """``count`` filters with ids ``{prefix}0..{prefix}{count-1}``."""
        if count < 0:
            raise WorkloadError(f"count must be >= 0, got {count}")
        return [
            self.generate_filter(f"{prefix}{index}")
            for index in range(count)
        ]

    def iter_generate(
        self, count: int, prefix: str = "f"
    ) -> Iterator[Filter]:
        for index in range(count):
            yield self.generate_filter(f"{prefix}{index}")
