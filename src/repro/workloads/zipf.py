"""Zipf/Mandelbrot samplers for skewed term distributions.

Both the MSN query-term popularity (Figure 4) and the TREC document-
term frequency (Figure 5) are heavy-tailed; the paper's allocation
scheme exists precisely because of that skew.  Sampling uses the alias
method, so drawing is O(1) per sample even for large vocabularies.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import WorkloadError


def zipf_weights(size: int, exponent: float, shift: float = 0.0):
    """Zipf–Mandelbrot weights ``w_r = 1 / (r + shift)^exponent``.

    ``exponent`` controls the skew: higher → skewer (lower entropy).
    Weights are normalized to sum to 1 and returned as an
    ``np.ndarray``.
    """
    if size < 1:
        raise WorkloadError(f"size must be >= 1, got {size}")
    if exponent < 0:
        raise WorkloadError(f"exponent must be >= 0, got {exponent}")
    if shift < 0:
        raise WorkloadError(f"shift must be >= 0, got {shift}")
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks + shift, exponent)
    return weights / weights.sum()


def _entropy_bits(weights) -> float:
    """Entropy (bits) of a weight vector."""
    weights = np.asarray(weights)
    weights = weights[weights > 0]
    return float(-(weights * np.log2(weights)).sum())


class AliasTable:
    """Walker alias method: O(n) build, O(1) sampling."""

    def __init__(self, weights: Sequence[float]) -> None:
        probabilities = np.asarray(weights, dtype=np.float64)
        if probabilities.ndim != 1 or len(probabilities) == 0:
            raise WorkloadError("weights must be a non-empty 1-D vector")
        if np.any(probabilities < 0):
            raise WorkloadError("weights must be non-negative")
        total = probabilities.sum()
        if total <= 0:
            raise WorkloadError("weights must not all be zero")
        probabilities = probabilities / total
        n = len(probabilities)
        scaled = probabilities * n
        self._prob = np.zeros(n, dtype=np.float64)
        self._alias = np.zeros(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            self._prob[s] = scaled[s]
            self._alias[s] = l
            scaled[l] = scaled[l] + scaled[s] - 1.0
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        for index in large + small:
            self._prob[index] = 1.0
            self._alias[index] = index

    def sample(self, rng: random.Random) -> int:
        """Draw one index."""
        slot = rng.randrange(len(self._prob))
        if rng.random() < self._prob[slot]:
            return slot
        return int(self._alias[slot])


class ZipfSampler:
    """Samples ranks from a Zipf–Mandelbrot distribution.

    >>> sampler = ZipfSampler(size=100, exponent=1.0, rng=random.Random(1))
    >>> 0 <= sampler.sample() < 100
    True
    """

    def __init__(
        self,
        size: int,
        exponent: float,
        shift: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.size = size
        self.exponent = exponent
        self.shift = shift
        self.weights = zipf_weights(size, exponent, shift)
        self._alias = AliasTable(self.weights)
        self._rng = rng or random.Random(0)

    def sample(self) -> int:
        """One rank in ``[0, size)`` (0 = most likely)."""
        return self._alias.sample(self._rng)

    def sample_many(self, count: int) -> List[int]:
        return [self.sample() for _ in range(count)]

    def sample_distinct(self, count: int, max_attempts: int = 64) -> List[int]:
        """``count`` distinct ranks (rejection sampling with fallback).

        A document/filter is a *set* of terms; skewed sampling yields
        duplicates that must be rejected.  When rejection stalls (tiny
        vocabulary), fall back to the lightest unused ranks so the
        request always completes.
        """
        if count > self.size:
            raise WorkloadError(
                f"cannot draw {count} distinct ranks from {self.size}"
            )
        chosen: List[int] = []
        seen = set()
        attempts = 0
        while len(chosen) < count and attempts < max_attempts * count:
            rank = self.sample()
            attempts += 1
            if rank not in seen:
                seen.add(rank)
                chosen.append(rank)
        rank = 0
        while len(chosen) < count:
            if rank not in seen:
                seen.add(rank)
                chosen.append(rank)
            rank += 1
        return chosen

    def entropy_bits(self) -> float:
        """Entropy of the weight vector (comparable to Figure 5's)."""
        return _entropy_bits(self.weights)


def fit_exponent_for_entropy(
    size: int, target_entropy: float, tolerance: float = 0.01
) -> float:
    """Binary-search the Zipf exponent whose weight vector has the
    requested entropy (bits).

    Used to calibrate the synthetic corpora to the paper's published
    entropies (9.4473 for AP, 6.7593 for WT) at a scaled vocabulary.
    """
    max_entropy = math.log2(size)
    if not 0.0 < target_entropy <= max_entropy:
        raise WorkloadError(
            f"target entropy {target_entropy} outside (0, {max_entropy:.3f}] "
            f"for vocabulary size {size}"
        )
    lo, hi = 0.0, 8.0
    for _ in range(80):
        mid = (lo + hi) / 2
        weights = zipf_weights(size, mid)
        entropy = _entropy_bits(weights)
        if abs(entropy - target_entropy) <= tolerance:
            return mid
        if entropy > target_entropy:
            lo = mid  # not skewed enough → raise exponent
        else:
            hi = mid
    return (lo + hi) / 2
