"""Similarity and distance metrics between token frequency histograms.

The paper's *similarity constraint* requires the watermarked histogram to
stay within a budget ``b`` of the original: ``sim(D_o, D_w) >= (100 - b)%``.
Cosine similarity is what the paper's experiments use, but Section III
notes that "any similarity metric can be deployed without any loss of
security"; this module therefore offers four named metrics that the
generator, the baselines and the distortion analysis all share.

All metrics operate on *aligned* frequency vectors: callers pass two
mappings from token to count and the metric aligns them over the union of
keys (missing tokens count as zero), so histograms with different supports
compare correctly.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Mapping, Tuple

import numpy as np

from repro.exceptions import HistogramError

FrequencyMap = Mapping[str, int]
MetricFunction = Callable[[np.ndarray, np.ndarray], float]


def align_frequencies(
    original: FrequencyMap, other: FrequencyMap
) -> Tuple[np.ndarray, np.ndarray]:
    """Align two token->count mappings over the union of their tokens.

    Returns two equally sized float vectors in a deterministic (sorted)
    token order, with zeros for tokens absent from one of the histograms.
    """
    tokens = sorted(set(original) | set(other))
    left = np.array([original.get(token, 0) for token in tokens], dtype=float)
    right = np.array([other.get(token, 0) for token in tokens], dtype=float)
    return left, right


def cosine_similarity(left: np.ndarray, right: np.ndarray) -> float:
    """Cosine similarity in ``[0, 1]`` between two count vectors.

    Two all-zero vectors are defined as identical (similarity 1.0); a zero
    vector against a non-zero vector has similarity 0.0.
    """
    left_norm = float(np.linalg.norm(left))
    right_norm = float(np.linalg.norm(right))
    if left_norm == 0.0 and right_norm == 0.0:
        return 1.0
    if left_norm == 0.0 or right_norm == 0.0:
        return 0.0
    value = float(np.dot(left, right) / (left_norm * right_norm))
    # Guard against floating point drift slightly above 1.
    return min(max(value, 0.0), 1.0)


def l1_similarity(left: np.ndarray, right: np.ndarray) -> float:
    """Similarity derived from the normalised L1 (total variation) distance."""
    total = float(np.sum(left) + np.sum(right))
    if total == 0.0:
        return 1.0
    distance = float(np.sum(np.abs(left - right))) / total
    return 1.0 - distance


def l2_similarity(left: np.ndarray, right: np.ndarray) -> float:
    """Similarity derived from the normalised Euclidean distance."""
    denominator = float(np.linalg.norm(left) + np.linalg.norm(right))
    if denominator == 0.0:
        return 1.0
    return 1.0 - float(np.linalg.norm(left - right)) / denominator


def jaccard_similarity(left: np.ndarray, right: np.ndarray) -> float:
    """Weighted Jaccard similarity ``sum(min) / sum(max)`` of the counts."""
    maxima = np.maximum(left, right)
    total_max = float(np.sum(maxima))
    if total_max == 0.0:
        return 1.0
    return float(np.sum(np.minimum(left, right)) / total_max)


_METRICS: Dict[str, MetricFunction] = {
    "cosine": cosine_similarity,
    "l1": l1_similarity,
    "l2": l2_similarity,
    "jaccard": jaccard_similarity,
}


def available_metrics() -> Tuple[str, ...]:
    """Names of the similarity metrics."""
    return tuple(sorted(_METRICS))


def get_metric(name: str) -> MetricFunction:
    """Look up a similarity metric by name (case-insensitive)."""
    try:
        return _METRICS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown similarity metric {name!r}; available: {available_metrics()}"
        ) from None


def histogram_similarity(
    original: FrequencyMap,
    other: FrequencyMap,
    *,
    metric: str = "cosine",
) -> float:
    """Similarity between two token->count mappings under ``metric``."""
    left, right = align_frequencies(original, other)
    return get_metric(metric)(left, right)


def similarity_percent(
    original: FrequencyMap,
    other: FrequencyMap,
    *,
    metric: str = "cosine",
) -> float:
    """Similarity expressed as a percentage in ``[0, 100]``."""
    return 100.0 * histogram_similarity(original, other, metric=metric)


def distortion_percent(
    original: FrequencyMap,
    other: FrequencyMap,
    *,
    metric: str = "cosine",
) -> float:
    """Distortion = ``100 - similarity_percent`` — the quantity bounded by ``b``."""
    return 100.0 - similarity_percent(original, other, metric=metric)


class SimilarityTracker:
    """Incrementally-updated similarity against a fixed original histogram.

    The budget knapsack evaluates the similarity constraint once per
    candidate pair. Recomputing the metric from scratch costs a full
    union-alignment over all ``n`` tokens — O(n·m) across ``m``
    candidates, the seed implementation's bottleneck. This tracker keeps
    the scalar aggregates every built-in metric is made of (dot product,
    squared norms, element sums, absolute/squared difference sums and
    min/max overlaps) as exact Python integers, so applying or previewing
    a pair adjustment is an O(1) delta update per touched token instead of
    a recompute:

    * ``dot  += o_t * d``            (cosine numerator)
    * ``|c|² += 2 c_t d + d²``       (cosine/l2 denominator)
    * ``Σ|c-o|``, ``Σ(c-o)²``, ``Σmin``, ``Σmax`` likewise from the
      before/after values of the touched token only.

    Because the aggregates are exact integers the evaluation order cannot
    introduce floating-point drift: the similarity reported after any
    sequence of updates equals the one a full recompute would give (up to
    one final float division).

    Parameters
    ----------
    original:
        The original histogram as a token->count mapping, or any object
        with an ``as_dict()`` method (e.g. ``TokenHistogram``).
    metric:
        Similarity metric name (one of :func:`available_metrics`).
    """

    __slots__ = (
        "metric",
        "_original",
        "_current",
        "_norm2_original",
        "_norm2_current",
        "_dot",
        "_sum_original",
        "_sum_current",
        "_abs_diff",
        "_sq_diff",
        "_min_sum",
        "_max_sum",
    )

    def __init__(self, original, *, metric: str = "cosine") -> None:
        if hasattr(original, "as_dict"):
            original = original.as_dict()
        self.metric = metric.lower()
        get_metric(self.metric)  # an unknown name raises KeyError here
        self._original: Dict[str, int] = {
            token: int(count) for token, count in original.items()
        }
        self._current: Dict[str, int] = dict(self._original)
        counts = self._original.values()
        self._norm2_original = sum(count * count for count in counts)
        self._norm2_current = self._norm2_original
        self._dot = self._norm2_original
        self._sum_original = sum(counts)
        self._sum_current = self._sum_original
        self._abs_diff = 0
        self._sq_diff = 0
        self._min_sum = self._sum_original
        self._max_sum = self._sum_original

    # ------------------------------------------------------------------ #
    # Read access
    # ------------------------------------------------------------------ #

    def current_count(self, token: str) -> int:
        """Current (adjusted) count of one token.

        Parameters
        ----------
        token : str
            Canonical token string.

        Returns
        -------
        int
            The count after every applied adjustment; ``0`` if the token
            never appeared.
        """
        return self._current.get(token, 0)

    def current_counts(self) -> Dict[str, int]:
        """Copy of the current token->count state (zero counts dropped)."""
        return {token: count for token, count in self._current.items() if count > 0}

    def similarity(self) -> float:
        """Similarity of the current state versus the original, in ``[0, 1]``."""
        return self._evaluate(
            self._norm2_current,
            self._dot,
            self._sum_current,
            self._abs_diff,
            self._sq_diff,
            self._min_sum,
            self._max_sum,
        )

    def similarity_percent(self) -> float:
        """Similarity of the current state as a percentage in ``[0, 100]``."""
        return 100.0 * self.similarity()

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def peek(self, deltas: Mapping[str, int]) -> float:
        """Similarity if ``deltas`` were applied, without applying them.

        Parameters
        ----------
        deltas : Mapping[str, int]
            Token -> signed count change of one candidate adjustment.

        Returns
        -------
        float
            The similarity the tracker would report after ``apply(deltas)``,
            in ``[0, 1]``. O(1) per touched token.

        Raises
        ------
        HistogramError
            If any delta would drive a token count negative.
        """
        return self._evaluate(*self._shifted(deltas))

    def peek_percent(self, deltas: Mapping[str, int]) -> float:
        """:meth:`peek` as a percentage in ``[0, 100]``."""
        return 100.0 * self.peek(deltas)

    def apply(self, deltas: Mapping[str, int]) -> float:
        """Apply ``deltas`` to the current state; return the new similarity.

        Atomic: a negative-count violation anywhere in ``deltas`` raises
        before any state is mutated.

        Parameters
        ----------
        deltas : Mapping[str, int]
            Token -> signed count change to commit.

        Returns
        -------
        float
            The similarity of the updated state, in ``[0, 1]``.

        Raises
        ------
        HistogramError
            If any delta would drive a token count negative (state is
            left untouched).
        """
        (
            self._norm2_current,
            self._dot,
            self._sum_current,
            self._abs_diff,
            self._sq_diff,
            self._min_sum,
            self._max_sum,
        ) = self._shifted(deltas)
        for token, delta in deltas.items():
            self._current[token] = self._current.get(token, 0) + delta
        return self.similarity()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    @staticmethod
    def _require_non_negative(token: str, value: int, delta: int) -> None:
        if value < 0:
            raise HistogramError(
                f"update would make frequency of {token!r} negative"
                f" ({value - delta} {delta:+d})"
            )

    def _shifted(self, deltas: Mapping[str, int]):
        """Aggregates after ``deltas``, computed without mutating state."""
        norm2 = self._norm2_current
        dot = self._dot
        total = self._sum_current
        abs_diff = self._abs_diff
        sq_diff = self._sq_diff
        min_sum = self._min_sum
        max_sum = self._max_sum
        for token, delta in deltas.items():
            if delta == 0:
                continue
            before = self._current.get(token, 0)
            after = before + delta
            self._require_non_negative(token, after, delta)
            original = self._original.get(token, 0)
            norm2 += delta * (before + after)
            dot += original * delta
            total += delta
            abs_diff += abs(after - original) - abs(before - original)
            sq_diff += (after - original) ** 2 - (before - original) ** 2
            min_sum += min(after, original) - min(before, original)
            max_sum += max(after, original) - max(before, original)
        return norm2, dot, total, abs_diff, sq_diff, min_sum, max_sum

    def _evaluate(
        self,
        norm2_current: int,
        dot: int,
        sum_current: int,
        abs_diff: int,
        sq_diff: int,
        min_sum: int,
        max_sum: int,
    ) -> float:
        """Evaluate the tracked metric from exact integer aggregates."""
        if abs_diff == 0:
            # Identical vectors: every metric is exactly 1 (this also
            # covers the degenerate all-zero versus all-zero case).
            return 1.0
        if self.metric == "cosine":
            if self._norm2_original == 0 or norm2_current == 0:
                return 0.0
            value = dot / math.sqrt(self._norm2_original * norm2_current)
            return min(max(value, 0.0), 1.0)
        if self.metric == "l1":
            total = self._sum_original + sum_current
            if total == 0:
                return 1.0
            return 1.0 - abs_diff / total
        if self.metric == "l2":
            denominator = math.sqrt(self._norm2_original) + math.sqrt(norm2_current)
            if denominator == 0.0:
                return 1.0
            return 1.0 - math.sqrt(sq_diff) / denominator
        # jaccard
        if max_sum == 0:
            return 1.0
        return min_sum / max_sum


def ranking(frequencies: FrequencyMap) -> Tuple[str, ...]:
    """Tokens ordered by descending frequency with deterministic tie-break."""
    return tuple(
        token
        for token, _count in sorted(
            frequencies.items(), key=lambda item: (-item[1], item[0])
        )
    )


def rank_changes(original: FrequencyMap, other: FrequencyMap) -> int:
    """Number of tokens whose rank position differs between two histograms.

    This is the metric behind the paper's claim that WM-OBT and WM-RVS
    change the ranking of 998 and 987 out of 1000 tokens while FreqyWM
    changes none. Tokens appearing in only one histogram count as changed.
    """
    original_rank = {token: index for index, token in enumerate(ranking(original))}
    other_rank = {token: index for index, token in enumerate(ranking(other))}
    tokens = set(original_rank) | set(other_rank)
    changed = 0
    for token in tokens:
        if original_rank.get(token) != other_rank.get(token):
            changed += 1
    return changed


def ranking_preserved(
    original: FrequencyMap,
    other: FrequencyMap,
    *,
    strict: bool = False,
) -> bool:
    """Whether the descending-frequency ranking is preserved.

    With ``strict=False`` (the default, matching the paper's constraint)
    the order of the original ranking must remain *non-increasing* in the
    new histogram — ties introduced by the watermark are allowed because
    they do not invert any pair of tokens. With ``strict=True`` the exact
    rank permutation must be identical.
    """
    if strict:
        return rank_changes(original, other) == 0
    order = ranking(original)
    counts = [other.get(token, 0) for token in order]
    return all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))


__all__ = [
    "FrequencyMap",
    "MetricFunction",
    "align_frequencies",
    "cosine_similarity",
    "l1_similarity",
    "l2_similarity",
    "jaccard_similarity",
    "available_metrics",
    "get_metric",
    "histogram_similarity",
    "SimilarityTracker",
    "similarity_percent",
    "distortion_percent",
    "ranking",
    "rank_changes",
    "ranking_preserved",
]
