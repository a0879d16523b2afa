"""Array backing for token histograms: the vectorized compute layer.

The FreqyWM hot paths (boundary computation, eligibility pre-filtering,
similarity, pair verification) all reduce to arithmetic over the
descending-frequency count vector. :class:`HistogramArrays` is the shared
array view those stages operate on: a token↔index vocabulary plus NumPy
count and boundary arrays, built once per histogram and reused by every
stage.

The mapping-style API of :class:`repro.core.histogram.TokenHistogram`
remains the public data structure; it exposes its backing
:class:`HistogramArrays` through ``TokenHistogram.arrays()``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Sentinel stored in integer boundary arrays for "no upper boundary"
#: (the top-ranked token may grow without limit). Kept as a huge but
#: finite int64 so boundary arrays stay integer-typed; the dataclass API
#: (:class:`repro.core.histogram.TokenBoundaries`) still reports the
#: mathematical ``inf``.
UNBOUNDED = np.iinfo(np.int64).max


def sort_histogram(
    tokens: Sequence[str], counts: np.ndarray
) -> Tuple[List[str], np.ndarray]:
    """Sort ``(tokens, counts)`` by descending count, lexicographic tie-break.

    Matches the ordering contract of ``TokenHistogram``: ``sorted(tokens,
    key=lambda t: (-count[t], t))``. NumPy's ``<U`` string comparison is
    code-point order, identical to Python ``str`` comparison, so
    ``np.lexsort`` reproduces the dict implementation's ordering exactly.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if len(tokens) != counts.size:
        raise ValueError("tokens and counts must have the same length")
    if counts.size <= 1:
        return list(tokens), counts.copy()
    if any("\x00" in token for token in tokens):
        # NumPy ``<U`` arrays strip trailing NULs, which would corrupt the
        # lexicographic tie-break for such tokens; sort in Python instead.
        order = sorted(range(len(tokens)), key=lambda i: (-counts[i], tokens[i]))
        order = np.asarray(order, dtype=np.intp)
    else:
        token_array = np.asarray(tokens, dtype=np.str_)
        order = np.lexsort((token_array, -counts))
    return [tokens[i] for i in order], counts[order]


def boundary_slack(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Upper/lower modification boundaries of a descending count vector.

    ``upper[i]`` is the increase token ``i`` tolerates before passing its
    left neighbour (:data:`UNBOUNDED` for the head token); ``lower[i]`` the
    decrease before being passed by its right neighbour (the count itself
    for the tail token). Both are fresh ``int64`` arrays.
    """
    size = int(counts.shape[0])
    upper = np.empty(size, dtype=np.int64)
    lower = np.empty(size, dtype=np.int64)
    if size:
        gaps = counts[:-1] - counts[1:]
        upper[0] = UNBOUNDED
        upper[1:] = gaps
        lower[-1] = counts[-1]
        lower[:-1] = gaps
    return upper, lower


class HistogramArrays:
    """Immutable array view of one histogram, shared across pipeline stages.

    Attributes
    ----------
    tokens:
        Token strings in descending-frequency order.
    counts:
        ``int64`` appearance counts aligned with ``tokens`` (read-only).
    index:
        Token -> position lookup (the rank of each token).
    """

    __slots__ = ("tokens", "counts", "index", "_upper", "_lower", "_total")

    def __init__(
        self,
        tokens: Sequence[str],
        counts: np.ndarray,
        index: Optional[Dict[str, int]] = None,
    ) -> None:
        self.tokens: Tuple[str, ...] = tuple(tokens)
        array = np.ascontiguousarray(counts, dtype=np.int64)
        if array is counts and array.flags.writeable:
            # Never freeze a buffer the caller still owns.
            array = array.copy()
        array.flags.writeable = False
        self.counts: np.ndarray = array
        self.index: Dict[str, int] = (
            index
            if index is not None
            else {token: position for position, token in enumerate(self.tokens)}
        )
        self._upper: Optional[np.ndarray] = None
        self._lower: Optional[np.ndarray] = None
        self._total: Optional[int] = None

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def total(self) -> int:
        """Total number of occurrences (the dataset size)."""
        if self._total is None:
            self._total = int(self.counts.sum())
        return self._total

    # ------------------------------------------------------------------ #
    # Boundaries (vectorized form of TokenHistogram.boundaries)
    # ------------------------------------------------------------------ #

    def boundary_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(upper, lower)`` ranking-preservation slack per rank position.

        ``upper[i]`` is how many appearances token ``i`` may gain without
        overtaking its higher-ranked neighbour (:data:`UNBOUNDED` for the
        top-ranked token); ``lower[i]`` how many it may lose without
        falling behind its lower-ranked neighbour (its own count for the
        last token). Both arrays are ``int64``, read-only and cached.
        """
        if self._upper is None:
            upper, lower = boundary_slack(self.counts)
            upper.flags.writeable = False
            lower.flags.writeable = False
            self._upper, self._lower = upper, lower
        return self._upper, self._lower

    def slack(self) -> np.ndarray:
        """``min(upper, lower)`` per token — the binding boundary.

        A token can take part in an eligible pair with modulus ``s`` only
        when its slack is at least ``ceil(s / 2)``; tokens with zero slack
        (equal-frequency neighbours) can never be watermarked, which is
        what the eligibility pre-filter exploits.
        """
        upper, lower = self.boundary_arrays()
        return np.minimum(upper, lower)

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #

    def positions(self, tokens: Iterable[str]) -> np.ndarray:
        """Rank positions of ``tokens``.

        One C-level pass of ``index.get`` over the tokens, which are
        materialised first when given as an iterator.

        Parameters
        ----------
        tokens : Iterable[str]
            Canonical token strings to look up.

        Returns
        -------
        numpy.ndarray
            ``int64`` positions aligned with the input order; ``-1``
            marks tokens not present in the histogram.
        """
        if not isinstance(tokens, (list, tuple)):
            tokens = list(tokens)
        return np.fromiter(
            map(self.index.get, tokens, repeat(-1)), np.int64, count=len(tokens)
        )

    def frequencies(self, tokens: Iterable[str]) -> np.ndarray:
        """Appearance counts for ``tokens``.

        Parameters
        ----------
        tokens : Iterable[str]
            Canonical token strings to look up.

        Returns
        -------
        numpy.ndarray
            ``int64`` counts aligned with the input order; ``0`` marks
            tokens not present in the histogram (which is how the
            detector encodes a missing pair member).
        """
        positions = self.positions(tokens)
        present = positions >= 0
        values = np.zeros(positions.size, dtype=np.int64)
        values[present] = self.counts[positions[present]]
        return values


def counts_from_mapping(counts: Mapping[str, int]) -> Tuple[List[str], np.ndarray]:
    """Split a token->count mapping into parallel token/count sequences."""
    tokens = list(counts.keys())
    values = np.fromiter(counts.values(), dtype=np.int64, count=len(tokens))
    return tokens, values


__all__ = [
    "UNBOUNDED",
    "HistogramArrays",
    "boundary_slack",
    "sort_histogram",
    "counts_from_mapping",
]
