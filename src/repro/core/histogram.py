"""Token frequency histograms and ranking boundaries.

The first step of both watermark generation and detection is
``Preprocess(D)``: build the histogram of token appearance frequencies,
sorted in descending order. Generation additionally computes, for every
token, an *upper boundary* ``u_i`` (how much its frequency may grow) and a
*lower boundary* ``l_i`` (how much it may shrink) such that any change
within the boundaries cannot invert the ranking of two tokens:

* the most frequent token has ``u_0 = inf`` (it can only grow further away
  from the second token),
* the least frequent token has ``l_last = f_last`` (it can lose all of its
  appearances),
* otherwise ``u_i = f_{i-1} - f_i`` and ``l_i = f_i - f_{i+1}``.

Boundaries are computed once on the *original* histogram and, per the
paper, are not updated afterwards: the eligibility rule only ever allows a
token to take part in a single watermarked pair (matchings share no
vertices), so the original slack is never spent twice.

Since the array-engine refactor the histogram is backed by NumPy arrays
(descending count vector + token↔index vocabulary, see
:mod:`repro.core.arrays`); the mapping-style methods below are thin views
over that backing so existing callers keep working unchanged.
"""

from __future__ import annotations

import math
import pickle
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.arrays import (
    UNBOUNDED,
    HistogramArrays,
    counts_from_mapping,
    sort_histogram,
)
from repro.core.tokens import CodedTokens, TokenValue, canonical_token
from repro.exceptions import HistogramError


#: Largest count a histogram holds: counts live in ``int64`` arrays.
_MAX_COUNT = int(np.iinfo(np.int64).max)

_STR_ONLY = frozenset({str})
_INT_ONLY = frozenset({int})


class TokenCounts(dict):
    """A token->count mapping that passed :func:`checked_counts`.

    Keys are canonical token strings and every count is a positive
    integer within ``int64``. :func:`checked_counts` returns an instance
    unchanged, so a mapping checked once (at wire decode, by
    :func:`checked_arrays`) is not checked again by the detector it is
    handed to. Treat it as read-only.
    """

    __slots__ = ()


def _positive_int64(counts: Iterable[int], size: int) -> bool:
    """Whether ``size`` exact-``int`` counts all lie in ``[1, 2**63 - 1]``.

    One C-speed pass; ``False`` (not an error) sends the caller to the
    per-entry walk, which names the offending token.
    """
    try:
        values = np.fromiter(counts, dtype=np.int64, count=size)
    except OverflowError:
        return False
    return values.size > 0 and bool(values.min() > 0)


def _summed(entries: Iterable[Tuple[TokenValue, object]]) -> TokenCounts:
    """Check ``(token, count)`` entries one by one (the slow path).

    Keys are canonicalised and the counts of keys that canonicalise to
    one token are summed; an integral float counts as an integer; zero
    counts are dropped, and at least one occurrence must remain.
    """
    cleaned = TokenCounts()
    for token, count in entries:
        if not isinstance(count, int) or isinstance(count, bool):
            if isinstance(count, float) and count.is_integer():
                count = int(count)
            else:
                raise HistogramError(
                    f"frequency of token {token!r} must be an integer, got {count!r}"
                )
        if count < 0:
            raise HistogramError(
                f"frequency of token {token!r} must be non-negative, got {count}"
            )
        if count > 0:
            key = canonical_token(token)
            count += cleaned.get(key, 0)
            if count > _MAX_COUNT:
                raise HistogramError(
                    f"frequency of token {token!r} exceeds the int64 range, got {count}"
                )
            cleaned[key] = count
    if not cleaned:
        raise HistogramError("cannot build a histogram with no token occurrences")
    return cleaned


def checked_counts(counts: Mapping[TokenValue, int]) -> TokenCounts:
    """Check a token->count mapping the way every histogram input is checked.

    Keys are canonicalised with :func:`~repro.core.tokens.canonical_token`
    and the counts of keys that canonicalise to one token are summed.
    Counts must be integers (an integral float counts as one) and
    non-negative; zero counts are dropped, and at least one occurrence
    must remain. Counts outside ``int64`` (also after summing) are
    rejected whichever token carries them.

    A :class:`TokenCounts` is returned unchanged. A plain mapping of
    ``str`` keys to positive ``int`` counts is checked by a few C-speed
    passes; anything else walks the entries one by one.

    Raises
    ------
    HistogramError
        On the first entry that breaks a rule, naming its token, or when
        no occurrence remains.
    """
    if type(counts) is TokenCounts:
        return counts
    if (
        _STR_ONLY.issuperset(map(type, counts))
        and _INT_ONLY.issuperset(map(type, counts.values()))
        and _positive_int64(counts.values(), len(counts))
    ):
        return TokenCounts(counts)
    return _summed(counts.items())


def checked_arrays(tokens: Sequence[object], counts: Sequence[object]) -> TokenCounts:
    """Check the two-array form of a token->count mapping.

    ``tokens[i]`` occurs ``counts[i]`` times: the form the service wire
    carries. Stricter than :func:`checked_counts`, as befits outside
    input: the arrays must have equal lengths, every token must be a
    ``str`` and every count an ``int`` (no ``bool``, no float). C-speed
    passes check the types and the ``[1, 2**63 - 1]`` range and build
    the mapping; zeros, repeated tokens (their counts sum) and
    out-of-range counts take the per-entry walk.

    Raises
    ------
    HistogramError
        When a rule is broken, or when no occurrence remains.
    """
    if len(tokens) != len(counts):
        raise HistogramError(f"{len(tokens)} tokens but {len(counts)} counts")
    if not _STR_ONLY.issuperset(map(type, tokens)):
        raise HistogramError("every token must be a string")
    if not _INT_ONLY.issuperset(map(type, counts)):
        raise HistogramError("every count must be an integer")
    if _positive_int64(counts, len(counts)):
        checked = TokenCounts(zip(tokens, counts))
        if len(checked) == len(tokens):
            return checked
    return _summed(zip(tokens, counts))


def apply_deltas(
    counts: np.ndarray, positions: np.ndarray, deltas: np.ndarray
) -> np.ndarray:
    """Scatter-add ``deltas`` into a copy of ``counts`` at ``positions``.

    ``positions`` must be unique (one entry per token, as produced from a
    delta mapping): fancy-index assignment is well-defined only without
    duplicates.
    """
    updated = counts.copy()
    updated[positions] = updated[positions] + deltas
    return updated


@dataclass(frozen=True)
class TokenBoundaries:
    """Per-token ranking-preservation slack.

    ``upper`` is how many appearances may be *added* and ``lower`` how many
    may be *removed* without the token overtaking its higher-ranked
    neighbour or falling behind its lower-ranked neighbour. The top-ranked
    token has no upper boundary at all; that state is carried as
    ``math.inf`` for backwards compatibility but all decisions go through
    :attr:`unbounded_upper` rather than comparing against the float.
    """

    upper: float
    lower: int

    @property
    def unbounded_upper(self) -> bool:
        """Whether this token may grow without limit (the top-ranked token)."""
        return math.isinf(self.upper)

    def allows_change(self, magnitude: int) -> bool:
        """Whether a change of ``magnitude`` in either direction fits the slack.

        The unbounded upper boundary of the top-ranked token is handled
        explicitly: only the lower boundary constrains it. For every other
        token the (integral) upper boundary must also cover ``magnitude``.
        """
        if self.lower < magnitude:
            return False
        return self.unbounded_upper or int(self.upper) >= magnitude


class TokenHistogram:
    """Frequency histogram of a token dataset, sorted by descending count.

    The histogram is the single data structure the FreqyWM algorithms
    operate on: eligibility, matching, modification and detection all read
    (and in one place write) token counts through this class.

    Instances can be built from a raw iterable of token occurrences
    (:meth:`from_tokens`) or directly from a token->count mapping
    (:meth:`from_counts`). Counts live in a descending-sorted NumPy array
    (:meth:`arrays`); the dict-style accessors are views over it.
    """

    __slots__ = ("_order", "_array", "_rank", "_arrays", "_dict", "_total")

    def __init__(self, counts: Mapping[TokenValue, int]) -> None:
        self._init_sorted(*sort_histogram(*counts_from_mapping(checked_counts(counts))))

    def _init_sorted(self, order: List[str], array: np.ndarray) -> None:
        """Shared constructor tail: install a pre-sorted token/count pair."""
        self._order: List[str] = order
        array = np.ascontiguousarray(array, dtype=np.int64)
        array.flags.writeable = False
        self._array: np.ndarray = array
        self._rank: Dict[str, int] = {
            token: index for index, token in enumerate(order)
        }
        self._arrays: Optional[HistogramArrays] = None
        self._dict: Optional[Dict[str, int]] = None
        self._total: Optional[int] = None

    @classmethod
    def _from_sorted(cls, order: List[str], array: np.ndarray) -> "TokenHistogram":
        """Fast path for already-validated, already-sorted data."""
        instance = cls.__new__(cls)
        instance._init_sorted(order, array)
        return instance

    def __getstate__(self) -> Tuple[List[str], np.ndarray]:
        # Pickle only the sorted (tokens, counts) pair: the rank lookup and
        # the array/dict caches are derived state, and dropping them keeps
        # the payload shipped to sharded detection workers minimal.
        return (self._order, self._array)

    def __setstate__(self, state: Tuple[List[str], np.ndarray]) -> None:
        order, array = state
        self._init_sorted(list(order), np.asarray(array, dtype=np.int64))

    def __reduce_ex__(self, protocol: int):
        # Protocol 5 hands the counts array to the picklee as an
        # out-of-band PickleBuffer: a transport that extracts buffers
        # (the blob data plane, shared-memory segments) moves the int64
        # block without copying it through the pickle stream, and the
        # receiving side reconstructs with ``np.frombuffer`` mapping the
        # delivered buffer directly. Older protocols keep the plain
        # ``__getstate__`` path.
        if protocol >= 5:
            return (
                TokenHistogram._from_pickle_buffer,
                (self._order, pickle.PickleBuffer(self._array), len(self._array)),
            )
        return super().__reduce_ex__(protocol)

    @classmethod
    def _from_pickle_buffer(
        cls, order: List[str], buffer, length: int
    ) -> "TokenHistogram":
        """Rebuild from a protocol-5 out-of-band counts buffer (zero-copy)."""
        array = np.frombuffer(buffer, dtype=np.int64, count=length)
        instance = cls.__new__(cls)
        instance._init_sorted(list(order), array)
        return instance

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_tokens(cls, tokens: Iterable[TokenValue]) -> "TokenHistogram":
        """Count token occurrences from a raw sequence of values.

        Parameters
        ----------
        tokens : Iterable[TokenValue]
            Token occurrences in any order; values are canonicalised via
            :func:`repro.core.tokens.canonical_token`. A list or tuple
            is read once through :class:`~repro.core.tokens.CodedTokens`
            and a :class:`~repro.core.tokens.CodedTokens` on its first
            use; either is counted from its codes with ``np.bincount``.
            Any other iterable is consumed in bounded batches, as
            :class:`repro.core.streaming.StreamingHistogramBuilder`
            counts data that arrives in chunks. Every path gives the
            same histogram.

        Returns
        -------
        TokenHistogram
            The descending-frequency histogram.

        Raises
        ------
        HistogramError
            If the sequence is empty.
        """
        if isinstance(tokens, (list, tuple)):
            tokens = CodedTokens(tokens)
        if isinstance(tokens, CodedTokens):
            _, codes, index = tokens.coded()
            if not codes.size:
                raise HistogramError("cannot build a histogram from an empty dataset")
            # Every key is a string; a subclass such as ``numpy.str_``
            # becomes its exact ``str``, as ``canonical_token`` makes it.
            return cls._from_sorted(*sort_histogram(list(map(str, index)), np.bincount(codes)))
        # Imported here: the streaming module builds on this one.
        from repro.core.streaming import DEFAULT_CHUNK_SIZE, count_batch, iter_batches

        counts: Counter = Counter()
        for batch in iter_batches(tokens, DEFAULT_CHUNK_SIZE):
            counts.update(count_batch(batch))
        if not counts:
            raise HistogramError("cannot build a histogram from an empty dataset")
        return cls(counts)

    @classmethod
    def from_counts(cls, counts: Mapping[TokenValue, int]) -> "TokenHistogram":
        """Build a histogram from an existing token->count mapping.

        Parameters
        ----------
        counts : Mapping[TokenValue, int]
            Token -> non-negative appearance count, checked by
            :func:`checked_counts`: keys are canonicalised (aliases
            summed) and zero counts dropped.

        Returns
        -------
        TokenHistogram
            The descending-frequency histogram.
        """
        return cls(counts)

    # ------------------------------------------------------------------ #
    # Read access
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)

    def __contains__(self, token: object) -> bool:
        return token in self._rank

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenHistogram):
            return NotImplemented
        return self._order == other._order and bool(
            np.array_equal(self._array, other._array)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenHistogram({len(self)} tokens, {self.total_count()} occurrences)"

    @property
    def tokens(self) -> Tuple[str, ...]:
        """Tokens in descending frequency order."""
        return tuple(self._order)

    def arrays(self) -> HistogramArrays:
        """The array backing of this histogram (built once, then cached)."""
        if self._arrays is None:
            self._arrays = HistogramArrays(self._order, self._array, self._rank)
        return self._arrays

    def counts_array(self) -> np.ndarray:
        """Read-only ``int64`` counts in descending order."""
        return self._array

    def counts_of(self, tokens: Sequence[str]) -> np.ndarray:
        """``int64`` counts of canonical ``tokens`` in input order, ``0`` where absent.

        One C-level ``rank.get`` pass over the tokens, then one gather
        from the counts array extended by a trailing ``0``, which an
        absent token's rank ``-1`` reads. No :meth:`arrays` view is built.
        """
        positions = np.fromiter(
            map(self._rank.get, tokens, repeat(-1)), np.int64, count=len(tokens)
        )
        return np.append(self._array, 0)[positions]

    def counts_at(
        self, ranks: Callable[[Mapping[str, int]], Tuple[int, ...]], size: int
    ) -> np.ndarray:
        """``int64`` counts of the ``size`` tokens a prebuilt lookup reads.

        ``ranks`` is an ``operator.itemgetter`` of two or more tokens,
        built once and called on this histogram's rank dict; an absent
        token raises ``KeyError`` (:meth:`counts_of` reads such tokens).
        """
        return self._array[np.fromiter(ranks(self._rank), np.intp, count=size)]

    def frequency(self, token: TokenValue) -> int:
        """Appearance count of ``token`` (0 if absent)."""
        index = self._rank.get(canonical_token(token))
        if index is None:
            return 0
        return int(self._array[index])

    def rank(self, token: TokenValue) -> Optional[int]:
        """Zero-based rank of ``token`` in descending frequency order."""
        return self._rank.get(canonical_token(token))

    def total_count(self) -> int:
        """Total number of token occurrences (the dataset size)."""
        if self._total is None:
            self._total = int(self._array.sum())
        return self._total

    def as_dict(self) -> Dict[str, int]:
        """Copy of the token->count mapping."""
        if self._dict is None:
            self._dict = dict(zip(self._order, self._array.tolist()))
        return dict(self._dict)

    def frequencies(self) -> Tuple[int, ...]:
        """Counts in descending order, aligned with :attr:`tokens`."""
        return tuple(self._array.tolist())

    def top(self, n: int) -> List[Tuple[str, int]]:
        """The ``n`` most frequent tokens with their counts."""
        return list(zip(self._order[:n], self._array[:n].tolist()))

    # ------------------------------------------------------------------ #
    # Boundaries
    # ------------------------------------------------------------------ #

    def boundaries(self) -> Dict[str, TokenBoundaries]:
        """Ranking-preservation boundaries for every token.

        See the module docstring for the definition. The mapping is a view
        materialised from the vectorized boundary arrays (see
        :meth:`repro.core.arrays.HistogramArrays.boundary_arrays`).
        """
        upper, lower = self.arrays().boundary_arrays()
        upper_values = upper.tolist()
        lower_values = lower.tolist()
        return {
            token: TokenBoundaries(
                upper=math.inf if upper_values[index] == UNBOUNDED else float(upper_values[index]),
                lower=lower_values[index],
            )
            for index, token in enumerate(self._order)
        }

    # ------------------------------------------------------------------ #
    # Mutation (used by the frequency-modification stage)
    # ------------------------------------------------------------------ #

    def with_updates(self, deltas: Mapping[str, int]) -> "TokenHistogram":
        """Return a new histogram with ``deltas`` applied to token counts.

        Counts may not become negative; tokens whose count reaches zero are
        dropped from the histogram (they no longer appear in the dataset).
        The delta application over existing tokens runs as one
        :func:`apply_deltas` scatter.
        """
        added: Dict[str, int] = {}
        changed: Dict[int, int] = {}
        for token, delta in deltas.items():
            canonical = canonical_token(token)
            index = self._rank.get(canonical)
            if index is None:
                added[canonical] = added.get(canonical, 0) + delta
            else:
                # Accumulate per rank position: aliases of one canonical
                # token must collapse to a single (unique-position) entry
                # before the scatter kernel.
                changed[index] = changed.get(index, 0) + delta
        if changed:
            positions = np.fromiter(changed.keys(), dtype=np.intp, count=len(changed))
            values = np.fromiter(changed.values(), dtype=np.int64, count=len(changed))
            array = apply_deltas(self._array, positions, values)
        else:
            array = self._array.copy()
        for token, delta in added.items():
            if delta < 0:
                raise HistogramError(
                    f"update would make frequency of {token!r} negative"
                    f" (0 {delta:+d})"
                )
        negative = np.nonzero(array < 0)[0]
        if negative.size:
            index = int(negative[0])
            token = self._order[index]
            raise HistogramError(
                f"update would make frequency of {token!r} negative"
                f" ({int(self._array[index])} {int(array[index]) - int(self._array[index]):+d})"
            )
        keep = array > 0
        tokens = (
            self._order
            if bool(keep.all())
            else [token for token, kept in zip(self._order, keep) if kept]
        )
        values = array if bool(keep.all()) else array[keep]
        for token, delta in added.items():
            if delta > 0:
                tokens = list(tokens) + [token]
                values = np.concatenate([values, np.array([delta], dtype=np.int64)])
        if not len(tokens):
            raise HistogramError("cannot build a histogram with no token occurrences")
        return TokenHistogram._from_sorted(*sort_histogram(list(tokens), values))

    def scaled(self, factor: float) -> "TokenHistogram":
        """Return a histogram with every count multiplied by ``factor``.

        Used by the sampling-attack defence, where the owner rescales a
        suspected subsample back to the original dataset size before
        running detection. Counts are rounded to the nearest integer and
        tokens that round to zero are kept at one occurrence so they stay
        part of the histogram support.
        """
        if factor <= 0:
            raise HistogramError(f"scale factor must be positive, got {factor}")
        values = np.maximum(
            1, np.rint(self._array * float(factor)).astype(np.int64)
        )
        return TokenHistogram._from_sorted(*sort_histogram(list(self._order), values))


def pairwise_rank_gaps(histogram: TokenHistogram) -> List[int]:
    """Gaps between consecutive frequencies in descending order.

    A convenience used by the dataset generators and tests: uniform data
    has (near-)zero gaps everywhere, which is exactly the regime in which
    the paper says FreqyWM cannot embed a watermark.
    """
    counts = histogram.counts_array()
    return np.subtract(counts[:-1], counts[1:]).tolist()


__all__ = [
    "TokenBoundaries",
    "TokenCounts",
    "TokenHistogram",
    "checked_arrays",
    "checked_counts",
    "pairwise_rank_gaps",
]
