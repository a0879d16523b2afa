"""Token abstraction used throughout the FreqyWM pipeline.

A *token* in the paper is "a word, a database record, a URL, or any
repeating value within a structured or semi-structured commercial
dataset". The watermarking algorithms only ever need a stable, hashable,
canonical string form of each token (the hash-based modulus ``s_ij`` is
computed from the token's bytes), so this module provides:

* :func:`canonical_token` — turn an arbitrary hashable value (string,
  number, tuple of attribute values for multi-dimensional tokens) into a
  canonical string that is stable across processes.
* :class:`TokenPair` — an ordered pair of tokens where the first element
  is always the higher-frequency token, as used by the eligibility,
  matching, modification and detection stages.
* :class:`CodedTokens` — a token sequence read once into integer codes,
  which both the histogram count and the dataset edit of one
  ``WM_Generate`` run read.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from itertools import count, repeat
from typing import Dict, Hashable, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

TokenValue = Hashable
#: Separator used when composing multi-attribute tokens into one string.
MULTI_ATTRIBUTE_SEPARATOR = "\x1f"


def canonical_token(value: TokenValue) -> str:
    """Return the canonical string form of a token value.

    Strings are returned unchanged, and a ``str`` subclass (such as
    ``numpy.str_``) as the exact ``str`` of its value; bytes are decoded
    as UTF-8 with replacement; tuples/lists (multi-dimensional tokens)
    are joined with a non-printable separator so that ``("a", "bc")``
    and ``("ab", "c")`` remain distinct; every other value uses its
    ``repr``-free ``str`` form.

    The mapping must be injective for the tokens present in one dataset:
    two distinct raw values that stringify identically (for example the
    integer ``1`` and the string ``"1"``) would collapse into a single
    histogram bucket, which is the standard behaviour for CSV-sourced data.
    """
    if type(value) is str:
        return value
    if isinstance(value, str):
        return str(value)
    if isinstance(value, bytes):
        return value.decode("utf-8", errors="replace")
    if isinstance(value, (tuple, list)):
        return MULTI_ATTRIBUTE_SEPARATOR.join(canonical_token(part) for part in value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def compose_token(values: Sequence[TokenValue]) -> str:
    """Compose a multi-dimensional token from several attribute values.

    This implements the paper's Section IV-C where a token may be the
    combination of multiple attributes (for example ``[Age, WorkClass]``
    in the Adult dataset).
    """
    return canonical_token(tuple(values))


def decompose_token(token: str) -> Tuple[str, ...]:
    """Split a composed multi-dimensional token back into its attributes."""
    return tuple(token.split(MULTI_ATTRIBUTE_SEPARATOR))


@dataclass(frozen=True, order=True)
class TokenPair:
    """An ordered pair of distinct tokens.

    ``first`` always refers to the token with the higher (or equal)
    original frequency so that the frequency difference ``f_first -
    f_second`` used in the modulo rule is non-negative. Instances are
    immutable and hashable so they can be stored in the secret list
    ``L_wm`` and used as dictionary keys by the matching algorithms.
    """

    first: str
    second: str

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ValueError("a watermark pair must contain two distinct tokens")

    def as_tuple(self) -> Tuple[str, str]:
        """Return ``(first, second)``."""
        return (self.first, self.second)

    def contains(self, token: str) -> bool:
        """Whether ``token`` is one of the two pair members."""
        return token in (self.first, self.second)

    def other(self, token: str) -> str:
        """Return the member of the pair that is not ``token``."""
        if token == self.first:
            return self.second
        if token == self.second:
            return self.first
        raise KeyError(f"{token!r} is not part of this pair")

    @staticmethod
    def ordered(
        token_a: TokenValue,
        token_b: TokenValue,
        frequency_a: int,
        frequency_b: int,
    ) -> "TokenPair":
        """Build a pair placing the higher-frequency token first.

        Ties are broken lexicographically so the ordering is deterministic
        for a given histogram regardless of insertion order.
        """
        a, b = canonical_token(token_a), canonical_token(token_b)
        if (frequency_a, b) >= (frequency_b, a):
            return TokenPair(a, b)
        return TokenPair(b, a)


def _code(tokens: Sequence[TokenValue]) -> Tuple[np.ndarray, Dict[TokenValue, int]]:
    """``(codes, index)`` of ``tokens``, read in one pass.

    Each token's ``int32`` code is looked up in a ``defaultdict`` that
    gives a token it has not seen the next number, so codes number the
    distinct tokens by first appearance. An unhashable token raises
    ``TypeError``. The index comes back as a plain ``dict``, where a
    lookup never inserts a key.
    """
    index: Dict[TokenValue, int] = defaultdict(count().__next__)
    codes = np.fromiter(map(index.__getitem__, tokens), np.int32, count=len(tokens))
    return codes, dict(index)


class CodedTokens(SequenceABC):
    """A token sequence read once, on first use, into integer codes.

    Two stages of ``WM_Generate`` read its dataset: ``Preprocess``
    counts it and the ``Create`` edit finds the occurrences it removes.
    The generator wraps a token-sequence input in this type so that both
    read one coding of it:
    :meth:`repro.core.histogram.TokenHistogram.from_tokens` counts the
    codes with ``np.bincount`` (so the read happens inside that call),
    and :func:`repro.core.transform.transform_dataset` edits through
    them.

    The read keeps every string occurrence as given (a ``numpy.str_``
    stays one) and canonicalises every other value with
    :func:`canonical_token`; a list or tuple of strings is read as is,
    anything else is copied into a list first. One C-level
    ``np.fromiter`` pass writes the codes and numbers the vocabulary as
    it goes (see :func:`_code`). Indexing, iteration and ``len`` see the
    read tokens.
    """

    __slots__ = ("_source", "_read")

    def __init__(self, tokens: Iterable[TokenValue]) -> None:
        self._source = tokens
        self._read: Optional[Tuple[Sequence[str], np.ndarray, Dict[str, int]]] = None

    def coded(self) -> Tuple[Sequence[str], np.ndarray, Dict[str, int]]:
        """``(tokens, codes, index)``, read on the first call.

        ``tokens`` are the read occurrences, ``codes`` their ``int32``
        codes, and ``index`` maps each distinct token to its code, in
        order of first appearance.
        """
        if self._read is None:
            tokens = self._source
            read = None
            if isinstance(tokens, (list, tuple)):
                try:
                    read = _code(tokens)
                except TypeError:  # an unhashable token
                    pass
            if read is None or not all(map(isinstance, read[1], repeat(str))):
                tokens = [
                    token if isinstance(token, str) else canonical_token(token)
                    for token in tokens
                ]
                read = _code(tokens)
            self._read = (tokens, *read)
        return self._read

    def __len__(self) -> int:
        return len(self.coded()[0])

    def __getitem__(self, item):
        return self.coded()[0][item]

    def __iter__(self) -> Iterator[str]:
        return iter(self.coded()[0])


def unique_tokens(values: Iterable[TokenValue]) -> Tuple[str, ...]:
    """Canonicalise ``values`` preserving first-seen order and uniqueness."""
    seen = {}
    for value in values:
        token = canonical_token(value)
        if token not in seen:
            seen[token] = None
    return tuple(seen)


PairLike = Union[TokenPair, Tuple[str, str]]


def as_token_pair(pair: PairLike) -> TokenPair:
    """Coerce a ``(first, second)`` tuple into a :class:`TokenPair`."""
    if isinstance(pair, TokenPair):
        return pair
    first, second = pair
    return TokenPair(canonical_token(first), canonical_token(second))


__all__ = [
    "TokenValue",
    "MULTI_ATTRIBUTE_SEPARATOR",
    "canonical_token",
    "compose_token",
    "decompose_token",
    "TokenPair",
    "CodedTokens",
    "unique_tokens",
    "PairLike",
    "as_token_pair",
]
