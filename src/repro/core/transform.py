"""Data transformation: turn histogram deltas into an edited dataset.

The frequency-modification stage only decides *how many* appearances of
each token to add or remove; this module performs the actual edit on the
token sequence (the ``Create`` step of Algorithm I):

* removals pick random existing positions of the token, so no positional
  pattern reveals which appearances belonged to the watermark;
* insertions go to random positions of the sequence — the paper stresses
  that inserting at predictable positions (for example always at the end)
  would weaken FreqyWM against a guess attack.

The one-shot edit works on integer token codes: a
:class:`~repro.core.tokens.CodedTokens` read of the sequence, which the
generator has already made for its histogram, or one made here at C
speed. It finds every occurrence of the removed tokens through one table
over the codes, which numbers those tokens 1, 2, ..., groups them by
token with one stable sort of the numbers, resolves the insertions to
their final slots and writes the output once as slices between the
edited positions. It draws the random numbers of
:func:`repro.core.reference.apply_deltas_reference` in the same order,
so its output is identical. :func:`apply_deltas_streaming` does the
same job on a lazy stream in bounded memory.

For multi-dimensional datasets (where a token is a combination of
attribute values but rows carry further attributes) the equivalent row
transformation lives in :mod:`repro.core.multidimensional`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.histogram import TokenHistogram
from repro.core.tokens import CodedTokens, TokenValue, canonical_token
from repro.exceptions import GenerationError
from repro.utils.rng import RngLike, ensure_rng


def apply_deltas_to_tokens(
    tokens: Sequence[TokenValue],
    deltas: Mapping[str, int],
    *,
    rng: RngLike = None,
) -> List[str]:
    """Apply token-count ``deltas`` to a raw token sequence.

    The edit touches a few dozen appearances of a sequence that may hold
    millions, so the whole sequence is read once at C speed (one pass
    codes each token and numbers the distinct ones as it meets them, see
    :class:`~repro.core.tokens.CodedTokens`; a ``CodedTokens`` is used
    as it was read) and written once as slices
    between the edited positions. The random draws are those of
    :func:`repro.core.reference.apply_deltas_reference`, in the same
    order, so the output is identical to it.

    Parameters
    ----------
    tokens:
        The original dataset as a sequence of token occurrences.
    deltas:
        Mapping from canonical token to the signed number of appearances
        to add (positive) or remove (negative).
    rng:
        Randomness source for choosing removal victims and insertion
        positions.

    Returns
    -------
    A new list of token strings (kept string occurrences as given, other
    values as their canonical strings) whose histogram equals the
    original histogram with ``deltas`` applied.
    """
    return _edit(tokens, deltas, rng)


def _edit(
    tokens: Sequence[TokenValue], deltas: Mapping[str, int], rng: RngLike
) -> List[str]:
    """The ``Create`` edit of ``tokens`` (read once unless already coded)."""
    generator = ensure_rng(rng)
    if not isinstance(tokens, CodedTokens):
        tokens = CodedTokens(tokens)
    canonical, codes, index = tokens.coded()

    # Plan removals: choose random occurrence indices per token, among
    # its occurrences in input order. The removed tokens present are
    # numbered 1, 2, ... in a table over the codes (0 for every other
    # token). One gather through it finds every occurrence to choose
    # from, and one stable sort of those occurrences' numbers (small
    # integers, which NumPy radix-sorts) groups them by token.
    removed: List[int] = []
    removals = {token: -delta for token, delta in deltas.items() if delta < 0}
    if removals:
        present = [token for token in removals if token in index]
        numbers = dict(zip(present, range(1, len(present) + 1)))
        table = np.zeros(len(index), np.min_scalar_type(len(present)))
        table[[index[token] for token in present]] = np.arange(1, len(present) + 1)
        numbered = np.take(table, codes)
        hits = np.flatnonzero(numbered != 0)
        hit_numbers = np.take(numbered, hits)
        grouped = hits[np.argsort(hit_numbers, kind="stable")]
        ends = np.cumsum(np.bincount(hit_numbers, minlength=len(numbers) + 1)).tolist()
        for token, count in removals.items():
            number = numbers.get(token, 0)
            positions = grouped[ends[number - 1] : ends[number]] if number else grouped[:0]
            if len(positions) < count:
                raise GenerationError(
                    f"cannot remove {count} appearances of {token!r}: only "
                    f"{len(positions)} present"
                )
            chosen = generator.choice(len(positions), size=count, replace=False)
            removed.extend(positions[chosen].tolist())
    removed.sort()

    # Plan insertions: new appearances land at random positions of the
    # growing output. ``slots`` follows each one's position as later ones
    # land before it.
    added: List[str] = []
    additions = {token: delta for token, delta in deltas.items() if delta > 0}
    slots = np.empty(sum(additions.values()), np.int64)
    length = len(canonical) - len(removed)
    for token, count in additions.items():
        for _ in range(count):
            position = int(generator.integers(0, length + 1))
            done = slots[: len(added)]
            done += done >= position
            slots[len(added)] = position
            added.append(token)
            length += 1

    # Resolve each new appearance, in output order, to the input position
    # it precedes: its count of kept tokens before it, plus the removed
    # positions among them.
    order = np.argsort(slots)
    inserted = [added[new] for new in order.tolist()]
    kept_before = slots[order] - np.arange(len(added))
    removed_kept_before = np.asarray(removed, np.int64) - np.arange(len(removed))
    anchors = kept_before + np.searchsorted(removed_kept_before, kept_before, side="right")
    cuts: List[Tuple[int, int]] = sorted(
        [(position, -1) for position in removed]
        + list(zip(anchors.tolist(), range(len(inserted))))
    )

    result: List[str] = []
    start = 0
    for position, new in cuts:
        result += canonical[start:position]
        if new < 0:
            start = position + 1
        else:
            result.append(inserted[new])
            start = position
    result += canonical[start:]
    return result


def histogram_deltas(
    original: TokenHistogram, watermarked: TokenHistogram
) -> Dict[str, int]:
    """Signed per-token count changes turning ``original`` into ``watermarked``.

    Parameters
    ----------
    original, watermarked : TokenHistogram
        The before/after histograms; tokens present in only one side
        contribute their full count.

    Returns
    -------
    Dict[str, int]
        Token -> non-zero signed delta, ready for
        :func:`apply_deltas_to_tokens` or :func:`apply_deltas_streaming`.
        Keys follow the original's rank order, then the tokens found
        only in ``watermarked`` in its rank order. The edits draw their
        random numbers in this order, so it must not depend on the
        process's string-hash seed (as a set walk would).
    """
    before = original.as_dict()
    after = watermarked.as_dict()
    deltas: Dict[str, int] = {}
    for token, count in before.items():
        delta = after.get(token, 0) - count
        if delta != 0:
            deltas[token] = delta
    for token, count in after.items():
        if token not in before:
            deltas[token] = count
    return deltas


def transform_dataset(
    tokens: Sequence[TokenValue],
    original: TokenHistogram,
    watermarked: TokenHistogram,
    *,
    rng: RngLike = None,
) -> List[str]:
    """Edit ``tokens`` so its histogram matches ``watermarked``.

    The deltas are derived by diffing the two histograms
    (:func:`histogram_deltas`), then applied as
    :func:`apply_deltas_to_tokens` applies them. The generator is the
    caller: it passes the :class:`~repro.core.tokens.CodedTokens` its
    histogram was counted from, so the edit reuses that read instead of
    reading the sequence again.
    """
    return _edit(tokens, histogram_deltas(original, watermarked), rng)


def apply_deltas_streaming(
    tokens: Iterable[TokenValue],
    deltas: Mapping[str, int],
    original_counts: Mapping[str, int],
    *,
    rng: RngLike = None,
) -> Iterator[str]:
    """Apply token-count ``deltas`` to a lazy token stream, yielding the edit.

    The streaming counterpart of :func:`apply_deltas_to_tokens` for
    datasets too large to materialise: the input is consumed once, the
    edited sequence is yielded incrementally, and memory stays bounded by
    the number of *edited* appearances (plus one counter per removed
    token), never by the stream length. Both edit kinds keep the paper's
    positional-secrecy requirement:

    * removal victims are uniformly random occurrences of each token,
      chosen by sampling occurrence ordinals against the known original
      counts before the stream is consumed;
    * insertions land at uniformly random positions of the *final*
      sequence, chosen by sampling slots of the output stream up front
      and interleaving the (shuffled) new appearances while writing.

    Parameters
    ----------
    tokens : Iterable[TokenValue]
        The original dataset as a lazy stream of token occurrences (e.g.
        :func:`repro.datasets.loaders.iter_tokens`).
    deltas : Mapping[str, int]
        Canonical token -> signed appearance change, as produced by
        diffing the original and watermarked histograms.
    original_counts : Mapping[str, int]
        Appearance counts of the original stream (a token->count mapping
        or anything with ``as_dict()``, e.g. a ``TokenHistogram`` built
        by one streaming ingestion pass). Needed to sample removal
        ordinals without buffering the stream.
    rng : RngLike, optional
        Randomness source for victim and position choices.

    Yields
    ------
    str
        Canonical tokens of the edited sequence, whose histogram equals
        the original counts with ``deltas`` applied.

    Raises
    ------
    GenerationError
        If a removal exceeds the recorded count of its token, or —
        detected at end of stream, before the trailing insertions are
        yielded — the stream disagrees with ``original_counts`` (total
        occurrences, or the occurrence count of any removed token).
    """
    generator = ensure_rng(rng)
    if hasattr(original_counts, "as_dict"):
        original_counts = original_counts.as_dict()

    # Removals: pre-sample which occurrence ordinals of each token vanish.
    removal_ordinals: Dict[str, frozenset] = {}
    removed_total = 0
    for token, delta in deltas.items():
        if delta >= 0:
            continue
        count = int(original_counts.get(token, 0))
        if count < -delta:
            raise GenerationError(
                f"cannot remove {-delta} appearances of {token!r}: only "
                f"{count} present"
            )
        chosen = generator.choice(count, size=-delta, replace=False)
        removal_ordinals[token] = frozenset(int(i) for i in chosen)
        removed_total += -delta

    # Insertions: pre-sample slots of the final output stream.
    additions: List[str] = []
    for token, delta in deltas.items():
        if delta > 0:
            additions.extend([token] * delta)
    original_total = sum(int(count) for count in original_counts.values())
    final_length = original_total - removed_total + len(additions)
    insert_at: Dict[int, List[str]] = {}
    if additions:
        generator.shuffle(additions)
        slots = generator.choice(final_length, size=len(additions), replace=False)
        for slot, token in zip(sorted(int(s) for s in slots), additions):
            insert_at.setdefault(slot, []).append(token)

    seen: Dict[str, int] = dict.fromkeys(removal_ordinals, 0)
    position = 0
    consumed = 0
    for value in tokens:
        token = canonical_token(value)
        consumed += 1
        ordinals = removal_ordinals.get(token)
        if ordinals is not None:
            ordinal = seen[token]
            seen[token] = ordinal + 1
            if ordinal in ordinals:
                continue
        while position in insert_at:
            for inserted in insert_at.pop(position):
                yield inserted
                position += 1
        yield token
        position += 1
    # The removal/insertion plan was sampled against ``original_counts``;
    # a stream that disagrees with it (the file changed between the
    # histogram pass and this pass) would silently realise the wrong
    # histogram, so fail loudly instead.
    if consumed != original_total:
        raise GenerationError(
            f"token stream disagrees with original_counts: consumed {consumed} "
            f"occurrences, expected {original_total}"
        )
    for token, ordinals in removal_ordinals.items():
        expected = int(original_counts.get(token, 0))
        if seen[token] != expected:
            raise GenerationError(
                f"token stream disagrees with original_counts: saw "
                f"{seen[token]} occurrences of {token!r}, expected {expected}"
            )
    # Insertion slots past the last kept token flush in slot order.
    for slot in sorted(insert_at):
        for inserted in insert_at[slot]:
            yield inserted


def verify_transformation(
    transformed: Sequence[str],
    expected: TokenHistogram,
) -> bool:
    """Check that a transformed token sequence matches the target histogram."""
    return TokenHistogram.from_tokens(transformed).as_dict() == expected.as_dict()


__all__ = [
    "apply_deltas_to_tokens",
    "apply_deltas_streaming",
    "histogram_deltas",
    "transform_dataset",
    "verify_transformation",
]
