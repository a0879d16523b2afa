"""Candidate-pruning index for sublinear leak attribution.

The registry's leak attribution used to screen *every* registered secret
against the leaked copy in one stacked
:func:`repro.core.batch.detect_many_secrets` pass — correct, but linear
in vault size: near a million buyers the per-secret Python loop (list
stacking, result construction) dominates, not the modulo arithmetic.

This module prunes first. Observe that the paper's acceptance rule

    ``present(i, j)  and  (f_i - f_j) mod s_ij <= t(s_ij)``

depends only on the leaked copy's frequencies and on the pair's
``(tk_i, tk_j, s_ij)`` triple — *never* on which secret the pair belongs
to. So all registered secrets' pairs collapse into a coarse inverted
index from **token-pair modulus buckets** to the secrets that posted
into them:

    bucket (tk_i, tk_j, s_ij)  ->  [row ids of secrets storing that pair]

One vectorized pass over the *distinct* buckets (sharing the detector's
:func:`~repro.core.detector.verify_pair_arrays` arithmetic, so the two
paths cannot diverge) decides every posting at once; a bucket-hit
scatter-add then yields each secret's exact accepted-pair count, and the
candidate set is the rows whose count reaches their
:meth:`~repro.core.config.DetectionConfig.required_pairs` quota. The
leaked copy is read at its own tokens: each one is looked up in the
index vocabulary once and its count scattered into a vocabulary-length
frequency array, so a screen costs time proportional to the leaked
copy (which decoding it already paid for), not to the vault's
vocabulary, and a token->count mapping is screened without building a
histogram.

**Layout.** The index lives in one screening form, growable arrays
that registration extends in place: per bucket its two token ids (into
the index vocabulary) and its modulus, per posting its ``(bucket,
row)``, and per row its stored-pair count. :meth:`CandidateIndex.add`
costs time proportional to the new secret's pairs (arrays double when
full); :meth:`CandidateIndex.remove` frees the row and leaves its
postings for one vectorized rebuild before the next screen.

**Soundness / exactness.** Acceptance of a stored pair in the full
stacked pass is exactly the bucket-acceptance condition of its
``(tk_i, tk_j, s_ij)`` bucket, so the scatter-added hit count *equals*
the secret's accepted-pair count in the full pass. Candidates therefore
contain every secret the full pass would accept (zero verdict changes),
and the exact :func:`~repro.core.batch.detect_many_secrets` confirmation
the registry runs on the candidate set only re-derives the rankings.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import compress, repeat
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.config import DetectionConfig
from repro.core.detector import (
    SuspectCounts,
    SuspectData,
    suspect_counts,
    verify_pair_arrays,
)
from repro.core.histogram import TokenHistogram
from repro.core.secrets import WatermarkSecret
from repro.exceptions import DetectionError, DisputeError

#: One inverted-index bucket: ``(first token, second token, modulus)``.
BucketKey = Tuple[str, str, int]

#: Stored-pair count of a row no secret occupies.
_FREE = -1


@dataclass(frozen=True)
class CandidateScreen:
    """Outcome of one index screen over a leaked copy.

    Attributes
    ----------
    rows:
        Row ids of the candidate secrets, ascending. Exact detection
        (:func:`repro.core.batch.detect_many_secrets`) must still
        confirm them; non-candidates are *guaranteed* rejected.
    mode:
        How the screen ran — ``"empty"`` (no active secrets) or
        ``"index"`` (per-secret bucket hit counting).
    buckets_screened:
        Distinct ``(pair, modulus)`` buckets the vectorized pass covered.
    buckets_accepted:
        Buckets whose acceptance condition held on the leaked copy.
    active_secrets:
        Registered-and-not-revoked secrets at screen time.
    """

    rows: Tuple[int, ...]
    mode: str
    buckets_screened: int
    buckets_accepted: int
    active_secrets: int


@dataclass(frozen=True)
class IndexStats:
    """Structural counters of a :class:`CandidateIndex`."""

    active_secrets: int
    buckets: int
    postings: int

    def as_dict(self) -> Dict[str, int]:
        """Every counter as a plain dict (the service's ``vault`` group)."""
        return asdict(self)


def _room(array: np.ndarray, size: int, fill: int = 0) -> np.ndarray:
    """``array`` if it holds ``size`` items, else a copy with double the room.

    New slots hold ``fill``. Doubling keeps appends amortised O(1).
    """
    if size <= len(array):
        return array
    grown = np.full(max(size, 2 * len(array)), fill, dtype=array.dtype)
    grown[: len(array)] = array
    return grown


def _empty() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


class CandidateIndex:
    """Inverted index from token-pair modulus buckets to secret rows.

    Rows are caller-chosen non-negative integers used as array
    positions (the registry uses a monotonic issue counter, so row ids
    survive revocations without renumbering). :meth:`add` extends the
    screening arrays in place; :meth:`remove` marks the index stale,
    and the next :meth:`screen` (or :meth:`stats`, or an :meth:`add`
    reusing the row) rebuilds it once.
    """

    def __init__(self) -> None:
        # Bucket key -> bucket id; insertion order is id order.
        self._bucket_ids: Dict[BucketKey, int] = {}
        # Per bucket (the first len(_bucket_ids) slots are live).
        self._first_ids = _empty()
        self._second_ids = _empty()
        self._moduli = _empty()
        # The index vocabulary: token ids are positions in _tokens.
        self._tokens: List[str] = []
        self._token_ids: Dict[str, int] = {}
        # Per posting (the first _postings slots are live).
        self._posting_buckets = _empty()
        self._posting_rows = _empty()
        self._postings = 0
        # Per row: stored-pair count, _FREE when unoccupied.
        self._row_pairs = _empty()
        self._active = 0
        # Rows removed since the last rebuild; their postings remain.
        self._removed: Set[int] = set()

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._active

    def _occupied(self, row: int) -> bool:
        return 0 <= row < len(self._row_pairs) and self._row_pairs[row] != _FREE

    def _token_id(self, token: str) -> int:
        identifier = self._token_ids.get(token)
        if identifier is None:
            identifier = self._token_ids[token] = len(self._tokens)
            self._tokens.append(token)
        return identifier

    def add(self, row: int, secret: WatermarkSecret) -> None:
        """Post every ``(pair, modulus)`` bucket of ``secret`` under ``row``.

        The per-pair moduli are the secret's memo
        (:meth:`~repro.core.secrets.WatermarkSecret.moduli`): adding a
        secret derives them, so screening never hashes, and a later
        detector or confirmation pass for the same secret object reuses
        them. New buckets and the secret's postings are appended to the
        screening arrays in place: the cost is proportional to the
        secret's pairs, not the vault.
        """
        if row < 0:
            raise DisputeError(f"index rows must be non-negative, got {row}")
        if self._occupied(row):
            raise DisputeError(f"index row {row} is already occupied")
        if row in self._removed:
            # The row's old postings must go before new ones share its id.
            self._rebuild()
        first_bucket = len(self._bucket_ids)
        new_keys: List[BucketKey] = []
        buckets: List[int] = []
        for pair, modulus in zip(secret.pairs, secret.moduli().tolist()):
            key = (pair.first, pair.second, modulus)
            bucket = self._bucket_ids.get(key)
            if bucket is None:
                bucket = self._bucket_ids[key] = len(self._bucket_ids)
                new_keys.append(key)
            buckets.append(bucket)
        if new_keys:
            bucket_end = len(self._bucket_ids)
            self._first_ids = _room(self._first_ids, bucket_end)
            self._second_ids = _room(self._second_ids, bucket_end)
            self._moduli = _room(self._moduli, bucket_end)
            new = slice(first_bucket, bucket_end)
            self._first_ids[new] = [self._token_id(key[0]) for key in new_keys]
            self._second_ids[new] = [self._token_id(key[1]) for key in new_keys]
            self._moduli[new] = [key[2] for key in new_keys]
        start, end = self._postings, self._postings + len(buckets)
        self._posting_buckets = _room(self._posting_buckets, end)
        self._posting_rows = _room(self._posting_rows, end)
        self._posting_buckets[start:end] = buckets
        self._posting_rows[start:end] = row
        self._postings = end
        self._row_pairs = _room(self._row_pairs, row + 1, _FREE)
        self._row_pairs[row] = len(buckets)
        self._active += 1

    def remove(self, row: int) -> None:
        """Withdraw every posting of ``row`` (a revocation).

        The row stops counting at once; its postings, and any bucket or
        token only they used, leave the arrays in the next rebuild.
        """
        if not self._occupied(row):
            raise DisputeError(f"index row {row} is not occupied")
        self._row_pairs[row] = _FREE
        self._active -= 1
        self._removed.add(row)

    def _rebuild(self) -> None:
        """Drop removed rows' postings, then unused buckets and tokens."""
        removed = np.fromiter(self._removed, dtype=np.int64, count=len(self._removed))
        self._removed = set()
        keep = ~np.isin(self._posting_rows[: self._postings], removed)
        posting_buckets = self._posting_buckets[: self._postings][keep]
        self._posting_rows = self._posting_rows[: self._postings][keep]
        self._postings = len(self._posting_rows)
        buckets = len(self._bucket_ids)
        live = np.bincount(posting_buckets, minlength=buckets) > 0
        self._posting_buckets = (np.cumsum(live) - 1)[posting_buckets]
        self._bucket_ids = {
            key: bucket
            for bucket, key in enumerate(compress(self._bucket_ids, live.tolist()))
        }
        first_ids = self._first_ids[:buckets][live]
        second_ids = self._second_ids[:buckets][live]
        self._moduli = self._moduli[:buckets][live]
        used = np.zeros(len(self._tokens), dtype=bool)
        used[first_ids] = True
        used[second_ids] = True
        renumber = np.cumsum(used) - 1
        self._first_ids = renumber[first_ids]
        self._second_ids = renumber[second_ids]
        self._tokens = list(compress(self._tokens, used.tolist()))
        self._token_ids = {token: index for index, token in enumerate(self._tokens)}

    # ------------------------------------------------------------------ #
    # Screening
    # ------------------------------------------------------------------ #

    def _frequencies(self, counts: SuspectCounts) -> np.ndarray:
        """The leaked copy's count of each index token (``0`` where absent).

        The copy is read at its own tokens: one vocabulary lookup per
        token, and the counts of those the index knows are scattered to
        their token ids. Its tokens are distinct, so every slot is
        written at most once.
        """
        if isinstance(counts, TokenHistogram):
            values = counts.counts_array()
        else:
            values = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        ids = np.fromiter(
            map(self._token_ids.get, counts, repeat(-1)), dtype=np.int64, count=len(values)
        )
        known = ids >= 0
        frequencies = np.zeros(len(self._tokens), dtype=np.int64)
        frequencies[ids[known]] = values[known]
        return frequencies

    def screen(
        self, data: SuspectData, detection: DetectionConfig
    ) -> CandidateScreen:
        """One vectorized bucket pass: which rows *could* the full pass accept.

        The leaked copy (any :data:`~repro.core.detector.SuspectData`;
        a token->count mapping is checked, never sorted) is read at its
        own tokens into one count per index token, the acceptance
        rule runs once per distinct bucket (via the shared
        :func:`~repro.core.detector.verify_pair_arrays`), and a
        ``np.bincount`` over the postings of accepted buckets turns them
        into per-row hit counts — no per-secret Python loop anywhere.
        """
        if self._active == 0:
            return CandidateScreen(
                rows=(),
                mode="empty",
                buckets_screened=0,
                buckets_accepted=0,
                active_secrets=0,
            )
        rows = np.flatnonzero(self._row_pairs != _FREE)
        pair_counts = self._row_pairs[rows]
        if not pair_counts.all():
            # Same contract as the full stacked pass it prunes for.
            raise DetectionError("a secret list contains no watermarked pairs")
        if self._removed:
            self._rebuild()
        buckets = len(self._bucket_ids)
        frequencies = self._frequencies(suspect_counts(data))
        first = frequencies[self._first_ids[:buckets]]
        second = frequencies[self._second_ids[:buckets]]
        moduli = self._moduli[:buckets]
        valid = moduli >= 2
        safe_moduli = np.where(valid, moduli, 1)
        accepted, _present, _remainder = verify_pair_arrays(
            first,
            second,
            safe_moduli=safe_moduli,
            valid=valid,
            thresholds=detection.thresholds_for(moduli),
            symmetric_tolerance=detection.symmetric_tolerance,
        )
        postings = self._postings
        hit_rows = self._posting_rows[:postings][
            accepted[self._posting_buckets[:postings]]
        ]
        hits = np.bincount(hit_rows, minlength=len(self._row_pairs))
        # required_pairs depends only on the stored-pair count: resolve
        # per distinct count and broadcast.
        distinct_counts, count_inverse = np.unique(pair_counts, return_inverse=True)
        required = np.asarray(
            [detection.required_pairs(int(count)) for count in distinct_counts],
            dtype=np.int64,
        )[count_inverse]
        return CandidateScreen(
            rows=tuple(rows[hits[rows] >= required].tolist()),
            mode="index",
            buckets_screened=buckets,
            buckets_accepted=int(accepted.sum()),
            active_secrets=self._active,
        )

    def stats(self) -> IndexStats:
        """Structural counters (bucket and posting totals)."""
        if self._removed:
            self._rebuild()
        return IndexStats(
            active_secrets=self._active,
            buckets=len(self._bucket_ids),
            postings=self._postings,
        )


__all__ = [
    "CandidateIndex",
    "CandidateScreen",
    "IndexStats",
]
