"""Watermark detection — Algorithm II (``WM_Detect``).

Given a suspected dataset ``D'_w``, the owner's secret list ``L_sc`` and
two thresholds (``t``: per-pair tolerance, ``k``: minimum accepted pairs),
detection

1. reads the suspected dataset's counts of the stored pairs' tokens
   (a token->count mapping is read only at those tokens and never
   sorted; a token sequence is counted first — no boundaries are
   needed),
2. recomputes ``s_ij`` for every stored pair whose two tokens are present,
3. accepts a pair when ``(f_i - f_j) mod s_ij <= t``,
4. declares the dataset watermarked when at least ``k`` pairs verified.

Detection is linear in the number of stored pairs, which is the paper's
"verification in linear time" claim; it never needs the original dataset
(the scheme is blind).

The detector caches the recomputed moduli and resolved thresholds at
construction (they depend only on the secret and the configuration), so
scanning many suspected datasets with one detector pays the SHA-256 cost
once; each :meth:`WatermarkDetector.detect` call is then a single
vectorized ``(f_i - f_j) mod s_ij <= t`` pass over NumPy arrays.
:meth:`WatermarkDetector.detect_many` extends the same pass to a whole
batch of suspected datasets at once (one matrix operation), which is what
the marketplace-scale sweeps and :func:`repro.core.batch.detect_many` use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import DetectionConfig
from repro.core.hashing import pair_modulus
from repro.core.histogram import TokenCounts, TokenHistogram, checked_counts
from repro.core.secrets import WatermarkSecret
from repro.core.tokens import TokenPair, TokenValue
from repro.exceptions import DetectionError

#: A suspected dataset: a raw token sequence, a token->count mapping or
#: a pre-built histogram. A ``Mapping`` is always read as token->count,
#: never iterated as a sequence of its keys.
SuspectData = Union[Sequence[TokenValue], Mapping[TokenValue, int], TokenHistogram]

#: A suspect in the form detection reads it (see :func:`suspect_counts`).
SuspectCounts = Union[TokenCounts, TokenHistogram]


def suspect_counts(data: SuspectData) -> SuspectCounts:
    """One suspected dataset in the form detection reads it.

    A histogram passes through and a token sequence is counted into
    one. A token->count mapping is only checked
    (:func:`~repro.core.histogram.checked_counts`, which raises
    :class:`~repro.exceptions.HistogramError` on a malformed one): it is
    never sorted or ranked, since a verdict reads just the counts of the
    secret's tokens.
    """
    if isinstance(data, TokenHistogram):
        return data
    if isinstance(data, Mapping):
        return checked_counts(data)
    return TokenHistogram.from_tokens(data)


def gather_counts(counts: SuspectCounts, tokens: Sequence[str]) -> np.ndarray:
    """``int64`` counts of ``tokens`` in one suspect, ``0`` where absent.

    ``counts`` is a :func:`suspect_counts` form; a checked mapping is
    read with one ``counts.get(token, 0)`` per token.
    """
    if isinstance(counts, TokenHistogram):
        return counts.arrays().frequencies(tokens)
    return np.fromiter(
        map(counts.get, tokens, repeat(0)), dtype=np.int64, count=len(tokens)
    )


def detector_fingerprint(
    secret: WatermarkSecret,
    config: Optional[DetectionConfig] = None,
) -> str:
    """Cache key of the detector a ``(secret, config)`` pair builds.

    Equal fingerprints guarantee identical moduli, thresholds and
    required-pair counts — i.e. a detector built from one input can
    serve requests for the other verbatim. The secret half is the keyed
    commitment from :meth:`~repro.core.secrets.WatermarkSecret.fingerprint`,
    so the key reveals nothing about the pairs; the config half is the
    plain-text knob listing from
    :meth:`~repro.core.config.DetectionConfig.fingerprint`.
    """
    return f"{secret.fingerprint()}|{(config or DetectionConfig()).fingerprint()}"


def verify_pair_arrays(
    first: np.ndarray,
    second: np.ndarray,
    *,
    safe_moduli: np.ndarray,
    valid: np.ndarray,
    thresholds: np.ndarray,
    symmetric_tolerance: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vectorized ``(f_i - f_j) mod s_ij <= t`` acceptance rule.

    This is the single implementation of the paper's pair-verification
    arithmetic, shared by :class:`WatermarkDetector` (one secret, one or
    many datasets) and :func:`repro.core.batch.detect_many_secrets`
    (many secrets, one dataset) so the two paths cannot diverge.

    ``first``/``second`` hold the pair-member frequencies (0 marks a
    missing token) — 1-D for one suspect, 2-D ``(datasets, pairs)`` for
    a batch — broadcastable against the per-pair ``safe_moduli`` /
    ``valid`` / ``thresholds`` arrays. Returns ``(accepted, present,
    remainder)`` arrays of the broadcast shape, where ``remainder`` is
    ``(first - second) mod safe_moduli`` and acceptance requires both
    tokens present, a usable modulus and the (optionally symmetric)
    residue within threshold.
    """
    first = np.asarray(first)
    second = np.asarray(second)
    present = (first > 0) & (second > 0)
    remainder = (first - second) % safe_moduli
    if symmetric_tolerance:
        residue = np.minimum(remainder, safe_moduli - remainder)
    else:
        residue = remainder
    accepted = present & valid & (residue <= thresholds)
    return accepted, present, remainder


def build_pair_evidence(
    pairs: Sequence["TokenPair"],
    accepted: np.ndarray,
    present: np.ndarray,
    remainder: np.ndarray,
    moduli: np.ndarray,
    thresholds: np.ndarray,
    valid: np.ndarray,
) -> Tuple["PairEvidence", ...]:
    """Materialise per-pair evidence objects from one vector pass."""
    return tuple(
        PairEvidence(
            pair=pair,
            present=bool(present[index]),
            modulus=int(moduli[index]),
            remainder=(
                int(remainder[index]) if present[index] and valid[index] else None
            ),
            threshold=int(thresholds[index]),
            accepted=bool(accepted[index]),
        )
        for index, pair in enumerate(pairs)
    )


@dataclass(frozen=True)
class PairEvidence:
    """Per-pair detection outcome.

    ``present`` is False when either token of the pair is missing from the
    suspected dataset (the pair then automatically fails); ``remainder``
    is the observed ``(f_i - f_j) mod s_ij`` for present pairs.
    """

    pair: TokenPair
    present: bool
    modulus: int
    remainder: Optional[int]
    threshold: int
    accepted: bool


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one watermark detection run.

    ``accepted`` is the boolean verdict; the remaining fields expose the
    evidence needed by the evaluation (accepted-pair rates, per-pair
    remainders) and by the dispute protocol. Batch detection runs skip
    the per-pair evidence objects for speed (``evidence`` is then empty).
    """

    accepted: bool
    accepted_pairs: int
    required_pairs: int
    total_pairs: int
    evidence: Tuple[PairEvidence, ...]

    @property
    def accepted_fraction(self) -> float:
        """Fraction of stored pairs that verified (0 when none stored)."""
        if self.total_pairs == 0:
            return 0.0
        return self.accepted_pairs / self.total_pairs

    def summary(self) -> Dict[str, object]:
        """Flat summary used by the CLI and benchmarks."""
        return {
            "accepted": self.accepted,
            "accepted_pairs": self.accepted_pairs,
            "required_pairs": self.required_pairs,
            "total_pairs": self.total_pairs,
            "accepted_fraction": self.accepted_fraction,
        }


class WatermarkDetector:
    """Reusable ``WM_Detect`` engine for one secret list.

    Parameters
    ----------
    secret:
        The owner's secret list ``L_sc`` produced at generation time.
    config:
        Detection thresholds; defaults to the strict setting ``t = 0`` and
        ``k = 50%`` of the stored pairs.
    """

    def __init__(
        self,
        secret: WatermarkSecret,
        config: Optional[DetectionConfig] = None,
    ) -> None:
        if len(secret.pairs) == 0:
            raise DetectionError("the secret list contains no watermarked pairs")
        self.secret = secret
        self.config = config or DetectionConfig()
        # The moduli depend only on the secret, the thresholds only on the
        # moduli and the configuration: compute both once per detector so
        # repeated detect calls skip all SHA-256 work.
        self._moduli = np.fromiter(
            (
                pair_modulus(pair.first, pair.second, secret.secret, secret.modulus_cap)
                for pair in secret.pairs
            ),
            dtype=np.int64,
            count=len(secret.pairs),
        )
        self._thresholds = np.fromiter(
            (self.config.threshold_for(int(modulus)) for modulus in self._moduli),
            dtype=np.int64,
            count=len(secret.pairs),
        )
        # A modulus of 0 or 1 carries no information (the generation
        # algorithm never selects such pairs); treat the pair as
        # unverifiable so forged secrets cannot exploit it.
        self._valid = self._moduli >= 2
        self._safe_moduli = np.where(self._valid, self._moduli, 1)
        self._first_tokens = [pair.first for pair in secret.pairs]
        self._second_tokens = [pair.second for pair in secret.pairs]
        # The distinct pair tokens are the columns read from a suspect;
        # the pair sides index into them.
        positions: Dict[str, int] = {}
        for token in self._first_tokens + self._second_tokens:
            positions.setdefault(token, len(positions))
        self._columns: List[str] = list(positions)
        self._first_columns = np.fromiter(
            map(positions.__getitem__, self._first_tokens), dtype=np.intp
        )
        self._second_columns = np.fromiter(
            map(positions.__getitem__, self._second_tokens), dtype=np.intp
        )
        self._required = self.config.required_pairs(len(secret.pairs))
        self._fingerprint: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        """Cache key of this detector (see :func:`detector_fingerprint`).

        Computed lazily and memoised: the service-layer caches hash a
        detector once, not per request.
        """
        if self._fingerprint is None:
            self._fingerprint = detector_fingerprint(self.secret, self.config)
        return self._fingerprint

    def reconfigured(self, config: Optional[DetectionConfig] = None) -> "WatermarkDetector":
        """A detector for the same secret under different thresholds.

        The per-pair moduli depend only on the secret, so the clone
        reuses this detector's precomputed modulus arrays and re-resolves
        just the thresholds and the required pair count — no SHA-256
        re-derivation. Threshold sweeps (one detector per ``t``) pay the
        moduli once instead of once per sweep point; verdicts are
        identical to constructing ``WatermarkDetector(secret, config)``
        from scratch.
        """
        clone = object.__new__(WatermarkDetector)
        clone.secret = self.secret
        clone.config = config or DetectionConfig()
        clone._moduli = self._moduli
        clone._thresholds = np.fromiter(
            (clone.config.threshold_for(int(modulus)) for modulus in self._moduli),
            dtype=np.int64,
            count=len(self.secret.pairs),
        )
        clone._valid = self._valid
        clone._safe_moduli = self._safe_moduli
        clone._first_tokens = self._first_tokens
        clone._second_tokens = self._second_tokens
        clone._columns = self._columns
        clone._first_columns = self._first_columns
        clone._second_columns = self._second_columns
        clone._required = clone.config.required_pairs(len(self.secret.pairs))
        clone._fingerprint = None
        return clone

    def pair_components(self) -> Tuple[List[str], List[str], np.ndarray, np.ndarray]:
        """The precomputed per-pair verification inputs of this detector.

        Returns ``(first_tokens, second_tokens, moduli, thresholds)`` in
        stored-pair order. Stacked many-secrets passes
        (:func:`repro.core.batch.detect_many_secrets`) concatenate these
        across cached detectors instead of re-deriving the SHA-256 moduli
        per call. The arrays are the detector's own working state — treat
        them as read-only.
        """
        return self._first_tokens, self._second_tokens, self._moduli, self._thresholds

    # ------------------------------------------------------------------ #
    # Vectorized verification core
    # ------------------------------------------------------------------ #

    def _verify(
        self, first: np.ndarray, second: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One vectorized ``(f_i - f_j) mod s_ij <= t`` pass.

        ``first``/``second`` hold the pair-member frequencies (0 marks a
        missing token) for one dataset (1-D) or a batch (2-D, one row per
        dataset). Returns ``(accepted, present, remainder)`` arrays of
        the same shape.
        """
        return verify_pair_arrays(
            first,
            second,
            safe_moduli=self._safe_moduli,
            valid=self._valid,
            thresholds=self._thresholds,
            symmetric_tolerance=self.config.symmetric_tolerance,
        )

    def _result(self, accepted_pairs: int, evidence: Tuple[PairEvidence, ...]) -> DetectionResult:
        return DetectionResult(
            accepted=accepted_pairs >= self._required,
            accepted_pairs=accepted_pairs,
            required_pairs=self._required,
            total_pairs=len(self.secret.pairs),
            evidence=evidence,
        )

    def _evidence(
        self, accepted: np.ndarray, present: np.ndarray, remainder: np.ndarray
    ) -> Tuple[PairEvidence, ...]:
        """Materialise per-pair evidence objects from the vector pass."""
        return build_pair_evidence(
            self.secret.pairs,
            accepted,
            present,
            remainder,
            self._moduli,
            self._thresholds,
            self._valid,
        )

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def detect(
        self, data: SuspectData, *, collect_evidence: bool = True
    ) -> DetectionResult:
        """Run detection against a suspected dataset or its histogram.

        Parameters
        ----------
        data : SuspectData
            A raw token sequence, a token->count mapping (only the
            secret's tokens are read from it, see :func:`suspect_counts`)
            or a pre-built :class:`~repro.core.histogram.TokenHistogram`.
        collect_evidence : bool, optional
            When False, skips building the per-pair
            :class:`PairEvidence` objects (the verdict and counts are
            unaffected), which large sweeps use to stay allocation-free.

        Returns
        -------
        DetectionResult
            The verdict with accepted/required/total pair counts.
        """
        row = gather_counts(suspect_counts(data), self._columns)
        accepted, present, remainder = self._verify(
            row[self._first_columns], row[self._second_columns]
        )
        evidence: Tuple[PairEvidence, ...] = ()
        if collect_evidence:
            evidence = self._evidence(accepted, present, remainder)
        return self._result(int(accepted.sum()), evidence)

    def detect_many(
        self,
        datasets: Sequence[SuspectData],
        *,
        collect_evidence: bool = False,
    ) -> List[DetectionResult]:
        """Batch detection: verify every stored pair on every dataset.

        The pair frequencies of all datasets are stacked into one matrix
        and verified with a single vectorized modulo pass — the per-pair
        Python loop of the seed implementation disappears entirely, and
        the moduli hashes are shared across the whole batch.

        Parameters
        ----------
        datasets : Sequence[SuspectData]
            Suspected datasets (raw token sequences, token->count
            mappings and pre-built histograms, mixed freely).
        collect_evidence : bool, optional
            When True, per-pair :class:`PairEvidence` is materialised
            for every dataset.

        Returns
        -------
        List[DetectionResult]
            One result per dataset, in input order. To shard this call
            across processes, see :func:`repro.core.batch.detect_many`.
        """
        if not datasets:
            return []
        matrix = np.empty((len(datasets), len(self._columns)), dtype=np.int64)
        for row, data in enumerate(datasets):
            matrix[row] = gather_counts(suspect_counts(data), self._columns)
        accepted, present, remainder = self._verify(
            matrix[:, self._first_columns], matrix[:, self._second_columns]
        )
        accepted_counts = accepted.sum(axis=1)
        results: List[DetectionResult] = []
        for row in range(len(datasets)):
            evidence: Tuple[PairEvidence, ...] = ()
            if collect_evidence:
                evidence = self._evidence(accepted[row], present[row], remainder[row])
            results.append(self._result(int(accepted_counts[row]), evidence))
        return results


def detect_watermark(
    data: SuspectData,
    secret: WatermarkSecret,
    *,
    pair_threshold: int = 0,
    min_accepted_pairs: Optional[int] = None,
    min_accepted_fraction: float = 0.5,
    pair_threshold_fraction: Optional[float] = None,
) -> DetectionResult:
    """Functional one-shot wrapper mirroring ``WM_Detect(D'_w, L_sc, k, t)``."""
    config = DetectionConfig(
        pair_threshold=pair_threshold,
        pair_threshold_fraction=pair_threshold_fraction,
        min_accepted_pairs=min_accepted_pairs,
        min_accepted_fraction=min_accepted_fraction,
    )
    return WatermarkDetector(secret, config).detect(data)


__all__ = [
    "PairEvidence",
    "DetectionResult",
    "SuspectCounts",
    "SuspectData",
    "WatermarkDetector",
    "build_pair_evidence",
    "detect_watermark",
    "detector_fingerprint",
    "gather_counts",
    "suspect_counts",
    "verify_pair_arrays",
]
