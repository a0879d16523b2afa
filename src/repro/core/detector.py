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

The detector reads the secret's memoised moduli
(:meth:`~repro.core.secrets.WatermarkSecret.moduli`) and resolves the
thresholds at construction (they depend only on the secret and the
configuration), so scanning many suspected datasets, or rebuilding a
detector for the same secret, pays the SHA-256 cost once per secret.
A suspect is read at the secret's distinct pair tokens
(:func:`pair_columns`) into one row of an ``int64`` count matrix, and
:meth:`WatermarkDetector.detect_matrix` verifies a whole matrix in one
vectorized ``(f_i - f_j) mod s_ij <= t`` pass: :meth:`~WatermarkDetector.detect`
(one row), :meth:`~WatermarkDetector.detect_many` (one row per suspect)
and the sharded sweeps of :func:`repro.core.batch.detect_many`, whose
driver gathers the matrix itself, all end in that one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import DetectionConfig
from repro.core.histogram import TokenCounts, TokenHistogram, checked_counts
from repro.core.secrets import WatermarkSecret
from repro.core.tokens import TokenPair, TokenValue
from repro.exceptions import DetectionError
from repro.obs.trace import span as trace_span

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

    ``counts`` is a :func:`suspect_counts` form: a histogram is read
    with :meth:`~repro.core.histogram.TokenHistogram.counts_of`, a
    checked mapping with one ``counts.get(token, 0)`` per token.
    """
    if isinstance(counts, TokenHistogram):
        return counts.counts_of(tokens)
    return np.fromiter(
        map(counts.get, tokens, repeat(0)), dtype=np.int64, count=len(tokens)
    )


def count_matrix(datasets: Sequence[SuspectData], columns: Sequence[str]) -> np.ndarray:
    """The ``int64`` counts of ``columns`` in each suspect, one row each.

    Row ``i`` is :func:`gather_counts` of :func:`suspect_counts` of
    ``datasets[i]``, so a malformed mapping raises
    :class:`~repro.exceptions.HistogramError` here. A histogram holding
    every column is read with one ``itemgetter(*columns)`` call on its
    rank dict, the getter built once per matrix; a histogram lacking a
    column, a one-column matrix and a mapping take :func:`gather_counts`
    (so a batch of mappings builds no getter).
    """
    matrix = np.empty((len(datasets), len(columns)), dtype=np.int64)
    ranks = None
    for row, data in enumerate(datasets):
        counts = suspect_counts(data)
        if isinstance(counts, TokenHistogram) and len(columns) > 1:
            ranks = ranks or itemgetter(*columns)
            try:
                matrix[row] = counts.counts_at(ranks, len(columns))
                continue
            except KeyError:
                pass  # an absent column: counts_of reads it as 0
        matrix[row] = gather_counts(counts, columns)
    return matrix


def pair_columns(secret: WatermarkSecret) -> List[str]:
    """The distinct tokens of ``secret``'s stored pairs, in column order.

    These are the only counts a verdict reads from a suspect: every
    first member in stored-pair order, then every second member, each
    token once, at its first appearance. Deriving them hashes nothing,
    so a driver can read suspects at a detector's columns without
    building the detector (:func:`repro.core.batch.dispatch_detection`).
    """
    return list(
        dict.fromkeys(
            [pair.first for pair in secret.pairs]
            + [pair.second for pair in secret.pairs]
        )
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
        with trace_span("core.detector_build"):
            self.secret = secret
            self.config = config or DetectionConfig()
            # The moduli come from the secret's memo (derived once per
            # secret), the thresholds from the moduli and the configuration,
            # so repeated detect calls skip all SHA-256 work.
            self._moduli = secret.moduli()
            self._thresholds = self.config.thresholds_for(self._moduli)
            # A modulus of 0 or 1 carries no information (the generation
            # algorithm never selects such pairs); treat the pair as
            # unverifiable so forged secrets cannot exploit it.
            self._valid = self._moduli >= 2
            self._safe_moduli = np.where(self._valid, self._moduli, 1)
            # The distinct pair tokens are the columns read from a suspect;
            # the pair sides index into them.
            self._columns = pair_columns(secret)
            positions = {token: index for index, token in enumerate(self._columns)}
            self._first_columns = np.fromiter(
                map(positions.__getitem__, [pair.first for pair in secret.pairs]),
                dtype=np.intp,
            )
            self._second_columns = np.fromiter(
                map(positions.__getitem__, [pair.second for pair in secret.pairs]),
                dtype=np.intp,
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
        return self.detect_matrix(row[np.newaxis], collect_evidence=collect_evidence)[0]

    def detect_many(
        self,
        datasets: Sequence[SuspectData],
        *,
        collect_evidence: bool = False,
    ) -> List[DetectionResult]:
        """Batch detection: verify every stored pair on every dataset.

        Each dataset is read at this detector's columns (the distinct
        pair tokens, see :func:`pair_columns`) into one row of a count
        matrix, which :meth:`detect_matrix` verifies in a single
        vectorized modulo pass — no per-pair Python loop, and the moduli
        hashes are shared across the whole batch.

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
        return self.detect_matrix(
            count_matrix(datasets, self._columns), collect_evidence=collect_evidence
        )

    def detect_matrix(
        self, matrix: np.ndarray, *, collect_evidence: bool = False
    ) -> List[DetectionResult]:
        """Verdicts for suspects already read at this detector's columns.

        This is the one verdict step: :meth:`detect` and
        :meth:`detect_many` gather their suspects and call it, and so
        does a ``detect.counts`` task, whose matrix the dispatching
        driver gathered (:func:`repro.core.batch.dispatch_detection`).

        Parameters
        ----------
        matrix : numpy.ndarray
            One row per suspect and one column per token of
            :func:`pair_columns`, holding that token's count in the
            suspect (``0`` when absent; an all-zero row is a suspect
            holding none of the secret's tokens).
        collect_evidence : bool, optional
            When True, per-pair :class:`PairEvidence` is materialised
            for every row.

        Returns
        -------
        List[DetectionResult]
            One result per row, in row order.

        Raises
        ------
        DetectionError
            Unless ``matrix`` is a 2-D ``int64`` array with one column
            per pair token and no negative entry.
        """
        if not (
            isinstance(matrix, np.ndarray)
            and matrix.ndim == 2
            and matrix.dtype == np.int64
            and matrix.shape[1] == len(self._columns)
        ):
            got = (
                f"{matrix.dtype} of shape {matrix.shape}"
                if isinstance(matrix, np.ndarray)
                else type(matrix).__name__
            )
            raise DetectionError(
                "a count matrix must be a 2-D int64 array with "
                f"{len(self._columns)} columns, got {got}"
            )
        if matrix.size and matrix.min() < 0:
            raise DetectionError("a count matrix must not hold a negative count")
        with trace_span("core.detect_pass") as stage:
            if stage.recording:
                stage.set_attribute("batch", matrix.shape[0])
            accepted, present, remainder = verify_pair_arrays(
                matrix[:, self._first_columns],
                matrix[:, self._second_columns],
                safe_moduli=self._safe_moduli,
                valid=self._valid,
                thresholds=self._thresholds,
                symmetric_tolerance=self.config.symmetric_tolerance,
            )
            accepted_counts = accepted.sum(axis=1)
            results: List[DetectionResult] = []
            for row in range(matrix.shape[0]):
                evidence: Tuple[PairEvidence, ...] = ()
                if collect_evidence:
                    evidence = build_pair_evidence(
                        self.secret.pairs,
                        accepted[row],
                        present[row],
                        remainder[row],
                        self._moduli,
                        self._thresholds,
                        self._valid,
                    )
                accepted_pairs = int(accepted_counts[row])
                results.append(
                    DetectionResult(
                        accepted=accepted_pairs >= self._required,
                        accepted_pairs=accepted_pairs,
                        required_pairs=self._required,
                        total_pairs=len(self.secret.pairs),
                        evidence=evidence,
                    )
                )
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
    "count_matrix",
    "detect_watermark",
    "detector_fingerprint",
    "gather_counts",
    "pair_columns",
    "suspect_counts",
    "verify_pair_arrays",
]
