"""Differential parity harness anchored at the reference implementation.

The **reference dict implementations** (:mod:`repro.core.reference` and
the per-pair arithmetic in :func:`repro.core.modification.plan_adjustment`)
are the executable specification; the vectorized NumPy engine and the
C-speed token passes must agree with them bit for bit — verdicts,
evidence vectors, embedding deltas, token counts and edited datasets.

The ``assert_*`` helpers below run one (dataset, secret, config) case
through both layers and raise on any divergence. They are used by
``tests/test_backend_parity.py`` (hypothesis-driven sweeps) and reused by
the other parity suites (``test_engine_parity.py``,
``test_batch_secrets.py``, ``test_embedding.py``) so the repo has a single
parity implementation instead of several ad-hoc ones.

This module is importable (no ``test_`` prefix) and must stay free of
test functions; pytest's rootdir-on-``sys.path`` behaviour makes it
reachable as ``import parity_harness`` from any test module.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import detect_many, detect_many_secrets, dispatch_detection
from repro.core.config import DetectionConfig, GenerationConfig
from repro.core.detector import DetectionResult, WatermarkDetector
from repro.core.eligibility import generate_eligible_pairs
from repro.core.generator import WatermarkGenerator, WatermarkResult
from repro.core.histogram import TokenHistogram
from repro.core.knapsack import select_within_budget
from repro.core.matching import vertex_disjoint
from repro.core.modification import plan_adjustment
from repro.core.reference import (
    apply_deltas_reference,
    detect_reference,
    histogram_from_tokens_reference,
)
from repro.core.secrets import WatermarkSecret
from repro.core.streaming import StreamingHistogramBuilder
from repro.core.tokens import CodedTokens
from repro.core.transform import apply_deltas_to_tokens, histogram_deltas, transform_dataset
from repro.dispute import WatermarkRegistry
from repro.exceptions import GenerationError, HistogramError
from repro.exec.chunking import split_chunks
from repro.exec.scheduler import LocalScheduler

#: Default secret / modulus cap shared with the engine-parity suite.
HARNESS_SECRET = 0xFEEDFACE
HARNESS_Z = 61


# --------------------------------------------------------------------------- #
# Case construction
# --------------------------------------------------------------------------- #


def build_watermarked_case(
    counts,
    *,
    secret_value: int = HARNESS_SECRET,
    modulus_cap: int = HARNESS_Z,
    budget: float = 2.0,
) -> Optional[Tuple[TokenHistogram, WatermarkSecret]]:
    """Build ``(histogram, secret)`` for a counts mapping, or ``None``.

    Follows the generation pipeline's shape (eligibility -> vertex-disjoint
    matching -> budgeted selection) and commits the selected pairs into a
    :class:`WatermarkSecret`. Returns ``None`` when the counts admit no
    watermark (no eligible pairs / empty selection), which hypothesis
    callers treat as a vacuous draw.
    """
    histogram = TokenHistogram.from_counts(counts)
    candidates = vertex_disjoint(
        generate_eligible_pairs(histogram, secret_value, modulus_cap)
    )
    if not candidates:
        return None
    selection = select_within_budget(histogram, candidates, budget)
    if not selection.selected:
        return None
    secret = WatermarkSecret.build(
        [item.pair for item in selection.selected], secret_value, modulus_cap
    )
    return histogram, secret


def perturbed(histogram: TokenHistogram, deltas) -> TokenHistogram:
    """Apply a (possibly destructive) delta mapping, tolerating rejects."""
    try:
        return histogram.with_updates(dict(deltas))
    except HistogramError:
        return histogram


# --------------------------------------------------------------------------- #
# Parity assertions
# --------------------------------------------------------------------------- #


def _assert_results_match(
    ours: DetectionResult, reference: DetectionResult, *, where: str
) -> None:
    assert ours.accepted == reference.accepted, where
    assert ours.accepted_pairs == reference.accepted_pairs, where
    assert ours.required_pairs == reference.required_pairs, where
    assert ours.total_pairs == reference.total_pairs, where


def assert_detection_parity(
    suspect,
    secret: WatermarkSecret,
    config: Optional[DetectionConfig] = None,
) -> DetectionResult:
    """Reference vs the detector for one suspect: verdicts AND evidence.

    Runs the reference dict loop, then checks the single-dataset detector
    pass (including the full per-pair evidence tuple) and the one-row
    batch pass. Returns the reference result so callers can make
    additional assertions on it.
    """
    reference = detect_reference(suspect, secret, config)
    detector = WatermarkDetector(secret, config)
    single = detector.detect(suspect)
    _assert_results_match(single, reference, where="single-detect diverged")
    assert single.evidence == reference.evidence, "single-detect evidence diverged"
    batched = detector.detect_many([suspect], collect_evidence=True)
    _assert_results_match(batched[0], reference, where="batched detect diverged")
    assert batched[0].evidence == reference.evidence, "batched evidence diverged"
    return reference


class _RecordingScheduler(LocalScheduler):
    """An in-process scheduler that remembers the task functions it ran."""

    functions: Tuple[str, ...] = ()

    def run(self, tasks, **kwargs):
        self.functions = tuple(task.function for task in tasks)
        return super().run(tasks, **kwargs)


def _counted(suspect) -> bool:
    """Whether dispatch reads ``suspect`` on the driver (no token list)."""
    return isinstance(suspect, (TokenHistogram, Mapping))


def assert_batch_parity(
    suspects: Sequence,
    secret: WatermarkSecret,
    config: Optional[DetectionConfig] = None,
    *,
    chunk_size: Optional[int] = None,
    collect_evidence: bool = False,
) -> List[DetectionResult]:
    """Reference vs the engine for a whole batch, in input order.

    Suspects may mix token sequences, histograms and token->count
    mappings; the reference reads a mapping as
    ``TokenHistogram.from_counts(mapping)``. Covers the matrix
    ``detect_many`` pass and, when ``chunk_size`` is given, the chunked
    scheduler dispatch of :func:`repro.core.batch.dispatch_detection`
    running in-process — the same chunk boundaries and the same task
    functions the sharded workers see (``detect.counts`` for a chunk
    without token sequences, ``detect.chunk`` otherwise), without
    spawning processes. With ``collect_evidence`` every per-pair
    evidence tuple must match the reference's too.
    """
    references = [
        detect_reference(
            TokenHistogram.from_counts(suspect) if isinstance(suspect, Mapping) else suspect,
            secret,
            config,
        )
        for suspect in suspects
    ]

    def check(results, where: str) -> None:
        assert len(results) == len(references), where
        for index, reference in enumerate(references):
            _assert_results_match(results[index], reference, where=f"{where}[{index}] diverged")
            expected = reference.evidence if collect_evidence else ()
            assert results[index].evidence == expected, f"{where}[{index}] evidence diverged"

    detector = WatermarkDetector(secret, config)
    check(
        detect_many(suspects, detector=detector, collect_evidence=collect_evidence),
        "detect_many",
    )
    if chunk_size is not None:
        inline_state = {detector.fingerprint: detector}
        with _RecordingScheduler(1, inline_state=inline_state) as scheduler:
            chunked = dispatch_detection(
                scheduler,
                secret,
                config,
                suspects,
                chunk_size=chunk_size,
                collect_evidence=collect_evidence,
            )
        check(chunked, f"chunked detect_many (chunk_size={chunk_size})")
        assert scheduler.functions == tuple(
            "detect.counts" if all(map(_counted, chunk)) else "detect.chunk"
            for chunk in split_chunks(suspects, chunk_size)
        ), "a chunk took the wrong task"
    return references


def assert_many_secrets_parity(
    data,
    secrets: Sequence[WatermarkSecret],
    config: Optional[DetectionConfig] = None,
) -> List[DetectionResult]:
    """Reference vs the stacked many-secrets pass.

    Each secret's reference verdict comes from the dict loop; the engine
    must reproduce it through :func:`detect_many_secrets`.
    """
    references = [detect_reference(data, secret, config) for secret in secrets]
    results = detect_many_secrets(data, secrets, config, collect_evidence=True)
    assert len(results) == len(references)
    for index, reference in enumerate(references):
        where = f"detect_many_secrets[{index}] diverged"
        _assert_results_match(results[index], reference, where=where)
        assert results[index].evidence == reference.evidence, where
    return references


def _raises_histogram_error(call) -> bool:
    try:
        call()
    except HistogramError:
        return True
    return False


def assert_counts_parity(
    counts,
    secrets: Sequence[WatermarkSecret],
    config: Optional[DetectionConfig] = None,
) -> Optional[List[DetectionResult]]:
    """A token->count mapping vs its histogram, through every reader.

    The detector (:meth:`~WatermarkDetector.detect` with evidence, and
    :meth:`~WatermarkDetector.detect_many` on one batch mixing the
    mapping with its histogram and its token list),
    :func:`detect_many_secrets` and
    :meth:`WatermarkRegistry.attribute_leak` read the mapping itself. Each must answer what
    :func:`detect_reference` answers for
    ``TokenHistogram.from_counts(counts)``. When ``from_counts`` rejects
    the mapping, every reader must raise ``HistogramError`` too.
    Returns the reference results, or ``None`` for a rejected mapping.
    """
    detection = config or DetectionConfig()
    registry = WatermarkRegistry()
    for index, secret in enumerate(secrets):
        registry.register(f"buyer-{index}", secret)
    detectors = [WatermarkDetector(secret, detection) for secret in secrets]
    try:
        histogram = TokenHistogram.from_counts(counts)
    except HistogramError:
        calls = [
            lambda: detectors[0].detect(counts),
            lambda: detectors[0].detect_many([counts]),
            lambda: detect_many_secrets(counts, secrets, detection),
            lambda: registry.attribute_leak(counts, detection=detection),
        ]
        for position, call in enumerate(calls):
            assert _raises_histogram_error(call), f"reader {position} accepted rejected counts"
        return None
    references = [detect_reference(histogram, secret, detection) for secret in secrets]
    tokens = [token for token, count in histogram.as_dict().items() for _ in range(count)]
    for detector, reference in zip(detectors, references):
        single = detector.detect(counts)
        _assert_results_match(single, reference, where="detect(counts) diverged")
        assert single.evidence == reference.evidence, "detect(counts) evidence diverged"
        mixed = detector.detect_many([counts, histogram, tokens], collect_evidence=True)
        for position, result in enumerate(mixed):
            where = f"mixed detect_many[{position}] diverged"
            _assert_results_match(result, reference, where=where)
            assert result.evidence == reference.evidence, where
    stacked = detect_many_secrets(counts, secrets, detection, collect_evidence=True)
    for index, reference in enumerate(references):
        where = f"detect_many_secrets(counts)[{index}] diverged"
        _assert_results_match(stacked[index], reference, where=where)
        assert stacked[index].evidence == reference.evidence, where
    expected = {
        f"buyer-{index}" for index, reference in enumerate(references) if reference.accepted
    }
    matches = registry.attribute_leak(counts, detection=detection)
    assert {buyer for buyer, _fraction in matches} == expected, "attribute_leak diverged"
    return references


def assert_embedding_results_identical(
    left: WatermarkResult, right: WatermarkResult, *, where: str = "embedding"
) -> None:
    """Field-by-field ``WatermarkResult`` equality (timings excluded)."""
    assert left.original_histogram == right.original_histogram, where
    assert left.watermarked_histogram == right.watermarked_histogram, where
    assert left.watermarked_tokens == right.watermarked_tokens, where
    assert left.secret == right.secret, where
    assert left.selection == right.selection, where
    assert left.adjustments == right.adjustments, where
    assert left.eligible_pairs == right.eligible_pairs, where


def assert_embedding_parity(
    counts,
    *,
    secret_value: int = HARNESS_SECRET,
    config: Optional[GenerationConfig] = None,
    rng_seed: int = 1234,
) -> Optional[WatermarkResult]:
    """Embedding deltas: the full pipeline vs reference per-pair arithmetic.

    Runs ``WM_Generate`` on a fresh histogram (cold array caches, so the
    eligibility scan, the delta planning and the histogram scatter all
    run) and asserts:

    * every planned adjustment equals the reference
      :func:`plan_adjustment` arithmetic evaluated per pair;
    * the watermarked histogram equals the original with the reference
      deltas applied.

    Returns the result (``None`` when the counts admit no watermark).
    """
    histogram = TokenHistogram.from_counts(counts)
    fresh = TokenHistogram.from_counts(counts)  # cold array caches
    generator = WatermarkGenerator(config, rng=rng_seed)
    try:
        result = generator.generate(fresh, secret_value=secret_value)
    except Exception:
        return None
    # Reference check: per-pair dict arithmetic reproduces the deltas.
    reference_deltas: dict = {}
    for item, adjustment in zip(result.selection.selected, result.adjustments):
        expected = plan_adjustment(
            histogram.frequency(item.pair.first),
            histogram.frequency(item.pair.second),
            item.modulus,
            item.pair,
        )
        assert adjustment == expected, (
            f"adjustment for {item.pair} diverged from plan_adjustment reference"
        )
        for token, delta in expected.as_deltas().items():
            reference_deltas[token] = reference_deltas.get(token, 0) + delta
    assert result.watermarked_histogram == histogram.with_updates(
        reference_deltas
    ), "watermarked histogram diverged from reference delta application"
    return result


def assert_eligibility_parity(
    histogram: TokenHistogram,
    *,
    secret_value: int = HARNESS_SECRET,
    modulus_cap: int = HARNESS_Z,
    require_modification: bool = False,
) -> list:
    """Streaming-loop eligibility vs the vectorized :class:`PairScanPlan`.

    The loop fallback (no plan store) is the reference; the plan path
    must reproduce the exact ordered :class:`EligiblePair` list.
    """
    reference = generate_eligible_pairs(
        histogram,
        secret_value,
        modulus_cap,
        require_modification=require_modification,
    )
    plan_store: dict = {}
    vectorized = generate_eligible_pairs(
        histogram,
        secret_value,
        modulus_cap,
        require_modification=require_modification,
        plan_store=plan_store,
    )
    if len(histogram) >= 2:
        assert plan_store, "vectorized eligibility path was not taken"
    assert vectorized == reference, "vectorized eligibility scan diverged"
    return reference


def assert_count_parity(values: Sequence) -> TokenHistogram:
    """The batched token count vs the reference per-occurrence loop.

    ``TokenHistogram.from_tokens`` must equal
    :func:`repro.core.reference.histogram_from_tokens_reference`, with
    exact ``str`` tokens, for list, tuple, iterator and
    :class:`~repro.core.tokens.CodedTokens` inputs (the last counted
    from its codes), and so must a streaming builder whose
    batch size splits the input (every batch boundary is a place where
    the fast ``Counter`` path and the recount can meet). Returns the
    reference histogram.
    """
    values = list(values)
    reference = histogram_from_tokens_reference(values)
    for shaped in (values, tuple(values), iter(values), CodedTokens(values)):
        counted = TokenHistogram.from_tokens(shaped)
        assert counted == reference, f"from_tokens({type(shaped).__name__}) diverged"
        assert all(type(token) is str for token in counted.tokens)
    builder = StreamingHistogramBuilder(chunk_size=max(1, len(values) // 3))
    builder.add_tokens(iter(values))
    assert builder.build() == reference, "batched streaming count diverged"
    return reference


def _edit_outcome(edit, tokens, deltas, seed):
    """An edit's output list, or the message of the error it raised."""
    try:
        return edit(tokens, deltas, rng=seed)
    except GenerationError as error:
        return str(error)


def assert_edit_parity(tokens: Sequence, deltas, seed: int):
    """The sliced dataset edit vs the reference three-pass edit.

    ``apply_deltas_to_tokens(t, d, rng=seed)`` must return exactly what
    :func:`repro.core.reference.apply_deltas_reference` returns for the
    same deltas mapping and seed (same values of the same types, or the
    same error), for list, tuple and
    :class:`~repro.core.tokens.CodedTokens` inputs. Returns the
    reference outcome.
    """
    return _assert_same_edit("apply_deltas_to_tokens", apply_deltas_to_tokens, tokens, deltas, seed)


def assert_transform_parity(
    tokens: Sequence, original: TokenHistogram, target: TokenHistogram, seed: int
):
    """``transform_dataset`` vs the reference edit of the two histograms'
    deltas.

    ``transform_dataset(t, original, target, rng=seed)`` must return
    exactly what ``apply_deltas_reference(t, histogram_deltas(original,
    target), rng=seed)`` returns, for list, tuple and
    :class:`~repro.core.tokens.CodedTokens` inputs, also when
    ``original`` is not the histogram of ``t``. Returns the reference
    outcome.
    """

    def edit(shaped, _deltas, rng):
        return transform_dataset(shaped, original, target, rng=rng)

    deltas = histogram_deltas(original, target)
    return _assert_same_edit("transform_dataset", edit, tokens, deltas, seed)


def _assert_same_edit(name: str, edit, tokens: Sequence, deltas, seed: int):
    expected = _edit_outcome(apply_deltas_reference, list(tokens), deltas, seed)
    for shaped in (list(tokens), tuple(tokens), CodedTokens(list(tokens))):
        edited = _edit_outcome(edit, shaped, deltas, seed)
        where = f"{name}({type(shaped).__name__}, seed={seed}) diverged"
        assert edited == expected, where
        if isinstance(expected, list):
            assert list(map(type, edited)) == list(map(type, expected)), where
    return expected


def reference_false_positive_rate(
    moduli: Sequence[int], threshold: int, k: int, *, trials: int, seed
) -> float:
    """The seed Monte-Carlo loop: one 1-D draw and Python count per trial.

    Byte-for-byte the original per-trial implementation of
    :func:`repro.analysis.false_positive.empirical_false_positive_rate`;
    kept here as the harness's anchor for RNG-stream parity of the
    batched path.
    """
    generator = np.random.default_rng(seed)
    moduli_array = np.asarray(moduli, dtype=int)
    hits = 0
    for _ in range(trials):
        remainders = generator.integers(0, moduli_array)
        accepted = int(np.sum(remainders <= threshold))
        if accepted >= k:
            hits += 1
    return hits / trials
