"""Batch execution: many datasets, many secrets, both directions.

Marketplace-scale operation means running the two algorithms over
*fleets*, not single inputs:

* :func:`detect_many` — one secret against many suspected datasets
  (screening every buyer's copy) with a single vectorized
  ``(f_i - f_j) mod s_ij <= t`` matrix pass (see
  :meth:`repro.core.detector.WatermarkDetector.detect_many`);
  :func:`detect_files` screens token files, loading each inside its
  worker;
* :func:`detect_many_secrets` — many secrets against one dataset
  (Monte-Carlo forged candidates, per-buyer leak attribution,
  provenance-chain stages) with one stacked vectorized pass instead of
  constructing a detector per secret;
* :func:`embed_many` / :func:`embed_files` — ``WM_Generate`` over many
  datasets (or files), amortising secret derivation, pair-modulus
  hashing and eligibility precomputation across the batch (and across
  worker processes), with outputs bit-identical to the sequential
  generator loop.

When an :class:`~repro.exec.policy.ExecutionPolicy` asks for parallelism
(``workers > 1`` or a remote scheduler), each function splits its batch
into contiguous chunks, builds one fingerprinted
:class:`~repro.exec.scheduler.TaskSpec` per chunk and runs them through
:func:`~repro.exec.scheduler.create_scheduler`: every worker builds its
detector (``detect.state``) or generator (``embed.state``) once per
``init_key`` and results are gathered **in input order** with verdicts
identical to the in-process path. A detection chunk of histograms and
count mappings is read at the secret's pair tokens on the driver and
travels inline as one small count matrix (``detect.counts``); chunks
holding token sequences, and embedding chunks, travel as
content-addressed blobs when large. Local workers that cannot start
fall back in-process, logging the reason and raising a
``RuntimeWarning``.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import DetectionConfig, GenerationConfig
from repro.core.detector import (
    DetectionResult,
    PairEvidence,
    SuspectCounts,
    SuspectData,
    WatermarkDetector,
    build_pair_evidence,
    count_matrix,
    detector_fingerprint,
    gather_counts,
    pair_columns,
    suspect_counts,
    verify_pair_arrays,
)
from repro.core.embedding import BatchEmbeddingReport, EmbedData, generator_fingerprint
from repro.core.generator import WatermarkGenerator
from repro.core.histogram import TokenHistogram
from repro.core.secrets import WatermarkSecret
from repro.exceptions import DetectionError, GenerationError
from repro.exec.blobs import BlobRef, default_blob_store, maybe_blob
from repro.exec.chunking import (
    DETECTION_CHUNKS_PER_WORKER,
    DETECTION_MAX_CHUNK,
    chunk_spans,
    derive_chunk_size,
    split_chunks,
)
from repro.exec.policy import ExecutionPolicy
from repro.exec.scheduler import (
    Scheduler,
    TaskSpec,
    create_scheduler,
    register_initializer,
    register_task_function,
)
from repro.obs.logging import get_logger, log_record
from repro.utils.rng import RngLike

logger = get_logger(__name__)


def _wants_sharding(policy: ExecutionPolicy) -> bool:
    """Whether a policy asks the batch functions to dispatch via a scheduler.

    ``workers=None`` (the default) and ``workers=1`` run in-process under
    the local scheduler; any non-local scheduler always shards.
    """
    return policy.scheduler != "local" or (
        policy.workers is not None and policy.workers > 1
    )


def _spawn_failure_hook(kind: str) -> Callable[[BaseException], None]:
    """Spawn-failure hook shared by the detection and embedding paths.

    Restricted sandboxes (a seccomp'd fork, a process limit, ...) degrade
    to in-process execution rather than failing the whole batch — but never
    silently: the reason lands both in the logging stream (for resident
    services) and as a RuntimeWarning (for interactive/CLI runs).
    """

    def hook(error: BaseException) -> None:
        log_record(
            logger,
            logging.WARNING,
            f"cannot start {kind} workers; falling back to in-process "
            f"{kind} ({type(error).__name__}: {error})",
            error=str(error),
            error_type=type(error).__name__,
        )
        warnings.warn(
            f"cannot start {kind} workers ({error}); "
            f"falling back to in-process {kind}",
            RuntimeWarning,
            stacklevel=3,
        )

    return hook


def batch_scheduler(
    policy: ExecutionPolicy,
    kind: str,
    inline_state: Optional[Dict[str, Any]] = None,
) -> Scheduler:
    """The scheduler ``policy`` names, with the ``kind`` spawn-failure hook.

    A policy that does not ask for sharding gets a one-worker local
    scheduler, which walks the same chunks in-process. ``inline_state``
    maps ``init_key`` to a prebuilt initializer product the in-process
    path reuses instead of rebuilding (remote schedulers ignore it).
    """
    if not _wants_sharding(policy):
        policy = policy.merged(workers=1)
    return create_scheduler(
        policy,
        on_spawn_failure=_spawn_failure_hook(kind),
        inline_state=inline_state,
    )


def _gathered(chunk_results: Iterable[List[Any]]) -> List[Any]:
    """Flatten per-chunk result lists, keeping submission order."""
    collected: List[Any] = []
    for results in chunk_results:
        collected.extend(results)
    return collected


# --------------------------------------------------------------------- #
# Detection tasks (run inside scheduler workers)
# --------------------------------------------------------------------- #


def _build_detector(
    secret: WatermarkSecret, config: Optional[DetectionConfig]
) -> WatermarkDetector:
    """``detect.state`` initializer: build the per-worker detector."""
    return WatermarkDetector(secret, config)


def _detect_chunk(
    detector: WatermarkDetector,
    payload: Tuple[List[SuspectData], bool],
) -> List[DetectionResult]:
    """``detect.chunk`` task: one vectorized pass over a dispatched chunk."""
    chunk, collect_evidence = payload
    return detector.detect_many(chunk, collect_evidence=collect_evidence)


def _detect_counts(
    detector: WatermarkDetector,
    payload: Tuple[np.ndarray, bool],
) -> List[DetectionResult]:
    """``detect.counts`` task: verdicts for a chunk the driver already read.

    The payload matrix holds one row per suspect at the detector's
    columns (:func:`~repro.core.detector.pair_columns`);
    :meth:`~repro.core.detector.WatermarkDetector.detect_matrix` rejects
    any other shape, a non-``int64`` dtype or a negative count with a
    :class:`~repro.exceptions.DetectionError`.
    """
    matrix, collect_evidence = payload
    return detector.detect_matrix(matrix, collect_evidence=collect_evidence)


def _detect_file_chunk(
    detector: WatermarkDetector, payload: Tuple[List, bool]
) -> List[DetectionResult]:
    """``detect.files`` task: stream-load one chunk of files and screen it."""
    # Imported lazily: repro.datasets depends on repro.core, so the
    # dependency must stay one-way at module-import time.
    from repro.datasets.loaders import load_histogram_streaming

    paths, collect_evidence = payload
    return detector.detect_many(
        [load_histogram_streaming(path) for path in paths],
        collect_evidence=collect_evidence,
    )


register_initializer("detect.state", _build_detector)
register_task_function("detect.chunk", _detect_chunk)
register_task_function("detect.counts", _detect_counts)
register_task_function("detect.files", _detect_file_chunk)


@dataclass(frozen=True)
class BatchDetectionReport:
    """Outcome of screening a batch of suspected datasets.

    Attributes
    ----------
    results:
        One :class:`DetectionResult` per input dataset, in input order.
    """

    results: Tuple[DetectionResult, ...]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> DetectionResult:
        return self.results[index]

    @property
    def accepted_flags(self) -> Tuple[bool, ...]:
        """Per-dataset verdicts, aligned with the input order."""
        return tuple(result.accepted for result in self.results)

    @property
    def accepted_count(self) -> int:
        """Number of datasets on which the watermark verified."""
        return sum(result.accepted for result in self.results)

    @property
    def accepted_indices(self) -> Tuple[int, ...]:
        """Input positions of the datasets that verified."""
        return tuple(
            index for index, result in enumerate(self.results) if result.accepted
        )

    def summary(self) -> Dict[str, object]:
        """Flat summary used by the CLI and benchmarks."""
        total = len(self.results)
        return {
            "datasets": total,
            "accepted_datasets": self.accepted_count,
            "accepted_rate": self.accepted_count / total if total else 0.0,
            "required_pairs": self.results[0].required_pairs if total else 0,
            "total_pairs": self.results[0].total_pairs if total else 0,
        }


def _counted(item: Any) -> bool:
    """Whether the driver reads ``item`` into a count row (no token list)."""
    return isinstance(item, (TokenHistogram, Mapping))


def dispatch_detection(
    scheduler: Scheduler,
    secret: WatermarkSecret,
    config: Optional[DetectionConfig],
    items: Sequence,
    *,
    function: str = "detect.chunk",
    collect_evidence: bool = False,
    chunk_size: Optional[int] = None,
) -> BatchDetectionReport:
    """Screen ``items`` through ``scheduler``, gathered in input order.

    ``items`` are datasets (``function="detect.chunk"``) or token-file
    paths (``"detect.files"``). They are split into contiguous chunks,
    and every chunk becomes one task whose worker-side detector is built
    once per ``init_key`` from the serializable ``(secret, config)``. An
    explicit ``chunk_size`` is used verbatim. Otherwise a batch of
    histograms and token->count mappings only is cut into one chunk per
    worker, since every counted row costs a worker the same and more
    chunks would only add round trips; any other batch into four chunks
    per worker, so uneven token files rebalance. Either derived size is
    capped at :data:`~repro.exec.chunking.DETECTION_MAX_CHUNK` items.

    A chunk of histograms and token->count mappings only is read here,
    at the secret's distinct pair tokens
    (:func:`~repro.core.detector.pair_columns`, no hashing and no
    detector), into one ``int64`` matrix with a row per suspect, and
    becomes a ``detect.counts`` task carrying that matrix inline: no
    blob is stored and nothing outlives the task. A malformed mapping
    therefore raises :class:`~repro.exceptions.HistogramError` here,
    before any task is sent. A chunk holding a token sequence stays a
    ``detect.chunk`` task, since counting it is the work worth spreading.

    When the scheduler ships payloads to other processes and the data
    plane is on, the secret (identical in every task) and each large
    ``detect.chunk`` / ``detect.files`` chunk travel as blob refs. A
    scheduler that runs inline walks the same chunks in-process, so at
    most one chunk of loaded files is resident at a time.
    """
    if len(secret.pairs) == 0:
        raise DetectionError("the secret list contains no watermarked pairs")
    items = list(items)
    if not items:
        return BatchDetectionReport(results=())
    init_key = detector_fingerprint(secret, config)
    columns = pair_columns(secret) if function == "detect.chunk" else None
    size = derive_chunk_size(
        len(items),
        scheduler.workers,
        chunk_size=chunk_size,
        chunks_per_worker=(
            1
            if columns is not None and all(map(_counted, items))
            else DETECTION_CHUNKS_PER_WORKER
        ),
        max_chunk=DETECTION_MAX_CHUNK,
    )
    use_blobs = scheduler.ships_payloads
    secret_value, secret_refs = _blob_secret(secret) if use_blobs else (secret, ())
    specs: List[TaskSpec] = []
    for index, chunk in enumerate(split_chunks(items, size)):
        task = function
        if columns is not None and all(map(_counted, chunk)):
            task, chunk_value, chunk_refs = "detect.counts", count_matrix(chunk, columns), ()
        elif use_blobs:
            chunk_value, chunk_refs = maybe_blob(chunk)
        else:
            chunk_value, chunk_refs = chunk, ()
        specs.append(
            TaskSpec(
                fingerprint=f"{init_key}:{task}:{index}",
                function=task,
                payload=(chunk_value, collect_evidence),
                initializer="detect.state",
                init_key=init_key,
                init_args=(secret_value, config),
                blob_refs=secret_refs + chunk_refs,
            )
        )
    return BatchDetectionReport(results=tuple(_gathered(scheduler.run(specs))))


def _blob_secret(secret: WatermarkSecret) -> Tuple[Any, Tuple[str, ...]]:
    """:func:`~repro.exec.blobs.maybe_blob` of ``secret``, pickled and hashed once.

    Every sweep ships the same secret, so its blob digest is memoised on
    it, as its moduli are, and never pickled (``__getstate__`` drops
    memos). The digest is a content address, valid in any store: each
    dispatch checks that the default store still holds it and marks it
    used there, and a store that does not (evicted, cleared or swapped
    for another) gets the secret put again. A secret too small to be a
    blob is pickled each time, to learn that it stays inline.
    """
    store = default_blob_store()
    digest = secret.__dict__.get("_blob_digest")
    if digest is not None and store.touch(digest):
        return BlobRef(digest), (digest,)
    value, refs = maybe_blob(secret, store=store)
    if refs:
        object.__setattr__(secret, "_blob_digest", refs[0])
    return value, refs


def detect_many(
    datasets: Sequence[SuspectData],
    secret: Optional[WatermarkSecret] = None,
    config: Optional[DetectionConfig] = None,
    *,
    detector: Optional[WatermarkDetector] = None,
    collect_evidence: bool = False,
    policy: Optional[ExecutionPolicy] = None,
) -> BatchDetectionReport:
    """Run ``WM_Detect`` over a batch of suspected datasets at once.

    Parameters
    ----------
    datasets : Sequence[SuspectData]
        Suspected datasets — raw token sequences, token->count mappings
        or pre-built :class:`~repro.core.histogram.TokenHistogram`
        instances, mixed freely.
    secret : WatermarkSecret, optional
        The owner's secret list ``L_sc``. May be omitted when a prebuilt
        ``detector`` is supplied.
    config : DetectionConfig, optional
        Detection thresholds shared by the whole batch (defaults to the
        strict ``t = 0``, ``k = 50%`` setting).
    detector : WatermarkDetector, optional
        A prebuilt detector to reuse — the moduli precomputation is then
        skipped entirely, which is what the detector-caching service
        layer (:mod:`repro.service`) relies on. When both ``secret`` and
        ``detector`` are given they must commit to the same watermark.
    collect_evidence : bool, optional
        When True, per-pair :class:`~repro.core.detector.PairEvidence` is
        materialised for every dataset (slower; intended for dispute /
        debugging flows, not for large screens).
    policy : ExecutionPolicy, optional
        How to parallelise the batch. ``policy.workers > 1`` or a remote
        scheduler partitions the datasets across scheduler workers
        (local processes, or ``freqywm worker`` processes when
        ``policy.scheduler == "remote"``); verdicts and ordering are
        identical to the in-process path. The driver builds no detector
        for a sharded batch: a prebuilt ``detector`` serves the
        in-process fallback, otherwise one is built only if the batch
        ends up running inline. The default runs in-process.

    Returns
    -------
    BatchDetectionReport
        One result per dataset, in input order.
    """
    if detector is None:
        if secret is None:
            raise DetectionError("detect_many needs a secret or a prebuilt detector")
    else:
        if secret is not None and secret.fingerprint() != detector.secret.fingerprint():
            raise DetectionError(
                "detect_many was given a detector built for a different secret"
            )
        if config is not None and config.fingerprint() != detector.config.fingerprint():
            raise DetectionError(
                "detect_many was given a config that differs from the prebuilt "
                "detector's thresholds"
            )
    if policy is not None and _wants_sharding(policy):
        inline_state = None
        if detector is not None:
            secret, config = detector.secret, detector.config
            inline_state = {detector.fingerprint: detector}
        with batch_scheduler(policy, "detection", inline_state) as scheduler:
            return dispatch_detection(
                scheduler,
                secret,
                config,
                datasets,
                collect_evidence=collect_evidence,
                chunk_size=policy.chunk_size,
            )
    if detector is None:
        detector = WatermarkDetector(secret, config)
    results = detector.detect_many(datasets, collect_evidence=collect_evidence)
    return BatchDetectionReport(results=tuple(results))


def detect_files(
    paths: Sequence[Union[str, Path]],
    secret: WatermarkSecret,
    config: Optional[DetectionConfig] = None,
    *,
    collect_evidence: bool = False,
    policy: Optional[ExecutionPolicy] = None,
) -> BatchDetectionReport:
    """Screen token-per-line files, loading each inside its worker.

    Unlike :func:`detect_many` over pre-loaded data, only the *file
    paths* are dispatched: each worker stream-loads its chunk's
    histograms (:func:`repro.datasets.loaders.load_histogram_streaming`)
    and screens them, so the dominant per-suspect cost — reading and
    counting the tokens — parallelises too, and the driver holds nothing
    heavier than the verdicts (in-process: at most one chunk of
    histograms at a time).

    Parameters
    ----------
    paths : Sequence
        Token-per-line file paths (anything ``open``-able and picklable).
    secret : WatermarkSecret
        The owner's secret list ``L_sc``.
    config : DetectionConfig, optional
        Detection thresholds shared by every file.
    collect_evidence : bool, optional
        When True, per-pair evidence objects are materialised for every
        file.
    policy : ExecutionPolicy, optional
        How to parallelise, as for :func:`detect_many`; the default
        screens the files in-process, one chunk at a time.

    Returns
    -------
    BatchDetectionReport
        One result per file, in input order, with verdicts identical to
        loading each file and running the in-process path.
    """
    exec_policy = policy or ExecutionPolicy()
    with batch_scheduler(exec_policy, "detection") as scheduler:
        return dispatch_detection(
            scheduler,
            secret,
            config,
            paths,
            function="detect.files",
            collect_evidence=collect_evidence,
            chunk_size=exec_policy.chunk_size,
        )


def detect_many_secrets(
    data: SuspectData,
    secrets: Sequence[WatermarkSecret],
    config: Optional[DetectionConfig] = None,
    *,
    collect_evidence: bool = False,
    policy: Optional[ExecutionPolicy] = None,
) -> List[DetectionResult]:
    """Run ``WM_Detect`` for many secrets against one dataset at once.

    This is the transpose of :func:`detect_many`: the stored pairs of
    *all* secrets are stacked into one flat array, the dataset's
    frequencies are gathered for the stacked pair members, and a
    single vectorized modulo pass verifies everything — no
    per-secret :class:`~repro.core.detector.WatermarkDetector`
    construction. Each secret's moduli come from its memo
    (:meth:`~repro.core.secrets.WatermarkSecret.moduli`), so a secret
    screened again, such as a registry's vault entry, derives nothing.
    Verdicts are identical to building one detector per secret and
    calling :meth:`~repro.core.detector.WatermarkDetector.detect`.

    The callers this serves all evaluate candidate-secret fleets against
    one histogram: the Monte-Carlo guess attack (hundreds of forged
    secrets), per-buyer leak attribution, and provenance-chain stage
    reports.

    Parameters
    ----------
    data : SuspectData
        The suspected dataset — a raw token sequence, a token->count
        mapping (read only at the pair tokens) or a pre-built
        :class:`~repro.core.histogram.TokenHistogram`.
    secrets : Sequence[WatermarkSecret]
        The candidate secret lists; every one must store at least one
        pair (as :class:`WatermarkDetector` requires).
    config : DetectionConfig, optional
        Detection thresholds shared by all candidates (defaults to the
        strict ``t = 0``, ``k = 50%`` setting).
    collect_evidence : bool, optional
        When True, per-pair :class:`~repro.core.detector.PairEvidence`
        is materialised for every secret.
    policy : ExecutionPolicy, optional
        When the policy asks for parallelism (``workers > 1`` or a
        remote scheduler), the *secrets* are partitioned into chunks and
        screened by scheduler workers, each running this same stacked
        pass over its chunk; results are identical and in input order.

    Returns
    -------
    List[DetectionResult]
        One result per secret, in input order.
    """
    if not secrets:
        return []
    detection = config or DetectionConfig()
    counts = suspect_counts(data)
    if policy is not None and _wants_sharding(policy) and len(secrets) > 1:
        return _detect_secrets_sharded(
            counts, secrets, detection, collect_evidence, policy
        )
    first_tokens: List[str] = []
    second_tokens: List[str] = []
    offsets: List[int] = [0]
    moduli_arrays: List[np.ndarray] = []
    for secret in secrets:
        if len(secret.pairs) == 0:
            raise DetectionError("a secret list contains no watermarked pairs")
        first_tokens += [pair.first for pair in secret.pairs]
        second_tokens += [pair.second for pair in secret.pairs]
        moduli_arrays.append(secret.moduli())
        offsets.append(len(first_tokens))
    moduli = np.concatenate(moduli_arrays)
    thresholds = detection.thresholds_for(moduli)
    # Same guard as the detector: a modulus of 0 or 1 carries no
    # information, so such pairs are unverifiable by construction.
    valid = moduli >= 2
    safe_moduli = np.where(valid, moduli, 1)
    accepted, present, remainder = verify_pair_arrays(
        gather_counts(counts, first_tokens),
        gather_counts(counts, second_tokens),
        safe_moduli=safe_moduli,
        valid=valid,
        thresholds=thresholds,
        symmetric_tolerance=detection.symmetric_tolerance,
    )
    results: List[DetectionResult] = []
    for index, secret in enumerate(secrets):
        low, high = offsets[index], offsets[index + 1]
        accepted_pairs = int(accepted[low:high].sum())
        required = detection.required_pairs(high - low)
        evidence: Tuple[PairEvidence, ...] = ()
        if collect_evidence:
            evidence = build_pair_evidence(
                secret.pairs,
                accepted[low:high],
                present[low:high],
                remainder[low:high],
                moduli[low:high],
                thresholds[low:high],
                valid[low:high],
            )
        results.append(
            DetectionResult(
                accepted=accepted_pairs >= required,
                accepted_pairs=accepted_pairs,
                required_pairs=required,
                total_pairs=high - low,
                evidence=evidence,
            )
        )
    return results


def _detect_secrets_chunk(_state: object, payload: tuple) -> List[DetectionResult]:
    """Scheduler task: the stacked many-secrets pass over one secret chunk."""
    counts, chunk, detection, collect_evidence = payload
    return detect_many_secrets(
        counts, chunk, detection, collect_evidence=collect_evidence
    )


register_task_function("secrets.chunk", _detect_secrets_chunk)


def _detect_secrets_sharded(
    counts: SuspectCounts,
    secrets: Sequence[WatermarkSecret],
    detection: DetectionConfig,
    collect_evidence: bool,
    policy: ExecutionPolicy,
) -> List[DetectionResult]:
    """Partition a many-secrets screen across scheduler workers."""
    scheduler = create_scheduler(policy)
    try:
        size = derive_chunk_size(
            len(secrets), scheduler.workers, chunk_size=policy.chunk_size
        )
        # The suspect is identical across every chunk task, so when the
        # scheduler ships payloads it goes once as a content-addressed
        # blob instead of being re-pickled into each payload.
        counts_value: object = counts
        counts_refs: Tuple[str, ...] = ()
        if scheduler.ships_payloads:
            counts_value, counts_refs = maybe_blob(counts)
        specs = [
            TaskSpec(
                fingerprint=f"secrets:{detection.fingerprint()}:{index}",
                function="secrets.chunk",
                payload=(counts_value, chunk, detection, collect_evidence),
                blob_refs=counts_refs,
            )
            for index, chunk in enumerate(split_chunks(list(secrets), size))
        ]
        return _gathered(scheduler.run(specs))
    finally:
        scheduler.close()


def _plain_seed(rng: RngLike) -> Optional[int]:
    """Validate a sharded embedding's randomness source: a seed or None."""
    if isinstance(rng, np.random.Generator):
        raise GenerationError(
            "sharded embedding needs a plain integer seed (or None): a "
            "live Generator cannot reproduce deterministically across "
            "worker processes"
        )
    return rng  # type: ignore[return-value]


def _run_embedding(
    scheduler: Scheduler,
    function: str,
    payloads: Sequence[Tuple[object, Tuple[str, ...]]],
    config: GenerationConfig,
    seed: Optional[int],
) -> List[Any]:
    """Run one ``embed.*`` task per ``(payload, blob_refs)``, in order."""
    init_key = generator_fingerprint(config, seed)
    specs = [
        TaskSpec(
            fingerprint=f"{init_key}:{function}:{index}",
            function=function,
            payload=payload,
            initializer="embed.state",
            init_key=init_key,
            init_args=(config, seed),
            blob_refs=blob_refs,
        )
        for index, (payload, blob_refs) in enumerate(payloads)
    ]
    return _gathered(scheduler.run(specs))


def embed_many(
    datasets: Sequence[EmbedData],
    config: Optional[GenerationConfig] = None,
    *,
    rng: RngLike = None,
    secret_value: Optional[int] = None,
    secret_values: Optional[Sequence[Optional[int]]] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> BatchEmbeddingReport:
    """Run ``WM_Generate`` over a batch of datasets at once.

    The batched path amortises what the sequential generator loop
    re-derives per dataset — pair-modulus hashing per owner secret,
    eligibility precomputation per histogram — and optionally shards the
    batch across worker processes; outputs are bit-identical to calling
    :meth:`~repro.core.generator.WatermarkGenerator.generate` per
    dataset (``tests/test_embedding.py`` holds the golden parity).

    Parameters
    ----------
    datasets : Sequence[EmbedData]
        Datasets to watermark — raw token sequences or pre-built
        :class:`~repro.core.histogram.TokenHistogram` instances, mixed
        freely. Passing the same histogram object several times (with
        different ``secret_values``) is the candidate-secrets mode.
    config : GenerationConfig, optional
        Generation parameters shared by the whole batch.
    rng :
        Seed (or generator) for every random choice, as for
        :class:`~repro.core.generator.WatermarkGenerator`. Sharded mode
        accepts only a plain seed or ``None``.
    secret_value : int, optional
        One explicit secret ``R`` shared by every dataset — the
        one-owner-many-datasets mode that maximises cross-dataset
        modulus reuse. Mutually exclusive with ``secret_values``.
    secret_values : Sequence[int | None], optional
        Per-dataset explicit secrets, aligned with ``datasets``.
    policy : ExecutionPolicy, optional
        How to parallelise the batch. ``policy.workers > 1`` or a remote
        scheduler partitions the datasets across scheduler workers, one
        chunk per worker unless ``policy.chunk_size`` says otherwise —
        each chunk shares one set of scan plans, so bigger chunks
        amortise more. Results and ordering are identical to the
        in-process path. The default runs in-process.

    Returns
    -------
    BatchEmbeddingReport
        One :class:`~repro.core.generator.WatermarkResult` per dataset,
        in input order.
    """
    if secret_value is not None and secret_values is not None:
        raise GenerationError(
            "pass either one shared secret_value or per-dataset secret_values, "
            "not both"
        )
    values: Optional[List[Optional[int]]] = None
    if secret_value is not None:
        values = [secret_value] * len(datasets)
    elif secret_values is not None:
        values = list(secret_values)
    if policy is None or not _wants_sharding(policy):
        generator = WatermarkGenerator(config, rng=rng)
        return BatchEmbeddingReport(
            results=tuple(generator.generate_many(datasets, secret_values=values))
        )
    seed = _plain_seed(rng)
    if values is not None and len(values) != len(datasets):
        raise GenerationError(
            f"secret_values has {len(values)} entries for {len(datasets)} datasets"
        )
    items = list(datasets)
    if not items:
        return BatchEmbeddingReport(results=())
    resolved = config or GenerationConfig()
    with batch_scheduler(policy, "embedding") as scheduler:
        payloads: List[Tuple[object, Tuple[str, ...]]] = []
        if scheduler.workers > 1 and len(items) > 1:
            size = derive_chunk_size(
                len(items), scheduler.workers, chunk_size=policy.chunk_size
            )
            use_blobs = scheduler.ships_payloads
            for start, stop in chunk_spans(len(items), size):
                chunk: object = items[start:stop]
                chunk_refs: Tuple[str, ...] = ()
                if use_blobs:
                    # Large chunks travel as content-addressed blobs, which
                    # forked local children already hold.
                    chunk, chunk_refs = maybe_blob(chunk)
                chunk_values = values[start:stop] if values else None
                payloads.append(((chunk, chunk_values), chunk_refs))
        else:
            # One whole-batch task: the in-process fallback keeps the
            # full cross-dataset amortisation of generate_many.
            payloads.append(((items, values), ()))
        results = _run_embedding(scheduler, "embed.chunk", payloads, resolved, seed)
    return BatchEmbeddingReport(results=tuple(results))


def embed_files(
    paths: Sequence[Union[str, Path]],
    output_dir: Union[str, Path],
    secret_dir: Union[str, Path],
    config: Optional[GenerationConfig] = None,
    *,
    seed: Optional[int] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> List[Dict[str, object]]:
    """Watermark token-per-line files, each loaded inside its worker.

    Only the file *paths* are dispatched: each worker loads its chunk's
    token sequences, embeds them, and writes the watermarked file (same
    name under ``output_dir``) and the secret list (``<name>.json`` under
    ``secret_dir``) itself — so the dominant read/embed/write cost
    parallelises and the driver only collects flat per-file summaries.

    Every file receives its **own** secret ``R``. With a ``seed`` the
    per-file randomness is derived from ``(seed, file name)`` —
    reproducible, but never shared between files, so one recipient's
    secret list reveals nothing about another file's watermark. ``None``
    uses the OS CSPRNG; a live :class:`numpy.random.Generator` is
    rejected.

    Parameters
    ----------
    paths : Sequence
        Token-per-line input files.
    output_dir, secret_dir :
        Directories (created as needed) receiving the watermarked files
        and their secret lists.
    config : GenerationConfig, optional
        Generation parameters shared by every file.
    seed : int, optional
        Seed for the per-file randomness (see above).
    policy : ExecutionPolicy, optional
        How to parallelise, one chunk of files per worker unless
        ``policy.chunk_size`` says otherwise; the default runs
        in-process.

    Returns
    -------
    list of dict
        One :meth:`WatermarkResult.summary` per file (plus ``input`` /
        ``output`` / ``secret_file`` paths), in input order.
    """
    seed = _plain_seed(seed)
    items = [Path(path) for path in paths]
    if not items:
        return []
    out_dir = Path(output_dir)
    sec_dir = Path(secret_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sec_dir.mkdir(parents=True, exist_ok=True)
    exec_policy = policy or ExecutionPolicy()
    with batch_scheduler(exec_policy, "embedding") as scheduler:
        size = derive_chunk_size(
            len(items), scheduler.workers, chunk_size=exec_policy.chunk_size
        )
        payloads = [
            ((items[start:stop], out_dir, sec_dir), ())
            for start, stop in chunk_spans(len(items), size)
        ]
        return _run_embedding(
            scheduler, "embed.files", payloads, config or GenerationConfig(), seed
        )


__all__ = [
    "BatchDetectionReport",
    "BatchEmbeddingReport",
    "detect_files",
    "detect_many",
    "detect_many_secrets",
    "dispatch_detection",
    "embed_files",
    "embed_many",
]
