"""Resident detection service: cached detectors + request coalescing.

One-shot detection pays the detector construction (SHA-256 moduli for
every stored pair) per verdict and verifies one dataset per vectorized
pass. A resident service amortises both:

* **Detector cache** — constructed detectors live in a
  :class:`~repro.core.cache.DetectorCache` keyed by the secret/config
  fingerprint, so repeated verdicts against the same watermark skip
  moduli precomputation entirely.
* **Request coalescing** — single-dataset requests land on an asyncio
  queue; a batcher drains it in small time/size windows
  (:attr:`ServiceConfig.max_delay` / :attr:`ServiceConfig.max_batch`),
  groups the window by detector, and answers each group with **one**
  vectorized :meth:`~repro.core.detector.WatermarkDetector.detect_many`
  pass. Concurrent callers therefore share matrix passes without
  coordinating with each other.
* **Shard fan-out** — when a coalesced group is large
  (:attr:`ServiceConfig.shard_min_batch`) and the service was configured
  with ``shard_workers``, the group is fanned out through
  :func:`repro.core.batch.dispatch_detection` on one scheduler the
  service keeps for its whole lifetime (workers cache the detectors of
  the most recent secrets).

Verdicts are identical to direct :meth:`WatermarkDetector.detect` — the
coalescing only changes *when* the vectorized pass runs, never its
inputs — and ``tests/test_service_properties.py`` asserts this for
arbitrary request interleavings across distinct secrets.

:class:`DetectionService` is the asyncio core; :class:`SyncDetectionService`
wraps it for synchronous library callers (the facade owns a background
event-loop thread). The JSON-lines transport on top lives in
:mod:`repro.service.server`.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.batch import batch_scheduler, dispatch_detection
from repro.core.cache import DEFAULT_CACHE_CAPACITY, CacheStats, DetectorCache
from repro.core.config import DetectionConfig
from repro.core.detector import DetectionResult, SuspectData, WatermarkDetector
from repro.core.generator import WatermarkGenerator
from repro.core.secrets import WatermarkSecret
from repro.exceptions import ReproError, ServiceError
from repro.exec.blobs import default_blob_store
from repro.exec.policy import ExecutionPolicy
from repro.exec.scheduler import Scheduler
from repro.obs.metrics import render_prometheus
from repro.obs.trace import span as trace_span
from repro.service.wire import (
    AttributeRequest,
    AttributeResponse,
    DetectResponse,
    EmbedRequest,
    EmbedResponse,
    RegisterRequest,
    RegisterResponse,
    RevokeRequest,
    RevokeResponse,
    StatsRequest,
    StatsResponse,
    TaskRequest,
    TaskResult,
    WireRequest,
    WireResponse,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the resident detection service.

    Attributes
    ----------
    max_batch:
        Most requests coalesced into one ``detect_many`` window.
    max_delay:
        Seconds the batcher waits for more requests after the first one
        of a window arrives. ``0`` coalesces only what is already queued
        (pure opportunistic batching, minimum latency).
    cache_capacity:
        Detectors kept resident in the LRU cache.
    shard_workers:
        When set (> 1), coalesced groups of at least ``shard_min_batch``
        datasets are fanned out across that many worker processes.
    shard_min_batch:
        Minimum group size worth the multiprocessing dispatch overhead.
    """

    max_batch: int = 64
    max_delay: float = 0.002
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    shard_workers: Optional[int] = None
    shard_min_batch: int = 32

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay < 0:
            raise ServiceError(f"max_delay must be >= 0, got {self.max_delay}")
        if self.cache_capacity < 1:
            raise ServiceError(
                f"cache_capacity must be >= 1, got {self.cache_capacity}"
            )
        if self.shard_workers is not None and self.shard_workers < 1:
            raise ServiceError(
                f"shard_workers must be >= 1, got {self.shard_workers}"
            )
        if self.shard_min_batch < 2:
            raise ServiceError(
                f"shard_min_batch must be >= 2, got {self.shard_min_batch}"
            )


@dataclass
class ServiceStats:
    """Mutable execution counters of one service instance."""

    requests: int = 0
    batches: int = 0
    coalesced_requests: int = 0
    largest_batch: int = 0
    sharded_batches: int = 0
    failures: int = 0
    embeds: int = 0
    registrations: int = 0
    revocations: int = 0
    attributions: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average coalesced window size (0 when nothing ran yet)."""
        return self.requests / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary for reports and ``--json`` output."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "coalesced_requests": self.coalesced_requests,
            "largest_batch": self.largest_batch,
            "mean_batch_size": self.mean_batch_size,
            "sharded_batches": self.sharded_batches,
            "failures": self.failures,
            "embeds": self.embeds,
            "registrations": self.registrations,
            "revocations": self.revocations,
            "attributions": self.attributions,
        }


@dataclass
class _Pending:
    """One queued request: its dataset, resolved detector, and future."""

    suspect: SuspectData
    detector: WatermarkDetector
    cache_hit: bool
    future: "asyncio.Future[Tuple[DetectionResult, int]]" = field(repr=False)


class DetectionService:
    """Asyncio detection service with cached detectors and coalescing.

    Examples
    --------
    >>> async def screen(datasets, secret):                # doctest: +SKIP
    ...     async with DetectionService() as service:
    ...         verdicts = await asyncio.gather(
    ...             *(service.detect(data, secret) for data in datasets)
    ...         )
    ...     return [verdict.accepted for verdict in verdicts]

    All ``detect`` coroutines awaited concurrently share coalesced
    ``detect_many`` passes; see :class:`SyncDetectionService` for the
    blocking facade.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        registry: Optional[object] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.cache = DetectorCache(self.config.cache_capacity)
        self.stats = ServiceStats()
        # The multi-tenant vault behind the register/revoke/attribute
        # verbs: anything speaking the WatermarkRegistry API (the
        # persistent SecretVault under `serve --vault`, an in-memory
        # WatermarkRegistry otherwise — created lazily on first use).
        self._vault_registry = registry
        self._vault_lock = asyncio.Lock()
        self._registry: Dict[str, Tuple[WatermarkSecret, Optional[DetectionConfig]]] = {}
        self._queue: "Optional[asyncio.Queue[Optional[_Pending]]]" = None
        self._batcher: Optional[asyncio.Task] = None
        self._closing = False
        # One scheduler serves every sharded group (created on the first,
        # closed in stop()); batcher windows and groups run one at a time,
        # so sharing it is safe.
        self._scheduler: Optional[Scheduler] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def running(self) -> bool:
        """Whether the batcher task is accepting requests."""
        return self._batcher is not None and not self._batcher.done()

    async def start(self) -> None:
        """Spawn the batcher task (idempotent)."""
        if self.running:
            return
        self._closing = False
        self._queue = asyncio.Queue()
        self._batcher = asyncio.get_running_loop().create_task(
            self._run_batcher(), name="repro-detection-batcher"
        )

    async def stop(self) -> None:
        """Drain the queue, stop the batcher, release the shard scheduler."""
        if self._batcher is None:
            return
        assert self._queue is not None
        # New submissions raise immediately from here on; anything that
        # still slips past the sentinel is failed below rather than left
        # with a forever-pending future.
        self._closing = True
        await self._queue.put(None)  # sentinel: drain then exit
        await self._batcher
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not None and not item.future.done():
                item.future.set_exception(
                    ServiceError("the detection service is shutting down")
                )
        self._batcher = None
        self._queue = None
        if self._scheduler is not None:
            self._scheduler.close()
            self._scheduler = None

    async def __aenter__(self) -> "DetectionService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Secret registry
    # ------------------------------------------------------------------ #

    def register_secret(
        self,
        secret: WatermarkSecret,
        config: Optional[DetectionConfig] = None,
    ) -> str:
        """Register a secret for fingerprint-referenced requests.

        Returns the secret's fingerprint — the key wire clients put in
        ``secret_fingerprint`` so the secret material itself never has
        to travel per request. The optional ``config`` becomes the
        default thresholds for those requests. The detector is built
        (and cached) eagerly so the first request is already warm.
        """
        fingerprint = secret.fingerprint()
        self._registry[fingerprint] = (secret, config)
        self.cache.lookup(secret, config)
        return fingerprint

    def registered_secret(
        self, fingerprint: str
    ) -> Tuple[WatermarkSecret, Optional[DetectionConfig]]:
        """Resolve a registered fingerprint (raises ServiceError if unknown)."""
        try:
            return self._registry[fingerprint]
        except KeyError:
            raise ServiceError(
                f"no secret registered under fingerprint {fingerprint!r}"
            ) from None

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    async def detect(
        self,
        data: SuspectData,
        secret: Optional[WatermarkSecret] = None,
        config: Optional[DetectionConfig] = None,
        *,
        secret_fingerprint: Optional[str] = None,
    ) -> DetectionResult:
        """Queue one detection request and await its verdict.

        The verdict is identical to
        ``WatermarkDetector(secret, config).detect(data)`` (without the
        per-pair evidence objects); concurrent callers are coalesced
        into shared vectorized passes. Exactly one of ``secret`` /
        ``secret_fingerprint`` must be given.
        """
        result, _batch_size = await self._enqueue(
            data, secret, config, secret_fingerprint
        )
        return result

    async def submit(self, request: WireRequest) -> WireResponse:
        """Answer one wire request (any verb); failures become failure
        responses of the matching type. Each answered request is
        wrapped in a ``service.<verb>`` span when span recording is on
        (a no-op otherwise)."""
        if isinstance(request, TaskRequest):
            # Scheduler tasks belong to `freqywm worker`
            # (repro.exec.worker); the detection service answers with a
            # typed refusal instead of an unanswered id.
            self.stats.failures += 1
            return TaskResult.failure(
                request.request_id,
                "this service serves detection verbs; 'task' lines belong "
                "to freqywm worker",
            )
        if isinstance(request, StatsRequest):
            return self._submit_stats(request)
        if isinstance(request, EmbedRequest):
            with trace_span("service.embed"):
                return await self._submit_embed(request)
        if isinstance(request, (RegisterRequest, RevokeRequest, AttributeRequest)):
            verb = type(request).__name__.replace("Request", "").lower()
            with trace_span(f"service.{verb}"):
                return await self._submit_vault(request)
        with trace_span("service.detect"):
            return await self._submit_detect(request)

    def _submit_stats(self, request: StatsRequest) -> StatsResponse:
        """Answer a ``stats`` request with this service's stats groups.

        Each group is the ``as_dict()`` of an object this service holds:
        its own counters, its detector cache, its vault once one exists,
        and its shard scheduler plus the blob store that scheduler ships
        through once sharding has started. Another service in the same
        process never shows up here.
        """
        try:
            groups: Dict[str, Dict[str, object]] = {
                "service": self.stats.as_dict(),
                "detector_cache": self.cache.stats().as_dict(),
            }
            if self._vault_registry is not None:
                groups["vault"] = self._vault_registry.index_stats().as_dict()
            if self._scheduler is not None:
                groups["scheduler"] = self._scheduler.stats.as_dict()
                groups["blobs"] = default_blob_store().stats()
            return StatsResponse(
                request_id=request.request_id,
                metrics={"views": groups},
                prometheus=render_prometheus(groups),
            )
        except Exception as error:  # noqa: BLE001 - wire contract: a failure
            # response, never an unanswered id.
            self.stats.failures += 1
            return StatsResponse.failure(
                request.request_id,
                f"internal error: {type(error).__name__}: {error}",
            )

    async def _submit_detect(self, request: WireRequest) -> WireResponse:
        """Answer one detect request (the default wire verb)."""
        try:
            pending_input = request.suspect()
            (result, batch_size), cache_hit = await self._enqueue_with_hit(
                pending_input,
                request.inline_secret(),
                request.detection_config(),
                request.secret_fingerprint,
            )
        except ReproError as error:
            self.stats.failures += 1
            return DetectResponse.failure(request.request_id, str(error))
        except Exception as error:  # noqa: BLE001 - wire contract: a failure
            # response, never an unanswered id or a dead transport (e.g. a
            # broken worker pool surfacing through the sharded path).
            self.stats.failures += 1
            return DetectResponse.failure(
                request.request_id,
                f"internal error: {type(error).__name__}: {error}",
            )
        return DetectResponse.from_result(
            request.request_id, result, batch_size=batch_size, cache_hit=cache_hit
        )

    async def _submit_embed(self, request: EmbedRequest) -> EmbedResponse:
        """Answer one embed request; generation runs in the executor.

        Embedding is CPU-heavy (eligibility scan + selection) and has no
        cross-request state to coalesce when every request samples its
        own secret, so each request becomes one executor job — the event
        loop (and the detection batcher) stays responsive throughout. The
        job runs in the request's context, so its ``core.generate`` span
        nests under ``service.embed``.
        """
        if not self.running or self._closing:
            self.stats.failures += 1
            return EmbedResponse.failure(
                request.request_id, "the detection service is not running"
            )
        try:
            response = await asyncio.to_thread(self._embed_sync, request)
        except ReproError as error:
            self.stats.failures += 1
            return EmbedResponse.failure(request.request_id, str(error))
        except Exception as error:  # noqa: BLE001 - wire contract: a failure
            # response, never an unanswered id or a dead transport.
            self.stats.failures += 1
            return EmbedResponse.failure(
                request.request_id,
                f"internal error: {type(error).__name__}: {error}",
            )
        self.stats.embeds += 1
        return response

    def _embed_sync(self, request: EmbedRequest) -> EmbedResponse:
        """Decode, run ``WM_Generate`` and wrap the result (worker thread)."""
        generator = WatermarkGenerator(request.generation_config(), rng=request.seed)
        result = generator.generate(request.data(), secret_value=request.secret_value)
        return EmbedResponse.from_result(
            request.request_id, result, include_tokens=request.return_tokens
        )

    # ------------------------------------------------------------------ #
    # Vault verbs (register / revoke / attribute)
    # ------------------------------------------------------------------ #

    @property
    def vault(self) -> object:
        """The multi-tenant registry behind the vault verbs.

        An in-memory :class:`~repro.dispute.registry.WatermarkRegistry`
        is created lazily when the service was not given a persistent
        one; the import is deferred so detect/embed-only deployments
        never pull in the dispute layer.
        """
        if self._vault_registry is None:
            from repro.dispute.registry import WatermarkRegistry

            self._vault_registry = WatermarkRegistry()
        return self._vault_registry

    async def _submit_vault(
        self, request: "RegisterRequest | RevokeRequest | AttributeRequest"
    ) -> WireResponse:
        """Answer one vault verb; every failure becomes a failure response.

        Vault mutations are chained ledger appends (and, for a
        persistent vault, file writes), so all three verbs serialise on
        one lock; attribution's vectorized screen runs in the executor
        to keep the detection batcher responsive, in the request's
        context so the ``dispute.*`` spans nest under the verb's span.
        """
        failure = type(request).__name__.replace("Request", "Response")
        failure_type = {
            "RegisterResponse": RegisterResponse,
            "RevokeResponse": RevokeResponse,
            "AttributeResponse": AttributeResponse,
        }[failure]
        if not self.running or self._closing:
            self.stats.failures += 1
            return failure_type.failure(
                request.request_id, "the detection service is not running"
            )
        try:
            async with self._vault_lock:
                return await asyncio.to_thread(self._vault_sync, request)
        except ReproError as error:
            self.stats.failures += 1
            return failure_type.failure(request.request_id, str(error))
        except Exception as error:  # noqa: BLE001 - wire contract: a failure
            # response, never an unanswered id or a dead transport.
            self.stats.failures += 1
            return failure_type.failure(
                request.request_id,
                f"internal error: {type(error).__name__}: {error}",
            )

    def _vault_sync(
        self, request: "RegisterRequest | RevokeRequest | AttributeRequest"
    ) -> WireResponse:
        """Run one vault verb against the registry (worker thread)."""
        registry = self.vault
        if isinstance(request, RegisterRequest):
            entry = registry.register(
                request.buyer_id, request.watermark_secret(), **request.metadata
            )
            self.stats.registrations += 1
            return RegisterResponse(
                request_id=request.request_id,
                ok=True,
                buyer_id=entry.buyer_id,
                fingerprint=entry.fingerprint,
                vault_size=len(registry.active_buyers),
            )
        if isinstance(request, RevokeRequest):
            entry = registry.revoke(request.buyer_id, **request.metadata)
            self.stats.revocations += 1
            return RevokeResponse(
                request_id=request.request_id,
                ok=True,
                buyer_id=entry.buyer_id,
                fingerprint=entry.fingerprint,
                vault_size=len(registry.active_buyers),
            )
        matches = registry.attribute_leak(
            request.suspect(), detection=request.detection_config()
        )
        self.stats.attributions += 1
        screen = registry.last_attribution
        return AttributeResponse(
            request_id=request.request_id,
            ok=True,
            matches=tuple(matches),
            mode=screen.mode if screen is not None else None,
            candidates=screen.candidates if screen is not None else None,
            active_secrets=screen.active_secrets if screen is not None else None,
        )

    async def _enqueue(
        self,
        data: SuspectData,
        secret: Optional[WatermarkSecret],
        config: Optional[DetectionConfig],
        secret_fingerprint: Optional[str],
    ) -> Tuple[DetectionResult, int]:
        outcome, _hit = await self._enqueue_with_hit(
            data, secret, config, secret_fingerprint
        )
        return outcome

    async def _enqueue_with_hit(
        self,
        data: SuspectData,
        secret: Optional[WatermarkSecret],
        config: Optional[DetectionConfig],
        secret_fingerprint: Optional[str],
    ) -> Tuple[Tuple[DetectionResult, int], bool]:
        if not self.running or self._closing or self._queue is None:
            raise ServiceError("the detection service is not running")
        if (secret is None) == (secret_fingerprint is None):
            raise ServiceError(
                "exactly one of secret / secret_fingerprint must be given"
            )
        if secret is None:
            assert secret_fingerprint is not None
            secret, registered_config = self.registered_secret(secret_fingerprint)
            config = config if config is not None else registered_config
        detector, cache_hit = self.cache.lookup(secret, config)
        future: "asyncio.Future[Tuple[DetectionResult, int]]" = (
            asyncio.get_running_loop().create_future()
        )
        await self._queue.put(
            _Pending(suspect=data, detector=detector, cache_hit=cache_hit, future=future)
        )
        return await future, cache_hit

    # ------------------------------------------------------------------ #
    # Batcher
    # ------------------------------------------------------------------ #

    async def _run_batcher(self) -> None:
        assert self._queue is not None
        queue = self._queue
        loop = asyncio.get_running_loop()
        while True:
            first = await queue.get()
            if first is None:
                return
            window = [first]
            stopping = False
            deadline = loop.time() + self.config.max_delay
            while len(window) < self.config.max_batch and not stopping:
                timeout = deadline - loop.time()
                if timeout <= 0:
                    # Window expired: opportunistically drain whatever is
                    # already queued (this is the whole behaviour when
                    # max_delay is 0) without waiting further.
                    while len(window) < self.config.max_batch and not queue.empty():
                        item = queue.get_nowait()
                        if item is None:
                            stopping = True
                            break
                        window.append(item)
                    break
                try:
                    item = await asyncio.wait_for(queue.get(), timeout=timeout)
                except asyncio.TimeoutError:
                    break
                if item is None:
                    stopping = True
                    break
                window.append(item)
            await self._execute_window(window, loop)
            if stopping:
                return

    async def _execute_window(
        self, window: List[_Pending], loop: asyncio.AbstractEventLoop
    ) -> None:
        """Group one coalesced window by detector and run each group."""
        self.stats.requests += len(window)
        if len(window) > 1:
            self.stats.coalesced_requests += len(window)
        self.stats.largest_batch = max(self.stats.largest_batch, len(window))
        groups: Dict[str, List[_Pending]] = {}
        detectors: Dict[str, WatermarkDetector] = {}
        for pending in window:
            key = pending.detector.fingerprint
            groups.setdefault(key, []).append(pending)
            detectors[key] = pending.detector
        for key, group in groups.items():
            self.stats.batches += 1
            await self._execute_group(detectors[key], group, loop)

    async def _execute_group(
        self,
        detector: WatermarkDetector,
        group: List[_Pending],
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        """Answer one detector group with one pass.

        When the pass raises, each request of a larger group is run
        alone, so a malformed suspect fails only its own request.
        """
        suspects = [pending.suspect for pending in group]
        try:
            results = await loop.run_in_executor(
                None, self._detect_group, detector, suspects
            )
        except Exception as error:
            if len(group) > 1:
                for pending in group:
                    await self._execute_group(detector, [pending], loop)
                return
            self.stats.failures += 1
            if not group[0].future.done():
                group[0].future.set_exception(error)
            return
        for pending, result in zip(group, results):
            if not pending.future.done():
                pending.future.set_result((result, len(group)))

    def _detect_group(
        self, detector: WatermarkDetector, suspects: Sequence[SuspectData]
    ) -> List[DetectionResult]:
        """One vectorized pass (optionally sharded) over a detector group."""
        workers = self.config.shard_workers
        if (
            workers is not None
            and workers > 1
            and len(suspects) >= self.config.shard_min_batch
        ):
            if self._scheduler is None:
                self._scheduler = batch_scheduler(
                    ExecutionPolicy(workers=workers), "detection"
                )
            self.stats.sharded_batches += 1
            report = dispatch_detection(
                self._scheduler, detector.secret, detector.config, suspects
            )
            return list(report.results)
        return detector.detect_many(suspects)

    def cache_stats(self) -> CacheStats:
        """Snapshot of the detector cache counters."""
        return self.cache.stats()


class SyncDetectionService:
    """Blocking facade over :class:`DetectionService`.

    Owns a daemon thread running a private event loop, so synchronous
    library code (and threads) can share one resident service. Requests
    issued from multiple threads — or fired with :meth:`detect_all` —
    coalesce exactly like concurrent asyncio callers.

    Examples
    --------
    >>> with SyncDetectionService() as service:           # doctest: +SKIP
    ...     verdict = service.detect(tokens, secret)
    ...     verdicts = service.detect_all(datasets, secret)
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        registry: Optional[object] = None,
    ) -> None:
        self._service = DetectionService(config, registry=registry)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-detection-service", daemon=True
        )
        self._started = False

    # -- lifecycle ------------------------------------------------------ #

    def start(self) -> "SyncDetectionService":
        """Start the loop thread and the service (idempotent)."""
        if not self._started:
            self._thread.start()
            self._call(self._service.start())
            self._started = True
        return self

    def close(self) -> None:
        """Stop the service and tear down the loop thread (idempotent)."""
        if not self._started:
            return
        self._call(self._service.stop())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()
        self._started = False

    def __enter__(self) -> "SyncDetectionService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()

    # -- delegation ----------------------------------------------------- #

    @property
    def config(self) -> ServiceConfig:
        """The service's knobs."""
        return self._service.config

    @property
    def stats(self) -> ServiceStats:
        """The service's execution counters."""
        return self._service.stats

    def cache_stats(self) -> CacheStats:
        """Snapshot of the detector cache counters."""
        return self._service.cache_stats()

    def register_secret(
        self, secret: WatermarkSecret, config: Optional[DetectionConfig] = None
    ) -> str:
        """Register a secret for fingerprint-referenced requests."""
        return self._service.register_secret(secret, config)

    def detect(
        self,
        data: SuspectData,
        secret: Optional[WatermarkSecret] = None,
        config: Optional[DetectionConfig] = None,
        *,
        secret_fingerprint: Optional[str] = None,
    ) -> DetectionResult:
        """Blocking single verdict (coalesces with concurrent callers)."""
        return self._call(
            self._service.detect(
                data, secret, config, secret_fingerprint=secret_fingerprint
            )
        )

    def detect_all(
        self,
        datasets: Sequence[SuspectData],
        secret: Optional[WatermarkSecret] = None,
        config: Optional[DetectionConfig] = None,
        *,
        secret_fingerprint: Optional[str] = None,
    ) -> List[DetectionResult]:
        """Fire many single-dataset requests at once and await them all.

        Every request goes through the normal coalescing queue — this is
        the synchronous way to hand the service a concurrent burst — and
        verdicts come back in input order.
        """

        async def _gather() -> List[DetectionResult]:
            return list(
                await asyncio.gather(
                    *(
                        self._service.detect(
                            data, secret, config, secret_fingerprint=secret_fingerprint
                        )
                        for data in datasets
                    )
                )
            )

        return self._call(_gather())

    @property
    def vault(self) -> object:
        """The multi-tenant registry behind the vault verbs."""
        return self._service.vault

    def submit(self, request: WireRequest) -> WireResponse:
        """Blocking wire-level submission (any verb)."""
        return self._call(self._service.submit(request))


__all__ = [
    "ServiceConfig",
    "ServiceStats",
    "DetectionService",
    "SyncDetectionService",
]
