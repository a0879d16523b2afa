"""Resident detection service: cached detectors, one verdict per request.

One-shot detection pays the detector construction (SHA-256 moduli for
every stored pair) per verdict. A resident service keeps constructed
detectors in a :class:`~repro.core.cache.DetectorCache` keyed by the
secret/config fingerprint, so repeated verdicts against the same
watermark skip moduli precomputation entirely.

Each detect is answered in the request's own task, with the detector
from that cache, by one
:meth:`~repro.core.detector.WatermarkDetector.detect_many` pass over its
one suspect. A verdict reads only the counts of the secret's pair
tokens, so a suspect that is already checked counts
(:class:`~repro.core.histogram.TokenCounts`, what every wire ``counts``
detect holds) or a :class:`~repro.core.histogram.TokenHistogram` is
read inline; any other suspect (a token sequence to count, a mapping
still to check) is read in a worker thread, so a large list never
stalls the event loop. Verdicts are identical to direct
:meth:`WatermarkDetector.detect` (without the per-pair evidence
objects), and ``tests/test_service_properties.py`` asserts this for
arbitrary request interleavings across distinct secrets.

:class:`DetectionService` is the asyncio core; :class:`SyncDetectionService`
wraps it for synchronous library callers (the facade owns a background
event-loop thread). The JSON-lines transport on top lives in
:mod:`repro.service.server`.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cache import DEFAULT_CACHE_CAPACITY, CacheStats, DetectorCache
from repro.core.config import DetectionConfig
from repro.core.detector import DetectionResult, SuspectData
from repro.core.generator import WatermarkGenerator
from repro.core.histogram import TokenCounts, TokenHistogram
from repro.core.secrets import WatermarkSecret
from repro.exceptions import ReproError, ServiceError
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
    cache_capacity:
        Detectors kept resident in the LRU cache.
    """

    cache_capacity: int = DEFAULT_CACHE_CAPACITY

    def __post_init__(self) -> None:
        if self.cache_capacity < 1:
            raise ServiceError(
                f"cache_capacity must be >= 1, got {self.cache_capacity}"
            )


@dataclass
class ServiceStats:
    """Mutable execution counters of one service instance.

    ``requests`` counts the detects that reached a detector (a verdict
    or a failed pass); ``failures`` counts every failed request of any
    verb once, whichever entry it came through.
    """

    requests: int = 0
    failures: int = 0
    embeds: int = 0
    registrations: int = 0
    revocations: int = 0
    attributions: int = 0

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary for reports and ``--json`` output."""
        return asdict(self)


class DetectionService:
    """Asyncio detection service with cached detectors.

    Examples
    --------
    >>> async def screen(datasets, secret):                # doctest: +SKIP
    ...     async with DetectionService() as service:
    ...         verdicts = await asyncio.gather(
    ...             *(service.detect(data, secret) for data in datasets)
    ...         )
    ...     return [verdict.accepted for verdict in verdicts]

    Each ``detect`` is answered in its caller's task with the cached
    detector; see :class:`SyncDetectionService` for the blocking facade.
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
        #: Whether requests are answered: set by :meth:`start`, cleared
        #: by :meth:`stop`. Outside that span every verb fails with the
        #: typed "not running" error.
        self.running = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Start answering requests (idempotent)."""
        self.running = True

    async def stop(self) -> None:
        """Stop answering new requests; requests already answering finish."""
        self.running = False

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
        """Answer one detection request with its verdict.

        The verdict is identical to
        ``WatermarkDetector(secret, config).detect(data)`` (without the
        per-pair evidence objects). Exactly one of ``secret`` /
        ``secret_fingerprint`` must be given. A failure is counted once
        in :attr:`stats` and raised.
        """
        try:
            result, _cache_hit = await self._verdict(
                data, secret, config, secret_fingerprint
            )
        except Exception:
            self.stats.failures += 1
            raise
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
            return await self._submit_stats(request)
        if isinstance(request, EmbedRequest):
            with trace_span("service.embed"):
                return await self._submit_embed(request)
        if isinstance(request, (RegisterRequest, RevokeRequest, AttributeRequest)):
            verb = type(request).__name__.replace("Request", "").lower()
            with trace_span(f"service.{verb}"):
                return await self._submit_vault(request)
        with trace_span("service.detect"):
            return await self._submit_detect(request)

    async def _submit_stats(self, request: StatsRequest) -> StatsResponse:
        """Answer a ``stats`` request with this service's stats groups.

        Each group is the ``as_dict()`` of an object this service holds:
        its own counters, its detector cache and its vault once one
        exists. Another service in the same process never shows up here.
        The vault group is read as the vault verbs run, under their lock
        in a worker thread: reading it may build or compact the
        candidate index, so it waits for a register, revoke or attribute
        in flight.
        """
        try:
            vault = None
            if self._vault_registry is not None:
                async with self._vault_lock:
                    vault = await asyncio.to_thread(self._vault_registry.index_stats)
            groups: Dict[str, Dict[str, object]] = {
                "service": self.stats.as_dict(),
                "detector_cache": self.cache.stats().as_dict(),
            }
            if vault is not None:
                groups["vault"] = vault.as_dict()
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
        """Answer one detect request (the default wire verb).

        ``batch_size`` stays on the wire for protocol-5 peers and is
        always ``1``: each detect is its own pass.
        """
        try:
            result, cache_hit = await self._verdict(
                request.suspect(),
                request.inline_secret(),
                request.detection_config(),
                request.secret_fingerprint,
            )
        except ReproError as error:
            self.stats.failures += 1
            return DetectResponse.failure(request.request_id, str(error))
        except Exception as error:  # noqa: BLE001 - wire contract: a failure
            # response, never an unanswered id or a dead transport.
            self.stats.failures += 1
            return DetectResponse.failure(
                request.request_id,
                f"internal error: {type(error).__name__}: {error}",
            )
        return DetectResponse.from_result(
            request.request_id, result, batch_size=1, cache_hit=cache_hit
        )

    async def _verdict(
        self,
        data: SuspectData,
        secret: Optional[WatermarkSecret],
        config: Optional[DetectionConfig],
        secret_fingerprint: Optional[str],
    ) -> Tuple[DetectionResult, bool]:
        """``(verdict, cache_hit)`` of one detect; counts no failure.

        Checked counts and histograms are read at the detector's columns
        inline; anything else is read in a worker thread (in this
        request's context, so its spans nest under ``service.detect``).
        """
        if not self.running:
            raise ServiceError("the detection service is not running")
        if (secret is None) == (secret_fingerprint is None):
            raise ServiceError(
                "exactly one of secret / secret_fingerprint must be given"
            )
        if secret is None:
            secret, registered_config = self.registered_secret(secret_fingerprint)
            config = config if config is not None else registered_config
        detector, cache_hit = self.cache.lookup(secret, config)
        self.stats.requests += 1
        if isinstance(data, (TokenCounts, TokenHistogram)):
            (result,) = detector.detect_many([data])
        else:
            (result,) = await asyncio.to_thread(detector.detect_many, [data])
        return result, cache_hit

    async def _submit_embed(self, request: EmbedRequest) -> EmbedResponse:
        """Answer one embed request; generation runs in the executor.

        Embedding is CPU-heavy (eligibility scan + selection), so each
        request becomes one executor job and the event loop stays
        responsive throughout. The job runs in the request's context, so
        its ``core.generate`` span nests under ``service.embed``.
        """
        if not self.running:
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
        to keep the event loop responsive, in the request's context so
        the ``dispute.*`` spans nest under the verb's span.
        """
        failure = type(request).__name__.replace("Request", "Response")
        failure_type = {
            "RegisterResponse": RegisterResponse,
            "RevokeResponse": RevokeResponse,
            "AttributeResponse": AttributeResponse,
        }[failure]
        if not self.running:
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

    def cache_stats(self) -> CacheStats:
        """Snapshot of the detector cache counters."""
        return self.cache.stats()


class SyncDetectionService:
    """Blocking facade over :class:`DetectionService`.

    Owns a daemon thread running a private event loop, so synchronous
    library code (and threads) can share one resident service and its
    detector cache.

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
        """Blocking single verdict."""
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

        Each request is answered as :meth:`detect` answers it; verdicts
        come back in input order.
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
