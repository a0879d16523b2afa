"""Resident detection service: cached detectors and transports.

The third scale-out leg after the vectorized engine (``repro.core``
arrays/batch) and the streaming + sharding layer: a long-lived service
that amortises detector construction across requests (LRU cache keyed by
secret/config fingerprint) and answers each detect in its own request,
one ``detect_many`` pass over the one suspect.

Layers, bottom up:

* :class:`DetectorCache` (from :mod:`repro.core.cache`, re-exported
  here) — the fingerprint-keyed LRU of constructed detectors;
* :mod:`repro.service.service` — :class:`DetectionService` (asyncio
  core) and :class:`SyncDetectionService` (blocking facade);
* :mod:`repro.service.wire` — the typed, versioned JSON-lines format
  (``detect`` / ``embed`` / ``register`` / ``revoke`` / ``attribute``);
* :mod:`repro.service.server` / :mod:`repro.service.client` — stdio and
  Unix-socket transports, exposed as ``freqywm serve`` / ``freqywm
  client``.

The registry verbs turn the resident service into a multi-tenant vault:
``serve --vault DIR`` backs them with a persistent
:class:`~repro.dispute.vault.SecretVault`; without it an in-memory
:class:`~repro.dispute.registry.WatermarkRegistry` is created on first
use. See ``docs/service.md`` for the versioned wire protocol reference
and ``docs/registry.md`` for the attribution flow.
"""

from repro.core.cache import DEFAULT_CACHE_CAPACITY, CacheStats, DetectorCache
from repro.service.client import ServiceClient
from repro.service.server import serve_stdio, serve_unix
from repro.service.service import (
    DetectionService,
    ServiceConfig,
    ServiceStats,
    SyncDetectionService,
)
from repro.service.wire import (
    PROTOCOL_VERSION,
    AttributeRequest,
    AttributeResponse,
    DetectRequest,
    DetectResponse,
    EmbedRequest,
    EmbedResponse,
    RegisterRequest,
    RegisterResponse,
    RevokeRequest,
    RevokeResponse,
    WireRequest,
    WireResponse,
    decode_request,
    decode_response,
    encode_line,
)

__all__ = [
    "DEFAULT_CACHE_CAPACITY",
    "PROTOCOL_VERSION",
    "CacheStats",
    "DetectorCache",
    "ServiceClient",
    "serve_stdio",
    "serve_unix",
    "DetectionService",
    "ServiceConfig",
    "ServiceStats",
    "SyncDetectionService",
    "AttributeRequest",
    "AttributeResponse",
    "DetectRequest",
    "DetectResponse",
    "EmbedRequest",
    "EmbedResponse",
    "RegisterRequest",
    "RegisterResponse",
    "RevokeRequest",
    "RevokeResponse",
    "WireRequest",
    "WireResponse",
    "decode_request",
    "decode_response",
    "encode_line",
]
