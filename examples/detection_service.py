#!/usr/bin/env python3
"""Resident detection service: cached detectors, one verdict per request.

A marketplace operator runs ownership verdicts as a resident service.
Requests arrive one dataset at a time — takedown checks, buyer audits,
crawl screening — against a working set of watermarks, and the service
amortises what a stateless deployment pays per request:

1. **Detector cache** — two watermarks (two buyers' fingerprinted
   copies) are registered up front; their detectors are constructed once
   and every later verdict is an LRU cache hit (no SHA-256 moduli
   derivation on the request path).
2. **Concurrent callers** — 300 single-dataset requests, interleaved
   across both secrets and fired from two threads, are each answered in
   their own request by one vectorized ``detect_many`` pass over that
   request's suspect.
3. **Parity** — every service verdict is checked against a direct
   ``WatermarkDetector.detect`` call: identical counters, identical
   verdicts.
4. **Wire format** — the same requests expressed as JSON-lines
   (``repro.service.wire``), the format ``freqywm serve`` / ``freqywm
   client`` speak over stdio or a Unix socket.

Run with:  python examples/detection_service.py
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.detector import WatermarkDetector, detect_watermark
from repro.core.generator import generate_watermark
from repro.core.histogram import TokenHistogram
from repro.datasets.synthetic import generate_power_law_tokens
from repro.service import (
    DetectRequest,
    ServiceConfig,
    SyncDetectionService,
    encode_line,
)
from repro.utils.rng import ensure_rng

#: Concurrent single-dataset requests fired at the service.
REQUESTS = 300
#: Suspected-dataset size (tokens) of each request.
SUSPECT_SIZE = 2_000


def build_watermarks():
    """Two buyer copies of one asset, each with its own secret."""
    asset = generate_power_law_tokens(0.65, n_tokens=300, sample_size=120_000, rng=1)
    buyer_a = generate_watermark(asset, budget_percent=2.0, modulus_cap=31, rng=2)
    buyer_b = generate_watermark(asset, budget_percent=2.0, modulus_cap=29, rng=3)
    return buyer_a, buyer_b


def build_request_mix(buyer_a, buyer_b):
    """An interleaved request stream: copies, decoys, cross-buyer data."""
    rng = ensure_rng(99)
    decoy = TokenHistogram.from_tokens(
        [f"decoy-{int(i)}" for i in rng.integers(0, 50, size=20_000)]
    )
    pool = [
        (0, buyer_a.watermarked_histogram),  # buyer A's copy -> accept under A
        (1, buyer_b.watermarked_histogram),  # buyer B's copy -> accept under B
        (0, decoy),                          # unrelated data  -> reject
        (1, buyer_a.watermarked_histogram),  # A's copy under B's secret
    ]
    order = rng.integers(0, len(pool), size=REQUESTS)
    return [pool[int(index)] for index in order]


def main() -> int:
    buyer_a, buyer_b = build_watermarks()
    secrets = [buyer_a.secret, buyer_b.secret]
    requests = build_request_mix(buyer_a, buyer_b)

    # -- resident service: register both watermarks, fire the burst ---- #
    config = ServiceConfig(cache_capacity=8)
    with SyncDetectionService(config) as service:
        fingerprints = [service.register_secret(secret) for secret in secrets]
        started = time.perf_counter()
        per_secret = {}
        for index, (secret_index, data) in enumerate(requests):
            per_secret.setdefault(secret_index, []).append((index, data))
        # Both secrets' bursts are fired from concurrent threads, so the
        # service answers requests for the two detectors interleaved.
        verdicts = [None] * len(requests)
        with ThreadPoolExecutor(max_workers=len(per_secret)) as executor:
            futures = {
                executor.submit(
                    service.detect_all,
                    [data for _i, data in members],
                    secret_fingerprint=fingerprints[secret_index],
                ): members
                for secret_index, members in per_secret.items()
            }
            for future, members in futures.items():
                for (request_index, _data), result in zip(members, future.result()):
                    verdicts[request_index] = result
        service_seconds = time.perf_counter() - started
        stats = service.stats.as_dict()
        cache = service.cache_stats().as_dict()

    # -- baseline: the same requests as stateless one-shot calls ------- #
    started = time.perf_counter()
    baseline = [
        detect_watermark(data, secrets[secret_index])
        for secret_index, data in requests
    ]
    one_shot_seconds = time.perf_counter() - started

    # -- parity: service == direct detection, request by request ------- #
    detectors = [WatermarkDetector(secret) for secret in secrets]
    for (secret_index, data), verdict, direct in zip(requests, verdicts, baseline):
        reference = detectors[secret_index].detect(data)
        assert (verdict.accepted, verdict.accepted_pairs) == (
            reference.accepted,
            reference.accepted_pairs,
        )
        assert (direct.accepted, direct.accepted_pairs) == (
            reference.accepted,
            reference.accepted_pairs,
        )

    accepted = sum(1 for verdict in verdicts if verdict.accepted)
    print(f"requests            : {len(requests)} across {len(secrets)} secrets")
    print(f"accepted verdicts   : {accepted}")
    print(
        f"service             : {service_seconds * 1000:7.1f} ms "
        f"({stats['requests']} requests, {cache['misses']} detector "
        f"constructions, cache hit rate {cache['hit_rate']:.1%})"
    )
    print(
        f"one-shot baseline   : {one_shot_seconds * 1000:7.1f} ms "
        f"({len(requests)} detector constructions)"
    )
    print(
        f"speedup             : "
        f"{one_shot_seconds / max(service_seconds, 1e-9):7.1f} x"
    )

    # -- the same thing on the wire ------------------------------------ #
    wire_request = DetectRequest(
        request_id="takedown-001",
        counts=buyer_a.watermarked_histogram.as_dict(),
        secret_fingerprint=fingerprints[0],
    )
    line = encode_line(wire_request)
    print(f"wire request        : {line[:76]}...")
    print("serve it with       : freqywm serve --socket svc.sock --secret a.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
