"""Detection service layer: cache, wire format, detect requests, transports."""

from __future__ import annotations

import asyncio
import io
import json
import threading

import pytest

from repro.core.config import DetectionConfig
from repro.core.detector import WatermarkDetector, detector_fingerprint
from repro.core.batch import detect_many
from repro.core.generator import generate_watermark
from repro.core.histogram import TokenHistogram, checked_counts
from repro.core.secrets import WatermarkSecret
from repro.datasets.synthetic import generate_power_law_tokens
from repro.exceptions import DetectionError, ReproError, ServiceError
from repro.service import (
    AttributeRequest,
    DetectionService,
    DetectorCache,
    DetectRequest,
    DetectResponse,
    EmbedRequest,
    RegisterRequest,
    ServiceConfig,
    SyncDetectionService,
    decode_request,
    decode_response,
    encode_line,
    serve_stdio,
)


@pytest.fixture(scope="module")
def watermark():
    tokens = generate_power_law_tokens(0.7, n_tokens=60, sample_size=8_000, rng=5)
    return generate_watermark(tokens, budget_percent=2.0, modulus_cap=31, rng=7)


@pytest.fixture(scope="module")
def other_watermark():
    tokens = generate_power_law_tokens(0.6, n_tokens=50, sample_size=6_000, rng=11)
    return generate_watermark(tokens, budget_percent=2.0, modulus_cap=23, rng=13)


@pytest.fixture(scope="module")
def decoy():
    return TokenHistogram.from_tokens([f"decoy-{i % 9}" for i in range(4_000)])


def _verdict(result):
    return (
        result.accepted,
        result.accepted_pairs,
        result.required_pairs,
        result.total_pairs,
    )


class TestFingerprints:
    def test_fingerprint_distinguishes_secret_and_config(self, watermark, other_watermark):
        base = detector_fingerprint(watermark.secret)
        assert base == detector_fingerprint(watermark.secret, DetectionConfig())
        assert base != detector_fingerprint(other_watermark.secret)
        assert base != detector_fingerprint(
            watermark.secret, DetectionConfig(pair_threshold=1)
        )

    def test_detector_property_memoises(self, watermark):
        detector = WatermarkDetector(watermark.secret)
        assert detector.fingerprint == detector_fingerprint(watermark.secret)
        assert detector.fingerprint is detector.fingerprint  # cached str

    def test_detect_many_reuses_prebuilt_detector(self, watermark, decoy):
        detector = WatermarkDetector(watermark.secret)
        reused = detect_many(
            [watermark.watermarked_histogram, decoy], detector=detector
        )
        fresh = detect_many([watermark.watermarked_histogram, decoy], watermark.secret)
        assert [_verdict(r) for r in reused] == [_verdict(r) for r in fresh]

    def test_detect_many_rejects_mismatched_detector(self, watermark, other_watermark):
        detector = WatermarkDetector(other_watermark.secret)
        with pytest.raises(DetectionError):
            detect_many(
                [watermark.watermarked_histogram], watermark.secret, detector=detector
            )

    def test_detect_many_rejects_mismatched_config(self, watermark):
        detector = WatermarkDetector(watermark.secret)  # strict t=0 thresholds
        with pytest.raises(DetectionError):
            detect_many(
                [watermark.watermarked_histogram],
                config=DetectionConfig(pair_threshold=5),
                detector=detector,
            )
        # An equal (even if separately constructed) config is accepted.
        report = detect_many(
            [watermark.watermarked_histogram],
            config=DetectionConfig(),
            detector=detector,
        )
        assert report[0].accepted

    def test_detect_many_requires_secret_or_detector(self, decoy):
        with pytest.raises(DetectionError):
            detect_many([decoy])


class TestDetectorCache:
    def test_hit_miss_and_reuse(self, watermark):
        cache = DetectorCache(capacity=2)
        first, hit1 = cache.lookup(watermark.secret)
        second, hit2 = cache.lookup(watermark.secret)
        assert (hit1, hit2) == (False, True)
        assert first is second
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)

    def test_distinct_configs_are_distinct_entries(self, watermark):
        cache = DetectorCache(capacity=4)
        loose = DetectionConfig(pair_threshold=2)
        a = cache.get(watermark.secret)
        b = cache.get(watermark.secret, loose)
        assert a is not b
        assert len(cache) == 2

    def test_lru_eviction(self, watermark, other_watermark):
        cache = DetectorCache(capacity=2)
        a = cache.get(watermark.secret)
        cache.get(other_watermark.secret)
        cache.get(watermark.secret)  # refresh a
        cache.get(watermark.secret, DetectionConfig(pair_threshold=1))  # evicts other
        assert cache.stats().evictions == 1
        again, hit = cache.lookup(watermark.secret)
        assert hit and again is a
        _, other_hit = cache.lookup(other_watermark.secret)
        assert not other_hit  # was the LRU victim

    def test_invalid_capacity(self):
        with pytest.raises(ServiceError):
            DetectorCache(capacity=0)


class TestWireFormat:
    def test_request_roundtrip(self, watermark):
        request = DetectRequest(
            request_id="r-1",
            counts={"a": 3, "b": 1},
            secret=watermark.secret.to_dict(),
            config={"pair_threshold": 1},
        )
        clone = decode_request(encode_line(request))
        assert clone == request
        assert clone.inline_secret() == watermark.secret
        assert clone.detection_config() == DetectionConfig(pair_threshold=1)

    def test_response_roundtrip(self, watermark):
        detector = WatermarkDetector(watermark.secret)
        result = detector.detect(watermark.watermarked_histogram)
        response = DetectResponse.from_result(
            "r-2", result, batch_size=5, cache_hit=True
        )
        clone = decode_response(encode_line(response))
        assert clone == response
        assert clone.accepted_fraction == result.accepted_fraction

    def test_request_validation(self):
        with pytest.raises(ServiceError):
            DetectRequest(request_id="x")  # neither tokens nor counts
        with pytest.raises(ServiceError):
            DetectRequest(request_id="x", tokens=("a",), counts={"a": 1},
                          secret_fingerprint="f")
        with pytest.raises(ServiceError):
            DetectRequest(request_id="x", tokens=("a",))  # no secret reference
        with pytest.raises(ServiceError):
            DetectRequest(
                request_id="x",
                tokens=("a",),
                secret_fingerprint="f",
                config={"bogus_knob": 1},
            )
        with pytest.raises(ServiceError):
            decode_request("this is not json")
        with pytest.raises(ServiceError):
            decode_request('{"tokens": ["a"]}')  # missing id
        # Float counts would be silently truncated by int(): rejected.
        with pytest.raises(ServiceError, match="malformed counts"):
            decode_request(
                '{"id": "x", "counts": {"tokens": ["tok"], "counts": [5.9]}, '
                '"secret_fingerprint": "f"}'
            )
        with pytest.raises(ServiceError, match="malformed counts"):
            decode_request(
                '{"id": "x", "counts": {"tokens": ["tok"], "counts": [true]}, '
                '"secret_fingerprint": "f"}'
            )


class TestServiceConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cache_capacity": 0},
        ],
    )
    def test_rejects_invalid_knobs(self, kwargs):
        with pytest.raises(ServiceError):
            ServiceConfig(**kwargs)


class TestCoalescing:
    def test_concurrent_requests_share_batches(self, watermark, decoy):
        async def run():
            async with DetectionService() as service:
                suspects = [watermark.watermarked_histogram, decoy] * 15
                results = await asyncio.gather(
                    *(service.detect(data, watermark.secret) for data in suspects)
                )
                return results, service.stats, service.cache_stats()

        results, stats, cache_stats = asyncio.run(run())
        detector = WatermarkDetector(watermark.secret)
        for data, result in zip(
            [watermark.watermarked_histogram, decoy] * 15, results
        ):
            assert _verdict(result) == _verdict(detector.detect(data))
        assert stats.requests == 30
        assert cache_stats.misses == 1  # one detector construction total

    def test_groups_by_secret_within_window(self, watermark, other_watermark):
        async def run():
            async with DetectionService() as service:
                first = service.detect(
                    watermark.watermarked_histogram, watermark.secret
                )
                second = service.detect(
                    other_watermark.watermarked_histogram, other_watermark.secret
                )
                results = await asyncio.gather(first, second)
                return results, service.stats

        results, stats = asyncio.run(run())
        assert results[0].accepted and results[1].accepted
        assert results[0].total_pairs == len(watermark.secret.pairs)
        assert results[1].total_pairs == len(other_watermark.secret.pairs)
        assert stats.requests == 2

    def test_bad_detect_fails_alone_in_its_window(self, watermark):
        """An empty token list sent with three good detects fails only
        itself; the three good ones still get their verdicts."""
        counts = watermark.watermarked_histogram.as_dict()

        async def run():
            async with DetectionService() as service:
                fingerprint = service.register_secret(watermark.secret)
                requests = [
                    DetectRequest(request_id="good0", counts=counts, secret_fingerprint=fingerprint),
                    DetectRequest(request_id="bad", tokens=(), secret_fingerprint=fingerprint),
                    DetectRequest(request_id="good1", counts=counts, secret_fingerprint=fingerprint),
                    DetectRequest(request_id="good2", counts=counts, secret_fingerprint=fingerprint),
                ]
                responses = await asyncio.gather(*(service.submit(r) for r in requests))
                return responses, service.stats

        responses, stats = asyncio.run(run())
        by_id = {response.request_id: response for response in responses}
        assert not by_id["bad"].ok
        assert by_id["bad"].error == "cannot build a histogram from an empty dataset"
        direct = WatermarkDetector(watermark.secret).detect(counts)
        for request_id in ("good0", "good1", "good2"):
            assert by_id[request_id].ok, by_id[request_id].error
            assert by_id[request_id].accepted_pairs == direct.accepted_pairs
            assert by_id[request_id].accepted == direct.accepted
        assert stats.requests == 4

    @pytest.mark.parametrize(
        "kind, inline",
        [("counts", True), ("histogram", True), ("mapping", False), ("tokens", False)],
    )
    def test_only_suspects_still_to_read_leave_the_loop(
        self, watermark, monkeypatch, kind, inline
    ):
        """Checked counts and histograms are read in the request's task;
        a token sequence or an unchecked mapping in a worker thread."""
        histogram = watermark.watermarked_histogram
        suspect = {
            "counts": checked_counts(histogram.as_dict()),
            "histogram": histogram,
            "mapping": histogram.as_dict(),
            "tokens": watermark.watermarked_tokens,
        }[kind]
        threads = []
        detect_many = WatermarkDetector.detect_many

        def recording(self, datasets, **kwargs):
            threads.append(threading.current_thread())
            return detect_many(self, datasets, **kwargs)

        monkeypatch.setattr(WatermarkDetector, "detect_many", recording)

        async def run():
            async with DetectionService() as service:
                return await service.detect(suspect, watermark.secret)

        result = asyncio.run(run())
        assert _verdict(result) == _verdict(WatermarkDetector(watermark.secret).detect(histogram))
        assert len(threads) == 1
        assert (threads[0] is threading.main_thread()) is inline

    def test_each_failed_detect_counts_one_failure(self, watermark):
        """A failed detect counts once in ``stats.failures``, whether it
        arrived as a wire request or a library call, and whether it
        failed in its pass or before it."""
        secret = watermark.secret

        async def run():
            counted = []
            async with DetectionService() as service:
                for request in (
                    DetectRequest(request_id="empty", tokens=(), secret=secret.to_dict()),
                    DetectRequest(request_id="unknown", tokens=("a",), secret_fingerprint="nope"),
                ):
                    response = await service.submit(request)
                    assert not response.ok
                    counted.append(service.stats.failures)
                with pytest.raises(ReproError, match="empty dataset"):
                    await service.detect([], secret)
                counted.append(service.stats.failures)
                with pytest.raises(ServiceError, match="no secret registered"):
                    await service.detect(["a"], secret_fingerprint="nope")
                counted.append(service.stats.failures)
                return counted, service.stats.requests

        counted, requests = asyncio.run(run())
        assert counted == [1, 2, 3, 4]
        assert requests == 2  # the two empty datasets reached a detector

    def test_submit_not_running_raises(self, watermark):
        async def run():
            service = DetectionService()
            with pytest.raises(ServiceError):
                await service.detect(["a"], watermark.secret)

        asyncio.run(run())

    def test_unstarted_and_stopped_services_refuse_every_verb(self, watermark):
        """Outside start()..stop() each verb gets the typed failure."""
        counts = watermark.watermarked_histogram.as_dict()
        secret = watermark.secret.to_dict()
        requests = [
            DetectRequest(request_id="d", counts=counts, secret=secret),
            EmbedRequest(request_id="e", counts=counts, seed=1),
            RegisterRequest(request_id="r", buyer_id="acme", secret=secret),
            AttributeRequest(request_id="a", counts=counts),
        ]

        async def answers(service):
            return [await service.submit(request) for request in requests]

        async def run():
            unstarted = DetectionService()
            before = await answers(unstarted)
            async with DetectionService() as stopped:
                assert (await stopped.submit(requests[0])).ok
            after = await answers(stopped)
            return before, after, stopped.stats

        before, after, stats = asyncio.run(run())
        for response in before + after:
            assert not response.ok
            assert response.error == "the detection service is not running"
        assert [type(response).__name__ for response in after] == [
            "DetectResponse",
            "EmbedResponse",
            "RegisterResponse",
            "AttributeResponse",
        ]
        assert (stats.requests, stats.failures) == (1, len(requests))

    def test_requires_exactly_one_secret_form(self, watermark):
        async def run():
            async with DetectionService() as service:
                with pytest.raises(ServiceError):
                    await service.detect(["a"])
                with pytest.raises(ServiceError):
                    await service.detect(
                        ["a"], watermark.secret, secret_fingerprint="also"
                    )

        asyncio.run(run())

    def test_unknown_fingerprint_is_service_error(self):
        async def run():
            async with DetectionService() as service:
                with pytest.raises(ServiceError):
                    await service.detect(["a"], secret_fingerprint="nope")

        asyncio.run(run())

    def test_evicted_detectors_rebuild_without_deriving(
        self, watermark, other_watermark, moduli_derivations
    ):
        """A one-detector cache evicts on every alternation; the rebuilt
        detectors read the registered secrets' memoised moduli."""
        cases = [
            (
                WatermarkSecret.from_dict(item.secret.to_dict()),
                item.watermarked_histogram,
            )
            for item in (watermark, other_watermark)
        ]
        with SyncDetectionService(ServiceConfig(cache_capacity=1)) as service:
            fingerprints = [service.register_secret(secret) for secret, _ in cases]
            assert moduli_derivations == [len(secret) for secret, _ in cases]
            for _ in range(3):
                for fingerprint, (secret, histogram) in zip(fingerprints, cases):
                    verdict = service.detect(histogram, secret_fingerprint=fingerprint)
                    assert _verdict(verdict) == _verdict(
                        WatermarkDetector(secret).detect(histogram)
                    )
            assert service.cache_stats().evictions >= 6
        assert len(moduli_derivations) == len(cases)


class TestRegistryAndWire:
    def test_registered_secret_answers_wire_requests(self, watermark, decoy):
        async def run():
            async with DetectionService() as service:
                fingerprint = service.register_secret(watermark.secret)
                accepted = await service.submit(
                    DetectRequest(
                        request_id="wm",
                        counts=watermark.watermarked_histogram.as_dict(),
                        secret_fingerprint=fingerprint,
                    )
                )
                rejected = await service.submit(
                    DetectRequest(
                        request_id="decoy",
                        counts=decoy.as_dict(),
                        secret_fingerprint=fingerprint,
                    )
                )
                return accepted, rejected

        accepted, rejected = asyncio.run(run())
        assert accepted.ok and accepted.accepted and accepted.cache_hit
        assert rejected.ok and not rejected.accepted
        detector = WatermarkDetector(watermark.secret)
        direct = detector.detect(watermark.watermarked_histogram)
        assert accepted.accepted_pairs == direct.accepted_pairs
        assert accepted.total_pairs == direct.total_pairs

    def test_registry_default_config_applies(self, watermark):
        loose = DetectionConfig(pair_threshold=3, min_accepted_fraction=0.1)
        async def run():
            async with DetectionService() as service:
                fingerprint = service.register_secret(watermark.secret, loose)
                response = await service.submit(
                    DetectRequest(
                        request_id="r",
                        counts=watermark.watermarked_histogram.as_dict(),
                        secret_fingerprint=fingerprint,
                    )
                )
                return response

        response = asyncio.run(run())
        direct = WatermarkDetector(watermark.secret, loose).detect(
            watermark.watermarked_histogram
        )
        assert response.required_pairs == direct.required_pairs

    @pytest.mark.parametrize("threshold", [2**70, 1.5, True])
    def test_malformed_config_is_a_typed_failure(self, watermark, threshold):
        counts = watermark.watermarked_histogram.as_dict()
        line = json.dumps(
            {
                "id": "cfg",
                "counts": {"tokens": list(counts), "counts": list(counts.values())},
                "secret": watermark.secret.to_dict(),
                "config": {"pair_threshold": threshold},
            }
        )

        async def run():
            async with DetectionService() as service:
                return await service.submit(decode_request(line))

        response = asyncio.run(run())
        assert not response.ok
        assert "cfg' has a malformed config" in (response.error or "")

    @pytest.mark.parametrize(
        "config",
        [
            {"strategy": 5},
            {"metric": 5},
            {"metric": "hamming"},
            {"secret_bits": 1.5},
            {"max_candidates": 2.5},
            {"require_modification": "yes"},
            {"budget_percent": True},
            {"budget_percent": "2"},
            {"max_pairs": True},
            {"excluded_tokens": "t001"},
            {"excluded_tokens": [1, None]},
        ],
        ids=lambda config: "-".join(f"{key}={value!r}" for key, value in config.items()),
    )
    def test_malformed_embed_config_is_a_typed_failure(self, config):
        tokens = [f"t{index:03d}" for index in range(40)]
        counts = [900 - 20 * index for index in range(40)]
        line = json.dumps(
            {
                "op": "embed",
                "id": "cfg",
                "counts": {"tokens": tokens, "counts": counts},
                "seed": 3,
                "config": config,
            }
        )
        with SyncDetectionService() as service:
            response = service.submit(decode_request(line))
        assert not response.ok
        assert "cfg' has a malformed config" in (response.error or ""), response.error

    def test_wire_failure_is_a_failure_response(self, watermark):
        async def run():
            async with DetectionService() as service:
                return await service.submit(
                    DetectRequest(
                        request_id="bad",
                        tokens=("a", "b"),
                        secret_fingerprint="unregistered",
                    )
                )

        response = asyncio.run(run())
        assert not response.ok
        assert "unregistered" in (response.error or "")

    def test_unexpected_detect_error_becomes_failure_response(
        self, watermark, monkeypatch
    ):
        """The wire contract: no exception may leave a request unanswered."""
        monkeypatch.setattr(
            WatermarkDetector,
            "detect_many",
            lambda self, *a, **k: (_ for _ in ()).throw(RuntimeError("worker died")),
        )

        async def run():
            async with DetectionService() as service:
                return await service.submit(
                    DetectRequest(
                        request_id="boom",
                        tokens=("a", "b"),
                        secret=watermark.secret.to_dict(),
                    )
                )

        response = asyncio.run(run())
        assert not response.ok
        assert "RuntimeError" in (response.error or "")
        assert "worker died" in (response.error or "")


class TestSyncFacade:
    def test_detect_and_detect_all_match_direct(self, watermark, decoy):
        detector = WatermarkDetector(watermark.secret)
        with SyncDetectionService() as service:
            single = service.detect(watermark.watermarked_histogram, watermark.secret)
            burst = service.detect_all(
                [watermark.watermarked_histogram, decoy] * 5, watermark.secret
            )
            stats = service.stats
        assert _verdict(single) == _verdict(
            detector.detect(watermark.watermarked_histogram)
        )
        for data, result in zip([watermark.watermarked_histogram, decoy] * 5, burst):
            assert _verdict(result) == _verdict(detector.detect(data))
        assert stats.requests == 11

    def test_start_and_close_are_idempotent(self, watermark):
        service = SyncDetectionService()
        service.start()
        service.start()
        fingerprint = service.register_secret(watermark.secret)
        result = service.detect(
            watermark.watermarked_histogram, secret_fingerprint=fingerprint
        )
        assert result.accepted
        service.close()
        service.close()


class TestStdioTransport:
    def test_serve_stdio_roundtrip_out_of_order_safe(self, watermark, decoy):
        requests = [
            DetectRequest(
                request_id=f"req-{index}",
                counts=data.as_dict(),
                secret=watermark.secret.to_dict(),
            )
            for index, data in enumerate(
                [watermark.watermarked_histogram, decoy, watermark.watermarked_histogram]
            )
        ]
        in_stream = io.StringIO(
            "".join(encode_line(request) + "\n" for request in requests)
            + "\nnot-json\n"  # blank + malformed lines must not kill the server
        )
        out_stream = io.StringIO()

        async def run():
            async with DetectionService() as service:
                return await serve_stdio(service, in_stream, out_stream)

        served = asyncio.run(run())
        assert served == 4  # 3 requests + 1 malformed line
        responses = {
            response.request_id: response
            for response in map(
                decode_response, out_stream.getvalue().strip().splitlines()
            )
        }
        assert len(responses) == 4
        assert responses["req-0"].accepted and responses["req-2"].accepted
        assert not responses["req-1"].accepted
        assert not responses["?"].ok  # the malformed line's failure response
        # Each detect is its own pass; the field stays on the wire.
        assert [responses[f"req-{index}"].batch_size for index in range(3)] == [1, 1, 1]


class TestEmbedVerb:
    """The embed wire verb: generation requests through the same service."""

    def _counts(self):
        return {f"tok{i:03d}": 700 - 5 * i for i in range(50)}

    def test_embed_request_validation(self):
        from repro.service import EmbedRequest

        with pytest.raises(ServiceError):
            EmbedRequest(request_id="")  # no id
        with pytest.raises(ServiceError):
            EmbedRequest(request_id="x")  # neither tokens nor counts
        with pytest.raises(ServiceError):
            EmbedRequest(request_id="x", tokens=("a",), counts={"a": 1})
        with pytest.raises(ServiceError):
            EmbedRequest(request_id="x", counts={"a": 1}, return_tokens=True)
        with pytest.raises(ServiceError):
            EmbedRequest(
                request_id="x", counts={"a": 1}, config={"no_such_knob": 1}
            )

    def test_embed_codec_round_trip(self):
        from repro.service import EmbedRequest

        request = EmbedRequest(
            request_id="e-1",
            counts=self._counts(),
            config={"budget_percent": 1.5, "strategy": "greedy"},
            seed=9,
            secret_value=123456789,
        )
        decoded = decode_request(encode_line(request))
        assert decoded == request

    def test_embed_then_detect_round_trip(self):
        from repro.service import EmbedRequest

        with SyncDetectionService() as service:
            response = service.submit(
                EmbedRequest(request_id="e-2", counts=self._counts(), seed=3)
            )
            assert response.ok, response.error
            secret = response.watermark_secret()
            assert response.selected_pairs == len(secret.pairs) > 0
            verdict = service.detect(
                TokenHistogram.from_counts(response.counts), secret
            )
            assert verdict.accepted
            assert service.stats.embeds == 1

    def test_embed_is_reproducible_with_seed(self):
        from repro.service import EmbedRequest

        with SyncDetectionService() as service:
            first = service.submit(
                EmbedRequest(request_id="a", counts=self._counts(), seed=21)
            )
            second = service.submit(
                EmbedRequest(request_id="b", counts=self._counts(), seed=21)
            )
        assert first.ok and second.ok
        assert first.counts == second.counts
        assert first.secret == second.secret

    def test_embed_with_tokens_returns_edited_sequence(self):
        from repro.service import EmbedRequest

        tokens = tuple(
            generate_power_law_tokens(0.7, n_tokens=40, sample_size=3_000, rng=2)
        )
        with SyncDetectionService() as service:
            response = service.submit(
                EmbedRequest(
                    request_id="t-1", tokens=tokens, seed=5, return_tokens=True
                )
            )
        assert response.ok, response.error
        assert response.tokens is not None
        edited = TokenHistogram.from_tokens(list(response.tokens))
        assert edited.as_dict() == response.counts

    def test_embed_failure_is_embed_failure_response(self):
        from repro.service import EmbedRequest, EmbedResponse

        with SyncDetectionService() as service:
            response = service.submit(
                EmbedRequest(request_id="bad", counts={"only-one-token": 5}, seed=1)
            )
        assert isinstance(response, EmbedResponse)
        assert not response.ok
        assert "two distinct tokens" in (response.error or "")

    def test_mixed_burst_through_stdio_transport(self, watermark):
        from repro.service import EmbedRequest

        embed = EmbedRequest(request_id="embed-1", counts=self._counts(), seed=4)
        detect = DetectRequest(
            request_id="detect-1",
            counts=watermark.watermarked_histogram.as_dict(),
            secret=watermark.secret.to_dict(),
        )
        in_stream = io.StringIO(
            encode_line(embed) + "\n" + encode_line(detect) + "\n"
        )
        out_stream = io.StringIO()

        async def run():
            async with DetectionService() as service:
                return await serve_stdio(service, in_stream, out_stream)

        served = asyncio.run(run())
        assert served == 2
        responses = {
            response.request_id: response
            for response in map(
                decode_response, out_stream.getvalue().strip().splitlines()
            )
        }
        assert responses["detect-1"].ok and responses["detect-1"].accepted
        embed_response = responses["embed-1"]
        assert embed_response.ok
        verdict = WatermarkDetector(embed_response.watermark_secret()).detect(
            TokenHistogram.from_counts(embed_response.counts)
        )
        assert verdict.accepted
