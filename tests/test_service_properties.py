"""Service/direct parity under arbitrary request interleavings.

For any interleaving of single-dataset requests across two distinct
registered secrets, the verdicts the service returns are identical to
direct ``WatermarkDetector(secret).detect`` calls, whichever way a
suspect is read: inline (histograms and checked counts) or in a worker
thread (token sequences and plain mappings). The transports
(socket/subprocess) are covered here too, since they sit on the same
submit path.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.detector import WatermarkDetector
from repro.core.generator import generate_watermark
from repro.core.histogram import TokenHistogram
from repro.datasets.synthetic import generate_power_law_tokens
from repro.service import DetectionService

_WATERMARKS = None


def _watermarks():
    """Two distinct watermarks plus per-secret suspect pools (built once)."""
    global _WATERMARKS
    if _WATERMARKS is None:
        first = generate_watermark(
            generate_power_law_tokens(0.7, n_tokens=60, sample_size=8_000, rng=5),
            budget_percent=2.0,
            modulus_cap=31,
            rng=7,
        )
        second = generate_watermark(
            generate_power_law_tokens(0.6, n_tokens=50, sample_size=6_000, rng=11),
            budget_percent=2.0,
            modulus_cap=23,
            rng=13,
        )
        decoy = TokenHistogram.from_tokens([f"decoy-{i % 9}" for i in range(3_000)])
        cross = second.watermarked_histogram  # watermarked with the *other* secret
        # The last two of each pool are read in a worker thread: an
        # unchecked mapping and a token sequence.
        suspects = [
            [
                first.watermarked_histogram,
                decoy,
                cross,
                first.watermarked_histogram.as_dict(),
                first.watermarked_tokens,
            ],
            [
                second.watermarked_histogram,
                decoy,
                first.watermarked_histogram,
                second.watermarked_histogram.as_dict(),
                first.watermarked_tokens,
            ],
        ]
        detectors = [
            WatermarkDetector(first.secret),
            WatermarkDetector(second.secret),
        ]
        _WATERMARKS = ([first.secret, second.secret], suspects, detectors)
    return _WATERMARKS


def _verdict(result):
    return (
        result.accepted,
        result.accepted_pairs,
        result.required_pairs,
        result.total_pairs,
    )


#: One request: (which secret, which suspect of that secret's pool, and
#: whether the submitter yields to the loop before the next submission —
#: this is what varies the interleaving pattern).
_REQUESTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=4),
        st.booleans(),
    ),
    min_size=1,
    max_size=25,
)


class TestInterleavedParity:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=_REQUESTS)
    def test_coalesced_verdicts_match_direct_detection(self, script):
        secrets, suspects, detectors = _watermarks()

        async def run():
            async with DetectionService() as service:
                keys = [service.register_secret(secret) for secret in secrets]
                pending = []
                for secret_index, suspect_index, yield_first in script:
                    if yield_first:
                        # Let the requests already submitted run (and a
                        # threaded one start) before the next submission.
                        await asyncio.sleep(0)
                    pending.append(
                        asyncio.ensure_future(
                            service.detect(
                                suspects[secret_index][suspect_index],
                                secret_fingerprint=keys[secret_index],
                            )
                        )
                    )
                results = await asyncio.gather(*pending)
                return results, service.stats

        results, stats = asyncio.run(run())
        assert stats.requests == len(script)
        for (secret_index, suspect_index, _), result in zip(script, results):
            direct = detectors[secret_index].detect(
                suspects[secret_index][suspect_index]
            )
            assert _verdict(result) == _verdict(direct)


class TestTransportParity:
    def test_unix_socket_burst_matches_direct(self, tmp_path):
        from repro.service import (
            DetectRequest,
            ServiceClient,
            serve_unix,
        )

        secrets, suspects, detectors = _watermarks()
        socket_path = tmp_path / "svc.sock"
        requests = [
            DetectRequest(
                request_id=f"{si}-{di}-{n}",
                counts=suspects[si][di].as_dict(),
                secret=secrets[si].to_dict(),
            )
            for n, (si, di) in enumerate([(0, 0), (1, 0), (0, 1), (1, 2), (0, 0)])
        ]

        async def run():
            async with DetectionService() as service:
                ready = asyncio.Event()
                server_task = asyncio.ensure_future(
                    serve_unix(service, socket_path, ready=ready)
                )
                await ready.wait()
                loop = asyncio.get_running_loop()

                def talk():
                    with ServiceClient.connect_unix(socket_path) as client:
                        return client.request(requests)

                try:
                    # The blocking client runs in a worker thread so the
                    # server (this loop) stays live underneath it.
                    return await loop.run_in_executor(None, talk)
                finally:
                    server_task.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await server_task

        responses = asyncio.run(run())
        assert not socket_path.exists()  # unlinked on shutdown
        for request, response in zip(requests, responses):
            si, di, _ = request.request_id.split("-")
            direct = detectors[int(si)].detect(suspects[int(si)][int(di)])
            assert response.ok
            assert (response.accepted, response.accepted_pairs) == (
                direct.accepted,
                direct.accepted_pairs,
            )

    def test_spawned_stdio_server_matches_direct(self):
        from repro.service import DetectRequest, ServiceClient

        secrets, suspects, detectors = _watermarks()
        requests = [
            DetectRequest(
                request_id=f"r{n}",
                counts=suspects[0][n % 3].as_dict(),
                secret=secrets[0].to_dict(),
            )
            for n in range(4)
        ]
        with ServiceClient.spawn() as client:
            responses = client.request(requests)
        for n, response in enumerate(responses):
            direct = detectors[0].detect(suspects[0][n % 3])
            assert response.ok
            assert (response.accepted, response.accepted_pairs) == (
                direct.accepted,
                direct.accepted_pairs,
            )
        # Each detect is its own pass; the field stays on the wire.
        assert [response.batch_size for response in responses] == [1] * len(requests)
