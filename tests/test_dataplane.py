"""The zero-copy data plane: blob store, local children, v4 wire dedup.

Four layers, matching ``docs/scheduler.md``:

* **BlobStore** — content-addressed put/get, least-recently-used
  eviction, and the typed :class:`~repro.exceptions.BlobNotFoundError`
  miss, for a digest never put and for an evicted one.
* **Payload indirection** — :func:`~repro.exec.blobs.maybe_blob` only
  rewrites values above the size floor; :func:`~repro.exec.blobs.
  resolve_refs` restores the *identical* object in-process (zero extra
  copies on the inline fallback), and the protocol-5
  ``TokenHistogram.__reduce_ex__`` round-trips without copying its
  count array.
* **Local children** — a blob put before the children fork is already
  in their blob cache and never shipped, one put later is fetched once
  per child, and verdicts are identical to the inline path.
* **Remote wire** — a real ``freqywm worker`` fetches each missing blob
  exactly once (dedup counters prove it, also across fresh schedulers),
  a blob-request is answered while large payloads are still in flight,
  and a blob-request for an evicted digest fails typed and bounded.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time

import numpy as np
import pytest

import scheduler_tasks
from repro.core.histogram import TokenHistogram
from repro.exceptions import BlobNotFoundError, WorkerCrashError
from repro.exec.blobs import (
    MIN_BLOB_BYTES,
    BlobRef,
    BlobStore,
    dumps_oob,
    loads_oob,
    maybe_blob,
    resolve_refs,
)
from repro.exec import worker
from repro.exec.remote import RemoteScheduler
from repro.exec.scheduler import LocalScheduler, SchedulerStats, TaskSpec
from repro.service.wire import BlobRequest, TaskRequest, TaskResult, decode_response, encode_line


def _payload_bytes(count: int = 2 * MIN_BLOB_BYTES) -> bytes:
    return bytes(range(256)) * (count // 256 + 1)


# --------------------------------------------------------------------------- #
# BlobStore
# --------------------------------------------------------------------------- #


class TestBlobStore:
    def test_put_get_round_trip_and_idempotence(self):
        store = BlobStore()
        data = dumps_oob({"key": _payload_bytes()})
        digest = store.put(data)
        assert store.put(data) == digest  # idempotent
        assert digest in store
        assert store.size_of(digest) == data.size
        assert loads_oob(store.get(digest)) == {"key": _payload_bytes()}
        stats = store.stats()
        assert stats["blobs"] == 1 and stats["puts"] == 1  # one insertion

    def test_missing_digest_is_a_typed_error(self):
        store = BlobStore()
        missing = "0" * 64
        with pytest.raises(BlobNotFoundError) as excinfo:
            store.get(missing)
        assert excinfo.value.digest == missing
        assert store.size_of(missing) == 0

    def test_lru_eviction_keeps_the_most_recently_read_blob(self):
        store = BlobStore(capacity=40_000)
        read = store.put(dumps_oob(_payload_bytes(16_000)))
        oldest = store.put(dumps_oob(_payload_bytes(16_000) + b"x"))
        store.get(read)  # the first put is now the most recently used
        newest = store.put(dumps_oob(_payload_bytes(16_000) + b"yy"))  # over budget
        assert read in store and newest in store
        assert oldest not in store
        assert store.stats()["evictions"] == 1
        with pytest.raises(BlobNotFoundError) as excinfo:
            store.get(oldest)
        assert excinfo.value.digest == oldest


# --------------------------------------------------------------------------- #
# Payload indirection
# --------------------------------------------------------------------------- #


class TestMaybeBlob:
    def test_small_values_pass_through(self, fresh_store):
        value, refs = maybe_blob("tiny")
        assert value == "tiny" and refs == ()

    def test_large_values_become_refs_resolving_to_the_same_object(
        self, fresh_store
    ):
        original = {"bulk": _payload_bytes()}
        value, refs = maybe_blob(original)
        assert isinstance(value, BlobRef) and len(refs) == 1
        assert resolve_refs(value) is original  # value cache: zero copies

    def test_resolve_walks_nested_containers(self, fresh_store):
        ref = maybe_blob(_payload_bytes())[0]
        nested = ("head", [1, {"inner": ref}], ref)
        resolved = resolve_refs(nested)
        assert resolved[1][1]["inner"] is resolve_refs(ref)


class TestHistogramPickleProtocol5:
    def test_protocol_5_round_trip_is_equal(self, skewed_histogram):
        clone = pickle.loads(pickle.dumps(skewed_histogram, protocol=5))
        assert clone == skewed_histogram
        # Older protocols still work (the inline v3 wire uses them).
        assert pickle.loads(pickle.dumps(skewed_histogram, protocol=4)) == (
            skewed_histogram
        )

    def test_out_of_band_buffers_are_zero_copy(self):
        histogram = TokenHistogram.from_counts(
            {f"tok{i:04d}": 1_000 - i for i in range(512)}
        )
        buffers = []
        data = pickle.dumps(
            histogram, protocol=5, buffer_callback=buffers.append
        )
        assert buffers, "the count array should travel out-of-band"
        clone = pickle.loads(data, buffers=[b.raw() for b in buffers])
        assert clone == histogram
        backing = np.frombuffer(buffers[0].raw(), dtype=np.int64)
        assert np.shares_memory(clone._array, backing)


# --------------------------------------------------------------------------- #
# Local children
# --------------------------------------------------------------------------- #


def _blobbed_specs(store, values, function="schedtest.echo"):
    specs = []
    for index, value in enumerate(values):
        payload, refs = maybe_blob(value, store=store)
        specs.append(
            TaskSpec(
                fingerprint=f"blob-{index}",
                function=function,
                payload=payload,
                blob_refs=refs,
            )
        )
    return specs


class TestLocalDataPlane:
    def test_blobs_put_before_the_fork_are_never_shipped(self, fresh_store):
        early = [_payload_bytes() + bytes([i]) for i in range(4)]
        with LocalScheduler(workers=2) as scheduler:
            assert scheduler.run(_blobbed_specs(fresh_store, early)) == early
            stats = scheduler.stats
            assert (stats.blobs_sent, stats.blobs_deduped) == (0, 4)
            assert stats.bytes_deduped >= sum(len(value) for value in early)
            # A blob put after the fork travels once, by blob-request.
            late = _payload_bytes() + b"late"
            payload, refs = maybe_blob(late, store=fresh_store)
            specs = [
                TaskSpec(
                    fingerprint=f"late-{i}",
                    function="schedtest.echo",
                    payload=payload,
                    blob_refs=refs,
                )
                for i in range(2)
            ]
            assert scheduler.run(specs) == [late, late]
            assert 1 <= stats.blobs_sent <= 2  # at most once per child

    def test_inline_mode_matches_blob_mode(self, fresh_store):
        values = [_payload_bytes() + bytes([i]) for i in range(4)]
        with LocalScheduler(workers=2) as scheduler:
            blobbed = scheduler.run(_blobbed_specs(fresh_store, values))
        plain = [
            TaskSpec(
                fingerprint=f"plain-{i}", function="schedtest.echo", payload=v
            )
            for i, v in enumerate(values)
        ]
        with LocalScheduler(workers=2) as scheduler:
            inline = scheduler.run(plain)
        assert blobbed == inline == values


# --------------------------------------------------------------------------- #
# Remote v4
# --------------------------------------------------------------------------- #


class TestRemoteDataPlane:
    def test_shared_blob_ships_once_and_counters_prove_it(
        self, fresh_store, tmp_path
    ):
        shared = _payload_bytes()
        payload, refs = maybe_blob(shared, store=fresh_store)
        specs = [
            TaskSpec(
                fingerprint=f"shared-{i}",
                function="schedtest.echo",
                payload=payload,
                blob_refs=refs,
            )
            for i in range(5)
        ]
        socket_path = tmp_path / "worker.sock"
        with scheduler_tasks.spawn_worker(socket_path):
            scheduler = RemoteScheduler([f"unix:{socket_path}"])
            with scheduler:
                results = scheduler.run(specs)
            assert results == [shared] * 5
            stats = scheduler.stats
            assert stats.blobs_sent == 1  # fetched exactly once
            assert stats.blobs_deduped == 4  # reused by the other tasks
            assert stats.bytes_deduped >= 4 * len(shared)

    def test_dedup_counters_survive_a_fresh_scheduler(self, fresh_store, tmp_path):
        """A worker's blob cache outlives the scheduler that filled it, so
        a later scheduler's tasks count the blob as deduped."""
        shared = _payload_bytes()
        payload, refs = maybe_blob(shared, store=fresh_store)
        specs = [
            TaskSpec(
                fingerprint=f"fresh-{i}",
                function="schedtest.echo",
                payload=payload,
                blob_refs=refs,
            )
            for i in range(4)
        ]
        socket_path = tmp_path / "worker.sock"
        runs = []
        with scheduler_tasks.spawn_worker(socket_path):
            for _ in range(3):
                with RemoteScheduler([f"unix:{socket_path}"]) as scheduler:
                    assert scheduler.run(specs) == [shared] * 4
                runs.append(scheduler.stats)
        first, *later = runs
        assert (first.blobs_sent, first.blobs_deduped) == (1, 3)
        for stats in later:
            assert stats.blobs_sent == 0
            assert stats.blobs_deduped == stats.tasks == 4
            assert stats.bytes_deduped >= 4 * len(shared)

    def test_payloads_over_a_socket_buffer_and_a_blob_request_share_a_run(
        self, fresh_store, tmp_path
    ):
        """Each worker gets an 8 MiB payload (and sends one back) while
        one of them asks for a blob: the single run loop serves both."""
        big = [bytes([index]) * (8 << 20) for index in range(2)]
        shared = _payload_bytes()
        ref, refs = maybe_blob(shared, store=fresh_store)
        specs = [
            TaskSpec(fingerprint="big-0", function="schedtest.echo", payload=big[0]),
            TaskSpec(
                fingerprint="big-1",
                function="schedtest.echo",
                payload=(big[1], ref),
                blob_refs=refs,
            ),
        ]
        sockets = [tmp_path / "worker-a.sock", tmp_path / "worker-b.sock"]
        with scheduler_tasks.spawn_worker(sockets[0]):
            with scheduler_tasks.spawn_worker(sockets[1]):
                addresses = [f"unix:{path}" for path in sockets]
                with RemoteScheduler(addresses) as scheduler:
                    results = scheduler.run(specs)
        assert results[0] == big[0]
        assert results[1] == (big[1], shared)
        assert scheduler.stats.blobs_sent == 1
        assert scheduler.stats.bytes_sent > sum(map(len, big))

    def test_evicted_digest_fails_typed_within_the_retry_bound(
        self, fresh_store, tmp_path
    ):
        payload, refs = maybe_blob(_payload_bytes(), store=fresh_store)
        spec = TaskSpec(
            fingerprint="gone",
            function="schedtest.echo",
            payload=payload,
            blob_refs=refs,
        )
        fresh_store.clear()  # simulate eviction after the spec was built
        socket_path = tmp_path / "worker.sock"
        with scheduler_tasks.spawn_worker(socket_path):
            scheduler = RemoteScheduler([f"unix:{socket_path}"], max_retries=0)
            with scheduler:
                with pytest.raises(WorkerCrashError, match="blob miss"):
                    scheduler.run([spec])


def test_a_blob_the_client_never_sends_fails_its_task_at_the_deadline(monkeypatch):
    """The worker loop parks a task on its blob-request and fails it,
    typed, once the fetch deadline passes without an answer."""
    monkeypatch.setattr(worker, "BLOB_FETCH_TIMEOUT", 0.3)
    server = worker.TaskWorkerServer()
    client, served = socket.socketpair()
    loop = threading.Thread(target=server.serve, args=(served,), kwargs={"listening": False})
    loop.start()
    digest = "ab" * 32
    frames = dumps_oob("payload").frames()
    task = TaskRequest(
        request_id="t1",
        function="schedtest.echo",
        fingerprint="t1",
        blob_refs=(digest,),
        frames=tuple(len(frame) for frame in frames),
        payload_frames=len(frames),
    )
    try:
        with client, client.makefile("rb") as reader:
            client.sendall((encode_line(task) + "\n").encode() + b"".join(map(bytes, frames)))
            asked = decode_response(reader.readline().decode("utf-8"))
            started = time.monotonic()
            result = decode_response(reader.readline().decode("utf-8"))
            waited = time.monotonic() - started
        loop.join(timeout=10)  # the client's close is the loop's EOF
        assert not loop.is_alive()
    finally:
        server.stop()
        server.close()
    assert isinstance(asked, BlobRequest) and (asked.request_id, asked.digest) == ("t1", digest)
    assert isinstance(result, TaskResult) and not result.ok
    assert result.error_type == "BlobNotFoundError" and "within" in result.error
    assert 0.1 < waited < 5


# --------------------------------------------------------------------------- #
# Stats
# --------------------------------------------------------------------------- #


def test_scheduler_stats_summary_line():
    stats = SchedulerStats(
        tasks=3, bytes_sent=1024, bytes_deduped=512, blobs_sent=2, blobs_deduped=1
    )
    line = stats.summary()
    for fragment in ("tasks=3", "bytes_sent=1024", "bytes_deduped=512"):
        assert fragment in line
