"""The one wire codec: pinned bytes, round trips, fuzzing, transports.

Four layers:

* **Golden lines** — the exact :func:`encode_line` output of one success
  and one failure message per verb (plus the request of each verb) is
  pinned byte for byte, and each line decodes back to its message.
* **Round trip** — for every message each of the sixteen classes can
  construct, ``decode(encode_line(m)) == m``.
* **Fuzz** — on any JSON line, :func:`decode_request` and
  :func:`decode_response` return a message or raise
  :class:`~repro.exceptions.ServiceError`, nothing else.
* **Transports** — lines the codec rejects (a non-string ``op``) are
  still answered by ``serve`` and by a worker, a detect line over
  asyncio's 64 KiB default line limit is served over a Unix socket, a
  line over the transport's own limit is answered with a failure
  before its connection closes, and a line holding a byte that is not
  UTF-8 is answered with a failure on a connection that stays open.
"""

from __future__ import annotations

import asyncio
import io
import json
import socket
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.detector import WatermarkDetector
from repro.core.generator import generate_watermark
from repro.core.histogram import TokenCounts, TokenHistogram
from repro.datasets.synthetic import generate_power_law_tokens
from repro.exceptions import ServiceError
from repro.exec.worker import TaskWorkerServer, serve_worker
from repro.service import DetectionService, ServiceClient, serve_stdio, serve_unix
from repro.service.wire import (
    HEARTBEAT_FUNCTION,
    MAX_FRAME_BYTES,
    AttributeRequest,
    AttributeResponse,
    BlobRequest,
    BlobResponse,
    DetectRequest,
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
    decode_request,
    decode_response,
    encode_line,
)

#: Messages decoded with :func:`decode_request`; the rest (and the blob
#: verbs, which flow both ways) decode with :func:`decode_response`.
_REQUESTS = (
    DetectRequest,
    EmbedRequest,
    RegisterRequest,
    RevokeRequest,
    AttributeRequest,
    TaskRequest,
    StatsRequest,
    BlobResponse,
)


def _decode(message, line):
    decoder = decode_request if isinstance(message, _REQUESTS) else decode_response
    return decoder(line)


# --------------------------------------------------------------------------- #
# Golden lines
# --------------------------------------------------------------------------- #

_SECRET = {"pairs": [["a", "b"]], "modulus_cap": 31, "secret_value": "12345"}
_DIGEST = "d" * 64

#: (message, the exact line encode_line produces for it). ``counts``
#: travel as two arrays in the mapping's order (protocol version 5).
GOLDEN = [
    (
        DetectRequest(
            request_id="d1",
            counts={"a": 5, "b": 2},
            secret_fingerprint="f" * 8,
            config={"pair_threshold": 1},
        ),
        '{"config":{"pair_threshold":1},"counts":{"counts":[5,2],"tokens":["a","b"]},"id":"d1",'
        '"secret_fingerprint":"ffffffff","v":5}',
    ),
    (
        DetectRequest(request_id="d2", tokens=("a", "b", "a"), secret=_SECRET),
        '{"id":"d2","secret":{"modulus_cap":31,"pairs":[["a","b"]],'
        '"secret_value":"12345"},"tokens":["a","b","a"],"v":5}',
    ),
    (
        DetectResponse(
            request_id="d1",
            ok=True,
            accepted=True,
            accepted_pairs=7,
            required_pairs=4,
            total_pairs=8,
            batch_size=3,
            cache_hit=True,
            extra={"note": "x"},
        ),
        '{"accepted":true,"accepted_pairs":7,"batch_size":3,"cache_hit":true,'
        '"extra":{"note":"x"},"id":"d1","ok":true,"required_pairs":4,'
        '"total_pairs":8,"v":5}',
    ),
    (
        DetectResponse(request_id="d", ok=True),
        '{"accepted":null,"accepted_pairs":null,"batch_size":0,"cache_hit":false,'
        '"id":"d","ok":true,"required_pairs":null,"total_pairs":null,"v":5}',
    ),
    (
        DetectResponse.failure("d2", "no such secret"),
        '{"error":"no such secret","id":"d2","ok":false,"v":5}',
    ),
    (
        EmbedRequest(
            request_id="e1",
            tokens=("a", "b", "b"),
            config={"budget_percent": 1.5, "excluded_tokens": ["z"]},
            seed=3,
            secret_value=2**80 + 1,
            return_tokens=True,
        ),
        '{"config":{"budget_percent":1.5,"excluded_tokens":["z"]},"id":"e1",'
        '"op":"embed","return_tokens":true,"secret_value":"1208925819614629174706177",'
        '"seed":3,"tokens":["a","b","b"],"v":5}',
    ),
    (
        EmbedRequest(request_id="e2", counts={"a": 9, "b": 4}),
        '{"counts":{"counts":[9,4],"tokens":["a","b"]},"id":"e2","op":"embed","v":5}',
    ),
    (
        EmbedResponse(
            request_id="e1",
            ok=True,
            counts={"a": 1, "b": 2},
            tokens=("a", "b", "b"),
            secret=_SECRET,
            selected_pairs=1,
            similarity_percent=99.5,
            total_changes=2,
        ),
        '{"counts":{"counts":[1,2],"tokens":["a","b"]},"id":"e1","ok":true,"op":"embed","secret":'
        '{"modulus_cap":31,"pairs":[["a","b"]],"secret_value":"12345"},'
        '"selected_pairs":1,"similarity_percent":99.5,"tokens":["a","b","b"],'
        '"total_changes":2,"v":5}',
    ),
    (
        EmbedResponse.failure("e2", "needs two distinct tokens"),
        '{"error":"needs two distinct tokens","id":"e2","ok":false,"op":"embed","v":5}',
    ),
    (
        RegisterRequest(
            request_id="r1", buyer_id="acme", secret=_SECRET, metadata={"tier": "gold"}
        ),
        '{"buyer_id":"acme","id":"r1","metadata":{"tier":"gold"},"op":"register",'
        '"secret":{"modulus_cap":31,"pairs":[["a","b"]],"secret_value":"12345"},"v":5}',
    ),
    (
        RegisterResponse(
            request_id="r1", ok=True, buyer_id="acme", fingerprint="ab" * 4, vault_size=3
        ),
        '{"buyer_id":"acme","fingerprint":"abababab","id":"r1","ok":true,'
        '"op":"register","v":5,"vault_size":3}',
    ),
    (
        RegisterResponse.failure("r2", "buyer already registered"),
        '{"error":"buyer already registered","id":"r2","ok":false,"op":"register","v":5}',
    ),
    (
        RevokeRequest(request_id="v1", buyer_id="acme", metadata={"reason": "leak"}),
        '{"buyer_id":"acme","id":"v1","metadata":{"reason":"leak"},"op":"revoke","v":5}',
    ),
    (
        RevokeResponse(
            request_id="v1", ok=True, buyer_id="acme", fingerprint="ab" * 4, vault_size=2
        ),
        '{"buyer_id":"acme","fingerprint":"abababab","id":"v1","ok":true,'
        '"op":"revoke","v":5,"vault_size":2}',
    ),
    (
        RevokeResponse.failure("v2", "unknown buyer"),
        '{"error":"unknown buyer","id":"v2","ok":false,"op":"revoke","v":5}',
    ),
    (
        AttributeRequest(
            request_id="a1", counts={"a": 5, "b": 2}, config={"min_accepted_fraction": 1.0}
        ),
        '{"config":{"min_accepted_fraction":1.0},"counts":{"counts":[5,2],"tokens":["a","b"]},'
        '"id":"a1",'
        '"op":"attribute","v":5}',
    ),
    (
        AttributeResponse(
            request_id="a1",
            ok=True,
            matches=(("acme", 1.0), ("beta", 0.5)),
            mode="index",
            candidates=2,
            active_secrets=100,
        ),
        '{"active_secrets":100,"candidates":2,"id":"a1","matches":'
        '[{"accepted_fraction":1.0,"buyer_id":"acme"},'
        '{"accepted_fraction":0.5,"buyer_id":"beta"}],"mode":"index","ok":true,'
        '"op":"attribute","v":5}',
    ),
    (
        AttributeResponse.failure("a2", "vault is empty"),
        '{"error":"vault is empty","id":"a2","ok":false,"op":"attribute","v":5}',
    ),
    (
        TaskRequest(request_id="hb-1", function=HEARTBEAT_FUNCTION),
        '{"function":"__heartbeat__","id":"hb-1","op":"task","v":5}',
    ),
    (
        TaskRequest(
            request_id="task-0-1-2",
            function="schedtest.with_state",
            initializer="schedtest.state",
            init_key="key-z",
            fingerprint="fp-0",
            blob_refs=(_DIGEST,),
            frames=(120, 4096, 33),
            payload_frames=2,
            init_frames=1,
            trace=("a" * 32, "b" * 16),
        ),
        '{"blob_refs":["' + _DIGEST + '"],"fingerprint":"fp-0","frames":[120,4096,33],'
        '"function":"schedtest.with_state","id":"task-0-1-2","init_frames":1,'
        '"init_key":"key-z","initializer":"schedtest.state","op":"task",'
        '"payload_frames":2,"trace":["' + "a" * 32 + '","' + "b" * 16 + '"],"v":5}',
    ),
    (
        TaskRequest(
            request_id="task-1-1-3",
            function="schedtest.echo",
            fingerprint="fp-1",
            frames=(57,),
            payload_frames=1,
        ),
        '{"fingerprint":"fp-1","frames":[57],"function":"schedtest.echo",'
        '"id":"task-1-1-3","init_frames":0,"op":"task","payload_frames":1,"v":5}',
    ),
    (
        TaskResult(request_id="hb-1", ok=True),
        '{"id":"hb-1","ok":true,"op":"result","v":5}',
    ),
    (
        TaskResult(
            request_id="task-0-1-2",
            ok=True,
            fingerprint="fp-0",
            frames=(64, 8000),
            spans=({"name": "task:schedtest.echo", "span": "s1", "trace": "t1"},),
        ),
        '{"fingerprint":"fp-0","frames":[64,8000],"id":"task-0-1-2","ok":true,'
        '"op":"result","spans":[{"name":"task:schedtest.echo","span":"s1",'
        '"trace":"t1"}],"v":5}',
    ),
    (
        TaskResult(
            request_id="task-1-1-3",
            ok=False,
            error="remote kaput",
            error_type="DetectionError",
            fingerprint="fp-1",
            spans=({"name": "task:schedtest.fail"},),
        ),
        '{"error":"remote kaput","error_type":"DetectionError","fingerprint":"fp-1",'
        '"id":"task-1-1-3","ok":false,"op":"result","spans":'
        '[{"name":"task:schedtest.fail"}],"v":5}',
    ),
    (
        BlobRequest(request_id="task-0-1-2", digest=_DIGEST),
        '{"digest":"' + _DIGEST + '","id":"task-0-1-2","op":"blob-request","v":5}',
    ),
    (
        BlobResponse(request_id="task-0-1-2", digest=_DIGEST, frames=(300, 65536)),
        '{"digest":"' + _DIGEST + '","frames":[300,65536],"id":"task-0-1-2",'
        '"ok":true,"op":"blob","v":5}',
    ),
    (
        BlobResponse(
            request_id="task-0-1-2",
            digest=_DIGEST,
            ok=False,
            error="blob evicted",
            error_type="BlobNotFoundError",
        ),
        '{"digest":"' + _DIGEST + '","error":"blob evicted",'
        '"error_type":"BlobNotFoundError","id":"task-0-1-2","ok":false,"op":"blob","v":5}',
    ),
    (
        StatsRequest(request_id="s1"),
        '{"id":"s1","op":"stats","v":5}',
    ),
    (
        StatsResponse(
            request_id="s1",
            metrics={"counters": {"x": 1}},
            prometheus="# TYPE freqywm_x counter\nfreqywm_x 1\n",
        ),
        '{"id":"s1","metrics":{"counters":{"x":1}},"ok":true,"op":"stats",'
        '"prometheus":"# TYPE freqywm_x counter\\nfreqywm_x 1\\n","v":5}',
    ),
    (
        StatsResponse.failure("s2", "overloaded"),
        '{"error":"overloaded","id":"s2","ok":false,"op":"stats","v":5}',
    ),
]


@pytest.mark.parametrize(
    "message, line", GOLDEN, ids=[f"{type(m).__name__}-{m.request_id}" for m, _ in GOLDEN]
)
def test_golden_line_bytes_and_decoding(message, line):
    assert encode_line(message) == line
    assert _decode(message, line) == message


def test_golden_corpus_covers_every_class():
    assert {type(message) for message, _ in GOLDEN} == set(_REQUESTS) | {
        DetectResponse,
        EmbedResponse,
        RegisterResponse,
        RevokeResponse,
        AttributeResponse,
        TaskResult,
        StatsResponse,
        BlobRequest,
    }


# --------------------------------------------------------------------------- #
# Round trip
# --------------------------------------------------------------------------- #

_ids = st.text(min_size=1, max_size=6)
_texts = st.text(max_size=6)
_ints = st.integers()
_floats = st.floats(allow_nan=False)
_json = st.recursive(
    st.none() | st.booleans() | _ints | _floats | _texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=8,
)
_objects = st.dictionaries(_texts, _json, max_size=3)

#: A ``counts`` field in its wire form: two arrays over few tokens, so
#: tokens repeat, with zeros and counts near the int64 bound.
_MAX_COUNT = 2**63 - 1
_count_arrays = st.lists(
    st.tuples(
        st.text(alphabet="ab", max_size=2),
        st.integers(0, 3) | st.integers(_MAX_COUNT - 2, _MAX_COUNT),
    ),
    max_size=6,
).map(lambda entries: ([token for token, _ in entries], [count for _, count in entries]))


def _summed(tokens, counts):
    """Reference: repeats summed in first-appearance order, zeros dropped;
    ``None`` when nothing remains or a sum leaves int64."""
    summed = {}
    for token, count in zip(tokens, counts):
        if count:
            summed[token] = summed.get(token, 0) + count
    if not summed or max(summed.values()) > _MAX_COUNT:
        return None
    return summed


#: A message's counts: what a valid wire form decodes to.
_counts = _count_arrays.map(lambda arrays: _summed(*arrays)).filter(
    lambda counts: counts is not None
)
_tokens = st.lists(_texts, max_size=4).map(tuple)
_frames = st.lists(st.integers(0, MAX_FRAME_BYTES), min_size=1, max_size=3).map(tuple)
_spans = st.lists(_objects, max_size=2).map(tuple)
_DETECT_KEYS = [
    "min_accepted_fraction",
    "min_accepted_pairs",
    "pair_threshold",
    "pair_threshold_fraction",
    "symmetric_tolerance",
]
_GENERATE_KEYS = ["budget_percent", "excluded_tokens", "max_pairs", "modulus_cap", "strategy"]


def _maybe(strategy):
    return st.none() | strategy


def _config(keys):
    return _maybe(st.dictionaries(st.sampled_from(keys), _json, max_size=3))


def _one_of(**options):
    """Exactly one of the named keyword strategies, as a kwargs dict."""
    return st.one_of(*(st.fixed_dictionaries({name: value}) for name, value in options.items()))


def _reply(cls, success, failure=None):
    """Success and failure messages of one reply class."""
    failure = dict(failure or {}, error=_maybe(_texts))
    return st.one_of(
        st.builds(cls, request_id=_ids, ok=st.just(True), **success),
        st.builds(cls, request_id=_ids, ok=st.just(False), **failure),
    )


@st.composite
def _dataset_requests(draw, cls, keys, **extra):
    return cls(
        request_id=draw(_ids),
        config=draw(_config(keys)),
        **draw(_one_of(tokens=_tokens, counts=_counts)),
        **{name: draw(strategy) for name, strategy in extra.items()},
    )


@st.composite
def _embed_requests(draw):
    dataset = draw(_one_of(tokens=_tokens, counts=_counts))
    return EmbedRequest(
        request_id=draw(_ids),
        config=draw(_config(_GENERATE_KEYS)),
        seed=draw(_maybe(_ints)),
        secret_value=draw(_maybe(_ints)),
        return_tokens="tokens" in dataset and draw(st.booleans()),
        **dataset,
    )


@st.composite
def _task_requests(draw):
    initializer = draw(_maybe(_texts))
    frames = draw(st.just(()) | _frames)
    return TaskRequest(
        request_id=draw(_ids),
        function=draw(st.just(HEARTBEAT_FUNCTION) | _ids),
        initializer=initializer,
        init_key=draw(_texts if initializer is None else _ids),
        fingerprint=draw(_texts),
        blob_refs=draw(st.lists(_ids, max_size=2).map(tuple)),
        frames=frames,
        payload_frames=draw(st.integers(0, 4)) if frames else 0,
        init_frames=draw(st.integers(0, 4)) if frames else 0,
        trace=draw(_maybe(st.tuples(_ids, _ids))),
    )


_vault_change = dict(buyer_id=_maybe(_texts), fingerprint=_maybe(_texts), vault_size=_maybe(_ints))

MESSAGES = st.one_of(
    _dataset_requests(
        DetectRequest, _DETECT_KEYS, secret=st.none(), secret_fingerprint=_texts
    ),
    _dataset_requests(
        DetectRequest, _DETECT_KEYS, secret=_objects, secret_fingerprint=st.none()
    ),
    _reply(
        DetectResponse,
        dict(
            accepted=_maybe(st.booleans()),
            accepted_pairs=_maybe(_ints),
            required_pairs=_maybe(_ints),
            total_pairs=_maybe(_ints),
            batch_size=_ints,
            cache_hit=st.booleans(),
            extra=_objects,
        ),
        dict(extra=_objects),
    ),
    _embed_requests(),
    _reply(
        EmbedResponse,
        dict(
            counts=_counts,
            tokens=_maybe(_tokens),
            secret=_objects,
            selected_pairs=_maybe(_ints),
            similarity_percent=_maybe(_floats),
            total_changes=_maybe(_ints),
        ),
    ),
    st.builds(RegisterRequest, request_id=_ids, buyer_id=_ids, secret=_objects, metadata=_objects),
    _reply(RegisterResponse, _vault_change),
    st.builds(RevokeRequest, request_id=_ids, buyer_id=_ids, metadata=_objects),
    _reply(RevokeResponse, _vault_change),
    _dataset_requests(AttributeRequest, _DETECT_KEYS),
    _reply(
        AttributeResponse,
        dict(
            matches=st.lists(st.tuples(_texts, _floats), max_size=3).map(tuple),
            mode=_maybe(_texts),
            candidates=_maybe(_ints),
            active_secrets=_maybe(_ints),
        ),
    ),
    _task_requests(),
    _reply(
        TaskResult,
        dict(fingerprint=_texts, frames=st.just(()) | _frames, spans=_spans),
        dict(
            error_type=_maybe(_texts),
            fingerprint=_texts,
            frames=st.just(()) | _frames,
            spans=_spans,
        ),
    ),
    st.builds(BlobRequest, request_id=_ids, digest=_ids),
    st.one_of(
        st.builds(BlobResponse, request_id=_ids, digest=_ids, frames=st.just(()) | _frames),
        st.builds(
            BlobResponse,
            request_id=_ids,
            digest=_ids,
            ok=st.just(False),
            error=_maybe(_texts),
            error_type=_maybe(_texts),
        ),
    ),
    st.builds(StatsRequest, request_id=_ids),
    _reply(
        StatsResponse,
        dict(metrics=_objects, prometheus=_texts),
        dict(error_type=_maybe(_texts)),
    ),
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(message=MESSAGES)
@example(message=DetectResponse(request_id="d", ok=True))
@example(message=AttributeResponse(request_id="a", ok=True))
@example(message=TaskResult(request_id="t", ok=False))
def test_every_message_round_trips(message):
    assert _decode(message, encode_line(message)) == message


# --------------------------------------------------------------------------- #
# Fuzz
# --------------------------------------------------------------------------- #

_OPS = ["detect", "embed", "register", "revoke", "attribute", "stats", "task",
        "result", "blob", "blob-request", "frobnicate"]

#: Plausible values for every wire key, so fuzzed lines reach past the
#: first type check into the later fields and the constructors.
_PLAUSIBLE = {
    "id": _ids,
    "op": st.sampled_from(_OPS),
    "v": st.integers(0, 5),
    "ok": st.booleans(),
    "tokens": st.lists(_texts, max_size=3),
    "counts": _count_arrays.map(lambda arrays: {"tokens": arrays[0], "counts": arrays[1]})
    | st.dictionaries(_texts, _ints, max_size=3),
    "secret": _objects,
    "secret_fingerprint": _texts,
    "config": st.dictionaries(st.sampled_from(_DETECT_KEYS + _GENERATE_KEYS), _json, max_size=2),
    "seed": _ints,
    "secret_value": _ints.map(str) | _texts,
    "return_tokens": st.booleans(),
    "buyer_id": _texts,
    "metadata": _objects,
    "matches": st.lists(
        st.fixed_dictionaries({}, optional={"buyer_id": _json, "accepted_fraction": _json}),
        max_size=2,
    ),
    "function": _texts,
    "initializer": _texts,
    "init_key": _texts,
    "fingerprint": _texts,
    "blob_refs": st.lists(_texts, max_size=2),
    "frames": st.lists(st.integers(-1, MAX_FRAME_BYTES + 1), max_size=2),
    "payload_frames": st.integers(-1, 3),
    "init_frames": st.integers(-1, 3),
    "trace": st.lists(_texts, max_size=3),
    "spans": st.lists(_json, max_size=2),
    "digest": _texts,
    "error": _texts,
    "error_type": _texts,
    "metrics": _objects,
    "prometheus": _texts,
    "accepted": st.booleans(),
    "accepted_pairs": _ints,
    "required_pairs": _ints,
    "total_pairs": _ints,
    "batch_size": _ints,
    "cache_hit": st.booleans(),
    "extra": _objects,
    "selected_pairs": _ints,
    "similarity_percent": _floats,
    "total_changes": _ints,
    "vault_size": _ints,
    "mode": _texts,
    "candidates": _ints,
    "active_secrets": _ints,
}

_LINES = st.one_of(
    _json.map(json.dumps),
    st.fixed_dictionaries(
        {}, optional={key: _json | value for key, value in _PLAUSIBLE.items()}
    ).map(json.dumps),
    st.text(max_size=20),
)


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(line=_LINES)
@example(line='{"id": "a", "ok": true, "accepted_pairs": "x"}')
@example(line='{"op": ["x"], "id": "a1"}')
@example(line='{"op": "embed", "id": "e", "tokens": [], "secret_value": "' + "9" * 5000 + '"}')
@example(line="[" * 100_000)
def test_decoders_answer_any_line_with_a_message_or_a_service_error(line):
    for decoder in (decode_request, decode_response):
        try:
            decoder(line)
        except ServiceError:
            pass


def test_bad_fields_are_named_in_the_error():
    with pytest.raises(ServiceError, match="'accepted_pairs' must be an integer"):
        decode_response('{"id": "a", "ok": true, "accepted_pairs": "x"}')
    with pytest.raises(ServiceError, match="'x' has malformed counts: every count must be"):
        decode_request(
            '{"id": "x", "counts": {"tokens": ["tok"], "counts": [5.9]}, '
            '"secret_fingerprint": "f"}'
        )
    with pytest.raises(ServiceError, match="unknown request op"):
        decode_request('{"op": ["x"], "id": "a1"}')
    with pytest.raises(ServiceError, match="'secret_value' must be a decimal string"):
        decode_request('{"op": "embed", "id": "e", "tokens": [], "secret_value": 12}')


def test_detect_counts_are_kept_as_decoded():
    line = (
        '{"counts":{"counts":[3,1],"tokens":["b","a"]},"id":"x",'
        '"secret_fingerprint":"f","v":5}'
    )
    request = decode_request(line)
    assert request.counts == {"b": 3, "a": 1}
    assert isinstance(request.counts, TokenCounts)
    assert encode_line(request) == line


@settings(max_examples=300, deadline=None)
@given(arrays=_count_arrays, op=st.sampled_from(["detect", "attribute", "embed"]))
@example(arrays=(["a", "b", "a"], [2, 1, 3]), op="detect")
@example(arrays=(["a", "a"], [2**62, 2**62]), op="attribute")
@example(arrays=(["a", "b"], [0, 0]), op="embed")
def test_two_array_counts_sum_repeats_drop_zeros_and_round_trip(arrays, op):
    """Repeated tokens sum (the object form silently kept the last
    duplicate key), zeros drop, and what decodes re-encodes to a line
    that decodes to the same request; all-zero or out-of-int64 sums fail."""
    tokens, counts = arrays
    payload = {"op": op, "id": "c", "counts": {"tokens": tokens, "counts": counts}}
    if op == "detect":
        payload["secret_fingerprint"] = "f"
    expected = _summed(tokens, counts)
    if expected is None:
        with pytest.raises(ServiceError, match="'c' has malformed counts"):
            decode_request(json.dumps(payload))
        return
    request = decode_request(json.dumps(payload))
    assert request.counts == expected
    assert list(request.counts) == list(expected)  # first-appearance order
    assert decode_request(encode_line(request)) == request


_ONE_FAULT = {
    "mismatched lengths": {"tokens": ["a", "b"], "counts": [1]},
    "missing tokens": {"counts": [1]},
    "missing counts": {"tokens": ["a"]},
    "an extra key": {"tokens": ["a"], "counts": [1], "total": 1},
    "tokens not a list": {"tokens": "a", "counts": [1]},
    "counts not a list": {"tokens": ["a"], "counts": 1},
    "not an object": [["a", 1]],
    "a non-string token": {"tokens": [1], "counts": [1]},
    "a float": {"tokens": ["a"], "counts": [1.5]},
    "an integral float": {"tokens": ["a"], "counts": [1.0]},
    "true": {"tokens": ["a"], "counts": [True]},
    "a negative count": {"tokens": ["a", "b"], "counts": [3, -1]},
    "a count above int64": {"tokens": ["a"], "counts": [2**63]},
    "repeats summing above int64": {"tokens": ["a", "b", "a"], "counts": [2**62, 1, 2**62]},
    "all-zero counts": {"tokens": ["a", "b"], "counts": [0, 0]},
    "no entries": {"tokens": [], "counts": []},
    "the object form": {"a": 5, "b": 2},
}


@pytest.mark.parametrize("version", [None, 1, 4, 5])
@pytest.mark.parametrize("op", ["detect", "attribute", "embed"])
@pytest.mark.parametrize("fault", sorted(_ONE_FAULT))
def test_each_counts_fault_alone_is_malformed_counts(fault, op, version):
    """Each fault fails on its own, at any ``v``: no reader is kept for
    the object form."""
    payload = {"op": op, "id": "c", "counts": _ONE_FAULT[fault]}
    if op == "detect":
        payload["secret_fingerprint"] = "f"
    if version is not None:
        payload["v"] = version
    with pytest.raises(ServiceError, match="'c' has malformed counts"):
        decode_request(json.dumps(payload))


# --------------------------------------------------------------------------- #
# Transports
# --------------------------------------------------------------------------- #


def test_serve_stdio_answers_lines_with_a_non_string_op():
    in_stream = io.StringIO('{"op": ["x"], "id": "a1"}\n{"op": {}, "id": "a2"}\n')
    out_stream = io.StringIO()

    async def run():
        async with DetectionService() as service:
            return await serve_stdio(service, in_stream, out_stream)

    assert asyncio.run(run()) == 2
    responses = [decode_response(line) for line in out_stream.getvalue().splitlines()]
    assert sorted(response.request_id for response in responses) == ["a1", "a2"]
    assert not any(response.ok for response in responses)


def test_worker_answers_a_non_string_op_with_a_failed_result():
    server = TaskWorkerServer()
    client, served = socket.socketpair()
    loop = threading.Thread(target=server.serve, args=(served,), kwargs={"listening": False})
    loop.start()
    try:
        with client, client.makefile("rb") as reader:
            client.sendall(b'{"op": ["x"], "id": "a1"}\n')
            result = decode_response(reader.readline().decode("utf-8"))
        loop.join(timeout=10)  # the client's close is the loop's EOF
        assert not loop.is_alive()
    finally:
        server.stop()
        server.close()
    assert isinstance(result, TaskResult)
    assert (result.request_id, result.ok, result.frames) == ("a1", False, ())
    assert "unknown request op" in (result.error or "")


def test_detect_line_over_64_kib_is_answered_over_a_unix_socket(tmp_path):
    watermark = generate_watermark(
        generate_power_law_tokens(0.7, n_tokens=60, sample_size=8_000, rng=5),
        budget_percent=2.0,
        modulus_cap=31,
        rng=7,
    )
    counts = watermark.watermarked_histogram.as_dict()
    counts.update({f"pad-{index:05d}": 1 for index in range(6_000 - len(counts))})
    request = DetectRequest(request_id="big", counts=counts, secret=watermark.secret.to_dict())
    assert len(counts) == 6_000
    assert len(encode_line(request)) > 64 * 1024
    socket_path = tmp_path / "svc.sock"

    async def run():
        async with DetectionService() as service:
            ready = asyncio.Event()
            server_task = asyncio.ensure_future(serve_unix(service, socket_path, ready=ready))
            await ready.wait()

            def talk():
                with ServiceClient.connect_unix(socket_path) as client:
                    return client.request([request])[0]

            try:
                return await asyncio.get_running_loop().run_in_executor(None, talk)
            finally:
                server_task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await server_task

    response = asyncio.run(run())
    direct = WatermarkDetector(watermark.secret).detect(TokenHistogram.from_counts(counts))
    assert response.ok, response.error
    assert (response.accepted, response.accepted_pairs) == (
        direct.accepted,
        direct.accepted_pairs,
    )


def test_a_line_over_the_limit_is_answered_and_closes_its_connection(
    tmp_path, monkeypatch
):
    """The request read before an over-long line is answered, the long
    line gets one failure naming the limit, then that connection closes
    and the server goes on serving new ones."""
    import socket

    monkeypatch.setattr("repro.service.server.MAX_LINE_BYTES", 8 * 1024)
    watermark = generate_watermark(
        generate_power_law_tokens(0.7, n_tokens=60, sample_size=8_000, rng=5),
        budget_percent=2.0,
        modulus_cap=31,
        rng=7,
    )
    request = DetectRequest(
        request_id="good",
        counts=watermark.watermarked_histogram.as_dict(),
        secret=watermark.secret.to_dict(),
    )
    good = encode_line(request)
    long = json.dumps({"id": "long", "tokens": ["x" * 100] * 200})
    assert len(good) < 8 * 1024 < len(long)
    socket_path = tmp_path / "svc.sock"

    def pipelined():
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.connect(str(socket_path))
            conn.sendall(f"{good}\n{long}\n".encode("utf-8"))
            with conn.makefile("rb") as reader:
                answers = [decode_response(reader.readline().decode("utf-8")) for _ in range(2)]
                try:
                    rest = reader.readline()
                except ConnectionResetError:
                    rest = b""
        return answers, rest

    def next_connection():
        with ServiceClient.connect_unix(socket_path) as client:
            return client.request([request])[0]

    async def run():
        async with DetectionService() as service:
            ready = asyncio.Event()
            server_task = asyncio.ensure_future(serve_unix(service, socket_path, ready=ready))
            await ready.wait()
            loop = asyncio.get_running_loop()
            try:
                first = await loop.run_in_executor(None, pipelined)
                second = await loop.run_in_executor(None, next_connection)
                return first, second, service.stats.failures
            finally:
                server_task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await server_task

    (answers, rest), again, failures = asyncio.run(run())
    by_id = {answer.request_id: answer for answer in answers}
    assert by_id["good"].ok and by_id["good"].accepted
    assert not by_id["?"].ok
    assert by_id["?"].error == "request line exceeds 8192 bytes"
    assert rest == b""  # the connection was closed after its answers
    assert again.ok and again.accepted
    assert failures == 1


#: Not JSON, and not UTF-8 either: the ``\xff`` byte sits mid-object.
NON_UTF8_LINE = b'{"id":"bad","op":"stats"\xff}'


def _pipelined_answers(socket_path, lines, count):
    """Send ``lines`` in one write; read ``count`` answer lines, then one more
    request's answer on the same connection (``None`` once it closed)."""
    import socket

    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.connect(str(socket_path))
        conn.sendall(b"".join(line + b"\n" for line in lines))
        with conn.makefile("rb") as reader:
            answers = [decode_response(reader.readline().decode("utf-8")) for _ in range(count)]
            conn.sendall(lines[0] + b"\n")
            try:
                again = reader.readline()
            except ConnectionResetError:
                again = b""
    return answers, decode_response(again.decode("utf-8")) if again else None


def _serve_and_talk(start_server, talk):
    """Run ``talk`` in a thread against the server ``start_server(ready)`` starts."""

    async def run():
        ready = asyncio.Event()
        server_task = asyncio.ensure_future(start_server(ready))
        await ready.wait()
        try:
            return await asyncio.get_running_loop().run_in_executor(None, talk)
        finally:
            server_task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await server_task

    return asyncio.run(run())


def test_serve_answers_a_non_utf8_line_and_keeps_the_connection(tmp_path):
    socket_path = tmp_path / "svc.sock"
    good = [encode_line(StatsRequest(request_id=f"s{index}")).encode() for index in (1, 2)]

    async def start(ready):
        async with DetectionService() as service:
            await serve_unix(service, socket_path, ready=ready)

    answers, again = _serve_and_talk(
        start,
        lambda: _pipelined_answers(socket_path, [good[0], NON_UTF8_LINE, good[1]], 3),
    )
    by_id = {answer.request_id: answer for answer in answers}
    assert by_id["s1"].ok and by_id["s2"].ok
    assert not by_id["?"].ok and "not valid JSON" in by_id["?"].error
    assert again is not None and again.ok  # the connection stayed open


def test_worker_answers_a_non_utf8_line_and_keeps_the_connection(tmp_path):
    socket_path = tmp_path / "worker.sock"
    beats = [
        encode_line(TaskRequest(request_id=f"hb{index}", function=HEARTBEAT_FUNCTION)).encode()
        for index in (1, 2)
    ]

    server, ready = TaskWorkerServer(), threading.Event()
    loop = threading.Thread(
        target=serve_worker, args=(socket_path,), kwargs={"server": server, "ready": ready}
    )
    loop.start()
    try:
        assert ready.wait(timeout=10)
        answers, again = _pipelined_answers(
            socket_path, [beats[0], NON_UTF8_LINE, beats[1]], 3
        )
    finally:
        server.stop()
        loop.join(timeout=10)
    assert not loop.is_alive()
    assert not socket_path.exists()  # removed on shutdown
    by_id = {answer.request_id: answer for answer in answers}
    assert by_id["hb1"].ok and by_id["hb2"].ok
    assert not by_id["?"].ok and "not valid JSON" in by_id["?"].error
    assert again is not None and again.ok  # the connection stayed open


@pytest.mark.parametrize(
    "garbage",
    [b'{"op": "task", "id": "x", "frames": [-1]}\n', b"x" * 2048],
    ids=["bad-frame-announcement", "over-long-line"],
)
def test_worker_drops_only_a_connection_that_loses_its_stream(tmp_path, monkeypatch, garbage):
    """A line whose frames cannot be trusted, or one over the line limit,
    closes that connection unanswered; the worker serves the next one."""
    monkeypatch.setattr("repro.exec.channel.MAX_LINE_BYTES", 1024)
    socket_path = tmp_path / "worker.sock"
    beat = encode_line(TaskRequest(request_id="hb", function=HEARTBEAT_FUNCTION)) + "\n"
    server, ready = TaskWorkerServer(), threading.Event()
    loop = threading.Thread(
        target=serve_worker, args=(socket_path,), kwargs={"server": server, "ready": ready}
    )
    loop.start()
    try:
        assert ready.wait(timeout=10)
        with socket.socket(socket.AF_UNIX) as bad, socket.socket(socket.AF_UNIX) as good:
            bad.settimeout(10)
            bad.connect(str(socket_path))
            good.connect(str(socket_path))
            bad.sendall(garbage)
            assert bad.recv(1) == b""  # closed by the worker, nothing answered
            good.sendall(beat.encode())
            with good.makefile("rb") as reader:
                answer = decode_response(reader.readline().decode("utf-8"))
    finally:
        server.stop()
        loop.join(timeout=10)
    assert not loop.is_alive()
    assert (answer.request_id, answer.ok) == ("hb", True)
