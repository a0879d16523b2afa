"""The registry verbs on the service wire: codec, versioning, execution.

Three layers, matching ``docs/service.md``:

* **Codec** — ``register`` / ``revoke`` / ``attribute`` requests and
  responses survive :func:`encode_line` → :func:`decode_request` /
  :func:`decode_response` round trips, and malformed payloads are
  rejected with :class:`ServiceError` (never a crash mid-pipeline).
* **Versioning** — every encoded line carries ``v`` =
  :data:`PROTOCOL_VERSION`; peers accept any version up to their own
  (absent means 1, the pre-registry wire) and reject newer or malformed
  versions.
* **Execution** — :class:`SyncDetectionService` answers the vault verbs
  against its lazily created in-memory registry or an injected
  persistent :class:`SecretVault`, and counts them in its stats.
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.core import histogram
from repro.core.histogram import TokenCounts
from repro.dispute import SecretVault
from repro.exceptions import ServiceError
from repro.service import (
    PROTOCOL_VERSION,
    AttributeRequest,
    AttributeResponse,
    DetectRequest,
    RegisterRequest,
    RegisterResponse,
    RevokeRequest,
    RevokeResponse,
    SyncDetectionService,
    decode_request,
    decode_response,
    encode_line,
)

# --------------------------------------------------------------------------- #
# Codec round trips
# --------------------------------------------------------------------------- #


def test_register_request_round_trip(watermarked_bundle):
    result, _ = watermarked_bundle
    request = RegisterRequest(
        request_id="reg-1",
        buyer_id="buyer-a",
        secret=result.secret.to_dict(),
        metadata={"tier": "premium"},
    )
    line = encode_line(request)
    decoded = decode_request(line)
    assert isinstance(decoded, RegisterRequest)
    assert decoded == request
    assert decoded.watermark_secret() == result.secret


def test_revoke_and_attribute_request_round_trip(skewed_histogram):
    revoke = RevokeRequest(request_id="rev-1", buyer_id="buyer-a", metadata={"reason": "leak"})
    assert decode_request(encode_line(revoke)) == revoke

    attribute = AttributeRequest(
        request_id="att-1",
        counts=skewed_histogram.as_dict(),
        config={"min_accepted_fraction": 1.0},
    )
    decoded = decode_request(encode_line(attribute))
    assert isinstance(decoded, AttributeRequest)
    assert decoded == attribute
    assert decoded.detection_config().min_accepted_fraction == 1.0


def test_registry_response_round_trips():
    register = RegisterResponse(
        request_id="reg-1", ok=True, buyer_id="buyer-a", fingerprint="f" * 64, vault_size=3
    )
    assert decode_response(encode_line(register)) == register

    revoke = RevokeResponse(
        request_id="rev-1", ok=True, buyer_id="buyer-a", fingerprint="f" * 64, vault_size=2
    )
    assert decode_response(encode_line(revoke)) == revoke

    attribute = AttributeResponse(
        request_id="att-1",
        ok=True,
        matches=(("buyer-a", 1.0), ("buyer-b", 0.5)),
        mode="index",
        candidates=2,
        active_secrets=100,
    )
    assert decode_response(encode_line(attribute)) == attribute


@pytest.mark.parametrize(
    "response_type", [RegisterResponse, RevokeResponse, AttributeResponse]
)
def test_failure_envelope_round_trips(response_type):
    failure = response_type.failure("req-9", "buyer 'x' already has a registered watermark")
    decoded = decode_response(encode_line(failure))
    assert isinstance(decoded, response_type)
    assert decoded.ok is False
    assert decoded.error == failure.error


def test_malformed_registry_payloads_are_rejected():
    with pytest.raises(ServiceError, match="buyer_id"):
        decode_request(json.dumps({"op": "register", "id": "r", "secret": {}}))
    with pytest.raises(ServiceError, match="secret"):
        decode_request(json.dumps({"op": "register", "id": "r", "buyer_id": "b"}))
    with pytest.raises(ServiceError, match="metadata"):
        decode_request(
            json.dumps({"op": "revoke", "id": "r", "buyer_id": "b", "metadata": []})
        )
    with pytest.raises(ServiceError, match="exactly one"):
        AttributeRequest(request_id="a", tokens=("x",), counts={"x": 1})
    with pytest.raises(ServiceError, match="unknown request op"):
        decode_request(json.dumps({"op": "frobnicate", "id": "r"}))


# --------------------------------------------------------------------------- #
# Protocol versioning
# --------------------------------------------------------------------------- #


def test_encoded_lines_carry_the_protocol_version():
    line = encode_line(RevokeRequest(request_id="rev-1", buyer_id="b"))
    assert json.loads(line)["v"] == PROTOCOL_VERSION == 5


def test_older_and_absent_versions_are_accepted():
    """Any ``v`` up to ours decodes, with ``counts`` in the two-array form
    at every version (the object form is refused at any ``v``)."""
    payload = {
        "id": "d-1",
        "counts": {"tokens": ["x"], "counts": [1]},
        "secret_fingerprint": "f" * 64,
    }
    decoded = decode_request(json.dumps(payload))  # absent v == version 1
    assert isinstance(decoded, DetectRequest)
    assert decoded.counts == {"x": 1}
    assert decode_request(json.dumps(dict(payload, v=1))) == decoded
    assert decode_request(json.dumps(dict(payload, v=PROTOCOL_VERSION))) == decoded


def test_newer_versions_are_rejected():
    payload = {"id": "d-1", "tokens": ["x"], "secret_fingerprint": "f" * 64}
    with pytest.raises(ServiceError, match="only understands versions up to"):
        decode_request(json.dumps(dict(payload, v=PROTOCOL_VERSION + 1)))
    with pytest.raises(ServiceError, match="only understands versions up to"):
        decode_response(json.dumps({"id": "d-1", "ok": True, "v": 99}))


@pytest.mark.parametrize("version", [0, -1, True, "2", 1.5])
def test_malformed_versions_are_rejected(version):
    payload = {"id": "d-1", "tokens": ["x"], "secret_fingerprint": "f" * 64}
    with pytest.raises(ServiceError, match="positive integer"):
        decode_request(json.dumps(dict(payload, v=version)))


# --------------------------------------------------------------------------- #
# Service execution
# --------------------------------------------------------------------------- #


def test_sync_service_vault_verbs(watermarked_bundle):
    """register → attribute → revoke against the lazy in-memory registry."""
    result, _ = watermarked_bundle
    leaked = result.watermarked_histogram.as_dict()
    with SyncDetectionService() as service:
        registered = service.submit(
            RegisterRequest(
                request_id="reg-1",
                buyer_id="buyer-a",
                secret=result.secret.to_dict(),
                metadata={"tier": "standard"},
            )
        )
        assert registered.ok, registered.error
        assert registered.buyer_id == "buyer-a"
        assert registered.fingerprint == result.secret.fingerprint()
        assert registered.vault_size == 1

        duplicate = service.submit(
            RegisterRequest(
                request_id="reg-2", buyer_id="buyer-a", secret=result.secret.to_dict()
            )
        )
        assert isinstance(duplicate, RegisterResponse)
        assert duplicate.ok is False
        assert "already" in (duplicate.error or "")

        verdict = service.submit(AttributeRequest(request_id="att-1", counts=leaked))
        assert verdict.ok, verdict.error
        assert "buyer-a" in {buyer for buyer, _ in verdict.matches}
        assert verdict.mode == "index"
        assert verdict.active_secrets == 1

        revoked = service.submit(RevokeRequest(request_id="rev-1", buyer_id="buyer-a"))
        assert revoked.ok, revoked.error
        assert revoked.vault_size == 0

        after = service.submit(AttributeRequest(request_id="att-2", counts=leaked))
        assert after.ok and after.matches == ()

        assert service.stats.registrations == 1
        assert service.stats.revocations == 1
        assert service.stats.attributions == 2
        snapshot = service.stats.as_dict()
        assert snapshot["registrations"] == 1
        assert snapshot["revocations"] == 1
        assert snapshot["attributions"] == 2


def test_unknown_buyer_revocation_is_a_failure_response(watermarked_bundle):
    _result, _ = watermarked_bundle
    with SyncDetectionService() as service:
        response = service.submit(RevokeRequest(request_id="rev-x", buyer_id="nobody"))
        assert isinstance(response, RevokeResponse)
        assert response.ok is False
        assert "nobody" in (response.error or "")
        assert service.stats.revocations == 0


def test_persistent_vault_survives_a_service_restart(tmp_path, watermarked_bundle):
    """Registrations made through one service attribute after a restart."""
    result, _ = watermarked_bundle
    leaked = result.watermarked_histogram.as_dict()
    with SyncDetectionService(registry=SecretVault(tmp_path)) as service:
        registered = service.submit(
            RegisterRequest(
                request_id="reg-1",
                buyer_id="buyer-persisted",
                secret=result.secret.to_dict(),
            )
        )
        assert registered.ok, registered.error

    with SyncDetectionService(registry=SecretVault(tmp_path)) as service:
        verdict = service.submit(AttributeRequest(request_id="att-1", counts=leaked))
        assert verdict.ok, verdict.error
        assert [buyer for buyer, _ in verdict.matches] == ["buyer-persisted"]


@pytest.mark.parametrize("carrier", ["secret-token", "other-token"])
def test_counts_outside_int64_fail_as_malformed_counts(watermarked_bundle, carrier):
    """A count of 2**63 fails detect and attribute as ``malformed
    counts``, whether a secret token or another carries it: at decode
    for a wire line, at submit for a request built in Python."""
    result, _ = watermarked_bundle
    counts = result.watermarked_histogram.as_dict()
    token = result.secret.pairs[0].first if carrier == "secret-token" else "not-in-any-secret"
    counts[token] = 2**63
    with SyncDetectionService() as service:
        registered = service.submit(
            RegisterRequest(request_id="reg", buyer_id="buyer-a", secret=result.secret.to_dict())
        )
        assert registered.ok, registered.error
        requests = [
            DetectRequest(request_id="det", counts=counts, secret=result.secret.to_dict()),
            AttributeRequest(request_id="att", counts=counts),
        ]
        for request in requests:
            with pytest.raises(ServiceError) as decoding:
                decode_request(encode_line(request))
            response = service.submit(request)
            assert response.ok is False
            for error in (str(decoding.value), response.error or ""):
                assert "malformed counts" in error, error
                assert "int64" in error, error
                assert "internal error" not in error


@pytest.fixture()
def count_checks(monkeypatch):
    """Count the check routines that run on counts, wherever they are bound.

    A call of ``checked_arrays`` is a check; a call of ``checked_counts``
    is one unless it hands its argument back unchanged (an already
    checked :class:`TokenCounts`).
    """
    checks = []
    arrays, counts = histogram.checked_arrays, histogram.checked_counts

    def counting_arrays(*args):
        checks.append("checked_arrays")
        return arrays(*args)

    def counting_counts(value):
        checked = counts(value)
        if checked is not value:
            checks.append("checked_counts")
        return checked

    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attribute, wrapper in (
            ("checked_arrays", counting_arrays),
            ("checked_counts", counting_counts),
        ):
            if getattr(module, attribute, None) in (arrays, counts):
                monkeypatch.setattr(module, attribute, wrapper)
    return checks


def test_a_decoded_request_has_its_counts_checked_once(watermarked_bundle, count_checks):
    """Decode runs the one check of a detect's or an attribute's counts;
    the verb, the detector and the vault screen read them unchecked."""
    result, _ = watermarked_bundle
    counts = result.watermarked_histogram.as_dict()
    requests = [
        DetectRequest(request_id="det", counts=counts, secret=result.secret.to_dict()),
        AttributeRequest(request_id="att", counts=counts),
    ]
    with SyncDetectionService() as service:
        registered = service.submit(
            RegisterRequest(request_id="reg", buyer_id="buyer-a", secret=result.secret.to_dict())
        )
        assert registered.ok, registered.error
        for request in requests:
            count_checks.clear()
            decoded = decode_request(encode_line(request))
            assert type(decoded.counts) is TokenCounts
            response = service.submit(decoded)
            assert response.ok, response.error
            assert count_checks == ["checked_arrays"], request.request_id


@pytest.mark.parametrize(("field", "value"), [("pairs", [None]), ("metadata", [])])
def test_malformed_inline_secret_is_not_an_internal_error(watermarked_bundle, field, value):
    """A detect or register whose secret has a bad field fails as a
    malformed secret, never as ``internal error``."""
    result, _ = watermarked_bundle
    secret = dict(result.secret.to_dict(), **{field: value})
    counts = result.watermarked_histogram.as_dict()
    with SyncDetectionService() as service:
        requests = [
            DetectRequest(request_id="det", counts=counts, secret=secret),
            RegisterRequest(request_id="reg", buyer_id="buyer-a", secret=secret),
        ]
        for request in requests:
            response = service.submit(decode_request(encode_line(request)))
            assert response.ok is False
            assert not (response.error or "").startswith("internal error"), response.error
            assert "malformed secret" in (response.error or ""), response.error
            assert repr(field) in (response.error or ""), response.error


@pytest.mark.parametrize("cap", [2**63, 2**70])
def test_register_with_modulus_cap_outside_int64_leaves_the_vault_intact(
    tmp_path, watermarked_bundle, cap
):
    """A secret whose ``z`` overflows int64 fails ``register`` typed,
    writes nothing, and the vault reopens with its earlier entries."""
    result, _ = watermarked_bundle
    oversized = dict(result.secret.to_dict(), modulus_cap=cap)
    with SyncDetectionService(registry=SecretVault(tmp_path)) as service:
        first = service.submit(
            RegisterRequest(request_id="reg-1", buyer_id="buyer-a", secret=result.secret.to_dict())
        )
        assert first.ok, first.error
        rejected = service.submit(
            decode_request(
                encode_line(
                    RegisterRequest(request_id="reg-2", buyer_id="buyer-b", secret=oversized)
                )
            )
        )
        assert isinstance(rejected, RegisterResponse) and rejected.ok is False
        assert "malformed secret" in (rejected.error or ""), rejected.error
        assert "internal error" not in (rejected.error or "")
    reopened = SecretVault(tmp_path)
    assert reopened.active_buyers == ("buyer-a",)
    assert len(reopened.entries) == 1 and reopened.verify_chain()
