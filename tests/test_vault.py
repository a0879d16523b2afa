"""Persistence edge cases of the on-disk :class:`SecretVault`.

The vault's crash contract (module docstring of
:mod:`repro.dispute.vault`): a registration writes the content-addressed
secret file *first* and appends the fsynced ledger line *second*, so a
crash between the two leaves an ignorable orphan — never a vault entry
or an index posting. A crash mid-append leaves a torn final ledger line,
which reload truncates; anything corrupt *before* the tail is tampering
and must fail loudly. These tests simulate each of those disk states
directly and pin down what a reopened vault recovers.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.batch import detect_many_secrets
from repro.core.config import DetectionConfig
from repro.core.secrets import WatermarkSecret
from repro.dispute import RegistryEntry, SecretVault, WatermarkRegistry
from repro.dispute.index import IndexStats
from repro.dispute.registry import AttributionStats
from repro.exceptions import DisputeError

DETECTION = DetectionConfig(pair_threshold=0, min_accepted_fraction=0.5)


def _decoy_secret(histogram, modulus_cap, *, seed):
    """One synthetic buyer secret over the histogram's vocabulary."""
    tokens = sorted(histogram.as_dict())
    pairs = [
        (tokens[(seed + offset) % len(tokens)], tokens[(seed + offset + 7) % len(tokens)])
        for offset in range(0, 24, 3)
    ]
    return WatermarkSecret.build(pairs, 10_000 + seed, modulus_cap)


@pytest.fixture()
def vault_bundle(tmp_path, watermarked_bundle):
    """A vault holding the real buyer plus two decoys."""
    result, _ = watermarked_bundle
    vault = SecretVault(tmp_path)
    vault.register("buyer-real", result.secret, tier="premium")
    for index in range(2):
        vault.register(
            f"decoy-{index}",
            _decoy_secret(result.watermarked_histogram, result.secret.modulus_cap, seed=index),
        )
    return vault, result


def test_reload_round_trip(tmp_path, vault_bundle):
    """A reopened vault replays to the identical ledger, buyers, verdicts."""
    vault, result = vault_bundle
    vault.revoke("decoy-1", reason="expired")
    before_matches = vault.attribute_leak(result.watermarked_histogram, detection=DETECTION)
    before_ledger = vault.export_public_ledger()

    reopened = SecretVault(tmp_path)
    assert reopened.export_public_ledger() == before_ledger
    assert reopened.active_buyers == vault.active_buyers
    assert len(reopened) == len(vault) == 4  # 3 registrations + 1 revocation
    assert reopened.verify_chain()
    assert reopened.secret_for("buyer-real").fingerprint() == result.secret.fingerprint()
    assert (
        reopened.attribute_leak(result.watermarked_histogram, detection=DETECTION)
        == before_matches
    )


def test_crash_mid_register_leaves_no_partial_entry(tmp_path, vault_bundle):
    """An orphan secret file (crash before the ledger append) is ignored.

    The atomic-write contract: the half-finished registration must
    contribute no vault entry, no active buyer, and no index posting.
    """
    vault, result = vault_bundle
    orphan = _decoy_secret(
        result.watermarked_histogram, result.secret.modulus_cap, seed=99
    )
    # Simulate the crash window: the secret file landed, the ledger
    # append never happened.
    (tmp_path / "secrets" / f"{orphan.fingerprint()}.json").write_text(
        orphan.to_json(), encoding="utf-8"
    )

    reopened = SecretVault(tmp_path)
    assert set(reopened.active_buyers) == set(vault.active_buyers)
    assert reopened.index_stats().active_secrets == 3
    assert reopened.index_stats().postings == vault.index_stats().postings
    assert reopened.verify_chain()


def test_torn_ledger_tail_is_truncated(tmp_path, vault_bundle):
    """A crash mid-append (torn final line) is repaired, not fatal."""
    vault, result = vault_bundle
    intact = (tmp_path / "ledger.jsonl").read_text(encoding="utf-8")
    (tmp_path / "ledger.jsonl").write_text(
        intact + '{"seq":3,"action":"regis', encoding="utf-8"
    )

    reopened = SecretVault(tmp_path)
    assert set(reopened.active_buyers) == set(vault.active_buyers)
    # The torn bytes are gone from disk, so the next append re-chains
    # cleanly onto the surviving records.
    assert (tmp_path / "ledger.jsonl").read_text(encoding="utf-8") == intact
    reopened.revoke("decoy-0")
    assert SecretVault(tmp_path).verify_chain()


def test_mid_file_garbage_is_tampering(tmp_path, vault_bundle):
    """Corruption anywhere before the tail must raise, never repair."""
    _vault, _result = vault_bundle
    lines = (tmp_path / "ledger.jsonl").read_text(encoding="utf-8").splitlines()
    lines[0] = '{"seq":0,"acti'
    (tmp_path / "ledger.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    with pytest.raises(DisputeError, match="corrupt"):
        SecretVault(tmp_path)


def test_edited_record_breaks_the_chain(tmp_path, vault_bundle):
    """A syntactically valid but edited record fails hash verification."""
    _vault, _result = vault_bundle
    lines = (tmp_path / "ledger.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["buyer_id"] = "mallory"
    lines[1] = json.dumps(record, separators=(",", ":"), sort_keys=True)
    (tmp_path / "ledger.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    with pytest.raises(DisputeError, match="hash chain"):
        SecretVault(tmp_path)


def test_missing_secret_file_is_fatal(tmp_path, vault_bundle):
    """A ledger record whose secret file vanished must fail the reload."""
    vault, _result = vault_bundle
    fingerprint = vault.secret_for("decoy-0").fingerprint()
    (tmp_path / "secrets" / f"{fingerprint}.json").unlink()

    with pytest.raises(DisputeError, match="does not exist"):
        SecretVault(tmp_path)


def test_reserved_action_metadata_is_rejected(tmp_path, vault_bundle):
    """The ledger's ``action`` discriminator can never be spoofed."""
    vault, result = vault_bundle
    spare = _decoy_secret(
        result.watermarked_histogram, result.secret.modulus_cap, seed=42
    )
    with pytest.raises(DisputeError, match="reserved"):
        vault.register("buyer-new", spare, action="revoke")
    with pytest.raises(DisputeError, match="reserved"):
        vault.revoke("decoy-0", action="register")
    # Neither failed call may have appended anything.
    assert len(SecretVault(tmp_path)) == 3


def test_duplicate_registration_appends_nothing(tmp_path, vault_bundle):
    """A rejected duplicate leaves the ledger exactly as it was."""
    vault, result = vault_bundle
    before = (tmp_path / "ledger.jsonl").read_text(encoding="utf-8")
    with pytest.raises(DisputeError, match="already"):
        vault.register("buyer-real", result.secret)
    assert (tmp_path / "ledger.jsonl").read_text(encoding="utf-8") == before


def test_revoke_then_attribute_survives_reopen(tmp_path, vault_bundle):
    """Revocation is durable: a reopened vault never names the buyer."""
    vault, result = vault_bundle
    assert "buyer-real" in {
        buyer
        for buyer, _ in vault.attribute_leak(
            result.watermarked_histogram, detection=DETECTION
        )
    }
    vault.revoke("buyer-real", reason="leak")

    reopened = SecretVault(tmp_path)
    matches = reopened.attribute_leak(result.watermarked_histogram, detection=DETECTION)
    assert "buyer-real" not in {buyer for buyer, _ in matches}
    # The append-only history still shows the registration and revocation.
    actions = [entry.action for entry in reopened.entries]
    assert actions == ["register", "register", "register", "revoke"]

    reopened.register("buyer-real", result.secret, tier="reissued")
    again = reopened.attribute_leak(result.watermarked_histogram, detection=DETECTION)
    assert "buyer-real" in {buyer for buyer, _ in again}


def _ledger_records(directory):
    path = directory / "ledger.jsonl"
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _write_rechained(directory, records, start):
    """Write ``records``, re-hashing from ``start`` so the chain stays valid."""
    for position in range(start, len(records)):
        record = records[position]
        if position > 0:
            record["previous_hash"] = records[position - 1]["entry_hash"]
        record["entry_hash"] = RegistryEntry.compute_hash(
            record["index"],
            record["buyer_id"],
            record["fingerprint"],
            record["metadata"],
            record["previous_hash"],
        )
    lines = [json.dumps(record, separators=(",", ":"), sort_keys=True) for record in records]
    (directory / "ledger.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_ledger_file_is_the_public_ledger(tmp_path, vault_bundle):
    """Every line of ``ledger.jsonl`` is one public ledger record, verbatim."""
    vault, _result = vault_bundle
    assert isinstance(vault, WatermarkRegistry)
    vault.revoke("decoy-1", reason="expired")
    records = _ledger_records(tmp_path)
    assert records == vault.export_public_ledger()
    assert WatermarkRegistry.verify_exported_ledger(records)
    assert [record["metadata"].get("action") for record in records] == [
        None,
        None,
        None,
        "revoke",
    ]


def test_metadata_named_like_arguments_survives_reopen(tmp_path, vault_bundle):
    """Metadata keys ``buyer_id`` / ``secret`` replay as metadata."""
    vault, result = vault_bundle
    spare = _decoy_secret(result.watermarked_histogram, result.secret.modulus_cap, seed=5)
    vault.register("buyer-new", spare, buyer_id="alias", secret="x")
    reopened = SecretVault(tmp_path)
    assert reopened.export_public_ledger() == vault.export_public_ledger()


def test_previous_record_format_is_refused(tmp_path, vault_bundle):
    """A ledger of ``seq``/``action`` records (the earlier format, with a
    valid chain of its own) is refused, never replayed."""
    _vault, _result = vault_bundle
    previous_hash = "0" * 64
    lines = []
    for seq, record in enumerate(_ledger_records(tmp_path)):
        old = {
            "seq": seq,
            "action": "register",
            "buyer_id": record["buyer_id"],
            "fingerprint": record["fingerprint"],
            "metadata": record["metadata"],
            "previous_hash": previous_hash,
        }
        payload = json.dumps(old, sort_keys=True).encode("utf-8")
        old["entry_hash"] = previous_hash = hashlib.sha256(payload).hexdigest()
        lines.append(json.dumps(old, separators=(",", ":"), sort_keys=True))
    (tmp_path / "ledger.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    with pytest.raises(DisputeError, match="record 0: ledger record has unknown field"):
        SecretVault(tmp_path)


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("index", True),
        ("index", "0"),
        ("index", 0.0),
        ("index", None),
        ("buyer_id", 7),
        ("buyer_id", ["buyer-real"]),
        ("fingerprint", 7),
        ("fingerprint", None),
        ("metadata", [1]),
        ("metadata", [["k", "v"]]),
        ("metadata", "tier"),
        ("previous_hash", 7),
        ("entry_hash", None),
        ("seq", 0),
    ],
)
def test_wrongly_typed_record_is_refused(tmp_path, vault_bundle, field, value):
    """A record field of the wrong JSON kind (or an unknown field), with
    the chain re-hashed to stay valid, fails the reload naming the field."""
    _vault, _result = vault_bundle
    records = _ledger_records(tmp_path)
    records[0][field] = value
    # A replaced entry_hash is the hash itself: re-chain its successors only.
    _write_rechained(tmp_path, records, 1 if field == "entry_hash" else 0)

    with pytest.raises(DisputeError, match=f"'{field}'"):
        SecretVault(tmp_path)


def test_reopen_derives_no_moduli_until_the_first_screen(
    tmp_path, vault_bundle, moduli_derivations
):
    """Registering, revoking and reopening derive no moduli. The first
    screen derives each active secret's moduli once, never a revoked
    secret's; later attributes derive nothing."""
    vault, result = vault_bundle
    leaked = result.watermarked_histogram
    late = WatermarkSecret.build(
        [(f"tok-{index:04d}", f"tok-{index + 50:04d}") for index in range(5)], 77, 131
    )
    vault.register("decoy-late", late)
    vault.revoke("decoy-1")
    assert moduli_derivations == []
    reopened = SecretVault(tmp_path)
    assert moduli_derivations == []
    assert reopened.active_buyers == ("buyer-real", "decoy-0", "decoy-late")
    first = reopened.attribute_leak(leaked, detection=DETECTION)
    # One derivation per active secret, in row order; the revoked
    # decoy-1 (replayed, then revoked) is never derived.
    assert moduli_derivations == [len(result.secret), 8, 5]
    assert reopened.attribute_leak(leaked, detection=DETECTION) == first
    reopened.attribute_leak(result.original_histogram, detection=DETECTION)
    reopened.index_stats()
    assert len(moduli_derivations) == 3
    assert first == vault.attribute_leak(leaked, detection=DETECTION)


def _scan(vault, data):
    """What attribution must answer, from one full ``detect_many_secrets``
    scan over the active secrets: ``(matches, last_attribution,
    index_stats)``."""
    buyers = vault.active_buyers
    results = detect_many_secrets(
        data, [vault.secret_for(buyer) for buyer in buyers], DETECTION, collect_evidence=True
    )
    matches = sorted(
        ((buyer, found.accepted_fraction) for buyer, found in zip(buyers, results) if found.accepted),
        key=lambda match: (-match[1], match[0]),
    )
    # Bucket acceptance depends only on (first, second, modulus).
    buckets = {
        (evidence.pair.first, evidence.pair.second, evidence.modulus): evidence.accepted
        for found in results
        for evidence in found.evidence
    }
    attribution = AttributionStats(
        mode="index",
        candidates=sum(found.accepted_pairs >= found.required_pairs for found in results),
        active_secrets=len(buyers),
        buckets_screened=len(buckets),
        buckets_accepted=sum(buckets.values()),
        matches=len(matches),
    )
    index = IndexStats(
        active_secrets=len(buyers),
        buckets=len(buckets),
        postings=sum(found.total_pairs for found in results),
    )
    return matches, attribution, index


@pytest.mark.parametrize("screen_before_reopen", [False, True])
def test_reopened_vault_answers_as_a_full_scan(tmp_path, vault_bundle, screen_before_reopen):
    """Register, revoke, attribute and reopen interleaved, with the index
    built or not at each step: every answer equals a full scan."""
    vault, result = vault_bundle
    suspects = [result.watermarked_histogram, result.original_histogram]

    def check(current):
        for data in suspects:
            matches, attribution, index = _scan(current, data)
            assert current.attribute_leak(data, detection=DETECTION) == matches
            assert current.last_attribution == attribution
            assert current.index_stats() == index

    def decoy(seed):
        return _decoy_secret(result.watermarked_histogram, result.secret.modulus_cap, seed=seed)

    def reopen(current):
        if screen_before_reopen:
            check(current)
        reopened = SecretVault(tmp_path)
        assert reopened.export_public_ledger() == current.export_public_ledger()
        assert reopened.active_buyers == current.active_buyers
        return reopened

    vault.register("copycat", result.secret)  # index not built yet
    vault.revoke("decoy-0")
    check(vault)  # builds it
    vault.register("decoy-2", decoy(2))  # posted into the built index
    vault.revoke("decoy-1")  # withdrawn from it
    check(vault)
    vault = reopen(vault)
    # Half the real pairs under the real R: a weaker match that ranks
    # after the exact copies.
    partial = WatermarkSecret.build(
        [pair.as_tuple() for pair in result.secret.pairs[:20] + decoy(3).pairs],
        result.secret.secret,
        result.secret.modulus_cap,
    )
    vault.register("decoy-3", partial)
    vault.revoke("buyer-real")
    vault = reopen(vault)  # a vault whose index was never built
    check(vault)
    vault.register("buyer-real", decoy(4))  # a revoked buyer registers anew
    vault.revoke("copycat")
    vault = reopen(vault)
    check(vault)
    assert vault.active_buyers == ("decoy-2", "decoy-3", "buyer-real")
