"""Unit tests for the judge protocol and the watermark registry."""

from __future__ import annotations

import json

import pytest

from repro.attacks.rewatermark import RewatermarkAttack
from repro.core.config import DetectionConfig, GenerationConfig
from repro.core.generator import WatermarkGenerator
from repro.core.secrets import WatermarkSecret
from repro.dispute.judge import Judge, OwnershipClaim, Verdict
from repro.dispute.registry import WatermarkRegistry
from repro.exceptions import DisputeError


@pytest.fixture(scope="module")
def dispute_setup(skewed_histogram):
    """Owner watermark + re-watermarking attacker over the same data."""
    config = GenerationConfig(budget_percent=2.0, modulus_cap=131)
    owner_result = WatermarkGenerator(config, rng=21).generate(skewed_histogram)
    attack = RewatermarkAttack(config, rng=22)
    outcome = attack.run(owner_result.watermarked_histogram, owner_result.secret)
    return owner_result, outcome


class TestJudge:
    def test_judge_identifies_real_owner(self, dispute_setup):
        owner_result, outcome = dispute_setup
        registry = WatermarkRegistry()
        registry.register("owner", owner_result.secret, dataset="v1")
        registry.register("pirate", outcome.attacker_result.secret, dataset="v1-pirated")
        claims = [
            OwnershipClaim(
                claimant="owner",
                secret=owner_result.secret,
                claimed_data=owner_result.watermarked_histogram,
            ),
            OwnershipClaim(
                claimant="pirate",
                secret=outcome.attacker_result.secret,
                claimed_data=outcome.attacker_result.watermarked_histogram,
            ),
        ]
        verdict = Judge(DetectionConfig(pair_threshold=1), registry=registry).arbitrate(claims)
        assert verdict.resolved
        assert verdict.winner == "owner"
        # The owner's watermark is detectable in the pirate's derived copy.
        assert verdict.detections["owner"]["pirate"].accepted

    def test_judge_unresolved_for_unrelated_claims(self, skewed_histogram, dispute_setup):
        owner_result, _ = dispute_setup
        # Two parties claiming completely unrelated datasets: neither secret
        # verifies on the other's data, so nobody verifies universally.
        other = WatermarkGenerator(
            GenerationConfig(budget_percent=2.0, modulus_cap=131), rng=99
        ).generate(skewed_histogram)
        claims = [
            OwnershipClaim("alice", owner_result.secret, owner_result.watermarked_histogram),
            OwnershipClaim("bob", other.secret, other.watermarked_histogram),
        ]
        verdict = Judge(DetectionConfig(pair_threshold=0)).arbitrate(claims)
        assert verdict.winner is None or verdict.winner in {"alice", "bob"}
        assert isinstance(verdict, Verdict)

    def test_judge_requires_two_claims(self, dispute_setup):
        owner_result, _ = dispute_setup
        claim = OwnershipClaim(
            "owner", owner_result.secret, owner_result.watermarked_histogram
        )
        with pytest.raises(DisputeError):
            Judge().arbitrate([claim])

    def test_judge_requires_distinct_names(self, dispute_setup):
        owner_result, outcome = dispute_setup
        claims = [
            OwnershipClaim("x", owner_result.secret, owner_result.watermarked_histogram),
            OwnershipClaim(
                "x",
                outcome.attacker_result.secret,
                outcome.attacker_result.watermarked_histogram,
            ),
        ]
        with pytest.raises(DisputeError):
            Judge().arbitrate(claims)

    def test_judge_rejects_invalid_margin(self):
        with pytest.raises(DisputeError):
            Judge(margin=1.5)
        with pytest.raises(DisputeError):
            Judge(margin=-0.1)

    def test_registry_tiebreak_prefers_earliest_registration(self, dispute_setup):
        # Register the pirate first to confirm the tie-break really follows
        # registration order rather than claimant naming or claim order.
        owner_result, outcome = dispute_setup
        registry = WatermarkRegistry()
        registry.register("pirate", outcome.attacker_result.secret)
        registry.register("owner", owner_result.secret)
        claims = [
            OwnershipClaim("owner", owner_result.secret, owner_result.watermarked_histogram),
            OwnershipClaim(
                "pirate",
                outcome.attacker_result.secret,
                outcome.attacker_result.watermarked_histogram,
            ),
        ]
        verdict = Judge(DetectionConfig(pair_threshold=1), registry=registry).arbitrate(claims)
        # Whoever the universal/margin rules leave ambiguous, the registry
        # order decides; with the pirate registered first it can win, which
        # is exactly why owners must register before distributing copies.
        assert verdict.winner in {"owner", "pirate", None}
        if verdict.winner is None:
            assert "margin" in verdict.reason or "verify" in verdict.reason

    def test_claim_from_tokens(self, dispute_setup, skewed_tokens):
        owner_result, _ = dispute_setup
        claim = OwnershipClaim.from_tokens("owner", owner_result.secret, skewed_tokens)
        assert claim.claimed_data.total_count() == len(skewed_tokens)


class TestRegistry:
    @pytest.fixture()
    def per_buyer_watermarks(self, skewed_histogram):
        """Three buyer-specific watermarks of the same original dataset."""
        config = GenerationConfig(budget_percent=2.0, modulus_cap=131)
        results = {}
        for index, buyer in enumerate(("buyer-a", "buyer-b", "buyer-c")):
            generator = WatermarkGenerator(config, rng=100 + index)
            results[buyer] = generator.generate(skewed_histogram)
        return results

    def test_register_and_chain_verification(self, per_buyer_watermarks):
        registry = WatermarkRegistry()
        for buyer, result in per_buyer_watermarks.items():
            registry.register(buyer, result.secret, dataset="clickstream-v1")
        assert len(registry) == 3
        assert registry.verify_chain()
        assert registry.entries[1].previous_hash == registry.entries[0].entry_hash

    def test_duplicate_buyer_rejected(self, per_buyer_watermarks):
        registry = WatermarkRegistry()
        buyer, result = next(iter(per_buyer_watermarks.items()))
        registry.register(buyer, result.secret)
        with pytest.raises(DisputeError):
            registry.register(buyer, result.secret)

    def test_leak_attribution_identifies_the_right_buyer(self, per_buyer_watermarks):
        registry = WatermarkRegistry()
        for buyer, result in per_buyer_watermarks.items():
            registry.register(buyer, result.secret)
        leaked = per_buyer_watermarks["buyer-b"].watermarked_histogram
        matches = registry.attribute_leak(leaked, detection=DetectionConfig(pair_threshold=0))
        assert matches, "the leaked copy must match at least its own buyer"
        assert matches[0][0] == "buyer-b"

    def test_attribution_matches_per_secret_detect_loop(self, per_buyer_watermarks):
        """Verdict parity: the stacked detect_many_secrets pass must rank
        exactly like the per-buyer detector loop it replaced."""
        from repro.core.detector import WatermarkDetector

        registry = WatermarkRegistry()
        for buyer, result in per_buyer_watermarks.items():
            registry.register(buyer, result.secret)
        for detection in (
            DetectionConfig(pair_threshold=0),
            DetectionConfig(pair_threshold=1),
            DetectionConfig(pair_threshold=4, min_accepted_fraction=0.3),
        ):
            for leaked_buyer, leaked_result in per_buyer_watermarks.items():
                leaked = leaked_result.watermarked_histogram
                expected = []
                for buyer, result in per_buyer_watermarks.items():
                    verdict = WatermarkDetector(result.secret, detection).detect(leaked)
                    if verdict.accepted:
                        expected.append((buyer, verdict.accepted_fraction))
                expected.sort(key=lambda item: (-item[1], item[0]))
                assert (
                    registry.attribute_leak(leaked, detection=detection) == expected
                ), f"parity broken for leak of {leaked_buyer} at {detection}"

    def test_empty_registry_attributes_nothing(self, per_buyer_watermarks):
        registry = WatermarkRegistry()
        leaked = per_buyer_watermarks["buyer-b"].watermarked_histogram
        assert registry.attribute_leak(leaked) == []

    def test_secret_vault_lookup(self, per_buyer_watermarks):
        registry = WatermarkRegistry()
        buyer, result = next(iter(per_buyer_watermarks.items()))
        registry.register(buyer, result.secret)
        assert registry.secret_for(buyer) == result.secret
        with pytest.raises(DisputeError):
            registry.secret_for("nobody")

    def test_public_ledger_export_and_tamper_detection(self, per_buyer_watermarks, tmp_path):
        registry = WatermarkRegistry()
        for buyer, result in per_buyer_watermarks.items():
            registry.register(buyer, result.secret)
        path = tmp_path / "ledger.json"
        registry.save_public_ledger(path)
        exported = json.loads(path.read_text(encoding="utf-8"))
        assert WatermarkRegistry.verify_exported_ledger(exported)
        # Tampering with any field breaks the chain.
        exported[1]["buyer_id"] = "mallory"
        assert not WatermarkRegistry.verify_exported_ledger(exported)
        # Secrets never appear in the public ledger.
        assert "secret" not in json.dumps(exported)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda ledger: [5],
            lambda ledger: [{"index": 0}],
            lambda ledger: [dict(ledger[0], index="x")] + ledger[1:],
            lambda ledger: [dict(ledger[0], metadata=[1])] + ledger[1:],
            lambda ledger: [dict(ledger[0], index=True)] + ledger[1:],
            lambda ledger: {"index": 0},
        ],
        ids=["not-an-object", "missing-fields", "string-index", "list-metadata", "bool-index", "not-a-list"],
    )
    def test_malformed_exported_ledger_is_invalid_not_an_error(
        self, per_buyer_watermarks, mutate
    ):
        """A record the codec rejects makes the ledger invalid; nothing raises."""
        registry = WatermarkRegistry()
        for buyer, result in per_buyer_watermarks.items():
            registry.register(buyer, result.secret)
        ledger = json.loads(json.dumps(registry.export_public_ledger()))
        assert WatermarkRegistry.verify_exported_ledger(ledger)
        assert WatermarkRegistry.verify_exported_ledger(mutate(ledger)) is False

    def test_metadata_may_use_the_argument_names(self, per_buyer_watermarks):
        """``buyer_id`` / ``secret`` are plain metadata keys, not a TypeError."""
        registry = WatermarkRegistry()
        buyer, result = next(iter(per_buyer_watermarks.items()))
        entry = registry.register(buyer, result.secret, buyer_id="alias", secret="x")
        assert entry.buyer_id == buyer
        assert entry.metadata == {"buyer_id": "alias", "secret": "x"}
        revoked = registry.revoke(buyer, buyer_id="alias")
        assert revoked.metadata == {"buyer_id": "alias", "action": "revoke"}
        assert registry.verify_chain()


class TestDetectorCaching:
    """The dispute layer derives each secret's moduli once, not per screen."""

    @pytest.fixture()
    def per_buyer_watermarks(self, skewed_histogram):
        config = GenerationConfig(budget_percent=2.0, modulus_cap=131)
        return {
            buyer: WatermarkGenerator(config, rng=100 + index).generate(
                skewed_histogram
            )
            for index, buyer in enumerate(("buyer-a", "buyer-b", "buyer-c"))
        }

    def test_first_screen_derives_each_active_secret_once(
        self, per_buyer_watermarks, moduli_derivations
    ):
        secrets = {
            buyer: WatermarkSecret.from_dict(result.secret.to_dict())
            for buyer, result in per_buyer_watermarks.items()
        }
        registry = WatermarkRegistry()
        for buyer, secret in secrets.items():
            registry.register(buyer, secret)
        registry.revoke("buyer-c")
        # Registration and revocation build no index: nothing is derived.
        assert moduli_derivations == []
        detection = DetectionConfig(pair_threshold=0)
        leaked = per_buyer_watermarks["buyer-b"].watermarked_histogram
        other = per_buyer_watermarks["buyer-a"].watermarked_histogram
        first = registry.attribute_leak(leaked, detection=detection)
        # The first screen builds the index from the active secrets, each
        # derived once; the revoked secret never is.
        assert moduli_derivations == [len(secrets["buyer-a"]), len(secrets["buyer-b"])]
        assert "_moduli" not in vars(secrets["buyer-c"])
        assert registry.last_attribution.candidates >= 1
        second = registry.attribute_leak(other, detection=detection)
        assert [buyer for buyer, _ in first][:1] == ["buyer-b"]
        assert [buyer for buyer, _ in second][:1] == ["buyer-a"]
        # Later screens and confirmations read the memoised moduli.
        assert len(moduli_derivations) == 2
        assert first == registry.attribute_leak(leaked, detection=detection)
        assert len(moduli_derivations) == 2
        # Once the index exists, a registration posts into it at once.
        registry.register("buyer-c", secrets["buyer-c"])
        assert moduli_derivations[2:] == [len(secrets["buyer-c"])]
        registry.attribute_leak(leaked, detection=detection)
        assert len(moduli_derivations) == 3

    def test_judge_reuses_claimant_detectors_across_arbitrations(self, dispute_setup):
        owner_result, outcome = dispute_setup
        judge = Judge(DetectionConfig(pair_threshold=0))
        claims = [
            OwnershipClaim("owner", owner_result.secret, outcome.attacker_result.watermarked_histogram),
            OwnershipClaim("pirate", outcome.attacker_result.secret, outcome.attacker_result.watermarked_histogram),
        ]
        first = judge.arbitrate(claims)
        stats = judge.detector_cache.stats()
        assert stats.misses == 2 and stats.hits == 0
        second = judge.arbitrate(claims)
        stats = judge.detector_cache.stats()
        assert stats.misses == 2 and stats.hits == 2
        assert first.winner == second.winner and first.reason == second.reason
