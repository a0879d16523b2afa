"""Unit tests for the watermark secret list (L_sc) and its serialisation."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.config import DetectionConfig, GenerationConfig
from repro.core.detector import WatermarkDetector
from repro.core.generator import WatermarkGenerator
from repro.core.hashing import pair_modulus
from repro.core.secrets import WatermarkSecret, max_modulus_cap
from repro.core.tokens import TokenPair
from repro.dispute.registry import WatermarkRegistry
from repro.exceptions import ConfigurationError, ReproError


_ABSENT = object()

#: One-field mutations of a valid payload; each must raise a ReproError.
_MUTATIONS = [
    *(
        ("pairs", value)
        for value in (
            _ABSENT, None, True, 7, 2.5, "ab", {"a": "b"}, [None], ["ab"], [7],
            [{"a": "b"}], [[]], [["a"]], [["a", "b", "c"]], [["a", "a"]],
            [[1, 2]], [["a", None]], [[None, "b"]], [["a", ["b"]]],
            [["a", {"b": 1}]], [["a", True]], [["a", "b"], None],
            [["a", "b"], ["c"]],
        )
    ),
    *(
        ("metadata", value)
        for value in (None, True, 7, 2.5, "owner", [], [["k", "v"]], ["k"])
    ),
    *(
        ("secret", value)
        for value in (_ABSENT, None, True, 2.5, "x", "-5", -5, [], {}, [1])
    ),
    *(
        ("modulus_cap", value)
        for value in (
            _ABSENT, None, True, 1, 0, -3, "x", [], {}, [31], float("inf"), float("nan"),
            # int() would read these as another z, deriving other moduli.
            2.5, 131.9, "131",
            # Outside int64: every modulus array would overflow.
            2**63, 2**70,
        )
    ),
]


@pytest.fixture()
def secret() -> WatermarkSecret:
    return WatermarkSecret.build(
        [("youtube.com", "instagram.com"), ("facebook.com", "bbc.com")],
        secret=123456789,
        modulus_cap=131,
        owner="acme",
    )


class TestConstruction:
    def test_pairs_are_token_pairs(self, secret):
        assert all(isinstance(pair, TokenPair) for pair in secret.pairs)
        assert len(secret) == 2

    def test_rejects_small_modulus_cap(self):
        with pytest.raises(ConfigurationError):
            WatermarkSecret.build([("a", "b")], secret=1, modulus_cap=1)

    @pytest.mark.parametrize("cap", [2**63, 2**70, 31.0, "31"])
    def test_rejects_modulus_cap_outside_int64_or_not_an_integer(self, cap):
        with pytest.raises(ConfigurationError):
            WatermarkSecret.build([("a", "b")], secret=1, modulus_cap=cap)

    def test_rejects_negative_secret(self):
        with pytest.raises(ConfigurationError):
            WatermarkSecret.build([("a", "b")], secret=-1, modulus_cap=10)

    def test_metadata_attached(self, secret):
        assert secret.metadata["owner"] == "acme"

    def test_with_metadata_merges(self, secret):
        extended = secret.with_metadata(buyer="b-1")
        assert extended.metadata["owner"] == "acme"
        assert extended.metadata["buyer"] == "b-1"
        assert "buyer" not in secret.metadata


class TestModuli:
    def test_pair_moduli_in_range(self, secret):
        moduli = secret.moduli()
        assert moduli.dtype == np.int64 and len(moduli) == len(secret.pairs)
        assert ((0 <= moduli) & (moduli < 131)).all()

    def test_pair_moduli_deterministic(self, secret):
        rebuilt = WatermarkSecret.from_dict(secret.to_dict())
        assert secret.moduli().tolist() == rebuilt.moduli().tolist()

    def test_moduli_are_memoised_and_read_only(self, secret):
        moduli = secret.moduli()
        assert secret.moduli() is moduli
        with pytest.raises(ValueError):
            moduli[0] = 7
        assert moduli.tolist() == [
            pair_modulus(pair.first, pair.second, secret.secret, 131)
            for pair in secret.pairs
        ]

    def test_memo_is_never_serialised(self, secret):
        pickled, text = pickle.dumps(secret), secret.to_json()
        secret.fingerprint()
        secret.moduli()
        assert pickle.dumps(secret) == pickled
        assert secret.to_json() == text
        assert "_moduli" not in pickle.loads(pickled).__dict__

    def test_largest_modulus_cap_detects_and_indexes(self, secret):
        """``z = 2**63 - 1``: moduli, detection and the index all fit int64."""
        largest = WatermarkSecret.build(
            [pair.as_tuple() for pair in secret.pairs], secret.secret, 2**63 - 1
        )
        moduli = largest.moduli()
        assert moduli.tolist() == [
            pair_modulus(pair.first, pair.second, largest.secret, 2**63 - 1)
            for pair in largest.pairs
        ]
        # Counts whose differences equal each modulus verify; the
        # largest count is at most 2**63 - 1.
        counts = {}
        for pair, modulus in zip(largest.pairs, moduli.tolist()):
            counts[pair.second] = 1
            counts[pair.first] = 1 + modulus
        detection = DetectionConfig(min_accepted_fraction=1.0)
        result = WatermarkDetector(largest, detection).detect(counts, collect_evidence=True)
        assert result.accepted and result.accepted_pairs == len(largest)
        assert [item.modulus for item in result.evidence] == moduli.tolist()
        registry = WatermarkRegistry()
        registry.register("buyer", largest)
        assert registry.attribute_leak(counts, detection=detection) == [("buyer", 1.0)]


class TestNumpyStrTokens:
    """A secret generated from ``numpy.str_`` tokens holds exact ``str``."""

    def test_generated_secret_survives_the_dict_round_trip(self):
        vocabulary = [f"site-{index}.com" for index in range(40)]
        rng = np.random.default_rng(3)
        drawn = list(rng.choice(vocabulary, size=6_000, p=_power_law(40)))
        assert type(drawn[0]) is np.str_
        config = GenerationConfig(budget_percent=5.0, modulus_cap=31)
        from_numpy = WatermarkGenerator(config, rng=9).generate(drawn, secret_value=77)
        from_str = WatermarkGenerator(config, rng=9).generate(
            [str(token) for token in drawn], secret_value=77
        )
        secret = from_numpy.secret
        assert len(secret) > 0
        assert {type(token) for pair in secret.pairs for token in pair.as_tuple()} == {str}
        assert WatermarkSecret.from_dict(secret.to_dict()) == secret
        assert secret.pairs == from_str.secret.pairs
        assert secret.fingerprint() == from_str.secret.fingerprint()
        assert secret.moduli().tolist() == from_str.secret.moduli().tolist()


def _power_law(size: int) -> np.ndarray:
    weights = np.arange(1, size + 1, dtype=float) ** -0.8
    return weights / weights.sum()


class TestFingerprint:
    def test_fingerprint_changes_with_secret(self, secret):
        other = WatermarkSecret.build(
            [pair.as_tuple() for pair in secret.pairs], secret=987654321, modulus_cap=131
        )
        assert secret.fingerprint() != other.fingerprint()

    def test_fingerprint_changes_with_pairs(self, secret):
        other = WatermarkSecret.build(
            [("youtube.com", "instagram.com")], secret=secret.secret, modulus_cap=131
        )
        assert secret.fingerprint() != other.fingerprint()

    def test_fingerprint_stable(self, secret):
        assert secret.fingerprint() == secret.fingerprint()


class TestSerialisation:
    def test_json_roundtrip(self, secret):
        restored = WatermarkSecret.from_json(secret.to_json())
        assert restored.pairs == secret.pairs
        assert restored.secret == secret.secret
        assert restored.modulus_cap == secret.modulus_cap
        assert restored.metadata == secret.metadata

    def test_file_roundtrip(self, secret, tmp_path):
        path = tmp_path / "secret.json"
        secret.save(path)
        assert WatermarkSecret.load(path) == secret

    def test_large_secret_survives_roundtrip(self):
        secret = WatermarkSecret.build([("a", "b")], secret=(1 << 256) - 1, modulus_cap=17)
        assert WatermarkSecret.from_json(secret.to_json()).secret == (1 << 256) - 1

    def test_malformed_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            WatermarkSecret.from_dict({"pairs": [["a", "b"]]})

    @pytest.mark.parametrize(("field", "value"), _MUTATIONS)
    def test_one_field_mutation_raises_a_typed_error(self, secret, field, value):
        """Each mutation of one field of a valid payload fails typed."""
        payload = secret.to_dict()
        if value is _ABSENT:
            del payload[field]
        else:
            payload[field] = value
        with pytest.raises(ReproError) as excinfo:
            WatermarkSecret.from_dict(payload)
        if field in ("pairs", "metadata") and value is not _ABSENT:
            assert repr(field) in str(excinfo.value)

    @pytest.mark.parametrize("payload", [None, [], "secret", 7, [["a", "b"]]])
    def test_non_object_payload_raises_a_typed_error(self, payload):
        with pytest.raises(ConfigurationError, match="not an object"):
            WatermarkSecret.from_dict(payload)

    def test_non_json_text_raises_a_typed_error(self):
        with pytest.raises(ConfigurationError, match="not JSON"):
            WatermarkSecret.from_json("{pairs: nope")

    def test_integral_float_modulus_cap_decodes(self, secret):
        payload = dict(secret.to_dict(), modulus_cap=131.0)
        decoded = WatermarkSecret.from_dict(payload)
        assert decoded == secret
        assert type(decoded.modulus_cap) is int

    def test_tuple_pairs_from_python_callers_decode(self, secret):
        payload = dict(secret.to_dict(), pairs=tuple(tuple(pair) for pair in secret.to_dict()["pairs"]))
        assert WatermarkSecret.from_dict(payload) == secret


class TestModulusCapBound:
    def test_bound_is_frequency_spread(self):
        assert max_modulus_cap([1098, 980, 674, 537, 64, 53, 53]) == 1098 - 53

    def test_degenerate_histograms(self):
        assert max_modulus_cap([10]) == 2
        assert max_modulus_cap([5, 5, 5]) == 2

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            max_modulus_cap([])
