"""Unit tests for the watermark secret list (L_sc) and its serialisation."""

from __future__ import annotations

import pytest

from repro.core.secrets import WatermarkSecret, max_modulus_cap
from repro.core.tokens import TokenPair
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
        for modulus in secret.pair_moduli().values():
            assert 0 <= modulus < 131

    def test_pair_moduli_deterministic(self, secret):
        assert secret.pair_moduli() == secret.pair_moduli()


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
