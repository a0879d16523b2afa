"""Unit tests for the keyed hash construction behind ``s_ij``."""

from __future__ import annotations

import hashlib
import hmac

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import (
    DEFAULT_SECURITY_BITS,
    _encode,
    digest_to_int,
    generate_secret,
    keyed_fingerprint,
    moduli_of_pairs,
    pair_modulus,
    sha256_hash,
    upper_triangle_rows,
)
from repro.core.secrets import WatermarkSecret
from repro.core.tokens import TokenPair


class TestSha256:
    def test_known_vector(self):
        digest = sha256_hash(b"abc")
        assert digest.hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_digest_to_int_is_big_endian(self):
        assert digest_to_int(b"\x01\x00") == 256


class TestPairModulus:
    def test_deterministic(self):
        a = pair_modulus("youtube.com", "instagram.com", secret=12345, z=131)
        b = pair_modulus("youtube.com", "instagram.com", secret=12345, z=131)
        assert a == b

    def test_range(self):
        for z in (2, 17, 131, 1031):
            value = pair_modulus("a", "b", secret=99, z=z)
            assert 0 <= value < z

    def test_order_sensitive(self):
        forward = pair_modulus("a", "b", secret=7, z=10_000)
        backward = pair_modulus("b", "a", secret=7, z=10_000)
        assert forward != backward

    def test_secret_sensitive(self):
        assert pair_modulus("a", "b", secret=1, z=10_000) != pair_modulus(
            "a", "b", secret=2, z=10_000
        )

    def test_rejects_small_z(self):
        with pytest.raises(ValueError):
            pair_modulus("a", "b", secret=1, z=1)

    def test_concatenation_is_unambiguous(self):
        # "ab" || "c" must not collide with "a" || "bc".
        assert pair_modulus("ab", "c", secret=5, z=1 << 60) != pair_modulus(
            "a", "bc", secret=5, z=1 << 60
        )


class TestSecrets:
    def test_generate_secret_entropy_bits(self):
        secret = generate_secret(64, rng=3)
        assert 0 <= secret < (1 << 64)

    def test_generate_secret_reproducible_with_seed(self):
        assert generate_secret(128, rng=42) == generate_secret(128, rng=42)

    def test_generate_secret_default_bits(self):
        secret = generate_secret()
        assert secret < (1 << DEFAULT_SECURITY_BITS)

    def test_generate_secret_rejects_non_positive_bits(self):
        with pytest.raises(ValueError):
            generate_secret(0)

    def test_os_random_secrets_differ(self):
        assert generate_secret(128) != generate_secret(128)


class TestFingerprint:
    def test_depends_on_key_and_fields(self):
        base = keyed_fingerprint(1, "a", "b")
        assert base != keyed_fingerprint(2, "a", "b")
        assert base != keyed_fingerprint(1, "a", "c")
        assert base == keyed_fingerprint(1, "a", "b")

    def test_hex_string(self):
        fingerprint = keyed_fingerprint(9, "x")
        assert len(fingerprint) == 64
        int(fingerprint, 16)  # must parse as hex

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**300),
        st.lists(
            st.one_of(st.text(), st.integers(), st.booleans(), st.binary()), max_size=12
        ),
    )
    def test_message_is_the_per_field_encoding(self, key, fields):
        # The HMAC of each field's _encode bytes joined by 0x00, whatever
        # mix of field types takes which path.
        message = b"\x00".join(map(_encode, fields))
        expected = hmac.new(_encode(key), message, hashlib.sha256).hexdigest()
        assert keyed_fingerprint(key, *fields) == expected

    def test_secret_fingerprint_golden(self):
        # Vault secret files are named by this digest and ledger records
        # carry it, so it must never change. Pinned before the one-join
        # message; the numpy.str_ tokens take the per-field path and
        # their exact-str copies the one-join path.
        tokens = [
            ("caf\xe9", "na\xefve"),
            ("\u6771\u4eac", "Z\xfcrich"),
            ("plain", "ascii"),
            ("\U0001f600", "x y"),
        ]
        secret_value = (1 << 255) | 0x5EED_F00D_CAFE_BABE_0123_4567_89AB_CDEF
        assert secret_value.bit_length() == 256
        mixed = WatermarkSecret(
            pairs=tuple(
                TokenPair(np.str_(first) if index % 2 == 0 else first, second)
                for index, (first, second) in enumerate(tokens)
            ),
            secret=secret_value,
            modulus_cap=131,
        )
        assert type(mixed.pairs[0].first) is np.str_
        exact = WatermarkSecret.build(tokens, secret_value, 131)
        golden = "6971809af39a58119cbaacfe44a354696085c6144a6ac788a2864177330dad08"
        assert mixed.fingerprint() == golden
        assert exact.fingerprint() == golden


_tokens = st.lists(st.text(max_size=6), min_size=2, max_size=8, unique=True)


class TestBulkDerivation:
    """The one bulk derivation is bit-identical to :func:`pair_modulus`."""

    @settings(max_examples=60, deadline=None)
    @given(
        tokens=_tokens,
        secret=st.integers(min_value=0, max_value=2**256 - 1),
        z=st.integers(min_value=2, max_value=2**63 - 1),
        data=st.data(),
    )
    def test_moduli_match_the_spec(self, tokens, secret, z, data):
        chosen = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=len(tokens) - 1),
                    st.integers(min_value=0, max_value=len(tokens) - 1),
                ).filter(lambda pair: pair[0] != pair[1]),
                min_size=1,
                max_size=6,
            )
        )
        watermark = WatermarkSecret.build(
            [(tokens[i], tokens[j]) for i, j in chosen], secret, z
        )
        moduli = watermark.moduli()
        assert moduli.dtype == np.int64
        assert moduli.tolist() == [
            pair_modulus(pair.first, pair.second, secret, z) for pair in watermark.pairs
        ]
        first, second = np.triu_indices(len(tokens), k=1)
        rows = upper_triangle_rows(tokens, secret, z)
        assert [value for row in rows for value in row] == [
            pair_modulus(tokens[i], tokens[j], secret, z)
            for i, j in zip(first.tolist(), second.tolist())
        ]

    def test_empty_and_non_ascii_tokens(self):
        # 74 UTF-8 bytes of multi-byte characters: first in the reversed
        # order, its row's primed prefix ``tk_i || 0x00`` spans a SHA-256
        # block.
        long_token = "日本語のトークン" * 3 + "é"
        assert len(long_token.encode()) >= 64
        tokens = ["", "é", "日本", "a\x00b", long_token]
        moduli = moduli_of_pairs(
            [TokenPair(left, right) for left in tokens for right in tokens if left != right],
            2**255 + 1,
            2**63 - 1,
        )
        assert moduli.tolist() == [
            pair_modulus(left, right, 2**255 + 1, 2**63 - 1)
            for left in tokens
            for right in tokens
            if left != right
        ]
        for order in (tokens, tokens[::-1]):
            rows = upper_triangle_rows(order, 2**255 + 1, 2**63 - 1)
            assert list(rows) == [
                [pair_modulus(order[i], right, 2**255 + 1, 2**63 - 1) for right in order[i + 1 :]]
                for i in range(len(order))
            ]
