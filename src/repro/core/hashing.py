"""Cryptographic hashing primitives for FreqyWM.

The paper derives a per-pair modulus ``s_ij`` from a keyed, nested hash::

    s_ij = H(tk_i || H(R || tk_j)) mod z

where ``H`` is a collision-resistant hash (SHA-256 in the paper's
implementation), ``R`` is a high-entropy secret sampled once per
watermark, ``z`` caps the modulus, and ``||`` denotes concatenation. The
nesting makes ``s_ij`` order-sensitive — swapping the pair members yields
an unrelated value — which matters because the pair is stored with its
higher-frequency member first.

This module exposes that construction in two forms. :func:`pair_modulus`
derives one pair and is the executable spec. :func:`moduli_of_pairs` (a
secret's stored pairs) and :func:`upper_triangle_rows` (every pair of a
candidate vocabulary) derive many at once, hashing each token's inner
digest ``H(R || tk_j)`` once. Everything is pure and deterministic so
watermark detection can recompute exactly the same moduli years later
from the stored secret list.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Callable, Iterable, Iterator, List, Sequence

import numpy as np

from repro.core.tokens import TokenPair

#: Security parameter (output bits of the hash) used throughout the paper.
DEFAULT_SECURITY_BITS = 256

#: Byte used to separate fields before hashing so that concatenation is
#: unambiguous (``"ab" || "c"`` cannot collide with ``"a" || "bc"``).
_FIELD_SEPARATOR = b"\x00"

HashFunction = Callable[[bytes], bytes]


def sha256_hash(data: bytes) -> bytes:
    """SHA-256 digest of ``data`` — the paper's instantiation of ``H``."""
    return hashlib.sha256(data).digest()


def _encode(value: "str | bytes | int") -> bytes:
    """Encode a secret component or token into bytes for hashing."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, int):
        # Fixed-width little-endian-free encoding: decimal string keeps the
        # construction readable and portable across platforms.
        return str(value).encode("ascii")
    raise TypeError(f"cannot encode {type(value)!r} for hashing")


def digest_to_int(digest: bytes) -> int:
    """Interpret a hash digest as a non-negative big-endian integer."""
    return int.from_bytes(digest, "big")


def pair_modulus(
    token_i: str,
    token_j: str,
    secret: int,
    z: int,
    *,
    hash_function: HashFunction = sha256_hash,
) -> int:
    """Compute ``s_ij = H(tk_i || H(R || tk_j)) mod z``.

    Parameters
    ----------
    token_i, token_j:
        Canonical token strings; ``token_i`` is the higher-frequency member
        of the pair by convention.
    secret:
        The high-entropy watermarking secret ``R`` as an integer.
    z:
        Upper cap on the modulus; the result lies in ``[0, z)``. Values of
        0 or 1 returned here make the pair unusable (modulo 0 is undefined
        and everything is congruent mod 1), which the eligibility stage
        filters out.
    hash_function:
        Alternative hash, mainly for testing; defaults to SHA-256.
    """
    if z < 2:
        raise ValueError(f"modulus cap z must be at least 2, got {z}")
    inner = hash_function(_encode(secret) + _FIELD_SEPARATOR + _encode(token_j))
    outer = hash_function(_encode(token_i) + _FIELD_SEPARATOR + inner)
    return digest_to_int(outer) % z


def _inner_digests(secret: int, tokens: Iterable[str]) -> List[bytes]:
    """The inner digest ``H(R || 0x00 || tk)`` of each token string, in order."""
    prefix = _encode(secret) + _FIELD_SEPARATOR
    sha256 = hashlib.sha256
    return [sha256(prefix + token.encode()).digest() for token in tokens]


def moduli_of_pairs(pairs: Sequence[TokenPair], secret: int, z: int) -> np.ndarray:
    """``pair_modulus(p.first, p.second, R, z)`` of each pair, as ``int64``.

    Each second member's inner digest is hashed once, then each pair
    costs one outer hash, so a secret's moduli take one tight pass.
    :meth:`repro.core.secrets.WatermarkSecret.moduli` is the one caller:
    every other reader takes the array from the secret's memo. ``z``
    must lie in ``[2,`` :data:`~repro.core.config.MAX_MODULUS_CAP` ``]``
    so every value fits ``int64``; the secret checks that when it is
    built.
    """
    digests = _inner_digests(secret, [pair.second for pair in pairs])
    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    separator = _FIELD_SEPARATOR
    return np.array(
        [
            from_bytes(sha256(pair.first.encode() + separator + digest).digest(), "big") % z
            for pair, digest in zip(pairs, digests)
        ],
        dtype=np.int64,
    )


def upper_triangle_rows(tokens: Sequence[str], secret: int, z: int) -> Iterator[List[int]]:
    """Moduli of every pair ``(tokens[i], tokens[j])`` with ``i < j``, by row.

    Row ``i`` holds ``pair_modulus(tokens[i], tokens[j], R, z)`` for
    ``j = i + 1, ..., n - 1``, so the rows laid end to end come in
    ``np.triu_indices(n, k=1)`` order. Each token's inner digest is
    hashed once. Each row primes one SHA-256 state with its prefix
    ``tk_i || 0x00``, and each pair hashes its inner digest into a
    ``.copy()`` of that state, so a pair costs one hash update and no
    concatenation. Only one row is held at a time. The eligibility scan
    is the one caller.
    """
    digests = _inner_digests(secret, tokens)
    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    for row, token in enumerate(tokens):
        primed = sha256(token.encode() + _FIELD_SEPARATOR).copy
        moduli = []
        append = moduli.append
        for digest in digests[row + 1 :]:
            state = primed()
            state.update(digest)
            append(from_bytes(state.digest(), "big") % z)
        yield moduli


def keyed_fingerprint(secret: int, *fields: "str | bytes | int") -> str:
    """HMAC-SHA256 fingerprint of ``fields`` under ``secret``.

    Used by the watermark registry and the re-watermarking defence to
    commit to a watermark description without revealing the secret.
    The message is each field's :func:`_encode` bytes joined by
    ``0x00``. When every field is an exact ``str`` or ``int`` it is
    built in one join of their ``str`` forms: UTF-8 encoding commutes
    with concatenation and a decimal integer is ASCII, so the bytes are
    the same. Fingerprints are content addresses in the vault, so they
    must never change.
    """
    key = _encode(secret)
    if set(map(type, fields)) <= {str, int}:
        message = "\x00".join(map(str, fields)).encode("utf-8")
    else:
        message = _FIELD_SEPARATOR.join(map(_encode, fields))
    return hmac.new(key, message, hashlib.sha256).hexdigest()


def generate_secret(bits: int = DEFAULT_SECURITY_BITS, *, rng=None) -> int:
    """Sample the high-entropy secret ``R`` with ``bits`` bits of entropy.

    With ``rng=None`` the OS CSPRNG is used (the secure default). Passing a
    seed or :class:`numpy.random.Generator` produces a reproducible secret,
    which the experiments rely on; this trades cryptographic strength for
    reproducibility and must not be used to protect real datasets.
    """
    if bits <= 0:
        raise ValueError("secret size in bits must be positive")
    if rng is None:
        import secrets as _secrets

        return _secrets.randbits(bits)
    from repro.utils.rng import random_bigint

    return random_bigint(rng, bits)


__all__ = [
    "DEFAULT_SECURITY_BITS",
    "HashFunction",
    "sha256_hash",
    "digest_to_int",
    "pair_modulus",
    "moduli_of_pairs",
    "upper_triangle_rows",
    "keyed_fingerprint",
    "generate_secret",
]
