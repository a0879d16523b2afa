"""Cryptographic hashing primitives for FreqyWM.

The paper derives a per-pair modulus ``s_ij`` from a keyed, nested hash::

    s_ij = H(tk_i || H(R || tk_j)) mod z

where ``H`` is a collision-resistant hash (SHA-256 in the paper's
implementation), ``R`` is a high-entropy secret sampled once per
watermark, ``z`` caps the modulus, and ``||`` denotes concatenation. The
nesting makes ``s_ij`` order-sensitive — swapping the pair members yields
an unrelated value — which matters because the pair is stored with its
higher-frequency member first.

This module exposes that construction plus small helpers for serialising
secrets. Everything is pure and deterministic so watermark detection can
recompute exactly the same moduli years later from the stored secret list.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Callable, List, Sequence

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


class PairModulusCache:
    """Memoised ``s_ij`` derivation for one ``(R, z)`` pair.

    The nested construction ``H(tk_i || H(R || tk_j))`` repeats the inner
    hash for every pair sharing the same second member. The cache
    memoises the inner digests per second token, and it has two ways to
    derive outer values:

    * :meth:`upper_triangle` derives every pair of a candidate vocabulary
      in one tight loop (one hash per pair over pre-encoded row prefixes
      and memoised inner digests). This is the vectorized eligibility
      scan's path; it neither reads nor fills the per-pair memo, because
      a vocabulary's moduli live on in its
      :class:`~repro.core.eligibility.PairScanPlan`.
    * :meth:`modulus` derives one pair and memoises the final modulus per
      ordered pair, for callers that look pairs up one at a time and
      repeat them (the eligibility loop past the vectorized scan's size
      cap, stored-secret pairs in detection and leak attribution).

    Values are bit-identical to :func:`pair_modulus` by construction — the
    cache only skips *recomputation*, never changes the arithmetic — which
    is what lets :meth:`repro.core.generator.WatermarkGenerator.generate_many`
    share one cache across a whole batch while staying exactly equal to
    the sequential path.

    Memory stays bounded even when one owner secret is applied to an
    endless stream of *different* vocabularies: past ``max_entries``
    memoised pairs or inner digests the cache resets (epoch-style —
    cheaper and simpler than per-entry LRU, and a workload that overflows
    it has little cross-dataset overlap to lose anyway).

    Parameters
    ----------
    secret:
        The high-entropy watermarking secret ``R``.
    z:
        The modulus cap (must be >= 2, as for :func:`pair_modulus`).
    hash_function:
        Alternative hash, mainly for testing; defaults to SHA-256.
    max_entries:
        Pair-memo or inner-digest count that triggers a reset (``None``
        disables).
    """

    #: Default pair-memo bound (~100 MB of dict at worst).
    DEFAULT_MAX_ENTRIES = 1_000_000

    __slots__ = (
        "secret",
        "z",
        "max_entries",
        "_hash",
        "_inner",
        "_moduli",
        "hits",
        "misses",
        "resets",
    )

    def __init__(
        self,
        secret: int,
        z: int,
        *,
        hash_function: HashFunction = sha256_hash,
        max_entries: "int | None" = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if z < 2:
            raise ValueError(f"modulus cap z must be at least 2, got {z}")
        self.secret = secret
        self.z = z
        self.max_entries = max_entries
        self._hash = hash_function
        self._inner: dict = {}
        self._moduli: dict = {}
        self.hits = 0
        self.misses = 0
        self.resets = 0

    def __len__(self) -> int:
        return len(self._moduli)

    def modulus(self, token_i: str, token_j: str) -> int:
        """``pair_modulus(token_i, token_j, R, z)``, memoised."""
        key = (token_i, token_j)
        value = self._moduli.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        inner = self._inner_digest(token_j)
        outer = self._hash(_encode(token_i) + _FIELD_SEPARATOR + inner)
        value = digest_to_int(outer) % self.z
        if self.max_entries is not None and len(self._moduli) >= self.max_entries:
            self._reset()
        self._moduli[key] = value
        return value

    def upper_triangle(self, tokens: Sequence[str]) -> List[int]:
        """Moduli of every pair ``(tokens[i], tokens[j])`` with ``i < j``.

        Values come in ``np.triu_indices(len(tokens), k=1)`` order (row
        by row) and equal ``pair_modulus(tokens[i], tokens[j], R, z)``.
        Each row prefix ``tk_i || 0x00`` is encoded once and each column's
        inner digest ``H(R || 0x00 || tk_j)`` comes from the inner-digest
        memo, so a pair costs one hash in one loop. The per-pair memo is
        neither read nor filled (see the class docstring).
        """
        if (
            self.max_entries is not None
            and len(self._inner) + len(tokens) > self.max_entries
        ):
            self._reset()
        digests = [self._inner_digest(token) for token in tokens]
        hash_function = self._hash
        z = self.z
        from_bytes = int.from_bytes
        moduli: List[int] = []
        for row, token in enumerate(tokens):
            prefix = _encode(token) + _FIELD_SEPARATOR
            moduli += [
                from_bytes(hash_function(prefix + digest), "big") % z
                for digest in digests[row + 1 :]
            ]
        return moduli

    def _inner_digest(self, token: str) -> bytes:
        """The inner digest ``H(R || 0x00 || token)``, memoised per token."""
        digest = self._inner.get(token)
        if digest is None:
            digest = self._hash(_encode(self.secret) + _FIELD_SEPARATOR + _encode(token))
            self._inner[token] = digest
        return digest

    def _reset(self) -> None:
        """Start a new memo epoch (drop every memoised value)."""
        self._moduli.clear()
        self._inner.clear()
        self.resets += 1

    def matches(self, secret: int, z: int) -> bool:
        """Whether this cache was built for exactly ``(secret, z)``."""
        return self.secret == secret and self.z == z


def keyed_fingerprint(secret: int, *fields: "str | bytes | int") -> str:
    """HMAC-SHA256 fingerprint of ``fields`` under ``secret``.

    Used by the watermark registry and the re-watermarking defence to
    commit to a watermark description without revealing the secret.
    """
    key = _encode(secret)
    message = _FIELD_SEPARATOR.join(_encode(field) for field in fields)
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
    "PairModulusCache",
    "keyed_fingerprint",
    "generate_secret",
]
