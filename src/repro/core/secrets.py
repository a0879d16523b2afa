"""Watermarking secrets: the list ``L_sc = {L_wm, R, z}``.

Watermark generation outputs, besides the watermarked dataset, a secret
list that the owner must store to later prove ownership:

* ``L_wm`` — the ordered list of watermarked token pairs,
* ``R``    — the high-entropy secret used inside the hash,
* ``z``    — the modulus cap.

Detection replays the hash construction over the stored pairs, so the
secret must serialise losslessly; this module provides a dataclass with
JSON (de)serialisation, plus a commitment fingerprint that can be lodged
in the watermark registry (the paper's immutable index) without revealing
the secret itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, starmap
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.core.config import MAX_MODULUS_CAP
from repro.core.hashing import keyed_fingerprint, moduli_of_pairs
from repro.core.tokens import TokenPair, as_token_pair
from repro.exceptions import ConfigurationError

#: What ``pairs`` and each pair in it may be: a JSON list, or a tuple
#: from an in-process caller.
_PAIR_TYPES = frozenset({list, tuple})


def _decode_pairs(raw_pairs: object) -> Tuple[TokenPair, ...]:
    """A secret payload's ``pairs`` as token pairs, or a typed error.

    The type checks are C-level passes: a vault decodes thousands of
    secrets when it opens.
    """
    if (
        type(raw_pairs) in _PAIR_TYPES
        and set(map(type, raw_pairs)) <= _PAIR_TYPES
        and set(map(len, raw_pairs)) <= {2}
        and set(map(type, chain.from_iterable(raw_pairs))) <= {str}
    ):
        try:
            return tuple(starmap(TokenPair, raw_pairs))
        except ValueError:  # TokenPair rejects a repeated token
            pass
    raise ConfigurationError(
        "malformed watermark secret payload: 'pairs' must be a list of "
        "[first, second] lists of two distinct token strings"
    )


@dataclass(frozen=True)
class WatermarkSecret:
    """The owner's secret list ``L_sc`` produced by watermark generation.

    Attributes
    ----------
    pairs:
        The watermarked token pairs ``L_wm`` in selection order; each pair
        stores its higher-frequency member first.
    secret:
        The high-entropy integer secret ``R``.
    modulus_cap:
        The integer ``z`` that caps every per-pair modulus ``s_ij``.
    metadata:
        Free-form provenance information (owner id, buyer id, creation
        round, original dataset size) carried along for registry lookups;
        it plays no role in detection itself.
    """

    pairs: Tuple[TokenPair, ...]
    secret: int
    modulus_cap: int
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (
            isinstance(self.modulus_cap, int)
            and 2 <= self.modulus_cap <= MAX_MODULUS_CAP
        ):
            raise ConfigurationError(
                f"modulus cap z must be an integer in [2, 2**63 - 1], "
                f"got {self.modulus_cap!r}"
            )
        if self.secret < 0:
            raise ConfigurationError("secret R must be a non-negative integer")

    # ------------------------------------------------------------------ #
    # Derived values
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.pairs)

    def moduli(self) -> np.ndarray:
        """``s_ij`` of every stored pair, in pair order, as read-only ``int64``.

        The moduli are a pure function of the secret, so they are
        derived once (:func:`~repro.core.hashing.moduli_of_pairs`) and
        memoised per instance: every detector, index posting and
        many-secrets pass built from this secret reads the same array.
        The memo is never pickled or written to disk; a stored modulus
        could be stale or tampered, and would then hide a buyer from
        attribution without any error.
        """
        cached = self.__dict__.get("_moduli")
        if cached is not None:
            return cached
        value = moduli_of_pairs(self.pairs, self.secret, self.modulus_cap)
        value.flags.writeable = False
        object.__setattr__(self, "_moduli", value)
        return value

    def fingerprint(self) -> str:
        """Keyed commitment to this watermark (pairs + parameters).

        Two different watermarks (different pairs, secret, or modulus cap)
        produce different fingerprints except with negligible probability,
        while the fingerprint reveals nothing about the pairs to a party
        that does not hold ``R``. Memoised per instance: the detection
        service computes it on every cache lookup.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        fields: List[Union[str, int]] = [self.modulus_cap, len(self.pairs)]
        for pair in self.pairs:
            fields.append(pair.first)
            fields.append(pair.second)
        value = keyed_fingerprint(self.secret, *fields)
        object.__setattr__(self, "_fingerprint", value)
        return value

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> Dict[str, object]:
        """Pickle only the secret material, dropping the memos.

        The memoised HMAC fingerprint and moduli, and the blob digest a
        sharded sweep memoises (:func:`repro.core.batch.dispatch_detection`),
        are pure derived state; shipping them across a process boundary
        would bloat every :class:`~repro.core.generator.WatermarkResult`
        payload for values the receiver can recompute lazily.
        """
        return {
            "pairs": self.pairs,
            "secret": self.secret,
            "modulus_cap": self.modulus_cap,
            "metadata": self.metadata,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation of the secret list."""
        return {
            "version": 1,
            "pairs": [[pair.first, pair.second] for pair in self.pairs],
            "secret": str(self.secret),
            "modulus_cap": self.modulus_cap,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "WatermarkSecret":
        """Rebuild a secret list from :meth:`to_dict` output.

        A malformed payload raises :class:`ConfigurationError`, never a
        raw ``TypeError`` or ``ValueError``. ``pairs`` must be a list of
        ``[first, second]`` lists of two distinct token strings and
        ``metadata``, when present, an object; their errors name the
        field. ``modulus_cap`` must be a JSON integer (an integral float
        such as ``131.0`` is one): ``int()`` would read ``131.9`` or
        ``"131"`` as 131, and a different ``z`` derives different moduli.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                "malformed watermark secret payload: not an object"
            )
        try:
            raw_pairs = payload["pairs"]
            secret = int(str(payload["secret"]))
            modulus_cap = payload["modulus_cap"]
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise ConfigurationError(f"malformed watermark secret payload: {exc}") from exc
        if type(modulus_cap) is float and modulus_cap.is_integer():
            modulus_cap = int(modulus_cap)
        if type(modulus_cap) is not int:
            raise ConfigurationError(
                "malformed watermark secret payload: 'modulus_cap' must be "
                f"an integer, got {type(modulus_cap).__name__}"
            )
        metadata = payload.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ConfigurationError(
                "malformed watermark secret payload: 'metadata' must be an object"
            )
        return cls(
            pairs=_decode_pairs(raw_pairs),
            secret=secret,
            modulus_cap=modulus_cap,
            metadata=dict(metadata),
        )

    def to_json(self, *, indent: int = 2) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WatermarkSecret":
        """Deserialise from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(
                f"malformed watermark secret: not JSON ({exc})"
            ) from exc
        return cls.from_dict(payload)

    def save(self, path: Union[str, Path]) -> None:
        """Write the secret list to ``path`` as JSON."""
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "WatermarkSecret":
        """Read a secret list previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        pairs: Iterable[Union[TokenPair, Tuple[str, str]]],
        secret: int,
        modulus_cap: int,
        **metadata: object,
    ) -> "WatermarkSecret":
        """Build a secret list coercing plain tuples into :class:`TokenPair`."""
        return cls(
            pairs=tuple(as_token_pair(pair) for pair in pairs),
            secret=secret,
            modulus_cap=modulus_cap,
            metadata=dict(metadata),
        )

    def with_metadata(self, **metadata: object) -> "WatermarkSecret":
        """Return a copy with additional metadata entries."""
        merged = dict(self.metadata)
        merged.update(metadata)
        return WatermarkSecret(
            pairs=self.pairs,
            secret=self.secret,
            modulus_cap=self.modulus_cap,
            metadata=merged,
        )


def max_modulus_cap(frequencies: Sequence[int]) -> int:
    """Upper bound ``r_max`` on the modulus cap ``z`` for a histogram.

    Section IV-A1: the largest useful remainder for any pair is the gap
    between the most and least frequent tokens, so ``z`` should be chosen
    from ``(2, r_max)``. For degenerate histograms (a single token, or all
    counts equal) the bound collapses and 2 is returned.
    """
    if not frequencies:
        raise ConfigurationError("cannot bound z for an empty histogram")
    spread = max(frequencies) - min(frequencies)
    return max(2, spread)


__all__ = ["WatermarkSecret", "max_modulus_cap"]
