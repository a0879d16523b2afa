"""Watermark registry — the paper's "immutable index" for buyer tracing.

The introduction sketches a leak-tracing workflow: a seller (or data
marketplace) creates a *different* watermark for every buyer, stores a
description of each watermark in an immutable index (the paper suggests a
blockchain), and when an unauthorised copy surfaces, looks it up against
the index to identify the leaking buyer.

This module provides that index as a hash-chained, append-only ledger of
watermark *fingerprints* (keyed commitments — the secrets themselves never
enter the registry), plus the lookup that runs detection with each
registered secret to attribute a leaked copy. The hash chain makes
after-the-fact tampering evident, which is the property the blockchain was
buying; persistence is plain JSON so the registry can be shared or
audited.

Revocation stays append-only: revoking a buyer appends a chained entry
whose metadata carries ``action: "revoke"`` (absent means register), so
the public ledger never rewrites history while the private vault and the
candidate index drop the secret immediately.

Attribution is sublinear in vault size: a
:class:`~repro.dispute.index.CandidateIndex` screen first prunes the
vault to a candidate set, and only the candidates go through the exact
stacked :func:`~repro.core.batch.detect_many_secrets` confirmation.
Verdicts are identical to screening the whole vault (parity-tested);
the million-secret scaling story lives in ``docs/registry.md``. The
index is built from the active secrets the first time a screen or
:meth:`WatermarkRegistry.index_stats` reads it; after that, register
and revoke keep it current in place. Detect, register and revoke never
read it, so a vault that is only replayed derives no moduli.

:class:`RegistryEntry` ``to_dict`` / ``from_dict`` is the one ledger
record codec: the public ledger export, the on-disk vault's
``ledger.jsonl`` (:class:`repro.dispute.vault.SecretVault`, a subclass
that makes each entry durable before it takes effect) and
:meth:`WatermarkRegistry.verify_exported_ledger` all read and write it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.batch import detect_many_secrets
from repro.core.config import DetectionConfig
from repro.core.detector import SuspectData, suspect_counts
from repro.core.secrets import WatermarkSecret
from repro.dispute.index import CandidateIndex, CandidateScreen, IndexStats
from repro.exceptions import DisputeError
from repro.obs.trace import span as trace_span

_GENESIS = "0" * 64

#: Metadata key distinguishing revocation entries on the chain; register
#: entries omit it, so pre-revocation ledgers verify unchanged.
ACTION_KEY = "action"
ACTION_REVOKE = "revoke"


def _check_metadata(metadata: Dict[str, object]) -> None:
    """Reject caller metadata that claims the ledger's reserved key."""
    if ACTION_KEY in metadata:
        raise DisputeError(f"metadata key {ACTION_KEY!r} is reserved for the ledger")


#: Each ledger record field, in record order, with its JSON kind.
_RECORD_KINDS = {
    "index": (int, "an integer"),
    "buyer_id": (str, "a string"),
    "fingerprint": (str, "a string"),
    "metadata": (dict, "an object"),
    "previous_hash": (str, "a string"),
    "entry_hash": (str, "a string"),
}


@dataclass(frozen=True)
class RegistryEntry:
    """One registered watermark: who it was issued to and its commitment."""

    index: int
    buyer_id: str
    fingerprint: str
    metadata: Dict[str, object]
    previous_hash: str
    entry_hash: str

    @property
    def action(self) -> str:
        """``"register"`` or ``"revoke"`` (from the metadata marker)."""
        return str(self.metadata.get(ACTION_KEY, "register"))

    @staticmethod
    def compute_hash(
        index: int,
        buyer_id: str,
        fingerprint: str,
        metadata: Dict[str, object],
        previous_hash: str,
    ) -> str:
        """Deterministic hash binding the entry to its predecessor."""
        payload = json.dumps(
            {
                "index": index,
                "buyer_id": buyer_id,
                "fingerprint": fingerprint,
                "metadata": metadata,
                "previous_hash": previous_hash,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        """The public ledger record of this entry (JSON-serialisable)."""
        return {name: getattr(self, name) for name in _RECORD_KINDS}

    @classmethod
    def from_dict(cls, record: object) -> "RegistryEntry":
        """Decode one ledger record, checking each field's JSON kind.

        A record that is not an object, or a missing, unknown or wrongly
        typed field (a boolean is not an ``index``), raises
        :class:`~repro.exceptions.DisputeError` naming the field. The
        chain is not checked here.
        """
        if type(record) is not dict:
            raise DisputeError(f"ledger record must be an object, got {type(record).__name__}")
        unknown = sorted(map(str, record.keys() - _RECORD_KINDS.keys()))
        if unknown:
            raise DisputeError(f"ledger record has unknown field(s) {unknown}")
        for name, (kind, expects) in _RECORD_KINDS.items():
            if name not in record:
                raise DisputeError(f"ledger record is missing field {name!r}")
            if not isinstance(record[name], kind) or isinstance(record[name], bool):
                raise DisputeError(
                    f"ledger record field {name!r} must be {expects}, "
                    f"got {type(record[name]).__name__}"
                )
        if not all(isinstance(key, str) for key in record["metadata"]):
            raise DisputeError("ledger record field 'metadata' must have string keys")
        return cls(**record)


def _chain_valid(entries: Iterable[RegistryEntry]) -> bool:
    """Whether ``entries`` form an unbroken hash chain from genesis."""
    previous_hash = _GENESIS
    for index, entry in enumerate(entries):
        expected = RegistryEntry.compute_hash(
            index, entry.buyer_id, entry.fingerprint, entry.metadata, previous_hash
        )
        if entry.index != index or entry.previous_hash != previous_hash:
            return False
        if entry.entry_hash != expected:
            return False
        previous_hash = entry.entry_hash
    return True


@dataclass(frozen=True)
class AttributionStats:
    """How the last :meth:`WatermarkRegistry.attribute_leak` call ran.

    Attributes
    ----------
    mode:
        The index screen mode — ``"empty"`` or ``"index"`` (see
        :class:`~repro.dispute.index.CandidateScreen`).
    candidates:
        Secrets that survived the screen and went to exact confirmation.
    active_secrets:
        Registered-and-not-revoked secrets at screen time.
    buckets_screened / buckets_accepted:
        Vectorized bucket-pass counters from the screen.
    matches:
        Buyers the exact confirmation accepted.
    """

    mode: str
    candidates: int
    active_secrets: int
    buckets_screened: int
    buckets_accepted: int
    matches: int

    @classmethod
    def from_screen(cls, screen: CandidateScreen, matches: int) -> "AttributionStats":
        """Fold an index screen plus the confirmed match count."""
        return cls(
            mode=screen.mode,
            candidates=len(screen.rows),
            active_secrets=screen.active_secrets,
            buckets_screened=screen.buckets_screened,
            buckets_accepted=screen.buckets_accepted,
            matches=matches,
        )


class WatermarkRegistry:
    """Append-only, hash-chained index of issued watermarks.

    The registry stores only fingerprints; the seller keeps the full
    secrets privately (``secrets_vault``) so leak attribution can re-run
    detection. Splitting the two mirrors the paper's intent: the public
    index proves *when* a watermark was issued and to whom, without
    revealing anything that helps an attacker find or remove it.

    Every new entry passes through one persistence step,
    :meth:`_persist`, before it takes effect in memory. Here that step
    does nothing; :class:`~repro.dispute.vault.SecretVault` makes it a
    durable ledger append.
    """

    def __init__(self) -> None:
        self._entries: List[RegistryEntry] = []
        self._vault: Dict[str, WatermarkSecret] = {}
        self._rows: Dict[str, int] = {}
        self._row_buyers: Dict[int, str] = {}
        self._next_row = 0
        # Built on first read (see _candidate_index); None until then.
        self._index: Optional[CandidateIndex] = None
        self.last_attribution: Optional[AttributionStats] = None

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> Tuple[RegistryEntry, ...]:
        """All chained entries (registrations and revocations) in order."""
        return tuple(self._entries)

    @property
    def active_buyers(self) -> Tuple[str, ...]:
        """Buyers currently holding a registered (unrevoked) watermark."""
        return tuple(self._vault)

    def _persist(self, entry: RegistryEntry) -> None:
        """Make ``entry`` durable before it takes effect (in memory: nothing)."""

    def _check_registrable(self, buyer_id: str, metadata: Dict[str, object]) -> None:
        """Reject a duplicate buyer or the reserved metadata key."""
        if buyer_id in self._vault:
            raise DisputeError(f"buyer {buyer_id!r} already has a registered watermark")
        _check_metadata(metadata)

    def _append_entry(
        self, buyer_id: str, fingerprint: str, metadata: Dict[str, object]
    ) -> RegistryEntry:
        """Chain one entry onto the ledger (persisted first)."""
        previous_hash = self._entries[-1].entry_hash if self._entries else _GENESIS
        index = len(self._entries)
        entry_hash = RegistryEntry.compute_hash(
            index, buyer_id, fingerprint, metadata, previous_hash
        )
        entry = RegistryEntry(
            index=index,
            buyer_id=buyer_id,
            fingerprint=fingerprint,
            metadata=metadata,
            previous_hash=previous_hash,
            entry_hash=entry_hash,
        )
        self._persist(entry)
        self._entries.append(entry)
        return entry

    def register(
        self,
        buyer_id: str,
        secret: WatermarkSecret,
        /,
        **metadata: object,
    ) -> RegistryEntry:
        """Register the watermark issued to ``buyer_id``.

        The secret itself goes into the private vault (and, once the
        candidate index has been built, its pair buckets into the
        index); only its keyed fingerprint enters the chained public
        entry. Before the first screen nothing derives the secret's
        moduli. A buyer whose watermark was revoked may register a
        fresh one.
        """
        self._check_registrable(buyer_id, metadata)
        entry = self._append_entry(buyer_id, secret.fingerprint(), dict(metadata))
        row = self._next_row
        self._next_row += 1
        if self._index is not None:
            self._index.add(row, secret)
        self._vault[buyer_id] = secret
        self._rows[buyer_id] = row
        self._row_buyers[row] = buyer_id
        return entry

    def revoke(self, buyer_id: str, /, **metadata: object) -> RegistryEntry:
        """Revoke ``buyer_id``'s watermark, appending a chained entry.

        The ledger stays append-only (the registration entry is never
        rewritten); the secret leaves the private vault and the candidate
        index immediately, so attribution can never return a revoked
        buyer again.
        """
        secret = self.secret_for(buyer_id)
        _check_metadata(metadata)
        entry_metadata = dict(metadata)
        entry_metadata[ACTION_KEY] = ACTION_REVOKE
        entry = self._append_entry(buyer_id, secret.fingerprint(), entry_metadata)
        row = self._rows.pop(buyer_id)
        del self._row_buyers[row]
        del self._vault[buyer_id]
        if self._index is not None:
            self._index.remove(row)
        return entry

    def secret_for(self, buyer_id: str) -> WatermarkSecret:
        """The privately held secret issued to ``buyer_id``."""
        try:
            return self._vault[buyer_id]
        except KeyError:
            raise DisputeError(f"no watermark registered for buyer {buyer_id!r}") from None

    # ------------------------------------------------------------------ #
    # Integrity and lookup
    # ------------------------------------------------------------------ #

    def verify_chain(self) -> bool:
        """Check the hash chain: any tampered entry breaks verification."""
        return _chain_valid(self._entries)

    def _candidate_index(self) -> CandidateIndex:
        """The candidate index, built on the first call.

        The build posts every active secret in row order (deriving each
        one's moduli) inside one ``dispute.index_build`` span; register
        and revoke keep the built index current.
        """
        if self._index is None:
            with trace_span("dispute.index_build") as stage:
                index = CandidateIndex()
                for row, buyer_id in self._row_buyers.items():
                    index.add(row, self._vault[buyer_id])
                if stage.recording:
                    stage.set_attribute("secrets", len(index))
            self._index = index
        return self._index

    def attribute_leak(
        self,
        data: SuspectData,
        *,
        detection: Optional[DetectionConfig] = None,
    ) -> List[Tuple[str, float]]:
        """Identify which buyer's watermark a leaked copy carries.

        ``data`` is a token sequence, a token->count mapping (checked
        once, then read only at the index's and the candidates' tokens)
        or a :class:`~repro.core.histogram.TokenHistogram`.

        Runs in two stages. A :class:`~repro.dispute.index.CandidateIndex`
        screen first prunes the vault to a candidate set — one vectorized
        pass over the distinct token-pair modulus buckets, sublinear in
        vault size. The first screen builds the index, deriving each
        active secret's moduli once. The candidates then go through the
        exact stacked :func:`repro.core.batch.detect_many_secrets`
        confirmation. The vault holds each registered secret object, so
        the confirmation reads the moduli its index posting derived and
        hashes nothing.

        Returns the buyers whose watermark verifies, sorted by decreasing
        accepted-pair fraction (the strongest match first). Verdicts are
        identical to screening every registered secret without the index
        (regression-tested); :attr:`last_attribution` records how much
        the screen pruned.
        """
        detection_config = detection or DetectionConfig(pair_threshold=1)
        counts = suspect_counts(data)
        with trace_span("dispute.screen") as stage:
            screen = self._candidate_index().screen(counts, detection_config)
            if stage.recording:
                stage.set_attribute("candidates", len(screen.rows))
                stage.set_attribute("active", screen.active_secrets)
        buyer_ids = [self._row_buyers[row] for row in screen.rows]
        with trace_span("dispute.confirm"):
            results = detect_many_secrets(
                counts, [self._vault[buyer_id] for buyer_id in buyer_ids], detection_config
            )
        matches: List[Tuple[str, float]] = [
            (buyer_id, result.accepted_fraction)
            for buyer_id, result in zip(buyer_ids, results)
            if result.accepted
        ]
        matches.sort(key=lambda item: (-item[1], item[0]))
        self.last_attribution = AttributionStats.from_screen(screen, len(matches))
        return matches

    def index_stats(self) -> IndexStats:
        """Structural counters of the candidate-pruning index (built
        here if no screen has built it yet)."""
        return self._candidate_index().stats()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def export_public_ledger(self) -> List[Dict[str, object]]:
        """Serialisable public view (fingerprints only, no secrets)."""
        return [entry.to_dict() for entry in self._entries]

    def save_public_ledger(self, path: Union[str, Path]) -> None:
        """Write the public ledger to ``path`` as JSON."""
        Path(path).write_text(
            json.dumps(self.export_public_ledger(), indent=2), encoding="utf-8"
        )

    @staticmethod
    def verify_exported_ledger(entries: Sequence[Dict[str, object]]) -> bool:
        """Verify the hash chain of an exported public ledger.

        ``False`` for a broken chain, and for any record
        :meth:`RegistryEntry.from_dict` rejects instead of raising.
        """
        if not isinstance(entries, (list, tuple)):
            return False
        try:
            decoded = [RegistryEntry.from_dict(record) for record in entries]
        except DisputeError:
            return False
        return _chain_valid(decoded)


__all__ = ["AttributionStats", "RegistryEntry", "WatermarkRegistry"]
