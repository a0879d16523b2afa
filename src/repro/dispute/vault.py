"""Persistent multi-tenant secret vault backing the watermark registry.

:class:`~repro.dispute.registry.WatermarkRegistry` is in-memory; a data
marketplace needs its buyer vault to survive restarts. This module keeps
the registry semantics (hash-chained ledger, candidate-index attribution,
revocation) and adds a crash-safe on-disk layout reusing the experiment
run cache's conventions (:mod:`repro.experiments.cache`):

``VAULT_DIR/secrets/<fingerprint>.json``
    One content-addressed file per secret (the
    :meth:`~repro.core.secrets.WatermarkSecret.to_dict` payload), written
    atomically — a temp file in the same directory then ``os.replace`` —
    exactly like the run cache's artifacts. Content addressing by the
    keyed fingerprint dedupes re-registrations of the same watermark.

``VAULT_DIR/ledger.jsonl``
    The append-only hash-chained ledger, one JSON record per line
    (``seq``/``action``/``buyer_id``/``fingerprint``/``metadata``/
    ``previous_hash``/``entry_hash``). Appending one line is O(1) per
    registration — the file is never rewritten.

**Crash atomicity.** A registration writes the secret file *first* and
appends the ledger line *second*. A crash between the two leaves an
orphan secret file that no ledger record references: reload ignores it,
so a half-finished registration contributes **no** vault entry and **no**
index posting (the atomic-write contract the tests pin down). A crash
mid-append leaves a torn final line, which reload truncates away; torn
or tampered records anywhere *before* the tail are an integrity error,
not a repair.

Reloading replays the ledger through an in-memory
:class:`~repro.dispute.registry.WatermarkRegistry`, which rebuilds the
candidate index incrementally — register adds the secret's pair-modulus
buckets, revoke withdraws them — so attribution over a reopened vault is
immediately index-backed.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.cache import CacheStats
from repro.core.config import DetectionConfig
from repro.core.detector import SuspectData
from repro.core.secrets import WatermarkSecret
from repro.dispute.index import DEFAULT_GROUP_TEST_THRESHOLD, IndexStats
from repro.dispute.registry import (
    ACTION_KEY,
    ACTION_REVOKE,
    AttributionStats,
    RegistryEntry,
    WatermarkRegistry,
)
from repro.exceptions import DisputeError

_GENESIS = "0" * 64

#: Fields of one ledger record, in the order they are documented.
_RECORD_FIELDS = (
    "seq",
    "action",
    "buyer_id",
    "fingerprint",
    "metadata",
    "previous_hash",
    "entry_hash",
)

ACTION_REGISTER = "register"


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically within its directory."""
    temp = path.with_name(path.name + ".tmp")
    temp.write_text(text, encoding="utf-8")
    os.replace(temp, path)


def _record_hash(record: Dict[str, object]) -> str:
    """Chained hash of one ledger record (all fields but ``entry_hash``)."""
    payload = json.dumps(
        {key: record[key] for key in _RECORD_FIELDS if key != "entry_hash"},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SecretVault:
    """On-disk, crash-safe watermark vault with index-backed attribution.

    Opening a vault directory creates it (and the layout above) when
    missing, or replays the existing ledger. The public API mirrors
    :class:`~repro.dispute.registry.WatermarkRegistry` — ``register`` /
    ``revoke`` / ``attribute_leak`` / ``secret_for`` — with every
    mutation durably appended before it takes effect in memory, so the
    detection service can treat either implementation as its registry.

    Parameters
    ----------
    directory:
        The vault root (created if absent).
    group_test_threshold:
        Forwarded to the in-memory registry's candidate index.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        group_test_threshold: int = DEFAULT_GROUP_TEST_THRESHOLD,
    ) -> None:
        self.directory = Path(directory)
        self.secrets_dir = self.directory / "secrets"
        self.ledger_path = self.directory / "ledger.jsonl"
        self.secrets_dir.mkdir(parents=True, exist_ok=True)
        self._registry = WatermarkRegistry(group_test_threshold=group_test_threshold)
        self._chain_hash = _GENESIS
        self._seq = 0
        self._load()

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #

    def _secret_path(self, fingerprint: str) -> Path:
        return self.secrets_dir / f"{fingerprint}.json"

    def _load_secret(self, fingerprint: str) -> WatermarkSecret:
        path = self._secret_path(fingerprint)
        try:
            secret = WatermarkSecret.load(path)
        except FileNotFoundError:
            raise DisputeError(
                f"vault ledger references secret {fingerprint} but "
                f"{path} does not exist"
            ) from None
        if secret.fingerprint() != fingerprint:
            raise DisputeError(
                f"secret file {path} does not match its content address "
                f"{fingerprint}"
            )
        return secret

    def _load(self) -> None:
        """Replay the ledger (tolerating a torn tail, rejecting tampering)."""
        if not self.ledger_path.exists():
            return
        raw = self.ledger_path.read_text(encoding="utf-8")
        consumed = 0
        offset = 0
        for line in raw.splitlines(keepends=True):
            stripped = line.strip()
            if not stripped:
                offset += len(line)
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                # Only a torn *tail* (a crash mid-append) is repairable;
                # garbage earlier in the file means tampering.
                if raw[offset + len(line):].strip():
                    raise DisputeError(
                        f"vault ledger {self.ledger_path} is corrupt at "
                        f"record {consumed}"
                    ) from None
                with open(self.ledger_path, "r+", encoding="utf-8") as handle:
                    handle.truncate(len(raw[:offset].encode("utf-8")))
                break
            self._replay(record, consumed)
            consumed += 1
            offset += len(line)

    def _replay(self, record: Dict[str, object], position: int) -> None:
        """Verify one ledger record against the chain and apply it."""
        if not isinstance(record, dict) or set(_RECORD_FIELDS) - set(record):
            raise DisputeError(
                f"vault ledger {self.ledger_path} record {position} is malformed"
            )
        if (
            int(record["seq"]) != self._seq
            or record["previous_hash"] != self._chain_hash
            or record["entry_hash"] != _record_hash(record)
        ):
            raise DisputeError(
                f"vault ledger {self.ledger_path} hash chain breaks at "
                f"record {position}"
            )
        buyer_id = str(record["buyer_id"])
        metadata = dict(record["metadata"])
        action = str(record["action"])
        if action == ACTION_REGISTER:
            secret = self._load_secret(str(record["fingerprint"]))
            self._registry.register(buyer_id, secret, **metadata)
        elif action == ACTION_REVOKE:
            self._registry.revoke(buyer_id, **metadata)
        else:
            raise DisputeError(
                f"vault ledger {self.ledger_path} record {position} has "
                f"unknown action {action!r}"
            )
        self._seq += 1
        self._chain_hash = str(record["entry_hash"])

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def _append_record(
        self, action: str, buyer_id: str, fingerprint: str, metadata: Dict[str, object]
    ) -> None:
        """Durably chain one record onto ``ledger.jsonl``."""
        record: Dict[str, object] = {
            "seq": self._seq,
            "action": action,
            "buyer_id": buyer_id,
            "fingerprint": fingerprint,
            "metadata": metadata,
            "previous_hash": self._chain_hash,
        }
        record["entry_hash"] = _record_hash(record)
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        with open(self.ledger_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._seq += 1
        self._chain_hash = str(record["entry_hash"])

    def register(
        self, buyer_id: str, secret: WatermarkSecret, **metadata: object
    ) -> RegistryEntry:
        """Durably register ``buyer_id``'s watermark.

        Secret file first, ledger append second: a crash in between
        leaves only an ignorable orphan file, never a vault entry
        without its secret or an index posting without its ledger record.
        """
        if buyer_id in self._registry.active_buyers:
            raise DisputeError(f"buyer {buyer_id!r} already has a registered watermark")
        if ACTION_KEY in metadata:
            raise DisputeError(f"metadata key {ACTION_KEY!r} is reserved for the ledger")
        fingerprint = secret.fingerprint()
        secret_path = self._secret_path(fingerprint)
        if not secret_path.exists():
            _atomic_write(secret_path, secret.to_json())
        entry_metadata = dict(metadata)
        self._append_record(ACTION_REGISTER, buyer_id, fingerprint, entry_metadata)
        return self._registry.register(buyer_id, secret, **entry_metadata)

    def revoke(self, buyer_id: str, **metadata: object) -> RegistryEntry:
        """Durably revoke ``buyer_id``'s watermark (append-only)."""
        secret = self._registry.secret_for(buyer_id)  # validates existence
        if ACTION_KEY in metadata:
            raise DisputeError(f"metadata key {ACTION_KEY!r} is reserved for the ledger")
        entry_metadata = dict(metadata)
        self._append_record(
            ACTION_REVOKE, buyer_id, secret.fingerprint(), entry_metadata
        )
        return self._registry.revoke(buyer_id, **entry_metadata)

    # ------------------------------------------------------------------ #
    # Delegated queries
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._registry)

    @property
    def entries(self) -> Tuple[RegistryEntry, ...]:
        """All chained entries (registrations and revocations) in order."""
        return self._registry.entries

    @property
    def active_buyers(self) -> Tuple[str, ...]:
        """Buyers currently holding a registered (unrevoked) watermark."""
        return self._registry.active_buyers

    @property
    def last_attribution(self) -> Optional[AttributionStats]:
        """How the last :meth:`attribute_leak` call ran."""
        return self._registry.last_attribution

    def secret_for(self, buyer_id: str) -> WatermarkSecret:
        """The privately held secret issued to ``buyer_id``."""
        return self._registry.secret_for(buyer_id)

    def attribute_leak(
        self,
        data: SuspectData,
        *,
        detection: Optional[DetectionConfig] = None,
    ) -> List[Tuple[str, float]]:
        """Index-backed attribution over the persisted vault.

        Semantics are exactly
        :meth:`~repro.dispute.registry.WatermarkRegistry.attribute_leak`.
        """
        return self._registry.attribute_leak(data, detection=detection)

    def verify_chain(self) -> bool:
        """Verify the replayed in-memory chain (see also the disk chain)."""
        return self._registry.verify_chain()

    def export_public_ledger(self) -> List[Dict[str, object]]:
        """Serialisable public view (fingerprints only, no secrets)."""
        return self._registry.export_public_ledger()

    def detector_cache_stats(self) -> CacheStats:
        """Construction/hit counters of the underlying detector cache."""
        return self._registry.detector_cache_stats()

    def index_stats(self) -> IndexStats:
        """Structural counters of the candidate-pruning index."""
        return self._registry.index_stats()


__all__ = ["ACTION_REGISTER", "ACTION_REVOKE", "SecretVault"]
