"""Persistent watermark vault: the registry plus a directory.

:class:`SecretVault` is a :class:`~repro.dispute.registry.WatermarkRegistry`
whose persistence step writes to disk, so a data marketplace's buyer
vault survives restarts. The on-disk layout reuses the experiment run
cache's conventions (:mod:`repro.experiments.cache`):

``VAULT_DIR/secrets/<fingerprint>.json``
    One content-addressed file per secret (the
    :meth:`~repro.core.secrets.WatermarkSecret.to_dict` payload), written
    atomically — a temp file in the same directory then ``os.replace`` —
    exactly like the run cache's artifacts. Content addressing by the
    keyed fingerprint dedupes re-registrations of the same watermark.

``VAULT_DIR/ledger.jsonl``
    The append-only hash-chained ledger, one JSON record per line:
    exactly the records
    :meth:`~repro.dispute.registry.WatermarkRegistry.export_public_ledger`
    returns (``index``/``buyer_id``/``fingerprint``/``metadata``/
    ``previous_hash``/``entry_hash``; a revocation carries
    ``metadata.action = "revoke"``), so
    :meth:`~repro.dispute.registry.WatermarkRegistry.verify_exported_ledger`
    verifies the file as it stands. Appending one fsynced line is O(1)
    per entry — the file is never rewritten.

**Crash atomicity.** A registration writes the secret file *first* and
appends the ledger line *second*. A crash between the two leaves an
orphan secret file that no ledger record references: reload ignores it,
so a half-finished registration contributes **no** vault entry and **no**
index posting (the atomic-write contract the tests pin down). A crash
mid-append leaves a torn final line, which reload truncates away; torn
or tampered records anywhere *before* the tail are an integrity error,
not a repair.

Reloading replays each decoded record through the registry's own
``register`` / ``revoke`` with persistence off; the rebuilt entry must
equal the stored record, so the replay is the chain check. Each secret
file is checked against its content address as it is loaded. The
replay builds no candidate index and derives no moduli: the first
screen (or ``index_stats``) builds the index from the active secrets.
A ledger holding records of any other shape (such as the older
``seq``/``action`` format) is refused with a
:class:`~repro.exceptions.DisputeError`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

from repro.core.secrets import WatermarkSecret
from repro.dispute.registry import (
    ACTION_KEY,
    ACTION_REVOKE,
    RegistryEntry,
    WatermarkRegistry,
)
from repro.exceptions import DisputeError
from repro.obs.trace import span as trace_span


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically within its directory."""
    temp = path + ".tmp"
    with open(temp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(temp, path)


class SecretVault(WatermarkRegistry):
    """On-disk, crash-safe watermark registry rooted at ``directory``.

    Opening a vault directory creates it (and the layout above) when
    missing, or replays the existing ledger. Every entry is durably
    appended to ``ledger.jsonl`` before it takes effect in memory.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        with trace_span("dispute.vault_open"):
            super().__init__()
            self.directory = Path(directory)
            self.secrets_dir = self.directory / "secrets"
            self.ledger_path = self.directory / "ledger.jsonl"
            self.secrets_dir.mkdir(parents=True, exist_ok=True)
            self._replaying = True
            self._load()
            self._replaying = False

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #

    def _secret_path(self, fingerprint: str) -> str:
        return os.path.join(self.secrets_dir, fingerprint + ".json")

    def _load_secret(self, fingerprint: str) -> WatermarkSecret:
        path = self._secret_path(fingerprint)
        try:
            with open(path, "rb") as handle:
                text = handle.read().decode("utf-8")
        except FileNotFoundError:
            raise DisputeError(
                f"vault ledger references secret {fingerprint} but "
                f"{path} does not exist"
            ) from None
        secret = WatermarkSecret.from_json(text)
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
        raw = self.ledger_path.read_bytes()
        position = offset = 0
        for line in raw.splitlines(keepends=True):
            if line.strip():
                try:
                    record = json.loads(line)
                except ValueError:  # not JSON, or not UTF-8
                    # Only a torn *tail* (a crash mid-append) is repairable;
                    # garbage earlier in the file means tampering.
                    if raw[offset + len(line):].strip():
                        raise DisputeError(
                            f"vault ledger {self.ledger_path} is corrupt at "
                            f"record {position}"
                        ) from None
                    with open(self.ledger_path, "r+b") as handle:
                        handle.truncate(offset)
                    return
                self._replay(record, position)
                position += 1
            offset += len(line)

    def _replay(self, record: object, position: int) -> None:
        """Rebuild one ledger record through the registry; it must match."""
        try:
            stored = RegistryEntry.from_dict(record)
            metadata = dict(stored.metadata)
            if stored.action == ACTION_REVOKE:
                del metadata[ACTION_KEY]
                rebuilt = WatermarkRegistry.revoke(self, stored.buyer_id, **metadata)
            else:
                secret = self._load_secret(stored.fingerprint)
                rebuilt = WatermarkRegistry.register(
                    self, stored.buyer_id, secret, **metadata
                )
        except DisputeError as error:
            raise DisputeError(
                f"vault ledger {self.ledger_path} record {position}: {error}"
            ) from None
        if rebuilt != stored:
            raise DisputeError(
                f"vault ledger {self.ledger_path} hash chain breaks at "
                f"record {position}"
            )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def _persist(self, entry: RegistryEntry) -> None:
        """Durably append ``entry``'s record to ``ledger.jsonl``."""
        if self._replaying:
            return
        line = json.dumps(entry.to_dict(), separators=(",", ":"), sort_keys=True)
        with open(self.ledger_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def register(
        self, buyer_id: str, secret: WatermarkSecret, /, **metadata: object
    ) -> RegistryEntry:
        """Durably register ``buyer_id``'s watermark.

        Secret file first, ledger append second: a crash in between
        leaves only an ignorable orphan file, never a vault entry
        without its secret or an index posting without its ledger record.
        A rejected registration writes nothing.
        """
        with trace_span("dispute.register"):
            self._check_registrable(buyer_id, metadata)
            secret_path = self._secret_path(secret.fingerprint())
            if not os.path.exists(secret_path):
                _atomic_write(secret_path, secret.to_json())
            return super().register(buyer_id, secret, **metadata)


__all__ = ["SecretVault"]
