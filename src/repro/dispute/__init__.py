"""Ownership dispute resolution: judge protocol, registry, vault, index.

Layers, bottom up:

* :mod:`repro.dispute.index` — :class:`CandidateIndex`, the coarse
  inverted index from token-pair modulus buckets to secret rows that
  makes leak attribution sublinear in vault size;
* :mod:`repro.dispute.registry` — :class:`WatermarkRegistry`, the
  hash-chained in-memory ledger with index-backed attribution and
  append-only revocation, and :class:`RegistryEntry`, its one record
  codec;
* :mod:`repro.dispute.vault` — :class:`SecretVault`, the registry plus
  a directory: content-addressed secret files and a ``ledger.jsonl``
  holding exactly the public ledger records, appended crash-safely;
* :mod:`repro.dispute.judge` — the ownership-dispute arbitration
  protocol.

See ``docs/registry.md`` for the vault layout and the attribution flow.
"""

from repro.dispute.index import CandidateIndex, CandidateScreen, IndexStats
from repro.dispute.judge import Judge, OwnershipClaim, Verdict
from repro.dispute.registry import AttributionStats, RegistryEntry, WatermarkRegistry
from repro.dispute.vault import SecretVault

__all__ = [
    "AttributionStats",
    "CandidateIndex",
    "CandidateScreen",
    "IndexStats",
    "Judge",
    "OwnershipClaim",
    "RegistryEntry",
    "SecretVault",
    "Verdict",
    "WatermarkRegistry",
]
