#!/usr/bin/env python3
"""Marketplace registry: 10k buyers, one leak, sublinear attribution.

The paper's marketplace scenario end to end, over the service wire
(``docs/registry.md`` walks through the same flow with ``freqywm
registry``):

1. **Register** — a data seller fingerprints every buyer's copy with its
   own watermark secret. Here 10 000 buyers are registered through
   pipelined ``register`` bursts against a spawned ``freqywm serve``
   instance; one of them ("buyer-04217") receives a genuinely embedded
   watermark, the rest carry synthetic decoy secrets.
2. **Leak** — buyer-04217's watermarked copy surfaces in the wild.
3. **Attribute** — one ``attribute`` request screens the whole vault
   through the candidate-pruning index (sublinear: only bucket-accepted
   candidates reach exact detection) and convicts the leaking buyer.
   Registration builds no index; this first screen builds it, so it
   takes longer than the screen after the revocation.
4. **Revoke** — the convicted buyer's watermark is revoked (append-only
   ledger entry); re-attribution no longer names them.

Run with:  python examples/marketplace_registry.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.generator import generate_watermark
from repro.core.secrets import WatermarkSecret
from repro.datasets.synthetic import generate_power_law_tokens
from repro.service import (
    AttributeRequest,
    RegisterRequest,
    RevokeRequest,
    ServiceClient,
)

#: Registered buyers (one real watermark + decoys).
BUYERS = 10_000
#: The buyer whose copy leaks.
LEAKER = "buyer-04217"
#: Pairs per decoy secret. At the default acceptance rule (half the
#: pairs must verify) 16 pairs keeps chance convictions rare — a decoy
#: needs 8 simultaneous modulus coincidences to be named.
DECOY_PAIRS = 16
#: Register requests pipelined per burst.
BURST = 512


def build_market():
    """The seller's asset, the leaking buyer's copy, and decoy secrets."""
    asset = generate_power_law_tokens(0.6, n_tokens=300, sample_size=150_000, rng=5)
    embedded = generate_watermark(asset, budget_percent=2.0, modulus_cap=131, rng=6)

    rng = np.random.default_rng(7)
    vocab = np.array(sorted(set(asset)))
    first = rng.integers(0, len(vocab), size=(BUYERS, DECOY_PAIRS))
    second = (first + rng.integers(1, len(vocab), size=first.shape)) % len(vocab)
    values = rng.integers(1, 2**63, size=BUYERS)

    secrets = {}
    for index in range(BUYERS):
        buyer = f"buyer-{index:05d}"
        if buyer == LEAKER:
            secrets[buyer] = embedded.secret
        else:
            secrets[buyer] = WatermarkSecret.build(
                list(zip(vocab[first[index]], vocab[second[index]])),
                int(values[index]),
                embedded.secret.modulus_cap,
            )
    return embedded.watermarked_histogram, secrets


def main() -> int:
    leaked, secrets = build_market()
    buyers = sorted(secrets)

    with ServiceClient.spawn() as client:
        # -- 1. register the whole marketplace, pipelined in bursts ----- #
        started = time.perf_counter()
        registered = 0
        for start in range(0, len(buyers), BURST):
            burst = [
                RegisterRequest(
                    request_id=f"reg-{buyer}",
                    buyer_id=buyer,
                    secret=secrets[buyer].to_dict(),
                    metadata={"tier": "standard"},
                )
                for buyer in buyers[start : start + BURST]
            ]
            for response in client.request(burst):
                assert response.ok, response.error
                registered = max(registered, response.vault_size)
        register_seconds = time.perf_counter() - started
        print(f"registered buyers   : {registered} in {register_seconds:.1f} s")

        # -- 2 + 3. the leak surfaces; one request attributes it -------- #
        started = time.perf_counter()
        (verdict,) = client.request(
            [AttributeRequest(request_id="leak-1", counts=leaked.as_dict())]
        )
        attribute_seconds = time.perf_counter() - started
        assert verdict.ok, verdict.error
        convicted = [buyer for buyer, _fraction in verdict.matches]
        print(
            f"attribution         : {attribute_seconds * 1000:.0f} ms with the "
            f"index build, mode={verdict.mode}, candidates {verdict.candidates}/"
            f"{verdict.active_secrets}"
        )
        for buyer, fraction in verdict.matches:
            marker = "  <-- the leaker" if buyer == LEAKER else ""
            print(f"  convicted         : {buyer} ({fraction:.0%} pairs){marker}")
        assert LEAKER in convicted, "the leaking buyer went unattributed"

        # -- 4. revoke the leaker; they stop matching ------------------- #
        (revoked,) = client.request(
            [
                RevokeRequest(
                    request_id="rev-1", buyer_id=LEAKER, metadata={"reason": "leak"}
                )
            ]
        )
        assert revoked.ok, revoked.error
        started = time.perf_counter()
        (after,) = client.request(
            [AttributeRequest(request_id="leak-2", counts=leaked.as_dict())]
        )
        attribute_seconds = time.perf_counter() - started
        assert after.ok and LEAKER not in [buyer for buyer, _ in after.matches]
        print(
            f"after revocation    : {len(after.matches)} match(es), leaker gone "
            f"({attribute_seconds * 1000:.0f} ms)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
