"""Million-secret vault — sublinear leak attribution at marketplace scale.

Not a paper figure: this benchmark guards the candidate-pruning index
behind :meth:`repro.dispute.registry.WatermarkRegistry.attribute_leak`
against functional and performance regression.

* **Parity**: attribution over a vault of ≥100k synthetic buyers (one
  real buyer holding a genuinely embedded watermark, the rest decoys
  with random pair lists over the same vocabulary) must return exactly
  the buyers a full linear :func:`repro.core.batch.detect_many_secrets`
  scan convicts. The index screen is *exact* — bucket acceptance depends
  only on the histogram and the pair's modulus, never on which secret
  owns the pair — so any verdict difference is a bug, not noise.
* **Speedup**: the index-backed attribution must beat the warm linear
  scan by ≥5x at full scale (≥2x in the CI smoke run, where the
  vault is small enough that constant factors blur the gap). The linear
  scan pays a per-secret Python pass to stack pairs and look up
  frequencies; the index pays one vectorized pass over its distinct
  vocabulary and posting lists, so the gap widens with vault size.

Run directly (``python benchmarks/bench_registry.py``) or via pytest;
the CI smoke job includes the timings in ``BENCH_smoke.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.batch import detect_many_secrets
from repro.core.config import DetectionConfig, GenerationConfig
from repro.core.generator import WatermarkGenerator
from repro.core.secrets import WatermarkSecret
from repro.datasets.synthetic import generate_power_law_histogram
from repro.dispute import WatermarkRegistry

from bench_utils import experiment_banner

SEED = 24
#: Pairs per decoy secret (the paper's secrets carry tens of pairs; 8
#: keeps 100k-buyer vault construction quick without changing the
#: screening shape).
DECOY_PAIRS = 8
MIN_SPEEDUP = 5.0
MIN_SPEEDUP_SMOKE = 2.0


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SCALE", "").lower() == "smoke"


def _vault_size() -> int:
    scale = os.environ.get("REPRO_BENCH_SCALE", "default").lower()
    return {"smoke": 5_000, "paper": 200_000}.get(scale, 100_000)


def _build_vault(vault_size: int):
    """A registry of one real buyer and ``vault_size - 1`` decoys.

    Returns ``(registry, leaked_histogram, real_buyer)``. Decoy pair
    lists are drawn over the leaked histogram's own vocabulary, so the
    screen cannot shortcut on missing tokens — every bucket is a live
    modulus test, the regime the index must win in.
    """
    rng = np.random.default_rng(SEED)
    histogram = generate_power_law_histogram(
        0.6, n_tokens=400, sample_size=200_000, mode="sampled", rng=rng
    )
    result = WatermarkGenerator(GenerationConfig(strategy="greedy"), rng=SEED).generate(
        histogram
    )
    registry = WatermarkRegistry()
    real_buyer = "buyer-real"
    registry.register(real_buyer, result.secret)

    vocab = sorted(histogram.as_dict())
    modulus_cap = result.secret.modulus_cap
    tokens = np.array(vocab)
    first = rng.integers(0, len(vocab), size=(vault_size - 1, DECOY_PAIRS))
    # A nonzero offset keeps first != second without a rejection loop.
    second = (first + rng.integers(1, len(vocab), size=first.shape)) % len(vocab)
    secret_values = rng.integers(1, 2**63, size=vault_size - 1)
    for decoy in range(vault_size - 1):
        pairs = list(zip(tokens[first[decoy]], tokens[second[decoy]]))
        registry.register(
            f"decoy-{decoy:06d}",
            WatermarkSecret.build(pairs, int(secret_values[decoy]), modulus_cap),
        )
    return registry, result.watermarked_histogram, real_buyer


def test_attribution_parity_and_speedup():
    """Index attribution: verdicts identical to a linear scan, >=5x faster."""
    vault_size = _vault_size()
    config = DetectionConfig(pair_threshold=0, min_accepted_fraction=0.5)

    start = time.perf_counter()
    registry, leaked, real_buyer = _build_vault(vault_size)
    build_seconds = time.perf_counter() - start

    buyers = registry.active_buyers
    secrets = [registry.secret_for(buyer) for buyer in buyers]
    # The untimed warm-up pass derives every secret's moduli (memoised
    # on the secret), so the timed gap measures the scan itself, not
    # hashing. The warm-up attribution below builds the candidate index
    # from those memos.
    detect_many_secrets(leaked, secrets, config)
    start = time.perf_counter()
    linear_results = detect_many_secrets(leaked, secrets, config)
    linear_seconds = time.perf_counter() - start
    linear_accepted = {
        buyer for buyer, result in zip(buyers, linear_results) if result.accepted
    }

    # Warm attribution pass mirrors the warm linear pass.
    registry.attribute_leak(leaked, detection=config)
    start = time.perf_counter()
    matches = registry.attribute_leak(leaked, detection=config)
    index_seconds = time.perf_counter() - start
    stats = registry.last_attribution

    matched = {buyer for buyer, _ in matches}
    assert matched == linear_accepted, (
        f"index attribution diverged from the linear scan: "
        f"{sorted(matched) } vs {sorted(linear_accepted)}"
    )
    assert real_buyer in matched, "the real buyer's leak went unattributed"
    assert stats is not None and stats.mode == "index"
    assert stats.candidates < stats.active_secrets, "index pruned nothing"

    speedup = linear_seconds / max(index_seconds, 1e-9)
    experiment_banner(
        "Vault attribution",
        f"{vault_size} registered buyers, {len(matched)} convicted",
    )
    print(  # noqa: T201
        f"  vault build: {build_seconds:.2f} s   linear scan: "
        f"{linear_seconds:.3f} s   index: {index_seconds:.3f} s   "
        f"speedup: {speedup:.1f}x   candidates: {stats.candidates}/"
        f"{stats.active_secrets}"
    )
    floor = MIN_SPEEDUP_SMOKE if _smoke() else MIN_SPEEDUP
    assert speedup >= floor, (
        f"index attribution regressed below {floor}x: {speedup:.2f}x "
        f"(linear {linear_seconds:.3f}s, index {index_seconds:.3f}s)"
    )


if __name__ == "__main__":
    test_attribution_parity_and_speedup()
