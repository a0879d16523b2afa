"""Shared fixtures for the FreqyWM test suite.

Fixtures build small, deterministic datasets so each test runs in
milliseconds while still exercising realistic histogram shapes (skewed
frequencies with non-trivial gaps, which is the regime FreqyWM targets).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import GenerationConfig
from repro.core.generator import WatermarkGenerator
from repro.core.histogram import TokenHistogram
from repro.datasets.synthetic import generate_power_law_histogram, generate_power_law_tokens
from repro.exec.blobs import BlobStore, set_default_blob_store
from repro.obs import logging as _obs_logging


@pytest.fixture(autouse=True)
def _isolate_obs_logging():
    """Undo ``repro.obs.logging.configure`` effects between tests.

    Any test that reaches the CLI's ``main`` installs the telemetry
    plane's handler and stops propagation to the logging root; left in
    place, that would blind ``caplog`` for every later test.
    """
    yield
    _obs_logging.reset()


@pytest.fixture()
def moduli_derivations(monkeypatch):
    """Count calls to the one moduli derivation (a list, one entry each).

    Each entry is the number of pairs derived. Every reader takes a
    secret's moduli from :meth:`WatermarkSecret.moduli`, the one caller
    of :func:`repro.core.hashing.moduli_of_pairs`.
    """
    import repro.core.secrets as secrets_module

    calls = []
    derive = secrets_module.moduli_of_pairs

    def counting(pairs, secret, z):
        calls.append(len(pairs))
        return derive(pairs, secret, z)

    monkeypatch.setattr(secrets_module, "moduli_of_pairs", counting)
    return calls


@pytest.fixture()
def fresh_store():
    """An isolated process-wide default blob store, restored afterwards."""
    store = BlobStore()
    previous = set_default_blob_store(store)
    try:
        yield store
    finally:
        set_default_blob_store(previous)


@pytest.fixture()
def running_example_histogram() -> TokenHistogram:
    """The paper's Figure 1 running example (URL frequencies)."""
    return TokenHistogram.from_counts(
        {
            "youtube.com": 1098,
            "facebook.com": 980,
            "google.com": 674,
            "instagram.com": 537,
            "bbc.com": 64,
            "cnn.com": 53,
            "elpais.com": 53,
        }
    )


@pytest.fixture(scope="session")
def skewed_histogram() -> TokenHistogram:
    """A mid-skew power-law histogram (α=0.5) at test scale.

    Sampled (noisy) counts, matching how real data behaves: with smooth
    "expected" counts an unrealistically large share of pairs is already
    aligned by chance, which distorts the attack/dispute experiments.
    """
    return generate_power_law_histogram(
        0.5, n_tokens=120, sample_size=60_000, mode="sampled", rng=2024
    )


@pytest.fixture(scope="session")
def skewed_tokens() -> list:
    """A raw token sequence drawn from a skewed power law."""
    return generate_power_law_tokens(0.7, n_tokens=60, sample_size=8_000, rng=11)


@pytest.fixture(scope="session")
def watermarked_bundle(skewed_histogram):
    """One deterministic watermark over the skewed histogram.

    Returns (result, original histogram) and is session-scoped because
    generation over 120 tokens is the most expensive fixture; tests must
    not mutate the result.
    """
    config = GenerationConfig(budget_percent=2.0, modulus_cap=131, strategy="optimal")
    generator = WatermarkGenerator(config, rng=1234)
    result = generator.generate(skewed_histogram)
    return result, skewed_histogram


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic NumPy generator for test-local randomness."""
    return np.random.default_rng(20240613)
