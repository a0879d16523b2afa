"""FreqyWM: Frequency Watermarking for the New Data Economy — reproduction.

This package is a full reimplementation of the FreqyWM watermarking system
(Işler et al., ICDE 2024): watermark generation and detection over token
frequency histograms, the attack suite used in the paper's robustness
analysis, the false-positive probability analysis, the WM-OBT / WM-RVS
comparison baselines, synthetic substrates for the evaluation datasets,
and an ownership-dispute protocol.

Quickstart
----------
>>> from repro import generate_watermark, detect_watermark
>>> tokens = ["youtube.com"] * 1098 + ["facebook.com"] * 980 + ["google.com"] * 674
>>> result = generate_watermark(tokens, budget_percent=2.0, modulus_cap=31, rng=7)
>>> detection = detect_watermark(result.watermarked_histogram, result.secret)
>>> bool(detection.accepted)
True
"""

from repro.core import (
    BatchDetectionReport,
    BatchEmbeddingReport,
    DetectionConfig,
    DetectionResult,
    DetectorCache,
    GenerationConfig,
    MultiWatermarker,
    ProvenanceChain,
    SelectionResult,
    StreamingHistogramBuilder,
    TokenHistogram,
    TokenPair,
    WatermarkDetector,
    WatermarkGenerator,
    WatermarkResult,
    WatermarkSecret,
    detect_files,
    detect_many,
    detect_many_secrets,
    detect_watermark,
    embed_files,
    embed_many,
    generate_watermark,
)
from repro.exceptions import ReproError
from repro.service import (
    DetectionService,
    ServiceConfig,
    SyncDetectionService,
)

__version__ = "3.0.0"

__all__ = [
    "BatchDetectionReport",
    "BatchEmbeddingReport",
    "DetectionConfig",
    "DetectionResult",
    "DetectorCache",
    "GenerationConfig",
    "MultiWatermarker",
    "ProvenanceChain",
    "SelectionResult",
    "StreamingHistogramBuilder",
    "TokenHistogram",
    "TokenPair",
    "WatermarkDetector",
    "WatermarkGenerator",
    "WatermarkResult",
    "WatermarkSecret",
    "detect_files",
    "detect_many",
    "detect_many_secrets",
    "detect_watermark",
    "embed_files",
    "embed_many",
    "generate_watermark",
    "DetectionService",
    "ServiceConfig",
    "SyncDetectionService",
    "ReproError",
    "__version__",
]
