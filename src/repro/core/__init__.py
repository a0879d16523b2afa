"""FreqyWM core: watermark generation, detection, and supporting stages."""

from repro.core.arrays import HistogramArrays
from repro.core.batch import (
    BatchDetectionReport,
    BatchEmbeddingReport,
    detect_files,
    detect_many,
    detect_many_secrets,
    embed_files,
    embed_many,
)
from repro.core.cache import DEFAULT_CACHE_CAPACITY, CacheStats, DetectorCache
from repro.core.config import DetectionConfig, GenerationConfig
from repro.core.detector import (
    DetectionResult,
    WatermarkDetector,
    detect_watermark,
    detector_fingerprint,
)
from repro.core.eligibility import (
    EligiblePair,
    EligibilityContext,
    generate_eligible_pairs,
)
from repro.core.generator import WatermarkGenerator, WatermarkResult, generate_watermark
from repro.core.histogram import TokenHistogram
from repro.core.matching import SelectionResult, select_pairs
from repro.core.multiwatermark import MultiWatermarker, ProvenanceChain
from repro.core.streaming import (
    StreamingHistogramBuilder,
    histogram_from_chunks,
    histogram_from_stream,
)
from repro.core.secrets import WatermarkSecret
from repro.core.similarity import (
    SimilarityTracker,
    distortion_percent,
    histogram_similarity,
    rank_changes,
    ranking_preserved,
    similarity_percent,
)
from repro.core.tokens import TokenPair, canonical_token, compose_token

__all__ = [
    "HistogramArrays",
    "BatchDetectionReport",
    "BatchEmbeddingReport",
    "detect_files",
    "detect_many",
    "detect_many_secrets",
    "embed_files",
    "embed_many",
    "DEFAULT_CACHE_CAPACITY",
    "CacheStats",
    "DetectorCache",
    "DetectionConfig",
    "GenerationConfig",
    "DetectionResult",
    "WatermarkDetector",
    "detect_watermark",
    "detector_fingerprint",
    "EligiblePair",
    "EligibilityContext",
    "generate_eligible_pairs",
    "WatermarkGenerator",
    "WatermarkResult",
    "generate_watermark",
    "TokenHistogram",
    "SelectionResult",
    "select_pairs",
    "MultiWatermarker",
    "ProvenanceChain",
    "StreamingHistogramBuilder",
    "histogram_from_chunks",
    "histogram_from_stream",
    "WatermarkSecret",
    "SimilarityTracker",
    "distortion_percent",
    "histogram_similarity",
    "rank_changes",
    "ranking_preserved",
    "similarity_percent",
    "TokenPair",
    "canonical_token",
    "compose_token",
]
