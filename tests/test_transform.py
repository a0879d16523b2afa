"""Unit tests for the dataset transformation (token add/remove) stage."""

from __future__ import annotations

import pytest

from repro.core.histogram import TokenHistogram
from repro.core.transform import (
    apply_deltas_to_tokens,
    transform_dataset,
    verify_transformation,
)
from repro.exceptions import GenerationError


class TestApplyDeltas:
    def test_removals_and_additions_change_counts(self, rng):
        tokens = ["a"] * 30 + ["b"] * 20 + ["c"] * 10
        edited = apply_deltas_to_tokens(tokens, {"a": -5, "c": +3}, rng=rng)
        histogram = TokenHistogram.from_tokens(edited)
        assert histogram.frequency("a") == 25
        assert histogram.frequency("b") == 20
        assert histogram.frequency("c") == 13
        assert len(edited) == len(tokens) - 5 + 3

    def test_no_deltas_is_identity_of_counts(self, rng):
        tokens = ["x", "y", "x"]
        edited = apply_deltas_to_tokens(tokens, {}, rng=rng)
        assert sorted(edited) == sorted(tokens)

    def test_removing_too_many_raises(self, rng):
        with pytest.raises(GenerationError):
            apply_deltas_to_tokens(["a"] * 3, {"a": -4}, rng=rng)

    def test_insertions_are_spread_not_appended(self):
        # With many insertions into a long sequence, at least one must land
        # away from the tail (probability of failure is negligible).
        tokens = ["a"] * 200
        edited = apply_deltas_to_tokens(tokens, {"b": 20}, rng=3)
        tail = edited[-20:]
        assert any(token != "b" for token in tail)

    def test_new_token_can_be_introduced(self, rng):
        edited = apply_deltas_to_tokens(["a", "a"], {"z": 2}, rng=rng)
        assert TokenHistogram.from_tokens(edited).frequency("z") == 2


class TestTransformDataset:
    def test_transformed_tokens_match_target_histogram(self, skewed_tokens, rng):
        original = TokenHistogram.from_tokens(skewed_tokens)
        top, low = original.tokens[0], original.tokens[-1]
        target = original.with_updates({top: +4, low: -1})
        edited = transform_dataset(skewed_tokens, original, target, rng=rng)
        assert verify_transformation(edited, target)

    def test_verify_transformation_detects_mismatch(self):
        original = TokenHistogram.from_tokens(["a", "a", "b"])
        assert not verify_transformation(["a", "b"], original)

    def test_deterministic_given_seed(self, skewed_tokens):
        original = TokenHistogram.from_tokens(skewed_tokens)
        target = original.with_updates({original.tokens[0]: +2})
        first = transform_dataset(skewed_tokens, original, target, rng=77)
        second = transform_dataset(skewed_tokens, original, target, rng=77)
        assert first == second


#: Runs in a fresh interpreter and prints digests of every seeded edit:
#: one-shot generation, the streamed edit and the table rows.
_SEEDED_EDITS_SCRIPT = r"""
import hashlib
import json

from repro.core.generator import generate_watermark
from repro.core.multidimensional import watermark_table
from repro.core.transform import apply_deltas_streaming, histogram_deltas
from repro.datasets.adult import AdultSpec, generate_adult_dataset
from repro.datasets.synthetic import generate_power_law_tokens


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


tokens = generate_power_law_tokens(0.6, n_tokens=80, sample_size=20_000, rng=3)
result = generate_watermark(tokens, rng=7)
deltas = histogram_deltas(result.original_histogram, result.watermarked_histogram)
streamed = apply_deltas_streaming(
    iter(tokens), deltas, result.original_histogram, rng=7
)
table = watermark_table(
    generate_adult_dataset(AdultSpec(n_rows=4000), rng=31),
    ["age"],
    modulus_cap=31,
    rng=5,
)
print(json.dumps({
    "removal_tokens": sum(1 for delta in deltas.values() if delta < 0),
    "tokens": digest(result.watermarked_tokens),
    "streamed": digest(streamed),
    "rows": digest(
        json.dumps(row, sort_keys=True, default=str)
        for row in table.watermarked_dataset.rows
    ),
    "secret": result.secret.fingerprint(),
}))
"""


class TestHashSeedIndependence:
    def test_seeded_edits_match_across_hash_seeds(self):
        """Seeded token files and table rows must not depend on the
        interpreter's string-hash salt (``PYTHONHASHSEED``): the edits
        draw their random numbers in the order of the delta mapping."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        source_root = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [source_root, env.get("PYTHONPATH")])
            )
            completed = subprocess.run(
                [sys.executable, "-c", _SEEDED_EDITS_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(json.loads(completed.stdout.strip().splitlines()[-1]))
        # Several removal tokens, so a hash-ordered walk would reorder draws.
        assert outputs[0]["removal_tokens"] >= 2
        assert outputs[0] == outputs[1]
