"""Pure task functions: one experiment DAG node → one JSON-able record.

Every function here is a *pure* function of ``(task, dependency results,
root seed)``: no global state, no wall clock in the payload, and every
random draw comes from an RNG stream derived from the task's
content-addressed fingerprint via :func:`repro.utils.rng.derive_rng`.
That last property is what makes experiment runs bit-identical across
``--workers 1`` and ``--workers N`` — the stream a task consumes depends
only on *what* it computes, never on *when* or *where* it runs.

The heavy lifting is delegated to the library's batched primitives:
embedding runs through :meth:`WatermarkGenerator.generate_many`,
detection screens all attack repetitions of a cell in one vectorized
:func:`repro.core.batch.detect_many` pass.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np

from repro.analysis.distortion import distortion_report
from repro.analysis.false_positive import (
    empirical_false_positive_rate,
    markov_bound,
    pair_false_positive_probability,
    poisson_binomial_survival,
)
from repro.attacks.destroy import (
    BoundaryNoiseAttack,
    PercentageNoiseAttack,
    ReorderingNoiseAttack,
)
from repro.attacks.sampling import SamplingAttack, rescale_suspect
from repro.baselines import WmObtWatermarker, WmRvsWatermarker
from repro.core.batch import detect_many
from repro.core.config import DetectionConfig, GenerationConfig
from repro.core.detector import WatermarkDetector
from repro.core.generator import WatermarkGenerator
from repro.core.histogram import TokenHistogram
from repro.core.secrets import WatermarkSecret
from repro.datasets.synthetic import generate_power_law_histogram, uniform_histogram
from repro.exceptions import ReproError
from repro.experiments.plan import Task
from repro.utils.rng import derive_rng


def task_rng(seed: int, fingerprint: str, *labels: str):
    """The derived RNG stream of one task (optionally a sub-stream).

    Keyed by the task fingerprint, so the stream is independent of every
    other task's and of the execution schedule — the reproducibility
    contract behind ``--workers N`` parity.
    """
    return derive_rng(seed, "experiment-task", fingerprint, *labels)


def _histogram(counts: Mapping[str, object]) -> TokenHistogram:
    return TokenHistogram.from_counts(
        {str(token): int(count) for token, count in counts.items()}  # type: ignore[call-overload]
    )


def _dep_of_kind(
    task: Task, deps: Mapping[str, Mapping[str, object]], kind_prefix: str
) -> Dict[str, object]:
    for dep_id in task.deps:
        if dep_id.startswith(kind_prefix):
            return dict(deps[dep_id])
    raise ReproError(f"task {task.task_id!r} has no {kind_prefix!r} dependency")


# --------------------------------------------------------------------------- #
# Grid tasks
# --------------------------------------------------------------------------- #


def run_dataset_task(task: Task, seed: int) -> Dict[str, object]:
    """Materialise one synthetic input dataset as a histogram."""
    params = task.params
    kind = str(params["kind"])
    if kind == "power-law":
        histogram = generate_power_law_histogram(
            float(params["alpha"]),  # type: ignore[arg-type]
            n_tokens=int(params["tokens"]),  # type: ignore[arg-type]
            sample_size=int(params["samples"]),  # type: ignore[arg-type]
            mode="sampled",
            rng=task_rng(seed, task.fingerprint),
        )
    elif kind == "uniform":
        tokens = int(params["tokens"])  # type: ignore[arg-type]
        histogram = uniform_histogram(
            n_tokens=tokens,
            count_per_token=max(1, int(params["samples"]) // tokens),  # type: ignore[arg-type]
        )
    else:  # pragma: no cover - spec validation rejects unknown kinds
        raise ReproError(f"unknown dataset kind {kind!r}")
    return {
        "counts": histogram.as_dict(),
        "distinct_tokens": len(histogram),
        "total_count": histogram.total_count(),
    }


def run_embed_task(
    task: Task, deps: Mapping[str, Mapping[str, object]], seed: int
) -> Dict[str, object]:
    """Embed ``secrets`` independent watermarks into one dataset.

    All copies go through one batched ``generate_many`` pass, which
    amortises the pair-modulus hashing and eligibility precomputation
    across the whole batch (PR 4's embedding engine).
    """
    dataset = _dep_of_kind(task, deps, "dataset:")
    histogram = _histogram(dataset["counts"])  # type: ignore[arg-type]
    generation = dict(task.params["generation"])  # type: ignore[call-overload]
    config = GenerationConfig(
        budget_percent=float(generation["budget_percent"]),
        modulus_cap=int(generation["modulus_cap"]),
        strategy=str(generation["strategy"]),
        max_pairs=(
            int(generation["max_pairs"])
            if generation.get("max_pairs") is not None
            else None
        ),
    )
    copies = int(task.params["secrets"])  # type: ignore[arg-type]
    generator = WatermarkGenerator(config, rng=task_rng(seed, task.fingerprint))
    return {
        "results": [
            {
                "watermarked_counts": result.watermarked_histogram.as_dict(),
                "secret": result.secret.to_dict(),
                "summary": result.summary(),
            }
            for result in generator.generate_many([histogram] * copies)
        ]
    }


_DESTROY_ATTACKS = {
    "reordering": ReorderingNoiseAttack,
    "percentage": PercentageNoiseAttack,
}


def run_attack_task(
    task: Task, deps: Mapping[str, Mapping[str, object]], seed: int
) -> Dict[str, object]:
    """Tamper one watermarked copy ``repetitions`` times at one strength."""
    embed = _dep_of_kind(task, deps, "embed:")
    secret_index = int(task.params["secret_index"])  # type: ignore[arg-type]
    record = embed["results"][secret_index]  # type: ignore[index]
    watermarked = _histogram(record["watermarked_counts"])
    kind = str(task.params["attack"])
    strength = float(task.params["strength"])  # type: ignore[arg-type]
    repetitions = int(task.params["repetitions"])  # type: ignore[arg-type]
    attacked: List[Dict[str, int]] = []
    for repetition in range(repetitions):
        rng = task_rng(seed, task.fingerprint, f"rep-{repetition}")
        if kind == "sampling":
            suspect = SamplingAttack(strength, rng=rng).tamper(watermarked)
            # Owner-side counter-measure: rescale back to the known size.
            suspect = rescale_suspect(suspect, watermarked.total_count())
        elif kind == "boundary":
            suspect = BoundaryNoiseAttack(rng=rng).tamper(watermarked)
        elif kind in _DESTROY_ATTACKS:
            suspect = _DESTROY_ATTACKS[kind](strength, rng=rng).tamper(watermarked)
        else:  # pragma: no cover - spec validation rejects unknown kinds
            raise ReproError(f"unknown attack kind {kind!r}")
        attacked.append(suspect.as_dict())
    return {"attacked_counts": attacked}


def run_detect_task(
    task: Task, deps: Mapping[str, Mapping[str, object]], seed: int
) -> Dict[str, object]:
    """Screen one (attack, strength) cell over the threshold sweep.

    All repetitions are screened per threshold in one vectorized
    ``detect_many`` batch; the record aggregates them into the mean
    verified-pair fraction and the majority detection verdict the paper's
    robustness figures plot.
    """
    embed = _dep_of_kind(task, deps, "embed:")
    secret_index = int(task.params["secret_index"])  # type: ignore[arg-type]
    record = embed["results"][secret_index]  # type: ignore[index]
    secret = WatermarkSecret.from_dict(record["secret"])
    if str(task.params["attack"]) == "none":
        suspects = [_histogram(record["watermarked_counts"])]
    else:
        attack = _dep_of_kind(task, deps, "attack:")
        suspects = [
            _histogram(counts)
            for counts in attack["attacked_counts"]  # type: ignore[union-attr]
        ]
    thresholds = [int(value) for value in task.params["thresholds"]]  # type: ignore[union-attr]
    min_fraction = float(task.params["min_accepted_fraction"])  # type: ignore[arg-type]
    rows: List[Dict[str, object]] = []
    for threshold in thresholds:
        config = DetectionConfig(
            pair_threshold=threshold, min_accepted_fraction=min_fraction
        )
        if len(secret.pairs) == 0:
            rows.append(
                {
                    "threshold": threshold,
                    "repetitions": len(suspects),
                    "total_pairs": 0,
                    "required_pairs": 0,
                    "mean_accepted_pairs": 0.0,
                    "mean_accepted_fraction": 0.0,
                    "detected_rate": 0.0,
                    "detected": False,
                }
            )
            continue
        # The secret memoises its moduli, so only the first threshold's
        # detector derives them.
        report = detect_many(suspects, detector=WatermarkDetector(secret, config))
        fractions = [result.accepted_fraction for result in report]
        votes = [result.accepted for result in report]
        rows.append(
            {
                "threshold": threshold,
                "repetitions": len(suspects),
                "total_pairs": len(secret.pairs),
                "required_pairs": config.required_pairs(len(secret.pairs)),
                "mean_accepted_pairs": float(
                    np.mean([result.accepted_pairs for result in report])
                ),
                "mean_accepted_fraction": float(np.mean(fractions)),
                "detected_rate": float(np.mean(votes)),
                "detected": bool(np.mean(votes) >= 0.5),
            }
        )
    return {
        "dataset": task.params["dataset"],
        "secret_index": secret_index,
        "attack": task.params["attack"],
        "strength": task.params["strength"],
        "rows": rows,
    }


def run_baseline_task(
    task: Task, deps: Mapping[str, Mapping[str, object]], seed: int
) -> Dict[str, object]:
    """Embed one comparator watermark and profile its distortion."""
    dataset = _dep_of_kind(task, deps, "dataset:")
    counts = {str(token): int(count) for token, count in dataset["counts"].items()}  # type: ignore[union-attr]
    method = str(task.params["method"])
    if method == "wm-obt":
        watermarker = WmObtWatermarker(rng=task_rng(seed, task.fingerprint))
        result = watermarker.embed(counts)
        watermarked = result.watermarked_counts
        extra: Dict[str, object] = {
            "bit_recovery_rate": watermarker.bit_recovery_rate(watermarked, result)
        }
    elif method == "wm-rvs":
        watermarker = WmRvsWatermarker()
        result = watermarker.embed(counts)
        watermarked = result.watermarked_counts
        extra = {"detection_score": watermarker.detect(watermarked)}
    else:  # pragma: no cover - spec validation rejects unknown methods
        raise ReproError(f"unknown baseline method {method!r}")
    profile = distortion_report(counts, watermarked, method=method)
    return {
        "dataset": task.params["dataset"],
        "method": method,
        "distortion": profile.as_dict(),
        **extra,
    }


# --------------------------------------------------------------------------- #
# Analysis tasks
# --------------------------------------------------------------------------- #


def run_fpr_task(
    task: Task, deps: Mapping[str, Mapping[str, object]], seed: int
) -> Dict[str, object]:
    """False-positive behaviour of one embedded secret's actual moduli.

    Cross-checks three estimates per threshold, exactly as Section III-B4
    lays them out: the exact Poisson-Binomial survival function (the
    k-out-of-n recursion, exact in relative terms even for tails far
    below 1e-16), the Markov bound, and a Monte-Carlo simulation of
    detection on random unwatermarked remainders.
    """
    embed = _dep_of_kind(task, deps, "embed:")
    secret_index = int(task.params["secret_index"])  # type: ignore[arg-type]
    record = embed["results"][secret_index]  # type: ignore[index]
    secret = WatermarkSecret.from_dict(record["secret"])
    thresholds = [int(value) for value in task.params["thresholds"]]  # type: ignore[union-attr]
    min_fraction = float(task.params["min_accepted_fraction"])  # type: ignore[arg-type]
    trials = int(task.params["trials"])  # type: ignore[arg-type]
    usable = [modulus for modulus in secret.moduli().tolist() if modulus >= 2]
    rows: List[Dict[str, object]] = []
    for threshold in thresholds:
        if not usable:
            rows.append({"threshold": threshold, "pairs": 0})
            continue
        probabilities = [
            pair_false_positive_probability(modulus, threshold) for modulus in usable
        ]
        config = DetectionConfig(
            pair_threshold=threshold, min_accepted_fraction=min_fraction
        )
        required = config.required_pairs(len(usable))
        empirical = empirical_false_positive_rate(
            usable,
            threshold,
            required,
            trials=trials,
            rng=task_rng(seed, task.fingerprint, f"mc-{threshold}"),
        )
        rows.append(
            {
                "threshold": threshold,
                "pairs": len(usable),
                "required_pairs": required,
                "exact_probability": poisson_binomial_survival(probabilities, required),
                "markov_bound": markov_bound(probabilities, required),
                "empirical_rate": empirical,
                "trials": trials,
            }
        )
    return {
        "dataset": task.params["dataset"],
        "secret_index": secret_index,
        "rows": rows,
    }


def run_distortion_task(
    task: Task, deps: Mapping[str, Mapping[str, object]], seed: int
) -> Dict[str, object]:
    """Distortion profile of one FreqyWM embedding vs its original."""
    dataset = _dep_of_kind(task, deps, "dataset:")
    embed = _dep_of_kind(task, deps, "embed:")
    secret_index = int(task.params["secret_index"])  # type: ignore[arg-type]
    record = embed["results"][secret_index]  # type: ignore[index]
    original = {str(token): int(count) for token, count in dataset["counts"].items()}  # type: ignore[union-attr]
    watermarked = {
        str(token): int(count)
        for token, count in record["watermarked_counts"].items()
    }
    profile = distortion_report(original, watermarked, method="freqywm")
    return {
        "dataset": task.params["dataset"],
        "secret_index": secret_index,
        "distortion": profile.as_dict(),
        "selected_pairs": record["summary"]["selected_pairs"],
    }


def run_attribution_task(
    task: Task, deps: Mapping[str, Mapping[str, object]], seed: int
) -> Dict[str, object]:
    """Marketplace attribution at a sweep of vault sizes (docs/registry.md).

    Every embedded secret of the dataset becomes a registered buyer; the
    vault is then padded with synthetic decoy buyers up to each swept
    size. Secret 0's watermarked copy plays the leaked dataset, and each
    row records how the candidate index screened the vault — mode,
    candidates vs active secrets — plus whether attribution recovered
    exactly the real buyers a full linear ``detect_many_secrets`` scan
    convicts (the parity column is computed, not assumed).
    """
    from repro.core.batch import detect_many_secrets
    from repro.dispute import WatermarkRegistry

    dataset = _dep_of_kind(task, deps, "dataset:")
    embed = _dep_of_kind(task, deps, "embed:")
    vocab = sorted(str(token) for token in dataset["counts"])  # type: ignore[union-attr]
    secrets = [
        WatermarkSecret.from_dict(record["secret"])
        for record in embed["results"]  # type: ignore[union-attr]
    ]
    suspect = _histogram(embed["results"][0]["watermarked_counts"])  # type: ignore[index]
    config = DetectionConfig(
        pair_threshold=int(task.params["threshold"]),  # type: ignore[arg-type]
        min_accepted_fraction=float(task.params["min_accepted_fraction"]),  # type: ignore[arg-type]
    )
    modulus_cap = secrets[0].modulus_cap
    rows: List[Dict[str, object]] = []
    for vault_size in [int(value) for value in task.params["vault_sizes"]]:  # type: ignore[union-attr]
        registry = WatermarkRegistry()
        for index, secret in enumerate(secrets):
            registry.register(f"buyer-{index:05d}", secret)
        rng = task_rng(seed, task.fingerprint, f"vault-{vault_size}")
        for decoy in range(max(0, vault_size - len(secrets))):
            # Decoys pair up a fresh permutation of the vocabulary, so
            # their pairs are distinct tokens the real histogram holds.
            order = rng.permutation(len(vocab))
            pairs = [
                (vocab[order[2 * slot]], vocab[order[2 * slot + 1]])
                for slot in range(min(8, len(vocab) // 2))
            ]
            registry.register(
                f"decoy-{decoy:06d}",
                WatermarkSecret.build(
                    pairs, int(rng.integers(1, 2**63)), modulus_cap
                ),
            )
        matches = registry.attribute_leak(suspect, detection=config)
        stats = registry.last_attribution
        linear = {
            buyer
            for buyer, result in zip(
                registry.active_buyers,
                detect_many_secrets(
                    suspect,
                    [registry.secret_for(buyer) for buyer in registry.active_buyers],
                    config,
                ),
            )
            if result.accepted
        }
        matched = [buyer for buyer, _ in matches]
        rows.append(
            {
                "vault_size": len(registry.active_buyers),
                "mode": stats.mode if stats is not None else "empty",
                "candidates": stats.candidates if stats is not None else 0,
                "screened_fraction": (
                    stats.candidates / stats.active_secrets
                    if stats is not None and stats.active_secrets
                    else 0.0
                ),
                "matched_buyers": len(matched),
                "attributed": "buyer-00000" in matched,
                "linear_parity": set(matched) == linear,
            }
        )
    return {
        "dataset": task.params["dataset"],
        "threshold": int(task.params["threshold"]),  # type: ignore[arg-type]
        "rows": rows,
    }


def run_robustness_summary(
    task: Task, deps: Mapping[str, Mapping[str, object]], seed: int
) -> Dict[str, object]:
    """Stack every detect record into the flat robustness table."""
    rows: List[Dict[str, object]] = []
    for dep_id in task.deps:
        detect = dict(deps[dep_id])
        for row in detect["rows"]:  # type: ignore[union-attr]
            rows.append(
                {
                    "dataset": detect["dataset"],
                    "secret_index": detect["secret_index"],
                    "attack": detect["attack"],
                    "strength": detect["strength"],
                    **dict(row),
                }
            )
    rows.sort(
        key=lambda row: (
            str(row["dataset"]),
            int(row["secret_index"]),
            str(row["attack"]),
            float(row["strength"]),
            int(row["threshold"]),
        )
    )
    return {"rows": rows}


def run_baselines_summary(
    task: Task, deps: Mapping[str, Mapping[str, object]], seed: int
) -> Dict[str, object]:
    """Merge FreqyWM distortion rows with the comparator baselines'."""
    rows: List[Dict[str, object]] = []
    for dep_id in task.deps:
        record = dict(deps[dep_id])
        if dep_id.startswith("analysis:distortion:"):
            rows.append(
                {
                    "dataset": record["dataset"],
                    "method": "freqywm",
                    **dict(record["distortion"]),  # type: ignore[call-overload]
                }
            )
        else:  # baseline task
            rows.append(
                {
                    "dataset": record["dataset"],
                    "method": record["method"],
                    **dict(record["distortion"]),  # type: ignore[call-overload]
                }
            )
    rows.sort(key=lambda row: (str(row["dataset"]), str(row["method"])))
    return {"rows": rows}


_ANALYSIS_RUNNERS = {
    "fpr_curve": run_fpr_task,
    "distortion": run_distortion_task,
    "robustness": run_robustness_summary,
    "baselines": run_baselines_summary,
    "attribution": run_attribution_task,
}


def execute_task(
    task: Task,
    deps: Mapping[str, Mapping[str, object]],
    seed: int,
) -> Dict[str, object]:
    """Dispatch one task to its runner. Pure; safe to call in any process."""
    if task.kind == "dataset":
        return run_dataset_task(task, seed)
    if task.kind == "embed":
        return run_embed_task(task, deps, seed)
    if task.kind == "attack":
        return run_attack_task(task, deps, seed)
    if task.kind == "detect":
        return run_detect_task(task, deps, seed)
    if task.kind == "baseline":
        return run_baseline_task(task, deps, seed)
    if task.kind == "analysis":
        runner = _ANALYSIS_RUNNERS.get(str(task.params["analysis"]))
        if runner is None:  # pragma: no cover - spec validation rejects these
            raise ReproError(f"unknown analysis {task.params['analysis']!r}")
        return runner(task, deps, seed)
    raise ReproError(f"unknown task kind {task.kind!r}")  # pragma: no cover


__all__ = [
    "execute_task",
    "run_attack_task",
    "run_attribution_task",
    "run_baseline_task",
    "run_dataset_task",
    "run_detect_task",
    "run_distortion_task",
    "run_embed_task",
    "run_fpr_task",
    "task_rng",
]
