#!/usr/bin/env python3
"""Robustness study: how well does a FreqyWM watermark survive attacks?

A data owner wants to pick detection thresholds (t, k) before publishing a
watermarked dataset. This example watermarks a synthetic power-law workload
(the paper's Section V setting) and then plays the adversary:

* sampling attack  — pirate only a fraction of the rows,
* destroy attacks  — perturb frequencies with and without re-ordering,
* re-watermarking  — embed a second watermark and dispute ownership,
* guess attack     — brute-force forged secrets.

For each attack it reports the verified-pair fraction so the owner can see
which (t, k) region keeps false negatives and false positives low.

Run with:  python examples/attack_robustness_study.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.attacks.evaluation import RobustnessEvaluator
from repro.attacks.guess import GuessAttack
from repro.core.config import DetectionConfig, GenerationConfig
from repro.datasets.synthetic import generate_power_law_histogram
from repro.obs.report import render_report
from repro.obs.trace import configure_telemetry, tracer


def main() -> None:
    histogram = generate_power_law_histogram(
        0.5, n_tokens=250, sample_size=250_000, mode="sampled", rng=5
    )
    config = GenerationConfig(budget_percent=2.0, modulus_cap=131)
    evaluator = RobustnessEvaluator(config, rng=42)

    print("watermarking the reference dataset and running the attack suite...")
    # Record the evaluation's spans: one per attack family, with the
    # generation stages, detector builds and detect passes beneath them.
    configure_telemetry("spans")
    report = evaluator.evaluate(
        histogram,
        sampling_fractions=(0.05, 0.2, 0.5),
        sampling_thresholds=(0, 2, 10),
        destroy_thresholds=(0, 2, 4, 10),
        reordering_percents=(10, 50, 90),
        repetitions=2,
    )
    spans = tracer().drain()
    configure_telemetry(None)
    watermark = report.watermark
    print(f"\nreference watermark: {watermark.pair_count} pairs, "
          f"similarity {watermark.similarity_percent:.4f}%")

    print("\n--- sampling attack (owner rescales the suspect before detection) ---")
    print(format_table([
        {
            "sample_fraction": point.fraction,
            "t": point.pair_threshold,
            "verified_pairs": f"{point.accepted_pairs}/{point.total_pairs}",
            "detected": point.detected,
        }
        for point in report.sampling
    ]))

    print("\n--- destroy attacks: verified pair fraction vs t ---")
    rows = []
    thresholds = [point.pair_threshold for point in report.destroy_threshold_sweeps["no-attack"]]
    for index, threshold in enumerate(thresholds):
        row = {"t": threshold}
        for label, points in report.destroy_threshold_sweeps.items():
            row[label] = points[index].accepted_fraction
        rows.append(row)
    print(format_table(rows))

    print("\n--- destroy attack with re-ordering (t = 4) ---")
    print(format_table([
        {"noise_percent": percent, "verified_pair_fraction": fraction}
        for percent, fraction in sorted(report.reordering_success.items())
    ]))

    if report.rewatermark is not None:
        outcome = report.rewatermark
        print("\n--- re-watermarking attack ---")
        print(f"  owner's pairs still verified on the pirate's version: "
              f"{outcome.owner_pair_survival:.0%}")
        print(f"  pirate's *modified* pairs verified on the owner's version: "
              f"{outcome.attacker_modified_pair_survival_on_owner:.0%}")

    print("\n--- evaluation profile (the evaluation's spans) ---")
    print(render_report(spans, limit=0))

    print("\n--- guess attack (forged secrets) ---")
    guess = GuessAttack(guessed_pairs=20, modulus_cap=131, rng=9)
    guess_report = guess.run(
        watermark.watermarked_histogram,
        attempts=200,
        detection=DetectionConfig(pair_threshold=0),
    )
    print(f"  {guess_report.successes} successful forgeries in "
          f"{guess_report.attempts} attempts "
          f"(analytical probability per guess: "
          f"{guess_report.analytical_success_probability:.2e})")

    print("\nguidance: pick t where the attacked curves are still above your "
          "detection fraction k while the non-watermarked control stays below it "
          "(see Figure 5 of the paper and benchmarks/bench_fig5_destroy.py).")


if __name__ == "__main__":
    main()
