"""Render a finished experiment run into paper-mapped Markdown + JSON.

The report layer is a *pure renderer*: it reads the manifest and the
analysis artifacts of a run directory and lays them out as the tables
the paper reports — the robustness-vs-attack-strength sweep (Figures 4
and 5, Section V), the false-positive curve (Section III-B4) and the
baseline distortion comparison (Section IV-D / Figure 3). No wall-clock
values enter the rendered output, so reports are bit-identical across
reruns and worker counts; timings stay in ``run_log.json`` and the
per-artifact ``seconds`` fields.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.cache import RunCache
from repro.experiments.executor import load_artifacts

#: Columns of the robustness table, in render order.
_ROBUSTNESS_COLUMNS = (
    "dataset",
    "secret_index",
    "attack",
    "strength",
    "threshold",
    "repetitions",
    "mean_accepted_fraction",
    "detected_rate",
    "detected",
)

_FPR_COLUMNS = (
    "threshold",
    "pairs",
    "required_pairs",
    "exact_probability",
    "markov_bound",
    "empirical_rate",
)

_BASELINE_COLUMNS = (
    "dataset",
    "method",
    "similarity_percent",
    "distortion_percent",
    "rank_changes",
    "ranking_preserved",
    "tokens_changed",
)

_ATTRIBUTION_COLUMNS = (
    "vault_size",
    "mode",
    "candidates",
    "screened_fraction",
    "matched_buyers",
    "attributed",
    "linear_parity",
)

_WATERMARK_COLUMNS = (
    "dataset",
    "secret_index",
    "selected_pairs",
    "similarity_percent",
    "distortion_percent",
    "total_changes",
)


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def markdown_table(
    rows: Sequence[Mapping[str, object]], columns: Sequence[str]
) -> str:
    """Render rows as a GitHub-flavoured markdown table."""
    if not rows:
        return "*(no rows)*"
    header = "| " + " | ".join(columns) + " |"
    rule = "| " + " | ".join("---" for _ in columns) + " |"
    body = [
        "| "
        + " | ".join(_format_cell(row.get(column, "")) for column in columns)
        + " |"
        for row in rows
    ]
    return "\n".join([header, rule, *body])


# --------------------------------------------------------------------------- #
# Section extraction
# --------------------------------------------------------------------------- #


def _watermark_rows(
    manifest: Mapping[str, object], artifacts: Mapping[str, Mapping[str, object]]
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for entry in manifest["tasks"]:  # type: ignore[union-attr]
        if entry["kind"] != "embed":  # type: ignore[index]
            continue
        artifact = artifacts.get(str(entry["task_id"]))  # type: ignore[index]
        if artifact is None:
            continue
        dataset = str(entry["params"]["dataset"])  # type: ignore[index]
        for index, record in enumerate(artifact["result"]["results"]):  # type: ignore[index]
            summary = dict(record["summary"])
            rows.append(
                {
                    "dataset": dataset,
                    "secret_index": index,
                    "selected_pairs": summary.get("selected_pairs"),
                    "similarity_percent": summary.get("similarity_percent"),
                    "distortion_percent": summary.get("distortion_percent"),
                    "total_changes": summary.get("total_changes"),
                }
            )
    rows.sort(key=lambda row: (str(row["dataset"]), int(row["secret_index"])))
    return rows


def _analysis_result(
    artifacts: Mapping[str, Mapping[str, object]], task_id: str
) -> Optional[Dict[str, object]]:
    artifact = artifacts.get(task_id)
    if artifact is None:
        return None
    return dict(artifact["result"])  # type: ignore[arg-type]


def _fpr_sections(
    artifacts: Mapping[str, Mapping[str, object]],
) -> List[Tuple[str, List[Dict[str, object]]]]:
    sections: List[Tuple[str, List[Dict[str, object]]]] = []
    for task_id in sorted(artifacts):
        if not task_id.startswith("analysis:fpr:"):
            continue
        result = dict(artifacts[task_id]["result"])  # type: ignore[arg-type]
        label = f"{result['dataset']} / secret {result['secret_index']}"
        sections.append((label, [dict(row) for row in result["rows"]]))  # type: ignore[union-attr]
    return sections


def _attribution_sections(
    artifacts: Mapping[str, Mapping[str, object]],
) -> List[Tuple[str, List[Dict[str, object]]]]:
    sections: List[Tuple[str, List[Dict[str, object]]]] = []
    for task_id in sorted(artifacts):
        if not task_id.startswith("analysis:attribution:"):
            continue
        result = dict(artifacts[task_id]["result"])  # type: ignore[arg-type]
        label = f"{result['dataset']} (threshold {result['threshold']})"
        sections.append((label, [dict(row) for row in result["rows"]]))  # type: ignore[union-attr]
    return sections


def build_report(run_dir: Union[str, Path]) -> Dict[str, object]:
    """Assemble the deterministic JSON report of a finished run."""
    cache = RunCache(run_dir)
    manifest = cache.read_manifest()
    artifacts = load_artifacts(run_dir)
    spec = dict(manifest["spec"])  # type: ignore[arg-type]
    report: Dict[str, object] = {
        "experiment": spec.get("name"),
        "description": spec.get("description"),
        "spec_fingerprint": manifest["spec_fingerprint"],
        "seed": manifest["seed"],
        "watermarks": _watermark_rows(manifest, artifacts),
    }
    robustness = _analysis_result(artifacts, "analysis:robustness")
    if robustness is not None:
        report["robustness"] = robustness["rows"]
    fpr_sections = _fpr_sections(artifacts)
    if fpr_sections:
        report["fpr_curve"] = {label: rows for label, rows in fpr_sections}
    baselines = _analysis_result(artifacts, "analysis:baselines")
    if baselines is not None:
        report["baseline_comparison"] = baselines["rows"]
    attribution_sections = _attribution_sections(artifacts)
    if attribution_sections:
        report["attribution"] = {label: rows for label, rows in attribution_sections}
    return report


def render_markdown(report: Mapping[str, object]) -> str:
    """Render the JSON report as the paper-mapped markdown document."""
    lines: List[str] = [
        f"# Experiment report: {report['experiment']}",
        "",
    ]
    description = str(report.get("description") or "").strip()
    if description:
        lines += [description, ""]
    lines += [
        f"- spec fingerprint: `{report['spec_fingerprint']}`",
        f"- seed: {report['seed']}",
        "",
        "## Embedded watermarks",
        "",
        markdown_table(report.get("watermarks", ()), _WATERMARK_COLUMNS),  # type: ignore[arg-type]
        "",
    ]
    if "robustness" in report:
        lines += [
            "## Robustness vs attack strength (paper Section V, Figures 4–5)",
            "",
            markdown_table(report["robustness"], _ROBUSTNESS_COLUMNS),  # type: ignore[arg-type]
            "",
        ]
    if "fpr_curve" in report:
        lines += ["## False-positive curve (paper Section III-B4)", ""]
        for label, rows in report["fpr_curve"].items():  # type: ignore[union-attr]
            lines += [f"### {label}", "", markdown_table(rows, _FPR_COLUMNS), ""]
    if "baseline_comparison" in report:
        lines += [
            "## Baseline comparison (paper Section IV-D, Figure 3)",
            "",
            markdown_table(report["baseline_comparison"], _BASELINE_COLUMNS),  # type: ignore[arg-type]
            "",
        ]
    if "attribution" in report:
        lines += [
            "## Leak attribution at scale (marketplace workflow, Section III-C)",
            "",
        ]
        for label, rows in report["attribution"].items():  # type: ignore[union-attr]
            lines += [f"### {label}", "", markdown_table(rows, _ATTRIBUTION_COLUMNS), ""]
    return "\n".join(lines)


def write_report(
    run_dir: Union[str, Path],
    report: Optional[Mapping[str, object]] = None,
) -> Tuple[Path, Path]:
    """Render and persist ``report.json`` + ``report.md`` into the run dir.

    Returns the two written paths. Output depends only on the cached
    artifacts, so repeated calls are byte-identical. Callers that already
    hold a :func:`build_report` payload may pass it as ``report`` to skip
    re-reading every artifact.
    """
    run_dir = Path(run_dir)
    if report is None:
        report = build_report(run_dir)
    json_path = run_dir / "report.json"
    md_path = run_dir / "report.md"
    json_path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    md_path.write_text(render_markdown(report) + "\n", encoding="utf-8")
    return json_path, md_path


__all__ = [
    "build_report",
    "markdown_table",
    "render_markdown",
    "write_report",
]
