"""Experiment orchestration: declarative, resumable, sharded reproduction.

This package turns the library's fast primitives (batched embedding,
vectorized detection, sharded batches, cached detectors) into a
first-class experiment runner:

* :mod:`repro.experiments.spec` — declarative :class:`ExperimentSpec`
  (JSON/TOML loadable) describing a grid sweep;
* :mod:`repro.experiments.plan` — pure planner expanding a spec into a
  DAG of content-addressed tasks;
* :mod:`repro.experiments.cache` — on-disk run cache keyed by task
  fingerprint (resume + zero-work reruns);
* :mod:`repro.experiments.tasks` — pure task functions over the batched
  primitives, RNG-keyed by task fingerprint (worker-count parity);
* :mod:`repro.experiments.executor` — level-parallel executor with
  worker-process sharding;
* :mod:`repro.experiments.report` — paper-mapped Markdown + JSON
  rendering of finished runs.

Bundled specs reproducing the paper's evaluation live in
``experiments/specs/`` at the repository root; the CLI surface is
``freqywm experiment run SPEC --workers N`` and
``freqywm experiment report RUN_DIR`` (see ``docs/experiments.md``).
"""

from repro.experiments.cache import CacheError, RunCache
from repro.experiments.executor import (
    ExperimentRunner,
    RunResult,
    load_artifacts,
    run_experiment,
)
from repro.experiments.plan import ExperimentPlan, Task, build_plan, validate_plan
from repro.experiments.report import build_report, render_markdown, write_report
from repro.experiments.spec import (
    AttackSpec,
    DatasetSpec,
    ExperimentSpec,
    load_spec,
)

__all__ = [
    "AttackSpec",
    "CacheError",
    "DatasetSpec",
    "ExperimentPlan",
    "ExperimentRunner",
    "ExperimentSpec",
    "RunCache",
    "RunResult",
    "Task",
    "build_plan",
    "build_report",
    "load_artifacts",
    "load_spec",
    "render_markdown",
    "run_experiment",
    "validate_plan",
    "write_report",
]
