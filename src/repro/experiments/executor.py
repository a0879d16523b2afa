"""Resumable, sharded execution of an experiment DAG.

The executor walks the plan level by level (every level only depends on
earlier levels), skipping tasks whose fingerprint already has an artifact
in the run cache and handing the remainder to a
:class:`~repro.exec.scheduler.Scheduler`. Because every task draws its
randomness from a stream keyed by its own fingerprint
(:func:`repro.experiments.tasks.task_rng`), the artifacts — and therefore
the rendered reports — are bit-identical regardless of worker count,
scheduler or completion order.

Execution is configured by an :class:`~repro.exec.policy.ExecutionPolicy`:
the default (``workers`` unset or ``1``) never forks anything, local workers
that cannot start (restricted sandboxes) fall back to in-process execution
with a logged warning rather than failing the run, and
``ExecutionPolicy(scheduler="remote", addresses=...)`` fans the same plan
out to ``freqywm worker`` processes.
"""

from __future__ import annotations

import json
import logging
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.exec.blobs import default_blob_store, maybe_blob
from repro.exec.policy import ExecutionPolicy
from repro.exec.scheduler import TaskSpec, create_scheduler, register_task_function
from repro.experiments.cache import RunCache
from repro.experiments.plan import Task, build_plan, validate_plan
from repro.experiments.spec import ExperimentSpec
from repro.experiments.tasks import execute_task
from repro.obs.logging import get_logger, log_record
from repro.obs.trace import (
    configure_telemetry,
    enabled_features,
    metrics_active,
    span as trace_span,
    spans_active,
    tracer,
)
from repro.obs.report import SPANS_RELPATH

logger = get_logger(__name__)

#: Per-run stats-groups/trace summary written next to the manifest.
TELEMETRY_RELPATH = "telemetry.json"


@dataclass(frozen=True)
class RunResult:
    """Outcome of one ``run_experiment`` invocation.

    ``executed`` / ``cached`` count tasks per kind; a repeated run of an
    unchanged spec has ``executed == {}`` — every artifact is served from
    the content-addressed cache.
    """

    run_dir: Path
    spec_fingerprint: str
    workers: int
    executed: Dict[str, int] = field(default_factory=dict)
    cached: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    bytes_sent: int = 0
    bytes_deduped: int = 0

    @property
    def executed_total(self) -> int:
        return sum(self.executed.values())

    @property
    def cached_total(self) -> int:
        return sum(self.cached.values())

    def summary(self) -> Dict[str, object]:
        """Flat summary for the CLI and the run log."""
        return {
            "run_dir": str(self.run_dir),
            "spec_fingerprint": self.spec_fingerprint,
            "workers": self.workers,
            "executed": dict(self.executed),
            "cached": dict(self.cached),
            "executed_total": self.executed_total,
            "cached_total": self.cached_total,
            "seconds": round(self.seconds, 3),
            "bytes_sent": self.bytes_sent,
            "bytes_deduped": self.bytes_deduped,
        }


def _run_one(args: Tuple[Task, Dict[str, Dict[str, object]], int]):
    """Scheduler worker: execute one task and time it."""
    task, deps, seed = args
    start = time.perf_counter()
    result = execute_task(task, deps, seed)
    return task.task_id, result, time.perf_counter() - start


def _experiment_task(_state: object, payload):
    """Registered scheduler task wrapping :func:`_run_one` (stateless)."""
    return _run_one(payload)


register_task_function("experiment.task", _experiment_task)


class ExperimentRunner:
    """Drives one experiment plan to completion against a run cache."""

    def __init__(
        self,
        spec: ExperimentSpec,
        run_dir: Union[str, Path],
        *,
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        exec_policy = policy or ExecutionPolicy()
        if exec_policy.scheduler == "local" and exec_policy.workers is None:
            # Unset workers run sequentially, as in the batch functions
            # (sweeps are often cache-bound, not CPU-bound).
            exec_policy = exec_policy.merged(workers=1)
        if exec_policy.telemetry is not None:
            # The policy beats the environment, mirroring how the CLI's
            # --telemetry flag beats FREQYWM_TELEMETRY.
            configure_telemetry(exec_policy.telemetry)
        self.spec = spec
        self.policy = exec_policy
        self.plan = build_plan(spec)
        validate_plan(self.plan)
        self.cache = RunCache(run_dir)
        # One scheduler serves every level; a local one forks its workers
        # at the first level with more than one pending task.
        self._scheduler = create_scheduler(
            exec_policy, on_spawn_failure=self._spawn_failure
        )
        self.workers = self._scheduler.workers

    # ------------------------------------------------------------------ #

    def _spawn_failure(self, error: BaseException) -> None:
        """Keep the historical warning text on pool-startup fallback."""
        log_record(
            logger,
            logging.WARNING,
            "experiment worker pool unavailable; running level in-process "
            f"({type(error).__name__}: {error})",
            error=str(error),
            error_type=type(error).__name__,
        )
        warnings.warn(
            f"experiment worker pool unavailable ({error}); running in-process",
            RuntimeWarning,
            stacklevel=2,
        )

    def close(self) -> None:
        """Release the underlying scheduler (idempotent)."""
        self._scheduler.close()

    def run(self) -> RunResult:
        """Execute (or resume) the plan; returns executed/cached counters.

        With telemetry enabled the whole run becomes one trace: an
        ``experiment.run`` root span, one ``experiment.level`` span per
        plan level, and (transitively) the scheduler/task spans beneath
        them. Spans stream to ``telemetry/spans.jsonl`` under the run
        directory and a ``telemetry.json`` summary is written at the
        end — both consumed by ``freqywm trace report`` and
        ``tools/check_telemetry.py``.
        """
        if spans_active():
            # Earlier runs in this process already streamed their spans
            # to their own sinks; drain so the flush-on-attach behavior
            # of set_sink cannot leak them into this run's file.
            tracer().drain()
            tracer().set_sink(Path(self.cache.run_dir) / SPANS_RELPATH)
        try:
            with trace_span(
                "experiment.run",
                attributes={
                    "spec": self.plan.spec_fingerprint,
                    "workers": self._scheduler.workers,
                    "scheduler": self.policy.scheduler,
                },
            ):
                outcome = self._run_plan()
            if spans_active() or metrics_active():
                self._write_telemetry(outcome)
        finally:
            if spans_active():
                tracer().set_sink(None)
        return outcome

    def _write_telemetry(self, outcome: RunResult) -> None:
        """Write the per-run ``telemetry.json`` summary artifact."""
        payload: Dict[str, object] = {
            "features": sorted(enabled_features()),
            "run": outcome.summary(),
        }
        if metrics_active():
            # Stats groups of what this run used: its own scheduler and
            # the process-wide blob store its payloads went through.
            payload["metrics"] = {
                "views": {
                    "scheduler": self._scheduler.stats.as_dict(),
                    "blobs": default_blob_store().stats(),
                }
            }
        if spans_active():
            payload["spans"] = {
                "path": SPANS_RELPATH,
                "buffered": tracer().buffered,
                "dropped": tracer().dropped,
            }
        path = Path(self.cache.run_dir) / TELEMETRY_RELPATH
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8",
        )

    def _run_plan(self) -> RunResult:
        """The traced body of :meth:`run` (level loop and bookkeeping)."""
        started = time.perf_counter()
        self.cache.write_manifest(self.plan, self.spec.to_dict())
        results: Dict[str, Dict[str, object]] = {}
        executed: Dict[str, int] = {}
        cached: Dict[str, int] = {}
        use_blobs = self._scheduler.ships_payloads
        # Dependency artifacts are shared by every downstream task in a
        # level, so each is blobbed at most once per run; the memo holds
        # (replacement, refs) keyed by the dep's task id.
        dep_blobs: Dict[str, Tuple[object, Tuple[str, ...]]] = {}

        def dep_value(dep: str) -> Tuple[object, Tuple[str, ...]]:
            if dep not in dep_blobs:
                dep_blobs[dep] = maybe_blob(results[dep])
            return dep_blobs[dep]

        for index, level in enumerate(self.plan.levels()):
            pending: List[Task] = []
            for task in level:
                if self.cache.has(task.fingerprint):
                    cached[task.kind] = cached.get(task.kind, 0) + 1
                    results[task.task_id] = self.cache.load_result(task.fingerprint)
                else:
                    pending.append(task)
            if not pending:
                continue
            by_id = {task.task_id: task for task in pending}
            specs = []
            for task in pending:
                deps: Dict[str, object] = {}
                refs: Tuple[str, ...] = ()
                for dep in task.deps:
                    if use_blobs:
                        value, dep_refs = dep_value(dep)
                        refs += dep_refs
                    else:
                        value = results[dep]
                    deps[dep] = value
                specs.append(
                    TaskSpec(
                        fingerprint=task.fingerprint,
                        function="experiment.task",
                        payload=(task, deps, self.plan.seed),
                        blob_refs=refs,
                    )
                )

            def handle(_index: int, value) -> None:
                # Streamed as tasks complete, not at the level barrier: an
                # interrupted sharded run then resumes at task granularity,
                # as cache.py documents. A scheduler calls on_result on the
                # thread that called run, so nothing here needs a lock.
                task_id, result, seconds = value
                task = by_id[task_id]
                self.cache.store(task, result, seconds=seconds)
                results[task_id] = dict(result)
                executed[task.kind] = executed.get(task.kind, 0) + 1

            with trace_span(
                "experiment.level",
                attributes={"level": index, "tasks": len(pending)},
            ):
                self._scheduler.run(specs, on_result=handle)

        stats = self._scheduler.stats
        outcome = RunResult(
            run_dir=self.cache.run_dir,
            spec_fingerprint=self.plan.spec_fingerprint,
            workers=self._scheduler.workers,
            executed=executed,
            cached=cached,
            seconds=time.perf_counter() - started,
            bytes_sent=stats.bytes_sent,
            bytes_deduped=stats.bytes_deduped,
        )
        self.cache.write_run_log(outcome.summary())
        return outcome


def run_experiment(
    spec: ExperimentSpec,
    run_dir: Union[str, Path],
    *,
    policy: Optional[ExecutionPolicy] = None,
) -> RunResult:
    """Plan, execute (or resume) and log one experiment run."""
    runner = ExperimentRunner(spec, run_dir, policy=policy)
    try:
        return runner.run()
    finally:
        runner.close()


def load_artifacts(run_dir: Union[str, Path]) -> Dict[str, Dict[str, object]]:
    """Artifacts of a finished run, keyed by ``task_id`` (via the manifest)."""
    cache = RunCache(run_dir)
    manifest = cache.read_manifest()
    artifacts: Dict[str, Dict[str, object]] = {}
    for entry in manifest["tasks"]:  # type: ignore[union-attr]
        fingerprint = str(entry["fingerprint"])  # type: ignore[index]
        if cache.has(fingerprint):
            artifacts[str(entry["task_id"])] = cache.load(fingerprint)  # type: ignore[index]
    return artifacts


__all__ = [
    "TELEMETRY_RELPATH",
    "ExperimentRunner",
    "RunResult",
    "load_artifacts",
    "run_experiment",
]
