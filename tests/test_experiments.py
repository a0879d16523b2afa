"""End-to-end tests for the experiment orchestration engine.

Pins the subsystem's three contracts:

* **resume** — an immediately repeated run performs *zero* task
  executions (everything is served from the content-addressed cache),
  and deleting one artifact re-executes exactly that task;
* **worker parity** — ``workers=N`` produces artifacts and reports
  bit-identical to a serial run (task RNG streams are keyed by task
  fingerprint, never by schedule);
* **reporting** — the rendered Markdown/JSON is deterministic and
  carries the paper-mapped sections.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError, ReproError
from repro.exec.policy import ExecutionPolicy
from repro.experiments import (
    CacheError,
    ExperimentSpec,
    RunCache,
    build_plan,
    build_report,
    load_artifacts,
    render_markdown,
    run_experiment,
    validate_plan,
    write_report,
)
from repro.experiments.plan import Task, task_fingerprint

SPEC_DIR = Path(__file__).resolve().parent.parent / "experiments" / "specs"


def _tiny_spec(**overrides) -> ExperimentSpec:
    payload = {
        "name": "tiny",
        "seed": 11,
        "datasets": [
            {
                "name": "pl",
                "kind": "power-law",
                "alpha": 0.5,
                "tokens": 50,
                "samples": 20_000,
            }
        ],
        "generation": {"budget_percent": 2.0, "modulus_cap": 19},
        "secrets_per_dataset": 1,
        "attacks": [{"kind": "sampling", "strengths": [0.5], "repetitions": 2}],
        "thresholds": [0, 2],
        "analyses": ["robustness", "fpr_curve", "distortion", "baselines"],
        "baselines": ["wm-rvs"],
        "fpr_trials": 200,
    }
    payload.update(overrides)
    return ExperimentSpec.from_dict(payload)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One executed tiny run, shared by the read-only assertions."""
    run_dir = tmp_path_factory.mktemp("experiment") / "run"
    spec = _tiny_spec()
    outcome = run_experiment(spec, run_dir, policy=ExecutionPolicy(workers=1))
    return spec, run_dir, outcome


class TestPlan:
    def test_plan_covers_every_kind_and_validates(self):
        plan = build_plan(_tiny_spec())
        validate_plan(plan)
        counts = plan.counts()
        assert counts["dataset"] == 1
        assert counts["embed"] == 1
        assert counts["attack"] == 1
        assert counts["detect"] == 2  # no-attack row + the sampling cell
        assert counts["baseline"] == 1
        # robustness + baselines summaries, fpr + distortion per secret.
        assert counts["analysis"] == 4

    def test_levels_respect_dependencies(self):
        plan = build_plan(_tiny_spec())
        position = {}
        for index, level in enumerate(plan.levels()):
            for task in level:
                position[task.task_id] = index
        for task in plan:
            for dep in task.deps:
                assert position[dep] < position[task.task_id]

    def test_fingerprints_are_content_addressed(self):
        base = build_plan(_tiny_spec()).by_id()
        reseeded = build_plan(_tiny_spec(seed=12)).by_id()
        assert base.keys() == reseeded.keys()
        for task_id in base:
            assert base[task_id].fingerprint != reseeded[task_id].fingerprint

    def test_editing_the_grid_invalidates_only_the_subtree(self):
        base = build_plan(_tiny_spec()).by_id()
        edited = build_plan(
            _tiny_spec(attacks=[{"kind": "sampling", "strengths": [0.9], "repetitions": 2}])
        ).by_id()
        # Upstream of the edit: identical fingerprints, cache reusable.
        assert base["dataset:pl"].fingerprint == edited["dataset:pl"].fingerprint
        assert base["embed:pl"].fingerprint == edited["embed:pl"].fingerprint
        # The edited attack cell and its detect row changed.
        assert (
            base["attack:pl:s0:sampling.0:0.5"].fingerprint
            != edited["attack:pl:s0:sampling.0:0.9"].fingerprint
        )

    def test_same_cell_in_two_attack_entries_plans_cleanly(self):
        """Two attack entries sharing kind+strength (differing only in
        repetitions) must get distinct task ids, not a planner crash."""
        plan = build_plan(
            _tiny_spec(
                attacks=[
                    {"kind": "sampling", "strengths": [0.5], "repetitions": 1},
                    {"kind": "sampling", "strengths": [0.5], "repetitions": 3},
                ]
            )
        )
        validate_plan(plan)
        attack_tasks = plan.of_kind("attack")
        assert len(attack_tasks) == 2
        assert len({task.task_id for task in attack_tasks}) == 2
        assert len({task.fingerprint for task in attack_tasks}) == 2

    def test_validate_plan_rejects_stale_fingerprints(self):
        plan = build_plan(_tiny_spec())
        forged = plan.tasks[:-1] + (
            Task(
                task_id=plan.tasks[-1].task_id,
                kind=plan.tasks[-1].kind,
                params=plan.tasks[-1].params,
                deps=plan.tasks[-1].deps,
                fingerprint="0" * 64,
            ),
        )
        with pytest.raises(ConfigurationError):
            validate_plan(
                type(plan)(
                    spec_fingerprint=plan.spec_fingerprint,
                    seed=plan.seed,
                    tasks=forged,
                )
            )

    def test_task_fingerprint_depends_on_dependencies(self):
        base = task_fingerprint("detect", {"x": 1}, ("a" * 64,), 0)
        assert base != task_fingerprint("detect", {"x": 1}, ("b" * 64,), 0)
        assert base != task_fingerprint("detect", {"x": 2}, ("a" * 64,), 0)
        assert base != task_fingerprint("embed", {"x": 1}, ("a" * 64,), 0)


class TestCache:
    def test_store_load_roundtrip(self, tmp_path):
        cache = RunCache(tmp_path / "run")
        task = build_plan(_tiny_spec()).tasks[0]
        cache.store(task, {"value": 1}, seconds=0.5)
        assert cache.has(task.fingerprint)
        record = cache.load(task.fingerprint)
        assert record["task_id"] == task.task_id
        assert record["result"] == {"value": 1}
        assert cache.load_result(task.fingerprint) == {"value": 1}

    def test_missing_and_corrupt_artifacts_raise(self, tmp_path):
        cache = RunCache(tmp_path / "run")
        with pytest.raises(CacheError):
            cache.load("f" * 64)
        cache.artifact_dir.mkdir(parents=True)
        bad = cache.artifact_dir / ("e" * 64 + ".json")
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(CacheError):
            cache.load("e" * 64)

    def test_read_only_operations_create_no_directories(self, tmp_path):
        """A mistyped run_dir must not leave stray directories behind."""
        missing = tmp_path / "typo-run"
        cache = RunCache(missing)
        assert not cache.has("f" * 64)
        assert list(cache.fingerprints()) == []
        with pytest.raises(CacheError):
            build_report(missing)
        assert not missing.exists()

    def test_fingerprint_mismatch_detected(self, tmp_path):
        cache = RunCache(tmp_path / "run")
        task = build_plan(_tiny_spec()).tasks[0]
        cache.store(task, {"value": 1})
        # A renamed artifact (wrong key for its content) must not be served.
        moved = cache.artifact_dir / ("d" * 64 + ".json")
        (cache.artifact_dir / f"{task.fingerprint}.json").rename(moved)
        with pytest.raises(CacheError):
            cache.load("d" * 64)

    def test_report_on_non_run_directory_raises(self, tmp_path):
        with pytest.raises(CacheError):
            build_report(tmp_path)


class TestExecutor:
    def test_first_run_executes_everything(self, tiny_run):
        _spec, _run_dir, outcome = tiny_run
        assert outcome.cached_total == 0
        assert outcome.executed["embed"] == 1
        assert outcome.executed["detect"] == 2

    def test_repeat_run_is_pure_cache(self, tiny_run):
        spec, run_dir, outcome = tiny_run
        again = run_experiment(spec, run_dir, policy=ExecutionPolicy(workers=1))
        # The acceptance contract: zero embed/detect (indeed zero any)
        # task executions on an immediately repeated run.
        assert again.executed == {}
        assert again.executed_total == 0
        assert again.cached_total == outcome.executed_total

    def test_resume_reexecutes_only_the_missing_task(self, tiny_run):
        spec, run_dir, _outcome = tiny_run
        cache = RunCache(run_dir)
        manifest = cache.read_manifest()
        detect_entries = [
            entry for entry in manifest["tasks"] if entry["kind"] == "detect"
        ]
        victim = detect_entries[0]
        (cache.artifact_dir / f"{victim['fingerprint']}.json").unlink()
        resumed = run_experiment(spec, run_dir, policy=ExecutionPolicy(workers=1))
        assert resumed.executed == {"detect": 1}

    def test_run_log_written(self, tiny_run):
        spec, run_dir, _outcome = tiny_run
        run_experiment(spec, run_dir, policy=ExecutionPolicy(workers=1))
        log = RunCache(run_dir).read_run_log()
        assert log is not None
        assert log["executed_total"] == 0
        assert log["spec_fingerprint"] == spec.fingerprint()

    def test_invalid_worker_count_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            run_experiment(
                _tiny_spec(), tmp_path / "run", policy=ExecutionPolicy(workers=0)
            )


class TestWorkerParity:
    def test_sharded_run_is_bit_identical_to_serial(self, tiny_run, tmp_path):
        """--workers N parity: artifacts and reports match byte for byte."""
        spec, serial_dir, _outcome = tiny_run
        sharded_dir = tmp_path / "sharded"
        outcome = run_experiment(spec, sharded_dir, policy=ExecutionPolicy(workers=3))
        assert outcome.executed_total > 0
        serial_artifacts = sorted(
            path.name for path in (Path(serial_dir) / "artifacts").iterdir()
        )
        sharded_artifacts = sorted(
            path.name for path in (sharded_dir / "artifacts").iterdir()
        )
        assert serial_artifacts == sharded_artifacts
        for name in serial_artifacts:
            serial_record = json.loads(
                (Path(serial_dir) / "artifacts" / name).read_text(encoding="utf-8")
            )
            sharded_record = json.loads(
                (sharded_dir / "artifacts" / name).read_text(encoding="utf-8")
            )
            # Results (and params/ids) are identical; only wall-clock
            # `seconds` may differ between schedules.
            assert serial_record["result"] == sharded_record["result"]
            assert serial_record["task_id"] == sharded_record["task_id"]
        serial_json, serial_md = write_report(serial_dir)
        sharded_json, sharded_md = write_report(sharded_dir)
        assert serial_json.read_bytes() == sharded_json.read_bytes()
        assert serial_md.read_bytes() == sharded_md.read_bytes()


class TestReport:
    def test_report_sections_present(self, tiny_run):
        _spec, run_dir, _outcome = tiny_run
        report = build_report(run_dir)
        assert report["experiment"] == "tiny"
        assert report["watermarks"], "embed summaries must be reported"
        assert {row["attack"] for row in report["robustness"]} == {"none", "sampling"}
        assert "pl / secret 0" in report["fpr_curve"]
        methods = {row["method"] for row in report["baseline_comparison"]}
        assert methods == {"freqywm", "wm-rvs"}

    def test_fpr_rows_are_consistent(self, tiny_run):
        _spec, run_dir, _outcome = tiny_run
        report = build_report(run_dir)
        for rows in report["fpr_curve"].values():
            for row in rows:
                assert 0.0 <= row["exact_probability"] <= 1.0
                assert row["exact_probability"] <= row["markov_bound"] + 1e-12
                assert 0.0 <= row["empirical_rate"] <= 1.0

    def test_markdown_rendering(self, tiny_run):
        _spec, run_dir, _outcome = tiny_run
        markdown = render_markdown(build_report(run_dir))
        assert "# Experiment report: tiny" in markdown
        assert "## Robustness vs attack strength" in markdown
        assert "## False-positive curve" in markdown
        assert "## Baseline comparison" in markdown
        assert "| dataset |" in markdown

    def test_write_report_is_idempotent(self, tiny_run):
        _spec, run_dir, _outcome = tiny_run
        first_json, first_md = write_report(run_dir)
        before = (first_json.read_bytes(), first_md.read_bytes())
        second_json, second_md = write_report(run_dir)
        assert (second_json.read_bytes(), second_md.read_bytes()) == before

    def test_load_artifacts_keyed_by_task_id(self, tiny_run):
        _spec, run_dir, _outcome = tiny_run
        artifacts = load_artifacts(run_dir)
        assert "embed:pl" in artifacts
        assert artifacts["embed:pl"]["kind"] == "embed"


class TestEdgePaths:
    """Uniform (no-embed) datasets, destroy attacks, the WM-OBT baseline."""

    @pytest.fixture(scope="class")
    def edge_run(self, tmp_path_factory):
        spec = ExperimentSpec.from_dict(
            {
                "name": "edge",
                "seed": 5,
                "datasets": [
                    {"name": "flat", "kind": "uniform", "tokens": 20, "samples": 1000},
                    {
                        "name": "pl",
                        "kind": "power-law",
                        "alpha": 0.6,
                        "tokens": 40,
                        "samples": 8000,
                    },
                ],
                "generation": {"budget_percent": 2.0, "modulus_cap": 7},
                "attacks": [
                    {"kind": "boundary", "strengths": [1.0], "repetitions": 1},
                    {"kind": "percentage", "strengths": [1.0], "repetitions": 1},
                ],
                "thresholds": [0],
                "analyses": ["robustness", "fpr_curve", "distortion", "baselines"],
                "baselines": ["wm-obt"],
                "fpr_trials": 50,
            }
        )
        run_dir = tmp_path_factory.mktemp("experiment-edge") / "run"
        run_experiment(spec, run_dir, policy=ExecutionPolicy(workers=1))
        return build_report(run_dir)

    def test_uniform_dataset_is_a_negative_control(self, edge_run):
        """FreqyWM cannot embed in a flat histogram: zero pairs, never
        detected — the degenerate regime the paper calls out."""
        flat_rows = [row for row in edge_run["robustness"] if row["dataset"] == "flat"]
        assert flat_rows, "the uniform dataset must still produce detect rows"
        assert all(row["total_pairs"] == 0 for row in flat_rows)
        assert all(not row["detected"] for row in flat_rows)
        # The FPR analysis degrades gracefully to a pair-less row.
        assert edge_run["fpr_curve"]["flat / secret 0"] == [
            {"pairs": 0, "threshold": 0}
        ]

    def test_destroy_attack_kinds_produce_rows(self, edge_run):
        attacks = {row["attack"] for row in edge_run["robustness"]}
        assert {"none", "boundary", "percentage"} <= attacks

    def test_wm_obt_baseline_compared(self, edge_run):
        methods = {row["method"] for row in edge_run["baseline_comparison"]}
        assert methods == {"freqywm", "wm-obt"}


class TestBundledSmokeSpec:
    def test_bundled_smoke_spec_runs_and_caches(self, tmp_path):
        """The CI experiment-smoke contract, exercised at test scale."""
        spec = ExperimentSpec.load(SPEC_DIR / "smoke.json")
        run_dir = tmp_path / "smoke-run"
        first = run_experiment(spec, run_dir, policy=ExecutionPolicy(workers=2))
        assert first.executed_total > 0
        second = run_experiment(spec, run_dir, policy=ExecutionPolicy(workers=2))
        assert second.executed_total == 0
        json_path, md_path = write_report(run_dir)
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["experiment"] == "smoke"
        assert md_path.read_text(encoding="utf-8").startswith(
            "# Experiment report: smoke"
        )


class TestCli:
    def test_experiment_run_and_report(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        _tiny_spec().save(spec_path)
        run_dir = tmp_path / "run"
        exit_code = main(
            [
                "--json",
                "experiment",
                "run",
                str(spec_path),
                "--out",
                str(run_dir),
                "--workers",
                "2",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["executed_total"] > 0
        assert (run_dir / "report.md").exists()

        # Immediate rerun: everything cached.
        exit_code = main(
            ["--json", "experiment", "run", str(spec_path), "--out", str(run_dir)]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["executed_total"] == 0
        assert payload["executed"] == {}

        exit_code = main(["experiment", "report", str(run_dir)])
        assert exit_code == 0
        assert "# Experiment report: tiny" in capsys.readouterr().out

    def test_experiment_report_on_missing_run_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        exit_code = main(["experiment", "report", str(tmp_path)])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err
