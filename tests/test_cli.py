"""Unit tests for the ``freqywm`` command line interface."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.core.histogram import TokenHistogram
from repro.core.secrets import WatermarkSecret
from repro.datasets.loaders import load_token_file, save_token_file
from repro.datasets.synthetic import generate_power_law_tokens
from repro.dispute import WatermarkRegistry
from repro.obs.report import load_spans
from repro.obs.trace import configure_telemetry, tracer
from repro.obs.trace import span as trace_span
from repro.service import DetectRequest, decode_response, encode_line


@pytest.fixture()
def token_file(tmp_path) -> Path:
    path = tmp_path / "tokens.txt"
    tokens = generate_power_law_tokens(0.7, n_tokens=50, sample_size=6_000, rng=3)
    save_token_file(tokens, path)
    return path


def test_cli_import_loads_neither_scipy_nor_networkx():
    """``import repro.cli`` (every ``serve`` / ``worker`` start) leaves
    scipy and networkx to the functions that need them."""
    source = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    probe = "import sys, repro.cli; print(sorted({'scipy', 'networkx'} & set(sys.modules)))"
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert completed.stdout.strip() == "[]", completed.stdout + completed.stderr


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["synth", "out.txt", "--alpha", "0.7"])
        assert args.command == "synth"
        assert args.alpha == 0.7

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestGenerateDetect:
    def test_generate_then_detect_roundtrip(self, token_file, tmp_path, capsys):
        watermarked = tmp_path / "watermarked.txt"
        secret = tmp_path / "secret.json"
        exit_code = main(
            [
                "generate",
                str(token_file),
                str(watermarked),
                str(secret),
                "--modulus",
                "31",
                "--seed",
                "7",
            ]
        )
        assert exit_code == 0
        assert watermarked.exists() and secret.exists()
        WatermarkSecret.load(secret)  # parses
        output = capsys.readouterr().out
        assert "selected_pairs" in output

        exit_code = main(["detect", str(watermarked), str(secret)])
        assert exit_code == 0
        assert "accepted" in capsys.readouterr().out

    def test_detect_fails_on_unrelated_data(self, token_file, tmp_path, capsys):
        watermarked = tmp_path / "watermarked.txt"
        secret = tmp_path / "secret.json"
        main(["generate", str(token_file), str(watermarked), str(secret), "--modulus", "31", "--seed", "7"])
        unrelated = tmp_path / "unrelated.txt"
        save_token_file([f"other-{i}" for i in range(500)], unrelated)
        exit_code = main(["detect", str(unrelated), str(secret)])
        assert exit_code == 1

    def test_json_output(self, token_file, tmp_path, capsys):
        watermarked = tmp_path / "watermarked.txt"
        secret = tmp_path / "secret.json"
        exit_code = main(
            [
                "--json",
                "generate",
                str(token_file),
                str(watermarked),
                str(secret),
                "--modulus",
                "31",
                "--seed",
                "7",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected_pairs"] >= 1


class TestCommandSpans:
    """With spans on, ``generate``, ``detect`` and ``serve`` stream their
    spans to ``./telemetry/spans.jsonl``, which ``freqywm trace report .``
    reads."""

    @pytest.fixture()
    def telemetry(self):
        """Set this process's telemetry features; restored to off after."""
        tracer().reset()
        yield configure_telemetry
        configure_telemetry(None)
        tracer().reset()

    def _generate_and_detect(self, token_file) -> None:
        args = [str(token_file), "wm.txt", "secret.json", "--modulus", "31", "--seed", "7"]
        assert main(["generate", *args]) == 0
        assert main(["detect", "wm.txt", "secret.json"]) == 0

    def test_generate_and_detect_write_their_spans(
        self, token_file, tmp_path, monkeypatch, capsys, telemetry
    ):
        monkeypatch.chdir(tmp_path)
        telemetry("spans")
        self._generate_and_detect(token_file)
        spans = load_spans(str(tmp_path))
        (generate,) = [span for span in spans if span["name"] == "core.generate"]
        assert generate["parent"] is None
        assert [span["name"] for span in spans if span["parent"] == generate["span"]] == [
            "core.histogram",
            "core.eligibility",
            "core.mwm",
            "core.knapsack",
            "core.modification",
            "core.transform",
        ]
        assert {"core.detector_build", "core.detect_pass"} <= {span["name"] for span in spans}
        # The sink is detached once the command returns.
        with trace_span("after.the.command"):
            pass
        assert len(load_spans(str(tmp_path))) == len(spans)
        capsys.readouterr()
        assert main(["trace", "report", "."]) == 0
        assert "core.generate" in capsys.readouterr().out

    def _serve_one_detect(self, monkeypatch, capsys):
        """``serve`` one stdio detect line of ``wm.txt``; its answer."""
        line = encode_line(
            DetectRequest(
                request_id="served",
                counts=TokenHistogram.from_tokens(load_token_file("wm.txt")).as_dict(),
                secret=WatermarkSecret.load("secret.json").to_dict(),
            )
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(line + "\n"))
        capsys.readouterr()
        assert main(["serve"]) == 0
        return decode_response(capsys.readouterr().out.strip())

    def test_nothing_is_written_with_telemetry_off(
        self, token_file, tmp_path, monkeypatch, capsys, telemetry
    ):
        monkeypatch.chdir(tmp_path)
        telemetry(None)
        self._generate_and_detect(token_file)
        answer = self._serve_one_detect(monkeypatch, capsys)
        assert answer.ok and answer.accepted
        assert (tmp_path / "wm.txt").exists()
        assert not (tmp_path / "telemetry").exists()

    def test_serve_writes_its_spans(
        self, token_file, tmp_path, monkeypatch, capsys, telemetry
    ):
        monkeypatch.chdir(tmp_path)
        self._generate_and_detect(token_file)
        telemetry("spans")
        answer = self._serve_one_detect(monkeypatch, capsys)
        assert answer.ok and answer.accepted
        spans = load_spans(str(tmp_path))
        (request,) = [span for span in spans if span["parent"] is None]
        assert request["name"] == "service.request"

        def children(parent):
            return [span["name"] for span in spans if span["parent"] == parent["span"]]

        assert children(request) == ["service.decode", "service.detect", "service.encode"]
        (detect,) = [span for span in spans if span["name"] == "service.detect"]
        assert children(detect) == ["core.detector_build", "core.detect_pass"]


class TestStreamingGenerate:
    def test_chunked_generate_verifies(self, token_file, tmp_path, capsys):
        watermarked = tmp_path / "watermarked.txt"
        secret = tmp_path / "secret.json"
        exit_code = main(
            [
                "--json",
                "generate",
                str(token_file),
                str(watermarked),
                str(secret),
                "--modulus",
                "31",
                "--seed",
                "7",
                "--chunk-size",
                "500",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["streaming"] is True and payload["chunk_size"] == 500
        # The streamed output realises the watermarked histogram: detection
        # must verify on the written file.
        assert main(["detect", str(watermarked), str(secret)]) == 0

    def test_chunked_generate_same_histogram_as_one_shot(self, token_file, tmp_path):
        from repro.core.histogram import TokenHistogram

        streamed_out = tmp_path / "streamed.txt"
        one_shot_out = tmp_path / "one_shot.txt"
        for output, extra in (
            (streamed_out, ["--chunk-size", "777"]),
            (one_shot_out, []),
        ):
            assert (
                main(
                    [
                        "generate",
                        str(token_file),
                        str(output),
                        str(tmp_path / f"{output.stem}.secret.json"),
                        "--modulus",
                        "31",
                        "--seed",
                        "7",
                        *extra,
                    ]
                )
                == 0
            )
        streamed = TokenHistogram.from_tokens(load_token_file(streamed_out))
        one_shot = TokenHistogram.from_tokens(load_token_file(one_shot_out))
        assert streamed == one_shot


class TestBatchDetect:
    def test_directory_screening(self, token_file, tmp_path, capsys):
        watermarked = tmp_path / "watermarked.txt"
        secret = tmp_path / "secret.json"
        main(["generate", str(token_file), str(watermarked), str(secret), "--modulus", "31", "--seed", "7"])
        suspects = tmp_path / "suspects"
        suspects.mkdir()
        watermarked_tokens = load_token_file(watermarked)
        save_token_file(watermarked_tokens, suspects / "copy.txt")
        save_token_file([f"noise-{i % 11}" for i in range(2_000)], suspects / "decoy.txt")
        capsys.readouterr()
        exit_code = main(
            ["--json", "detect", str(suspects), str(secret), "--workers", "2"]
        )
        assert exit_code == 1  # the decoy is rejected
        payload = json.loads(capsys.readouterr().out)
        assert payload["datasets"] == 2
        assert payload["accepted_datasets"] == 1
        suspect_reports = payload["suspects"]
        assert suspect_reports[str(suspects / "copy.txt")]["accepted"] is True
        assert suspect_reports[str(suspects / "decoy.txt")]["accepted"] is False

    def test_directory_all_accepted_exit_zero(self, token_file, tmp_path, capsys):
        watermarked = tmp_path / "watermarked.txt"
        secret = tmp_path / "secret.json"
        main(["generate", str(token_file), str(watermarked), str(secret), "--modulus", "31", "--seed", "7"])
        suspects = tmp_path / "suspects"
        suspects.mkdir()
        tokens = load_token_file(watermarked)
        save_token_file(tokens, suspects / "a.txt")
        save_token_file(tokens, suspects / "b.tokens")
        assert main(["detect", str(suspects), str(secret)]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_single_file_directory_keeps_batch_schema(
        self, token_file, tmp_path, capsys
    ):
        watermarked = tmp_path / "watermarked.txt"
        secret = tmp_path / "secret.json"
        main(["generate", str(token_file), str(watermarked), str(secret), "--modulus", "31", "--seed", "7"])
        suspects = tmp_path / "suspects"
        suspects.mkdir()
        save_token_file(load_token_file(watermarked), suspects / "only.txt")
        capsys.readouterr()
        exit_code = main(
            ["--json", "detect", str(suspects), str(secret), "--workers", "2"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["datasets"] == 1 and payload["workers"] == 2
        assert list(payload["suspects"]) == [str(suspects / "only.txt")]

    def test_empty_directory_errors(self, tmp_path, token_file):
        watermarked = tmp_path / "watermarked.txt"
        secret = tmp_path / "secret.json"
        main(["generate", str(token_file), str(watermarked), str(secret), "--modulus", "31", "--seed", "7"])
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["detect", str(empty), str(secret)]) == 2

    @pytest.mark.parametrize("missing", ["suspect", "secret"])
    def test_missing_input_file_is_a_usage_error(self, token_file, tmp_path, capsys, missing):
        """Exit 2 with one ``error:`` line; exit 1 means "not detected"."""
        watermarked = tmp_path / "watermarked.txt"
        secret = tmp_path / "secret.json"
        main(["generate", str(token_file), str(watermarked), str(secret), "--modulus", "31", "--seed", "7"])
        capsys.readouterr()
        absent = tmp_path / "missing.txt"
        paths = [absent, secret] if missing == "suspect" else [watermarked, absent]
        assert main(["detect", *map(str, paths)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(absent) in err
        assert "Traceback" not in err

    def test_malformed_secret_is_a_usage_error(self, token_file, tmp_path, capsys):
        """A secret whose pairs hold a null exits 2 with one ``error:`` line."""
        watermarked = tmp_path / "watermarked.txt"
        secret = tmp_path / "secret.json"
        main(["generate", str(token_file), str(watermarked), str(secret), "--modulus", "31", "--seed", "7"])
        capsys.readouterr()
        payload = json.loads(secret.read_text(encoding="utf-8"))
        payload["pairs"] = [None]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["detect", str(watermarked), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'pairs'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cap", [2**63, 2**70])
    def test_modulus_cap_outside_int64_is_a_usage_error(
        self, token_file, tmp_path, capsys, cap
    ):
        """A secret whose ``z`` overflows int64 exits 2 with one ``error:`` line."""
        watermarked = tmp_path / "watermarked.txt"
        secret = tmp_path / "secret.json"
        main(["generate", str(token_file), str(watermarked), str(secret), "--modulus", "31", "--seed", "7"])
        capsys.readouterr()
        payload = json.loads(secret.read_text(encoding="utf-8"))
        payload["modulus_cap"] = cap
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["detect", str(watermarked), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestRegistryCommands:
    """``freqywm registry`` register / attribute / revoke / show on a temporary vault."""

    @pytest.fixture()
    def issued(self, token_file, tmp_path, capsys):
        watermarked = tmp_path / "watermarked.txt"
        secret = tmp_path / "secret.json"
        main(["generate", str(token_file), str(watermarked), str(secret), "--modulus", "31", "--seed", "7"])
        capsys.readouterr()
        return tmp_path / "vault", watermarked, secret

    @staticmethod
    def _json(capsys):
        return json.loads(capsys.readouterr().out)

    def test_register_attribute_revoke_show(self, issued, capsys):
        vault, watermarked, secret = issued
        assert main(["--json", "registry", "register", str(vault), "buyer-a", str(secret)]) == 0
        assert self._json(capsys)["active_buyers"] == 1
        assert main(["registry", "register", str(vault), "buyer-a", str(secret)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

        assert main(["--json", "registry", "attribute", str(vault), str(watermarked)]) == 0
        report = self._json(capsys)
        assert [match["buyer_id"] for match in report["matches"]] == ["buyer-a"]
        assert report["mode"] == "index"

        assert main(["registry", "revoke", str(vault), "buyer-a", "--meta", "reason=leak"]) == 0
        assert main(["registry", "revoke", str(vault), "nobody"]) == 2
        capsys.readouterr()
        assert main(["registry", "attribute", str(vault), str(watermarked)]) == 1

        capsys.readouterr()
        assert main(["--json", "registry", "show", str(vault)]) == 0
        shown = self._json(capsys)
        assert shown["ledger_entries"] == 2
        assert shown["active_buyers"] == 0
        assert shown["chain_valid"] is True
        lines = (vault / "ledger.jsonl").read_text(encoding="utf-8").splitlines()
        assert WatermarkRegistry.verify_exported_ledger([json.loads(line) for line in lines])

    def test_edited_ledger_fails_every_subcommand(self, issued, capsys):
        vault, watermarked, secret = issued
        main(["registry", "register", str(vault), "buyer-a", str(secret)])
        main(["registry", "register", str(vault), "buyer-b", str(secret)])
        ledger = vault / "ledger.jsonl"
        lines = ledger.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["buyer_id"] = "mallory"
        lines[0] = json.dumps(record)
        ledger.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        for argv in (
            ["register", str(vault), "buyer-c", str(secret)],
            ["revoke", str(vault), "buyer-a"],
            ["attribute", str(vault), str(watermarked)],
            ["show", str(vault)],
        ):
            assert main(["registry", *argv]) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err


def test_experiment_spec_of_wrong_kind_is_a_usage_error(tmp_path, capsys):
    """A spec whose dataset ``tokens`` is a list exits 2 with one ``error:`` line."""
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "experiments" / "specs" / "smoke.json").read_text(
            encoding="utf-8"
        )
    )
    spec["datasets"][0]["tokens"] = [1]
    path = tmp_path / "bad-spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["experiment", "run", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'tokens'" in err
    assert "Traceback" not in err


class TestAttackAndSynth:
    def test_sampling_attack_command(self, token_file, tmp_path, capsys):
        watermarked = tmp_path / "watermarked.txt"
        secret = tmp_path / "secret.json"
        main(["generate", str(token_file), str(watermarked), str(secret), "--modulus", "31", "--seed", "7"])
        exit_code = main(
            [
                "attack",
                str(watermarked),
                str(secret),
                "--kind",
                "sampling",
                "--fraction",
                "0.5",
                "--threshold",
                "4",
                "--seed",
                "3",
            ]
        )
        output = capsys.readouterr().out
        assert "attack" in output
        assert exit_code in (0, 1)

    def test_destroy_attack_command(self, token_file, tmp_path, capsys):
        watermarked = tmp_path / "watermarked.txt"
        secret = tmp_path / "secret.json"
        main(["generate", str(token_file), str(watermarked), str(secret), "--modulus", "31", "--seed", "7"])
        exit_code = main(
            [
                "attack",
                str(watermarked),
                str(secret),
                "--kind",
                "destroy-percent",
                "--percent",
                "1.0",
                "--threshold",
                "10",
                "--seed",
                "3",
            ]
        )
        assert exit_code in (0, 1)
        assert "destroy-percentage-within-bounds" in capsys.readouterr().out

    def test_synth_command(self, tmp_path, capsys):
        output_path = tmp_path / "synthetic.txt"
        exit_code = main(
            ["synth", str(output_path), "--alpha", "0.5", "--tokens", "40", "--size", "2000", "--seed", "2"]
        )
        assert exit_code == 0
        tokens = load_token_file(output_path)
        assert len(tokens) == 2000
        assert "alpha" in capsys.readouterr().out


class TestBatchGenerate:
    def _make_inputs(self, tmp_path: Path, count: int = 3) -> Path:
        directory = tmp_path / "inputs"
        directory.mkdir()
        for index in range(count):
            save_token_file(
                generate_power_law_tokens(
                    0.7, n_tokens=40, sample_size=4_000, rng=10 + index
                ),
                directory / f"dataset{index}.txt",
            )
        return directory

    def test_directory_embedding_round_trip(self, tmp_path, capsys):
        inputs = self._make_inputs(tmp_path)
        out_dir = tmp_path / "out"
        secret_dir = tmp_path / "secrets"
        exit_code = main(
            [
                "--json",
                "generate",
                str(inputs),
                str(out_dir),
                str(secret_dir),
                "--seed",
                "5",
                "--workers",
                "1",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["datasets"] == 3
        assert len(payload["files"]) == 3
        # Every watermarked file must verify against its own secret file.
        for index in range(3):
            name = f"dataset{index}.txt"
            assert (out_dir / name).exists()
            secret = WatermarkSecret.load(secret_dir / (name + ".json"))
            exit_code = main(
                ["detect", str(out_dir / name), str(secret_dir / (name + ".json"))]
            )
            assert exit_code == 0
            assert len(secret.pairs) > 0
        capsys.readouterr()

    def test_directory_embedding_plain_report(self, tmp_path, capsys):
        inputs = self._make_inputs(tmp_path, count=2)
        exit_code = main(
            [
                "generate",
                str(inputs),
                str(tmp_path / "out"),
                str(tmp_path / "secrets"),
                "--seed",
                "5",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "datasets" in output and "pairs" in output

    def test_directory_with_chunk_size_errors(self, tmp_path, capsys):
        inputs = self._make_inputs(tmp_path, count=1)
        exit_code = main(
            [
                "generate",
                str(inputs),
                str(tmp_path / "out"),
                str(tmp_path / "secrets"),
                "--chunk-size",
                "100",
            ]
        )
        assert exit_code == 2  # ReproError -> CLI error exit

    def test_empty_directory_errors(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        exit_code = main(
            ["generate", str(empty), str(tmp_path / "out"), str(tmp_path / "secrets")]
        )
        assert exit_code == 2

    def test_directory_embedding_uses_distinct_secrets(self, tmp_path):
        # Security regression guard: a seeded batch run must NOT hand
        # every file the same secret R (one recipient's secret list
        # would expose everyone else's watermark), while staying
        # reproducible per (seed, file name).
        inputs = self._make_inputs(tmp_path)
        for run in ("first", "second"):
            exit_code = main(
                [
                    "generate",
                    str(inputs),
                    str(tmp_path / run / "out"),
                    str(tmp_path / run / "secrets"),
                    "--seed",
                    "5",
                ]
            )
            assert exit_code == 0
        first = [
            WatermarkSecret.load(path)
            for path in sorted((tmp_path / "first" / "secrets").iterdir())
        ]
        second = [
            WatermarkSecret.load(path)
            for path in sorted((tmp_path / "second" / "secrets").iterdir())
        ]
        assert len({secret.secret for secret in first}) == len(first)
        assert [s.secret for s in first] == [s.secret for s in second]
