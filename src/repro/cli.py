"""Command line interface for the FreqyWM reproduction.

The ``freqywm`` entry point mirrors the paper's two algorithms plus the
most useful utilities:

* ``freqywm generate`` — watermark a token file (token-per-line) and store
  the watermarked file and the secret list; ``--chunk-size M`` switches to
  streaming ingestion for files too large to load at once, and a
  *directory* input watermarks every token file in it as a batch
  (``--workers N`` shards the embedding across processes).
* ``freqywm detect``   — run detection of a stored secret on a suspected
  token file, or screen a whole directory of suspect files as a batch
  (``--workers N`` shards the screen across processes).
* ``freqywm attack``   — simulate one of the Section V attacks against a
  watermarked file and report whether detection survives.
* ``freqywm synth``    — generate a synthetic power-law token file for
  experimentation.
* ``freqywm serve``    — run the resident detection service (cached
  detectors) speaking JSON-lines on stdio or a Unix socket; ``--vault
  DIR`` additionally serves the ``register`` / ``revoke`` /
  ``attribute`` verbs against a persistent secret vault.
* ``freqywm client``   — screen suspect files through a running
  ``serve`` instance (``--socket``), or through a private spawned one.
* ``freqywm registry`` — operate a persistent multi-tenant secret vault
  directly: ``register`` / ``revoke`` buyer watermarks, ``attribute`` a
  leaked file to the buyers whose watermarks it carries (sublinear
  candidate-index screening, see ``docs/registry.md``), and ``show`` the
  vault's ledger and index statistics.
* ``freqywm experiment`` — run a declarative experiment spec (grid sweep
  over datasets × secrets × attacks × thresholds) against the
  content-addressed run cache, or re-render a finished run's
  paper-mapped Markdown/JSON report (``docs/experiments.md``).
* ``freqywm worker``   — serve scheduler tasks over a Unix or TCP socket
  for ``--scheduler remote`` clients (``docs/scheduler.md``). The
  sharding subcommands (``generate`` / ``detect`` directory mode,
  ``experiment run``) accept ``--scheduler remote --address ADDR`` to
  fan their ``--workers`` sharding out to such workers instead of local
  processes.

Every subcommand prints a small plain-text report; machine-readable output
is available with ``--json`` (field-by-field schemas in ``docs/cli.md``).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from repro.attacks.destroy import (
    BoundaryNoiseAttack,
    PercentageNoiseAttack,
    ReorderingNoiseAttack,
)
from repro.attacks.sampling import SamplingAttack, rescale_suspect
from repro.core.batch import detect_files, embed_files
from repro.core.config import DetectionConfig, GenerationConfig
from repro.core.detector import WatermarkDetector
from repro.core.generator import WatermarkGenerator
from repro.core.histogram import TokenHistogram
from repro.core.secrets import WatermarkSecret
from repro.core.transform import apply_deltas_streaming, histogram_deltas
from repro.datasets.loaders import (
    iter_tokens,
    load_histogram_streaming,
    load_token_file,
    save_token_file,
)
from repro.datasets.synthetic import generate_power_law_tokens
from repro.exceptions import DatasetError, ReproError
from repro.exec.policy import ExecutionPolicy
from repro.obs.logging import configure as configure_logging
from repro.obs.logging import get_logger, log_record, parse_log_env
from repro.obs.report import SPANS_RELPATH
from repro.obs.trace import spans_active, tracer
from repro.utils.rng import derive_rng


def _positive_int(value: str) -> int:
    """Argparse type for integer options that must be >= 1."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return number


def _execution_policy(args: argparse.Namespace) -> ExecutionPolicy:
    """Fold --workers/--scheduler/--address into one ExecutionPolicy.

    With the remote scheduler, ``--workers`` is ignored — parallelism is
    the number of ``--address`` workers.
    """
    scheduler = getattr(args, "scheduler", "local")
    addresses = tuple(getattr(args, "address", ()) or ())
    workers = None if scheduler == "remote" else args.workers
    return ExecutionPolicy(
        workers=workers,
        scheduler=scheduler,
        addresses=addresses,
        telemetry=getattr(args, "telemetry", None),
    )


def _print_report(report: Dict[str, object], as_json: bool) -> None:
    """Emit a report dictionary as JSON or as aligned key: value lines."""
    if as_json:
        print(json.dumps(report, indent=2, default=str))  # noqa: T201
        return
    width = max(len(key) for key in report) if report else 0
    for key, value in report.items():
        print(f"{key.ljust(width)} : {value}")  # noqa: T201


def _writes_spans(command: Callable[[argparse.Namespace], int]):
    """Run ``command`` with its spans streamed to ``./telemetry/spans.jsonl``.

    Only while the ``spans`` telemetry feature is on: the file lands
    under the working directory, in the layout ``freqywm trace report .``
    reads, and the sink is detached when the command returns or raises.
    With telemetry off nothing is written.
    """

    @functools.wraps(command)
    def run(args: argparse.Namespace) -> int:
        if not spans_active():
            return command(args)
        # Spans an earlier command of this process buffered were
        # already handled; attaching the sink would write them again.
        tracer().drain()
        tracer().set_sink(SPANS_RELPATH)
        try:
            return command(args)
        finally:
            tracer().set_sink(None)

    return run


@_writes_spans
def _cmd_generate(args: argparse.Namespace) -> int:
    config = GenerationConfig(
        budget_percent=args.budget,
        modulus_cap=args.modulus,
        strategy=args.strategy,
    )
    if args.input.is_dir():
        return _generate_directory(args, config)
    generator = WatermarkGenerator(config, rng=args.seed)
    if args.chunk_size is not None:
        # Streaming mode: the input file is never loaded whole. One
        # chunked pass builds the histogram, generation runs in
        # histogram-only mode, and a second pass streams the edited
        # token sequence straight to the output file.
        histogram = load_histogram_streaming(args.input, chunk_size=args.chunk_size)
        result = generator.generate(histogram)
        deltas = histogram_deltas(histogram, result.watermarked_histogram)
        save_token_file(
            apply_deltas_streaming(
                iter_tokens(args.input),
                deltas,
                histogram,
                rng=derive_rng(args.seed, "stream-transform")
                if args.seed is not None
                else None,
            ),
            args.output,
        )
    else:
        result = generator.generate(load_token_file(args.input))
        if result.watermarked_tokens is not None:
            save_token_file(result.watermarked_tokens, args.output)
    result.secret.save(args.secret)
    report = result.summary()
    if args.chunk_size is not None:
        report["streaming"] = True
        report["chunk_size"] = args.chunk_size
    report["output"] = str(args.output)
    report["secret_file"] = str(args.secret)
    _print_report(report, args.json)
    return 0


def _generate_directory(args: argparse.Namespace, config: GenerationConfig) -> int:
    """Directory-scale embedding: watermark every token file in ``input``.

    Mirrors ``detect DIR``: ``output`` and ``secret`` become directories
    (created as needed) receiving one watermarked file and one secret
    list per input file; ``--workers N`` shards the embedding so each
    worker loads, watermarks and writes its own chunk of files.
    """
    if args.chunk_size is not None:
        raise ReproError(
            "--chunk-size applies to single-file streaming mode, not to "
            "directory embedding (each file is loaded whole inside its worker)"
        )
    files = _token_files(args.input)
    summaries = embed_files(
        files,
        args.output,
        args.secret,
        config,
        seed=args.seed,
        policy=_execution_policy(args),
    )
    total = len(summaries)
    payload: Dict[str, object] = {
        "datasets": total,
        "workers": args.workers,
        "selected_pairs_total": sum(
            int(summary["selected_pairs"]) for summary in summaries
        ),
        "mean_distortion_percent": (
            sum(float(summary["distortion_percent"]) for summary in summaries) / total
            if total
            else 0.0
        ),
        "output_dir": str(args.output),
        "secret_dir": str(args.secret),
    }
    if args.json:
        payload["files"] = summaries
        _print_report(payload, True)
    else:
        for summary in summaries:
            print(  # noqa: T201
                f"{summary['input']} : {summary['selected_pairs']} pairs, "
                f"{float(summary['distortion_percent']):.4f}% distortion "
                f"-> {summary['output']}"
            )
        _print_report(payload, False)
    return 0


def _detection_config(args: argparse.Namespace) -> DetectionConfig:
    return DetectionConfig(
        pair_threshold=args.threshold,
        min_accepted_pairs=args.min_pairs,
        min_accepted_fraction=args.min_fraction,
    )


def _token_files(directory: Path) -> list:
    """The token files of a batch directory (screening or embedding), sorted."""
    files = sorted(
        path
        for path in directory.iterdir()
        if path.is_file() and path.suffix in {".txt", ".tokens"}
    )
    if not files:
        raise DatasetError(
            f"directory {directory!s} contains no .txt/.tokens token files"
        )
    return files


@_writes_spans
def _cmd_detect(args: argparse.Namespace) -> int:
    secret = WatermarkSecret.load(args.secret)
    config = _detection_config(args)
    if not args.input.is_dir():
        detector = WatermarkDetector(secret, config)
        result = detector.detect(load_token_file(args.input))
        _print_report(result.summary(), args.json)
        return 0 if result.accepted else 1
    # Batch screening: every token file in the directory is one suspected
    # dataset (even when there is just one, so the report schema is stable).
    # Only the paths are dispatched — each worker stream-loads and screens
    # its own chunk, so the dominant load-and-count cost parallelises and
    # no process ever holds more than one chunk of histograms.
    files = _token_files(args.input)
    report = detect_files(files, secret, config, policy=_execution_policy(args))
    payload: Dict[str, object] = report.summary()
    payload["workers"] = args.workers
    payload["suspects"] = {
        str(path): result.summary() for path, result in zip(files, report.results)
    }
    if args.json:
        _print_report(payload, True)
    else:
        for path, result in zip(files, report.results):
            verdict = "accepted" if result.accepted else "rejected"
            print(  # noqa: T201
                f"{path} : {verdict} "
                f"({result.accepted_pairs}/{result.total_pairs} pairs)"
            )
        _print_report(report.summary(), False)
    return 0 if report.accepted_count == len(files) else 1


def _build_attack(args: argparse.Namespace):
    if args.kind == "sampling":
        return SamplingAttack(args.fraction, rng=args.seed)
    if args.kind == "destroy-random":
        return BoundaryNoiseAttack(rng=args.seed)
    if args.kind == "destroy-percent":
        return PercentageNoiseAttack(args.percent, rng=args.seed)
    if args.kind == "destroy-reorder":
        return ReorderingNoiseAttack(args.percent, rng=args.seed)
    raise ReproError(f"unknown attack kind {args.kind!r}")


def _cmd_attack(args: argparse.Namespace) -> int:
    tokens = load_token_file(args.input)
    secret = WatermarkSecret.load(args.secret)
    histogram = TokenHistogram.from_tokens(tokens)
    attack = _build_attack(args)
    attacked = attack.tamper(histogram)
    if args.kind == "sampling":
        attacked = rescale_suspect(attacked, histogram.total_count())
    detector = WatermarkDetector(secret, _detection_config(args))
    result = detector.detect(attacked)
    report = result.summary()
    report["attack"] = attack.name
    report.update({f"attack_{key}": value for key, value in attack.parameters().items()})
    _print_report(report, args.json)
    return 0 if result.accepted else 1


@_writes_spans
def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import DetectionService, ServiceConfig, serve_stdio, serve_unix

    service_config = ServiceConfig(cache_capacity=args.cache_capacity)
    detection_config = _detection_config(args)
    vault = None
    if args.vault is not None:
        from repro.dispute import SecretVault

        vault = SecretVault(args.vault)
        print(  # noqa: T201
            f"vault {args.vault}: {len(vault.active_buyers)} active buyers",
            file=sys.stderr,
        )

    async def run() -> int:
        async with DetectionService(service_config, registry=vault) as service:
            for path in args.secret:
                fingerprint = service.register_secret(
                    WatermarkSecret.load(path), detection_config
                )
                # stderr keeps stdout protocol-only in stdio mode.
                print(f"registered {path}: {fingerprint}", file=sys.stderr)  # noqa: T201
            if args.socket is not None:
                await serve_unix(service, args.socket)
            else:
                await serve_stdio(service)
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        return 0


#: Suspect files per pipelined client burst: one burst's histograms are
#: resident at a time (mirroring the sharded path's chunked dispatch)
#: while the server still answers many requests per round trip.
_CLIENT_BURST = 64


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.service import DetectRequest, ServiceClient

    secret_payload = WatermarkSecret.load(args.secret).to_dict()
    config_payload: Dict[str, object] = {
        "pair_threshold": args.threshold,
        "min_accepted_fraction": args.min_fraction,
    }
    if args.min_pairs is not None:
        config_payload["min_accepted_pairs"] = args.min_pairs
    if args.socket is not None:
        client = ServiceClient.connect_unix(args.socket)
    else:
        client = ServiceClient.spawn()
    responses = []
    with client:
        for start in range(0, len(args.suspects), _CLIENT_BURST):
            burst = [
                DetectRequest(
                    request_id=f"{start + offset}:{path.name}",
                    counts=load_histogram_streaming(path).as_dict(),
                    secret=secret_payload,
                    config=config_payload,
                )
                for offset, path in enumerate(
                    args.suspects[start : start + _CLIENT_BURST]
                )
            ]
            responses.extend(client.request(burst))
    all_accepted = all(response.ok and response.accepted for response in responses)
    if args.json:
        # A list, not a path-keyed map: the same file may legitimately be
        # listed twice (overlapping globs) and every verdict must survive.
        payload: Dict[str, object] = {
            "suspects": [
                {"path": str(path), **response.to_dict()}
                for path, response in zip(args.suspects, responses)
            ],
            "accepted_datasets": sum(
                1 for response in responses if response.ok and response.accepted
            ),
            "datasets": len(responses),
        }
        _print_report(payload, True)
    else:
        for path, response in zip(args.suspects, responses):
            if not response.ok:
                print(f"{path} : error ({response.error})")  # noqa: T201
                continue
            verdict = "accepted" if response.accepted else "rejected"
            print(  # noqa: T201
                f"{path} : {verdict} "
                f"({response.accepted_pairs}/{response.total_pairs} pairs)"
            )
    return 0 if all_accepted else 1


def _parse_metadata(pairs: Sequence[str]) -> Dict[str, str]:
    """Parse repeated ``--meta key=value`` options into a dictionary."""
    metadata: Dict[str, str] = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise ReproError(f"--meta expects key=value, got {pair!r}")
        metadata[key] = value
    return metadata


def _open_vault(args: argparse.Namespace):
    from repro.dispute import SecretVault

    return SecretVault(args.vault)


def _cmd_registry_register(args: argparse.Namespace) -> int:
    vault = _open_vault(args)
    entry = vault.register(
        args.buyer, WatermarkSecret.load(args.secret), **_parse_metadata(args.meta)
    )
    _print_report(
        {
            "buyer_id": entry.buyer_id,
            "fingerprint": entry.fingerprint,
            "active_buyers": len(vault.active_buyers),
            "vault": str(args.vault),
        },
        args.json,
    )
    return 0


def _cmd_registry_revoke(args: argparse.Namespace) -> int:
    vault = _open_vault(args)
    entry = vault.revoke(args.buyer, **_parse_metadata(args.meta))
    _print_report(
        {
            "buyer_id": entry.buyer_id,
            "fingerprint": entry.fingerprint,
            "active_buyers": len(vault.active_buyers),
            "vault": str(args.vault),
        },
        args.json,
    )
    return 0


def _cmd_registry_attribute(args: argparse.Namespace) -> int:
    vault = _open_vault(args)
    histogram = load_histogram_streaming(args.suspect)
    matches = vault.attribute_leak(histogram, detection=_detection_config(args))
    stats = vault.last_attribution
    payload: Dict[str, object] = {
        "suspect": str(args.suspect),
        "matches": [
            {"buyer_id": buyer, "accepted_fraction": fraction}
            for buyer, fraction in matches
        ],
        "mode": stats.mode if stats is not None else "empty",
        "candidates": stats.candidates if stats is not None else 0,
        "active_secrets": stats.active_secrets if stats is not None else 0,
    }
    if args.json:
        _print_report(payload, True)
    else:
        for buyer, fraction in matches:
            print(f"{buyer} : accepted fraction {fraction:.3f}")  # noqa: T201
        report = dict(payload)
        del report["matches"]
        report["matched_buyers"] = len(matches)
        _print_report(report, False)
    return 0 if matches else 1


def _cmd_registry_show(args: argparse.Namespace) -> int:
    vault = _open_vault(args)
    index = vault.index_stats()
    _print_report(
        {
            "vault": str(args.vault),
            "ledger_entries": len(vault),
            "active_buyers": len(vault.active_buyers),
            "chain_valid": vault.verify_chain(),
            "index_buckets": index.buckets,
            "index_postings": index.postings,
        },
        args.json,
    )
    return 0


def _cmd_experiment_run(args: argparse.Namespace) -> int:
    from repro.experiments import load_spec, run_experiment, write_report

    spec = load_spec(args.spec)
    run_dir = args.out if args.out is not None else Path("experiment-runs") / spec.name
    outcome = run_experiment(spec, run_dir, policy=_execution_policy(args))
    json_path, md_path = write_report(run_dir)
    report: Dict[str, object] = outcome.summary()
    report["report_json"] = str(json_path)
    report["report_md"] = str(md_path)
    _print_report(report, args.json)
    return 0


def _cmd_experiment_report(args: argparse.Namespace) -> int:
    from repro.experiments import build_report, render_markdown, write_report

    report = build_report(args.run_dir)
    json_path, md_path = write_report(args.run_dir, report)
    if args.json:
        _print_report(report, True)
    else:
        print(render_markdown(report))  # noqa: T201
        print(f"\nwritten: {json_path} {md_path}")  # noqa: T201
    return 0


@_writes_spans
def _cmd_worker(args: argparse.Namespace) -> int:
    import importlib
    import signal

    from repro.exec.scheduler import load_builtin_tasks
    from repro.exec.worker import TaskWorkerServer, serve_worker

    if (args.socket is None) == (args.tcp is None):
        raise ReproError("pass exactly one of --socket PATH or --tcp HOST:PORT")
    address = args.socket
    if args.tcp is not None:
        host, _separator, port_text = args.tcp.rpartition(":")
        if not host or not port_text.isdigit():
            raise ReproError(f"--tcp expects HOST:PORT, got {args.tcp!r}")
        address = (host, int(port_text))
    # Builtin task functions first, then any operator-supplied modules
    # registering custom ones.
    load_builtin_tasks()
    for module in args.import_modules:
        importlib.import_module(module)
    server = TaskWorkerServer(max_state=args.max_state)

    def announce(message: str) -> None:
        # stderr keeps any socket/stdio protocol stream clean; spawners
        # (tests, CI) treat this line as the readiness signal.
        print(message, file=sys.stderr, flush=True)  # noqa: T201

    # SIGTERM stops the loop like Ctrl-C, so fleet managers get the
    # shutdown summary too.
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: server.stop())
    try:
        serve_worker(address, server=server, announce=announce)
        return 0
    finally:
        announce(f"worker summary: {server.summary_line()}")
        log_record(
            get_logger("exec.worker"),
            logging.INFO,
            "worker shutdown",
            **server.summary(),
        )


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient
    from repro.service.wire import StatsRequest

    if args.socket is not None:
        client = ServiceClient.connect_unix(args.socket)
    else:
        client = ServiceClient.spawn()
    with client:
        response = client.request([StatsRequest(request_id="stats:0")])[0]
    if not response.ok:
        raise ReproError(f"stats request failed: {response.error}")
    if args.format == "json":
        print(json.dumps(response.metrics, indent=2, default=str))  # noqa: T201
    else:
        sys.stdout.write(response.prometheus)
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs.report import load_spans, render_report

    spans = load_spans(args.run_dir)
    print(render_report(spans, limit=args.limit))  # noqa: T201
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    tokens = generate_power_law_tokens(
        args.alpha,
        n_tokens=args.tokens,
        sample_size=args.size,
        rng=args.seed,
    )
    save_token_file(tokens, args.output)
    report = {
        "alpha": args.alpha,
        "distinct_tokens": args.tokens,
        "sample_size": args.size,
        "output": str(args.output),
    }
    _print_report(report, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``freqywm`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="freqywm",
        description="FreqyWM frequency watermarking (ICDE 2024 reproduction)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON reports")
    parser.add_argument(
        "--log",
        default=None,
        metavar="LEVEL[:FORMAT]",
        help=(
            "logging level/format (e.g. debug, info:json); overrides the "
            "FREQYWM_LOG environment variable"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="watermark a token file (or a directory of them)"
    )
    generate.add_argument(
        "input",
        type=Path,
        help=(
            "token-per-line input file, or a directory whose .txt/.tokens "
            "files are watermarked as a batch"
        ),
    )
    generate.add_argument(
        "output",
        type=Path,
        help="watermarked token file to write (a directory for directory input)",
    )
    generate.add_argument(
        "secret",
        type=Path,
        help="secret list (JSON) to write (a directory for directory input)",
    )
    generate.add_argument("--budget", type=float, default=2.0, help="distortion budget b in percent")
    generate.add_argument("--modulus", type=int, default=131, help="modulus cap z")
    generate.add_argument(
        "--strategy", choices=("optimal", "greedy", "random"), default="optimal"
    )
    generate.add_argument("--seed", type=int, default=None, help="seed for reproducible runs")
    generate.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        metavar="M",
        help=(
            "streaming mode: ingest the input M tokens at a time and write "
            "the watermarked file without ever loading the dataset whole"
        ),
    )
    generate.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes for batch embedding (directory input only)",
    )

    def add_scheduler_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--scheduler",
            choices=("local", "remote"),
            default="local",
            help=(
                "execution backend for the sharded path: local worker "
                "processes (default) or remote `freqywm worker` processes"
            ),
        )
        sub.add_argument(
            "--address",
            action="append",
            default=[],
            metavar="ADDR",
            help=(
                "a `freqywm worker` address (unix:/path or host:port); "
                "repeatable, required with --scheduler remote"
            ),
        )

    add_scheduler_arguments(generate)
    generate.set_defaults(handler=_cmd_generate)

    def add_detection_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--threshold", type=int, default=0, help="per-pair threshold t")
        sub.add_argument("--min-pairs", type=int, default=None, help="minimum accepted pairs k")
        sub.add_argument(
            "--min-fraction", type=float, default=0.5, help="minimum accepted pair fraction"
        )

    detect = subparsers.add_parser(
        "detect", help="detect a watermark in a token file (or a directory of them)"
    )
    detect.add_argument(
        "input",
        type=Path,
        help=(
            "suspected token file, or a directory whose .txt/.tokens files "
            "are screened as a batch"
        ),
    )
    detect.add_argument("secret", type=Path, help="secret list (JSON) from generation")
    detect.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes for batch screening (directory input only)",
    )
    add_scheduler_arguments(detect)
    add_detection_arguments(detect)
    detect.set_defaults(handler=_cmd_detect)

    attack = subparsers.add_parser("attack", help="attack a watermarked token file")
    attack.add_argument("input", type=Path, help="watermarked token file")
    attack.add_argument("secret", type=Path, help="secret list (JSON) from generation")
    attack.add_argument(
        "--kind",
        choices=("sampling", "destroy-random", "destroy-percent", "destroy-reorder"),
        default="sampling",
    )
    attack.add_argument("--fraction", type=float, default=0.2, help="sampling fraction")
    attack.add_argument("--percent", type=float, default=1.0, help="noise percentage")
    attack.add_argument("--seed", type=int, default=None, help="seed for reproducible runs")
    add_detection_arguments(attack)
    attack.set_defaults(handler=_cmd_attack)

    serve = subparsers.add_parser(
        "serve",
        help="run the resident detection service (JSON-lines on stdio or a Unix socket)",
    )
    serve.add_argument(
        "--secret",
        type=Path,
        action="append",
        default=[],
        metavar="FILE",
        help=(
            "secret list (JSON) to pre-register; repeatable. The fingerprint "
            "printed on stderr is the secret_fingerprint clients may reference."
        ),
    )
    serve.add_argument(
        "--socket",
        type=Path,
        default=None,
        metavar="PATH",
        help="listen on a Unix domain socket instead of stdio",
    )
    serve.add_argument(
        "--vault",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "back the register/revoke/attribute verbs with a persistent "
            "secret vault at DIR (created if absent)"
        ),
    )
    serve.add_argument(
        "--cache-capacity",
        type=_positive_int,
        default=8,
        help="detectors kept resident in the LRU cache (default 8)",
    )
    add_detection_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    client = subparsers.add_parser(
        "client",
        help="screen suspect token files through a detection server",
    )
    client.add_argument("secret", type=Path, help="secret list (JSON) from generation")
    client.add_argument(
        "suspects", type=Path, nargs="+", help="suspected token files to screen"
    )
    client.add_argument(
        "--socket",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "connect to a running `freqywm serve --socket PATH`; when omitted "
            "a private stdio server is spawned for this invocation"
        ),
    )
    add_detection_arguments(client)
    client.set_defaults(handler=_cmd_client)

    registry = subparsers.add_parser(
        "registry",
        help="operate a persistent multi-tenant secret vault (docs/registry.md)",
    )
    registry_sub = registry.add_subparsers(dest="registry_command", required=True)

    registry_register = registry_sub.add_parser(
        "register", help="durably register a buyer's watermark secret"
    )
    registry_register.add_argument("vault", type=Path, help="vault directory")
    registry_register.add_argument("buyer", help="buyer identifier (unique while active)")
    registry_register.add_argument(
        "secret", type=Path, help="secret list (JSON) from generation"
    )
    registry_register.add_argument(
        "--meta",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="metadata recorded in the ledger entry; repeatable",
    )
    registry_register.set_defaults(handler=_cmd_registry_register)

    registry_revoke = registry_sub.add_parser(
        "revoke", help="durably revoke a buyer's watermark (append-only)"
    )
    registry_revoke.add_argument("vault", type=Path, help="vault directory")
    registry_revoke.add_argument("buyer", help="buyer identifier to revoke")
    registry_revoke.add_argument(
        "--meta",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="metadata recorded in the revocation entry; repeatable",
    )
    registry_revoke.set_defaults(handler=_cmd_registry_revoke)

    registry_attribute = registry_sub.add_parser(
        "attribute",
        help="attribute a leaked token file to the buyers whose watermarks it carries",
    )
    registry_attribute.add_argument("vault", type=Path, help="vault directory")
    registry_attribute.add_argument(
        "suspect", type=Path, help="leaked token file to attribute"
    )
    add_detection_arguments(registry_attribute)
    registry_attribute.set_defaults(handler=_cmd_registry_attribute)

    registry_show = registry_sub.add_parser(
        "show", help="show vault ledger / candidate-index statistics"
    )
    registry_show.add_argument("vault", type=Path, help="vault directory")
    registry_show.set_defaults(handler=_cmd_registry_show)

    experiment = subparsers.add_parser(
        "experiment",
        help="run / report declarative experiment specs (paper reproduction)",
    )
    experiment_sub = experiment.add_subparsers(dest="experiment_command", required=True)

    experiment_run = experiment_sub.add_parser(
        "run", help="execute (or resume) an experiment spec against its run cache"
    )
    experiment_run.add_argument(
        "spec", type=Path, help="experiment spec file (.json or .toml)"
    )
    experiment_run.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="run directory (default: experiment-runs/<spec name>)",
    )
    experiment_run.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes per DAG level (results identical to --workers 1)",
    )
    experiment_run.add_argument(
        "--telemetry",
        default=None,
        metavar="FEATURES",
        help=(
            "telemetry features for the run (comma list of spans,metrics,"
            "profile, or 'all'); overrides FREQYWM_TELEMETRY"
        ),
    )
    add_scheduler_arguments(experiment_run)
    experiment_run.set_defaults(handler=_cmd_experiment_run)

    experiment_report = experiment_sub.add_parser(
        "report", help="re-render the Markdown/JSON report of a finished run"
    )
    experiment_report.add_argument(
        "run_dir", type=Path, help="run directory written by `experiment run`"
    )
    experiment_report.set_defaults(handler=_cmd_experiment_report)

    worker = subparsers.add_parser(
        "worker",
        help="serve scheduler tasks to remote-scheduler clients (docs/scheduler.md)",
    )
    worker.add_argument(
        "--socket",
        type=Path,
        default=None,
        metavar="PATH",
        help="listen on a Unix domain socket",
    )
    worker.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="listen on TCP (port 0 picks a free port; the bound address is announced on stderr)",
    )
    worker.add_argument(
        "--import",
        dest="import_modules",
        action="append",
        default=[],
        metavar="MODULE",
        help="import MODULE before serving (registers custom task functions); repeatable",
    )
    worker.add_argument(
        "--max-state",
        type=_positive_int,
        default=None,
        metavar="N",
        help="bound on cached worker-local initializer states (default 8)",
    )
    worker.set_defaults(handler=_cmd_worker)

    stats = subparsers.add_parser(
        "stats",
        help="fetch a detection server's metrics (Prometheus text or JSON)",
    )
    stats.add_argument(
        "--socket",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "connect to a running `freqywm serve --socket PATH`; when omitted "
            "a private stdio server is spawned (useful only for smoke tests)"
        ),
    )
    stats.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="exposition format (default prometheus text 0.0.4)",
    )
    stats.set_defaults(handler=_cmd_stats)

    trace = subparsers.add_parser(
        "trace",
        help="inspect trace spans recorded by telemetry-enabled runs",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_report = trace_sub.add_parser(
        "report",
        help="render the span tree / per-phase breakdown of a run directory",
    )
    trace_report.add_argument(
        "run_dir",
        type=Path,
        help="run directory (or spans.jsonl file) written with spans enabled",
    )
    trace_report.add_argument(
        "--limit",
        type=_positive_int,
        default=None,
        metavar="N",
        help="render the full tree only up to N spans (default 200)",
    )
    trace_report.set_defaults(handler=_cmd_trace_report)

    synth = subparsers.add_parser("synth", help="generate a synthetic power-law token file")
    synth.add_argument("output", type=Path, help="token file to write")
    synth.add_argument("--alpha", type=float, default=0.5, help="power-law skewness")
    synth.add_argument("--tokens", type=int, default=1000, help="number of distinct tokens")
    synth.add_argument("--size", type=int, default=100_000, help="total occurrences")
    synth.add_argument("--seed", type=int, default=None, help="seed for reproducible runs")
    synth.set_defaults(handler=_cmd_synth)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.log is not None:
            level, format_name = parse_log_env(args.log)
            configure_logging(level, format_name, force=True)
        else:
            configure_logging()
        return int(args.handler(args))
    except BrokenPipeError:  # stdout piped into a closed pager/head
        return 0
    except (ReproError, OSError) as error:
        # A missing or unreadable file is a usage error, not the exit-1
        # "not detected" verdict.
        print(f"error: {error}", file=sys.stderr)  # noqa: T201
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
