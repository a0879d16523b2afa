"""Vault open at marketplace scale: replay cost per buyer, first attribute, RSS.

Not a paper figure: this benchmark measures what ``freqywm serve --vault``
pays before it answers anything, and what the first leak attribution
pays after that.

A seeded vault of 20-pair buyer secrets is written through the public
:class:`~repro.dispute.vault.SecretVault` API: one real buyer holding a
genuinely embedded watermark, the rest decoys with random pairs over the
leaked copy's vocabulary (2,000 buyers at smoke scale, 20,000 otherwise).
A fresh interpreter then opens it, as a restarted server does, and
reports:

* the open (ledger replay, chain check, each secret file read and checked
  against its content address), in total and per buyer;
* the first attribution, which builds the candidate index and screens,
  and a second one, which only screens;
* the process's peak RSS after its imports, after the open and after the
  first attribution.

The reopened vault must hold the same active buyers and give the same
attribution answers as the vault that wrote it. There is no timing
floor: such floors flake on shared 2-vCPU hosts, so the numbers are
printed for comparison between commits.

Run via pytest from ``benchmarks/`` (``python -m pytest -s
bench_vault_open.py``), or directly with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.config import DetectionConfig, GenerationConfig
from repro.core.generator import WatermarkGenerator
from repro.core.secrets import WatermarkSecret
from repro.datasets.synthetic import generate_power_law_histogram
from repro.dispute import SecretVault

from bench_utils import experiment_banner

SEED = 29
PAIRS = 20
DETECTION = DetectionConfig(pair_threshold=1)


def _buyers() -> int:
    scale = os.environ.get("REPRO_BENCH_SCALE", "default").lower()
    return 2_000 if scale == "smoke" else 20_000


def _write_vault(directory: Path, buyers: int):
    """Write one real buyer and ``buyers - 1`` decoys; returns the vault
    and the real buyer's leaked copy."""
    rng = np.random.default_rng(SEED)
    histogram = generate_power_law_histogram(
        0.6, n_tokens=1_000, sample_size=200_000, mode="sampled", rng=rng
    )
    result = WatermarkGenerator(GenerationConfig(strategy="greedy"), rng=SEED).generate(
        histogram
    )
    vault = SecretVault(directory)
    vault.register("buyer-real", result.secret)
    tokens = np.array(sorted(histogram.as_dict()))
    for decoy in range(buyers - 1):
        picks = rng.choice(len(tokens), size=2 * PAIRS, replace=False)
        pairs = list(zip(tokens[picks[:PAIRS]], tokens[picks[PAIRS:]]))
        secret = WatermarkSecret.build(pairs, int(rng.integers(1, 2**63)), 131)
        vault.register(f"decoy-{decoy:06d}", secret)
    return vault, result.watermarked_histogram


def _peak_rss_mb() -> float:
    """This process's peak RSS (``VmHWM``, Linux). Unlike ``ru_maxrss``
    it does not carry over the forking parent's peak across ``exec``."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def open_and_attribute(directory: str, leak_path: str) -> None:
    """Open the vault, attribute the leak twice, print one JSON line.

    Runs in a fresh interpreter, so the open and the peak RSS are the
    ones a restarted server pays.
    """
    leaked = json.loads(Path(leak_path).read_text(encoding="utf-8"))
    rss_imports = _peak_rss_mb()
    start = time.perf_counter()
    vault = SecretVault(directory)
    open_s = time.perf_counter() - start
    rss_open = _peak_rss_mb()
    start = time.perf_counter()
    matches = vault.attribute_leak(leaked, detection=DETECTION)
    first_s = time.perf_counter() - start
    rss_attribute = _peak_rss_mb()
    start = time.perf_counter()
    vault.attribute_leak(leaked, detection=DETECTION)
    second_s = time.perf_counter() - start
    print(  # noqa: T201
        json.dumps(
            {
                "open_s": open_s,
                "first_attribute_s": first_s,
                "second_attribute_s": second_s,
                "rss_imports_mb": rss_imports,
                "rss_open_mb": rss_open,
                "rss_attribute_mb": rss_attribute,
                "active_buyers": list(vault.active_buyers),
                "matches": matches,
            }
        )
    )


def _open_in_a_fresh_process(directory: Path, leak_path: Path) -> dict:
    bench_dir = Path(__file__).resolve().parent
    code = (
        "import bench_utils, bench_vault_open; "
        f"bench_vault_open.open_and_attribute({str(directory)!r}, {str(leak_path)!r})"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        cwd=bench_dir,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_reopened_vault_answers_as_written_and_reports_its_cost():
    buyers = _buyers()
    with tempfile.TemporaryDirectory() as workdir:
        directory = Path(workdir) / "vault"
        start = time.perf_counter()
        vault, leaked = _write_vault(directory, buyers)
        write_s = time.perf_counter() - start
        leak_path = Path(workdir) / "leak.json"
        leak_path.write_text(json.dumps(leaked.as_dict()), encoding="utf-8")
        expected = vault.attribute_leak(leaked.as_dict(), detection=DETECTION)
        report = _open_in_a_fresh_process(directory, leak_path)

    assert report["active_buyers"] == list(vault.active_buyers)
    assert [tuple(match) for match in report["matches"]] == expected
    assert "buyer-real" in {buyer for buyer, _ in expected}

    experiment_banner("Vault open", f"{buyers} buyers of {PAIRS} pairs, reopened")
    print(  # noqa: T201
        f"  write: {write_s:.2f} s   open: {report['open_s']:.3f} s "
        f"({report['open_s'] / buyers * 1e6:.1f} us/buyer)\n"
        f"  first attribute (index build + screen): "
        f"{report['first_attribute_s'] * 1e3:.1f} ms   second: "
        f"{report['second_attribute_s'] * 1e3:.1f} ms\n"
        f"  peak RSS: {report['rss_imports_mb']:.1f} MiB after imports, "
        f"{report['rss_open_mb']:.1f} after the open, "
        f"{report['rss_attribute_mb']:.1f} after the first attribute"
    )


if __name__ == "__main__":
    test_reopened_vault_answers_as_written_and_reports_its_cost()
