"""Minimal, stdlib-only PEP 517 / PEP 660 build backend for this project.

Why this exists
---------------
The reproduction targets fully offline environments. The stock setuptools
backend cannot produce (editable) wheels there: PEP 660 editable installs
require the ``wheel`` package, and pip's build isolation tries to download
build dependencies from PyPI. This backend has **zero** build requirements
(``requires = []`` in ``pyproject.toml``) and uses only the standard
library, so ``pip install -e .`` and ``pip install .`` both work with no
network access.

What it builds
--------------
* ``build_wheel``     — a normal wheel containing the ``repro`` package
  copied from ``src/``.
* ``build_editable``  — an editable wheel containing a ``.pth`` file that
  points at the project's ``src/`` directory.
* ``build_sdist``     — a source tarball of the project tree.

Both wheel flavours carry proper ``dist-info`` metadata (METADATA, WHEEL,
RECORD, entry_points.txt) so the ``freqywm`` console script is installed
and ``pip uninstall`` works.
"""

from __future__ import annotations

import base64
import hashlib
import os
import tarfile
import zipfile
from pathlib import Path

PROJECT_ROOT = Path(__file__).resolve().parent
PACKAGE_NAME = "repro"
DIST_NAME = "repro"
VERSION = "1.0.0"
WHEEL_TAG = "py3-none-any"
SUMMARY = (
    "FreqyWM: frequency watermarking for the new data economy (ICDE 2024 reproduction)"
)
DEPENDENCIES = ("numpy",)


# --------------------------------------------------------------------------- #
# Metadata files
# --------------------------------------------------------------------------- #


def _metadata_text() -> str:
    lines = [
        "Metadata-Version: 2.1",
        f"Name: {DIST_NAME}",
        f"Version: {VERSION}",
        f"Summary: {SUMMARY}",
        "Requires-Python: >=3.10",
        "License: MIT",
    ]
    lines.extend(f"Requires-Dist: {dependency}" for dependency in DEPENDENCIES)
    readme = PROJECT_ROOT / "README.md"
    body = readme.read_text(encoding="utf-8") if readme.exists() else SUMMARY
    lines.append("Description-Content-Type: text/markdown")
    return "\n".join(lines) + "\n\n" + body


def _wheel_text() -> str:
    return (
        "Wheel-Version: 1.0\n"
        "Generator: freqywm_build (stdlib)\n"
        "Root-Is-Purelib: true\n"
        f"Tag: {WHEEL_TAG}\n"
    )


def _entry_points_text() -> str:
    return "[console_scripts]\nfreqywm = repro.cli:main\n"


def _record_hash(data: bytes) -> str:
    digest = hashlib.sha256(data).digest()
    return "sha256=" + base64.urlsafe_b64encode(digest).rstrip(b"=").decode("ascii")


class _WheelWriter:
    """Accumulates files and writes a spec-compliant wheel archive."""

    def __init__(self, wheel_directory: str, dist_info: str) -> None:
        self.path = Path(wheel_directory) / f"{DIST_NAME}-{VERSION}-{WHEEL_TAG}.whl"
        self.dist_info = dist_info
        self._records: list[tuple[str, str, int]] = []
        self._zip = zipfile.ZipFile(self.path, "w", compression=zipfile.ZIP_DEFLATED)

    def add_bytes(self, arcname: str, data: bytes) -> None:
        self._zip.writestr(zipfile.ZipInfo(arcname, date_time=(2024, 1, 1, 0, 0, 0)), data)
        self._records.append((arcname, _record_hash(data), len(data)))

    def add_file(self, arcname: str, source: Path) -> None:
        self.add_bytes(arcname, source.read_bytes())

    def close(self) -> str:
        record_name = f"{self.dist_info}/RECORD"
        lines = [f"{name},{digest},{size}" for name, digest, size in self._records]
        lines.append(f"{record_name},,")
        self._zip.writestr(
            zipfile.ZipInfo(record_name, date_time=(2024, 1, 1, 0, 0, 0)),
            "\n".join(lines) + "\n",
        )
        self._zip.close()
        return self.path.name


def _add_dist_info(writer: _WheelWriter, dist_info: str) -> None:
    writer.add_bytes(f"{dist_info}/METADATA", _metadata_text().encode("utf-8"))
    writer.add_bytes(f"{dist_info}/WHEEL", _wheel_text().encode("utf-8"))
    writer.add_bytes(f"{dist_info}/entry_points.txt", _entry_points_text().encode("utf-8"))
    writer.add_bytes(f"{dist_info}/top_level.txt", f"{PACKAGE_NAME}\n".encode("utf-8"))


def _package_files() -> list[tuple[str, Path]]:
    package_root = PROJECT_ROOT / "src" / PACKAGE_NAME
    files = []
    for path in sorted(package_root.rglob("*")):
        if path.is_dir() or "__pycache__" in path.parts:
            continue
        arcname = str(Path(PACKAGE_NAME) / path.relative_to(package_root)).replace(os.sep, "/")
        files.append((arcname, path))
    return files


# --------------------------------------------------------------------------- #
# PEP 517 hooks
# --------------------------------------------------------------------------- #


def get_requires_for_build_wheel(config_settings=None):  # noqa: D103 - PEP 517 hook
    return []


def get_requires_for_build_editable(config_settings=None):  # noqa: D103 - PEP 660 hook
    return []


def get_requires_for_build_sdist(config_settings=None):  # noqa: D103 - PEP 517 hook
    return []


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None):
    """Build a regular wheel from the ``src/`` tree."""
    dist_info = f"{DIST_NAME}-{VERSION}.dist-info"
    writer = _WheelWriter(wheel_directory, dist_info)
    for arcname, path in _package_files():
        writer.add_file(arcname, path)
    _add_dist_info(writer, dist_info)
    return writer.close()


def build_editable(wheel_directory, config_settings=None, metadata_directory=None):
    """Build an editable wheel: a ``.pth`` file pointing at ``src/``."""
    dist_info = f"{DIST_NAME}-{VERSION}.dist-info"
    writer = _WheelWriter(wheel_directory, dist_info)
    src_path = str((PROJECT_ROOT / "src").resolve())
    writer.add_bytes(f"__editable__.{DIST_NAME}.pth", (src_path + "\n").encode("utf-8"))
    _add_dist_info(writer, dist_info)
    return writer.close()


def build_sdist(sdist_directory, config_settings=None):
    """Build a source distribution tarball of the project tree."""
    name = f"{DIST_NAME}-{VERSION}"
    sdist_path = Path(sdist_directory) / f"{name}.tar.gz"
    include = ["pyproject.toml", "setup.py", "freqywm_build.py", "README.md", "DESIGN.md",
               "EXPERIMENTS.md", "src", "tests", "benchmarks", "examples"]
    with tarfile.open(sdist_path, "w:gz") as archive:
        for entry in include:
            path = PROJECT_ROOT / entry
            if not path.exists():
                continue
            archive.add(path, arcname=f"{name}/{entry}", filter=_exclude_pycache)
    return sdist_path.name


def _exclude_pycache(tarinfo: tarfile.TarInfo):
    if "__pycache__" in tarinfo.name or tarinfo.name.endswith(".pyc"):
        return None
    return tarinfo
