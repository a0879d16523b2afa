"""Structural guards for the cached-detector and moduli refactors.

The multi-layer refactor moved every upper layer (attacks, dispute,
multi-watermarking) off ad-hoc ``WatermarkDetector(...)`` construction
and onto the shared :class:`~repro.core.cache.DetectorCache` / batched
primitives. These guards keep it that way: constructing a detector
inside a loop (or comprehension) in those layers is the regression the
PR eliminated, so the test suite fails if one reappears.

A secret's moduli likewise have one derivation
(:meth:`~repro.core.secrets.WatermarkSecret.moduli`, memoised per
secret) and a vocabulary's one row routine; a second copy of either
fails :class:`TestOneModuliDerivation`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

_SRC = Path(repro.__file__).resolve().parent

#: Modules that must never construct a WatermarkDetector inside a loop.
GUARDED_MODULES = sorted(
    [
        *(_SRC / "attacks").glob("*.py"),
        *(_SRC / "dispute").glob("*.py"),
        _SRC / "core" / "multiwatermark.py",
    ]
)

_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _is_detector_construction(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    function = node.func
    if isinstance(function, ast.Name):
        return function.id == "WatermarkDetector"
    if isinstance(function, ast.Attribute):
        return function.attr == "WatermarkDetector"
    return False


def _loop_constructions(tree: ast.AST) -> list:
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, _LOOP_NODES):
            for child in ast.walk(node):
                if _is_detector_construction(child):
                    offenders.append(child.lineno)
    return offenders


class TestNoDetectorConstructionInLoops:
    def test_guarded_modules_exist(self):
        # The guard must actually cover the refactored layers.
        names = {path.name for path in GUARDED_MODULES}
        assert {"guess.py", "rewatermark.py", "judge.py", "registry.py"} <= names
        assert "multiwatermark.py" in names

    def test_no_watermark_detector_constructed_inside_loops(self):
        failures = {}
        for path in GUARDED_MODULES:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            offenders = _loop_constructions(tree)
            if offenders:
                failures[str(path.relative_to(_SRC))] = offenders
        assert not failures, (
            "WatermarkDetector constructed inside a loop/comprehension — use "
            f"DetectorCache or a batched primitive instead: {failures}"
        )


def _names_used(tree: ast.AST) -> set:
    """Every name a module references: bare names, attributes, imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def _names_called(tree: ast.AST) -> set:
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            function = node.func
            if isinstance(function, ast.Name):
                called.add(function.id)
            elif isinstance(function, ast.Attribute):
                called.add(function.attr)
    return called


class TestOneModuliDerivation:
    """A secret's moduli are derived in one place and memoised there."""

    @staticmethod
    def _modules_where(select, name: str) -> set:
        return {
            str(path.relative_to(_SRC))
            for path in sorted(_SRC.rglob("*.py"))
            if name in select(ast.parse(path.read_text(encoding="utf-8")))
        }

    def test_only_the_spec_references_pair_modulus(self):
        assert self._modules_where(_names_used, "pair_modulus") <= {
            "core/hashing.py",
            "core/reference.py",
        }

    def test_each_bulk_routine_has_one_caller(self):
        assert self._modules_where(_names_called, "moduli_of_pairs") == {"core/secrets.py"}
        assert self._modules_where(_names_called, "upper_triangle_rows") == {
            "core/eligibility.py"
        }
