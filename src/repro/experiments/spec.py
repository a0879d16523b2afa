"""Declarative experiment specifications.

An :class:`ExperimentSpec` describes one reproduction of (a slice of) the
paper's evaluation as a *grid sweep*: synthetic datasets × embedded
secrets × attack families with swept strengths × detection thresholds ×
analysis layers. Specs are plain frozen dataclasses, loadable from JSON
or TOML files, and every spec has a stable SHA-256 fingerprint so runs
are content-addressed end to end (see :mod:`repro.experiments.cache`).

The schema is deliberately small — it only names things the rest of the
library already knows how to do — and strictly validated at construction
time, so a typo in a spec file fails before any task runs. Decoding
checks each field's JSON kind first: a wrong kind raises
:class:`~repro.exceptions.ConfigurationError` naming the field. A
boolean is not a number, a string is never parsed as one, and an
integral float (``2.0``) is accepted where an integer belongs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import reprlib
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Tuple, Union

from repro.core.config import DetectionConfig, GenerationConfig
from repro.exceptions import ConfigurationError

#: Known dataset generators (see :mod:`repro.datasets.synthetic`).
DATASET_KINDS = ("power-law", "uniform")
#: Known attack families (see :mod:`repro.attacks`). ``strength`` means a
#: sampling fraction for ``sampling`` and a noise percentage for the
#: ``reordering`` / ``percentage`` destroy attacks; ``boundary`` draws
#: full-slack noise and takes no strength knob.
ATTACK_KINDS = ("sampling", "reordering", "percentage", "boundary")
#: Analysis layers a spec may request. ``attribution`` reproduces the
#: marketplace workflow: it scales a :class:`~repro.dispute.registry.
#: WatermarkRegistry` vault with decoy buyers and checks that the leaked
#: watermarked dataset is attributed to its buyer through the sublinear
#: candidate index (see ``docs/registry.md``).
ANALYSIS_KINDS = ("robustness", "fpr_curve", "distortion", "baselines", "attribution")
#: Baseline comparators from :mod:`repro.baselines`.
BASELINE_METHODS = ("wm-obt", "wm-rvs")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class DatasetSpec:
    """One synthetic input dataset of the sweep.

    ``power-law`` datasets follow the paper's Section V workload (skewness
    ``alpha``, ``tokens`` distinct tokens, ``samples`` total occurrences,
    multinomially sampled); ``uniform`` builds the degenerate flat
    histogram where FreqyWM cannot embed (negative-control runs).
    """

    name: str
    kind: str = "power-law"
    alpha: float = 0.5
    tokens: int = 120
    samples: int = 60_000

    def __post_init__(self) -> None:
        _require(bool(self.name), "dataset name must be non-empty")
        _require(
            self.name == _slug(self.name),
            f"dataset name must be a slug ([a-z0-9._-]), got {self.name!r}",
        )
        _require(
            self.kind in DATASET_KINDS,
            f"dataset kind must be one of {DATASET_KINDS}, got {self.kind!r}",
        )
        _require(self.alpha >= 0.0, f"alpha must be >= 0, got {self.alpha}")
        _require(self.tokens >= 2, f"tokens must be >= 2, got {self.tokens}")
        _require(self.samples >= self.tokens, "samples must be >= tokens")

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "alpha": self.alpha,
            "tokens": self.tokens,
            "samples": self.samples,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "DatasetSpec":
        read = _reader("dataset", payload, cls)
        return cls(
            name=read("name", _string),
            kind=read("kind", _string, "power-law"),
            alpha=read("alpha", _number, 0.5),
            tokens=read("tokens", _integer, 120),
            samples=read("samples", _integer, 60_000),
        )


@dataclass(frozen=True)
class AttackSpec:
    """One attack family with a swept strength axis.

    Every ``(strength, repetition)`` cell becomes its own cacheable attack
    task; detection then screens all repetitions of a cell in one
    vectorized ``detect_many`` batch.
    """

    kind: str
    strengths: Tuple[float, ...] = (1.0,)
    repetitions: int = 1

    def __post_init__(self) -> None:
        _require(
            self.kind in ATTACK_KINDS,
            f"attack kind must be one of {ATTACK_KINDS}, got {self.kind!r}",
        )
        _require(len(self.strengths) > 0, "attack strengths must be non-empty")
        _require(self.repetitions >= 1, "attack repetitions must be >= 1")
        for strength in self.strengths:
            if self.kind == "sampling":
                _require(
                    0.0 < strength <= 1.0,
                    f"sampling strengths are fractions in (0, 1], got {strength}",
                )
            else:
                _require(
                    strength >= 0.0,
                    f"attack strength must be >= 0, got {strength}",
                )

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "strengths": list(self.strengths),
            "repetitions": self.repetitions,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "AttackSpec":
        read = _reader("attack", payload, cls)
        return cls(
            kind=read("kind", _string),
            strengths=read("strengths", _list_of(_number), (1.0,)),
            repetitions=read("repetitions", _integer, 1),
        )


_SLUG_ALLOWED = set("abcdefghijklmnopqrstuvwxyz0123456789._-")


def _slug(value: str) -> str:
    return "".join(char for char in value.lower() if char in _SLUG_ALLOWED)


def _check_keys(section: str, payload: object, allowed: set) -> None:
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"{section} spec must be a table, got {reprlib.repr(payload)}"
        )
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown {section} spec field(s): {', '.join(sorted(map(str, unknown)))}"
        )


#: A field decoder: ``(label, raw JSON value) -> decoded value``.
_Decoder = Callable[[str, Any], Any]

_REQUIRED = object()


def _reader(section: str, payload: object, spec_type: type) -> Callable[..., Any]:
    """``read(key, decode, default)`` over one spec table.

    The table's keys must be fields of ``spec_type``. A key without a
    default is required; a present value goes through ``decode``.
    """
    _check_keys(section, payload, {item.name for item in dataclasses.fields(spec_type)})
    return partial(_field, section, payload)


def _field(
    section: str,
    payload: Mapping[str, object],
    key: str,
    decode: _Decoder,
    default: object = _REQUIRED,
) -> Any:
    if key in payload:
        return decode(f"{section} spec field {key!r}", payload[key])
    if default is _REQUIRED:
        raise ConfigurationError(f"{section} spec is missing required field {key!r}")
    return default


def _wrong_kind(label: str, expects: str, value: object) -> ConfigurationError:
    return ConfigurationError(f"{label} must be {expects}, got {reprlib.repr(value)}")


def _string(label: str, value: object) -> str:
    if not isinstance(value, str):
        raise _wrong_kind(label, "a string", value)
    return value


def _number(label: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _wrong_kind(label, "a number", value)
    try:
        return float(value)
    except OverflowError:
        raise _wrong_kind(label, "a number in float range", value) from None


def _integer(label: str, value: object) -> int:
    """An integer, rejecting fractional values.

    ``int(1.5)`` would silently truncate a typo to a different sweep
    point; integral floats (``2.0``, as JSON/TOML sometimes render
    integers) are accepted.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise _wrong_kind(label, "an integer", value)
    return int(value)


def _optional_integer(label: str, value: object) -> object:
    return None if value is None else _integer(label, value)


def _table(label: str, value: object) -> Mapping[str, object]:
    if not isinstance(value, Mapping):
        raise _wrong_kind(label, "a table", value)
    return value


def _list_of(decode: _Decoder) -> _Decoder:
    """A decoder for a list whose items each go through ``decode``."""

    def decode_list(label: str, value: object) -> Tuple[Any, ...]:
        if not isinstance(value, (list, tuple)):
            raise _wrong_kind(label, "a list", value)
        return tuple(
            decode(f"{label} item {index}", item) for index, item in enumerate(value)
        )

    return decode_list


#: Decoders of the ``generation`` table's fields.
_GENERATION_FIELDS: Dict[str, _Decoder] = {
    "budget_percent": _number,
    "modulus_cap": _integer,
    "strategy": _string,
    "max_pairs": _optional_integer,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """A full declarative experiment: the grid plus its analysis layers.

    Attributes
    ----------
    name:
        Slug naming the experiment (also the default run-directory name).
    seed:
        Root seed. Every task derives its own independent RNG stream from
        ``(seed, task fingerprint)`` via :func:`repro.utils.rng.derive_rng`,
        so results are bit-identical regardless of worker count or
        execution order.
    datasets:
        The input datasets of the sweep.
    generation:
        ``WM_Generate`` parameters shared by every embedding.
    secrets_per_dataset:
        Independent watermarks embedded per dataset (one batched
        ``generate_many`` pass per dataset).
    attacks:
        Attack families swept against every embedded watermark. A
        no-attack detection row is always included.
    thresholds:
        Detection threshold sweep (the paper's ``t`` axis).
    min_accepted_fraction:
        The ``k`` knob, as a fraction of stored pairs.
    analyses:
        Analysis layers to run (subset of :data:`ANALYSIS_KINDS`).
    baselines:
        Comparators for the ``baselines`` analysis.
    fpr_trials:
        Monte-Carlo trials for the empirical column of the FPR curve.
    attribution_vault_sizes:
        Vault sizes (registered buyers, real + decoy) swept by the
        ``attribution`` analysis.
    """

    name: str
    description: str = ""
    seed: int = 0
    datasets: Tuple[DatasetSpec, ...] = ()
    generation: Mapping[str, object] = field(default_factory=dict)
    secrets_per_dataset: int = 1
    attacks: Tuple[AttackSpec, ...] = ()
    thresholds: Tuple[int, ...] = (0, 1, 2, 4)
    min_accepted_fraction: float = 0.5
    analyses: Tuple[str, ...] = ("robustness",)
    baselines: Tuple[str, ...] = BASELINE_METHODS
    fpr_trials: int = 2000
    attribution_vault_sizes: Tuple[int, ...] = (16, 64, 256)

    def __post_init__(self) -> None:
        _require(bool(self.name), "experiment name must be non-empty")
        _require(
            self.name == _slug(self.name),
            f"experiment name must be a slug ([a-z0-9._-]), got {self.name!r}",
        )
        _require(len(self.datasets) > 0, "spec must declare at least one dataset")
        names = [dataset.name for dataset in self.datasets]
        _require(len(set(names)) == len(names), "dataset names must be unique")
        _require(
            self.secrets_per_dataset >= 1,
            f"secrets_per_dataset must be >= 1, got {self.secrets_per_dataset}",
        )
        _require(len(self.thresholds) > 0, "thresholds must be non-empty")
        for threshold in self.thresholds:
            _require(
                isinstance(threshold, int) and threshold >= 0,
                f"thresholds must be non-negative integers, got {threshold!r}",
            )
        _require(
            len(set(self.thresholds)) == len(self.thresholds),
            "thresholds must be unique",
        )
        _require(
            0.0 <= self.min_accepted_fraction <= 1.0,
            "min_accepted_fraction must lie in [0, 1]",
        )
        _require(len(self.analyses) > 0, "spec must request at least one analysis")
        for analysis in self.analyses:
            _require(
                analysis in ANALYSIS_KINDS,
                f"analysis must be one of {ANALYSIS_KINDS}, got {analysis!r}",
            )
        for method in self.baselines:
            _require(
                method in BASELINE_METHODS,
                f"baseline must be one of {BASELINE_METHODS}, got {method!r}",
            )
        _require(self.fpr_trials >= 1, "fpr_trials must be >= 1")
        _require(
            len(self.attribution_vault_sizes) > 0,
            "attribution_vault_sizes must be non-empty",
        )
        for size in self.attribution_vault_sizes:
            _require(
                isinstance(size, int) and size >= 1,
                f"attribution_vault_sizes must be positive integers, got {size!r}",
            )
        _require(
            len(set(self.attribution_vault_sizes))
            == len(self.attribution_vault_sizes),
            "attribution_vault_sizes must be unique",
        )
        # Fail early on bad generation parameters, not inside a worker.
        self.generation_config()

    # ------------------------------------------------------------------ #
    # Resolved configurations
    # ------------------------------------------------------------------ #

    def generation_config(self) -> GenerationConfig:
        """The resolved :class:`GenerationConfig` shared by every embed."""
        payload = dict(self.generation)
        _check_keys("generation", payload, set(_GENERATION_FIELDS))
        kwargs = {
            key: decode(f"generation spec field {key!r}", payload[key])
            for key, decode in _GENERATION_FIELDS.items()
            if key in payload
        }
        return GenerationConfig(**kwargs)

    def detection_config(self, threshold: int) -> DetectionConfig:
        """The resolved :class:`DetectionConfig` for one sweep threshold."""
        return DetectionConfig(
            pair_threshold=threshold,
            min_accepted_fraction=self.min_accepted_fraction,
        )

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-able representation (the fingerprint input)."""
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "datasets": [dataset.to_dict() for dataset in self.datasets],
            "generation": dict(self.generation),
            "secrets_per_dataset": self.secrets_per_dataset,
            "attacks": [attack.to_dict() for attack in self.attacks],
            "thresholds": list(self.thresholds),
            "min_accepted_fraction": self.min_accepted_fraction,
            "analyses": list(self.analyses),
            "baselines": list(self.baselines),
            "fpr_trials": self.fpr_trials,
            "attribution_vault_sizes": list(self.attribution_vault_sizes),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExperimentSpec":
        """Decode a spec table, checking each field's JSON kind."""
        read = _reader("experiment", payload, cls)
        return cls(
            name=read("name", _string, ""),
            description=read("description", _string, ""),
            seed=read("seed", _integer, 0),
            datasets=read(
                "datasets", _list_of(lambda _label, item: DatasetSpec.from_dict(item)), ()
            ),
            generation=dict(read("generation", _table, {})),
            secrets_per_dataset=read("secrets_per_dataset", _integer, 1),
            attacks=read(
                "attacks", _list_of(lambda _label, item: AttackSpec.from_dict(item)), ()
            ),
            thresholds=read("thresholds", _list_of(_integer), (0, 1, 2, 4)),
            min_accepted_fraction=read("min_accepted_fraction", _number, 0.5),
            analyses=read("analyses", _list_of(_string), ("robustness",)),
            baselines=read("baselines", _list_of(_string), BASELINE_METHODS),
            fpr_trials=read("fpr_trials", _integer, 2000),
            attribution_vault_sizes=read(
                "attribution_vault_sizes", _list_of(_integer), (16, 64, 256)
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Decode a JSON spec; text that is not JSON raises ConfigurationError."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"spec is not valid JSON ({exc})") from None
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Load a spec file; the suffix picks the parser (JSON or TOML)."""
        import tomllib

        path = Path(path)
        toml = path.suffix.lower() == ".toml"
        try:
            text = path.read_text(encoding="utf-8")
            payload = tomllib.loads(text) if toml else json.loads(text)
        except ValueError as exc:  # also UnicodeDecodeError
            kind = "TOML" if toml else "JSON"
            raise ConfigurationError(f"spec {path} is not valid {kind} ({exc})") from None
        return cls.from_dict(payload)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def fingerprint(self) -> str:
        """Content hash of the spec (stable across field ordering)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_spec(path: Union[str, Path]) -> ExperimentSpec:
    """Module-level convenience mirroring :meth:`ExperimentSpec.load`."""
    return ExperimentSpec.load(path)


__all__ = [
    "ANALYSIS_KINDS",
    "ATTACK_KINDS",
    "BASELINE_METHODS",
    "DATASET_KINDS",
    "AttackSpec",
    "DatasetSpec",
    "ExperimentSpec",
    "load_spec",
]
