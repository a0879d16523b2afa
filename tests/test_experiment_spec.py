"""Unit tests for experiment specs: parsing, validation, fingerprints."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError, ReproError
from repro.experiments.spec import (
    AttackSpec,
    DatasetSpec,
    ExperimentSpec,
    load_spec,
)

SPEC_DIR = Path(__file__).resolve().parent.parent / "experiments" / "specs"


def _minimal_payload(**overrides):
    payload = {
        "name": "unit",
        "seed": 3,
        "datasets": [
            {"name": "d0", "kind": "power-law", "alpha": 0.5, "tokens": 20, "samples": 2000}
        ],
        "generation": {"budget_percent": 2.0, "modulus_cap": 11},
    }
    payload.update(overrides)
    return payload


class TestLoading:
    def test_roundtrip_through_dict(self):
        spec = ExperimentSpec.from_dict(_minimal_payload())
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_bundled_specs_all_parse(self):
        names = set()
        for path in sorted(SPEC_DIR.glob("*.json")):
            spec = load_spec(path)
            assert spec.name
            names.add(spec.name)
        # The three paper-mapped specs plus the CI smoke spec.
        assert {
            "smoke",
            "robustness-sweep",
            "fpr-curve",
            "baseline-comparison",
        } <= names

    def test_toml_twin_matches_json_fingerprint(self):
        json_spec = load_spec(SPEC_DIR / "smoke.json")
        toml_spec = load_spec(SPEC_DIR / "smoke.toml")
        assert toml_spec == json_spec
        assert toml_spec.fingerprint() == json_spec.fingerprint()

    def test_save_then_load(self, tmp_path):
        spec = ExperimentSpec.from_dict(_minimal_payload())
        path = tmp_path / "spec.json"
        spec.save(path)
        assert load_spec(path) == spec

    def test_fingerprint_is_key_order_independent(self):
        payload = _minimal_payload()
        reversed_payload = dict(reversed(list(payload.items())))
        assert (
            ExperimentSpec.from_dict(payload).fingerprint()
            == ExperimentSpec.from_dict(reversed_payload).fingerprint()
        )

    def test_fingerprint_changes_with_seed(self):
        base = ExperimentSpec.from_dict(_minimal_payload())
        other = ExperimentSpec.from_dict(_minimal_payload(seed=4))
        assert base.fingerprint() != other.fingerprint()


class TestValidation:
    @pytest.mark.parametrize(
        "payload",
        [
            _minimal_payload(name="Not A Slug"),
            _minimal_payload(unknown_field=1),
            _minimal_payload(datasets=[]),
            _minimal_payload(
                datasets=[
                    {"name": "d0", "tokens": 20, "samples": 2000},
                    {"name": "d0", "tokens": 20, "samples": 2000},
                ]
            ),
            _minimal_payload(
                datasets=[{"name": "d0", "kind": "zipf", "tokens": 20, "samples": 2000}]
            ),
            _minimal_payload(attacks=[{"kind": "quantum"}]),
            _minimal_payload(attacks=[{"kind": "sampling", "strengths": [1.5]}]),
            _minimal_payload(attacks=[{"kind": "sampling", "repetitions": 0}]),
            _minimal_payload(thresholds=[-1]),
            _minimal_payload(thresholds=[0, 0]),
            _minimal_payload(thresholds=[]),
            _minimal_payload(thresholds=[0, 1.5]),
            _minimal_payload(thresholds=[True]),
            _minimal_payload(thresholds=["2"]),
            _minimal_payload(min_accepted_fraction=1.5),
            _minimal_payload(analyses=["sorcery"]),
            _minimal_payload(analyses=[]),
            _minimal_payload(baselines=["wm-unknown"]),
            _minimal_payload(fpr_trials=0),
            _minimal_payload(secrets_per_dataset=0),
            _minimal_payload(generation={"budget_percent": 2.0, "bogus_knob": 1}),
            _minimal_payload(generation={"modulus_cap": 1}),
        ],
    )
    def test_rejected_payloads(self, payload):
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict(payload)

    def test_dataset_validation(self):
        with pytest.raises(ConfigurationError):
            DatasetSpec(name="d", tokens=1)
        with pytest.raises(ConfigurationError):
            DatasetSpec(name="d", tokens=10, samples=5)
        with pytest.raises(ConfigurationError):
            DatasetSpec(name="", tokens=10, samples=100)

    def test_attack_validation(self):
        with pytest.raises(ConfigurationError):
            AttackSpec(kind="sampling", strengths=())
        with pytest.raises(ConfigurationError):
            AttackSpec(kind="reordering", strengths=(-1.0,))

    def test_missing_required_fields_raise_configuration_errors(self):
        """A spec file omitting a required key fails with the promised
        ConfigurationError, never a bare KeyError."""
        with pytest.raises(ConfigurationError, match="missing required field 'name'"):
            ExperimentSpec.from_dict(
                _minimal_payload(datasets=[{"tokens": 20, "samples": 2000}])
            )
        with pytest.raises(ConfigurationError, match="missing required field 'kind'"):
            ExperimentSpec.from_dict(
                _minimal_payload(attacks=[{"strengths": [0.5]}])
            )

    def test_integral_float_thresholds_accepted(self):
        """JSON/TOML sometimes render integers as 2.0 — fine; 1.5 is not."""
        spec = ExperimentSpec.from_dict(_minimal_payload(thresholds=[0, 2.0]))
        assert spec.thresholds == (0, 2)

    def test_non_list_sections_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict(_minimal_payload(datasets="d0"))
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict(_minimal_payload(attacks="sampling"))


#: Every bundled spec's fingerprint, as computed before the typed decoder.
_BUNDLED_FINGERPRINTS = {
    "attribution_scaling.json": "81172332522a800c509ad0ca321d1b09f7cf991176a23d320171509b77d7ef7c",
    "baseline_comparison.json": "bbdfc21355d502b49e8f7d2758a4a55ed836408da862912bbf1a0128dcf2546b",
    "fpr_curve.json": "d6f32af97b4d251ec15e5a93af9e5fa7a25a29d8528304cacf10d54990a5c4a2",
    "robustness_sweep.json": "7d11c7fd838f9f15a654b81376b8579b2b5f6f9322a18cd2968b981cdcf232bf",
    "smoke.json": "ecd64b69f6eae513e3f439d5a448793bb3bf5bceadd2c734b3c441a271433b77",
    "smoke.toml": "ecd64b69f6eae513e3f439d5a448793bb3bf5bceadd2c734b3c441a271433b77",
}

#: Replacement values of the one-field mutation sweep.
_MUTANTS = [None, [], {}, "x", 1.5, True, -1, [None], {"a": 1}, [[1]], "", 2**70]


def _field_paths(node, prefix=()):
    """Every key / index path inside ``node``, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


def _replaced(payload, path, value):
    copy = json.loads(json.dumps(payload))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return copy


class TestTypedDecoding:
    def test_bundled_specs_decode_as_before(self):
        """Every bundled spec decodes to an equal spec with its old fingerprint."""
        assert sorted(path.name for path in SPEC_DIR.iterdir()) == sorted(_BUNDLED_FINGERPRINTS)
        for name, fingerprint in _BUNDLED_FINGERPRINTS.items():
            spec = load_spec(SPEC_DIR / name)
            assert spec.fingerprint() == fingerprint, name
            assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("name", sorted(path.name for path in SPEC_DIR.glob("*.json")))
    def test_one_field_mutations_decode_or_raise_typed(self, name):
        """Any one field, at any depth, replaced by any mutant value either
        decodes or raises a ReproError — never a raw TypeError / ValueError."""
        payload = json.loads((SPEC_DIR / name).read_text(encoding="utf-8"))
        escapes = []
        for path in _field_paths(payload):
            for value in _MUTANTS:
                try:
                    ExperimentSpec.from_dict(_replaced(payload, path, value))
                except ReproError:
                    pass
                except Exception as error:  # noqa: BLE001 - collected, then reported
                    escapes.append(f"{path} = {value!r}: {type(error).__name__}: {error}")
        assert escapes == []

    @pytest.mark.parametrize(
        ("overrides", "field"),
        [
            ({"seed": "7"}, "'seed'"),
            ({"datasets": [{"name": "d0", "alpha": True, "tokens": 20, "samples": 2000}]}, "'alpha'"),
            ({"datasets": [{"name": "d0", "tokens": [1], "samples": 2000}]}, "'tokens'"),
            ({"generation": {"modulus_cap": "11"}}, "'modulus_cap'"),
            ({"attacks": [{"kind": "sampling", "strengths": ["0.5"]}]}, "'strengths' item 0"),
            ({"secrets_per_dataset": 1.5}, "'secrets_per_dataset'"),
        ],
    )
    def test_wrong_kinds_name_the_field(self, overrides, field):
        with pytest.raises(ConfigurationError, match=field):
            ExperimentSpec.from_dict(_minimal_payload(**overrides))

    def test_unparsable_files_raise_configuration_errors(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        (tmp_path / "bad.toml").write_text("name = [", encoding="utf-8")
        for name in ("bad.json", "bad.toml"):
            with pytest.raises(ConfigurationError, match="not valid"):
                load_spec(tmp_path / name)


class TestResolvedConfigs:
    def test_generation_config_resolution(self):
        spec = ExperimentSpec.from_dict(
            _minimal_payload(
                generation={
                    "budget_percent": 1.5,
                    "modulus_cap": 17,
                    "strategy": "greedy",
                    "max_pairs": 5,
                }
            )
        )
        config = spec.generation_config()
        assert config.budget_percent == 1.5
        assert config.modulus_cap == 17
        assert config.strategy == "greedy"
        assert config.max_pairs == 5

    def test_detection_config_resolution(self):
        spec = ExperimentSpec.from_dict(
            _minimal_payload(thresholds=[0, 3], min_accepted_fraction=0.25)
        )
        config = spec.detection_config(3)
        assert config.pair_threshold == 3
        assert config.min_accepted_fraction == 0.25

    def test_bundled_smoke_spec_is_canonical_json(self):
        """The committed smoke spec parses to exactly what it declares."""
        raw = json.loads((SPEC_DIR / "smoke.json").read_text(encoding="utf-8"))
        spec = ExperimentSpec.from_dict(raw)
        assert spec.name == "smoke"
        assert spec.secrets_per_dataset == 1
        assert [attack.kind for attack in spec.attacks] == ["sampling", "reordering"]
