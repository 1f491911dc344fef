import dataclasses
import json

import pytest

from ynetr.config import (
    ConfigError,
    IntensityConfig,
    PhantomRunConfig,
    RunConfig,
    canonical_json,
    load_run_config,
    run_config_from_dict,
    run_config_to_dict,
)
from ynetr.inference import InferenceConfig
from ynetr.losses import LossConfig
from ynetr.model import ModelConfig
from ynetr.phantom import PhantomSpec
from ynetr.sampling import SamplerConfig
from ynetr.training import TrainConfig


def minimal_dict(**overrides):
    data = {
        "model": {
            "input_dims": [32, 32, 32],
            "embed_dim": 64,
            "num_heads": 4,
            "decoder_channels": [64, 64, 32, 16, 8],
        },
        "sampler": {"window": [32, 32, 32], "jitter_max": 8},
        "train": {"epochs": 1, "steps_per_epoch": 2},
        "phantom": {"count": 1, "spec": {"shape": [32, 32, 32]}},
    }
    data.update(overrides)
    return data


def test_defaults_are_filled():
    cfg = run_config_from_dict(minimal_dict())
    assert cfg.intensity.lo == -175.0
    assert cfg.inference.overlap == 0.5
    assert cfg.train.loss.alpha == 0.5


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown top-level"):
        run_config_from_dict(minimal_dict(extra_section={}))


def test_unknown_nested_key():
    bad = minimal_dict()
    bad["model"]["hidden_layers"] = 3
    with pytest.raises(ConfigError, match="model"):
        run_config_from_dict(bad)


def test_unknown_loss_key():
    bad = minimal_dict()
    bad["train"]["loss"] = {"alpha": 0.5, "gamma": 2.0}
    with pytest.raises(ConfigError, match="train.loss"):
        run_config_from_dict(bad)


def test_window_must_match_model_dims():
    bad = minimal_dict()
    bad["sampler"]["window"] = [16, 16, 16]
    with pytest.raises(ConfigError, match="window"):
        run_config_from_dict(bad)


def test_canonical_form_is_fixed_point():
    cfg = run_config_from_dict(minimal_dict())
    text = canonical_json(cfg)
    reparsed = run_config_from_dict(json.loads(text))
    assert canonical_json(reparsed) == text
    # canonical form spells out every default
    doc = json.loads(text)
    assert set(doc) == {
        "intensity", "model", "sampler", "train", "inference", "phantom",
    }
    assert doc["train"]["loss"]["alpha"] == 0.5


def test_load_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_dict()))
    cfg = load_run_config(path)
    assert cfg.model.embed_dim == 64
    assert run_config_to_dict(cfg)["train"]["steps_per_epoch"] == 2


def test_invalid_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(path)


def test_default_runconfig_consistent():
    # the all-defaults config constructs, so it passes every check
    cfg = RunConfig()
    assert cfg.model.input_dims == (128, 128, 128)
    assert cfg.sampler.window == (128, 128, 128)


def test_removed_keys_are_unknown():
    # seed and deterministic were never read; echoes that carry them are refused
    with pytest.raises(ConfigError, match=r"unknown top-level keys \['deterministic', 'seed'\]"):
        run_config_from_dict(minimal_dict(seed=3, deterministic=True))
    for section, key in [("train", "deterministic"), ("train", "checkpoint_every"),
                         ("sampler", "seed")]:
        bad = minimal_dict()
        bad[section][key] = 0
        with pytest.raises(ConfigError, match=f"{section}: unknown keys"):
            run_config_from_dict(bad)


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("train", "epochs", "3", "train.epochs: expected int, got str"),
        ("train", "epochs", True, "train.epochs: expected int, got bool"),
        ("train", "epochs", 1.0, "train.epochs: expected int, got float"),
        ("inference", "overlap", "x", "inference.overlap: expected float, got str"),
        ("inference", "overlap", None, "inference.overlap: expected float, got NoneType"),
        ("intensity", "lo", 10**400, "intensity.lo: expected float, got int out of float range"),
        ("model", "input_dims", 5, r"model.input_dims: expected tuple\[int, int, int\], got int"),
        ("model", "input_dims", [32, 32],
         r"model.input_dims: expected tuple\[int, int, int\], got 2 items"),
        ("model", "input_dims", [32, "32", 32], r"model.input_dims\[1\]: expected int, got str"),
        ("model", "decoder_channels", [64, 64, 32, 16, True],
         r"model.decoder_channels\[4\]: expected int, got bool"),
        ("model", "zero_init_head", 1, "model.zero_init_head: expected bool, got int"),
        (None, "intensity", [-175.0, 250.0], "intensity: expected an object, got list"),
        ("model", "num_heads", 0, "must be >= 1"),
        ("sampler", "window", {"x": 32},
         r"sampler.window: expected tuple\[int, int, int\], got dict"),
        ("train", "loss", [], "train.loss: expected an object, got list"),
        ("phantom", "count", "2", "phantom.count: expected int, got str"),
        ("intensity", "hi", float("inf"), "intensity.hi: expected a finite float, got inf"),
        ("train", "learning_rate", float("nan"),
         "train.learning_rate: expected a finite float, got nan"),
        ("inference", "threshold", float("-inf"),
         "inference.threshold: expected a finite float, got -inf"),
    ],
)
def test_wrong_typed_values(section, key, value, message):
    bad = minimal_dict()
    target = bad if section is None else bad.setdefault(section, {})
    target[key] = value
    with pytest.raises(ConfigError, match=message):
        run_config_from_dict(bad)


def test_nested_and_optional_values_are_checked():
    bad = minimal_dict()
    bad["train"]["loss"] = {"alpha": "half"}
    with pytest.raises(ConfigError, match="train.loss.alpha: expected float, got str"):
        run_config_from_dict(bad)
    # a tuple is checked for its length, then item by item, so the fault is named
    bad = minimal_dict()
    bad["phantom"]["spec"]["tumor_volume_cm3"] = [1.0, 2.0, 3.0]
    want = r"phantom.spec.tumor_volume_cm3: expected tuple\[float, float\], got 3 items"
    with pytest.raises(ConfigError, match=want):
        run_config_from_dict(bad)
    bad["phantom"]["spec"]["tumor_volume_cm3"] = [float("nan"), 2.0]
    want = r"phantom.spec.tumor_volume_cm3\[0\]: expected a finite float, got nan"
    with pytest.raises(ConfigError, match=want):
        run_config_from_dict(bad)


CONFIG_CLASSES = [IntensityConfig, ModelConfig, SamplerConfig, TrainConfig, LossConfig,
                  InferenceConfig, PhantomSpec, PhantomRunConfig, RunConfig]


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
def test_configs_are_frozen(cls):
    cfg = cls()
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, name, getattr(cfg, name))


def test_replace_runs_the_checks_again():
    with pytest.raises(ValueError, match="divisible by 4, got 6"):
        dataclasses.replace(ModelConfig(depth=4), depth=6)
    with pytest.raises(ValueError, match="threshold"):
        dataclasses.replace(InferenceConfig(), threshold=1.0)
    with pytest.raises(ConfigError, match="sampler window"):
        dataclasses.replace(RunConfig(), sampler=SamplerConfig(window=(32, 32, 32)))
    assert dataclasses.replace(SamplerConfig(), window=[16, 16, 16]).window == (16, 16, 16)


def test_well_typed_values_accepted():
    doc = minimal_dict()
    doc["intensity"] = {"lo": -100, "hi": 200.5}  # ints are accepted for floats
    doc["phantom"]["spec"]["tumor_volume_cm3"] = [1, 2.5]
    cfg = run_config_from_dict(doc)
    assert cfg.intensity.lo == -100.0 and isinstance(cfg.intensity.lo, float)
    assert cfg.phantom.spec.tumor_volume_cm3 == (1.0, 2.5)
    assert all(isinstance(v, float) for v in cfg.phantom.spec.tumor_volume_cm3)
