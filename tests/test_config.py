from dataclasses import fields

import pytest

from mftp.config import (Config, ConfigError, ModelConfig, TrainingConfig, load_config,
                         save_config)
from mftp.data import GenConfig


def test_default_config_is_valid():
    Config().validate()


def test_default_granularity_resolution():
    m = ModelConfig(t_history=8)
    assert m.resolved_granularities() == [(2, 1), (4, 2), (8, 8)]
    tiny = ModelConfig(t_history=3)
    assert tiny.resolved_granularities() == [(2, 1), (3, 3)]


def test_explicit_granularities_pass_through():
    m = ModelConfig(granularities=[[3, 1], [8, 8]])
    assert m.resolved_granularities() == [(3, 1), (8, 8)]


@pytest.mark.parametrize("mutate,key", [
    (lambda c: setattr(c.model, "channels", 30), "model.channels"),
    (lambda c: setattr(c.model, "d_patch", 31), "model.d_patch"),
    (lambda c: setattr(c.model, "n_experts", 50), "model.n_experts"),
    (lambda c: setattr(c.model, "t_history", 1), "model.t_history"),
    (lambda c: setattr(c.model, "t_future", 0), "model.t_future"),
    (lambda c: setattr(c.model, "patch_len", 5), "model.patch_len"),
    (lambda c: setattr(c.model, "n_modes", 0), "model.n_modes"),
    (lambda c: setattr(c.model, "granularities", [[9, 1]]), "model.granularities"),
    (lambda c: setattr(c.model, "granularities", [[2, 0]]), "model.granularities"),
    (lambda c: setattr(c.training, "learning_rate", 0.0), "training.learning_rate"),
    (lambda c: setattr(c.training, "batch_size", 0), "training.batch_size"),
    (lambda c: setattr(c.training, "steps", -1), "training.steps"),
    (lambda c: setattr(c.data.synthetic, "num_scenarios", 0), "data.synthetic"),
    (lambda c: setattr(c.data.synthetic, "t_history", 6), "data.synthetic.t_history"),
])
def test_validation_names_offending_key(mutate, key):
    cfg = Config()
    mutate(cfg)
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        cfg.validate()


def _non_finite_cases():
    """(section, key, value): nan, then inf, in each float field and each range entry."""
    for bad in (float("nan"), float("inf")):
        for section, cls in (("model", ModelConfig), ("training", TrainingConfig),
                             ("data.synthetic", GenConfig)):
            for f in fields(cls):
                if isinstance(f.default, float):
                    yield section, f.name, bad
                elif isinstance(f.default, tuple):
                    for i in range(len(f.default)):
                        yield section, f.name, f.default[:i] + (bad,) + f.default[i + 1:]


@pytest.mark.parametrize("section, key, value", list(_non_finite_cases()))
def test_every_float_field_rejects_non_finite_values(section, key, value):
    cfg = Config()
    setattr(cfg.data.synthetic if section == "data.synthetic" else getattr(cfg, section),
            key, value)
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: .* is not finite$"):
        cfg.validate()


def test_all_zero_loss_weights_rejected():
    cfg = Config()
    cfg.training.alpha = cfg.training.beta = cfg.training.gamma = 0.0
    with pytest.raises(ConfigError, match="weights"):
        cfg.validate()


def test_json_roundtrip(tmp_path):
    cfg = Config()
    cfg.model.channels = 16
    cfg.model.granularities = [[2, 1], [8, 8]]
    cfg.training.steps = 123
    cfg.data.synthetic = GenConfig(num_scenarios=4, noise_std=0.05)
    path = str(tmp_path / "config.json")
    save_config(path, cfg)
    loaded = load_config(path)
    assert loaded.to_dict() == cfg.to_dict()


def test_load_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"model": {"banana": 1}}')
    with pytest.raises(ConfigError, match="banana"):
        load_config(str(path))


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(path))
