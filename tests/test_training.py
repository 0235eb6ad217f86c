import numpy as np
import pytest

from mftp.config import Config, ModelConfig, TrainingConfig, DataConfig
from mftp.data import GenConfig
from mftp.model import TrajectoryPredictor
from mftp.tensor import Tensor
from mftp.training import (
    Adam,
    _batch_indices,
    build_training_items,
    load_checkpoint,
    load_training_scenarios,
    save_checkpoint,
    train,
    train_step,
)


def _tiny_config(steps=5, **model_overrides):
    model = dict(channels=8, d_patch=8, n_heads=2, n_modes=2, refine_rounds=1,
                 n_experts=2, t_history=8, t_future=4, patch_len=4,
                 granularities=[[2, 1], [8, 8]])
    model.update(model_overrides)
    return Config(
        model=ModelConfig(**model),
        training=TrainingConfig(steps=steps, learning_rate=1e-3, batch_size=4, seed=0),
        data=DataConfig(synthetic=GenConfig(num_scenarios=2, num_agents=2,
                                            t_history=8, t_future=4)),
    )


def test_adam_minimizes_quadratic():
    x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = Adam({"x": x}, lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        (x * x).sum().backward()
        opt.step()
    assert np.max(np.abs(x.data)) <= 1e-3


def test_batch_indices_round_robin():
    assert _batch_indices(0, 3, 5) == [0, 1, 2]
    assert _batch_indices(1, 3, 5) == [3, 4, 0]
    assert _batch_indices(2, 3, 5) == [1, 2, 3]
    assert _batch_indices(0, 8, 5) == [0, 1, 2, 3, 4]


def test_build_items_rejects_padded_target_future():
    cfg = _tiny_config()
    scenarios = load_training_scenarios(cfg)
    scenarios[0].agents[0].future[1, 2] = 0.0
    with pytest.raises(ValueError, match="padded"):
        build_training_items(scenarios)


def test_training_improves_loss():
    cfg = _tiny_config(steps=60)
    result = train(cfg)
    assert result.last_report.total < result.first_report.total


def test_training_deterministic_same_seed():
    cfg = _tiny_config(steps=8)
    a = train(cfg)
    b = train(cfg)
    assert a.log_lines == b.log_lines


def test_training_zero_steps_checkpoint_equals_init(tmp_path):
    cfg = _tiny_config(steps=0)
    out = str(tmp_path / "ckpt")
    train(cfg, out_dir=out)
    model, loaded_cfg, step = load_checkpoint(out)
    assert step == 0
    fresh = TrajectoryPredictor(cfg.model, seed=cfg.training.seed)
    for (name, p), (name2, q) in zip(model.parameters().items(),
                                     fresh.parameters().items()):
        assert name == name2
        assert np.array_equal(p.data, q.data), name


def test_checkpoint_roundtrip_bitwise_forward(tmp_path):
    cfg = _tiny_config(steps=4)
    out = str(tmp_path / "ckpt")
    result = train(cfg, out_dir=out)
    model2, _, _ = load_checkpoint(out)

    rng = np.random.default_rng(0)
    hist = rng.normal(size=(1, 2, 8, 3))
    hist[..., 2] = 1.0
    valid = np.ones((1, 2), dtype=bool)
    t1, p1 = result.model.forward(hist, valid, np.array([0]))
    t2, p2 = model2.forward(hist, valid, np.array([0]))
    assert np.array_equal(t1.data, t2.data)
    assert np.array_equal(p1.data, p2.data)


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    cfg = _tiny_config(steps=0)
    out = str(tmp_path / "ckpt")
    model = TrajectoryPredictor(cfg.model, seed=0)
    save_checkpoint(out, model, cfg, step=0)

    import json, os
    manifest_path = os.path.join(out, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["params"][0]["shape"] = [1, 1]
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(out)


def test_checkpoint_files_identical_across_runs(tmp_path):
    cfg = _tiny_config(steps=3)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    train(cfg, out_dir=out_a)
    train(cfg, out_dir=out_b)
    for name in ("params.bin", "train_log.txt"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


from mftp.training import train_step


def _saved_checkpoint(tmp_path):
    cfg = _tiny_config(steps=0)
    out = str(tmp_path / "ckpt")
    save_checkpoint(out, TrajectoryPredictor(cfg.model, seed=0), cfg, step=0)
    return out


def test_checkpoint_rejects_short_params_file(tmp_path):
    out = _saved_checkpoint(tmp_path)
    path = tmp_path / "ckpt" / "params.bin"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match=r"params\.bin: parameter '.+' needs bytes "
                                         r"\d+\.\.\d+, file has \d+"):
        load_checkpoint(out)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    out = _saved_checkpoint(tmp_path)
    path = tmp_path / "ckpt" / "params.bin"
    path.write_bytes(path.read_bytes() + bytes(16))
    with pytest.raises(ValueError, match=r"params\.bin: 16 bytes after the last parameter '.+'"):
        load_checkpoint(out)


def test_checkpoint_rejects_count_unlike_shape(tmp_path):
    import json
    out = _saved_checkpoint(tmp_path)
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    entry = manifest["params"][0]
    entry["count"] += 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=rf"manifest\.json: parameter '{entry['name']}' "
                                         rf"count {entry['count']} != {entry['count'] - 1}"):
        load_checkpoint(out)


def test_train_step_rejects_non_finite_loss_before_update():
    cfg = _tiny_config()
    items = build_training_items(load_training_scenarios(cfg))
    items[1].gt_local[2, 0] = np.nan
    model = TrajectoryPredictor(cfg.model, seed=0)
    opt = Adam(model.parameters(), lr=1e-3)
    before = {k: p.data.copy() for k, p in model.parameters().items()}
    with pytest.raises(ValueError, match="non-finite loss"):
        train_step(model, opt, items, cfg)
    assert opt.t == 0
    for k, p in model.parameters().items():
        assert np.array_equal(p.data, before[k]), k


def test_train_names_the_step_of_a_non_finite_loss(monkeypatch):
    import mftp.training as training
    cfg = _tiny_config(steps=3)
    cfg.data.synthetic.num_scenarios = 4
    cfg.training.batch_size = 2

    def corrupt(scenarios):
        items = build_training_items(scenarios)
        items[3].gt_local[0, 1] = np.inf
        return items
    monkeypatch.setattr(training, "build_training_items", corrupt)
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match=r"^train step 1: non-finite loss"):
        train(cfg)


@pytest.mark.parametrize("offset", [0, -8])
def test_checkpoint_rejects_offset_off_the_previous_entry_end(tmp_path, offset):
    import json
    out = _saved_checkpoint(tmp_path)
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    entry = manifest["params"][1]
    want = entry["offset"]
    entry["offset"] = offset                   # 0 would read the first entry's bytes again
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=rf"manifest\.json: parameter '{entry['name']}' "
                                         rf"offset {offset} != {want}"):
        load_checkpoint(out)


def _rewrite_manifest(tmp_path, edit):
    import json
    out = _saved_checkpoint(tmp_path)
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps(edit(manifest)))
    return out, str(manifest_path)


def test_checkpoint_rejects_manifest_that_is_not_an_object(tmp_path):
    out, manifest_path = _rewrite_manifest(tmp_path, lambda m: [m])
    with pytest.raises(ValueError, match=r"manifest must be a JSON object, got list") as err:
        load_checkpoint(out)
    assert manifest_path in str(err.value)


@pytest.mark.parametrize("key", ["params", "config", "step"])
def test_checkpoint_rejects_manifest_missing_a_key(tmp_path, key):
    def drop(m):
        del m[key]
        return m
    out, manifest_path = _rewrite_manifest(tmp_path, drop)
    with pytest.raises(ValueError, match=rf"missing manifest keys \['{key}'\]") as err:
        load_checkpoint(out)
    assert manifest_path in str(err.value)


@pytest.mark.parametrize("key", ["name", "offset"])
def test_checkpoint_rejects_entry_missing_a_key(tmp_path, key):
    def drop(m):
        del m["params"][2][key]
        return m
    out, manifest_path = _rewrite_manifest(tmp_path, drop)
    with pytest.raises(ValueError, match=r"parameter entry 2 must be an object with keys") as err:
        load_checkpoint(out)
    assert manifest_path in str(err.value)


def test_checkpoint_rejects_unknown_config_key(tmp_path):
    def add(m):
        m["config"]["model"]["n_layers"] = 3
        return m
    out, manifest_path = _rewrite_manifest(tmp_path, add)
    with pytest.raises(ValueError, match=r"unknown or missing config key .*n_layers") as err:
        load_checkpoint(out)
    assert manifest_path in str(err.value)


def test_checkpoint_rejects_stored_config_that_breaks_a_rule(tmp_path):
    def edit(m):
        m["config"]["data"]["synthetic"]["noise_std"] = -1.0
        return m
    out, manifest_path = _rewrite_manifest(tmp_path, edit)
    with pytest.raises(ValueError, match=r"config data\.synthetic\.noise_std: -1\.0 must be "
                                         r">= 0\.0") as err:
        load_checkpoint(out)
    assert manifest_path in str(err.value)


@pytest.mark.parametrize("step", [2.7, "abc", True, None])
def test_checkpoint_rejects_step_that_is_not_an_integer(tmp_path, step):
    def edit(m):
        m["step"] = step
        return m
    out, manifest_path = _rewrite_manifest(tmp_path, edit)
    with pytest.raises(ValueError, match=r"step .* is not an integer") as err:
        load_checkpoint(out)
    assert manifest_path in str(err.value)


def test_checkpoint_keeps_integer_step(tmp_path):
    cfg = _tiny_config(steps=0)
    out = str(tmp_path / "ckpt")
    save_checkpoint(out, TrajectoryPredictor(cfg.model, seed=0), cfg, step=7)
    assert load_checkpoint(out)[2] == 7


def test_checkpoint_rejects_manifest_that_is_not_json(tmp_path):
    out = _saved_checkpoint(tmp_path)
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest_path.write_text("{not json")
    with pytest.raises(ValueError, match=r"manifest\.json: not valid JSON") as err:
        load_checkpoint(out)
    assert str(manifest_path) in str(err.value)


def test_one_default_train_step_gives_every_parameter_a_finite_gradient():
    cfg = Config()
    items = build_training_items(load_training_scenarios(cfg))
    model = TrajectoryPredictor(cfg.model, seed=cfg.training.seed)
    params = model.parameters()
    optimizer = Adam(params, lr=cfg.training.learning_rate)
    batch = [items[i] for i in _batch_indices(0, cfg.training.batch_size, len(items))]
    train_step(model, optimizer, batch, cfg)
    assert len(params) == 126
    missing = [k for k, p in params.items() if p.grad is None]
    assert missing == []
    assert [k for k, p in params.items() if not np.all(np.isfinite(p.grad))] == []


def test_one_default_train_step_stays_within_its_tape_node_budget(monkeypatch):
    cfg = Config()
    items = build_training_items(load_training_scenarios(cfg))
    model = TrajectoryPredictor(cfg.model, seed=cfg.training.seed)
    optimizer = Adam(model.parameters(), lr=cfg.training.learning_rate)
    batch = [items[i] for i in _batch_indices(0, cfg.training.batch_size, len(items))]
    make = Tensor.__dict__["_from_op"].__func__
    nodes = []

    def recorded(data, parents, vjps):
        out = make(data, parents, vjps)
        if out.requires_grad:
            nodes.append(out.shape)
        return out
    monkeypatch.setattr(Tensor, "_from_op", staticmethod(recorded))
    train_step(model, optimizer, batch, cfg)
    assert 0 < len(nodes) <= 346


@pytest.mark.parametrize("dtype", ["<f4", ">f8", None])
def test_checkpoint_rejects_dtype_other_than_little_endian_float64(tmp_path, dtype):
    def edit(m):
        m["dtype"] = dtype
        return m
    out, manifest_path = _rewrite_manifest(tmp_path, edit)
    with pytest.raises(ValueError, match=rf"dtype {dtype!r} is not '<f8'") as err:
        load_checkpoint(out)
    assert manifest_path in str(err.value)


def test_checkpoint_rejects_negative_step(tmp_path):
    cfg = _tiny_config(steps=0)
    out = str(tmp_path / "ckpt")
    save_checkpoint(out, TrajectoryPredictor(cfg.model, seed=0), cfg, step=-3)
    with pytest.raises(ValueError, match=r"step -3 is negative") as err:
        load_checkpoint(out)
    assert str(tmp_path / "ckpt" / "manifest.json") in str(err.value)
