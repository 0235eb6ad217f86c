import os
import tracemalloc

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

from oracles import adam_reference


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


def test_checkpoint_refuses_a_long_tail_without_reading_it(tmp_path):
    """The table bounds the read: a sparse 64 MB tail is refused, not loaded."""
    out = _saved_checkpoint(tmp_path)
    path = tmp_path / "ckpt" / "params.bin"
    tail = 64 * 2 ** 20
    os.truncate(path, path.stat().st_size + tail)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"params\.bin: {tail} bytes after the last "
                                             rf"parameter '.+'"):
            load_checkpoint(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tail // 16


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


def _record_nodes(monkeypatch) -> list:
    make = Tensor.__dict__["_from_op"].__func__
    nodes = []

    def recorded(data, parents, vjps):
        out = make(data, parents, vjps)
        if out.requires_grad:
            nodes.append(out.shape)
        return out
    monkeypatch.setattr(Tensor, "_from_op", staticmethod(recorded))
    return nodes


def _default_step_inputs():
    cfg = Config()
    items = build_training_items(load_training_scenarios(cfg))
    model = TrajectoryPredictor(cfg.model, seed=cfg.training.seed)
    batch = [items[i] for i in _batch_indices(0, cfg.training.batch_size, len(items))]
    return cfg, model, batch


def test_default_forward_records_at_most_110_tape_nodes(monkeypatch):
    """Each of the six selective attentions is one node (was 32 or 33 each)."""
    _, model, batch = _default_step_inputs()
    nodes = _record_nodes(monkeypatch)
    model.forward_frames([it.frame for it in batch])
    assert 0 < len(nodes) <= 110


def test_one_default_train_step_graph_stays_within_283_nodes(monkeypatch):
    """Op nodes plus the parameter leaves, as a walk of the step's graph counts them."""
    cfg, model, batch = _default_step_inputs()
    params = model.parameters()
    optimizer = Adam(params, lr=cfg.training.learning_rate)
    nodes = _record_nodes(monkeypatch)
    train_step(model, optimizer, batch, cfg)
    assert 0 < len(nodes) + len(params) <= 283


# -- Adam's flat state against the per-parameter oracle ------------------------------


def _oracle_state(params):
    return ({k: p.data.copy() for k, p in params.items()},
            {k: np.zeros_like(p.data) for k, p in params.items()},
            {k: np.zeros_like(p.data) for k, p in params.items()})


def _assert_matches_oracle(params, opt, weights, m, v, names=None):
    for k in names or params:
        assert np.array_equal(params[k].data, weights[k]), k
        assert np.array_equal(opt.m[k], m[k]), k
        assert np.array_equal(opt.v[k], v[k]), k


def test_adam_on_25_default_train_steps_is_bitwise_the_per_parameter_update():
    """A fresh optimizer at step 12 restarts the moments and the step count, as
    the benchmark's episode reset does."""
    cfg = Config()
    items = build_training_items(load_training_scenarios(cfg))
    model = TrajectoryPredictor(cfg.model, seed=cfg.training.seed)
    params = model.parameters()
    for step in range(25):
        if step in (0, 12):
            opt = Adam(params, lr=cfg.training.learning_rate)
            weights, m, v = _oracle_state(params)
            t = 0
        batch = [items[i] for i in _batch_indices(step, cfg.training.batch_size, len(items))]
        train_step(model, opt, batch, cfg)
        t = adam_reference(weights, {k: p.grad for k, p in params.items()}, m, v, t,
                           cfg.training.learning_rate)
        assert opt.t == t
        _assert_matches_oracle(params, opt, weights, m, v)


def _three_params():
    rng = np.random.default_rng(5)
    return {name: Tensor(rng.normal(size=shape), requires_grad=True)
            for name, shape in (("a", (2, 3)), ("b", (4,)), ("c", (3, 1)))}


def test_adam_leaves_an_idle_parameter_in_the_middle_of_the_table_alone():
    params = _three_params()
    opt = Adam(params, lr=0.1)
    weights, m, v = _oracle_state(params)
    rng = np.random.default_rng(6)
    t = 0
    for step in range(4):
        for k, p in params.items():
            p.grad = None if (k == "b" and step > 0) else rng.normal(size=p.shape)
        if step == 1:
            idle = (params["b"].data.copy(), opt.m["b"].copy(), opt.v["b"].copy())
            assert idle[1].all() and idle[2].all()
        opt.step()
        t = adam_reference(weights, {k: p.grad for k, p in params.items()}, m, v, t, 0.1)
        _assert_matches_oracle(params, opt, weights, m, v, names=["a", "c"])
    for got, want in zip((params["b"].data, opt.m["b"], opt.v["b"]), idle):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name, index, idle", [
    ("a", -1, None), ("b", 0, None), ("b", -1, None), ("c", 0, None), ("c", 0, "b"),
], ids=["last-of-a", "first-of-b", "last-of-b", "first-of-c", "first-of-c-after-idle-b"])
def test_adam_names_the_parameter_of_a_non_finite_gradient_at_a_slice_boundary(
        name, index, idle):
    params = _three_params()
    opt = Adam(params, lr=0.1)
    for k, p in params.items():
        p.grad = None if k == idle else np.ones(p.shape)
    params[name].grad.flat[index] = np.nan
    with pytest.raises(ValueError, match=f"^non-finite gradient of {name}$"):
        opt.step()
    assert opt.t == 0 and not opt.m[name].any()


def test_adam_updates_the_array_a_parameter_is_rebound_to_between_steps():
    """`load_checkpoint` and the benchmark's reset give `p.data` a new array."""
    params = _three_params()
    opt = Adam(params, lr=0.1)
    weights, m, v = _oracle_state(params)
    t = 0
    for step in range(3):
        if step == 2:
            old = params["b"].data
            kept = old.copy()
            params["b"].data = old * 0.5
            weights["b"] = old * 0.5
        for p in params.values():
            p.grad = np.full(p.shape, 0.25 * (step + 1))
        opt.step()
        t = adam_reference(weights, {k: p.grad for k, p in params.items()}, m, v, t, 0.1)
        _assert_matches_oracle(params, opt, weights, m, v)
    assert np.array_equal(old, kept)
