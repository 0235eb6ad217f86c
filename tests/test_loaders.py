"""Refusals of the file loaders, the encoding every file is read and written
in, and the checks that sit behind them (padded futures, Adam's skipped
parameters and non-finite gradients, GenConfig's cross-field rules, a run
with no targets)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mftp
from mftp.cli import main
from mftp.config import Config, ConfigError, DataConfig, ModelConfig, TrainingConfig, \
    load_config, save_config
from mftp.data import GenConfig, ScenarioFormatError, generate_synthetic, load_scenarios, \
    save_scenarios
from mftp.decoder import PredictionSet
from mftp.metrics import evaluate_predictions
from mftp.model import TrajectoryPredictor
from mftp.prediction_io import load_predictions, write_predictions
from mftp.tensor import Tensor
from mftp.training import Adam, load_checkpoint, save_checkpoint

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mftp.__file__)))
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def _tiny_config(**data):
    return Config(
        model=ModelConfig(channels=8, d_patch=8, n_heads=2, n_modes=2, refine_rounds=1,
                          n_experts=2, t_history=8, t_future=4, patch_len=4,
                          granularities=[[2, 1], [8, 8]]),
        training=TrainingConfig(steps=2, learning_rate=1e-3, batch_size=4, seed=0),
        data=DataConfig(**data) if data else DataConfig(
            synthetic=GenConfig(num_scenarios=2, num_agents=2, t_history=8, t_future=4)))


def _scenes():
    return generate_synthetic(GenConfig(num_scenarios=2, num_agents=2, t_history=8,
                                        t_future=4), seed=0)


def _ground_truth_records(scenes):
    """One-mode predictions that are each target's own future."""
    return [(s.scenario_id, t, PredictionSet(trajs=Tensor(s.agents[t].future[None, :, :2]),
                                             probs=Tensor(np.ones(1))))
            for s in scenes for t in s.targets]


# -- scenario files -----------------------------------------------------------


def _scenario_doc():
    agents = [{"history": [[float(t + a), 0.0, 1.0] for t in range(4)],
               "future": [[float(4 + t + a), 0.0, 1.0] for t in range(6)]} for a in range(2)]
    return {"scenarios": [{"id": "s0", "dt": 0.5, "agents": agents, "targets": [0]}]}


def _no_agents(doc):
    doc["scenarios"][0].update(agents=[], targets=[])


def _one_step_history(doc):
    for a in doc["scenarios"][0]["agents"]:
        a["history"] = a["history"][-1:]


def _set_record(**values):
    return lambda doc: doc["scenarios"][0].update(values)


def _set_agent(**values):
    return lambda doc: doc["scenarios"][0]["agents"][1].update(values)


def _replace_agent(value):
    def edit(doc):
        doc["scenarios"][0]["agents"][1] = value
    return edit


SCENARIO_REFUSALS = {
    "no-scenarios-list": (lambda doc: doc.pop("scenarios"),
                          r"missing top-level 'scenarios' list"),
    "scenarios-not-list": (lambda doc: doc.update(scenarios={}),
                           r"missing top-level 'scenarios' list"),
    "no-agents": (_no_agents, r"scenario 0 \(id=s0\): scenario has no agents"),
    "short-history": (_one_step_history, r"scenario 0 \(id=s0\): history length 1 < 2"),
    "target-out-of-range": (_set_record(targets=[2]),
                            r"scenario 0 \(id=s0\): target index 2 out of range"),
    "agent-no-future": (_replace_agent({"history": []}),
                        r"scenario 0 \(id=s0\), agent 1: malformed agent record"),
    "agent-not-object": (_replace_agent([1, 2]),
                         r"scenario 0 \(id=s0\), agent 1: malformed agent record"),
    "agent-ragged": (_set_agent(future=[[1.0, 2.0, 1.0], [1.0]]),
                     r"scenario 0 \(id=s0\), agent 1: malformed agent record"),
    "agent-int-overflow": (_set_agent(future=[[10 ** 400, 0.0, 1.0]] * 6),
                           r"scenario 0 \(id=s0\), agent 1: malformed agent record"),
    "rows-of-two": (_set_agent(history=[[0.0, 0.0]] * 4),
                    r"agent 1: history rows must be \[x, y, valid\]"),
    "rows-flat": (_set_agent(future=[0.0] * 6),
                  r"agent 1: future rows must be \[x, y, valid\]"),
    "future-empty": (_set_agent(future=[]),
                     r"agent 1: future rows must be \[x, y, valid\]"),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_REFUSALS))
def test_scenario_file_refusals_name_the_file(tmp_path, case):
    edit, match = SCENARIO_REFUSALS[case]
    doc = _scenario_doc()
    edit(doc)
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioFormatError, match=match) as err:
        load_scenarios(str(path))
    assert str(err.value).startswith(f"{path}: ")


def test_scenario_file_nested_too_deep_is_refused_naming_it(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ScenarioFormatError, match="not valid JSON") as err:
        load_scenarios(str(path))
    assert str(err.value).startswith(f"{path}: ")


NOT_NUMBERS = {
    "dt-string": (_set_record(dt="0.5"), r"scenario 0 \(id=s0\): dt '0.5' is not finite "
                                          r"and positive"),
    "row-of-strings": (_set_agent(history=[[0.0, 0.0, 1.0]] * 3 + [["0.0", "0", "1"]]),
                       r"scenario 0 \(id=s0\), agent 1, history step 3: '0.0' is not a "
                       r"number \(row \['0.0', '0', '1'\]\)$"),
    "row-of-booleans": (_set_agent(future=[[1.0, 0.0, 1.0]] * 5 + [[True, False, True]]),
                        r"scenario 0 \(id=s0\), agent 1, future step 5: True is not a "
                        r"number \(row \[True, False, True\]\)$"),
    "valid-string": (_set_agent(future=[[1.0, 0.0, 1.0], [1.0, 0.0, "1"]] + [[1.0, 0.0, 1.0]] * 4),
                     r"scenario 0 \(id=s0\), agent 1, future step 1: '1' is not a number"),
    "padded-null": (_set_agent(history=[[None, 0.0, 0.0]] + [[0.0, 0.0, 1.0]] * 3),
                    r"scenario 0 \(id=s0\), agent 1, history step 0: None is not a number"),
}


@pytest.mark.parametrize("case", sorted(NOT_NUMBERS))
def test_scenario_file_refuses_a_string_boolean_or_null_where_a_number_is_due(tmp_path, case):
    edit, match = NOT_NUMBERS[case]
    doc = _scenario_doc()
    edit(doc)
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioFormatError, match=match) as err:
        load_scenarios(str(path))
    assert str(err.value).startswith(f"{path}: ")


def test_scenario_file_takes_integers_as_numbers(tmp_path):
    doc = _scenario_doc()
    doc["scenarios"][0]["dt"] = 1
    for a in doc["scenarios"][0]["agents"]:
        a["history"] = [[int(x), int(y), int(v)] for x, y, v in a["history"]]
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(doc))
    s = load_scenarios(str(path))[0]
    assert s.dt == 1.0 and type(s.dt) is float
    assert s.agents[1].history.tolist() == [[float(t + 1), 0.0, 1.0] for t in range(4)]


# -- prediction files ----------------------------------------------------------


@pytest.mark.parametrize("doc, match", [
    ({"records": []}, r"missing top-level 'predictions' list"),
    ([], r"missing top-level 'predictions' list"),
    ({"predictions": [{"scenario": "s", "target": 0,
                       "modes": [{"prob": 1.0, "traj": [1.0, 2.0]}]}]},
     r"record 0 trajectories must be \[K, T, 2\]"),
    ({"predictions": [{"scenario": "s", "target": 0,
                       "modes": [{"prob": 1.0, "traj": [[1.0, 2.0, 3.0]]}]}]},
     r"record 0 trajectories must be \[K, T, 2\]"),
    ({"predictions": [{"scenario": "s", "target": 0,
                       "modes": [{"prob": 1.0, "traj": [[10 ** 400, 0.0]]}]}]},
     r"malformed prediction record 0"),
])
def test_prediction_file_refusals_name_the_file(tmp_path, doc, match):
    path = tmp_path / "predictions.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match) as err:
        load_predictions(str(path))
    assert str(err.value).startswith(f"{path}: ")


def _one_mode_record(prob=1.0, traj=((1.0, 2.0), (3.0, 4.0))):
    return {"predictions": [{"scenario": "s", "target": 0,
                             "modes": [{"prob": prob, "traj": [list(p) for p in traj]}]}]}


@pytest.mark.parametrize("doc, message", [
    (_one_mode_record(prob="1.0"), "record 0 mode 0 probability '1.0' is not a number"),
    (_one_mode_record(prob=True), "record 0 mode 0 probability True is not a number"),
    (_one_mode_record(traj=((1.0, 2.0), ("1", "2"))),
     "record 0 mode 0 step 1 of the trajectory holds '1', not a number"),
    (_one_mode_record(traj=((1.0, False), (3.0, 4.0))),
     "record 0 mode 0 step 0 of the trajectory holds False, not a number"),
], ids=["prob-string", "prob-bool", "point-of-strings", "coordinate-bool"])
def test_prediction_file_refuses_a_string_or_boolean_where_a_number_is_due(tmp_path, doc,
                                                                            message):
    path = tmp_path / "predictions.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_predictions(str(path))
    assert str(err.value) == f"{path}: {message}"


def test_prediction_file_takes_integers_as_numbers(tmp_path):
    path = tmp_path / "predictions.json"
    path.write_text(json.dumps(_one_mode_record(prob=1, traj=((1, 2), (3, 4)))))
    pred = load_predictions(str(path))[("s", 0)]
    assert pred.probs.data.tolist() == [1.0]
    assert pred.trajs.data.tolist() == [[[1.0, 2.0], [3.0, 4.0]]]


def test_evaluate_predictions_refuses_a_missing_prediction():
    scenes = _scenes()
    preds = dict(((sid, t), p) for sid, t, p in _ground_truth_records(scenes))
    del preds[(scenes[1].scenario_id, scenes[1].targets[0])]
    with pytest.raises(ValueError, match=rf"missing prediction for scenario "
                                         rf"{scenes[1].scenario_id} target 0"):
        evaluate_predictions(preds, scenes, k=1)


# -- checkpoints ----------------------------------------------------------------


@pytest.fixture()
def ckpt(tmp_path):
    cfg = _tiny_config()
    out = tmp_path / "ckpt"
    save_checkpoint(str(out), TrajectoryPredictor(cfg.model, seed=0), cfg, step=0)
    return out


def _edit_manifest(ckpt, edit):
    path = ckpt / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    return manifest


def _swap_entries(m):
    m["params"][3], m["params"][4] = m["params"][4], m["params"][3]


def _extra_entry(m):
    m["params"].append(dict(m["params"][-1], name="extra.w"))


def _rename_entry(m):
    m["params"][5]["name"] = "no.such.w"


def _retype(name, key, value):
    """An edit giving entry `name` a `key` equal to the model's, but not a JSON integer."""
    return lambda m: next(e for e in m["params"] if e["name"] == name).update({key: value})


@pytest.mark.parametrize("edit, match", [
    (lambda m: m.update(format="mftp-checkpoint-v0"),
     r"unknown checkpoint format 'mftp-checkpoint-v0'"),
    (lambda m: m.update(params={"name": "x"}), r"'params' must be a list"),
    (lambda m: m["params"].pop(), r"parameter entry \d+ is nothing, where the model has '.+'"),
    (lambda m: m["params"].pop(2), r"parameter entry 2 is '.+', where the model has '.+'"),
    (_extra_entry, r"parameter entry \d+ is 'extra\.w', where the model has nothing"),
    (_rename_entry, r"parameter entry 5 is 'no\.such\.w', where the model has '.+'"),
    (_swap_entries, r"parameter entry 3 is '.+', where the model has '.+'"),
    (lambda m: m.pop("params_sha256"), r"missing manifest keys \['params_sha256'\]"),
    (_retype("embed.fc1.w", "offset", False), r"parameter 'embed\.fc1\.w' offset False != 0$"),
    (_retype("embed.fc1.b", "shape", [8.0]),
     r"parameter 'embed\.fc1\.b' shape \[8\.0\] != \[8\]$"),
    (_retype("embed.fc1.b", "count", 8.0), r"parameter 'embed\.fc1\.b' count 8\.0 != 8$"),
    (_retype("granularity0.block.attn.gate.fc2.b", "count", True),
     r"parameter 'granularity0\.block\.attn\.gate\.fc2\.b' count True != 1$"),
])
def test_checkpoint_manifest_refusals_name_the_manifest(ckpt, edit, match):
    _edit_manifest(ckpt, edit)
    with pytest.raises(ValueError, match=match) as err:
        load_checkpoint(str(ckpt))
    assert str(err.value).startswith(f"{ckpt / 'manifest.json'}: ")


def test_checkpoint_shape_refusal_names_both_shapes(ckpt):
    manifest = _edit_manifest(ckpt, lambda m: m["params"][1].update(shape=[1, 1]))
    name = manifest["params"][1]["name"]
    with pytest.raises(ValueError, match=rf"manifest\.json: parameter '{name}' shape "
                                         rf"\[1, 1\] != \[\d+(, \d+)*\]$"):
        load_checkpoint(str(ckpt))


def test_predict_refuses_a_list_valued_parameter_name(ckpt, tmp_path, capsys):
    scn_path = str(tmp_path / "scenarios.json")
    save_scenarios(scn_path, _scenes())
    _edit_manifest(ckpt, lambda m: m["params"][0].update(name=["a", "b"]))
    assert main(["predict", "--checkpoint", str(ckpt), "--scenarios", scn_path,
                 "--out", str(tmp_path / "p.json")]) == 2
    assert (f"{ckpt / 'manifest.json'}: parameter entry 0 is ['a', 'b']"
            in capsys.readouterr().err)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_predict_refuses_a_non_finite_weight(ckpt, tmp_path, capsys, value):
    scn_path = str(tmp_path / "scenarios.json")
    save_scenarios(scn_path, _scenes())
    name = json.loads((ckpt / "manifest.json").read_text())["params"][0]["name"]
    blob = (ckpt / "params.bin").read_bytes()
    (ckpt / "params.bin").write_bytes(np.array([value], dtype="<f8").tobytes() + blob[8:])
    out = tmp_path / "p.json"
    assert main(["predict", "--checkpoint", str(ckpt), "--scenarios", scn_path,
                 "--out", str(out)]) == 2
    assert (f"{ckpt / 'params.bin'}: parameter {name!r} holds a non-finite weight"
            in capsys.readouterr().err)
    assert not out.exists()


def test_predict_refuses_a_weight_changed_in_its_lowest_bit(ckpt, tmp_path, capsys):
    scn_path = str(tmp_path / "scenarios.json")
    save_scenarios(scn_path, _scenes())
    blob = bytearray((ckpt / "params.bin").read_bytes())
    blob[8] ^= 1                # little-endian: the lowest mantissa bit of the second weight
    (ckpt / "params.bin").write_bytes(bytes(blob))
    out = tmp_path / "p.json"
    assert main(["predict", "--checkpoint", str(ckpt), "--scenarios", scn_path,
                 "--out", str(out)]) == 2
    assert f"{ckpt / 'params.bin'}: sha256 " in capsys.readouterr().err
    assert not out.exists()


# -- training and config ---------------------------------------------------------


def test_train_from_a_scenario_file(tmp_path, capsys):
    scn_path = str(tmp_path / "scenarios.json")
    save_scenarios(scn_path, _scenes())
    cfg_path = str(tmp_path / "config.json")
    save_config(cfg_path, _tiny_config(scenario_path=scn_path, synthetic=None))
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out.startswith("targets=2 parameters=")
    assert load_checkpoint(str(tmp_path / "run"))[2] == 2


def test_train_refuses_a_padded_target_future_naming_the_step(tmp_path, capsys):
    scenes = _scenes()
    scenes[1].agents[0].future[2, 2] = 0.0
    scn_path = str(tmp_path / "scenarios.json")
    save_scenarios(scn_path, scenes)
    cfg_path = str(tmp_path / "config.json")
    save_config(cfg_path, _tiny_config(scenario_path=scn_path, synthetic=None))
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    assert (f"scenario {scenes[1].scenario_id!r} target 0: future step 2 is padded"
            in capsys.readouterr().err)


@pytest.mark.parametrize("values, match", [
    (dict(num_agents=2, num_targets=3),
     r"^data\.synthetic\.num_targets: 3 exceeds num_agents=2$"),
    (dict(maneuver_mix=(0.0, 0.0, 0.0)), r"^data\.synthetic\.maneuver_mix: must not be all zero$"),
])
def test_config_names_generator_cross_field_refusals(values, match):
    cfg = Config()
    for key, value in values.items():
        setattr(cfg.data.synthetic, key, value)
    with pytest.raises(ConfigError, match=match):
        cfg.validate()


def test_adam_leaves_a_parameter_without_gradient_alone():
    used = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    idle = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    opt = Adam({"used": used, "idle": idle}, lr=0.1)
    for _ in range(3):
        opt.zero_grad()
        (used * used).sum().backward()
        opt.step()
    assert idle.grad is None
    assert np.array_equal(idle.data, [3.0, 4.0])
    assert not opt.m["idle"].any() and not opt.v["idle"].any()
    assert opt.m["used"].all() and not np.array_equal(used.data, [1.0, -2.0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_adam_refuses_a_non_finite_gradient_before_any_weight_moves(bad):
    params = {name: Tensor(np.array([1.0, -2.0]), requires_grad=True) for name in "abc"}
    opt = Adam(params, lr=0.1)
    for p in params.values():
        p.grad = np.array([0.5, -0.25])
    opt.step()
    before = {k: (p.data.copy(), opt.m[k].copy(), opt.v[k].copy()) for k, p in params.items()}
    params["b"].grad = np.array([0.5, bad])
    params["c"].grad = np.array([bad, 0.0])
    with pytest.raises(ValueError, match="^non-finite gradient of b$"):
        opt.step()
    assert opt.t == 1
    for k, p in params.items():
        for got, want in zip((p.data, opt.m[k], opt.v[k]), before[k]):
            assert np.array_equal(got, want)


def test_train_refuses_a_scenario_file_without_targets(tmp_path, capsys):
    scenes = _scenes()
    for s in scenes:
        s.targets = []
    scn_path = str(tmp_path / "scenarios.json")
    save_scenarios(scn_path, scenes)
    cfg_path = str(tmp_path / "config.json")
    save_config(cfg_path, _tiny_config(scenario_path=scn_path, synthetic=None))
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    assert "no training targets" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_refuses_a_config_with_neither_scenario_file_nor_generator(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"data": {"synthetic": None}}))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    assert ("data: either scenario_path or synthetic must be set"
            in capsys.readouterr().err)


# -- encoding ------------------------------------------------------------------


def test_every_loader_refuses_a_file_that_is_not_utf8_naming_it(tmp_path, ckpt):
    bad = b'{"a": "\x89\xff"}'
    for name in ("scenarios.json", "predictions.json", "config.json"):
        (tmp_path / name).write_bytes(bad)
    (ckpt / "manifest.json").write_bytes(bad)
    for load, path, error in ((load_scenarios, tmp_path / "scenarios.json", ScenarioFormatError),
                              (load_predictions, tmp_path / "predictions.json", ValueError),
                              (load_config, tmp_path / "config.json", ConfigError),
                              (load_checkpoint, ckpt, ValueError)):
        with pytest.raises(error, match="not valid JSON .*'utf-8' codec") as err:
            load(str(path))
        assert str(path) in str(err.value)


def _run_under_ascii_locale(args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC, **ASCII_LOCALE)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, encoding="utf-8", timeout=120)


def test_utf8_scenario_file_loads_under_an_ascii_locale(tmp_path):
    doc = _scenario_doc()
    doc["scenarios"][0]["id"] = "szene-ä"
    (tmp_path / "scenarios.json").write_text(json.dumps(doc, ensure_ascii=False),
                                             encoding="utf-8")
    run = _run_under_ascii_locale(
        ["-c", "from mftp.data import load_scenarios; "
               "print(ascii(load_scenarios('scenarios.json')[0].scenario_id))"], tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == ascii("szene-ä")


def test_per_target_csv_with_a_non_ascii_id_writes_under_an_ascii_locale(tmp_path):
    scenes = _scenes()
    for i, s in enumerate(scenes):
        s.scenario_id = f"szene-ä{i}"
    save_scenarios(str(tmp_path / "scenarios.json"), scenes)
    write_predictions(str(tmp_path / "predictions.json"), _ground_truth_records(scenes))
    run = _run_under_ascii_locale(
        ["-m", "mftp.cli", "eval", "--predictions", "predictions.json", "--scenarios",
         "scenarios.json", "--k", "1", "--per-target-csv", "per_target.csv"], tmp_path)
    assert run.returncode == 0, run.stderr
    rows = (tmp_path / "per_target.csv").read_text(encoding="utf-8").splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["szene-ä0", "szene-ä1"]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_checkpoint_refuses_a_non_finite_weight_and_writes_nothing(tmp_path, value):
    cfg = _tiny_config()
    model = TrajectoryPredictor(cfg.model, seed=0)
    params = list(model.parameters().items())
    for _, p in (params[3], params[7]):
        p.data.flat[-1] = value
    out = tmp_path / "ckpt"
    with pytest.raises(ValueError) as err:
        save_checkpoint(str(out), model, cfg, step=0)
    assert str(err.value) == f"{out}: parameter {params[3][0]!r} holds a non-finite weight"
    assert not out.exists()
