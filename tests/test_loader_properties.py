"""Random corruptions of valid files: byte edits, deletions and JSON-token
insertions. Each loader must either load the file, with every number it
promises finite, or refuse it with its own ValueError naming the file.
Any other exception type fails.

CI runs this file under several --hypothesis-seed values, so more
corruptions are tried there than in one local run.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mftp.config import Config, DataConfig, ModelConfig, TrainingConfig
from mftp.data import GenConfig, ScenarioFormatError, generate_synthetic, load_scenarios, \
    save_scenarios
from mftp.model import TrajectoryPredictor
from mftp.prediction_io import load_predictions, write_predictions
from mftp.training import load_checkpoint, save_checkpoint

TOKENS = (b"{", b"}", b"[", b"]", b",", b":", b'"', b"0", b"-1", b"1e999", b"NaN",
          b"-Infinity", b"null", b"true", b'"x"', b"[]", b"{}", "ä".encode(), b"\xff")

# At most two edits: the checkpoint's config holds one-digit widths, and three
# inserted zeros could turn a width of 8 into 8000, a model of gigabytes.
EDITS = st.lists(st.one_of(
    st.tuples(st.just("edit"), st.integers(0, 1 << 20), st.integers(0, 255)),
    st.tuples(st.just("delete"), st.integers(0, 1 << 20), st.integers(1, 8)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 20), st.sampled_from(TOKENS)),
), min_size=1, max_size=2)

FUZZ = settings(max_examples=150, deadline=None)


def _corrupt(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, pos, arg in edits:
        i = pos % (len(out) + 1)
        if kind == "edit":
            out[i:i + 1] = bytes([arg])
        elif kind == "delete":
            del out[i:i + arg]
        else:
            out[i:i] = arg
    return bytes(out)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A scenario file, a prediction file and a checkpoint, all tiny and valid."""
    cfg = Config(model=ModelConfig(channels=8, d_patch=8, n_heads=2, n_modes=2,
                                   refine_rounds=1, n_experts=2, t_history=8, t_future=4,
                                   patch_len=4, granularities=[[2, 1], [8, 8]]),
                 training=TrainingConfig(steps=0, seed=0),
                 data=DataConfig(synthetic=GenConfig(num_scenarios=2, num_agents=2,
                                                     t_history=8, t_future=4)))
    root = tmp_path_factory.mktemp("valid")
    scenes = generate_synthetic(cfg.data.synthetic, seed=0)
    model = TrajectoryPredictor(cfg.model, seed=0)
    save_scenarios(str(root / "scenarios.json"), scenes)
    write_predictions(str(root / "predictions.json"),
                      [(s.scenario_id, t, p) for s in scenes for t, p in model.predict_scenario(s)])
    save_checkpoint(str(root / "ckpt"), model, cfg, step=0)
    return root


def _refuses_naming(load, path, error=ValueError):
    """`load(path)`, or None when it raises `error` naming `path`."""
    try:
        return load(path)
    except error as exc:
        assert path in str(exc), str(exc)
        return None


@FUZZ
@given(edits=EDITS)
def test_corrupt_scenario_file_loads_finite_or_is_refused_naming_it(valid_files, edits):
    path = valid_files / "scenarios.json"
    original = path.read_bytes()
    try:
        path.write_bytes(_corrupt(original, edits))
        scenarios = _refuses_naming(load_scenarios, str(path), ScenarioFormatError)
    finally:
        path.write_bytes(original)
    for s in scenarios or []:
        assert math.isfinite(s.dt) and s.dt > 0.0
        for a in s.agents:
            for rows in (a.history, a.future):
                assert np.isfinite(rows[rows[:, 2] == 1.0, :2]).all()


@FUZZ
@given(edits=EDITS)
def test_corrupt_prediction_file_loads_finite_or_is_refused_naming_it(valid_files, edits):
    path = valid_files / "predictions.json"
    original = path.read_bytes()
    try:
        path.write_bytes(_corrupt(original, edits))
        predictions = _refuses_naming(load_predictions, str(path))
    finally:
        path.write_bytes(original)
    for pred in (predictions or {}).values():
        assert np.isfinite(pred.probs.data).all()


@FUZZ
@given(name=st.sampled_from(["manifest.json", "params.bin"]), edits=EDITS)
def test_corrupt_checkpoint_loads_finite_or_is_refused_naming_it(valid_files, name, edits):
    ckpt = valid_files / "ckpt"
    path = ckpt / name
    original = path.read_bytes()
    try:
        path.write_bytes(_corrupt(original, edits))
        loaded = _refuses_naming(load_checkpoint, str(ckpt))
    finally:
        path.write_bytes(original)
    if loaded is not None:
        for key, p in loaded[0].parameters().items():
            assert np.isfinite(p.data).all(), key
