import math

import numpy as np
import pytest

from mftp.data import TargetFrame
from mftp.decoder import DecoderParams, PredictionSet, decode, denormalize
from mftp.tensor import Tensor, grad_check

from test_attention import manual_block


def _params(rng, channels=8, heads=2, modes=3, t_future=4):
    return DecoderParams.create(rng, channels, heads, modes, t_future)


@pytest.mark.parametrize("seed", [0, 10, 11, 16])
def test_identical_mode_tokens_give_identical_trajectories(seed):
    rng = np.random.default_rng(seed)
    p = _params(rng)
    p.tokens.data[:] = p.tokens.data[0]          # break nothing but the tokens
    e_a = Tensor(rng.normal(size=(3, 8)))
    trajs, probs = decode(e_a, 0, p, rounds=2)
    for k in range(1, 3):
        assert np.array_equal(trajs.data[k], trajs.data[0])
        assert probs.data[k] == probs.data[0]


def test_probabilities_on_simplex():
    rng = np.random.default_rng(1)
    for seed in range(5):
        p = _params(np.random.default_rng(seed))
        e_a = Tensor(rng.normal(size=(4, 8)))
        _, probs = decode(e_a, 2, p, rounds=1)
        assert np.all(probs.data >= 0.0)
        assert abs(probs.data.sum() - 1.0) <= 1e-9


def test_single_round_matches_manual_recomputation():
    rng = np.random.default_rng(2)
    p = _params(rng)
    e_a = rng.normal(size=(3, 8))
    trajs, probs = decode(Tensor(e_a), 1, p, rounds=1)

    queries = e_a[1] + p.tokens.data                         # [K, C]
    refined = manual_block(queries, e_a, p.cross)
    offsets = (refined @ p.traj_head.w.data + p.traj_head.b.data).reshape(3, 4, 2)
    expected_trajs = np.cumsum(offsets, axis=1)
    logits = (refined @ p.cls_head.w.data + p.cls_head.b.data).reshape(3)
    e = np.exp(logits - logits.max())
    expected_probs = e / e.sum()

    assert np.max(np.abs(trajs.data - expected_trajs)) <= 1e-9
    assert np.max(np.abs(probs.data - expected_probs)) <= 1e-9


def test_positions_are_cumulative_sums_of_offsets():
    rng = np.random.default_rng(3)
    p = _params(rng)
    e_a = Tensor(rng.normal(size=(2, 8)))
    trajs, _ = decode(e_a, 0, p, rounds=2)
    # difference the positions back into offsets: step t equals the sum of
    # the first t emitted displacements by construction
    offsets = np.diff(np.concatenate([np.zeros((3, 1, 2)), trajs.data], axis=1), axis=1)
    assert np.array_equal(np.cumsum(offsets, axis=1), trajs.data)


def test_mode_token_perturbation_isolated_to_one_mode():
    rng = np.random.default_rng(4)
    p = _params(rng)
    e_a = Tensor(rng.normal(size=(3, 8)))
    base_trajs, base_probs = decode(e_a, 0, p, rounds=1)

    p.tokens.data[1] += 0.3
    new_trajs, new_probs = decode(e_a, 0, p, rounds=1)
    assert np.array_equal(new_trajs.data[0], base_trajs.data[0])
    assert np.array_equal(new_trajs.data[2], base_trajs.data[2])
    assert not np.array_equal(new_trajs.data[1], base_trajs.data[1])
    # probabilities renormalize across modes, so they may all move
    assert not np.array_equal(new_probs.data, base_probs.data)


def test_batched_decode_agrees_with_single():
    rng = np.random.default_rng(5)
    p = _params(rng)
    e_a = rng.normal(size=(2, 3, 8))
    targets = np.array([0, 2])
    trajs, probs = decode(Tensor(e_a), targets, p, rounds=2)
    for b in range(2):
        t_single, p_single = decode(Tensor(e_a[b]), int(targets[b]), p, rounds=2)
        assert np.max(np.abs(trajs.data[b] - t_single.data)) <= 1e-12
        assert np.max(np.abs(probs.data[b] - p_single.data)) <= 1e-12


def test_decode_rejects_bad_target_and_rounds():
    rng = np.random.default_rng(6)
    p = _params(rng)
    e_a = Tensor(rng.normal(size=(3, 8)))
    with pytest.raises(ValueError, match="target index"):
        decode(e_a, 5, p, rounds=1)
    with pytest.raises(ValueError, match="rounds"):
        decode(e_a, 0, p, rounds=0)


def test_grad_check_loss_to_mode_tokens():
    rng = np.random.default_rng(7)
    p = _params(rng)
    e_a = Tensor(rng.normal(size=(3, 8)))
    gt = rng.normal(size=(4, 2))

    def f(tokens: Tensor) -> Tensor:
        saved = p.tokens
        p.tokens = tokens
        try:
            trajs, probs = decode(e_a, 0, p, rounds=2)
            return (trajs - Tensor(gt)).square().mean() + (probs * probs).sum()
        finally:
            p.tokens = saved

    assert grad_check(f, Tensor(p.tokens.data)) <= 1e-4


def _frame(origin, heading):
    return TargetFrame(target_index=0, origin=np.asarray(origin, dtype=np.float64),
                       heading=heading, history=np.zeros((1, 2, 3)),
                       future=np.zeros((1, 1, 3)), agent_valid=np.ones(1, dtype=bool))


def test_denormalize_identity():
    rng = np.random.default_rng(8)
    pred = PredictionSet(trajs=Tensor(rng.normal(size=(2, 3, 2))),
                         probs=Tensor([0.5, 0.5]))
    out = denormalize(pred, _frame([0.0, 0.0], 0.0))
    assert np.array_equal(out.trajs.data, pred.trajs.data)
    assert np.array_equal(out.probs.data, pred.probs.data)


def test_denormalize_translation():
    rng = np.random.default_rng(9)
    pred = PredictionSet(trajs=Tensor(rng.normal(size=(2, 3, 2))),
                         probs=Tensor([0.25, 0.75]))
    out = denormalize(pred, _frame([3.0, -4.0], 0.0))
    assert np.max(np.abs(out.trajs.data - (pred.trajs.data + [3.0, -4.0]))) == 0.0


def test_denormalize_rotation_90_degrees():
    pred = PredictionSet(trajs=Tensor([[[1.0, 2.0], [-3.0, 0.5]]]), probs=Tensor([1.0]))
    out = denormalize(pred, _frame([0.0, 0.0], math.pi / 2.0))
    expected = np.array([[[-2.0, 1.0], [-0.5, -3.0]]])      # (x, y) -> (-y, x)
    assert np.max(np.abs(out.trajs.data - expected)) <= 1e-12
