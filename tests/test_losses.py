import math

import numpy as np
import pytest

from mftp.decoder import PredictionSet
from mftp.metrics import min_ade
from mftp.losses import (
    LossTerms,
    LossWeights,
    classification_loss,
    patch_loss,
    patchify_trajectory,
    regression_loss,
    smooth_l1,
    target_loss,
    total_loss,
)
from mftp.tensor import Tensor, grad_check

from oracles import central_difference


def _pred(trajs, probs=None):
    trajs = np.asarray(trajs, dtype=np.float64)
    k = trajs.shape[0]
    probs = np.full(k, 1.0 / k) if probs is None else np.asarray(probs, dtype=np.float64)
    return PredictionSet(trajs=Tensor(trajs, requires_grad=True), probs=Tensor(probs))


def _wavy(t_f=8, scale=10.0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=scale, size=(t_f, 2))


def test_regression_exact_match_is_zero():
    gt = _wavy()
    pred = _pred([gt + 5.0, gt])
    loss, best = regression_loss(pred, gt)
    assert best == 1
    assert loss.item() == 0.0


def test_regression_picks_closer_mode():
    gt = _wavy(seed=1)
    pred = _pred([gt + 1.0, gt + 3.0])
    _, best = regression_loss(pred, gt)
    assert best == 0


def test_regression_tie_breaks_to_lowest_index():
    gt = _wavy(seed=2)
    pred = _pred([gt + 1.0, gt + 1.0])
    _, best = regression_loss(pred, gt)
    assert best == 0


def test_smooth_l1_hand_value():
    r = Tensor(np.full((3, 2), 0.5))
    assert np.allclose(smooth_l1(r).data, 0.125, atol=1e-15)
    loss, _ = regression_loss(_pred([_wavy(seed=3) + 0.5]), _wavy(seed=3))
    assert abs(loss.item() - 0.125) <= 1e-12


def test_smooth_l1_linear_branch():
    r = Tensor(np.full((2, 2), 2.0))
    assert np.allclose(smooth_l1(r).data, 1.5, atol=1e-15)


def test_regression_gradient_only_through_winner():
    gt = _wavy(seed=4)
    pred = _pred([gt + 0.25, gt + 2.0])
    loss, best = regression_loss(pred, gt)
    loss.backward()
    g = pred.trajs.grad
    assert best == 0
    assert np.all(g[0] != 0.0)
    assert np.all(g[1] == 0.0)


def test_classification_one_hot_is_zero():
    assert classification_loss(Tensor([0.0, 1.0, 0.0]), 1).item() == 0.0


def test_classification_uniform_is_log_k():
    assert abs(classification_loss(Tensor(np.full(5, 0.2)), 3).item()
               - math.log(5.0)) <= 1e-12


def test_classification_half_half():
    assert abs(classification_loss(Tensor([0.5, 0.5]), 0).item()
               - math.log(2.0)) <= 1e-12


def test_patchify_trajectory_counts():
    y = Tensor(np.arange(24, dtype=np.float64).reshape(12, 2))
    assert patchify_trajectory(y, 4).shape == (3, 4, 2)
    assert patchify_trajectory(y, 12).shape == (1, 12, 2)
    assert patchify_trajectory(y, 1).shape == (12, 1, 2)
    with pytest.raises(ValueError, match="divisible"):
        patchify_trajectory(y, 5)


def test_patch_loss_identical_is_zero():
    y = _wavy(t_f=12, scale=8.0, seed=5)
    corr, var, mean = patch_loss(Tensor(y), y, patch_len=4)
    assert abs(corr.item()) <= 1e-6
    assert var.item() == 0.0
    assert mean.item() == 0.0


def test_patch_loss_constant_shift():
    y = _wavy(t_f=12, scale=8.0, seed=6)
    c = 2.75
    corr, var, mean = patch_loss(Tensor(y + c), y, patch_len=4)
    assert abs(corr.item()) <= 1e-9
    assert abs(var.item()) <= 1e-9
    assert abs(mean.item() - c) <= 1e-9


def test_patch_loss_mirrored_patch_contributes_two():
    y = _wavy(t_f=4, scale=8.0, seed=7)
    mirrored = 2.0 * y.mean(axis=0, keepdims=True) - y
    corr, _, _ = patch_loss(Tensor(mirrored), y, patch_len=4)
    assert abs(corr.item() - 2.0) <= 1e-6


def test_patch_loss_constant_patch_correlation_term():
    # a zero-variance prediction patch yields correlation term ~1 (numerator 0)
    y = _wavy(t_f=4, scale=8.0, seed=8)
    const = np.full((4, 2), 1.5)
    corr, _, _ = patch_loss(Tensor(const), y, patch_len=4)
    assert abs(corr.item() - 1.0) <= 1e-6


def test_patch_loss_nonnegative_components_random():
    rng = np.random.default_rng(9)
    for _ in range(200):
        t_f = int(rng.choice([4, 8, 12]))
        p = int(rng.choice([1, 2, 4]))
        scale = float(rng.uniform(0.1, 30.0))
        a = rng.normal(scale=scale, size=(t_f, 2))
        b = rng.normal(scale=scale, size=(t_f, 2))
        corr, var, mean = patch_loss(Tensor(a), b, p)
        assert corr.item() >= 0.0
        assert var.item() >= -1e-15
        assert mean.item() >= 0.0


def test_total_loss_weight_zeroing():
    y = _wavy(t_f=8, seed=10)
    terms = target_loss(_pred([y + 0.5, y + 3.0]), y, patch_len=4)
    t_full, rep = total_loss(terms, LossWeights(alpha=1.0, beta=1.0, gamma=0.0))
    assert abs(t_full.item() - (rep.reg + rep.cls)) <= 1e-12
    assert rep.patch == rep.corr + rep.var + rep.mean


def test_total_loss_zero_when_perfect_and_unweighted():
    y = _wavy(t_f=8, seed=11)
    pred = _pred([y], probs=[1.0])
    terms = target_loss(pred, y, patch_len=4)
    total, _ = total_loss(terms, LossWeights(alpha=0.0, beta=0.0, gamma=1.0))
    assert abs(total.item()) <= 1e-6


def test_total_loss_hand_arithmetic():
    ones = LossWeights(alpha=1.0, beta=1.0, gamma=1.0)
    terms = LossTerms(reg=Tensor(0.2), cls=Tensor(0.3), corr=Tensor(0.5),
                      var=Tensor(0.0), mean=Tensor(0.0), best_mode=0)
    total, rep = total_loss(terms, ones)
    assert abs(total.item() - 1.0) <= 1e-12
    assert rep.total == total.item()


def test_total_loss_validates_weights():
    y = _wavy(t_f=8, seed=12)
    terms = target_loss(_pred([y]), y, patch_len=4)
    with pytest.raises(ValueError, match="not all"):
        total_loss(terms, LossWeights(alpha=0.0, beta=0.0, gamma=0.0))
    with pytest.raises(ValueError, match="nonnegative"):
        total_loss(terms, LossWeights(alpha=-1.0))


def test_gradient_of_total_loss_matches_finite_differences():
    gt = _wavy(t_f=8, scale=6.0, seed=13)
    probs0 = np.array([0.6, 0.4])
    w = LossWeights(alpha=1.0, beta=0.5, gamma=0.5)
    base_other = gt + 4.0                    # clearly losing mode, far from ties

    def f(trajs: Tensor) -> Tensor:
        pred = PredictionSet(trajs=trajs, probs=Tensor(probs0))
        t = target_loss(pred, gt, patch_len=4)
        total, _ = total_loss(t, w)
        return total

    x0 = np.stack([gt + 0.3, base_other])
    assert grad_check(lambda t: f(t), Tensor(x0)) <= 1e-4

    numeric = central_difference(
        lambda a: f(Tensor(a)).item(), x0, h=1e-6)
    xt = Tensor(x0, requires_grad=True)
    f(xt).backward()
    denom = np.maximum(1.0, np.maximum(np.abs(numeric), np.abs(xt.grad)))
    assert np.max(np.abs(numeric - xt.grad) / denom) <= 1e-4


def _random_batch(rng, b, k, t_f):
    scale = float(rng.uniform(0.2, 20.0))
    trajs = rng.normal(scale=scale, size=(b, k, t_f, 2))
    gt = rng.normal(scale=scale, size=(b, t_f, 2))
    probs = rng.dirichlet(np.ones(k), size=b)
    return trajs, probs, gt


def test_batched_terms_are_means_of_per_target_terms():
    rng = np.random.default_rng(14)
    for _ in range(200):
        b, k = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        t_f = int(rng.choice([4, 8, 12]))
        p = int(rng.choice([1, 2, 4]))
        trajs, probs, gt = _random_batch(rng, b, k, t_f)
        if rng.random() < 0.2:
            trajs[:, -1] = trajs[:, 0]                  # a tie: lowest index wins
        batched = target_loss(PredictionSet(trajs=Tensor(trajs), probs=Tensor(probs)),
                              gt, patch_len=p)
        singles = [target_loss(PredictionSet(trajs=Tensor(trajs[i]), probs=Tensor(probs[i])),
                               gt[i], patch_len=p) for i in range(b)]
        assert batched.best_mode.shape == (b,)
        assert batched.best_mode.tolist() == [s.best_mode for s in singles]
        for name in ("reg", "cls", "corr", "var", "mean"):
            want = np.mean([getattr(s, name).item() for s in singles])
            assert abs(getattr(batched, name).item() - want) <= 1e-12 * max(1.0, abs(want)), name


def test_batched_regression_and_classification_match_per_target():
    rng = np.random.default_rng(15)
    trajs, probs, gt = _random_batch(rng, 3, 4, 8)
    loss, best = regression_loss(PredictionSet(trajs=Tensor(trajs), probs=Tensor(probs)), gt)
    singles = [regression_loss(_pred(trajs[i], probs[i]), gt[i]) for i in range(3)]
    assert best.tolist() == [s[1] for s in singles]
    assert abs(loss.item() - np.mean([s[0].item() for s in singles])) <= 1e-12
    cls = classification_loss(Tensor(probs), best)
    want = np.mean([classification_loss(Tensor(probs[i]), int(best[i])).item()
                    for i in range(3)])
    assert abs(cls.item() - want) <= 1e-12
    assert patchify_trajectory(Tensor(trajs[:, 0]), 4).shape == (3, 2, 4, 2)


def test_batched_gradient_reaches_only_winning_modes():
    rng = np.random.default_rng(16)
    gt = rng.normal(scale=5.0, size=(4, 8, 2))
    trajs = gt[:, None] + rng.normal(scale=0.5, size=(4, 3, 8, 2)) + \
        np.array([4.0, 0.0, 8.0])[None, :, None, None]
    pred = PredictionSet(trajs=Tensor(trajs, requires_grad=True),
                         probs=Tensor(np.full((4, 3), 1.0 / 3.0), requires_grad=True))
    terms = target_loss(pred, gt, patch_len=4)
    total, _ = total_loss(terms, LossWeights())
    total.backward()
    assert terms.best_mode.tolist() == [1, 1, 1, 1]
    for i in range(4):
        assert np.any(pred.trajs.grad[i, 1] != 0.0)
        assert np.all(pred.trajs.grad[i, [0, 2]] == 0.0)
        assert pred.probs.grad[i, 1] != 0.0
        assert np.all(pred.probs.grad[i, [0, 2]] == 0.0)


def test_non_finite_losing_mode_stays_out_of_the_loss():
    gt = _wavy(t_f=8, seed=17)
    trajs = np.stack([np.stack([gt + np.inf, gt + 0.5]), np.stack([gt + 0.3, gt - np.inf])])
    terms = target_loss(PredictionSet(trajs=Tensor(trajs), probs=Tensor(np.full((2, 2), 0.5))),
                        np.stack([gt, gt]), patch_len=4)
    assert terms.best_mode.tolist() == [1, 0]
    total, report = total_loss(terms, LossWeights())
    assert math.isfinite(report.total) and total.item() == report.total


def test_gradient_of_batched_total_loss_matches_finite_differences():
    rng = np.random.default_rng(18)
    gt = rng.normal(scale=6.0, size=(3, 8, 2))
    x0 = np.stack([gt + 0.3, gt + 4.0], axis=1) + rng.normal(scale=0.1, size=(3, 2, 8, 2))
    probs0 = rng.dirichlet(np.ones(2), size=3)
    w = LossWeights(alpha=1.0, beta=0.5, gamma=0.5)

    def loss(trajs: Tensor, probs: Tensor) -> Tensor:
        terms = target_loss(PredictionSet(trajs=trajs, probs=probs), gt, patch_len=4)
        return total_loss(terms, w)[0]

    assert grad_check(lambda t: loss(t, Tensor(probs0)), Tensor(x0)) <= 1e-4
    assert grad_check(lambda p: loss(Tensor(x0), p), Tensor(probs0)) <= 1e-4


@pytest.mark.parametrize("loss", [regression_loss, lambda pred, gt: target_loss(pred, gt, 4)],
                         ids=["regression_loss", "target_loss"])
def test_winner_take_all_losses_refuse_a_ground_truth_of_another_shape(loss):
    pred = _pred([_wavy(), _wavy(seed=1)])
    with pytest.raises(ValueError, match=r"^winner-take-all loss: prediction \(2, 8, 2\) does "
                                         r"not match ground truth \(6, 2\)$"):
        loss(pred, _wavy(t_f=6))


def test_the_training_winner_is_the_mode_min_ade_credits():
    """The winner scores the same minADE alone as all modes do, bit for bit,
    because training and the metric read one distance table."""
    rng = np.random.default_rng(19)
    for _ in range(200):
        b, k, t_f = (int(n) for n in rng.integers(1, 7, size=3))
        trajs = rng.normal(scale=5.0, size=(b, k, 4 * t_f, 2))
        gt = rng.normal(scale=5.0, size=(b, 4 * t_f, 2))
        probs = Tensor(np.full((b, k), 1.0 / k))
        terms = target_loss(PredictionSet(trajs=Tensor(trajs), probs=probs), gt, patch_len=4)
        for i, best in enumerate(terms.best_mode.tolist()):
            assert min_ade(_pred(trajs[i, [best]]), gt[i]) == min_ade(_pred(trajs[i]), gt[i])


def test_on_a_tie_the_winner_is_the_lowest_index_min_ade_credits():
    gt = np.arange(16.0).reshape(8, 2)             # integers: the shifts below are exact
    shifts = [3.0, -1.0, 1.0, -1.0]                 # modes 1, 2 and 3 tie at distance sqrt(2)
    trajs = np.stack([gt + s for s in shifts])
    _, best = regression_loss(_pred(trajs), gt)
    assert best == 1
    assert min_ade(_pred(trajs[[best]]), gt) == min_ade(_pred(trajs), gt) == math.sqrt(2.0)
