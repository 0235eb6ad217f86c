"""Training objective: winner-take-all regression, mode classification, and
the patch-wise structural terms (correlation, variance, mean).

The mode closest to ground truth (mean L2) wins; only it receives the
regression and patch gradients. The patch terms compare non-overlapping
trajectory patches per coordinate: direction consistency through Pearson
correlation, spread through a KL divergence between softmaxed deviations,
and level through the absolute mean gap.

Every loss function takes one target or a batch, like `decode`: one target
is trajectories [K, T_f, 2], probabilities [K] and ground truth [T_f, 2];
a batch adds a leading B axis to each. A batch term is the mean of the
per-target terms, built as one tape pass over all targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import PredictionSet
from .tensor import Tensor

CORR_EPS = 1e-8        # regularizes patch standard deviations


@dataclass
class LossWeights:
    alpha: float = 1.0     # regression
    beta: float = 0.5      # classification
    gamma: float = 0.5     # patch structure

    def validate(self) -> None:
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.alpha == self.beta == self.gamma == 0:
            raise ValueError("loss weights must not all be zero")


@dataclass
class LossTerms:
    """Scalar loss tensors, still on the tape; batch terms are target means.

    `best_mode` is an int for one target, or a [B] index array for a batch.
    """
    reg: Tensor
    cls: Tensor
    corr: Tensor
    var: Tensor
    mean: Tensor
    best_mode: int | np.ndarray

    @property
    def patch(self) -> Tensor:
        return self.corr + self.var + self.mean


@dataclass
class LossReport:
    """Float summary of one batch: components plus the weighted total."""
    reg: float
    cls: float
    corr: float
    var: float
    mean: float
    patch: float
    total: float

    def format_line(self, step: int) -> str:
        return (f"step={step} reg={self.reg!r} cls={self.cls!r} corr={self.corr!r} "
                f"var={self.var!r} mean={self.mean!r} patch={self.patch!r} "
                f"total={self.total!r}")


def smooth_l1(residual: Tensor) -> Tensor:
    """Elementwise smooth L1: 0.5 r^2 inside |r| < 1, |r| - 0.5 outside."""
    a = residual.abs()
    quad = Tensor((a.data < 1.0).astype(np.float64))
    return quad * residual.square() * 0.5 + (1.0 - quad) * (a - 0.5)


def _mode_index(best) -> tuple:
    """Index of mode `best` (an int, or one per target after the batch axis)."""
    return (best,) if np.ndim(best) == 0 else (np.arange(len(best)), best)


def _winners(pred: PredictionSet, gt) -> tuple[Tensor, int | np.ndarray, Tensor]:
    """(winning trajectory [..., T_f, 2], winner index, ground truth tensor).

    Picking by index rather than by a one-hot product keeps a non-finite
    losing mode out of the loss (0 * inf would be nan).
    """
    gt = gt.data if isinstance(gt, Tensor) else np.asarray(gt, dtype=np.float64)
    trajs = pred.trajs
    if trajs.ndim < 3 or trajs.shape[:-3] + trajs.shape[-2:] != gt.shape:
        raise ValueError(f"winner-take-all loss: prediction {trajs.shape} does not "
                         f"match ground truth {gt.shape}")
    dists = np.linalg.norm(trajs.data - gt[..., None, :, :], axis=-1).mean(axis=-1)
    best = np.argmin(dists, axis=-1)        # first minimum: ties go to the lowest index
    best = int(best) if best.ndim == 0 else best
    return trajs[_mode_index(best)], best, Tensor(gt)


def regression_loss(pred: PredictionSet, gt) -> tuple[Tensor, int | np.ndarray]:
    """Smooth-L1 between the closest mode and ground truth.

    The winner is the mode with the smallest mean L2 distance (ties go to
    the lowest index); gradient flows only through it.
    """
    won, best, gt = _winners(pred, gt)
    return smooth_l1(won - gt).mean(), best


def classification_loss(probs: Tensor, best_mode) -> Tensor:
    """Negative log likelihood of the winning mode (selection is detached)."""
    return -(probs[_mode_index(best_mode)].log().mean())


def patchify_trajectory(y: Tensor, patch_len: int) -> Tensor:
    """Split [..., T_f, 2] into [..., M, patch_len, 2] non-overlapping patches."""
    t_f = y.shape[-2]
    if patch_len < 1 or t_f % patch_len:
        raise ValueError(f"patchify_trajectory: horizon {t_f} not divisible "
                         f"by patch length {patch_len}")
    return y.reshape(*y.shape[:-2], t_f // patch_len, patch_len, 2)


def _log_softmax(x: Tensor, axis: int) -> Tensor:
    shift = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shift - shift.exp().sum(axis=axis, keepdims=True).log()


def patch_loss(pred_traj: Tensor, gt_traj, patch_len: int) -> tuple[Tensor, Tensor, Tensor]:
    """(correlation, variance, mean) patch terms, averaged over x and y.

    Correlation: mean over patches of 1 - Pearson r, with each standard
    deviation regularized to sqrt(var + CORR_EPS); a constant patch therefore
    contributes ~1, not a division by zero. Variance: KL between softmaxed
    within-patch deviations, ground truth side first. Mean: |mu - mu_hat|.
    Every statistic reduces over the within-patch axis (-2) for x and y at
    once; each term is then the mean over targets, patches and coordinates.
    """
    gt_traj = gt_traj if isinstance(gt_traj, Tensor) else Tensor(gt_traj)
    pred_p = patchify_trajectory(pred_traj, patch_len)      # [..., M, P, 2]
    gt_p = patchify_trajectory(gt_traj, patch_len)
    mu_p = pred_p.mean(axis=-2, keepdims=True)
    mu_g = gt_p.mean(axis=-2, keepdims=True)
    dp = pred_p - mu_p
    dg = gt_p - mu_g

    cov = (dg * dp).sum(axis=-2)                            # [..., M, 2]
    sd_p = (dp.square().mean(axis=-2) + CORR_EPS).sqrt()
    sd_g = (dg.square().mean(axis=-2) + CORR_EPS).sqrt()
    corr = (1.0 - cov / (sd_g * sd_p * float(patch_len))).mean()

    log_pg = _log_softmax(dg, axis=-2)
    log_pp = _log_softmax(dp, axis=-2)
    var = (log_pg.exp() * (log_pg - log_pp)).sum(axis=-2).mean()

    mean = (mu_g - mu_p).abs().mean()
    return corr, var, mean


def target_loss(pred: PredictionSet, gt, patch_len: int) -> LossTerms:
    """All loss terms for one target or a batch; the winner gets the patch terms."""
    won, best, gt = _winners(pred, gt)
    corr, var, mean = patch_loss(won, gt, patch_len)
    return LossTerms(reg=smooth_l1(won - gt).mean(),
                     cls=classification_loss(pred.probs, best),
                     corr=corr, var=var, mean=mean, best_mode=best)


def total_loss(terms: LossTerms, weights: LossWeights) -> tuple[Tensor, LossReport]:
    """Weighted sum of `target_loss`'s terms, which are already batch means."""
    weights.validate()
    patch = terms.patch
    total = terms.reg * weights.alpha + terms.cls * weights.beta + patch * weights.gamma
    report = LossReport(reg=terms.reg.item(), cls=terms.cls.item(), corr=terms.corr.item(),
                        var=terms.var.item(), mean=terms.mean.item(), patch=patch.item(),
                        total=total.item())
    return total, report
