"""Frequency-domain mixture-of-experts filter over embedded histories.

The embedded sequence [B, T, C] is transformed along time into its real half
spectrum, the spectrum is split into contiguous frequency bands (one band per
expert), and a gating network scores each expert from the channel-averaged
spectral magnitude. The output spectrum is the gate-weighted sum of the
band-masked spectra, taken back to the time domain.

The transforms are constant real DFT matrices applied with `matmul`, so the
whole filter is differentiable end to end without any complex-valued node:
spectra travel as ComplexTensor real/imag pairs. A sequence whose length is
not a power of two is transformed at the padded length, with the padding and
the truncation back folded into the matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .nn import Module
from .tensor import ComplexTensor, Tensor, linear, matmul, softmax

MAGNITUDE_EPS = 1e-12   # smooths d|z|/dz at the origin


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


@functools.lru_cache(maxsize=None)
def _dft_operators(t_len: int, t_padded: int) -> tuple[np.ndarray, ...]:
    """Read-only real DFT matrices for a length-`t_len` signal padded to `t_padded`.

    Returns (cos, neg_sin, inv_re, inv_im). The forward pair is [F, t_len]
    with F = t_padded/2 + 1. The signal is right-padded with its final value,
    so the last column sums the terms of every step from t_len - 1 on. The
    inverse pair is [t_len, F]. It rebuilds the real signal from the half
    spectrum, counting each bin other than DC and Nyquist twice for its mirror
    image, and keeps only the first `t_len` steps.
    """
    n_bins = t_padded // 2 + 1
    steps = np.arange(t_padded)
    ang = 2.0 * math.pi * (np.outer(np.arange(n_bins), steps) % t_padded) / t_padded
    pad = np.eye(t_len)[np.minimum(steps, t_len - 1)]          # [t_padded, t_len]
    weight = np.full((n_bins, 1), 2.0 / t_padded)
    weight[0] = weight[-1] = 1.0 / t_padded                    # DC and Nyquist: no mirror
    ops = (np.cos(ang) @ pad, -np.sin(ang) @ pad,
           (weight * np.cos(ang)).T[:t_len].copy(), (-weight * np.sin(ang)).T[:t_len].copy())
    for op in ops:
        op.flags.writeable = False
    return ops


def rfft(x: Tensor) -> ComplexTensor:
    """Unnormalized half spectrum (bins 0..T/2) of a real [B, T, C] sequence.

    Computed as two matmuls with the constant cos and -sin DFT matrices.
    """
    B, T, C = x.shape
    if T < 2 or T & (T - 1):
        raise ValueError(f"rfft: time length {T} is not a power of two")
    cos, neg_sin, _, _ = _dft_operators(T, T)
    return ComplexTensor(matmul(cos, x), matmul(neg_sin, x))


def irfft(s: ComplexTensor, t_len: int) -> Tensor:
    """Inverse of `rfft`; requires F == t_len/2 + 1 for the stated length.

    Computed as matmuls with the constant inverse DFT matrices, which weight
    each bin other than DC and Nyquist twice for its mirror image.
    """
    B, F, C = s.shape
    if t_len // 2 + 1 != F or t_len < 2 or t_len & (t_len - 1):
        raise ValueError(f"irfft: spectrum with {F} bins does not invert to length {t_len}")
    _, _, inv_re, inv_im = _dft_operators(t_len, t_len)
    return matmul(inv_re, s.re) + matmul(inv_im, s.im)


# -- expert banding ------------------------------------------------------------------


@dataclass(frozen=True)
class ExpertMask:
    """Half-open frequency-bin interval [lo, hi) owned by one expert."""
    index: int
    lo: int
    hi: int


def build_masks(n_bins: int, n_experts: int) -> list[ExpertMask]:
    """Contiguous bands whose sizes differ by at most one bin.

    Lower bins go to lower expert indices; when bins do not divide evenly,
    the earlier experts take the extra bin.
    """
    if not 1 <= n_experts <= n_bins:
        raise ValueError(f"build_masks: need 1 <= experts <= bins, got {n_experts} > {n_bins}")
    base, rem = divmod(n_bins, n_experts)
    masks, lo = [], 0
    for i in range(n_experts):
        hi = lo + base + (1 if i < rem else 0)
        masks.append(ExpertMask(index=i, lo=lo, hi=hi))
        lo = hi
    return masks


def expert_of_bin(masks: list[ExpertMask], n_bins: int) -> np.ndarray:
    owner = np.empty(n_bins, dtype=np.int64)
    for m in masks:
        owner[m.lo: m.hi] = m.index
    return owner


# -- gating network -------------------------------------------------------------------


@dataclass
class FreqMoEParams(Module):
    """Band layout plus the gate's linear projection (zero init => uniform gate)."""
    t_padded: int
    n_experts: int
    gate_w: Tensor                      # [F, N_e]
    gate_b: Tensor                      # [N_e]
    masks: list[ExpertMask]
    bin_owner: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.t_padded // 2 + 1

    @staticmethod
    def create(t_len: int, n_experts: int) -> "FreqMoEParams":
        t_padded = next_pow2(max(t_len, 2))
        n_bins = t_padded // 2 + 1
        masks = build_masks(n_bins, n_experts)
        return FreqMoEParams(
            t_padded=t_padded,
            n_experts=n_experts,
            gate_w=Tensor(np.zeros((n_bins, n_experts)), requires_grad=True),
            gate_b=Tensor(np.zeros(n_experts), requires_grad=True),
            masks=masks,
            bin_owner=expert_of_bin(masks, n_bins),
        )


def gate(spectrum: ComplexTensor, params: FreqMoEParams) -> Tensor:
    """Per-batch expert weights on the simplex, from channel-averaged magnitude."""
    mag = spectrum.magnitude(eps=MAGNITUDE_EPS)          # [B, F, C]
    pooled = mag.mean(axis=-1)                           # [B, F]
    scores = linear(pooled, params.gate_w, params.gate_b)
    return softmax(scores)                               # [B, N_e]


def moe_filter(x: Tensor, params: FreqMoEParams) -> Tensor:
    """Gate-weighted band filtering of [B, T, C]; shape-preserving.

    Sequences shorter than the configured power-of-two length are transformed
    as if right-padded with their final value and truncated back afterwards;
    both steps live in the DFT matrices.
    """
    B, T, C = x.shape
    if T > params.t_padded:
        raise ValueError(f"moe_filter: length {T} exceeds configured {params.t_padded}")
    cos, neg_sin, inv_re, inv_im = _dft_operators(T, params.t_padded)
    spectrum = ComplexTensor(matmul(cos, x), matmul(neg_sin, x))   # [B, F, C]
    weights = gate(spectrum, params)                     # [B, N_e]
    per_bin = weights[:, params.bin_owner]               # [B, F] gather over experts
    filtered = spectrum.scale(per_bin.reshape(B, params.n_bins, 1))
    return matmul(inv_re, filtered.re) + matmul(inv_im, filtered.im)
