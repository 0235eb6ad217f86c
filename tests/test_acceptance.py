"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers. Run with `pytest -s` to see the
lines during a green run; on failure the line is part of the assertion.
"""

import math
import os
import time

import numpy as np
from mftp.attention import AttentionBlockParams, SelectiveAttentionParams, selective_attention, ssam, tsam
from mftp.config import Config, DataConfig, ModelConfig, TrainingConfig
from mftp.data import GenConfig, generate_synthetic, normalize
from mftp.decoder import PredictionSet
from mftp.freq import FreqMoEParams, gate, irfft, moe_filter, rfft
from mftp.losses import LossWeights, classification_loss, patch_loss, target_loss, total_loss
from mftp.metrics import b_min_fde, evaluate_model, min_ade, min_fde, miss, top_k_modes
from mftp.model import TrajectoryPredictor, pack_frames
from mftp.tensor import Tensor, grad_check_param
from mftp.training import train

from oracles import (
    brute_b_min_fde,
    brute_min_ade,
    brute_min_fde,
    brute_miss,
    naive_bandpass,
    naive_rfft,
)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_benchmark_figures_not_reproduced_here():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    text = open(readme).read()
    ok = ("1.26" in text and "3.00" in text
          and "not" in text.lower() and "reproduc" in text.lower())
    _report(1, "benchmark-figures-disclaimer", ok,
            "README states the published nuScenes figures are reference only")


def test_criterion_2_spectral_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_rt = 0.0
    worst_oracle = 0.0
    for t_len in (2, 4, 8, 16, 32, 64):
        x = rng.normal(size=(2, t_len, 3))
        back = irfft(rfft(Tensor(x)), t_len)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.data - x))))

        sig = rng.normal(size=t_len)
        spec = rfft(Tensor(sig.reshape(1, t_len, 1)))
        ours = (spec.re.data + 1j * spec.im.data)[0, :, 0]
        worst_oracle = max(worst_oracle, float(np.max(np.abs(ours - naive_rfft(sig)))))
    elapsed = time.perf_counter() - t0
    ok = worst_rt <= 1e-9 and worst_oracle <= 1e-9 and elapsed < 1.0
    _report(2, "spectral-correctness", ok,
            f"roundtrip={worst_rt:.2e} oracle={worst_oracle:.2e} time={elapsed:.2f}s")


def test_criterion_3_moe_filter_identity_and_gating():
    rng = np.random.default_rng(1)

    single = FreqMoEParams.create(t_len=8, n_experts=1)
    x = rng.normal(size=(2, 8, 3))
    identity_err = float(np.max(np.abs(moe_filter(Tensor(x), single).data - x)))

    banded = FreqMoEParams.create(t_len=8, n_experts=3)
    sig = rng.normal(size=8)
    bandpass_err = 0.0
    for m in banded.masks:
        banded.gate_b.data[:] = -1e4
        banded.gate_b.data[m.index] = 1e4
        y = moe_filter(Tensor(sig.reshape(1, 8, 1)), banded).data[0, :, 0]
        bandpass_err = max(bandpass_err,
                           float(np.max(np.abs(y - naive_bandpass(sig, m.lo, m.hi)))))

    params = FreqMoEParams.create(t_len=8, n_experts=4)
    params.gate_w.data[:] = rng.normal(size=params.gate_w.shape)
    simplex_err = 0.0
    for _ in range(1000):
        s = rfft(Tensor(rng.normal(size=(1, 8, 2)) * rng.uniform(0.1, 20.0)))
        w = gate(s, params).data
        simplex_err = max(simplex_err, float(np.max(np.abs(w.sum(axis=1) - 1.0))),
                          float(-w.min()))
    ok = identity_err <= 1e-9 and bandpass_err <= 1e-9 and simplex_err <= 1e-9
    _report(3, "moe-filter-identity-and-gating", ok,
            f"identity={identity_err:.2e} bandpass={bandpass_err:.2e} "
            f"simplex={simplex_err:.2e}")


def test_criterion_4_attention_contract():
    rng = np.random.default_rng(2)
    bp = AttentionBlockParams.create(rng, dim=16, n_heads=4)

    # causal invariance, bitwise
    x = rng.normal(size=(6, 16))
    base = tsam(Tensor(x), bp).data
    causal_ok = True
    for j in range(2, 6):
        x2 = x.copy()
        x2[j] += rng.normal(size=16)
        out = tsam(Tensor(x2), bp).data
        causal_ok &= bool(np.array_equal(out[1:j], base[1:j]))

    # permutation equivariance, bitwise, several agent counts
    perm_ok = True
    for n in (2, 3, 5, 8):
        agents = rng.normal(size=(n, 16))
        validity = np.ones(n, dtype=bool)
        ref = ssam(Tensor(agents), validity, bp).data
        for _ in range(3):
            p = rng.permutation(n)
            got = ssam(Tensor(agents[p]), validity[p], bp).data
            perm_ok &= bool(np.array_equal(got, ref[p]))

    # blend decomposition and gate saturation limits
    ap = SelectiveAttentionParams.create(rng, dim=16, n_heads=4)
    q, k, v = (Tensor(rng.normal(size=(5, 16))) for _ in range(3))
    _, snap = selective_attention(q, k, v, ap, return_scores=True)
    g = snap.gate[:, None, :, :]
    blend_err = float(np.max(np.abs(snap.blended - (g * snap.dense
                                                    + (1.0 - g) * snap.sparse))))

    ap.gate_mlp.fc2.b.data[:] = 1000.0
    out_hi, snap_hi = selective_attention(q, k, v, ap, return_scores=True)
    hi_err = float(np.max(np.abs(snap_hi.blended - snap_hi.dense)))

    ap.gate_mlp.fc2.b.data[:] = -1000.0
    qn = Tensor(np.abs(q.data) + 0.5)
    kn = Tensor(-np.abs(k.data) - 0.5)       # strictly negative scores
    _, snap_lo = selective_attention(qn, kn, v, ap, return_scores=True)
    lo_err = float(np.max(np.abs(snap_lo.blended - snap_lo.sparse)))
    lo_zero = float(np.max(np.abs(snap_lo.blended)))

    ok = (causal_ok and perm_ok and blend_err <= 1e-12
          and hi_err <= 1e-9 and lo_err <= 1e-9 and lo_zero <= 1e-9)
    _report(4, "attention-contract", ok,
            f"causal={causal_ok} perm={perm_ok} blend={blend_err:.2e} "
            f"gate_hi={hi_err:.2e} gate_lo={lo_zero:.2e}")


def test_criterion_5_end_to_end_gradient_check():
    t0 = time.perf_counter()
    cfg = ModelConfig(channels=8, d_patch=8, n_heads=2, n_modes=2, refine_rounds=1,
                      n_experts=2, t_history=8, t_future=12, patch_len=4,
                      granularities=[[4, 2], [8, 8]])
    model = TrajectoryPredictor(cfg, seed=0)

    scenarios = generate_synthetic(
        GenConfig(num_scenarios=1, num_agents=3, t_history=8, t_future=12,
                  noise_std=0.05), seed=3)
    frame = normalize(scenarios[0]).frames[0]
    hist, valid, targets = pack_frames([frame], 8)
    gt = frame.future[frame.target_index][:, :2]
    weights = LossWeights(alpha=1.0, beta=0.5, gamma=0.5)

    def loss_fn() -> Tensor:
        trajs, probs = model.forward(hist, valid, targets)
        terms = target_loss(PredictionSet(trajs=trajs[0], probs=probs[0]), gt,
                            cfg.patch_len)
        total, _ = total_loss(terms, weights)
        return total

    worst_name, worst = "", 0.0
    n_coords = 0
    for name, p in model.parameters().items():
        err = grad_check_param(loss_fn, p)
        n_coords += p.size
        if err > worst:
            worst_name, worst = name, err
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 120.0
    _report(5, "end-to-end-gradients", ok,
            f"max_rel_err={worst:.2e} at {worst_name or 'n/a'}, "
            f"{n_coords} coords in {elapsed:.1f}s")


def test_criterion_6_loss_identities():
    rng = np.random.default_rng(4)
    y = rng.normal(scale=8.0, size=(12, 2))
    corr, var, mean = patch_loss(Tensor(y), y, patch_len=4)
    self_err = max(abs(corr.item()), abs(var.item()), abs(mean.item()))

    c = 3.25
    corr_s, var_s, mean_s = patch_loss(Tensor(y + c), y, patch_len=4)
    shift_err = max(abs(corr_s.item()), abs(var_s.item()),
                    abs(mean_s.item() - c))

    nll_err = abs(classification_loss(Tensor(np.full(5, 0.2)), 2).item()
                  - math.log(5.0))

    neg = 0
    for _ in range(10_000):
        t_f = int(rng.choice([4, 8]))
        k = int(rng.choice([1, 2, 3]))
        scale = float(rng.uniform(0.2, 20.0))
        trajs = rng.normal(scale=scale, size=(k, t_f, 2))
        gt = rng.normal(scale=scale, size=(t_f, 2))
        probs = rng.dirichlet(np.ones(k))
        terms = target_loss(PredictionSet(trajs=Tensor(trajs), probs=Tensor(probs)),
                            gt, patch_len=2)
        vals = (terms.reg.item(), terms.cls.item(), terms.corr.item(),
                terms.var.item(), terms.mean.item())
        if any(v < -1e-12 for v in vals):
            neg += 1
    ok = self_err <= 1e-6 and shift_err <= 1e-9 and nll_err <= 1e-12 and neg == 0
    _report(6, "loss-identities", ok,
            f"self={self_err:.2e} shift={shift_err:.2e} nll={nll_err:.2e} "
            f"negatives={neg}/10000")


def test_criterion_7_metric_oracle_equivalence():
    rng = np.random.default_rng(5)
    worst = 0.0
    mono_ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        t_f = int(rng.integers(1, 9))
        trajs = rng.normal(scale=5.0, size=(k, t_f, 2))
        gt = rng.normal(scale=5.0, size=(t_f, 2))
        probs = rng.dirichlet(np.ones(k))
        pred = PredictionSet(trajs=Tensor(trajs), probs=Tensor(probs))
        worst = max(worst,
                    abs(min_ade(pred, gt) - brute_min_ade(trajs, gt)),
                    abs(min_fde(pred, gt) - brute_min_fde(trajs, gt)),
                    abs(miss(pred, gt, 2.0) - brute_miss(trajs, gt, 2.0)),
                    abs(b_min_fde(pred, gt) - brute_b_min_fde(trajs, probs, gt)))
        for kk in range(1, k):
            small, large = top_k_modes(pred, kk), top_k_modes(pred, kk + 1)
            mono_ok &= min_ade(small, gt) >= min_ade(large, gt) - 1e-15
            mono_ok &= min_fde(small, gt) >= min_fde(large, gt) - 1e-15
        mono_ok &= b_min_fde(pred, gt) >= min_fde(pred, gt)
    ok = worst <= 1e-12 and mono_ok
    _report(7, "metric-oracle-equivalence", ok,
            f"max_abs_diff={worst:.2e} monotonic={mono_ok}")


def test_criterion_8_desk_scale_learning():
    t0 = time.perf_counter()
    cfg = Config()                      # the default desk-scale configuration
    cfg.training.steps = 1000
    assert cfg.training.seed == 0
    assert cfg.data.synthetic.num_scenarios == 8
    result = train(cfg)
    elapsed = time.perf_counter() - t0

    scenarios = generate_synthetic(cfg.data.synthetic, seed=cfg.training.seed)
    report = evaluate_model(result.model, scenarios, k=5)
    ratio = result.last_report.total / result.first_report.total
    ok = (report.min_ade_k < 0.5 and ratio < 0.25 and elapsed < 300.0)
    _report(8, "desk-scale-learning", ok,
            f"train_minADE5={report.min_ade_k:.3f} loss_ratio={ratio:.3f} "
            f"time={elapsed:.0f}s")


def test_criterion_9_determinism(tmp_path):
    cfg = Config(
        model=ModelConfig(channels=8, d_patch=8, n_heads=2, n_modes=2,
                          refine_rounds=1, n_experts=2, t_history=8, t_future=4,
                          patch_len=4, granularities=[[2, 1], [8, 8]]),
        training=TrainingConfig(steps=6, seed=0),
        data=DataConfig(synthetic=GenConfig(num_scenarios=2, num_agents=2,
                                            t_history=8, t_future=4)),
    )
    a = train(cfg, out_dir=str(tmp_path / "a"))
    b = train(cfg, out_dir=str(tmp_path / "b"))
    logs_equal = a.log_lines == b.log_lines
    ckpt_equal = ((tmp_path / "a" / "params.bin").read_bytes()
                  == (tmp_path / "b" / "params.bin").read_bytes())
    ok = logs_equal and ckpt_equal
    _report(9, "determinism", ok,
            f"logs_equal={logs_equal} checkpoints_equal={ckpt_equal}")
