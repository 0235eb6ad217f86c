import math

import numpy as np
import pytest

from mftp.attention import (
    AttentionBlockParams,
    AttentionScores,
    CausalMask,
    SelectiveAttentionParams,
    _gate_first_layer,
    cross_attention,
    selective_attention,
    ssam,
    tsam,
)
from mftp.config import Config
from mftp.patching import patch_count
from mftp.tensor import Tensor, grad_check, grad_check_param, linear, matmul, softmax


def _sigmoid(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, -60, None))),
                    np.exp(np.clip(x, None, 60)) / (1.0 + np.exp(np.clip(x, None, 60))))


def manual_selective_attention(q, k, v, p: SelectiveAttentionParams,
                               mask=None, key_mask=None):
    """Loop-based reimplementation of the gated dense/sparse attention."""
    H = p.n_heads
    Lq, D = q.shape
    Lk = k.shape[0]
    dh = D // H

    gate = np.zeros((Lq, Lk))
    for i in range(Lq):
        for j in range(Lk):
            r = np.concatenate([q[i], k[j]])
            h1 = np.maximum(r @ p.gate_mlp.fc1.w.data + p.gate_mlp.fc1.b.data, 0.0)
            gate[i, j] = _sigmoid(h1 @ p.gate_mlp.fc2.w.data + p.gate_mlp.fc2.b.data)[0]

    ctx = np.zeros((Lq, D))
    for h in range(H):
        qh, kh, vh = (m[:, h * dh:(h + 1) * dh] for m in (q, k, v))
        scores = np.zeros((Lq, Lk))
        for i in range(Lq):
            for j in range(Lk):
                scores[i, j] = qh[i] @ kh[j] / math.sqrt(dh)
                if mask is not None:
                    scores[i, j] += mask[i, j]
                if key_mask is not None and not key_mask[j]:
                    scores[i, j] = -np.inf
        dense = np.zeros_like(scores)
        for i in range(Lq):
            row = scores[i] - scores[i].max()
            e = np.exp(row)
            dense[i] = e / e.sum()
        sparse = np.maximum(scores, 0.0) ** 2
        blended = gate * dense + (1.0 - gate) * sparse
        for i in range(Lq):
            for j in range(Lk):
                ctx[i, h * dh:(h + 1) * dh] += blended[i, j] * vh[j]

    res = q + ctx @ p.out_proj.w.data + p.out_proj.b.data
    mu = res.mean(axis=-1, keepdims=True)
    var = ((res - mu) ** 2).mean(axis=-1, keepdims=True)
    return ((res - mu) / np.sqrt(var + 1e-5)) * p.ln.gain.data + p.ln.bias.data


def manual_block(x_q, x_kv, bp: AttentionBlockParams, mask=None, key_mask=None):
    q = x_q @ bp.w_q.w.data + bp.w_q.b.data
    k = x_kv @ bp.w_k.w.data + bp.w_k.b.data
    v = x_kv @ bp.w_v.w.data + bp.w_v.b.data
    h = manual_selective_attention(q, k, v, bp.attn, mask=mask, key_mask=key_mask)
    f = np.maximum(h @ bp.ffn.fc1.w.data + bp.ffn.fc1.b.data, 0.0)
    f = f @ bp.ffn.fc2.w.data + bp.ffn.fc2.b.data
    res = h + f
    mu = res.mean(axis=-1, keepdims=True)
    var = ((res - mu) ** 2).mean(axis=-1, keepdims=True)
    return ((res - mu) / np.sqrt(var + 1e-5)) * bp.ffn_ln.gain.data + bp.ffn_ln.bias.data


def _qkv(rng, length, dim, k_len=None):
    k_len = length if k_len is None else k_len
    return (Tensor(rng.normal(size=(length, dim))),
            Tensor(rng.normal(size=(k_len, dim))),
            Tensor(rng.normal(size=(k_len, dim))))


def test_gate_saturated_high_equals_pure_softmax_attention():
    rng = np.random.default_rng(0)
    p = SelectiveAttentionParams.create(rng, dim=8, n_heads=2)
    p.gate_mlp.fc2.b.data[:] = 1000.0          # sigmoid saturates to exactly 1
    q, k, v = _qkv(rng, 5, 8)
    out, snap = selective_attention(q, k, v, p, return_scores=True)
    assert np.all(snap.gate == 1.0)
    assert np.array_equal(snap.blended, snap.dense)

    # vanilla softmax attention computed independently
    vanilla = manual_selective_attention(q.data, k.data, v.data, p)
    assert np.max(np.abs(out.data - vanilla)) <= 1e-9


def test_gate_saturated_low_with_negative_scores_kills_attention():
    rng = np.random.default_rng(1)
    p = SelectiveAttentionParams.create(rng, dim=4, n_heads=1)
    p.gate_mlp.fc2.b.data[:] = -1000.0         # sigmoid saturates to exactly 0
    q = Tensor(rng.uniform(0.5, 1.0, size=(3, 4)))
    k = Tensor(-q.data.copy())                 # scores strictly negative
    v = Tensor(rng.normal(size=(3, 4)))
    out, snap = selective_attention(q, k, v, p, return_scores=True)
    assert np.all(snap.gate == 0.0)
    assert np.all(snap.blended == 0.0)
    # residual path only: LN(q + bias of the output projection)
    res = q.data + p.out_proj.b.data
    mu = res.mean(axis=-1, keepdims=True)
    var = ((res - mu) ** 2).mean(axis=-1, keepdims=True)
    expected = (res - mu) / np.sqrt(var + 1e-5) * p.ln.gain.data + p.ln.bias.data
    assert np.max(np.abs(out.data - expected)) <= 1e-9


def test_two_token_single_head_hand_case():
    # gate MLP zeroed => G = 0.5 exactly; identity-ish projections make the
    # score equations easy to evaluate by hand
    rng = np.random.default_rng(2)
    p = SelectiveAttentionParams.create(rng, dim=2, n_heads=1)
    p.gate_mlp.fc1.w.data[:] = 0.0
    p.gate_mlp.fc1.b.data[:] = 0.0
    p.gate_mlp.fc2.w.data[:] = 0.0
    p.gate_mlp.fc2.b.data[:] = 0.0
    p.out_proj.w.data[:] = np.eye(2)
    p.out_proj.b.data[:] = 0.0
    p.ln.gain.data[:] = 1.0
    p.ln.bias.data[:] = 0.0

    q = np.array([[1.0, 0.0], [0.0, 2.0]])
    k = np.array([[1.0, 1.0], [2.0, 0.0]])
    v = np.array([[1.0, 2.0], [3.0, 4.0]])
    out, snap = selective_attention(Tensor(q), Tensor(k), Tensor(v), p,
                                    return_scores=True)

    s = q @ k.T / math.sqrt(2.0)
    dense = np.exp(s - s.max(axis=1, keepdims=True))
    dense /= dense.sum(axis=1, keepdims=True)
    sparse = np.maximum(s, 0.0) ** 2
    blended = 0.5 * dense + 0.5 * sparse
    assert np.max(np.abs(snap.gate - 0.5)) == 0.0
    assert np.max(np.abs(snap.blended[0, 0] - blended)) <= 1e-12

    res = q + blended @ v
    mu = res.mean(axis=1, keepdims=True)
    var = ((res - mu) ** 2).mean(axis=1, keepdims=True)
    expected = (res - mu) / np.sqrt(var + 1e-5)
    assert np.max(np.abs(out.data - expected)) <= 1e-9


def test_blended_equals_gate_mix_elementwise():
    rng = np.random.default_rng(3)
    p = SelectiveAttentionParams.create(rng, dim=8, n_heads=4)
    q, k, v = _qkv(rng, 6, 8)
    _, snap = selective_attention(q, k, v, p, return_scores=True)
    g = snap.gate[:, None, :, :]
    recon = g * snap.dense + (1.0 - g) * snap.sparse
    assert np.max(np.abs(snap.blended - recon)) <= 1e-12
    assert np.all((snap.gate > 0.0) & (snap.gate < 1.0))
    assert np.all(snap.sparse >= 0.0)
    assert np.all(snap.dense >= 0.0)
    assert np.max(np.abs(snap.dense.sum(axis=-1) - 1.0)) <= 1e-12


def test_full_layer_matches_loop_recomputation():
    rng = np.random.default_rng(4)
    p = SelectiveAttentionParams.create(rng, dim=8, n_heads=2)
    q, k, v = _qkv(rng, 5, 8)
    out = selective_attention(q, k, v, p)
    assert np.max(np.abs(out.data - manual_selective_attention(
        q.data, k.data, v.data, p))) <= 1e-9


def test_selective_attention_rejects_bad_head_split():
    rng = np.random.default_rng(5)
    p = SelectiveAttentionParams.create(rng, dim=6, n_heads=4)
    q, k, v = _qkv(rng, 3, 6)
    with pytest.raises(ValueError, match="divisible"):
        selective_attention(q, k, v, p)


def test_causal_mask_layout():
    m = CausalMask.create(4).m
    assert np.all(m[0] == 0.0)                      # summary token reads all
    for i in range(1, 4):
        assert np.all(m[i, : i + 1] == 0.0)
        assert np.all(np.isinf(m[i, i + 1:]))


def test_tsam_causality_exact():
    rng = np.random.default_rng(6)
    bp = AttentionBlockParams.create(rng, dim=8, n_heads=2)
    x = rng.normal(size=(6, 8))                     # token + 5 patches
    base = tsam(Tensor(x), bp).data

    for j in range(2, 6):                           # perturb patch at position j
        x2 = x.copy()
        x2[j] += rng.normal(size=8)
        out = tsam(Tensor(x2), bp).data
        assert np.array_equal(out[1:j], base[1:j])  # earlier patches untouched, bitwise
        assert not np.array_equal(out[0], base[0])  # the token sees everything


def test_tsam_single_patch():
    rng = np.random.default_rng(7)
    bp = AttentionBlockParams.create(rng, dim=8, n_heads=2)
    x = rng.normal(size=(2, 8))                     # token + 1 patch
    out = tsam(Tensor(x), bp).data
    assert np.max(np.abs(out - manual_block(x, x, bp, mask=CausalMask.create(2).m))) <= 1e-9
    # changing the single patch must change the token output
    x2 = x.copy()
    x2[1] += 0.5
    assert not np.array_equal(tsam(Tensor(x2), bp).data[0], out[0])


def test_tsam_matches_loop_recomputation():
    rng = np.random.default_rng(8)
    bp = AttentionBlockParams.create(rng, dim=8, n_heads=4)
    x = rng.normal(size=(5, 8))
    out = tsam(Tensor(x), bp).data
    ref = manual_block(x, x, bp, mask=CausalMask.create(5).m)
    assert np.max(np.abs(out - ref)) <= 1e-9


def test_tsam_batched_agrees_with_per_sequence():
    rng = np.random.default_rng(9)
    bp = AttentionBlockParams.create(rng, dim=8, n_heads=2)
    x = rng.normal(size=(3, 4, 8))
    batched = tsam(Tensor(x), bp).data
    for b in range(3):
        single = tsam(Tensor(x[b]), bp).data
        assert np.max(np.abs(batched[b] - single)) <= 1e-12


def _tsam_token_row_and_grads(x, bp, weight, summary_only):
    for p in bp.named("tsam").values():
        p.zero_grad()
    xt = Tensor(x, requires_grad=True)
    out = tsam(xt, bp, summary_only=True) if summary_only else tsam(xt, bp)[..., 0, :]
    (out * Tensor(weight)).sum().backward()
    grads = {name: p.grad.copy() for name, p in bp.named("tsam").items()}
    grads["input"] = xt.grad.copy()
    return out.data, grads


@pytest.mark.parametrize("window, stride", Config().model.resolved_granularities())
def test_tsam_summary_only_equals_token_row_bitwise(window, stride):
    m = Config().model
    length = patch_count(m.t_history, window, stride) + 1
    rng = np.random.default_rng(40 + window)
    bp = AttentionBlockParams.create(rng, dim=m.d_patch, n_heads=m.n_heads)
    for lead in ((5,), ()):                         # [B, P+1, D] and [P+1, D]
        x = rng.normal(size=lead + (length, m.d_patch))
        weight = rng.normal(size=lead + (m.d_patch,))
        ref, ref_grads = _tsam_token_row_and_grads(x, bp, weight, summary_only=False)
        out, grads = _tsam_token_row_and_grads(x, bp, weight, summary_only=True)
        assert out.shape == lead + (m.d_patch,)
        assert np.array_equal(out, ref)
        for name, g in grads.items():
            if name == "tsam.attn.gate.fc2.b":      # a bias sum over another pair count
                assert np.allclose(g, ref_grads[name], rtol=1e-12, atol=0.0), name
            else:
                assert np.array_equal(g, ref_grads[name]), name


def test_ssam_single_agent_dense_row_is_one():
    rng = np.random.default_rng(10)
    p = SelectiveAttentionParams.create(rng, dim=8, n_heads=2)
    q, k, v = _qkv(rng, 1, 8)
    _, snap = selective_attention(q, k, v, p, return_scores=True)
    assert np.array_equal(snap.dense, np.ones((1, 2, 1, 1)))


def test_ssam_matches_loop_recomputation_with_validity():
    rng = np.random.default_rng(11)
    bp = AttentionBlockParams.create(rng, dim=8, n_heads=2)
    x = rng.normal(size=(4, 8))
    validity = np.array([True, True, False, True])
    out = ssam(Tensor(x), validity, bp).data
    ref = manual_block(x, x, bp, key_mask=validity)
    assert np.max(np.abs(out - ref)) <= 1e-9


def test_ssam_duplicate_agent_renormalizes_dense_rows():
    rng = np.random.default_rng(12)
    bp = AttentionBlockParams.create(rng, dim=8, n_heads=2)
    x = rng.normal(size=(2, 8))
    x_dup = np.vstack([x, x[1]])

    q = x @ bp.w_q.w.data + bp.w_q.b.data
    k = x @ bp.w_k.w.data + bp.w_k.b.data
    qd = x_dup @ bp.w_q.w.data + bp.w_q.b.data
    kd = x_dup @ bp.w_k.w.data + bp.w_k.b.data
    v = Tensor(x @ bp.w_v.w.data + bp.w_v.b.data)
    vd = Tensor(x_dup @ bp.w_v.w.data + bp.w_v.b.data)

    _, s0 = selective_attention(Tensor(q), Tensor(k), v, bp.attn, return_scores=True)
    _, s1 = selective_attention(Tensor(qd), Tensor(kd), vd, bp.attn, return_scores=True)

    # duplicate keys get identical dense weight, and agent 0's row is the
    # original one renormalized for the extra copy of key 1
    d0, d1 = s0.dense[0, :, 0, :], s1.dense[0, :, 0, :]
    assert np.max(np.abs(d1[:, 1] - d1[:, 2])) <= 1e-12
    renorm = d0[:, 0] / (d0[:, 0] + 2.0 * d0[:, 1])
    assert np.max(np.abs(d1[:, 0] - renorm)) <= 1e-12

    # and the full duplicated forward agrees with the loop oracle
    out = ssam(Tensor(x_dup), None, bp).data
    assert np.max(np.abs(out - manual_block(x_dup, x_dup, bp))) <= 1e-9


@pytest.mark.parametrize("n_agents", [2, 3, 5, 8])
def test_ssam_permutation_equivariance_bitwise(n_agents):
    rng = np.random.default_rng(13 + n_agents)
    bp = AttentionBlockParams.create(rng, dim=16, n_heads=4)
    x = rng.normal(size=(n_agents, 16))
    validity = rng.random(n_agents) > 0.2
    validity[0] = True
    base = ssam(Tensor(x), validity, bp).data
    for _ in range(5):
        perm = rng.permutation(n_agents)
        permuted = ssam(Tensor(x[perm]), validity[perm], bp).data
        assert np.array_equal(permuted, base[perm])


def test_cross_attention_matches_loop_recomputation():
    rng = np.random.default_rng(14)
    bp = AttentionBlockParams.create(rng, dim=8, n_heads=2)
    modes = rng.normal(size=(3, 8))
    context = rng.normal(size=(4, 8))
    validity = np.array([True, False, True, True])
    out = cross_attention(Tensor(modes), Tensor(context), validity, bp).data
    assert np.max(np.abs(out - manual_block(modes, context, bp, key_mask=validity))) <= 1e-9


def test_gradients_flow_to_all_block_parameters():
    rng = np.random.default_rng(15)
    bp = AttentionBlockParams.create(rng, dim=8, n_heads=2)
    x = Tensor(rng.normal(size=(4, 8)))             # 3 patches + token
    loss = tsam(x, bp).square().mean()
    loss.backward()
    for name, p in bp.named("tsam").items():
        assert p.grad is not None, name
        assert np.all(np.isfinite(p.grad)), name


def test_grad_check_three_agents_three_patches():
    rng = np.random.default_rng(16)
    bp = AttentionBlockParams.create(rng, dim=8, n_heads=2)
    x0 = rng.normal(size=(3, 4, 8)) * 0.5           # 3 agents, token + 3 patches

    def f(t: Tensor) -> Tensor:
        summaries = tsam(t, bp)[:, 0, :]            # [3, 8]
        return ssam(summaries, None, bp).square().mean()

    assert grad_check(f, Tensor(x0)) <= 1e-4

    # and with respect to a representative parameter tensor
    target = Tensor(x0)

    def f_w(w: Tensor) -> Tensor:
        orig = bp.attn.gate_mlp.fc1.w
        bp.attn.gate_mlp.fc1.w = w
        try:
            summaries = tsam(target, bp)[:, 0, :]
            return ssam(summaries, None, bp).square().mean()
        finally:
            bp.attn.gate_mlp.fc1.w = orig

    assert grad_check(f_w, Tensor(bp.attn.gate_mlp.fc1.w.data)) <= 1e-4


@pytest.mark.parametrize("n_agents", [32, 48])
def test_ssam_permutation_equivariance_bitwise_batched_crowd(n_agents):
    rng = np.random.default_rng(17 + n_agents)
    bp = AttentionBlockParams.create(rng, dim=32, n_heads=4)
    x = rng.normal(size=(8, n_agents, 32))
    validity = rng.random((8, n_agents)) > rng.uniform(0.0, 0.6, size=(8, 1))
    validity[:, 0] = True
    base = ssam(Tensor(x), validity, bp).data
    rows = np.arange(8)[:, None]
    for _ in range(3):
        perm = np.stack([rng.permutation(n_agents) for _ in range(8)])  # one per frame
        permuted = ssam(Tensor(x[rows, perm]), validity[rows, perm], bp).data
        assert np.array_equal(permuted, base[rows, perm])


@pytest.mark.parametrize("exact_sum", [False, True])
def test_factored_gate_matches_concatenated_pair_input(exact_sum):
    rng = np.random.default_rng(18)
    p = SelectiveAttentionParams.create(rng, dim=8, n_heads=2)
    p.gate_mlp.fc1.b.data[:] = rng.normal(size=8)
    q, k = rng.normal(size=(3, 5, 8)), rng.normal(size=(3, 7, 8))
    pairs = np.concatenate([np.broadcast_to(q[:, :, None], (3, 5, 7, 8)),
                            np.broadcast_to(k[:, None], (3, 5, 7, 8))], axis=-1)
    fc1, fc2 = p.gate_mlp.fc1, p.gate_mlp.fc2
    first = pairs @ fc1.w.data + fc1.b.data                      # [3, 5, 7, 8]
    got = _gate_first_layer(Tensor(q), Tensor(k), fc1).data
    assert np.max(np.abs(got - first)) <= 1e-12

    gate = _sigmoid(np.maximum(first, 0.0) @ fc2.w.data + fc2.b.data)[..., 0]
    _, snap = selective_attention(Tensor(q), Tensor(k), Tensor(k), p,
                                  exact_sum=exact_sum, return_scores=True)
    assert np.max(np.abs(snap.gate - gate)) <= 1e-12


def _composed_selective_attention(q, k, v, p: SelectiveAttentionParams, mask=None,
                                  key_mask=None, exact_sum=False):
    """The attention as separate tape ops, one node per op: the fused node's reference."""
    squeeze = q.ndim == 2
    if squeeze:
        q, k, v = (t.reshape(1, *t.shape) for t in (q, k, v))
    B, Lq, D = q.shape
    Lk = k.shape[1]
    H = p.n_heads
    dh = D // H
    qh = q.reshape(B, Lq, H, dh).transpose(0, 2, 1, 3)
    kt = k.reshape(B, Lk, H, dh).transpose(0, 2, 3, 1)
    vh = v.reshape(B, Lk, H, dh).transpose(0, 2, 1, 3)
    scores = matmul(qh, kt) * (1.0 / math.sqrt(dh))
    additive = np.zeros((1, 1, Lq, Lk))
    if mask is not None:
        additive = additive + mask.m
    if key_mask is not None:
        col = np.where(np.asarray(key_mask, dtype=bool), 0.0, -np.inf)
        additive = additive + np.broadcast_to(col, (B, Lk)).reshape(B, 1, 1, Lk)
    if mask is not None or key_mask is not None:
        scores = scores + Tensor(additive)
    dense = softmax(scores, exact_sum=exact_sum)
    sparse = scores.relu().square()
    fc1 = p.gate_mlp.fc1
    hq = linear(q, fc1.w[:D], fc1.b)
    hk = matmul(k, fc1.w[D:])
    hidden = (hq.reshape(B, Lq, 1, -1) + hk.reshape(B, 1, Lk, -1)).relu()
    gate = p.gate_mlp.fc2(hidden).sigmoid().reshape(B, 1, Lq, Lk)
    blended = gate * dense + (1.0 - gate) * sparse
    ctx = matmul(blended, vh, exact_sum=exact_sum)
    merged = ctx.transpose(0, 2, 1, 3).reshape(B, Lq, D)
    out = p.ln(q + p.out_proj(merged))
    snap = AttentionScores(dense=dense.data, sparse=sparse.data,
                           gate=gate.data.reshape(B, Lq, Lk), blended=blended.data)
    return (out.reshape(Lq, D) if squeeze else out), snap


def _fused_node_parents(p: SelectiveAttentionParams) -> dict:
    return {"gate.fc1.w": p.gate_mlp.fc1.w, "gate.fc1.b": p.gate_mlp.fc1.b,
            "gate.fc2.w": p.gate_mlp.fc2.w, "gate.fc2.b": p.gate_mlp.fc2.b,
            "out.w": p.out_proj.w, "out.b": p.out_proj.b,
            "ln.gain": p.ln.gain, "ln.bias": p.ln.bias}


FUSED_CASES = {
    # name: (q shape, k/v shape, mask, key mask, exact_sum)
    "tsam_summary_only": ((5, 2, 8), (5, 4, 8), None, None, False),
    "tsam_full_causal": ((3, 5, 8), (3, 5, 8), CausalMask.create(5), None, False),
    "ssam_exact_key_mask": ((3, 6, 8), (3, 6, 8), None,
                            np.array([[1, 1, 0, 1, 0, 1], [1, 0, 0, 0, 1, 1],
                                      [1, 1, 1, 1, 1, 1]], dtype=bool), True),
    "cross_key_mask": ((3, 4, 8), (3, 6, 8), None,
                       np.array([[1, 0, 1, 1, 1, 1], [1, 1, 1, 0, 0, 1],
                                 [0, 1, 1, 1, 1, 1]], dtype=bool), False),
    "two_d_key_mask": ((4, 8), (5, 8), None, np.array([1, 1, 0, 1, 1], dtype=bool), False),
}


@pytest.mark.parametrize("case", sorted(FUSED_CASES))
def test_fused_node_is_bitwise_the_composed_ops(case):
    """Output, scores snapshot and every parent's gradient equal the composed tape's bits."""
    q_shape, kv_shape, mask, key_mask, exact_sum = FUSED_CASES[case]
    rng = np.random.default_rng(sorted(FUSED_CASES).index(case) + 40)
    p = SelectiveAttentionParams.create(rng, dim=8, n_heads=2)
    for t in _fused_node_parents(p).values():
        t.data[...] = rng.normal(scale=0.5, size=t.shape)
    q, k, v = (Tensor(rng.normal(size=s), requires_grad=True)
               for s in (q_shape, kv_shape, kv_shape))
    weights = rng.normal(size=q_shape)
    leaves = {"q": q, "k": k, "v": v, **_fused_node_parents(p)}

    def grads(run):
        for t in leaves.values():
            t.zero_grad()
        out, snap = run()
        (out * Tensor(weights)).sum().backward()
        return out.data, snap, {name: t.grad for name, t in leaves.items()}

    out, snap, fused = grads(lambda: selective_attention(
        q, k, v, p, mask=mask, key_mask=key_mask, exact_sum=exact_sum, return_scores=True))
    ref_out, ref_snap, composed = grads(lambda: _composed_selective_attention(
        q, k, v, p, mask=mask, key_mask=key_mask, exact_sum=exact_sum))
    assert out.shape == q_shape
    assert out.tobytes() == ref_out.tobytes()
    for field_name in ("dense", "sparse", "gate", "blended"):
        assert getattr(snap, field_name).tobytes() == getattr(ref_snap, field_name).tobytes()
    for name in leaves:
        assert fused[name].tobytes() == composed[name].tobytes(), name


def test_fused_node_records_one_tape_node_with_eleven_parents():
    rng = np.random.default_rng(45)
    p = SelectiveAttentionParams.create(rng, dim=8, n_heads=2)
    q, k, v = _qkv(rng, 3, 8, k_len=4)
    out = selective_attention(q, k, v, p)
    params = list(_fused_node_parents(p).values())
    assert out._parents == (q, k, v, *params)
    assert len(out._vjps) == 11


@pytest.mark.parametrize("masks", ["causal", "key"])
def test_fused_node_grad_check_every_parent(masks):
    rng = np.random.default_rng(46)
    p = SelectiveAttentionParams.create(rng, dim=4, n_heads=2)
    for t in _fused_node_parents(p).values():
        t.data[...] = rng.normal(scale=0.5, size=t.shape)
    q, k, v = (Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True) for _ in range(3))
    weights = Tensor(rng.normal(size=(2, 3, 4)))
    kw = ({"mask": CausalMask.create(3)} if masks == "causal"
          else {"key_mask": np.array([[1, 0, 1], [1, 1, 0]], dtype=bool)})

    def loss():
        return (selective_attention(q, k, v, p, **kw) * weights).sum()

    for name, t in {"q": q, "k": k, "v": v, **_fused_node_parents(p)}.items():
        assert grad_check_param(loss, t) <= 1e-4, name
