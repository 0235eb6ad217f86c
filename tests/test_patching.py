import numpy as np
import pytest

from mftp.config import ModelConfig
from mftp.freq import FreqMoEParams, moe_filter
from mftp.nn import Mlp
from mftp.patching import (
    FusionParams,
    GranularityEncoderParams,
    encode_granularity,
    fuse_granularities,
    patch_count,
    patchify,
    sinusoidal_encoding,
)
from mftp.tensor import Tensor, concat, grad_check, windows

from test_attention import manual_block
from mftp.attention import CausalMask


def test_patch_counts():
    assert patch_count(20, 5, 5) == 4
    assert patch_count(8, 8, 1) == 1
    assert patch_count(20, 5, 2) == 8


def test_patchify_whole_series_single_patch():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 8, 3))
    out = patchify(Tensor(x), window=8, stride=1)
    assert out.shape == (2, 1, 24)
    assert np.array_equal(out.data[:, 0, :], x.reshape(2, 24))


def test_patchify_window_coverage():
    x = np.arange(20, dtype=np.float64).reshape(1, 20, 1)
    out = patchify(Tensor(x), window=5, stride=2)
    assert out.shape == (1, 8, 5)
    # patch 3 covers timesteps 6..10
    assert np.array_equal(out.data[0, 3], [6.0, 7.0, 8.0, 9.0, 10.0])


def test_patchify_drops_trailing_remainder():
    x = np.arange(9, dtype=np.float64).reshape(1, 9, 1)
    out = patchify(Tensor(x), window=4, stride=3)
    assert out.shape == (1, 2, 4)          # steps 7..8 never fill a window
    assert np.array_equal(out.data[0, 1], [3.0, 4.0, 5.0, 6.0])


def test_patchify_rejects_oversized_window():
    with pytest.raises(ValueError, match="window"):
        patchify(Tensor(np.zeros((1, 4, 2))), window=5, stride=1)


def test_patchify_rejects_a_stride_below_one():
    with pytest.raises(ValueError, match=r"^patchify: stride must be >= 1, got 0$"):
        patchify(Tensor(np.zeros((1, 4, 2))), window=2, stride=0)


@pytest.mark.parametrize("t_len,window,stride", [(8, 2, 1), (8, 4, 2), (8, 8, 8),
                                                 (20, 5, 2), (16, 3, 3)])
def test_coverage_accounting(t_len, window, stride):
    n = patch_count(t_len, window, stride)
    assert n >= 1
    assert n * stride + (window - stride) <= t_len


def test_sinusoidal_encoding_shape_and_range():
    pe = sinusoidal_encoding(10, 16)
    assert pe.shape == (10, 16)
    assert np.all(np.abs(pe) <= 1.0)
    assert np.array_equal(pe[0, 0::2], np.zeros(8))      # sin(0)
    assert np.array_equal(pe[0, 1::2], np.ones(8))       # cos(0)


def test_encode_granularity_single_patch_is_function_of_that_patch():
    rng = np.random.default_rng(1)
    p = GranularityEncoderParams.create(rng, window=4, stride=4,
                                        in_channels=3, d_patch=8, n_heads=2)
    x = rng.normal(size=(1, 4, 3))
    out1 = encode_granularity(Tensor(x), p).data
    out2 = encode_granularity(Tensor(x.copy()), p).data
    assert np.array_equal(out1, out2)
    x2 = x.copy()
    x2[0, 2, 1] += 0.25
    assert not np.array_equal(encode_granularity(Tensor(x2), p).data, out1)


def test_encode_granularity_channel_permutation_reparameterization():
    rng = np.random.default_rng(2)
    c = 3
    p = GranularityEncoderParams.create(rng, window=2, stride=1,
                                        in_channels=c, d_patch=8, n_heads=2)
    x = rng.normal(size=(2, 6, c))
    base = encode_granularity(Tensor(x), p).data

    perm = np.array([2, 0, 1])
    # flattened patch layout is (t_local, channel) row-major, so permuting
    # channels permutes projection rows at every within-window offset
    row_perm = np.concatenate([t * c + perm for t in range(2)])
    p2 = GranularityEncoderParams(
        window=p.window, stride=p.stride,
        proj=type(p.proj)(w=Tensor(p.proj.w.data[row_perm]), b=p.proj.b),
        token=p.token, block=p.block)
    permuted = encode_granularity(Tensor(x[:, :, perm]), p2).data
    assert np.max(np.abs(permuted - base)) <= 1e-12


def test_encode_granularity_last_patch_reaches_token():
    rng = np.random.default_rng(3)
    p = GranularityEncoderParams.create(rng, window=2, stride=2,
                                        in_channels=2, d_patch=8, n_heads=2)
    x = rng.normal(size=(1, 8, 2))
    base = encode_granularity(Tensor(x), p).data
    x2 = x.copy()
    x2[0, -1, :] += 1.0                      # only the final patch changes
    moved = encode_granularity(Tensor(x2), p).data
    assert not np.array_equal(moved, base)   # the token attends all positions

    # verified against a direct loop recomputation of the attention stack
    def reference(inp):
        flat = inp.reshape(1, 4, 4)[0]       # 4 patches of window*channels = 4
        emb = flat @ p.proj.w.data + p.proj.b.data
        seq = np.vstack([p.token.data, emb])
        seq = seq + sinusoidal_encoding(5, 8)
        return manual_block(seq, seq, p.block, mask=CausalMask.create(5).m)[0]

    assert np.max(np.abs(base - reference(x))) <= 1e-9
    assert np.max(np.abs(moved - reference(x2))) <= 1e-9


def test_fuse_single_granularity_is_plain_mlp():
    rng = np.random.default_rng(4)
    fp = FusionParams.create(rng, n_granularities=1, d_patch=6, channels=5)
    s = Tensor(rng.normal(size=(3, 6)))
    out = fuse_granularities([s], fp)
    assert out.shape == (3, 5)
    ref = np.maximum(s.data @ fp.mlp.fc1.w.data + fp.mlp.fc1.b.data, 0.0)
    ref = ref @ fp.mlp.fc2.w.data + fp.mlp.fc2.b.data
    assert np.max(np.abs(out.data - ref)) <= 1e-12


def test_fuse_duplicate_summaries_with_zeroed_second_half_matches_single():
    rng = np.random.default_rng(5)
    single = FusionParams.create(rng, n_granularities=1, d_patch=6, channels=5)
    double = FusionParams(mlp=Mlp(fc1=type(single.mlp.fc1)(
        w=Tensor(np.vstack([single.mlp.fc1.w.data, np.zeros((6, 5))])),
        b=single.mlp.fc1.b), fc2=single.mlp.fc2))
    s = Tensor(rng.normal(size=(4, 6)))
    a = fuse_granularities([s], single).data
    b = fuse_granularities([s, s], double).data
    assert np.max(np.abs(a - b)) <= 1e-12


def test_fuse_rejects_empty_list():
    rng = np.random.default_rng(6)
    fp = FusionParams.create(rng, 1, 4, 4)
    with pytest.raises(ValueError, match="no summaries"):
        fuse_granularities([], fp)


def test_fuse_output_shape_any_granularity_count():
    rng = np.random.default_rng(7)
    for n_g in (1, 2, 3):
        fp = FusionParams.create(rng, n_granularities=n_g, d_patch=4, channels=6)
        summaries = [Tensor(rng.normal(size=(2, 4))) for _ in range(n_g)]
        assert fuse_granularities(summaries, fp).shape == (2, 6)


def _mini_temporal_encoder(rng, channels=4, d_patch=8, t_len=8):
    embed = Mlp.create(rng, 3, channels, channels)
    freq = FreqMoEParams.create(t_len, n_experts=2)
    freq.gate_w.data[:] = rng.normal(size=freq.gate_w.shape) * 0.1
    grans = [GranularityEncoderParams.create(rng, w, s, channels, d_patch, 2)
             for w, s in ((2, 1), (t_len, t_len))]
    fuse = FusionParams.create(rng, len(grans), d_patch, channels)

    def run(hist: Tensor) -> Tensor:
        emb = embed(hist)
        filtered = moe_filter(emb, freq)
        summaries = [encode_granularity(filtered, g) for g in grans]
        return fuse_granularities(summaries, fuse)

    return run, embed


def test_full_temporal_pipeline_grad_check():
    rng = np.random.default_rng(8)
    run, _ = _mini_temporal_encoder(rng)
    x0 = rng.normal(size=(2, 8, 3)) * 0.5

    def f(t: Tensor) -> Tensor:
        return run(t).square().mean()

    assert grad_check(f, Tensor(x0)) <= 1e-4


def test_zero_history_node_ignores_input_weights():
    rng = np.random.default_rng(9)
    run, embed = _mini_temporal_encoder(rng)
    zeros = Tensor(np.zeros((2, 8, 3)))
    base = run(zeros).data
    # scaling the input-layer weight matrix cannot matter when the input is 0
    embed.fc1.w.data[:] *= 3.7
    assert np.array_equal(run(zeros).data, base)
    # but biases do matter
    embed.fc1.b.data[:] += 0.1
    assert not np.array_equal(run(zeros).data, base)


def _composed_patchify(x, window, stride):
    B, T, C = x.shape
    return concat([x[:, j * stride: j * stride + window, :].reshape(B, 1, window * C)
                   for j in range(patch_count(T, window, stride))], axis=1)


@pytest.mark.parametrize("t_len,window,stride", [(8, 2, 1), (8, 4, 2), (8, 8, 8),
                                                 (9, 4, 1), (11, 5, 2)])
def test_patchify_forward_and_gradients_equal_composed_bitwise(t_len, window, stride):
    # x also feeds a second consumer whose gradient arrives first, so the
    # patches' shares join a running sum whose order the gather must keep
    rng = np.random.default_rng(t_len * 100 + window * 10 + stride)
    x0 = rng.normal(size=(3, t_len, 2))
    mix = rng.normal(size=(3, patch_count(t_len, window, stride), window * 2))
    results = []
    for op in (patchify, _composed_patchify):
        x = Tensor(x0.copy(), requires_grad=True)
        out = op(x, window, stride)
        ((x * 0.3).exp().sum() + (out * mix).square().sum()).backward()
        results.append((out.data, x.grad))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])


@pytest.mark.parametrize("window,stride", [(2, 1), (5, 2), (8, 8)])
def test_patchify_grad_check(window, stride):
    rng = np.random.default_rng(window + stride)
    mix = Tensor(rng.normal(size=(2, patch_count(8, window, stride), window * 3)))
    x0 = Tensor(rng.normal(size=(2, 8, 3)))
    assert grad_check(lambda t: (patchify(t, window, stride) * mix).square().sum(), x0) <= 1e-4


@pytest.mark.parametrize("batch", [1, 3, 256])
@pytest.mark.parametrize("window,stride", ModelConfig().resolved_granularities())
def test_windows_equals_per_window_slicing_bitwise(window, stride, batch):
    cfg = ModelConfig()
    t_len, channels = cfg.t_history, cfg.channels
    rng = np.random.default_rng(batch * 100 + window * 10 + stride)
    x0 = rng.normal(size=(batch, t_len, channels))
    mix = rng.normal(size=(batch, patch_count(t_len, window, stride), window * channels))
    results = []
    for op in (lambda x: windows(x, range(0, t_len - window + 1, stride), window),
               lambda x: _composed_patchify(x, window, stride)):
        x = Tensor(x0.copy(), requires_grad=True)
        out = op(x)
        ((x * 0.3).exp().sum() + (out * mix).square().sum()).backward()
        results.append((out.data, x.grad))
    assert results[0][0].tobytes() == results[1][0].tobytes()
    assert results[0][1].tobytes() == results[1][1].tobytes()


def test_sinusoidal_encoding_is_cached_and_read_only():
    pe = sinusoidal_encoding(7, 16)
    assert sinusoidal_encoding(7, 16) is pe
    assert not pe.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        pe[0, 0] = 1.0
    assert np.array_equal(pe, sinusoidal_encoding.__wrapped__(7, 16))
