import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mftp.freq import (
    MAGNITUDE_EPS,
    ExpertMask,
    FreqMoEParams,
    build_masks,
    expert_of_bin,
    gate,
    irfft,
    moe_filter,
    next_pow2,
    rfft,
)
from mftp.tensor import ComplexTensor, Tensor, grad_check, matmul, softmax

from oracles import naive_bandpass, naive_irfft, naive_rfft


def _spec_of(x_1d):
    """Half spectrum of a single-channel signal as a complex 1-D array."""
    x = Tensor(np.asarray(x_1d, dtype=np.float64).reshape(1, -1, 1))
    s = rfft(x)
    return (s.re.data + 1j * s.im.data)[0, :, 0]


def test_rfft_dc_only_signal():
    spec = _spec_of([1.0, 1.0, 1.0, 1.0])
    assert np.allclose(spec, [4.0, 0.0, 0.0], atol=1e-12)


def test_rfft_unit_impulse_flat_spectrum():
    spec = _spec_of([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(spec, [1.0, 1.0, 1.0], atol=1e-12)


def test_rfft_matches_naive_dft():
    rng = np.random.default_rng(0)
    x = rng.normal(size=8)
    assert np.max(np.abs(_spec_of(x) - naive_rfft(x))) <= 1e-9


@pytest.mark.parametrize("t_len", [2, 4, 8, 16, 32, 64])
def test_roundtrip_all_power_of_two_lengths(t_len):
    rng = np.random.default_rng(t_len)
    x = rng.normal(size=(2, t_len, 3))
    back = irfft(rfft(Tensor(x)), t_len)
    assert np.max(np.abs(back.data - x)) <= 1e-9


def test_irfft_dc_spectrum_gives_constant():
    T, c = 8, 2.5
    re = np.zeros((1, T // 2 + 1, 1))
    re[0, 0, 0] = c * T
    out = irfft(ComplexTensor(Tensor(re), Tensor(np.zeros_like(re))), T)
    assert np.allclose(out.data, c, atol=1e-12)


def test_irfft_band_limited_matches_naive():
    rng = np.random.default_rng(1)
    T = 16
    half = naive_rfft(rng.normal(size=T))
    half[5:] = 0.0                      # band-limit
    re = half.real.reshape(1, -1, 1)
    im = half.imag.reshape(1, -1, 1)
    ours = irfft(ComplexTensor(Tensor(re), Tensor(im)), T).data[0, :, 0]
    assert np.max(np.abs(ours - naive_irfft(half, T))) <= 1e-9


def test_irfft_rejects_length_mismatch():
    s = rfft(Tensor(np.zeros((1, 8, 1))))
    with pytest.raises(ValueError, match="does not invert"):
        irfft(s, 16)


def test_rfft_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        rfft(Tensor(np.zeros((1, 6, 1))))


def test_build_masks_remainder_to_early_experts():
    masks = build_masks(5, 2)
    assert masks == [ExpertMask(0, 0, 3), ExpertMask(1, 3, 5)]


def test_build_masks_single_expert():
    assert build_masks(5, 1) == [ExpertMask(0, 0, 5)]


@pytest.mark.parametrize("n_bins,n_experts", [(5, 2), (9, 4), (7, 7), (33, 5), (4, 1)])
def test_build_masks_partition_property(n_bins, n_experts):
    masks = build_masks(n_bins, n_experts)
    assert np.array_equal(np.concatenate([np.arange(m.lo, m.hi) for m in masks]),
                          np.arange(n_bins))
    sizes = [m.hi - m.lo for m in masks]
    assert max(sizes) - min(sizes) <= 1
    owner = expert_of_bin(masks, n_bins)
    assert np.all(np.diff(owner) >= 0)          # lower bins to lower experts


def test_build_masks_rejects_too_many_experts():
    with pytest.raises(ValueError, match="experts"):
        build_masks(3, 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=64))
def test_build_masks_always_partition(n_bins, n_experts):
    if n_experts > n_bins:
        with pytest.raises(ValueError):
            build_masks(n_bins, n_experts)
        return
    masks = build_masks(n_bins, n_experts)
    covered = np.concatenate([np.arange(m.lo, m.hi) for m in masks])
    assert np.array_equal(covered, np.arange(n_bins))


def test_gate_zero_init_is_uniform():
    params = FreqMoEParams.create(t_len=8, n_experts=4)
    rng = np.random.default_rng(2)
    s = rfft(Tensor(rng.normal(size=(3, 8, 2))))
    w = gate(s, params)
    assert np.allclose(w.data, 0.25, atol=1e-15)


def test_gate_rows_on_simplex_random_inputs():
    params = FreqMoEParams.create(t_len=8, n_experts=3)
    rng = np.random.default_rng(3)
    params.gate_w.data[:] = rng.normal(size=params.gate_w.shape)
    for _ in range(20):
        s = rfft(Tensor(rng.normal(size=(5, 8, 2)) * 10.0))
        w = gate(s, params).data
        assert np.all(w >= 0.0)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-9


def test_gate_hand_softmax_case():
    # logits [ln 3, 0] softmax to [0.75, 0.25]
    params = FreqMoEParams.create(t_len=2, n_experts=2)
    params.gate_b.data[:] = [np.log(3.0), 0.0]
    s = rfft(Tensor(np.zeros((1, 2, 1))))
    w = gate(s, params)
    assert np.allclose(w.data, [[0.75, 0.25]], atol=1e-12)


def test_moe_filter_single_expert_is_identity():
    params = FreqMoEParams.create(t_len=8, n_experts=1)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 8, 3))
    y = moe_filter(Tensor(x), params)
    assert np.max(np.abs(y.data - x)) <= 1e-9


def test_moe_filter_one_hot_gating_is_ideal_bandpass():
    params = FreqMoEParams.create(t_len=8, n_experts=3)
    rng = np.random.default_rng(5)
    x = rng.normal(size=8)
    for m in params.masks:
        params.gate_b.data[:] = -1e4
        params.gate_b.data[m.index] = 1e4       # force a one-hot gate
        y = moe_filter(Tensor(x.reshape(1, 8, 1)), params).data[0, :, 0]
        assert np.max(np.abs(y - naive_bandpass(x, m.lo, m.hi))) <= 1e-9


def test_moe_filter_dc_input_scaled_by_dc_expert_weight():
    params = FreqMoEParams.create(t_len=8, n_experts=4)
    rng = np.random.default_rng(6)
    params.gate_w.data[:] = rng.normal(size=params.gate_w.shape) * 0.1
    x = np.full((1, 8, 1), 3.0)
    spectrum = rfft(Tensor(x))
    w_dc = gate(spectrum, params).data[0, params.bin_owner[0]]
    y = moe_filter(Tensor(x), params)
    assert np.max(np.abs(y.data - w_dc * x)) <= 1e-9


def test_moe_filter_pads_non_power_of_two():
    params = FreqMoEParams.create(t_len=6, n_experts=1)
    assert params.t_padded == 8
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 6, 2))
    y = moe_filter(Tensor(x), params)
    assert y.shape == (1, 6, 2)
    assert np.max(np.abs(y.data - x)) <= 1e-9   # single expert still identity


def test_parseval_masks_partition_energy():
    params = FreqMoEParams.create(t_len=16, n_experts=5)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 16, 1))
    s = rfft(Tensor(x))
    spec = s.re.data + 1j * s.im.data
    total = np.sum(np.abs(spec) ** 2)
    banded = sum(np.sum(np.abs(spec[:, m.lo: m.hi]) ** 2) for m in params.masks)
    assert np.isclose(banded, total, rtol=1e-12)


def test_output_energy_bounded_by_input_energy():
    params = FreqMoEParams.create(t_len=8, n_experts=4)
    rng = np.random.default_rng(9)
    params.gate_w.data[:] = rng.normal(size=params.gate_w.shape)
    for _ in range(10):
        x = rng.normal(size=(2, 8, 2))
        y = moe_filter(Tensor(x), params).data
        assert np.sum(y ** 2) <= np.sum(x ** 2) + 1e-9


def test_moe_filter_gradients_wrt_input_and_gate():
    params = FreqMoEParams.create(t_len=8, n_experts=3)
    rng = np.random.default_rng(10)
    params.gate_w.data[:] = rng.normal(size=params.gate_w.shape) * 0.3
    x0 = rng.normal(size=(2, 8, 2))
    target = rng.normal(size=(2, 8, 2))

    def loss_wrt_input(t: Tensor) -> Tensor:
        return (moe_filter(t, params) - Tensor(target)).square().mean()

    assert grad_check(loss_wrt_input, Tensor(x0)) <= 1e-4

    x_fixed = Tensor(x0)

    def loss_wrt_gate_w(w: Tensor) -> Tensor:
        p = FreqMoEParams(params.t_padded, params.n_experts, w, params.gate_b,
                          params.masks, params.bin_owner)
        return (moe_filter(x_fixed, p) - Tensor(target)).square().mean()

    assert grad_check(loss_wrt_gate_w, Tensor(params.gate_w.data)) <= 1e-4

    def loss_wrt_gate_b(b: Tensor) -> Tensor:
        p = FreqMoEParams(params.t_padded, params.n_experts, params.gate_w, b,
                          params.masks, params.bin_owner)
        return (moe_filter(x_fixed, p) - Tensor(target)).square().mean()

    assert grad_check(loss_wrt_gate_b, Tensor(params.gate_b.data)) <= 1e-4


def test_next_pow2():
    assert [next_pow2(n) for n in (1, 2, 3, 6, 8, 9)] == [1, 2, 4, 8, 8, 16]


def _edge_padded(x, t_padded):
    return np.concatenate([x, np.full(t_padded - len(x), x[-1])])


def test_moe_filter_padded_one_hot_gating_is_ideal_bandpass():
    params = FreqMoEParams.create(t_len=6, n_experts=3)
    assert params.t_padded == 8
    rng = np.random.default_rng(11)
    x = rng.normal(size=6)
    for m in params.masks:
        params.gate_b.data[:] = -1e4
        params.gate_b.data[m.index] = 1e4       # force a one-hot gate
        y = moe_filter(Tensor(x.reshape(1, 6, 1)), params).data[0, :, 0]
        want = naive_bandpass(_edge_padded(x, 8), m.lo, m.hi)[:6]
        assert np.max(np.abs(y - want)) <= 1e-9


def test_moe_filter_padded_gradient_wrt_input():
    params = FreqMoEParams.create(t_len=6, n_experts=3)
    rng = np.random.default_rng(12)
    params.gate_w.data[:] = rng.normal(size=params.gate_w.shape) * 0.3
    x0 = rng.normal(size=(2, 6, 2))
    target = rng.normal(size=(2, 6, 2))

    def loss(t: Tensor) -> Tensor:
        return (moe_filter(t, params) - Tensor(target)).square().mean()

    assert grad_check(loss, Tensor(x0)) <= 1e-4


@pytest.mark.parametrize("n_experts", [1, 3])
def test_gate_is_bitwise_a_matmul_plus_bias(n_experts):
    """`gate` equals softmax(matmul(pooled, gate_w) + gate_b), forward and backward."""
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=(4, 8, 3))
    probe = rng.normal(size=(4, n_experts))
    w0 = rng.normal(size=(5, n_experts))
    b0 = rng.normal(size=n_experts)

    def run(weights_of):
        x = Tensor(x0, requires_grad=True)
        params = FreqMoEParams.create(t_len=8, n_experts=n_experts)
        params.gate_w.data[:] = w0
        params.gate_b.data[:] = b0
        out = weights_of(rfft(x), params)
        (out * Tensor(probe)).sum().backward()
        return out.data, x.grad, params.gate_w.grad, params.gate_b.grad

    def reference(spectrum, params):
        pooled = spectrum.magnitude(eps=MAGNITUDE_EPS).mean(axis=-1)
        return softmax(matmul(pooled, params.gate_w) + params.gate_b)

    for got, want in zip(run(gate), run(reference)):
        assert got.tobytes() == want.tobytes()


def test_moe_filter_rejects_a_sequence_longer_than_configured():
    params = FreqMoEParams.create(t_len=8, n_experts=2)
    with pytest.raises(ValueError, match=r"^moe_filter: length 9 exceeds configured 8$"):
        moe_filter(Tensor(np.zeros((1, 9, 2))), params)
