import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mftp.tensor import (
    ComplexTensor,
    _joint_node,
    _sorted_sum_last,
    Tensor,
    broadcast_to,
    concat,
    cumsum,
    grad_check,
    grad_check_param,
    layer_norm,
    linear,
    matmul,
    softmax,
    stack,
)

from oracles import central_difference


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_softmax_uniform():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_relu_square_gradient_matches_finite_differences():
    # d/dx sum(relu(x)^2) at [-1, 2] is [0, 4]
    x = Tensor([-1.0, 2.0], requires_grad=True)
    loss = x.relu().square().sum()
    loss.backward()
    assert np.allclose(x.grad, [0.0, 4.0], atol=1e-12)

    numeric = central_difference(lambda a: float(np.sum(np.maximum(a, 0.0) ** 2)),
                                 np.array([-1.0, 2.0]))
    assert np.allclose(x.grad, numeric, atol=1e-6)


def test_backward_sum_gives_ones():
    x = Tensor([5.0, -2.0, 0.5], requires_grad=True)
    x.sum().backward()
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    (x * x).sum().backward()
    assert np.allclose(x.grad, [2.0, 4.0, 6.0], atol=1e-12)


def test_backward_accumulates_across_calls():
    x = Tensor([1.0, 2.0], requires_grad=True)
    (x * x).sum().backward()
    first = x.grad.copy()
    (x * x).sum().backward()
    assert np.array_equal(x.grad, 2.0 * first)


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (x * x).backward()


def test_composite_graph_gradient_vs_finite_differences():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(3, 4))

    def f(t: Tensor) -> Tensor:
        h = matmul(t, t.transpose(1, 0))          # [3, 3]
        h = layer_norm(h + 0.5)
        h = softmax(h)
        return (h.sigmoid() * h.exp()).mean()

    assert grad_check(f, Tensor(x0)) <= 1e-4


def test_grad_check_sigmoid_tight():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=8))
    err = grad_check(lambda t: t.sigmoid().sum(), x, h=1e-6)
    assert err <= 1e-6


def test_grad_check_linear_exact():
    # dyadic inputs and a power-of-two step keep the difference quotient exact
    x = Tensor(np.arange(5, dtype=np.float64) / 4.0)
    err = grad_check(lambda t: (t * 3.0 - 1.5).sum(), x, h=2.0 ** -20)
    assert err <= 1e-10


def test_shape_mismatch_names_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ValueError, match=r"\(3,\).*\(4,\)"):
        Tensor(np.zeros(3)) + Tensor(np.zeros(4))


@pytest.mark.parametrize("op_name", [
    "add", "sub", "mul", "div", "matmul", "relu", "square", "sigmoid",
    "softmax", "mean", "sum", "abs", "log", "exp", "layer_norm", "sqrt",
    "concat", "getitem", "reshape", "transpose", "cumsum", "broadcast_to",
])
def test_every_op_gradient_matches_finite_differences(op_name):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))   # the same in every process
    # 2.6 -/+ [0.1, 1.4]: positive for log and sqrt, at least 0.1 from the
    # relu kink at 2.6, on either side of it, and far from the abs kink at 0
    x0 = 2.6 + rng.choice([-1.0, 1.0], size=(3, 4)) * rng.uniform(0.1, 1.4, size=(3, 4))
    c34 = Tensor(rng.normal(size=(3, 4)))       # fixed mixing constants
    c4 = Tensor(rng.normal(size=4))
    c3 = Tensor(rng.normal(size=3))
    c42 = Tensor(rng.normal(size=(4, 2)))
    cpos = Tensor(rng.normal(size=(3, 4)) + 5.0)

    builders = {
        "add": lambda t: (t + c34).sum(),
        "sub": lambda t: (t - 2.5).square().sum(),
        "mul": lambda t: (t * c4).sum(),
        "div": lambda t: (t / cpos).sum(),
        "matmul": lambda t: matmul(t, c42).square().sum(),
        "relu": lambda t: (t - 3.0 + 0.4).relu().sum(),
        "square": lambda t: t.square().mean(),
        "sigmoid": lambda t: t.sigmoid().sum(),
        "softmax": lambda t: (softmax(t) * c34).sum(),
        "mean": lambda t: t.mean(axis=1).square().sum(),
        "sum": lambda t: t.sum(axis=0, keepdims=True).square().sum(),
        "abs": lambda t: t.abs().sum(),
        "log": lambda t: t.log().sum(),
        "exp": lambda t: (t * 0.3).exp().sum(),
        "layer_norm": lambda t: (layer_norm(t) * c4).sum(),
        "sqrt": lambda t: t.sqrt().sum(),
        "concat": lambda t: concat([t, t * 2.0], axis=1).square().sum(),
        "getitem": lambda t: t[1:, ::2].sum() + t[np.array([0, 0, 2]), :].sum(),
        "reshape": lambda t: t.reshape(2, 6).square().sum(),
        "transpose": lambda t: (t.transpose(1, 0) * c3).sum(),
        "cumsum": lambda t: cumsum(t, axis=1).square().sum(),
        "broadcast_to": lambda t: broadcast_to(t.reshape(3, 1, 4), (3, 5, 4)).square().sum(),
    }
    assert grad_check(builders[op_name], Tensor(x0)) <= 1e-4


def test_softmax_rows_on_simplex():
    rng = np.random.default_rng(1)
    x = softmax(Tensor(rng.normal(size=(50, 7)) * 30.0))
    assert np.all(x.data >= 0.0)
    assert np.max(np.abs(x.data.sum(axis=-1) - 1.0)) <= 1e-12


def test_concat_slice_roundtrip():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(2, 3)))
    b = Tensor(rng.normal(size=(2, 5)))
    joined = concat([a, b], axis=1)
    assert np.array_equal(joined[:, :3].data, a.data)
    assert np.array_equal(joined[:, 3:].data, b.data)
    # and the other direction: slicing then concatenating restores the input
    again = concat([joined[:, :3], joined[:, 3:]], axis=1)
    assert np.array_equal(again.data, joined.data)


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(123)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        loss = softmax(matmul(x, x)).square().mean()
        loss.backward()
        return loss.data.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def test_matmul_batched_broadcasts_leading_axes():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 3, 4, 5))
    b = rng.normal(size=(5, 6))
    out = matmul(Tensor(a), Tensor(b))
    assert out.shape == (2, 3, 4, 6)
    assert np.allclose(out.data, a @ b)

    def f(t):
        return matmul(t, Tensor(b)).square().mean()

    assert grad_check(f, Tensor(a[0, 0])) <= 1e-4


def test_matmul_exact_sum_matches_plain():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 4, 5))
    plain = matmul(Tensor(a), Tensor(b)).data
    exact = matmul(Tensor(a), Tensor(b), exact_sum=True).data
    assert np.allclose(plain, exact, atol=1e-12)


@pytest.mark.parametrize("a_shape, b_shape", [
    *[((n, k), (k, 1)) for n in (3, 5, 7) for k in (8, 16, 32)],   # gemv
    ((8, 32, 32), (32, 32)), ((8, 32, 32), (32, 64)), ((8, 32, 64), (64, 32)),
], ids=lambda shape: "x".join(map(str, shape)))
def test_matmul_rows_independent_of_position(a_shape, b_shape):
    rng = np.random.default_rng(100 * a_shape[-2] + a_shape[-1] + b_shape[-1])
    a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
    base = matmul(Tensor(a), Tensor(b)).data
    n = a_shape[-2]
    perms = [np.roll(np.arange(n), s) for s in range(1, n)] + [np.arange(n)[::-1]]
    for perm in perms + [rng.permutation(n) for _ in range(10)]:
        out = matmul(Tensor(a[..., perm, :]), Tensor(b)).data
        assert np.array_equal(out, base[..., perm, :])


@pytest.mark.parametrize("batch", (1, 24, 256))
@pytest.mark.parametrize("length", (2, 4, 8))
@pytest.mark.parametrize("a_dims, b_dims", [
    (("B", "L", 32), (32, 32)), (("B", "L", 32), (32, 64)),        # projections
    (("B", 4, "L", 8), ("B", 4, 8, "L")),                          # scores
    (("B", 4, "L", "L"), ("B", 4, "L", 8)),                        # context
], ids=("proj32", "proj64", "scores", "context"))
def test_matmul_two_rows_round_as_in_a_taller_product(a_dims, b_dims, batch, length):
    # tsam's summary-only mode queries with two rows and keeps row 0, which
    # must round as row 0 of the full path's L-row product
    size = {"B": batch, "L": length}
    rng = np.random.default_rng(batch + length)
    a = rng.normal(size=[size.get(d, d) for d in a_dims])
    b = rng.normal(size=[size.get(d, d) for d in b_dims])
    tall = matmul(Tensor(a), Tensor(b)).data
    two = matmul(Tensor(a[..., :2, :]), Tensor(b)).data
    assert np.array_equal(two, tall[..., :2, :])


def test_cumsum_matches_numpy_bitwise():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 7, 2))
    out = cumsum(Tensor(x), axis=1)
    assert np.array_equal(out.data, np.cumsum(x, axis=1))


def test_stack_and_getitem_int_row():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 4.0])
    s = stack([a, b], axis=0)
    assert s.shape == (2, 2)
    assert np.array_equal(s[1].data, [3.0, 4.0])


def test_complex_tensor_magnitude():
    c = ComplexTensor(Tensor([3.0, 0.0]), Tensor([4.0, 0.0]))
    assert np.allclose(c.magnitude().data, [5.0, 0.0])
    with pytest.raises(ValueError, match="shape"):
        ComplexTensor(Tensor([1.0]), Tensor([1.0, 2.0]))


def test_sigmoid_saturates_exactly():
    s = Tensor([1000.0, -1000.0]).sigmoid()
    assert s.data[0] == 1.0
    assert s.data[1] == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10**6))
def test_concat_slice_inverse_property(n, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, m))
    cut = int(rng.integers(0, m + 1))
    t = Tensor(a)
    left, right = t[:, :cut], t[:, cut:]
    assert np.array_equal(concat([left, right], axis=1).data, a)


_finite = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=40))
def test_sorted_sum_order_independent_and_matches_fsum(data, rows, n):
    values = data.draw(st.lists(_finite, min_size=rows * n, max_size=rows * n))
    a = np.array(values).reshape(rows, n)
    perm = np.array(data.draw(st.permutations(range(n))))
    out = _sorted_sum_last(a.copy())                    # sorts its argument in place
    assert np.array_equal(_sorted_sum_last(a[:, perm].copy()), out)
    # math.fsum is the correctly rounded oracle. The bound is relative to
    # sum(|x|), the scale of any floating-point summation error; under
    # cancellation no sum that is not correctly rounded is close to the
    # result itself.
    for row, got in zip(a, out):
        assert abs(got - math.fsum(row)) <= 1e-12 * math.fsum(np.abs(row))


def test_sorted_sum_gives_nan_on_inf_minus_inf():
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.isnan(_sorted_sum_last(np.array([np.inf, 1.0, -np.inf])))
        assert _sorted_sum_last(np.array([1e308, 1e308])) == np.inf


def test_sorted_sum_rejects_strided_rows():
    # a strided last axis would be summed term by term, not pairwise
    with pytest.raises(ValueError, match="C-contiguous"):
        _sorted_sum_last(np.ones((3, 4)).T)


@pytest.mark.parametrize("op_name", ["add", "sub", "mul", "div", "matmul", "rsub", "rdiv"])
def test_right_operand_gradient_matches_finite_differences(op_name):
    rng = np.random.default_rng(sum(map(ord, op_name)))
    c34 = Tensor(rng.normal(size=(3, 4)))
    c234 = Tensor(rng.normal(size=(2, 3, 4)))
    builders = {                                  # t is the right operand, [4] or [4, 2]
        "add": lambda t: (c34 + t).square().sum(),
        "sub": lambda t: (c34 - t).square().sum(),
        "mul": lambda t: (c34 * t).square().sum(),
        "div": lambda t: (c34 / t).sum(),
        "matmul": lambda t: matmul(c234, t).square().sum(),
        "rsub": lambda t: (2.0 - t).square().sum(),
        "rdiv": lambda t: (2.0 / t).sum(),
    }
    shape = (4, 2) if op_name == "matmul" else (4,)
    x0 = rng.normal(size=shape) + 3.0             # positive, away from 0 for div
    assert grad_check(builders[op_name], Tensor(x0)) <= 1e-4


def _composed_linear(x, w, b):
    return matmul(x, w) + b


def _composed_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = centered.square().mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gain + bias


def _leaves(*arrays):
    return [Tensor(a.copy(), requires_grad=True) for a in arrays]


@pytest.mark.parametrize("x_shape, fan_out", [((5, 4), 3), ((2, 6, 4), 1), ((3, 2, 7, 8), 8)])
def test_linear_forward_and_gradients_equal_composed_bitwise(x_shape, fan_out):
    rng = np.random.default_rng(sum(x_shape) + fan_out)
    arrays = (rng.normal(size=x_shape), rng.normal(size=(x_shape[-1], fan_out)),
              rng.normal(size=fan_out))
    mix = rng.normal(size=x_shape[:-1] + (fan_out,))
    grads = []
    for op in (linear, _composed_linear):
        x, w, b = _leaves(*arrays)
        out = op(x, w, b)
        (out * mix).sum().backward()
        grads.append((out.data, x.grad, w.grad, b.grad))
    for fused, composed in zip(*grads):
        assert np.array_equal(fused, composed)


def test_linear_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    x, w, b = _leaves(rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)),
                      rng.normal(size=5))
    mix = Tensor(rng.normal(size=(2, 3, 5)))
    for p in (x, w, b):
        assert grad_check_param(lambda: (linear(x, w, b).square() * mix).sum(), p) <= 1e-4


@pytest.mark.parametrize("shape", [(6,), (3, 8), (2, 4, 16)])
def test_affine_layer_norm_forward_equals_composed_bitwise(shape):
    rng = np.random.default_rng(len(shape))
    x = Tensor(rng.normal(size=shape) * 3.0 + 1.0)
    gain, bias = Tensor(rng.normal(size=shape[-1])), Tensor(rng.normal(size=shape[-1]))
    assert np.array_equal(layer_norm(x, gain, bias).data,
                          _composed_layer_norm(x, gain, bias).data)
    assert np.array_equal(layer_norm(x).data,
                          _composed_layer_norm(x, Tensor(1.0), Tensor(0.0)).data)


def test_affine_layer_norm_gradients_match_finite_differences_and_composed():
    rng = np.random.default_rng(7)
    arrays = (rng.normal(size=(2, 3, 6)) * 2.0, rng.normal(size=6), rng.normal(size=6))
    mix = Tensor(rng.normal(size=(2, 3, 6)))
    x, gain, bias = _leaves(*arrays)
    for p in (x, gain, bias):
        assert grad_check_param(lambda: (layer_norm(x, gain, bias) * mix).square().sum(),
                                p) <= 1e-4
    grads = []
    for op in (layer_norm, _composed_layer_norm):
        x, gain, bias = _leaves(*arrays)
        (op(x, gain, bias) * mix).square().sum().backward()
        grads.append((x.grad, gain.grad, bias.grad))
    for fused, composed in zip(*grads):
        assert np.allclose(fused, composed, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("op_name, op", [
    ("add", lambda a, b: a + b), ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b), ("div", lambda a, b: a / b),
])
def test_elementwise_mismatch_names_op_and_both_shapes(op_name, op):
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2)))
    with pytest.raises(ValueError,
                       match=rf"^{op_name}: shapes \(2, 3\) and \(4, 2\) do not broadcast$"):
        op(a, b)


def test_matmul_leading_axis_mismatch_names_leading_axes():
    with pytest.raises(ValueError, match=r"leading axes.*\(2, 3\).*\(4,\)"):
        matmul(Tensor(np.ones((2, 3, 4, 5))), Tensor(np.ones((4, 5, 6))))
    with pytest.raises(ValueError, match="leading axes"):
        matmul(Tensor(np.ones((2, 4, 5))), Tensor(np.ones((3, 5, 6))), exact_sum=True)
    assert matmul(Tensor(np.ones((2, 1, 4, 5))), Tensor(np.ones((3, 5, 6)))).shape == (2, 3, 4, 6)


def test_first_gradient_of_negative_zero_is_stored_as_zero_plus_g():
    # the VJP of x * w hands x the gradient w, which holds a -0.0
    w = np.array([-0.0, 1.5, -2.0])
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    (x * Tensor(w)).sum().backward()
    assert x.grad.tobytes() == (0.0 + w).tobytes() == (np.zeros(3) + w).tobytes()
    assert not np.signbit(x.grad[0])


def test_tensor_reached_through_reshape_and_same_shape_add_gets_its_gradient():
    # reshape's VJP returns a view of its node's gradient, and a same-shape
    # add returns that gradient itself, so x's first share aliases another
    # node's array until it is copied
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    w = Tensor(np.array([[1.0, -2.0, 3.0], [0.5, 4.0, -1.0]]))
    v = Tensor(np.array([[2.0, 2.0, -1.0], [1.0, 0.0, 8.0]]))
    r = x.reshape(3, 2).reshape(2, 3)
    s = x + r
    ((s * w).sum() + (x * v).sum()).backward()
    assert np.array_equal(x.grad, 2.0 * w.data + v.data)
    assert np.array_equal(s.grad, w.data)
    assert np.array_equal(r.grad, w.data)


def _record_vjp_outputs(root: Tensor) -> list:
    """Wrap every VJP reachable from `root` to keep its outputs and their copies."""
    seen, stack, outputs = set(), [root], []

    def recorded(vjp):
        def run(g):
            out = vjp(g)
            outputs.append((out, np.array(out, copy=True)))
            return out
        return run

    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        node._vjps = tuple(recorded(v) for v in node._vjps)
        stack.extend(p for p in node._parents if p.requires_grad)
    return outputs


def test_no_vjp_output_is_changed_by_a_later_accumulation():
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    h = x.reshape(6, 4).reshape(2, 3, 4) + x
    t = h.transpose(0, 2, 1).transpose(0, 2, 1)
    y = layer_norm(matmul(t, w) + t) * x
    loss = concat([y, x], axis=1).square().sum() + (x - h).mean()
    outputs = _record_vjp_outputs(loss)
    loss.backward()
    assert len(outputs) > 10
    for out, before in outputs:
        assert np.array_equal(out, before)


@pytest.mark.parametrize("shape, axis", [
    ((8, 32), -1), ((3, 5, 16), -1), ((1, 3, 32), -1), ((4, 6), 0), ((2, 3, 4), (0, 2)),
    ((5, 7), None),
])
def test_mean_and_layer_norm_equal_np_mean_bitwise(shape, axis):
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=shape) * 3.0 + 1.0
    assert np.array_equal(Tensor(x).mean(axis=axis).data, np.mean(x, axis=axis))
    centered = x - np.mean(x, axis=-1, keepdims=True)
    std = np.sqrt(np.mean(centered * centered, axis=-1, keepdims=True) + 1e-5)
    assert np.array_equal(layer_norm(Tensor(x)).data, centered / std * 1.0 + 0.0)


def test_first_gradient_from_a_transposed_view_is_stored_c_contiguous():
    # transpose's VJP hands x a strided view; its gradient keeps zeros_like's layout
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = rng.normal(size=(4, 3))
    (x.transpose(1, 0) * Tensor(w)).sum().backward()
    assert x.grad.flags["C_CONTIGUOUS"]
    assert x.grad.tobytes() == (np.zeros((3, 4)) + w.T).tobytes()


def test_joint_node_runs_its_backward_once_and_hands_each_parent_its_share():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    c = Tensor(np.array([5.0, 6.0]))                  # no gradient asked for
    calls = []

    def joint_vjp(g):
        calls.append(g.copy())
        return g * b.data, g * a.data, g, g

    # a * b + a + c, with `a` listed once per use
    out = _joint_node(a.data * b.data + a.data + c.data, (a, b, a, c), joint_vjp)
    (out * Tensor(np.array([2.0, 3.0]))).sum().backward()
    assert len(calls) == 1
    assert np.array_equal(calls[0], [2.0, 3.0])
    assert np.array_equal(a.grad, np.array([2.0, 3.0]) * b.data + [2.0, 3.0])
    assert np.array_equal(b.grad, np.array([2.0, 3.0]) * a.data)
    assert c.grad is None
    assert out._parents == () and out._vjps == ()     # freed with the rest of the tape


def test_backward_of_a_scalar_that_needs_no_gradient_is_a_no_op():
    x = Tensor([1.0, 2.0])
    loss = (x * x).sum()
    loss.backward()
    assert loss.grad is None and x.grad is None


@pytest.mark.parametrize("call, match", [
    (lambda: Tensor([1.0, 2.0]).item(), r"^item\(\) requires a scalar tensor, got shape \(2,\)$"),
    (lambda: Tensor(np.ones((2, 3))).reshape(4, 2),
     r"^reshape: cannot view shape \(2, 3\) as \(4, 2\)$"),
    (lambda: Tensor(np.ones((2, 3))).transpose(0, 0),
     r"^transpose: axes \(0, 0\) are not a permutation for shape \(2, 3\)$"),
    (lambda: Tensor(np.ones((2, 3))).transpose((1, 0)),
     r"^transpose: axes \(\(1, 0\),\) are not a permutation for shape \(2, 3\)$"),
    (lambda: Tensor(np.ones((2, 3))).transpose(),
     r"^transpose: axes \(\) are not a permutation for shape \(2, 3\)$"),
    (lambda: matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2)))),
     r"^matmul: operands must have ndim >= 2, got \(3,\) and \(3, 2\)$"),
    (lambda: concat([]), r"^concat: empty tensor list$"),
    (lambda: broadcast_to(Tensor(np.ones((2, 3))), (3, 3)),
     r"^broadcast_to: cannot expand shape \(2, 3\) to \(3, 3\)$"),
    (lambda: grad_check_param(lambda: Tensor(1.0), Tensor([1.0])),
     r"^grad_check_param: parameter does not require grad$"),
    (lambda: (lambda p: grad_check_param(lambda: p * 2.0, p))(Tensor([1.0, 2.0], requires_grad=True)),
     r"^grad_check_param: loss must be scalar, got \(2,\)$"),
], ids=["item", "reshape", "transpose", "transpose-tuple", "transpose-empty", "matmul-ndim",
        "concat-empty", "broadcast_to", "grad_check_param-no-grad", "grad_check_param-vector-loss"])
def test_refusals_name_the_op_and_the_shapes(call, match):
    with pytest.raises(ValueError, match=match):
        call()
