import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mftp.tensor import (
    ComplexTensor,
    _sorted_sum_last,
    Tensor,
    broadcast_to,
    concat,
    cumsum,
    grad_check,
    layer_norm,
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
    rng = np.random.default_rng(hash(op_name) % 2**32)
    x0 = rng.normal(size=(3, 4)) + 3.0          # positive, away from relu/abs kinks
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
