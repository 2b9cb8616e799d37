import gc
import io
import struct
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fudsa import tensor as T
from fudsa.errors import FudsaError, InvalidArgument, InvalidShape, InvalidState, ShapeMismatch
from fudsa.layers import Conv2d
from fudsa.training import central_differences

from conftest import build, check_grads, uniform


def t64(rows):
    return T.Tensor(np.array(rows, dtype=np.float64)[np.newaxis, np.newaxis])


def zero_bias(cout, dtype=np.float64):
    """A (1, cout, 1, 1) zero bias that takes no gradient."""
    return T.Tensor(np.zeros((1, cout, 1, 1), dtype))


# ---------------------------------------------------------------------------
# creation

def test_uniform_deterministic():
    a = uniform((1, 1, 8, 8), -1, 1, seed=7)
    b = uniform((1, 1, 8, 8), -1, 1, seed=7)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, uniform((1, 1, 8, 8), -1, 1, seed=8).data)


def test_uniform_bad_bounds():
    with pytest.raises(InvalidArgument):
        uniform((1, 1, 2, 2), 1, 1, seed=0)


def test_he_normal_variance():
    # initialise's weights have variance 2 / fan-in, fan-in = Cin*kH*kW = 8*30*30
    conv = build(Conv2d(8, 64, 30), seed=3)
    fan_in = 8 * 30 * 30
    assert abs(conv.weight.data.var() - 2.0 / fan_in) < 0.1 * 2.0 / fan_in
    assert not conv.bias.data.any()


def test_bad_extents():
    with pytest.raises(InvalidShape):
        T.Tensor(np.zeros((1, 0, 2, 2)))
    with pytest.raises(InvalidShape):
        T.Tensor(np.zeros((2, 2)))


def test_item_needs_a_scalar():
    assert T.Tensor(np.full((1, 1, 1, 1), 2.5)).item() == 2.5
    with pytest.raises(InvalidArgument, match="scalar"):
        T.Tensor(np.zeros((1, 2, 1, 1))).item()


# ---------------------------------------------------------------------------
# elementwise

def test_add_identity():
    a = t64([[1, 2], [3, 4]])
    out = T.add(a, T.Tensor(np.zeros((1, 1, 2, 2))))
    assert np.array_equal(out.data[0, 0], [[1, 2], [3, 4]])


def test_mul_channel_broadcast():
    a = uniform((1, 3, 4, 4), -1, 1, seed=0)
    b = T.Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32).reshape(1, 3, 1, 1))
    out = T.mul(a, b)
    assert out.shape == (1, 3, 4, 4)
    for c in range(3):
        assert np.allclose(out.data[0, c], a.data[0, c] * (c + 1))


def test_ewise_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        T.add(T.Tensor(np.zeros((1, 2, 4, 4))), T.Tensor(np.zeros((1, 3, 4, 4))))


def test_mul_grad_equals_other_operand(rng):
    a = T.Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(1, 2, 3, 3)))
    with T.Tape() as tape:
        loss = T.tsum(T.mul(a, b))
        T.backward(loss, tape)
    assert np.allclose(a.grad, b.data)


def test_mul_grad_finite_diff(rng):
    a = T.Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
    check_grads(lambda: T.tsum(T.mul(a, b)), [a, b])


def test_broadcast_grad_matches_tile_oracle(rng):
    # grad of the broadcast operand = full grad summed over broadcast axes
    a = T.Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(1, 3, 1, 1)), requires_grad=True)
    up = rng.normal(size=(2, 3, 4, 4))
    with T.Tape() as tape:
        out = T.mul(a, b)
        loss = T.tsum(T.mul(out, T.Tensor(up)))
        T.backward(loss, tape)
    b_tiled = np.broadcast_to(b.data, a.shape)
    expected_gb = (up * a.data).sum(axis=(0, 2, 3)).reshape(1, 3, 1, 1)
    assert np.allclose(b.grad, expected_gb)
    assert np.allclose(a.grad, up * b_tiled)


def test_div_and_power_grads(rng):
    a = T.Tensor(np.abs(rng.normal(size=(1, 1, 1, 1))) + 0.5, requires_grad=True)
    b = T.Tensor(np.abs(rng.normal(size=(1, 1, 1, 1))) + 0.5, requires_grad=True)
    check_grads(lambda: T.power(T.div(a, T.add(a, b)), 0.75), [a, b])


def test_div_needs_equal_shapes():
    # no broadcast: a (1,1,1,1) divisor is refused, not spread
    with pytest.raises(ShapeMismatch, match="div needs equal shapes"):
        T.div(T.Tensor(np.ones((1, 2, 2, 2))), T.Tensor(np.ones((1, 1, 1, 1))))


@pytest.mark.parametrize("e,at_zero", [(0.75, 0.0), (1.0, 1.0), (2.0, 0.0)])
def test_power_derivative_at_zero(e, at_zero):
    # d/da a**e at a = 0 is 0 for e > 1, 1 for e = 1, and the subgradient 0 for e < 1
    a = T.Tensor(np.array([0.0, 3.0]).reshape(1, 1, 1, 2), requires_grad=True)
    with T.Tape() as tape:
        T.backward(T.tsum(T.power(a, e)), tape)
    assert a.grad.reshape(-1).tolist() == [at_zero, e * 3.0 ** (e - 1.0)]


# ---------------------------------------------------------------------------
# conv2d

def conv2d_loop(x, k, bias, s, d, p):
    """Naive 6-nested-loop oracle."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    hout = (h + 2 * p - d * (kh - 1) - 1) // s + 1
    wout = (w + 2 * p - d * (kw - 1) - 1) // s + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((n, cout, hout, wout))
    for ni in range(n):
        for co in range(cout):
            for ho in range(hout):
                for wo in range(wout):
                    acc = bias[co]
                    for ci in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[ni, ci, ho * s + i * d, wo * s + j * d] * k[co, ci, i, j]
                    out[ni, co, ho, wo] = acc
    return out


def test_conv_shape():
    x = T.Tensor(np.zeros((1, 1, 4, 4), np.float32))
    k = T.Tensor(np.zeros((1, 1, 2, 2), np.float32))
    out = T.conv2d(x, k, zero_bias(1, np.float32), stride=2)
    assert out.shape == (1, 1, 2, 2)


def test_conv_sum_of_ones():
    x = T.Tensor(np.ones((1, 1, 3, 3), np.float32))
    k = T.Tensor(np.ones((1, 1, 3, 3), np.float32))
    out = T.conv2d(x, k, zero_bias(1, np.float32))
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == 9.0


def test_conv_matches_loop_oracle_dilated(rng):
    x = T.Tensor(rng.normal(size=(2, 3, 8, 8)))
    k = T.Tensor(rng.normal(size=(4, 3, 3, 3)))
    b = T.Tensor(rng.normal(size=(1, 4, 1, 1)))
    out = T.conv2d(x, k, b, dilation=2, padding=2)
    oracle = conv2d_loop(x.data, k.data, b.data.reshape(-1), 1, 2, 2)
    assert np.allclose(out.data, oracle, atol=1e-5)


def test_conv_matches_loop_oracle_grid(rng):
    # every kernel size, stride, dilation and padding the lowering branches on,
    # with a batch and channel counts that make its transposes observable
    x = T.Tensor(rng.normal(size=(2, 3, 7, 7)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(1, 4, 1, 1)), requires_grad=True)
    for k in (1, 2, 3):
        kern = T.Tensor(rng.normal(size=(4, 3, k, k)), requires_grad=True)
        for s in (1, 2):
            for d in (1, 2):
                for p in (0, 1, 2):
                    out = T.conv2d(x, kern, b, stride=s, dilation=d, padding=p)
                    oracle = conv2d_loop(x.data, kern.data, b.data.reshape(-1), s, d, p)
                    assert np.allclose(out.data, oracle, atol=1e-10), (k, s, d, p)
                    up = T.Tensor(rng.normal(size=oracle.shape))
                    check_grads(lambda: T.tsum(T.mul(
                        T.conv2d(x, kern, b, stride=s, dilation=d, padding=p), up)),
                        [x, kern, b], n=6)


# n, cin, cout, h, w, k, stride, dilation, padding
CONV_BRANCHES = {
    "cin<cout flat 24px": (2, 3, 5, 24, 24, 3, 1, 1, 1),
    "cin==cout flat 24px": (2, 4, 4, 24, 24, 3, 1, 1, 1),
    "cin>cout flat 24px": (2, 5, 3, 24, 24, 3, 1, 1, 1),
    "cin<cout windows 16px": (2, 3, 5, 16, 16, 3, 1, 1, 1),
    "cin==cout windows 8px dilated": (2, 4, 4, 8, 8, 3, 1, 2, 2),
    "cin>cout windows 8px": (2, 5, 3, 8, 8, 3, 1, 1, 1),
    "n=1 cin<cout flat": (1, 3, 5, 24, 24, 3, 1, 1, 1),
    "n=1 cin>cout flat": (1, 5, 3, 24, 24, 3, 1, 1, 1),
    "n=1 cin>cout windows": (1, 5, 3, 4, 4, 3, 1, 1, 1),
    "dead taps 4px d=4": (2, 3, 4, 4, 4, 3, 1, 4, 4),
    "3px d=2 p=2": (2, 4, 3, 3, 3, 3, 1, 2, 2),
    "dead first tap, stride 2": (2, 2, 3, 2, 2, 2, 2, 2, 1),
    "dead taps along the width only": (2, 3, 2, 8, 3, 3, 1, 3, 3),
    "no tap reads input": (2, 2, 3, 1, 1, 2, 1, 2, 1),
    "cin>cout=1 flat 24px": (2, 3, 1, 24, 24, 3, 1, 1, 1),
    "cin>cout 1x1": (2, 5, 3, 5, 5, 1, 1, 1, 0),
    "cin>cout 2x2 stride 2, odd extent": (2, 5, 3, 7, 6, 2, 2, 1, 0),
}


@pytest.mark.parametrize("geom", CONV_BRANCHES.values(), ids=CONV_BRANCHES.keys())
def test_conv_branches_match_loop_oracle_and_finite_diff(rng, geom):
    # each channel ratio, frame kind (whole frame cropped after, or cropped
    # windows) and dropped-tap shape the lowering chooses between
    n, cin, cout, h, w, k, s, d, p = geom
    x = T.Tensor(rng.normal(size=(n, cin, h, w)), requires_grad=True)
    kern = T.Tensor(rng.normal(size=(cout, cin, k, k)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(1, cout, 1, 1)), requires_grad=True)
    out = T.conv2d(x, kern, b, stride=s, dilation=d, padding=p)
    oracle = conv2d_loop(x.data, kern.data, b.data.reshape(-1), s, d, p)
    assert out.shape == oracle.shape and np.allclose(out.data, oracle, atol=1e-10)
    up = T.Tensor(rng.normal(size=oracle.shape))
    check_grads(lambda: T.tsum(T.mul(T.conv2d(x, kern, b, stride=s, dilation=d, padding=p), up)),
                [x, kern, b])


# geometries whose backward shifts and adds, or copies tiles back, and so gathers
# no gradient columns
NO_GRADIENT_GATHER = {"cin<cout flat 24px", "n=1 cin<cout flat", "dead taps 4px d=4",
                      "cin>cout 1x1", "cin>cout 2x2 stride 2, odd extent"}


@pytest.mark.parametrize("name", CONV_BRANCHES)
def test_conv_backward_in_blocks_matches_loop_oracle_and_finite_diff(rng, monkeypatch, name):
    # a one-byte block puts each output channel (weight gradient) and each window
    # row of one image (input gradient) in a gather of its own, so both GEMMs run
    # in blocks
    n, cin, cout, h, w, k, s, d, p = CONV_BRANCHES[name]
    args = dict(stride=s, dilation=d, padding=p)
    x = T.Tensor(rng.normal(size=(n, cin, h, w)), requires_grad=True)
    kern = T.Tensor(rng.normal(size=(cout, cin, k, k)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(1, cout, 1, 1)), requires_grad=True)
    oracle = conv2d_loop(x.data, kern.data, b.data.reshape(-1), s, d, p)
    up = T.Tensor(rng.normal(size=oracle.shape))
    whole = _output_and_grads(lambda: T.conv2d(x, kern, b, **args), [x, kern, b], up.data)
    monkeypatch.setattr(T, "_COLS_BLOCK", 1)
    x.grad = kern.grad = b.grad = None
    with T.Tape() as tape:
        out = T.conv2d(x, kern, b, **args)
        loss = T.tsum(T.mul(out, up))
    blocks, real = [], T._gather  # (channels, taps, images, rows, cols) of each gather

    def gather(*args):
        cols = real(*args)
        blocks.append(cols.shape)
        return cols

    monkeypatch.setattr(T, "_gather", gather)
    T.backward(loss, tape)
    one_row = sum(c == cout and i * r == 1 for c, _, i, r, _ in blocks)
    one_channel = sum(c == 1 and i * r > 1 for c, _, i, r, _ in blocks)
    if name in NO_GRADIENT_GATHER:
        assert one_row == one_channel == 0, blocks
    else:
        assert one_channel == cout and one_row > 1, blocks
    assert np.allclose(out.data, oracle, atol=1e-10)
    for got, want in zip([x.grad, kern.grad, b.grad], whole[1:], strict=True):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    x.grad = kern.grad = b.grad = None
    check_grads(lambda: T.tsum(T.mul(T.conv2d(x, kern, b, **args), up)), [x, kern, b])


def test_conv_gradients_finite_diff(rng):
    x = T.Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
    k = T.Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.2, requires_grad=True)
    b = T.Tensor(rng.normal(size=(1, 4, 1, 1)), requires_grad=True)
    check_grads(lambda: T.tsum(T.mul(
        T.conv2d(x, k, b, dilation=2, padding=2),
        T.conv2d(x, k, b, dilation=2, padding=2))), [x, k, b], tol=1e-5)


def test_conv_strided_2x2_grad(rng):
    x = T.Tensor(rng.normal(size=(1, 2, 8, 8)), requires_grad=True)
    k = T.Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True)
    check_grads(lambda: T.tsum(T.conv2d(x, k, zero_bias(3), stride=2)), [x, k])


def test_conv_1x1_grad(rng):
    x = T.Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
    k = T.Tensor(rng.normal(size=(4, 3, 1, 1)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(1, 4, 1, 1)), requires_grad=True)
    check_grads(lambda: T.tsum(T.mul(T.conv2d(x, k, b), T.conv2d(x, k, b))), [x, k, b])


def test_conv_strided_batch_grad(rng):
    x = T.Tensor(rng.normal(size=(2, 3, 9, 9)), requires_grad=True)
    k = T.Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.3, requires_grad=True)
    b = T.Tensor(rng.normal(size=(1, 4, 1, 1)), requires_grad=True)
    check_grads(lambda: T.tsum(T.mul(
        T.conv2d(x, k, b, stride=2, padding=1),
        T.conv2d(x, k, b, stride=2, padding=1))), [x, k, b], tol=1e-5)


def _closure_arrays(fn):
    """Every ndarray a backward closure keeps alive, Tensor data included."""
    for cell in fn.__closure__ or ():
        v = cell.cell_contents
        if isinstance(v, np.ndarray):
            yield v
        elif isinstance(v, T.Tensor):
            yield v.data
        elif callable(v) and getattr(v, "__closure__", None):
            yield from _closure_arrays(v)


def _base(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_conv_tape_keeps_only_its_inputs(rng):
    # the lowered matrix is rebuilt in backward; the tape holds nothing but
    # the operands (and views of them)
    x = T.Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(1, 4, 1, 1)), requires_grad=True)
    operands = {id(_base(t.data)) for t in (x, b)}
    for k, s, d, p in ((3, 1, 1, 1), (3, 1, 2, 2), (2, 2, 1, 0), (1, 1, 1, 0)):
        kern = T.Tensor(rng.normal(size=(4, 3, k, k)), requires_grad=True)
        with T.Tape() as tape:
            T.conv2d(x, kern, b, stride=s, dilation=d, padding=p)
        (_, fn), = tape.nodes
        allowed = operands | {id(_base(kern.data))}
        held = [a.shape for a in _closure_arrays(fn) if id(_base(a)) not in allowed]
        assert held == [], (k, s, d, p)


def test_conv_shape_formula_grid(rng):
    for s in (1, 2):
        for d in (1, 2, 4):
            for p in (0, 1, 2):
                for k in (1, 2, 3):
                    h = 12
                    hout = (h + 2 * p - d * (k - 1) - 1) // s + 1
                    x = T.Tensor(np.zeros((1, 1, h, h), np.float32))
                    kk = T.Tensor(np.zeros((1, 1, k, k), np.float32))
                    b = zero_bias(1, np.float32)
                    if hout < 1:
                        with pytest.raises(ShapeMismatch):
                            T.conv2d(x, kk, b, stride=s, dilation=d, padding=p)
                    else:
                        out = T.conv2d(x, kk, b, stride=s, dilation=d, padding=p)
                        assert out.shape == (1, 1, hout, hout), (s, d, p, k)


def test_conv_channel_mismatch():
    with pytest.raises(ShapeMismatch):
        T.conv2d(T.Tensor(np.zeros((1, 2, 4, 4))), T.Tensor(np.zeros((1, 3, 3, 3))), zero_bias(1))


@pytest.mark.parametrize("bias", [(1, 3, 1, 1), (1, 2, 1, 2), (2, 2, 1, 1)])
def test_conv_bias_must_be_one_per_output_channel(bias):
    with pytest.raises(ShapeMismatch, match=r"bias must be \(1,2,1,1\)"):
        T.conv2d(T.Tensor(np.zeros((1, 3, 4, 4))), T.Tensor(np.zeros((2, 3, 3, 3))),
                 T.Tensor(np.zeros(bias)))


def test_conv_output_too_small():
    with pytest.raises(ShapeMismatch):
        T.conv2d(T.Tensor(np.zeros((1, 1, 2, 2))), T.Tensor(np.zeros((1, 1, 3, 3))), zero_bias(1))


# ---------------------------------------------------------------------------
# pooling

def test_max_pool_window():
    x = t64([[1, 2], [3, 4]])
    assert T.max_pool2(x).item() == 4.0


def test_max_pool_tie_break_first_row_major():
    x = T.Tensor(np.full((1, 1, 4, 4), 5.0), requires_grad=True)
    with T.Tape() as tape:
        out = T.max_pool2(x)
        assert np.all(out.data == 5.0)
        T.backward(T.tsum(out), tape)
    expected = np.zeros((4, 4))
    expected[0::2, 0::2] = 1.0
    assert np.array_equal(x.grad[0, 0], expected)


def test_max_pool_matches_loop_oracle(rng):
    x = T.Tensor(rng.normal(size=(1, 2, 8, 8)), requires_grad=True)
    out = T.max_pool2(x)
    for c in range(2):
        for i in range(4):
            for j in range(4):
                win = x.data[0, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                assert out.data[0, c, i, j] == win.max()
    check_grads(lambda: T.tsum(T.mul(T.max_pool2(x), T.max_pool2(x))), [x])


NAN, INF = np.nan, np.inf
EDGE_WINDOWS = (
    [[3, 3, 3, 3], [0, 0, 0, 0], [-0.0, -0.0, -0.0, -0.0]]  # all equal
    + [[-0.0, 0, -0.0, 0], [0, -0.0, 0, -0.0], [-1, -0.0, 0, -2]]  # mixed +-0
    + [[-INF] * 4, [-INF, -5, -INF, -INF], [-INF, -INF, -INF, 2], [INF, 1, INF, -INF]]
    + [[NAN if k == at else v for k, v in enumerate([1, 5, 5, 2])] for at in range(4)]
    + [[1, NAN, 3, NAN], [INF, -INF, NAN, NAN], [NAN] * 4])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_max_pool_edge_windows_match_loop_oracle(dtype):
    # windows side by side, each laid out row-major: [[a, b], [c, d]]
    wins = np.array(EDGE_WINDOWS, dtype=dtype)
    k = len(wins)
    x = T.Tensor(wins.reshape(k, 2, 2).transpose(1, 0, 2).reshape(1, 1, 2, 2 * k).copy(),
                 requires_grad=True)
    g = np.arange(1, k + 1, dtype=dtype).reshape(1, 1, 1, k)
    with T.Tape() as tape:
        out = T.max_pool2(x)
        T.backward(T.tsum(T.mul(out, T.Tensor(g))), tape)
    want_out = np.empty(k, dtype=dtype)
    want_gx = np.zeros((k, 4), dtype=dtype)
    for w, win in enumerate(wins):
        nan = np.isnan(win)
        at = int(np.flatnonzero(nan)[0]) if nan.any() else int(np.flatnonzero(win == win.max())[0])
        want_out[w] = win[at]
        want_gx[w, at] = g[0, 0, 0, w]
    assert np.array_equal(out.data.reshape(k), want_out, equal_nan=True)
    assert np.array_equal(x.grad.reshape(2, k, 2).transpose(1, 0, 2).reshape(k, 4), want_gx)


def test_max_pool_odd_extent():
    with pytest.raises(ShapeMismatch):
        T.max_pool2(T.Tensor(np.zeros((1, 1, 3, 4))))


def test_global_avg_pool():
    x = t64([[1, 3], [5, 7]])
    assert T.global_avg_pool(x).item() == 4.0
    c = T.Tensor(np.full((2, 3, 5, 5), 2.5, np.float32))
    assert np.all(T.global_avg_pool(c).data == 2.5)


def test_global_avg_pool_grad_uniform(rng):
    x = T.Tensor(rng.normal(size=(1, 4, 6, 6)), requires_grad=True)
    with T.Tape() as tape:
        out = T.global_avg_pool(x)
        assert np.allclose(out.data, x.data.mean(axis=(2, 3), keepdims=True))
        T.backward(T.tsum(out), tape)
    assert np.allclose(x.grad, 1.0 / 36.0)


# ---------------------------------------------------------------------------
# upsample

def test_upsample_bilinear_constant():
    x = T.Tensor(np.full((1, 2, 3, 3), 7.5))
    out = T.upsample(x, 2)
    assert out.shape == (1, 2, 6, 6)
    assert np.allclose(out.data, 7.5)


def test_upsample_bilinear_matches_pixel_oracle(rng):
    x = T.Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
    out = T.upsample(x, 2)
    h = 4
    for oy in range(8):
        for ox in range(8):
            sy = (oy + 0.5) / 2 - 0.5
            sx = (ox + 0.5) / 2 - 0.5
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            ty, tx = sy - y0, sx - x0
            y0c, y1c = np.clip([y0, y0 + 1], 0, h - 1)
            x0c, x1c = np.clip([x0, x0 + 1], 0, h - 1)
            v = ((1 - ty) * (1 - tx) * x.data[0, 0, y0c, x0c]
                 + (1 - ty) * tx * x.data[0, 0, y0c, x1c]
                 + ty * (1 - tx) * x.data[0, 0, y1c, x0c]
                 + ty * tx * x.data[0, 0, y1c, x1c])
            assert abs(out.data[0, 0, oy, ox] - v) < 1e-12
    check_grads(lambda: T.tsum(T.mul(T.upsample(x, 2), T.upsample(x, 2))), [x])


@pytest.mark.parametrize("factor", [2, 4, 8])
def test_upsample_commutes_with_1x1_conv(rng, factor):
    # the decoder residuals project before upsampling on this identity
    x = T.Tensor(rng.normal(size=(2, 6, 3, 5)))
    k = T.Tensor(rng.normal(size=(4, 6, 1, 1)))
    b = T.Tensor(rng.normal(size=(1, 4, 1, 1)))
    first = T.upsample(T.conv2d(x, k, b), factor)
    second = T.conv2d(T.upsample(x, factor), k, b)
    assert first.shape == second.shape == (2, 4, 3 * factor, 5 * factor)
    assert np.max(np.abs(first.data - second.data)) <= 1e-12


def test_interp_matrix_is_cached_read_only():
    m = T._interp_matrix(16, 4, np.dtype(np.float32))
    assert m is T._interp_matrix(16, 4, np.dtype(np.float32))
    assert m.dtype == np.float32 and not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_upsample_factor_validation():
    with pytest.raises(InvalidArgument):
        T.upsample(T.Tensor(np.zeros((1, 1, 2, 2))), 1)


# ---------------------------------------------------------------------------
# power-of-two rescaling of output gradients in conv2d / upsample backward

CONV_GEOMS = [(3, 1, 1, 1, True), (3, 1, 2, 2, True), (2, 2, 1, 0, False),
              (1, 1, 1, 0, True), (3, 2, 1, 1, False)]  # k, stride, dilation, padding, bias learned


def _op_grads(op, inputs, g):
    """Gradients of those ``inputs`` that require one, when the output
    gradient of ``op()`` is ``g``."""
    for t in inputs:
        t.grad = None
    with T.Tape() as tape:
        op()
    (_, fn), = tape.nodes
    fn(g)
    return [t.grad for t in inputs if t.requires_grad]


def _conv_grads_unscaled(inputs, g, s, d, p):
    """conv2d's gradients of ``inputs`` (x, kernel, bias) for output gradient
    g, with the backward's rescaling of g by 2**k pinned to k = 0."""
    def unscaled(g, out=None):
        out = np.empty(g.shape, dtype=g.dtype) if out is None else out
        out[...] = g
        return out, 1.0

    x, k, b = inputs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_scaled", unscaled)
        return _op_grads(lambda: T.conv2d(x, k, b, stride=s, dilation=d, padding=p), inputs, g)


def _conv_case(rng, dtype, k, s, d, p, bias, x_scale=1.0, g_scale=1.0):
    """Operands, op and output gradient of one conv; ``bias=False`` gives a
    zero bias that takes no gradient."""
    x = T.Tensor((rng.normal(size=(2, 3, 9, 9)) * x_scale).astype(dtype), requires_grad=True)
    kern = T.Tensor(rng.normal(size=(4, 3, k, k)).astype(dtype), requires_grad=True)
    b = T.Tensor(rng.normal(size=(1, 4, 1, 1)).astype(dtype), requires_grad=True) if bias \
        else zero_bias(4, dtype)
    inputs = [x, kern, b]
    out = T.conv2d(x, kern, b, stride=s, dilation=d, padding=p)
    g = (rng.normal(size=out.shape) * g_scale).astype(dtype)
    return inputs, (lambda: T.conv2d(x, kern, b, stride=s, dilation=d, padding=p)), g


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k,s,d,p,bias", CONV_GEOMS)
def test_conv_rescaled_backward_is_bit_identical(rng, dtype, k, s, d, p, bias):
    # normal-range f32 and any f64: scaling by 2**k and back is exact
    inputs, op, g = _conv_case(rng, dtype, k, s, d, p, bias)
    got = _op_grads(op, inputs, g)
    want = _conv_grads_unscaled(inputs, g, s, d, p)
    for a, b in zip(got, want):
        assert a.dtype == dtype and np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("factor", [2, 4])
def test_upsample_rescaled_backward_is_bit_identical(rng, dtype, factor):
    x = T.Tensor(rng.normal(size=(2, 3, 4, 5)).astype(dtype), requires_grad=True)
    g = rng.normal(size=(2, 3, 4 * factor, 5 * factor)).astype(dtype)
    gx, = _op_grads(lambda: T.upsample(x, factor), [x], g)
    mh = T._interp_matrix(4 * factor, 4, np.dtype(dtype))
    mw = T._interp_matrix(5 * factor, 5, np.dtype(dtype))
    assert np.array_equal(gx, np.matmul(np.matmul(mh.T, g), mw))


def test_conv_backward_accurate_for_subnormal_output_gradient(rng):
    # An output gradient near 2**-135 is subnormal in f32, so unscaled every
    # product in the weight-gradient GEMM underflows and keeps only ~14 bits
    # (relative error about 2e-5).  The input gradient is itself subnormal
    # here, so its final rounding dominates and it is not compared.
    x = rng.normal(size=(4, 8, 16, 16))
    k = rng.normal(size=(8, 8, 3, 3)) * 0.2
    g = (rng.normal(size=(4, 8, 16, 16)) * 2.0 ** -135).astype(np.float32)
    grads = {}
    for dtype in (np.float32, np.float64):
        xt = T.Tensor(x.astype(np.float32).astype(dtype), requires_grad=True)
        kt = T.Tensor(k.astype(np.float32).astype(dtype), requires_grad=True)
        _, grads[dtype] = _op_grads(lambda: T.conv2d(xt, kt, zero_bias(8, dtype), padding=1),
                                    [xt, kt], g.astype(dtype))
    ref = grads[np.float64]
    assert np.abs(grads[np.float32] - ref).max() / np.abs(ref).max() <= 5e-6


@pytest.mark.parametrize("special", [0.0, np.nan, np.inf])
def test_rescaled_backward_keeps_zero_nan_and_inf(rng, special):
    inputs, op, g = _conv_case(rng, np.float32, 3, 1, 1, 1, True)
    x = T.Tensor(rng.normal(size=(1, 2, 3, 3)).astype(np.float32), requires_grad=True)
    gu = np.zeros((1, 2, 6, 6), dtype=np.float32)
    if special == 0.0:
        g[...] = 0.0
    else:
        g[0, 1, 2, 3] = gu[0, 1, 2, 3] = special
    with np.errstate(invalid="ignore"):  # inf - inf in the sums
        grads = _op_grads(op, inputs, g) + _op_grads(lambda: T.upsample(x, 2), [x], gu)
    for a in grads:
        if special == 0.0:
            assert np.array_equal(a, np.zeros_like(a))
        else:
            assert not np.isfinite(a).all()


def test_rescaled_conv_backward_finite_for_huge_inputs(rng):
    # 2**k puts max|g| near 2**64; with |x| ~ 1e12 the products stay far from
    # the f32 overflow at 2**128
    inputs, op, g = _conv_case(rng, np.float32, 3, 1, 1, 1, True, x_scale=1e12, g_scale=1e-3)
    got = _op_grads(op, inputs, g)
    want = _conv_grads_unscaled([T.Tensor(t.data.astype(np.float64), requires_grad=True)
                                 for t in inputs], g.astype(np.float64), 1, 1, 1)
    for a, b in zip(got, want):
        assert np.isfinite(a).all()
        assert np.abs(a - b).max() <= 1e-5 * np.abs(b).max()


def test_scaled_lifts_subnormals_exactly(rng):
    tiny = np.finfo(np.float32).tiny
    g = (rng.normal(size=(16, 4, 8, 8)) * 1e-12).astype(np.float32)
    sub = rng.random(g.shape) < 0.05
    g[sub] = (rng.normal(size=sub.sum()) * 1e-40).astype(np.float32)
    view = g.transpose(1, 0, 2, 3)
    assert 0.04 < np.mean((g != 0) & (np.abs(g) < tiny)) < 0.06
    gs, unscale = T._scaled(view)
    assert gs.flags.c_contiguous and not np.shares_memory(gs, g)
    assert not ((gs != 0) & (np.abs(gs) < tiny)).any()
    assert 2.0 ** 63 <= np.abs(gs).max() < 2.0 ** 64
    assert np.array_equal(gs * np.float32(unscale), view)


@pytest.mark.parametrize("value,unscale", [(2.0 ** -149, 2.0 ** -126), (2.0 ** 70, 1.0),
                                           (0.0, 1.0), (np.nan, 1.0), (-np.inf, 1.0)])
def test_scaled_exponent_is_clamped(value, unscale):
    # both factors stay normal f32 numbers; nothing to gain from zero or non-finite
    g = np.full((1, 1, 2, 2), value, dtype=np.float32)
    gs, got = T._scaled(g)
    assert got == unscale
    assert np.array_equal(gs * np.float32(got), g, equal_nan=True)


# ---------------------------------------------------------------------------
# activations / dense / concat

def test_sigmoid_symmetry_point():
    assert T.sigmoid(T.Tensor(np.zeros((1, 1, 1, 1), np.float32))).item() == 0.5


def test_relu_definition():
    x = t64([[-3.0, 3.0], [0.0, 1.0]])
    out = T.relu(x)
    assert np.array_equal(out.data[0, 0], [[0, 3], [0, 1]])


RELU_EDGES = [np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-40, -1e-40, 5e-324, -5e-324]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(RELU_EDGES), st.floats(width=32)),
                min_size=1, max_size=24),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 2 ** 32 - 1))
def test_relu_backward_is_the_input_mask(values, dtype, seed):
    # the mask comes from relu's output, so it must equal x > 0 for every input,
    # NaN, signed zeros, infinities and subnormals included
    x = T.Tensor(np.array(values, dtype=dtype).reshape(1, 1, 1, -1), requires_grad=True)
    g = np.random.default_rng(seed).normal(size=x.shape).astype(dtype)
    grad, = _op_grads(lambda: T.relu(x), [x], g)
    assert np.array_equal(grad, g * (x.data > 0))


def _output_and_grads(op, inputs, g):
    """op()'s output and its inputs' gradients when the output's gradient is g:
    the backward of sum(op() * g), whose product hands op() 1 * g, g to the bit."""
    for t in inputs:
        t.grad = None
    with T.Tape() as tape:
        out = op()
        loss = T.tsum(T.mul(out, T.Tensor(g)))
    T.backward(loss, tape)
    return [out.data] + [t.grad for t in inputs]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("geom", CONV_BRANCHES.values(), ids=CONV_BRANCHES.keys())
def test_conv2d_relu_is_relu_of_conv2d_to_the_bit(rng, geom, dtype):
    # forward and every input gradient, on every branch of the conv lowering, and
    # with NaN, infinities and -0 in the input and in the incoming gradient
    n, cin, cout, h, w, k, s, d, p = geom
    args = dict(stride=s, dilation=d, padding=p)
    for special in (False, True):
        x, kern, b = (T.Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                      for shape in ((n, cin, h, w), (cout, cin, k, k), (1, cout, 1, 1)))
        g = rng.normal(size=T.conv2d(x, kern, b, **args).shape).astype(dtype)
        if special:
            for a in (x.data, g):
                a.reshape(-1)[rng.choice(a.size, 4, replace=False)] = [np.nan, np.inf,
                                                                       -np.inf, -0.0]
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf * 0
            fused = _output_and_grads(lambda: T.conv2d_relu(x, kern, b, **args), [x, kern, b], g)
            unfused = _output_and_grads(lambda: T.relu(T.conv2d(x, kern, b, **args)),
                                        [x, kern, b], g)
        for got, want in zip(fused, unfused, strict=True):
            assert got.dtype == dtype and got.tobytes() == want.tobytes(), special


def test_conv2d_relu_gradients_finite_diff(rng):
    x = T.Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
    k = T.Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.3, requires_grad=True)
    b = T.Tensor(rng.normal(size=(1, 4, 1, 1)), requires_grad=True)
    up = T.Tensor(rng.normal(size=(2, 4, 8, 8)))
    out = T.conv2d_relu(x, k, b, padding=1)
    assert 0.2 < np.mean(out.data > 0) < 0.8  # both sides of the kink are checked
    check_grads(lambda: T.tsum(T.mul(T.conv2d_relu(x, k, b, padding=1), up)), [x, k, b])


def test_conv2d_relu_tapes_one_node_and_keeps_no_pre_relu_gradient(rng):
    x = T.Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
    k = T.Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    b = zero_bias(4, np.float32)
    assert T.conv2d_relu(x, k, b, padding=1).node is None  # no tape, no node
    for op, nodes in ((T.conv2d_relu, 2), (lambda *a, **kw: T.relu(T.conv2d(*a, **kw)), 3)):
        with T.Tape() as tape:
            h = op(x, k, b, padding=1)
            loss = T.tsum(h)
        assert len(tape.nodes) == nodes
        T.backward(loss, tape)
        held = [node.grad for node, _ in tape.nodes]
        # the last two holders keep the output's and the loss's gradients, and no other
        assert [a is b for a, b in zip(held[-2:], (h.grad, loss.grad))] == [True, True]
        assert np.array_equal(h.grad, np.ones_like(h.data))
    # unfused, the conv output's holder keeps the masked gradient until the tape goes
    assert np.array_equal(held[0], h.data > 0)


def test_tape_frees_values_that_no_backward_reads(rng):
    # a conv output before its relu and an add output are read by no backward:
    # once the caller drops them the arrays die, reference counting alone
    # (no collector), and backward gives the same gradients
    x = T.Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
    c = T.Tensor(rng.normal(size=(2, 4, 8, 8)).astype(np.float32))
    k = T.Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    b = T.Tensor(rng.normal(size=(1, 4, 1, 1)).astype(np.float32), requires_grad=True)

    def grads(keep):
        k.grad = b.grad = None
        with T.Tape() as tape:
            pre = T.conv2d(x, k, b, padding=1)
            s = T.add(T.relu(pre), c)
            loss = T.tsum(T.relu(s))
            if not keep:
                refs = [weakref.ref(_base(t.data)) for t in (pre, s)]
                del pre, s
                assert [r() for r in refs] == [None, None]
        T.backward(loss, tape)
        if keep:  # a taped output's gradient reads through its Tensor
            assert s.grad is s.node.grad and np.array_equal(s.grad, s.data > 0)
        return [k.grad, b.grad] + [node.grad for node, _ in tape.nodes]

    gc.disable()
    try:
        dropped = grads(keep=False)
    finally:
        gc.enable()
    for got, want in zip(dropped, grads(keep=True), strict=True):
        assert np.array_equal(got, want)


def test_backward_frees_saved_arrays_once_their_closures_ran(rng):
    # each relu output is read by its own backward and by the next conv's: it
    # lives through the forward pass and dies, reference counting alone (no
    # collector), once backward has run both; the gradients equal those of a
    # run that pins every closure
    x = T.Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
    ks = [T.Tensor(rng.normal(size=(4, c, 3, 3)).astype(np.float32), requires_grad=True)
          for c in (3, 4)]

    def grads(pin):
        for k in ks:
            k.grad = None
        with T.Tape() as tape:
            h1 = T.relu(T.conv2d(x, ks[0], zero_bias(4, np.float32), padding=1))
            h2 = T.relu(T.conv2d(h1, ks[1], zero_bias(4, np.float32), padding=1))
            loss = T.tsum(h2)
        refs = [weakref.ref(_base(t.data)) for t in (h1, h2)]
        del h1, h2
        pinned = list(tape.nodes) if pin else []
        n = len(tape.nodes)
        assert all(r() is not None for r in refs)
        T.backward(loss, tape)
        assert len(tape.nodes) == n
        assert [r() is not None for r in refs] == [pin, pin]
        del pinned
        return [k.grad for k in ks] + [node.grad for node, _ in tape.nodes]

    gc.disable()
    try:
        freed = grads(pin=False)
    finally:
        gc.enable()
    for got, want in zip(freed, grads(pin=True), strict=True):
        assert np.array_equal(got, want)


def test_backward_twice_on_one_tape_raises(rng):
    x = T.Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
    with T.Tape() as tape:
        loss = T.tsum(T.mul(x, x))
    T.backward(loss, tape)

    def grads():  # the loss's gradient is its holder's, on the tape
        return [x.grad] + [node.grad for node, _ in tape.nodes]

    first = [g.copy() for g in grads()]
    with pytest.raises(InvalidState, match="backward already ran"):
        T.backward(loss, tape)
    assert loss.grad.item() == 1.0
    for got, want in zip(grads(), first, strict=True):
        assert np.array_equal(got, want)


def test_sigmoid_extremes_stable():
    x = t64([[-100.0, 100.0], [-1000.0, 1000.0]])
    out = T.sigmoid(x)
    assert np.all(np.isfinite(out.data))
    assert np.all((out.data >= 0) & (out.data <= 1))


def test_activation_grads(rng):
    x = T.Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
    check_grads(lambda: T.tsum(T.mul(T.sigmoid(x), T.sigmoid(x))), [x])


def test_dense_identity():
    x = uniform((2, 3, 1, 1), -1, 1, seed=0, dtype=np.float64)
    w = T.Tensor(np.eye(3).reshape(3, 3, 1, 1))
    out = T.dense(x, w, zero_bias(3))
    assert np.allclose(out.data, x.data)


def test_dense_hand_arithmetic():
    x = T.Tensor(np.array([1.0, 2.0]).reshape(1, 2, 1, 1))
    w = T.Tensor(np.array([[1.0, 1.0], [1.0, -1.0]]).reshape(2, 2, 1, 1))
    out = T.dense(x, w, zero_bias(2))
    assert np.allclose(out.data.reshape(-1), [3.0, -1.0])


def test_dense_matches_matrix_oracle(rng):
    x = T.Tensor(rng.normal(size=(2, 8, 1, 1)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(5, 8, 1, 1)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(1, 5, 1, 1)), requires_grad=True)
    out = T.dense(x, w, b)
    oracle = x.data.reshape(2, 8) @ w.data.reshape(5, 8).T + b.data.reshape(1, 5)
    assert np.allclose(out.data.reshape(2, 5), oracle)
    check_grads(lambda: T.tsum(T.mul(T.dense(x, w, b), T.dense(x, w, b))), [x, w, b])


def test_dense_rejects_spatial():
    with pytest.raises(ShapeMismatch):
        T.dense(T.Tensor(np.zeros((1, 3, 2, 2))), T.Tensor(np.zeros((3, 3, 1, 1))), zero_bias(3))


def test_dense_channel_and_bias_mismatch():
    x = T.Tensor(np.zeros((2, 3, 1, 1)))
    with pytest.raises(ShapeMismatch, match="dense weight expects 4 channels, input has 3"):
        T.dense(x, T.Tensor(np.zeros((5, 4, 1, 1))), zero_bias(5))
    with pytest.raises(ShapeMismatch, match=r"bias must be \(1,5,1,1\)"):
        T.dense(x, T.Tensor(np.zeros((5, 3, 1, 1))), zero_bias(3))


def test_concat_shapes_and_roundtrip(rng):
    a = T.Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
    out = T.concat_channels([a, b])
    assert out.shape == (1, 5, 4, 4)
    assert np.array_equal(out.data[:, :2], a.data)
    assert np.array_equal(out.data[:, 2:], b.data)
    single = T.concat_channels([a])
    assert np.array_equal(single.data, a.data)
    check_grads(lambda: T.tsum(T.mul(T.concat_channels([a, b]),
                                     T.concat_channels([a, b]))), [a, b])


def test_concat_spatial_mismatch():
    with pytest.raises(ShapeMismatch):
        T.concat_channels([T.Tensor(np.zeros((1, 2, 4, 4))), T.Tensor(np.zeros((1, 2, 4, 5)))])


def test_concat_of_nothing():
    with pytest.raises(InvalidArgument, match="at least one tensor"):
        T.concat_channels([])


# ---------------------------------------------------------------------------
# backward semantics

def test_backward_sum_gives_ones(rng):
    x = T.Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    with T.Tape() as tape:
        T.backward(T.tsum(x), tape)
    assert np.all(x.grad == 1.0)


def test_backward_quadratic(rng):
    x = T.Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
    with T.Tape() as tape:
        loss = T.scale(T.tsum(T.mul(x, x)), 0.5)
        T.backward(loss, tape)
    assert np.allclose(x.grad, x.data)


def test_backward_accumulates(rng):
    x = T.Tensor(rng.normal(size=(1, 1, 2, 2)), requires_grad=True)
    for _ in range(2):
        with T.Tape() as tape:
            T.backward(T.tsum(x), tape)
    assert np.all(x.grad == 2.0)


# Backward hands each gradient over uncopied, so holders share arrays; a
# second gradient must make a new sum, never add into a shared array.

def _fd_grad(make_loss, t, h=1e-6):
    """d(make_loss())/d(t) by central differences at every element of t (f64)."""
    coords = range(t.data.size)
    return np.reshape(central_differences(lambda: make_loss().item(), t, coords, h), t.shape)


def _leaves(rng, *shapes):
    return [T.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


def test_add_and_concat_hand_their_gradient_over(rng):
    a, b, z = _leaves(rng, (1, 2, 3, 3), (1, 2, 3, 3), (1, 1, 3, 3))
    u, v = rng.normal(size=(1, 3, 3, 3)), rng.normal(size=(1, 2, 3, 3))

    def graph():
        s = T.add(a, b)
        tail = T.tsum(T.mul(s, T.Tensor(v)))  # s's second gradient arrives after concat's
        c = T.concat_channels([s, z])
        return s, c, T.add(tail, T.tsum(T.mul(c, T.Tensor(u))))

    with T.Tape() as tape:
        s, c, loss = graph()
        T.backward(loss, tape)
    assert np.shares_memory(a.grad, s.grad) and np.shares_memory(b.grad, s.grad)
    assert np.shares_memory(z.grad, c.grad)  # a view of the concat output's gradient
    assert np.array_equal(c.grad, u)  # s's second gradient left the slice it got alone
    assert np.array_equal(s.grad, u[:, :2] + v)
    for t in (a, b, z):
        assert np.allclose(t.grad, _fd_grad(lambda: graph()[2], t), rtol=1e-7, atol=1e-9)


def test_second_gradient_is_a_new_sum_and_the_shared_array_keeps_its_value(rng):
    # x reaches add first, so its first gradient is the array y's gradient is too
    x, y, w = _leaves(rng, (1, 2, 3, 3), (1, 2, 3, 3), (1, 2, 3, 3))
    u = rng.normal(size=(1, 2, 3, 3))

    def graph():
        m = T.mul(x, w)
        s = T.add(x, y)
        return s, T.add(T.tsum(T.mul(s, T.Tensor(u))), T.tsum(T.mul(m, m)))

    with T.Tape() as tape:
        s, loss = graph()
        T.backward(loss, tape)
    assert np.shares_memory(y.grad, s.grad) and not np.shares_memory(x.grad, y.grad)
    assert np.array_equal(y.grad, u)
    assert np.array_equal(x.grad, u + 2 * (x.data * w.data) * w.data)
    for t in (x, y, w):
        assert np.allclose(t.grad, _fd_grad(lambda: graph()[1], t), rtol=1e-7, atol=1e-9)


def test_read_only_broadcast_gradient_accumulates(rng):
    # global_avg_pool's backward runs first and hands x a read-only broadcast view
    x, w = _leaves(rng, (2, 3, 4, 4), (2, 3, 4, 4))
    u = rng.normal(size=(2, 3, 1, 1))

    def loss():
        m = T.mul(x, w)
        return T.add(T.tsum(m), T.tsum(T.mul(T.global_avg_pool(x), T.Tensor(u))))

    with T.Tape() as tape:
        T.backward(loss(), tape)
    assert np.allclose(x.grad, w.data + u / 16, rtol=1e-12, atol=0)
    assert np.allclose(x.grad, _fd_grad(loss, x), rtol=1e-7, atol=1e-9)
    x.grad = None
    with T.Tape() as tape:
        T.backward(T.tsum(T.global_avg_pool(x)), tape)
    assert not x.grad.flags.writeable  # as handed over


def test_backward_rejects_nonscalar():
    x = T.Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
    with T.Tape() as tape:
        out = T.scale(x, 2.0)
        with pytest.raises(InvalidArgument):
            T.backward(out, tape)


def test_op_output_requires_grad_only_on_a_live_tape(rng):
    x = T.Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
    const = T.Tensor(rng.normal(size=(1, 2, 3, 3)))
    with T.Tape() as tape:
        y = T.mul(x, const)
        z = T.relu(const)
    assert y.requires_grad and len(tape.nodes) == 1 and tape.nodes[0][0] is y.node
    assert not z.requires_grad
    assert not T.mul(x, const).requires_grad  # no tape is live


def test_determinism_repeated_op(rng):
    x = T.Tensor(rng.normal(size=(2, 3, 8, 8)))
    k = T.Tensor(rng.normal(size=(4, 3, 3, 3)))
    bias = zero_bias(4)
    a = T.conv2d(x, k, bias, padding=1)
    b = T.conv2d(x, k, bias, padding=1)
    assert np.array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# FTEN

def test_ften_roundtrip_f32_f64(tmp_path, rng):
    for dtype in (np.float32, np.float64):
        a = rng.normal(size=(2, 3, 4, 5)).astype(dtype)
        path = tmp_path / f"t_{dtype.__name__}.ften"
        T.write_ften(path, a)
        back = T.read_ften(path)
        assert back.dtype == dtype
        assert np.array_equal(back, a)


def test_ften_header_layout(tmp_path):
    a = np.zeros((1, 2, 3, 4), dtype=np.float32)
    buf = io.BytesIO()
    T.write_ften(buf, a)
    blob = buf.getvalue()
    assert blob[:4] == b"FTEN"
    assert blob[4] == 1          # version
    assert blob[5] == 0          # f32
    assert blob[6] == 4          # rank
    assert blob[7:12] == b"\x00" * 5
    import struct
    assert struct.unpack("<4Q", blob[12:44]) == (1, 2, 3, 4)
    assert len(blob) == 44 + 24 * 4


def test_ften_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ften"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(InvalidArgument):
        T.read_ften(p)


def test_ften_rejects_extents_that_overflow(tmp_path):
    # 2**62 * 4 elements wraps to 0 in int64 arithmetic
    p = tmp_path / "huge.ften"
    p.write_bytes(b"FTEN" + struct.pack("<BBB5x", 1, 0, 2) + struct.pack("<2Q", 2 ** 62, 4))
    with pytest.raises(InvalidArgument):
        T.read_ften(p)


@pytest.mark.parametrize("dtype", [np.int32, np.float16, np.bool_])
def test_ften_writes_floats_only(tmp_path, dtype):
    path = tmp_path / "int.ften"
    with pytest.raises(InvalidArgument, match="f32/f64 only"):
        T.write_ften(path, np.zeros((1, 1, 2, 2), dtype))
    assert not path.exists()  # refused before the path is opened


def test_ften_record_shorter_than_its_stated_size():
    # a file that shrinks during the read: the header fits the size given, the payload is short
    buf = io.BytesIO()
    T.write_ften(buf, np.ones((1, 1, 2, 2), np.float32))
    blob = buf.getvalue()
    with pytest.raises(InvalidArgument, match="truncated FTEN payload"):
        T.read_ften_record(io.BytesIO(blob[:-1]), len(blob))
    assert T.read_ften_record(io.BytesIO(blob), len(blob)).tolist() == [[[[1.0, 1.0], [1.0, 1.0]]]]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ften_damaged_bytes_read_back_or_raise(data):
    # a read raises or returns the array the bytes hold: a truncated or extended record
    # raises, and a changed one reads back as written or writes back byte for byte
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    shape = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    a = np.random.default_rng(data.draw(st.integers(0, 99))).normal(size=shape).astype(dtype)
    buf = io.BytesIO()
    T.write_ften(buf, a)
    blob = bytearray(buf.getvalue())
    damage = data.draw(st.sampled_from(["truncate", "change", "extend"]))
    if damage == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    elif damage == "extend":
        blob += data.draw(st.binary(min_size=1, max_size=16))
    else:
        for _ in range(data.draw(st.integers(1, 3))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.ften"
        path.write_bytes(blob)
        try:
            got = T.read_ften(path)
        except FudsaError:
            return
    assert damage == "change"
    again = io.BytesIO()
    T.write_ften(again, got)
    assert again.getvalue() == bytes(blob[:7] + bytes(5) + blob[12:])  # padding is not read
