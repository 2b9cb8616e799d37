import io
import struct

import numpy as np
import pytest

from fudsa import tensor as T
from fudsa.errors import InvalidArgument, InvalidShape, ShapeMismatch

from conftest import check_grads


def t64(a, requires_grad=False):
    return T.from_array(np.asarray(a, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# creation

def test_zeros():
    t = T.zeros((1, 1, 2, 2))
    assert t.shape == (1, 1, 2, 2)
    assert np.all(t.data == 0.0)


def test_constant_count():
    t = T.constant((1, 3, 4, 4), 1.0)
    assert t.data.sum() == 48.0


def test_uniform_deterministic():
    a = T.uniform((1, 1, 8, 8), -1, 1, seed=7)
    b = T.uniform((1, 1, 8, 8), -1, 1, seed=7)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, T.uniform((1, 1, 8, 8), -1, 1, seed=8).data)


def test_uniform_bad_bounds():
    with pytest.raises(InvalidArgument):
        T.uniform((1, 1, 2, 2), 1, 1, seed=0)


def test_he_normal_variance():
    fan_in = 3 * 3 * 8
    t = T.he_normal((64, 8, 30, 30), fan_in, seed=3)
    assert abs(t.data.var() - 2.0 / fan_in) < 0.1 * 2.0 / fan_in


def test_bad_extents():
    with pytest.raises(InvalidShape):
        T.zeros((1, 0, 2, 2))
    with pytest.raises(InvalidShape):
        T.Tensor(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# elementwise

def test_add_identity():
    a = t64([[1, 2], [3, 4]])
    out = T.add(a, T.zeros((1, 1, 2, 2), dtype=np.float64))
    assert np.array_equal(out.data[0, 0], [[1, 2], [3, 4]])


def test_mul_channel_broadcast():
    a = T.uniform((1, 3, 4, 4), -1, 1, seed=0)
    b = T.from_array(np.array([1.0, 2.0, 3.0], dtype=np.float32).reshape(1, 3, 1, 1))
    out = T.mul(a, b)
    assert out.shape == (1, 3, 4, 4)
    for c in range(3):
        assert np.allclose(out.data[0, c], a.data[0, c] * (c + 1))


def test_ewise_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        T.add(T.zeros((1, 2, 4, 4)), T.zeros((1, 3, 4, 4)))


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
    x = T.zeros((1, 1, 4, 4))
    k = T.zeros((1, 1, 2, 2))
    out = T.conv2d(x, k, stride=2)
    assert out.shape == (1, 1, 2, 2)


def test_conv_sum_of_ones():
    x = T.constant((1, 1, 3, 3), 1.0)
    k = T.constant((1, 1, 3, 3), 1.0)
    out = T.conv2d(x, k)
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
    check_grads(lambda: T.tsum(T.conv2d(x, k, stride=2)), [x, k])


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
                    x = T.zeros((1, 1, h, h))
                    kk = T.zeros((1, 1, k, k))
                    if hout < 1:
                        with pytest.raises(ShapeMismatch):
                            T.conv2d(x, kk, stride=s, dilation=d, padding=p)
                    else:
                        out = T.conv2d(x, kk, stride=s, dilation=d, padding=p)
                        assert out.shape == (1, 1, hout, hout), (s, d, p, k)


def test_conv_channel_mismatch():
    with pytest.raises(ShapeMismatch):
        T.conv2d(T.zeros((1, 2, 4, 4)), T.zeros((1, 3, 3, 3)))


def test_conv_output_too_small():
    with pytest.raises(ShapeMismatch):
        T.conv2d(T.zeros((1, 1, 2, 2)), T.zeros((1, 1, 3, 3)))


# ---------------------------------------------------------------------------
# pooling

def test_max_pool_window():
    x = t64([[1, 2], [3, 4]])
    assert T.max_pool2(x).item() == 4.0


def test_max_pool_tie_break_first_row_major():
    x = T.constant((1, 1, 4, 4), 5.0, dtype=np.float64, requires_grad=True)
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


def test_max_pool_odd_extent():
    with pytest.raises(ShapeMismatch):
        T.max_pool2(T.zeros((1, 1, 3, 4)))


def test_global_avg_pool():
    x = t64([[1, 3], [5, 7]])
    assert T.global_avg_pool(x).item() == 4.0
    c = T.constant((2, 3, 5, 5), 2.5)
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

def test_upsample_nearest_replication():
    x = t64([[1, 2], [3, 4]])
    out = T.upsample(x, 2, mode="nearest")
    expected = [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
    assert np.array_equal(out.data[0, 0], expected)


def test_upsample_bilinear_constant():
    x = T.constant((1, 2, 3, 3), 7.5, dtype=np.float64)
    out = T.upsample(x, 2, mode="bilinear")
    assert out.shape == (1, 2, 6, 6)
    assert np.allclose(out.data, 7.5)


def test_upsample_bilinear_matches_pixel_oracle(rng):
    x = T.Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
    out = T.upsample(x, 2, mode="bilinear")
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
    check_grads(lambda: T.tsum(T.mul(T.upsample(x, 2, mode="bilinear"),
                                     T.upsample(x, 2, mode="bilinear"))), [x])


@pytest.mark.parametrize("mode", ["bilinear", "nearest"])
@pytest.mark.parametrize("factor", [2, 4, 8])
def test_upsample_commutes_with_1x1_conv(rng, mode, factor):
    # the decoder residuals project before upsampling on this identity
    x = T.Tensor(rng.normal(size=(2, 6, 3, 5)))
    k = T.Tensor(rng.normal(size=(4, 6, 1, 1)))
    b = T.Tensor(rng.normal(size=(1, 4, 1, 1)))
    first = T.upsample(T.conv2d(x, k, b), factor, mode=mode)
    second = T.conv2d(T.upsample(x, factor, mode=mode), k, b)
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
        T.upsample(T.zeros((1, 1, 2, 2)), 1)


# ---------------------------------------------------------------------------
# activations / dense / concat

def test_sigmoid_symmetry_point():
    assert T.sigmoid(T.zeros((1, 1, 1, 1))).item() == 0.5


def test_relu_definition():
    x = t64([[-3.0, 3.0], [0.0, 1.0]])
    out = T.relu(x)
    assert np.array_equal(out.data[0, 0], [[0, 3], [0, 1]])


def test_sigmoid_extremes_stable():
    x = t64([[-100.0, 100.0], [-1000.0, 1000.0]])
    out = T.sigmoid(x)
    assert np.all(np.isfinite(out.data))
    assert np.all((out.data >= 0) & (out.data <= 1))


def test_activation_grads(rng):
    x = T.Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
    check_grads(lambda: T.tsum(T.mul(T.sigmoid(x), T.sigmoid(x))), [x])


def test_dense_identity():
    x = T.uniform((2, 3, 1, 1), -1, 1, seed=0, dtype=np.float64)
    w = T.Tensor(np.eye(3).reshape(3, 3, 1, 1))
    out = T.dense(x, w)
    assert np.allclose(out.data, x.data)


def test_dense_hand_arithmetic():
    x = T.from_array(np.array([1.0, 2.0]).reshape(1, 2, 1, 1))
    w = T.from_array(np.array([[1.0, 1.0], [1.0, -1.0]]).reshape(2, 2, 1, 1))
    out = T.dense(x, w)
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
        T.dense(T.zeros((1, 3, 2, 2)), T.zeros((3, 3, 1, 1)))


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
        T.concat_channels([T.zeros((1, 2, 4, 4)), T.zeros((1, 2, 4, 5))])


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


def test_backward_rejects_nonscalar():
    x = T.zeros((1, 1, 2, 2), requires_grad=True)
    with T.Tape() as tape:
        out = T.scale(x, 2.0)
        with pytest.raises(InvalidArgument):
            T.backward(out, tape)


def test_determinism_repeated_op(rng):
    x = T.Tensor(rng.normal(size=(2, 3, 8, 8)))
    k = T.Tensor(rng.normal(size=(4, 3, 3, 3)))
    a = T.conv2d(x, k, padding=1)
    b = T.conv2d(x, k, padding=1)
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
