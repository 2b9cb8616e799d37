"""Dense rank-4 tensor engine with tape-based reverse-mode autodiff.

Every value in the network is a ``Tensor`` of shape (N, C, H, W).  Ops are
plain functions; when a ``Tape`` is active they append a backward closure to
it.  ``backward(loss, tape)`` replays the tape in reverse and accumulates
d(loss)/d(t) into ``t.grad`` for every tracked tensor.

Numerics are float32 by default; pass dtype=np.float64 for tight gradient
checks.
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

from .errors import InvalidArgument, InvalidShape, ShapeMismatch

__all__ = [
    "Tensor", "Tape", "backward",
    "zeros", "constant", "uniform", "he_normal", "from_array",
    "add", "sub", "mul", "div", "scale", "add_scalar", "rsub_scalar", "power",
    "conv2d", "max_pool2", "global_avg_pool", "upsample", "relu", "sigmoid",
    "dense", "concat_channels", "tsum",
    "write_ften", "read_ften",
]

_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of forward ops; reverse replay yields gradients.

    Use as a context manager around a forward pass.  Tapes are single
    threaded; one tape per training step.
    """

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """Rank-4 array (N, C, H, W) with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_track")

    def __init__(self, data, requires_grad=False, _track=None):
        data = np.asarray(data)
        if data.ndim != 4:
            raise InvalidShape(f"tensors are rank-4, got shape {data.shape}")
        if any(e < 1 for e in data.shape):
            raise InvalidShape(f"all extents must be >= 1, got {data.shape}")
        self.data = data
        self.requires_grad = requires_grad
        self.grad = None
        self._track = requires_grad if _track is None else _track

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise InvalidArgument("item() needs a scalar (1,1,1,1) tensor")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    # Convenience operators used by the loss code.  Scalars promote to
    # constants; tensor-tensor forms follow the ewise broadcast rules.
    def __add__(self, other):
        return add_scalar(self, other) if _isnum(other) else add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add_scalar(self, -other) if _isnum(other) else sub(self, other)

    def __rsub__(self, other):
        return rsub_scalar(self, other)

    def __mul__(self, other):
        return scale(self, other) if _isnum(other) else mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return scale(self, 1.0 / other) if _isnum(other) else div(self, other)


def _isnum(x):
    return isinstance(x, (int, float, np.floating, np.integer))


def _accum(t: Tensor, g: np.ndarray):
    if not t._track:
        return
    if t.grad is None:
        # one pass instead of zero-filling and adding; 0 + g, so -0 becomes +0 as before
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


def _make_out(data, *inputs):
    """Wrap op output; tracked iff a tape is live and some input is tracked."""
    tracked = _active_tape() is not None and any(t._track for t in inputs)
    return Tensor(data, _track=tracked)


def _record(out: Tensor, fn):
    if out._track:
        _active_tape().nodes.append((out, fn))


def backward(loss: Tensor, tape: Tape):
    """Accumulate d(loss)/d(t) into .grad for every tracked tensor on the tape."""
    if loss.shape != (1, 1, 1, 1):
        raise InvalidArgument(f"backward needs a scalar (1,1,1,1) loss, got {loss.shape}")
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad += 1.0
    for out, fn in reversed(tape.nodes):
        if out.grad is not None:
            fn(out.grad)


# ---------------------------------------------------------------------------
# creation

def _check_shape(shape):
    shape = tuple(int(e) for e in shape)
    if len(shape) != 4:
        raise InvalidShape(f"rank-4 shape required, got {shape}")
    if any(e < 1 for e in shape):
        raise InvalidShape(f"extents must be >= 1, got {shape}")
    return shape


def zeros(shape, dtype=np.float32, requires_grad=False):
    return Tensor(np.zeros(_check_shape(shape), dtype=dtype), requires_grad=requires_grad)


def constant(shape, value, dtype=np.float32, requires_grad=False):
    return Tensor(np.full(_check_shape(shape), value, dtype=dtype), requires_grad=requires_grad)


def uniform(shape, lo, hi, seed, dtype=np.float32, requires_grad=False):
    if not lo < hi:
        raise InvalidArgument(f"uniform needs lo < hi, got [{lo}, {hi})")
    rng = np.random.default_rng(seed) if _isnum(seed) else seed
    data = rng.uniform(lo, hi, _check_shape(shape)).astype(dtype)
    return Tensor(data, requires_grad=requires_grad)


def he_normal(shape, fan_in, seed, dtype=np.float32, requires_grad=False):
    """Normal init with variance 2/fan_in (fan_in = Cin*kH*kW of the kernel)."""
    if fan_in < 1:
        raise InvalidArgument(f"fan_in must be >= 1, got {fan_in}")
    rng = np.random.default_rng(seed) if _isnum(seed) else seed
    std = np.sqrt(2.0 / fan_in)
    data = (rng.standard_normal(_check_shape(shape)) * std).astype(dtype)
    return Tensor(data, requires_grad=requires_grad)


def from_array(a, dtype=None, requires_grad=False):
    a = np.asarray(a)
    if dtype is not None:
        a = a.astype(dtype)
    while a.ndim < 4:
        a = a[np.newaxis]
    return Tensor(a, requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# elementwise

def _bcast_check(a: Tensor, b: Tensor):
    """b may have extent 1 where a is larger; returns axes summed in backward."""
    axes = []
    for i, (ea, eb) in enumerate(zip(a.shape, b.shape)):
        if eb == ea:
            continue
        if eb == 1:
            axes.append(i)
        else:
            raise ShapeMismatch(f"cannot broadcast {b.shape} against {a.shape}")
    return tuple(axes)


def _reduce_to(g, axes):
    return g.sum(axis=axes, keepdims=True) if axes else g


def add(a: Tensor, b: Tensor) -> Tensor:
    axes = _bcast_check(a, b)
    out = _make_out(a.data + b.data, a, b)

    def bwd(g):
        _accum(a, g)
        _accum(b, _reduce_to(g, axes))

    _record(out, bwd)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    axes = _bcast_check(a, b)
    out = _make_out(a.data - b.data, a, b)

    def bwd(g):
        _accum(a, g)
        _accum(b, -_reduce_to(g, axes))

    _record(out, bwd)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    axes = _bcast_check(a, b)
    out = _make_out(a.data * b.data, a, b)

    def bwd(g):
        _accum(a, g * b.data)
        _accum(b, _reduce_to(g * a.data, axes))

    _record(out, bwd)
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"div needs equal shapes, got {a.shape} vs {b.shape}")
    out = _make_out(a.data / b.data, a, b)

    def bwd(g):
        _accum(a, g / b.data)
        _accum(b, -g * a.data / (b.data * b.data))

    _record(out, bwd)
    return out


def scale(a: Tensor, c) -> Tensor:
    c = float(c)
    out = _make_out(a.data * c, a)
    _record(out, lambda g: _accum(a, g * c))
    return out


def add_scalar(a: Tensor, c) -> Tensor:
    out = _make_out(a.data + float(c), a)
    _record(out, lambda g: _accum(a, g))
    return out


def rsub_scalar(a: Tensor, c) -> Tensor:
    """c - a."""
    out = _make_out(float(c) - a.data, a)
    _record(out, lambda g: _accum(a, -g))
    return out


def power(a: Tensor, exponent) -> Tensor:
    """Elementwise a**e for a >= 0; subgradient 0 where a == 0 and e < 1."""
    e = float(exponent)
    out = _make_out(np.power(a.data, e), a)

    def bwd(g):
        base = a.data
        d = np.zeros_like(base)
        nz = base > 0
        d[nz] = e * np.power(base[nz], e - 1.0)
        if e >= 1.0:
            d[~nz] = 0.0 if e > 1.0 else e
        _accum(a, g * d)

    _record(out, bwd)
    return out


def tsum(a: Tensor) -> Tensor:
    """Sum of all elements, as a (1,1,1,1) tensor."""
    out = _make_out(a.data.sum().reshape(1, 1, 1, 1), a)
    _record(out, lambda g: _accum(a, np.broadcast_to(g, a.shape).copy()))
    return out


# ---------------------------------------------------------------------------
# convolution and pooling

def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           stride: int = 1, dilation: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation with zero padding; kernel is (Cout, Cin, kH, kW).

    bias, when given, is a (1, Cout, 1, 1) tensor.
    """
    n, cin, h, w = x.shape
    cout, cin_k, kh, kw = kernel.shape
    if cin != cin_k:
        raise ShapeMismatch(f"input has {cin} channels, kernel expects {cin_k}")
    s, d, p = int(stride), int(dilation), int(padding)
    hout = (h + 2 * p - d * (kh - 1) - 1) // s + 1
    wout = (w + 2 * p - d * (kw - 1) - 1) // s + 1
    if hout < 1 or wout < 1:
        raise ShapeMismatch(
            f"conv output extent < 1 for input {h}x{w}, k={kh}x{kw}, s={s}, d={d}, p={p}")
    if bias is not None and bias.shape != (1, cout, 1, 1):
        raise ShapeMismatch(f"bias must be (1,{cout},1,1), got {bias.shape}")

    # Lowered as in cuDNN: one (Cout, K) x (K, N*Hout*Wout) GEMM for the
    # whole batch, K = Cin*kH*kW.  The lowered matrix is 9x the input for a
    # 3x3 kernel, so backward rebuilds it from x instead of keeping it alive.
    geom = (kh, kw, s, d, p, hout, wout)
    w2 = kernel.data.reshape(cout, -1)
    out = (w2 @ _im2col(x.data, *geom)).reshape(cout, n, hout, wout).transpose(1, 0, 2, 3)
    if bias is not None:
        out += bias.data

    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    res = _make_out(out, *inputs)

    def bwd(g):
        # out.grad is usually channel-major already, which made the unscaled
        # g2 a view.  Building the lowering before the rescaled copy, and
        # dropping the copy before the scatter, keeps peak memory where it was.
        cols = _im2col(x.data, *geom) if kernel._track else None
        g2, unscale = _scaled(g.transpose(1, 0, 2, 3))
        g2 = g2.reshape(cout, -1)
        if bias is not None:
            _accum(bias, g2.sum(axis=1).reshape(1, cout, 1, 1) * unscale)
        if kernel._track:
            # (K, P) @ (P, Cout) measured about twice as fast as (Cout, P) @ (P, K)
            _accum(kernel, (cols @ g2.T).T.reshape(kernel.shape) * unscale)
            del cols
        if x._track:
            gx = w2.T @ g2
            del g2
            gx = _col2im(gx, x.shape, *geom)
            gx *= unscale
            _accum(x, gx)

    _record(res, bwd)
    return res


def _scaled(g):
    """C-contiguous copy of g times 2**k, and 2**-k to undo it.

    Deep-supervision gradients shrink into the subnormal range, where
    OpenBLAS GEMMs run about 30x slower.  k puts max|g| just below 2**64.
    Scaling by a power of two is exact while values stay normal, so a
    gradient whose products and sums did not underflow is bit-identical to
    the unscaled one, and one that did underflow comes out more accurate.
    k is clamped to 0..126, so both factors are normal float32 numbers,
    and is 0 when g is all zero or holds a NaN or an infinity.
    """
    top = max(float(g.max()), -float(g.min()))  # NaN if any NaN; no |g| temporary
    k = min(max(64 - math.frexp(top)[1], 0), 126) if 0 < top < math.inf else 0
    gs = np.empty(g.shape, dtype=g.dtype)
    np.multiply(g, 2.0 ** k, out=gs)  # copy and scale in one pass
    return gs, 2.0 ** -k


def _windows(kh, kw, s, d, hout, wout):
    """(i, j, row slice, col slice) of every kernel tap into the padded input."""
    for i in range(kh):
        for j in range(kw):
            yield (i, j, slice(i * d, i * d + (hout - 1) * s + 1, s),
                   slice(j * d, j * d + (wout - 1) * s + 1, s))


def _im2col(xd, kh, kw, s, d, p, hout, wout):
    """(N, Cin, H, W) -> (Cin*kH*kW, N*Hout*Wout), rows ordered like the kernel."""
    n, cin, h, w = xd.shape
    xt = xd.transpose(1, 0, 2, 3)
    if kh == kw == 1 and s == 1 and p == 0:
        return xt.reshape(cin, -1)
    if p:
        xp = np.zeros((cin, n, h + 2 * p, w + 2 * p), dtype=xd.dtype)
        xp[:, :, p: p + h, p: p + w] = xt
        xt = xp
    cols = np.empty((cin, kh, kw, n, hout, wout), dtype=xd.dtype)
    for i, j, rows, cs in _windows(kh, kw, s, d, hout, wout):
        cols[:, i, j] = xt[:, :, rows, cs]
    return cols.reshape(cin * kh * kw, -1)


def _col2im(gcols, shape, kh, kw, s, d, p, hout, wout):
    """Adjoint of _im2col: scatter-add (Cin*kH*kW, N*Hout*Wout) onto (N, Cin, H, W)."""
    n, cin, h, w = shape
    if kh == kw == 1 and s == 1 and p == 0:
        return gcols.reshape(cin, n, h, w).transpose(1, 0, 2, 3)
    gcols = gcols.reshape(cin, kh, kw, n, hout, wout)
    gxp = np.zeros((cin, n, h + 2 * p, w + 2 * p), dtype=gcols.dtype)
    for i, j, rows, cs in _windows(kh, kw, s, d, hout, wout):
        gxp[:, :, rows, cs] += gcols[:, i, j]
    return gxp[:, :, p: p + h, p: p + w].transpose(1, 0, 2, 3)


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; gradient goes to each window's first maximum."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeMismatch(f"max_pool2 needs even extents, got {h}x{w}")
    win = x.data.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)  # first occurrence, row-major within the window
    out = _make_out(np.take_along_axis(win, idx[..., None], axis=-1)[..., 0], x)

    def bwd(g):
        gwin = np.zeros((n, c, h // 2, w // 2, 4), dtype=g.dtype)
        np.put_along_axis(gwin, idx[..., None], g[..., None], axis=-1)
        gx = gwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        _accum(x, gx.reshape(n, c, h, w))

    _record(out, bwd)
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    out = _make_out(x.data.mean(axis=(2, 3), keepdims=True), x)

    def bwd(g):
        _accum(x, np.broadcast_to(g / (h * w), x.shape).copy())

    _record(out, bwd)
    return out


@functools.lru_cache(maxsize=32)
def _interp_matrix(n_out: int, n_in: int, dtype):
    """Bilinear weight matrix (n_out, n_in), align-corners-false, edge-clamped; read-only."""
    m = np.zeros((n_out, n_in), dtype=dtype)
    scale_ = n_in / n_out
    for o in range(n_out):
        src = (o + 0.5) * scale_ - 0.5
        i0 = int(np.floor(src))
        t = src - i0
        i0c = min(max(i0, 0), n_in - 1)
        i1c = min(max(i0 + 1, 0), n_in - 1)
        m[o, i0c] += 1.0 - t
        m[o, i1c] += t
    m.flags.writeable = False
    return m


def upsample(x: Tensor, factor: int, mode: str = "bilinear") -> Tensor:
    if not (isinstance(factor, (int, np.integer)) and factor >= 2):
        raise InvalidArgument(f"upsample factor must be an integer >= 2, got {factor}")
    if mode not in ("nearest", "bilinear"):
        raise InvalidArgument(f"unknown upsample mode {mode!r}")
    n, c, h, w = x.shape
    f = int(factor)

    if mode == "nearest":
        out = _make_out(x.data.repeat(f, axis=2).repeat(f, axis=3), x)

        def bwd(g):
            _accum(x, g.reshape(n, c, h, f, w, f).sum(axis=(3, 5)))

        _record(out, bwd)
        return out

    mh = _interp_matrix(f * h, h, x.data.dtype)
    mw = _interp_matrix(f * w, w, x.data.dtype)
    out = _make_out(np.matmul(np.matmul(mh, x.data), mw.T), x)

    def bwd(g):
        gs, unscale = _scaled(g)
        gx = np.matmul(np.matmul(mh.T, gs), mw)
        gx *= unscale
        _accum(x, gx)

    _record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# activations / dense / concat

def relu(x: Tensor) -> Tensor:
    out = _make_out(np.maximum(x.data, 0), x)
    _record(out, lambda g: _accum(x, g * (x.data > 0)))
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic; no overflow at extreme inputs."""
    z = x.data
    y = np.empty_like(z)
    pos = z >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    y[~pos] = ez / (1.0 + ez)
    out = _make_out(y, x)
    _record(out, lambda g: _accum(x, g * y * (1.0 - y)))
    return out


def dense(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Per-item linear map on (N, C, 1, 1); weight is (Cout, Cin, 1, 1)."""
    n, c, h, w = x.shape
    if h != 1 or w != 1:
        raise ShapeMismatch(f"dense needs 1x1 spatial extents, got {h}x{w}")
    cout, cin = weight.shape[0], weight.shape[1]
    if cin != c:
        raise ShapeMismatch(f"dense weight expects {cin} channels, input has {c}")
    x2 = x.data.reshape(n, c)
    w2 = weight.data.reshape(cout, cin)
    y = x2 @ w2.T
    if bias is not None:
        if bias.shape != (1, cout, 1, 1):
            raise ShapeMismatch(f"bias must be (1,{cout},1,1), got {bias.shape}")
        y = y + bias.data.reshape(1, cout)
    inputs = (x, weight) if bias is None else (x, weight, bias)
    out = _make_out(y.reshape(n, cout, 1, 1), *inputs)

    def bwd(g):
        g2 = g.reshape(n, cout)
        _accum(x, (g2 @ w2).reshape(n, c, 1, 1))
        _accum(weight, (g2.T @ x2).reshape(cout, cin, 1, 1))
        if bias is not None:
            _accum(bias, g2.sum(axis=0).reshape(1, cout, 1, 1))

    _record(out, bwd)
    return out


def concat_channels(xs) -> Tensor:
    xs = list(xs)
    if not xs:
        raise InvalidArgument("concat_channels needs at least one tensor")
    n, _, h, w = xs[0].shape
    for t in xs[1:]:
        if t.shape[0] != n or t.shape[2] != h or t.shape[3] != w:
            raise ShapeMismatch(
                f"concat operands must share N,H,W: {xs[0].shape} vs {t.shape}")
    out = _make_out(np.concatenate([t.data for t in xs], axis=1), *xs)
    offsets = np.cumsum([0] + [t.shape[1] for t in xs])

    def bwd(g):
        for t, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            _accum(t, g[:, lo:hi])

    _record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# FTEN serialization

_FTEN_MAGIC = b"FTEN"
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def write_ften(path, array):
    """Write an array (or Tensor) as a bit-exact FTEN record."""
    a = array.data if isinstance(array, Tensor) else np.asarray(array)
    if a.dtype == np.float32:
        code = 0
    elif a.dtype == np.float64:
        code = 1
    else:
        raise InvalidArgument(f"FTEN stores f32/f64 only, got {a.dtype}")
    blob = _FTEN_MAGIC + struct.pack("<BBB5x", 1, code, a.ndim)
    blob += struct.pack(f"<{a.ndim}Q", *a.shape)
    blob += np.ascontiguousarray(a, dtype=_DTYPES[code]).tobytes()
    if hasattr(path, "write"):
        path.write(blob)
    else:
        with open(path, "wb") as fh:
            fh.write(blob)


def read_ften(path):
    """Read an FTEN record into a numpy array."""
    if hasattr(path, "read"):
        blob = path.read()
    else:
        with open(path, "rb") as fh:
            blob = fh.read()
    arr, used = _parse_ften(blob)
    if used != len(blob):
        raise InvalidArgument("trailing bytes after FTEN payload")
    return arr.copy()


def _parse_ften(blob, offset=0):
    """Parse one FTEN record starting at offset; returns (array, end_offset).

    The array is a read-only view into ``blob``; callers copy what they keep.
    """
    if blob[offset:offset + 4] != _FTEN_MAGIC:
        raise InvalidArgument("bad FTEN magic")
    version, code, rank = struct.unpack_from("<BBB", blob, offset + 4)
    if version != 1:
        raise InvalidArgument(f"unsupported FTEN version {version}")
    if code not in _DTYPES:
        raise InvalidArgument(f"unknown FTEN dtype code {code}")
    pos = offset + 12
    shape = struct.unpack_from(f"<{rank}Q", blob, pos)
    pos += 8 * rank
    dt = _DTYPES[code]
    count = math.prod(shape)  # Python ints: huge extents cannot wrap around
    end = pos + count * dt.itemsize
    if end > len(blob):
        raise InvalidArgument("truncated FTEN payload")
    try:
        return np.frombuffer(blob, dtype=dt, count=count, offset=pos).reshape(shape), end
    except ValueError as exc:  # more than 64 axes, or an empty array with huge extents
        raise InvalidArgument(f"unsupported FTEN shape: {exc}") from exc
