"""Dense rank-4 tensor engine with tape-based reverse-mode autodiff.

Every value in the network is a ``Tensor`` of shape (N, C, H, W).  Ops are
plain functions; when a ``Tape`` is active and an input requires a gradient,
the output does too and the op appends a backward closure to the tape.
``backward(loss, tape)`` replays the tape in reverse and accumulates
d(loss)/d(t) into ``t.grad`` for every tensor that requires a gradient.
Gradients are handed over, not copied: ``t.grad`` may share memory with
another tensor's or be a read-only view, so callers must not write into it.

A backward closure keeps the arrays it reads and its inputs' gradient
holders, never an operand ``Tensor`` (a leaf is its own holder), so a value
that no backward reads, such as a conv output before its relu, is freed as
soon as the caller drops its ``Tensor``.  ``backward`` drops each closure
once it has run, so a saved array is freed as soon as the last closure that
reads it has run; a tape runs backward once.

Ops compute in their inputs' dtype: the model runs float32, and float64
arrays give tight gradient checks.
"""

from __future__ import annotations

import functools
import math
import os
import struct

import numpy as np

from .errors import InvalidArgument, InvalidShape, InvalidState, ShapeMismatch

__all__ = [
    "Tensor", "Tape", "backward",
    "add", "sub", "mul", "div", "scale", "add_scalar", "rsub_scalar", "power",
    "conv2d", "conv2d_relu", "max_pool2", "global_avg_pool", "upsample", "relu", "sigmoid",
    "dense", "concat_channels", "tsum",
    "write_ften", "read_ften", "read_ften_record",
]

_TAPE_STACK: list["Tape"] = []
_ZERO = np.frombuffer(bytes(8))  # read-only; every holder's f32 or f64 placeholder reads it


class Tape:
    """Ordered record of forward ops; reverse replay yields gradients.

    Use as a context manager around a forward pass; one tape per training
    step, single threaded.  ``nodes`` holds a ``(holder, backward)`` pair per
    taped op.  The holder, a Tensor over a zero-stride placeholder that holds
    no memory, keeps the output's gradient (which may be a view of another
    holder's) until the tape is dropped; the output's value lives only as
    long as its ``Tensor`` or a closure that reads it.  ``backward`` swaps
    each closure for ``_spent`` before it runs it, so it runs once per tape.
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
    """Rank-4 array (N, C, H, W) with an optional gradient buffer; a taped op
    output's is in ``node``, its holder on the tape.  ``Tensor(array)`` is the
    one way to make one, and ``t.grad = None`` clears its gradient."""

    __slots__ = ("data", "requires_grad", "node", "_grad")

    def __init__(self, data, requires_grad=False):
        data = np.asarray(data)
        if data.ndim != 4:
            raise InvalidShape(f"tensors are rank-4, got shape {data.shape}")
        if any(e < 1 for e in data.shape):
            raise InvalidShape(f"all extents must be >= 1, got {data.shape}")
        self.data = data
        self.requires_grad = requires_grad
        self.node = self._grad = None

    @property
    def grad(self):
        return (self.node or self)._grad

    @grad.setter
    def grad(self, g):
        (self.node or self)._grad = g

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


def _accum(t: Tensor, g: np.ndarray):
    """Hand ``g`` to ``t`` uncopied, shared or read-only as it may be; a second
    gradient makes a new sum, so no stored gradient is ever written into."""
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _op(data, bwd, *inputs):
    """Wrap an op's output.  If a tape is live and some input requires a gradient,
    so does the output, and the tape gets its holder and a backward that calls
    ``bwd(g, *holders)``, the inputs' holders in order."""
    tape = _active_tape()
    out = Tensor(data)
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.node = Tensor(np.ndarray(data.shape, data.dtype, _ZERO, strides=(0,) * 4), True)
        holders = [t.node or t for t in inputs]
        tape.nodes.append((out.node, lambda g: bwd(g, *holders)))
    return out


def _spent(g):
    """Stands on the tape for a backward closure that has run."""
    raise InvalidState("backward already ran on this tape")


def backward(loss: Tensor, tape: Tape):
    """Accumulate d(loss)/d(t) into .grad for every tensor on the tape that requires it.

    Each closure is dropped (replaced by ``_spent``) as it runs, freeing what
    no later closure reads; the holders keep their gradients.  A tape runs
    backward once: a second call raises ``InvalidState`` and changes no gradient.
    """
    if loss.shape != (1, 1, 1, 1):
        raise InvalidArgument(f"backward needs a scalar (1,1,1,1) loss, got {loss.shape}")
    nodes = tape.nodes
    if nodes and nodes[-1][1] is _spent:  # backward replaces the last entry first
        _spent(None)
    loss.grad = np.ones_like(loss.data) if loss.grad is None else loss.grad + 1.0
    for i in range(len(nodes) - 1, -1, -1):
        node, fn = nodes[i]
        nodes[i] = node, _spent
        if node.grad is not None:
            fn(node.grad)


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

    def bwd(g, a, b):
        _accum(a, g)
        _accum(b, _reduce_to(g, axes))

    return _op(a.data + b.data, bwd, a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    axes = _bcast_check(a, b)

    def bwd(g, a, b):
        _accum(a, g)
        _accum(b, -_reduce_to(g, axes))

    return _op(a.data - b.data, bwd, a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    axes = _bcast_check(a, b)
    ad, bd = a.data, b.data

    def bwd(g, a, b):
        _accum(a, g * bd)
        _accum(b, _reduce_to(g * ad, axes))

    return _op(ad * bd, bwd, a, b)


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"div needs equal shapes, got {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g, a, b):
        _accum(a, g / bd)
        _accum(b, -g * ad / (bd * bd))

    return _op(ad / bd, bwd, a, b)


def scale(a: Tensor, c) -> Tensor:
    c = float(c)
    return _op(a.data * c, lambda g, a: _accum(a, g * c), a)


def add_scalar(a: Tensor, c) -> Tensor:
    return _op(a.data + float(c), lambda g, a: _accum(a, g), a)


def rsub_scalar(a: Tensor, c) -> Tensor:
    """c - a."""
    return _op(float(c) - a.data, lambda g, a: _accum(a, -g), a)


def power(a: Tensor, exponent) -> Tensor:
    """Elementwise a**e for a >= 0; subgradient 0 where a == 0 and e < 1."""
    e, base = float(exponent), a.data

    def bwd(g, a):
        d = np.zeros_like(base)
        nz = base > 0
        d[nz] = e * np.power(base[nz], e - 1.0)
        if e >= 1.0:
            d[~nz] = 0.0 if e > 1.0 else e
        _accum(a, g * d)

    return _op(np.power(base, e), bwd, a)


def tsum(a: Tensor) -> Tensor:
    """Sum of all elements, as a (1,1,1,1) tensor."""
    return _op(a.data.sum().reshape(1, 1, 1, 1),
               lambda g, a: _accum(a, np.broadcast_to(g, a.shape)), a)


# ---------------------------------------------------------------------------
# convolution and pooling

# Bytes of gathered gradient columns per block in a conv's backward; a block
# holds one output channel or one window row at least.
_COLS_BLOCK = 5 * 2 ** 19  # 2.5 MiB

def conv2d(x: Tensor, kernel: Tensor, bias: Tensor,
           stride: int = 1, dilation: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation with zero padding plus a bias; kernel is
    (Cout, Cin, kH, kW) and bias (1, Cout, 1, 1)."""
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
    if bias.shape != (1, cout, 1, 1):
        raise ShapeMismatch(f"bias must be (1,{cout},1,1), got {bias.shape}")

    # Shifted slices over one zero-padded, channel-major frame (Cin, N*Hp*Wp +
    # span): kernel tap t reads it at flat offset o_t, and reads a gradient
    # frame that is preceded by span zeros at span - o_t.  Taps that read
    # only padding are dropped (see _conv_axis), and the frame keeps only the
    # padding that the other taps read.
    (ti, hp, bh, xh), (tj, wp, bw, xw) = (
        _conv_axis(h, hout, kh, s, d, p), _conv_axis(w, wout, kw, s, d, p))
    live = kernel.data[:, :, ti, tj]
    k3 = live.reshape(cout, cin, -1)
    offs = [(bh + i * d) * wp + bw + j * d
            for i in range(live.shape[2]) for j in range(live.shape[3])]
    span, frame, taps = offs[-1], (n, hp, wp), len(offs)
    # A window covers the whole frame and the result is cropped to the points
    # wanted: every s-th one for outputs, where x sits for inputs.  Where the
    # frame is over 1.25x the output (padded 3x3 convs on maps of 16 px and
    # below) the windows are cropped instead.  Windows that tile x (1x1
    # convs, the 2x2/2 match chains) are a space-to-depth copy, whose adjoint
    # is a copy back.
    every = np.s_[:, :, :, :]
    outs = np.s_[:, :, :(hout - 1) * s + 1:s, :(wout - 1) * s + 1:s]
    ins = np.s_[:, :, xh:xh + h, xw:xw + w]
    flat = hp * wp <= 1.25 * hout * wout
    (win_o, crop_o), (win_i, crop_i) = (
        ((every, outs), (every, ins)) if flat else ((outs, every), (ins, every)))
    tiles = kh == kw == s and d == 1 and p == 0
    xd = x.data

    def blocks():
        a = xd[:, :, :hout * s, :wout * s].reshape(n, cin, hout, s, wout, s)
        return a.transpose(1, 3, 5, 0, 2, 4).reshape(cin, s * s, n, hout, wout)

    def framed():
        xp = np.zeros((cin, n * hp * wp + span), dtype=xd.dtype)
        _window(xp, 0, frame, ins)[...] = xd.transpose(1, 0, 2, 3)
        return xp

    # The slices move the side with fewer channels.
    if flat and cin > cout and not tiles:
        y = k3.transpose(2, 0, 1).reshape(-1, cin) @ framed()
        out = _shift_sum(y.reshape(taps, cout, -1), offs, frame, win_o)
    else:
        cols = blocks() if tiles else _gather(framed(), offs, frame, win_o)
        out = k3.reshape(cout, -1) @ cols.reshape(cin * taps, -1)
        out = out.reshape(cout, *cols.shape[2:])
    out = np.ascontiguousarray(out[crop_o]).transpose(1, 0, 2, 3)
    out += bias.data

    def bwd(g, x, kernel, bias):
        if tiles:
            gp, unscale = _scaled(g.transpose(1, 0, 2, 3))
            gp = gp.reshape(cout, -1)
        else:
            gp = np.zeros((cout, span + n * hp * wp), dtype=g.dtype)
            unscale = _scaled(g.transpose(1, 0, 2, 3), out=_window(gp, span, frame, outs))[1]
        _accum(bias, gp.sum(axis=1).reshape(1, cout, 1, 1) * unscale)
        gk = gx = None
        if tiles or flat and cout > cin:
            # Gather x for the weight gradient; shifted adds, or for tiles a
            # copy back, for the input gradient.
            gw = gp if tiles else _window(gp, span, frame, win_o).reshape(cout, -1)
            if kernel.requires_grad:
                cols = blocks() if tiles else _gather(framed(), offs, frame, win_o)
                # (K, P) @ (P, Cout) measured about twice as fast as (Cout, P) @ (P, K)
                gk = (cols.reshape(cin * taps, -1) @ gw.T).T
                del cols
            if x.requires_grad and tiles:
                z = (k3.reshape(cout, -1).T @ gw).reshape(cin, s, s, n, hout, wout)
                gx = np.zeros((cin, n, h, w), dtype=z.dtype)
                for i, j in np.ndindex(s, s):
                    gx[:, :, i:hout * s:s, j:wout * s:s] = z[:, i, j]
            elif x.requires_grad:
                z = k3.transpose(2, 1, 0).reshape(-1, cout) @ gp
                del gp, gw
                gx = _shift_sum(z.reshape(taps, cin, -1), [span - o for o in offs], frame, win_i)
                del z
        else:
            # One gather of the gradient frame feeds both GEMMs where it fits
            # in _COLS_BLOCK bytes (2.5 MiB).  A larger one is gathered per
            # GEMM, in the fewest near-equal blocks that fit: output channels
            # for the weight gradient (each row is still one dot product over
            # all columns), and images, or rows of one image, for the input
            # gradient, whose columns are independent.
            back, shape = [span - o for o in offs], (n, hp, wp) if flat else (n, h, w)
            y0, x0 = (0, 0) if flat else (xh, xw)  # the window's corner in the frame

            def cols(c0=0, c1=cout, i0=0, i1=n, r0=0, r1=shape[1]):
                """Rows of channels c0..c1; columns of images i0..i1, window rows r0..r1."""
                win = np.s_[:, :, y0 + r0:y0 + r1, x0:x0 + shape[2]]
                return _gather(gp[c0:c1, i0 * hp * wp:], back, (i1 - i0, hp, wp),
                               win).reshape((c1 - c0) * taps, -1)

            chan = taps * math.prod(shape) * g.itemsize  # one output channel's columns
            whole = cols() if cout * chan <= _COLS_BLOCK else None
            if kernel.requires_grad:
                # x as (columns, Cin): the GEMM packs it again per block, fast from this layout
                xc = _window(framed(), 0, frame, win_i).transpose(1, 2, 3, 0).reshape(-1, cin)
                gk = np.empty((cout * taps, cin), dtype=g.dtype)
                for c0, c1 in _parts(cout, chan):
                    np.matmul(cols(c0, c1) if whole is None else whole, xc,
                              out=gk[c0 * taps:c1 * taps])
                del xc
                gk = gk.reshape(cout, taps, cin).transpose(0, 2, 1)
            if x.requires_grad:
                kt = k3.transpose(1, 0, 2).reshape(cin, -1)
                gx = np.empty((cin, *shape), dtype=g.dtype)
                row = cout * taps * shape[2] * g.itemsize  # one window row's columns
                for i0, i1, r0, r1 in _spans(n, shape[1], row):  # one where whole fits
                    np.matmul(kt, cols(i0=i0, i1=i1, r0=r0, r1=r1) if whole is None else whole,
                              out=gx[:, i0:i1, r0:r1].reshape(cin, -1))
            del whole, gp
        if gk is not None:
            full = np.zeros(kernel.shape, dtype=gk.dtype)  # dropped taps get none
            np.multiply(gk.reshape(live.shape), unscale, out=full[:, :, ti, tj])
            _accum(kernel, full)
        if gx is not None:
            # a flat frame's crop goes to a new array, so x's holder keeps no padding
            crop = gx[crop_i]
            gx = np.multiply(crop, unscale, out=crop if crop.shape == gx.shape else None)
            _accum(x, gx.transpose(1, 0, 2, 3))

    return _op(out, bwd, x, kernel, bias)


def conv2d_relu(x: Tensor, kernel: Tensor, bias: Tensor,
                stride: int = 1, dilation: int = 1, padding: int = 0) -> Tensor:
    """relu(conv2d(...)) as one tape node: the output is clamped in place and
    the conv's backward takes relu's masked gradient directly, so no holder
    keeps the gradient before the relu."""
    # by its module name, so whatever stands in for conv2d there sees this call too
    out = conv2d(x, kernel, bias, stride=stride, dilation=dilation, padding=padding)
    y = np.maximum(out.data, 0, out=out.data)
    if out.node is not None:
        tape = _active_tape()
        node, fn = tape.nodes[-1]
        tape.nodes[-1] = node, lambda g: fn(g * (y > 0))
    return out


def _conv_axis(n_in, n_out, k, s, d, p):
    """One axis of a conv frame: (kept taps as a slice, frame extent, frame
    index that the first kept tap reads for output 0, frame index of input 0).

    Taps whose reads all fall in the padding before the input, or all after
    it, are dropped; if every tap would be, tap 0 stays.  The frame spans the
    input and what the kept taps read.
    """
    lo = max(0, -(((n_out - 1) * s - p) // d))
    hi = min(k, (p + n_in - 1) // d + 1)
    lo, hi = (lo, hi) if lo < hi else (0, 1)
    org = lo * d - p  # input index that tap lo reads for output 0
    end = max(org + (n_out - 1) * s + (hi - lo - 1) * d + 1, n_in)
    return slice(lo, hi), end - min(org, 0), org - min(org, 0), -min(org, 0)


def _window(buf, o, frame, win):
    """A flat (C, M) frame buffer from offset o, as (C, N, Hp, Wp) indexed by win."""
    n, hp, wp = frame
    return buf[:, o:o + n * hp * wp].reshape(-1, n, hp, wp)[win]


def _parts(count, each):
    """(start, stop) ranges that split range(count), whose items take ``each``
    bytes, into the fewest near-equal parts of at most _COLS_BLOCK bytes (one
    item at least)."""
    parts = -(-count // max(1, _COLS_BLOCK // each))
    edges = [count * i // parts for i in range(parts + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _spans(n, rows, each):
    """(i0, i1, r0, r1) blocks of images i0..i1 and rows r0..r1, a row taking
    ``each`` bytes: whole images where one fits in _COLS_BLOCK, else rows of
    one image."""
    if rows * each <= _COLS_BLOCK:
        return [(i0, i1, 0, rows) for i0, i1 in _parts(n, rows * each)]
    return [(i, i + 1, r0, r1) for i in range(n) for r0, r1 in _parts(rows, each)]


def _gather(buf, offsets, frame, win):
    """(C, taps, N, rows, cols): a copy of the window at each offset."""
    return np.stack([_window(buf, o, frame, win) for o in offsets], axis=1)


def _shift_sum(y, offsets, frame, win):
    """Sum over taps t of y[t]'s window at offsets[t]; y is (taps, C, M)."""
    acc = _window(y[0], offsets[0], frame, win).copy()
    for t in range(1, len(offsets)):
        acc += _window(y[t], offsets[t], frame, win)
    return acc


def _scaled(g, out=None):
    """g times 2**k, written to ``out`` (by default a new C-contiguous array),
    and 2**-k to undo it.

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
    if out is None:
        out = np.empty(g.shape, dtype=g.dtype)
    np.multiply(g, 2.0 ** k, out=out)  # copy and scale in one pass
    return out, 2.0 ** -k


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; gradient goes to each window's first maximum
    in row-major order, or to its first NaN, as argmax would pick."""
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ShapeMismatch(f"max_pool2 needs even extents, got {h}x{w}")
    q = [x.data[:, :, k // 2::2, k % 2::2] for k in range(4)]  # window corners, row-major
    out = np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))

    def bwd(g, x):
        gx = np.empty(x.shape, dtype=g.dtype)  # the four corners cover it
        free = np.ones(out.shape, dtype=bool)  # windows whose maximum is not yet taken
        nan = np.isnan(out).any()
        for k, qk in enumerate(q):
            hit = qk == out
            if nan:
                hit |= np.isnan(qk)
            hit &= free
            gx[:, :, k // 2::2, k % 2::2] = np.where(hit, g, 0)
            free ^= hit
        _accum(x, gx)

    return _op(out, bwd, x)


def global_avg_pool(x: Tensor) -> Tensor:
    h, w = x.shape[2:]
    return _op(x.data.mean(axis=(2, 3), keepdims=True),
               lambda g, x: _accum(x, np.broadcast_to(g / (h * w), x.shape)), x)


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


def upsample(x: Tensor, factor: int) -> Tensor:
    if not (isinstance(factor, (int, np.integer)) and factor >= 2):
        raise InvalidArgument(f"upsample factor must be an integer >= 2, got {factor}")
    _, _, h, w = x.shape
    f = int(factor)
    mh = _interp_matrix(f * h, h, x.data.dtype)
    mw = _interp_matrix(f * w, w, x.data.dtype)

    def bwd(g, x):
        gs, unscale = _scaled(g)
        gx = np.matmul(np.matmul(mh.T, gs), mw)
        gx *= unscale
        _accum(x, gx)

    return _op(np.matmul(np.matmul(mh, x.data), mw.T), bwd, x)


# ---------------------------------------------------------------------------
# activations / dense / concat

def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0)  # y > 0 equals x > 0, NaN and -0 included: x need not be kept
    return _op(y, lambda g, x: _accum(x, g * (y > 0)), x)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic; no overflow at extreme inputs."""
    z = x.data
    y = np.empty_like(z)
    pos = z >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    y[~pos] = ez / (1.0 + ez)
    return _op(y, lambda g, x: _accum(x, g * y * (1.0 - y)), x)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Per-item affine map on (N, C, 1, 1); weight is (Cout, Cin, 1, 1) and
    bias (1, Cout, 1, 1)."""
    n, c, h, w = x.shape
    if h != 1 or w != 1:
        raise ShapeMismatch(f"dense needs 1x1 spatial extents, got {h}x{w}")
    cout, cin = weight.shape[0], weight.shape[1]
    if cin != c:
        raise ShapeMismatch(f"dense weight expects {cin} channels, input has {c}")
    x2 = x.data.reshape(n, c)
    w2 = weight.data.reshape(cout, cin)
    if bias.shape != (1, cout, 1, 1):
        raise ShapeMismatch(f"bias must be (1,{cout},1,1), got {bias.shape}")
    y = x2 @ w2.T + bias.data.reshape(1, cout)

    def bwd(g, x, weight, bias):
        g2 = g.reshape(n, cout)
        _accum(x, (g2 @ w2).reshape(n, c, 1, 1))
        _accum(weight, (g2.T @ x2).reshape(cout, cin, 1, 1))
        _accum(bias, g2.sum(axis=0).reshape(1, cout, 1, 1))

    return _op(y.reshape(n, cout, 1, 1), bwd, x, weight, bias)


def concat_channels(xs) -> Tensor:
    xs = list(xs)
    if not xs:
        raise InvalidArgument("concat_channels needs at least one tensor")
    n, _, h, w = xs[0].shape
    for t in xs[1:]:
        if t.shape[0] != n or t.shape[2] != h or t.shape[3] != w:
            raise ShapeMismatch(
                f"concat operands must share N,H,W: {xs[0].shape} vs {t.shape}")
    offsets = np.cumsum([0] + [t.shape[1] for t in xs])

    def bwd(g, *xs):
        for t, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            _accum(t, g[:, lo:hi])

    return _op(np.concatenate([t.data for t in xs], axis=1), bwd, *xs)


# ---------------------------------------------------------------------------
# FTEN serialization

_FTEN_MAGIC = b"FTEN"
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODES = {dt: code for code, dt in _DTYPES.items()}


def write_ften(dest, array):
    """Write an array as a bit-exact FTEN record to a path or a binary file.

    The payload is written from the array's own memory when it is contiguous
    little-endian; a bad dtype raises before a path is opened.
    """
    a = np.asarray(array)
    if a.dtype not in (np.float32, np.float64):
        raise InvalidArgument(f"FTEN stores f32/f64 only, got {a.dtype}")
    a = np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<"))
    if not hasattr(dest, "write"):
        with open(dest, "wb") as fh:
            return write_ften(fh, a)
    dest.write(_FTEN_MAGIC + struct.pack(f"<BBB5x{a.ndim}Q", 1, _CODES[a.dtype], a.ndim,
                                         *a.shape))
    dest.write(a.reshape(-1).view(np.uint8))


def read_ften(path):
    """Read an FTEN record from a path into a numpy array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        arr = read_ften_record(fh, size)
        if fh.tell() != size:
            raise InvalidArgument("trailing bytes after FTEN payload")
    return arr


def read_ften_record(fh, size):
    """Read the FTEN record at a binary file's position into a new array.

    The payload's end is checked against ``size`` (the file's length) before
    anything is allocated from the header.
    """
    head = fh.read(12)
    if head[:4] != _FTEN_MAGIC or len(head) < 12:
        raise InvalidArgument("bad FTEN magic or truncated header")
    version, code, rank = struct.unpack_from("<BBB", head, 4)
    if version != 1:
        raise InvalidArgument(f"unsupported FTEN version {version}")
    if code not in _DTYPES:
        raise InvalidArgument(f"unknown FTEN dtype code {code}")
    if rank > 64:
        raise InvalidArgument(f"unsupported FTEN shape: rank {rank}")
    raw = fh.read(8 * rank)
    if len(raw) < 8 * rank:
        raise InvalidArgument("truncated FTEN header")
    shape = struct.unpack(f"<{rank}Q", raw)
    dt = _DTYPES[code]
    # Python ints: huge extents cannot wrap around
    if fh.tell() + math.prod(shape) * dt.itemsize > size:
        raise InvalidArgument("truncated FTEN payload")
    try:
        out = np.empty(shape, dtype=dt)
    except ValueError as exc:  # an empty array with extents too big to index
        raise InvalidArgument(f"unsupported FTEN shape: {exc}") from exc
    if fh.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes:
        raise InvalidArgument("truncated FTEN payload")
    return out
