"""Parametric building blocks composed from tensor ops.

``Module`` gives pytorch-flavoured parameter registration: assigning a
Tensor with requires_grad, a Module, or a ModuleList to an attribute makes it
reachable through ``named_params()`` in a stable insertion order.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeMismatch


class Module:
    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name, value):
        if isinstance(value, T.Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, (Module, ModuleList)):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def named_params(self, prefix=""):
        for name, p in self._params.items():
            yield prefix + name, p
        for name, child in self._children.items():
            yield from child.named_params(prefix + name + ".")

    def params(self):
        return [p for _, p in self.named_params()]

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()


class ModuleList(list):
    def named_params(self, prefix=""):
        for i, child in enumerate(self):
            yield from child.named_params(f"{prefix}{i}.")


def _weight(shape, fan_in, rng, dtype):
    """He-initialised weight; zeros when ``rng`` is None (weights to be loaded)."""
    if rng is None:
        return T.zeros(shape, dtype=dtype, requires_grad=True)
    return T.he_normal(shape, fan_in, rng, dtype=dtype, requires_grad=True)


class Conv2d(Module):
    def __init__(self, in_ch, out_ch, k, rng, stride=1, dilation=1, padding=0,
                 dtype=np.float32):
        super().__init__()
        self.stride = stride
        self.dilation = dilation
        self.padding = padding
        self.weight = _weight((out_ch, in_ch, k, k), in_ch * k * k, rng, dtype)
        self.bias = T.zeros((1, out_ch, 1, 1), dtype=dtype, requires_grad=True)

    def __call__(self, x):
        return T.conv2d(x, self.weight, self.bias, stride=self.stride,
                        dilation=self.dilation, padding=self.padding)


class Dense(Module):
    def __init__(self, in_ch, out_ch, rng, dtype=np.float32):
        super().__init__()
        self.weight = _weight((out_ch, in_ch, 1, 1), in_ch, rng, dtype)
        self.bias = T.zeros((1, out_ch, 1, 1), dtype=dtype, requires_grad=True)

    def __call__(self, x):
        return T.dense(x, self.weight, self.bias)


class ConvBlock(Module):
    """Two 3x3 same-padding convolutions, each followed by relu."""

    def __init__(self, in_ch, out_ch, rng, dtype=np.float32):
        super().__init__()
        self.in_channels = in_ch
        self.out_channels = out_ch
        self.conv1 = Conv2d(in_ch, out_ch, 3, rng, padding=1, dtype=dtype)
        self.conv2 = Conv2d(out_ch, out_ch, 3, rng, padding=1, dtype=dtype)

    def __call__(self, x):
        if x.shape[1] != self.in_channels:
            raise ShapeMismatch(
                f"ConvBlock expects {self.in_channels} channels, got {x.shape[1]}")
        return T.relu(self.conv2(T.relu(self.conv1(x))))


class MatchChain(Module):
    """Repeated stride-2 2x2 convolutions bringing an encoder map from level
    ``source`` down to the working resolution of level ``target``.

    Intermediate stages keep the source channel count; the last stage maps to
    the target channel count.  Chain length is target - source + 2 halvings
    (the encoder map at level l sits at twice the attention working size).
    """

    def __init__(self, src_ch, dst_ch, hops, rng, dtype=np.float32):
        super().__init__()
        self.hops = hops
        self.convs = ModuleList(
            Conv2d(src_ch, dst_ch if h == hops - 1 else src_ch, 2, rng,
                   stride=2, dtype=dtype)
            for h in range(hops))

    def __call__(self, x):
        expect = x.shape[2] >> self.hops, x.shape[3] >> self.hops
        if x.shape[2] != expect[0] << self.hops or x.shape[3] != expect[1] << self.hops:
            raise ShapeMismatch(
                f"extents {x.shape[2]}x{x.shape[3]} not divisible by 2^{self.hops}")
        for conv in self.convs:
            x = conv(x)
        return x


class SdcBlock(Module):
    """Stacked dilated 3x3 convolutions (relu after each), channel preserving.

    With rates (1, 2, 4) the composite receptive field is 15x15.
    """

    def __init__(self, channels, rng, dilations=(1, 2, 4), dtype=np.float32):
        super().__init__()
        self.channels = channels
        self.convs = ModuleList(
            Conv2d(channels, channels, 3, rng, dilation=d, padding=d, dtype=dtype)
            for d in dilations)

    def __call__(self, x):
        if x.shape[1] != self.channels:
            raise ShapeMismatch(
                f"SdcBlock expects {self.channels} channels, got {x.shape[1]}")
        for conv in self.convs:
            x = T.relu(conv(x))
        return x


class MlpHead(Module):
    """dense(C -> ceil(C/r)) + relu, dense(-> C) + sigmoid; output in (0,1)."""

    def __init__(self, channels, rng, reduction=4, dtype=np.float32):
        super().__init__()
        hidden = max(1, -(-channels // reduction))
        self.fc1 = Dense(channels, hidden, rng, dtype=dtype)
        self.fc2 = Dense(hidden, channels, rng, dtype=dtype)

    def __call__(self, x):
        return T.sigmoid(self.fc2(T.relu(self.fc1(x))))
