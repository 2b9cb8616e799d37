"""Parametric building blocks composed from tensor ops.

A module's parameters are its attributes.  ``named_params()`` walks
``vars(self)`` in assignment order: a Tensor that requires a gradient is a
parameter, a Module is recursed into, and a list holds Modules named
``<attr>.<i>.``.

Constructors take shapes only: every parameter is born a read-only float32
zero that holds no memory, until ``initialise`` draws it or
``training.load_checkpoint`` reads it into an array of its own.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T


class Module:
    def named_params(self, prefix=""):
        for name, value in vars(self).items():
            if isinstance(value, T.Tensor) and value.requires_grad:
                yield prefix + name, value
            elif isinstance(value, Module):
                yield from value.named_params(f"{prefix}{name}.")
            elif isinstance(value, list):
                for i, child in enumerate(value):
                    yield from child.named_params(f"{prefix}{name}.{i}.")

    def params(self):
        return [p for _, p in self.named_params()]

    def zero_grad(self):
        for p in self.params():
            p.grad = None


def initialise(module, rng, dtype):
    """New ``dtype`` data for every parameter, in ``named_params()`` order: each weight
    He-normal draws from ``rng`` with std sqrt(2 / fan-in), fan-in = Cin*kH*kW (arXiv
    1502.01852); each bias zeros."""
    for name, p in module.named_params():
        if name.endswith("weight"):
            p.data = (rng.standard_normal(p.shape) * np.sqrt(2.0 / p.data[0].size)).astype(dtype)
        else:
            p.data = np.zeros(p.shape, dtype)


def _zero(shape):
    """A read-only float32 zero parameter whose elements all read one 4-byte buffer."""
    return T.Tensor(np.ndarray(shape, np.float32, bytes(4), strides=(0,) * 4), True)


class Conv2d(Module):
    def __init__(self, in_ch, out_ch, k, stride=1, dilation=1, padding=0):
        self.stride = stride
        self.dilation = dilation
        self.padding = padding
        self.weight = _zero((out_ch, in_ch, k, k))
        self.bias = _zero((1, out_ch, 1, 1))

    def __call__(self, x):
        return T.conv2d(x, self.weight, self.bias, stride=self.stride,
                        dilation=self.dilation, padding=self.padding)


class Dense(Conv2d):
    """A 1x1 convolution on (N, C, 1, 1) maps, computed as a matrix product."""

    def __call__(self, x):
        return T.dense(x, self.weight, self.bias)


class ConvRelu(Conv2d):
    """A convolution followed by relu, taped as one op."""

    def __call__(self, x):
        return T.conv2d_relu(x, self.weight, self.bias, stride=self.stride,
                             dilation=self.dilation, padding=self.padding)


class ConvBlock(Module):
    """Two 3x3 same-padding convolutions, each followed by relu."""

    def __init__(self, in_ch, out_ch):
        self.conv1 = ConvRelu(in_ch, out_ch, 3, padding=1)
        self.conv2 = ConvRelu(out_ch, out_ch, 3, padding=1)

    def __call__(self, x):
        return self.conv2(self.conv1(x))


class MatchChain(Module):
    """Repeated stride-2 2x2 convolutions bringing an encoder map from level
    ``source`` down to the working resolution of level ``target``.

    Intermediate stages keep the source channel count; the last stage maps to
    the target channel count.  Chain length is target - source + 1 halvings
    for 1-based levels (the encoder map at level l sits at twice the attention
    working size).
    """

    def __init__(self, src_ch, dst_ch, hops):
        self.convs = [Conv2d(src_ch, dst_ch if h == hops - 1 else src_ch, 2, stride=2)
                      for h in range(hops)]

    def __call__(self, x):
        for conv in self.convs:
            x = conv(x)
        return x


SDC_DILATIONS = (1, 2, 4)  # the SDC stack's rates: a 15x15 composite receptive field
MLP_REDUCTION = 4  # the channel MLP's hidden width is ceil(C / MLP_REDUCTION)


class SdcBlock(Module):
    """Stacked dilated 3x3 convolutions (relu after each) at ``SDC_DILATIONS``,
    channel preserving."""

    def __init__(self, channels):
        self.convs = [ConvRelu(channels, channels, 3, dilation=d, padding=d)
                      for d in SDC_DILATIONS]

    def __call__(self, x):
        for conv in self.convs:
            x = conv(x)
        return x


class MlpHead(Module):
    """dense(C -> ceil(C/MLP_REDUCTION)) + relu, dense(-> C) + sigmoid; output in (0,1)."""

    def __init__(self, channels):
        hidden = -(-channels // MLP_REDUCTION)
        self.fc1 = Dense(channels, hidden, 1)
        self.fc2 = Dense(hidden, channels, 1)

    def __call__(self, x):
        return T.sigmoid(self.fc2(T.relu(self.fc1(x))))
