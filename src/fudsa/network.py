"""FuDSA-Net assembly: encoder, bottleneck, attention-gated skips, and a
residually connected, deeply supervised decoder.

Ablation variants, each built without the parameters of what it leaves out:
  I   spatial attention only (channel gate pinned to 1; no SDC block or MLP)
  II  no deep supervision (no side heads)
  III no decoder residual accumulation (no projection convs)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionGate
from .errors import InvalidArgument, ShapeMismatch
from .layers import Conv2d, ConvBlock, Module, initialise


VARIANTS = {  # each ablation -> the NetworkConfig flags it changes
    "full": {},
    "I": {"spatial_only": True},
    "II": {"deep_supervision": False},
    "III": {"decoder_residuals": False},
}


INPUT_CHANNELS = 1  # a CT slice is one grey channel
MAX_CHANNELS = 1024  # the bottleneck's widest allowed width: 4x the default's 256


@dataclass(frozen=True)
class NetworkConfig:
    levels: int = 4
    base_channels: int = 16
    dtype: str = "f32"
    spatial_only: bool = False
    deep_supervision: bool = True
    decoder_residuals: bool = True

    def __post_init__(self):
        if self.levels < 2:
            raise InvalidArgument(f"levels must be >= 2, got {self.levels}")
        if self.base_channels < 1:
            raise InvalidArgument(f"base_channels must be >= 1, got {self.base_channels}")
        if self.dtype not in ("f32", "f64"):
            raise InvalidArgument(f"dtype must be f32 or f64, got {self.dtype!r}")

    def check_extent(self, h, w):
        """The encoder halves an input levels times: both extents need 2^levels as a factor."""
        lv = self.levels  # shifted out and back, never raised to 2^levels itself
        if h >> lv << lv != h or w >> lv << lv != w:
            raise ShapeMismatch(f"input extents {h}x{w} must be divisible by 2^{self.levels}")

    def channels_at(self, level):
        return self.base_channels * (1 << (level - 1))

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "f64" else np.float32

    def with_variant(self, name):
        """This geometry with variant ``name``'s flags; flags it does not change are reset."""
        return NetworkConfig(self.levels, self.base_channels, self.dtype, **VARIANTS[name])


@dataclass
class ForwardOutputs:
    final_map: T.Tensor
    side_maps: list                  # levels 2..L, upsampled to input extents
    attn: dict                       # level -> AttentionResult, the gates alone

    def heads(self):
        return [self.final_map] + list(self.side_maps)


class _DecoderLevel(Module):
    def __init__(self, cfg: NetworkConfig, level: int):
        c = cfg.channels_at(level)
        self.up_conv = Conv2d(2 * c, c, 3, padding=1)
        self.attention = AttentionGate([cfg.channels_at(i) for i in range(1, level + 1)],
                                       spatial_only=cfg.spatial_only)
        self.block = ConvBlock(2 * c, c)
        # residual projections from every deeper decoder level m > level
        self.proj = [Conv2d(cfg.channels_at(m), c, 1) for m in range(level + 1, cfg.levels + 1)
                     if cfg.decoder_residuals]


class FudsaNet(Module):
    """The network, He-initialised from ``seed`` by ``layers.initialise``.

    ``seed=None`` builds the shapes only: no parameter holds memory until
    ``load_checkpoint`` reads each one into an array of its own.
    """

    def __init__(self, config: NetworkConfig, seed: int | None = 0):
        wide = config.levels >= MAX_CHANNELS.bit_length()  # 2^levels alone is past the bound
        widest = f"{config.base_channels} * 2^{config.levels}" if wide else \
            config.channels_at(config.levels + 1)
        if wide or widest > MAX_CHANNELS:  # checked before anything is built
            raise InvalidArgument(f"base_channels * 2^levels = {widest} channels at the "
                                  f"bottleneck; at most {MAX_CHANNELS} are allowed")
        cfg = self.config = config
        self.encoder = [ConvBlock(cfg.channels_at(level - 1) if level > 1 else INPUT_CHANNELS,
                                  cfg.channels_at(level))
                        for level in range(1, cfg.levels + 1)]
        self.bottleneck = ConvBlock(cfg.channels_at(cfg.levels), cfg.channels_at(cfg.levels + 1))
        self.decoder = [_DecoderLevel(cfg, level) for level in range(cfg.levels, 0, -1)]
        self.final_head = Conv2d(cfg.base_channels, 1, 1)
        self.side_heads = [Conv2d(cfg.channels_at(level), 1, 1)
                           for level in range(2, cfg.levels + 1) if cfg.deep_supervision]
        if seed is not None:
            initialise(self, np.random.default_rng(seed), cfg.np_dtype)

    def forward(self, x: T.Tensor) -> ForwardOutputs:
        cfg = self.config
        cfg.check_extent(*x.shape[2:])

        enc_maps = []
        cur = x
        for block in self.encoder:
            cur = block(cur)
            enc_maps.append(cur)
            cur = T.max_pool2(cur)
        g_next = self.bottleneck(cur)  # G^{L+1}

        dec_maps: dict[int, T.Tensor] = {}
        attn: dict[int, object] = {}
        for dl, level in zip(self.decoder, range(cfg.levels, 0, -1)):
            u = dl.up_conv(T.upsample(g_next, 2))
            gated, attn[level] = dl.attention(enc_maps, g_next)
            enc_maps.pop()  # gate l is the last reader of E^l
            g = T.concat_channels([gated, u])
            del gated, u  # copied into g: neither need live while the block runs
            g = dl.block(g)
            # project G^m at its own resolution, then upsample c channels: 1x1 conv
            # and resampling commute, so the wide map never exists at this size
            for conv, m in zip(dl.proj, range(level + 1, cfg.levels + 1)):
                g = T.add(g, T.upsample(conv(dec_maps[m]), 1 << (m - level)))
            dec_maps[level] = g
            g_next = g

        final = T.sigmoid(self.final_head(dec_maps[1]))
        sides = [T.upsample(T.sigmoid(head(dec_maps[level])), 1 << (level - 1))
                 for head, level in zip(self.side_heads, range(2, cfg.levels + 1))]
        return ForwardOutputs(final, sides, attn)

    __call__ = forward
