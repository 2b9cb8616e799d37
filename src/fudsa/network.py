"""FuDSA-Net assembly: encoder, bottleneck, attention-gated skips, and a
residually connected, deeply supervised decoder.

Ablation variants (structural toggles):
  I   spatial attention only (channel gate pinned to 1)
  II  no deep supervision (side heads absent)
  III no decoder residual accumulation (projection convs kept but unused,
      so invariance to them is testable)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .attention import AttentionGate
from .errors import InvalidArgument, ShapeMismatch
from .layers import Conv2d, ConvBlock, Module, ModuleList


@dataclass(frozen=True)
class VariantFlags:
    spatial_only: bool = False
    deep_supervision: bool = True
    decoder_residuals: bool = True


VARIANTS = {
    "full": VariantFlags(),
    "I": VariantFlags(spatial_only=True),
    "II": VariantFlags(deep_supervision=False),
    "III": VariantFlags(decoder_residuals=False),
}


@dataclass(frozen=True)
class NetworkConfig:
    levels: int = 4
    base_channels: int = 16
    input_channels: int = 1
    reduction: int = 4
    sdc_dilations: tuple[int, ...] = (1, 2, 4)
    dtype: str = "f32"
    variant: VariantFlags = field(default_factory=VariantFlags)

    def __post_init__(self):
        if self.levels < 2:
            raise InvalidArgument(f"levels must be >= 2, got {self.levels}")
        if self.base_channels < 1:
            raise InvalidArgument(f"base_channels must be >= 1, got {self.base_channels}")
        if self.reduction < 1 or any(d < 1 for d in self.sdc_dilations):
            raise InvalidArgument(f"reduction and sdc_dilations must be >= 1, got "
                                  f"{self.reduction} and {self.sdc_dilations}")
        if self.dtype not in ("f32", "f64"):
            raise InvalidArgument(f"dtype must be f32 or f64, got {self.dtype!r}")

    def check_extent(self, h, w):
        """The encoder halves an input levels times: both extents need 2^levels as a factor."""
        div = 1 << self.levels
        if h % div or w % div:
            raise ShapeMismatch(f"input extents {h}x{w} must be divisible by 2^{self.levels}")

    def channels_at(self, level):
        return self.base_channels * (1 << (level - 1))

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "f64" else np.float32

    def with_variant(self, name):
        return replace(self, variant=VARIANTS[name])


@dataclass
class ForwardOutputs:
    final_map: T.Tensor
    side_maps: list                  # levels 2..L, upsampled to input extents
    encoder_maps: list               # E^1..E^L
    attn: dict = field(default_factory=dict)   # level -> AttentionResult
    decoder_maps: dict = field(default_factory=dict)  # level -> G^l

    def heads(self):
        return [self.final_map] + list(self.side_maps)


class _DecoderLevel(Module):
    def __init__(self, cfg: NetworkConfig, level: int, rng, dtype):
        super().__init__()
        c = cfg.channels_at(level)
        self.level = level
        self.up_conv = Conv2d(2 * c, c, 3, rng, padding=1, dtype=dtype)
        self.attention = AttentionGate(
            level, [cfg.channels_at(i) for i in range(1, level + 1)], rng,
            reduction=cfg.reduction, dilations=cfg.sdc_dilations,
            spatial_only=cfg.variant.spatial_only, dtype=dtype)
        self.block = ConvBlock(2 * c, c, rng, dtype=dtype)
        # residual projections from every deeper decoder level m > level
        self.proj = ModuleList(
            Conv2d(cfg.channels_at(m), c, 1, rng, dtype=dtype)
            for m in range(level + 1, cfg.levels + 1))


class FudsaNet(Module):
    """The network; ``seed`` seeds the He initialisation.

    ``seed=None`` draws no random numbers and leaves every parameter zero,
    for callers that load the parameters afterwards.
    """

    def __init__(self, config: NetworkConfig, seed: int | None = 0):
        super().__init__()
        self.config = config
        dtype = config.np_dtype
        rng = None if seed is None else np.random.default_rng(seed)
        cfg = config

        enc = ModuleList()
        in_ch = cfg.input_channels
        for level in range(1, cfg.levels + 1):
            enc.append(ConvBlock(in_ch, cfg.channels_at(level), rng, dtype=dtype))
            in_ch = cfg.channels_at(level)
        self.encoder = enc
        self.bottleneck = ConvBlock(cfg.channels_at(cfg.levels),
                                    cfg.channels_at(cfg.levels + 1), rng, dtype=dtype)
        self.decoder = ModuleList(
            _DecoderLevel(cfg, level, rng, dtype)
            for level in range(cfg.levels, 0, -1))
        self.final_head = Conv2d(cfg.base_channels, 1, 1, rng, dtype=dtype)
        if cfg.variant.deep_supervision:
            self.side_heads = ModuleList(
                Conv2d(cfg.channels_at(level), 1, 1, rng, dtype=dtype)
                for level in range(2, cfg.levels + 1))

    def _decoder_at(self, level) -> _DecoderLevel:
        return self.decoder[self.config.levels - level]

    def forward(self, x: T.Tensor) -> ForwardOutputs:
        cfg = self.config
        cfg.check_extent(*x.shape[2:])

        enc_maps = []
        cur = x
        for level, block in enumerate(self.encoder, start=1):
            cur = block(cur)
            enc_maps.append(cur)
            cur = T.max_pool2(cur)
        g_next = self.bottleneck(cur)  # G^{L+1}

        dec_maps: dict[int, T.Tensor] = {}
        attn: dict[int, object] = {}
        for level in range(cfg.levels, 0, -1):
            dl = self._decoder_at(level)
            u = dl.up_conv(T.upsample(g_next, 2))
            res = dl.attention(enc_maps[:level], g_next)
            attn[level] = res
            g = dl.block(T.concat_channels([res.gated, u]))
            if cfg.variant.decoder_residuals:
                # project G^m at its own resolution, then upsample c channels: 1x1 conv
                # and resampling commute, so the wide map never exists at this size
                for conv, m in zip(dl.proj, range(level + 1, cfg.levels + 1)):
                    g = T.add(g, T.upsample(conv(dec_maps[m]), 1 << (m - level)))
            dec_maps[level] = g
            g_next = g

        final = T.sigmoid(self.final_head(dec_maps[1]))
        sides = []
        if cfg.variant.deep_supervision:
            for head, level in zip(self.side_heads, range(2, cfg.levels + 1)):
                p = T.sigmoid(head(dec_maps[level]))
                sides.append(T.upsample(p, 1 << (level - 1)))
        return ForwardOutputs(final, sides, enc_maps, attn, dec_maps)

    __call__ = forward

    def parameter_summary(self):
        """Stable list of (name, shape, count) plus the grand total."""
        rows = [(name, p.shape, int(np.prod(p.shape)))
                for name, p in self.named_params()]
        return rows, sum(r[2] for r in rows)
