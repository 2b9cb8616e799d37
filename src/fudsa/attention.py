"""Full-scale attention gate for one skip connection.

At decoder level l the gate consumes the encoder maps of every level up to l
plus the decoder volume from level l+1, and rescales the level-l encoder map
with a per-channel gate and a per-pixel gate, both in (0,1).

The channel branch sums the matched maps from levels 1..l-1 together with the
reduced decoder volume (the level-l matched map is deliberately excluded);
the spatial branch sums all of 1..l plus the reduced decoder volume.  The
asymmetry is intentional and covered by tests; ``include_sl_in_channel``
switches the channel branch to the symmetric form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeMismatch
from .layers import Conv2d, MatchChain, MlpHead, Module, ModuleList, SdcBlock


@dataclass
class AttentionResult:
    gated: T.Tensor          # E-hat, (N, C, 2H, 2W)
    channel_gate: T.Tensor   # W_cha, (N, C, 1, 1)
    spatial_gate: T.Tensor   # Q, (N, 1, 2H, 2W)
    reduced_decoder: T.Tensor  # D, (N, C, H, W)
    matched: list            # S maps, each (N, C, H, W)


class AttentionGate(Module):
    """Gate for level ``level`` with ``channels[i]`` channels at encoder level i+1."""

    def __init__(self, level, channels, rng, reduction=4, dilations=(1, 2, 4),
                 upsample_mode="bilinear", spatial_only=False,
                 include_sl_in_channel=False, dtype=np.float32):
        super().__init__()
        if len(channels) != level:
            raise ShapeMismatch(f"need {level} channel counts, got {len(channels)}")
        self.level = level
        self.upsample_mode = upsample_mode
        self.spatial_only = spatial_only
        self.include_sl_in_channel = include_sl_in_channel
        c = channels[-1]
        # one match chain per encoder level i = 1..l; level i needs l-i+1 halvings
        self.match_chains = ModuleList(
            MatchChain(channels[i], c, level - i, rng, dtype=dtype)
            for i in range(level))
        self.reduce = Conv2d(2 * c, c, 1, rng, dtype=dtype)
        self.sdc = SdcBlock(c, rng, dilations=dilations, dtype=dtype)
        self.mlp = MlpHead(c, rng, reduction=reduction, dtype=dtype)
        self.spatial_conv3 = Conv2d(c, c, 3, rng, padding=1, dtype=dtype)
        self.spatial_conv1 = Conv2d(c, 1, 1, rng, dtype=dtype)

    def __call__(self, encoder_maps, decoder_map) -> AttentionResult:
        if len(encoder_maps) != self.level:
            raise ShapeMismatch(
                f"level {self.level} gate needs {self.level} encoder maps, got {len(encoder_maps)}")
        e_l = encoder_maps[-1]
        d_next = self.reduce(decoder_map)
        s_maps = [chain(e) for chain, e in zip(self.match_chains, encoder_maps)]
        sums = [d_next]  # running sum: D, D + S^1, ..., D + S^1 + ... + S^l
        for s in s_maps:
            if s.shape != d_next.shape:
                raise ShapeMismatch(f"summand shape {s.shape} != {d_next.shape}")
            sums.append(T.add(sums[-1], s))

        if self.spatial_only:
            w_cha = T.constant((e_l.shape[0], e_l.shape[1], 1, 1), 1.0, dtype=e_l.dtype)
            e_tilde = e_l
        else:
            # W_cha: SDC -> GAP -> MLP of the sum up to S^(l-1), or up to S^l
            g_add = sums[-1] if self.include_sl_in_channel else sums[-2]
            w_cha = self.mlp(T.global_avg_pool(self.sdc(g_add)))
            e_tilde = T.mul(e_l, w_cha)

        # Q: conv3x3 -> conv1x1 -> sigmoid -> 2x upsample of the full sum
        q = T.sigmoid(self.spatial_conv1(self.spatial_conv3(sums[-1])))
        q = T.upsample(q, 2, mode=self.upsample_mode)
        e_hat = T.mul(e_tilde, q)
        return AttentionResult(e_hat, w_cha, q, d_next, s_maps)
