"""Full-scale attention gate for one skip connection.

At decoder level l the gate consumes the encoder maps of every level up to l
plus the decoder volume from level l+1, and rescales the level-l encoder map
with a per-channel gate and a per-pixel gate, both in (0,1).

The channel branch sums the matched maps from levels 1..l-1 together with the
reduced decoder volume (the level-l matched map is deliberately excluded);
the spatial branch sums all of 1..l plus the reduced decoder volume.  Both
read one running sum, and the asymmetry is covered by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeMismatch
from .layers import Conv2d, MatchChain, MlpHead, Module, SdcBlock


@dataclass
class AttentionResult:
    """The two gates of one level: what ``--dump-attention`` writes."""
    channel_gate: T.Tensor   # W_cha, (N, C, 1, 1)
    spatial_gate: T.Tensor   # Q, (N, 1, 2H, 2W)


class AttentionGate(Module):
    """Gate for level ``len(channels)``, with ``channels[i]`` channels at encoder level i+1."""

    def __init__(self, channels, spatial_only=False):
        self.level = level = len(channels)
        self.spatial_only = spatial_only
        c = channels[-1]
        # one match chain per encoder level i = 1..l; level i needs l-i+1 halvings
        self.match_chains = [MatchChain(channels[i], c, level - i) for i in range(level)]
        self.reduce = Conv2d(2 * c, c, 1)
        if not spatial_only:  # the channel branch
            self.sdc = SdcBlock(c)
            self.mlp = MlpHead(c)
        self.spatial_conv3 = Conv2d(c, c, 3, padding=1)
        self.spatial_conv1 = Conv2d(c, 1, 1)

    def __call__(self, encoder_maps, decoder_map):
        """(E-hat, the gates): E-hat is (N, C, 2H, 2W), the gated level-l encoder map."""
        if len(encoder_maps) != self.level:
            raise ShapeMismatch(
                f"level {self.level} gate needs {self.level} encoder maps, got {len(encoder_maps)}")
        e_l = encoder_maps[-1]
        d_next = self.reduce(decoder_map)
        sums = [d_next]  # running sum: D, D + S^1, ..., D + S^1 + ... + S^l
        for chain, e in zip(self.match_chains, encoder_maps):
            s = chain(e)  # S^i, (N, C, H, W)
            if s.shape != d_next.shape:
                raise ShapeMismatch(f"summand shape {s.shape} != {d_next.shape}")
            sums.append(T.add(sums[-1], s))

        if self.spatial_only:
            w_cha = T.Tensor(np.ones((e_l.shape[0], e_l.shape[1], 1, 1), e_l.dtype))
            e_tilde = e_l
        else:
            # W_cha: SDC -> GAP -> MLP of the sum up to S^(l-1)
            w_cha = self.mlp(T.global_avg_pool(self.sdc(sums[-2])))
            e_tilde = T.mul(e_l, w_cha)

        # Q: conv3x3 -> conv1x1 -> sigmoid -> 2x upsample of the full sum
        q = T.sigmoid(self.spatial_conv1(self.spatial_conv3(sums[-1])))
        q = T.upsample(q, 2)
        e_hat = T.mul(e_tilde, q)
        return e_hat, AttentionResult(w_cha, q)
