import numpy as np
import pytest

from fudsa import tensor as T
from fudsa.errors import ShapeMismatch
from fudsa.layers import ConvBlock, MatchChain, MlpHead, SdcBlock

from conftest import build, check_grads, uniform


def test_conv_block_shape_and_nonneg():
    block = build(ConvBlock(1, 8), dtype=np.float64)
    x = uniform((1, 1, 16, 16), -1, 1, seed=1, dtype=np.float64)
    out = block(x)
    assert out.shape == (1, 8, 16, 16)
    assert out.data.min() >= 0.0


def test_conv_block_zero_params():
    block = build(ConvBlock(1, 4))
    for p in block.params():
        p.data[...] = 0.0
    out = block(uniform((1, 1, 8, 8), -1, 1, seed=2))
    assert np.all(out.data == 0.0)


def test_conv_block_channel_mismatch():
    block = build(ConvBlock(2, 4))
    with pytest.raises(ShapeMismatch):
        block(T.Tensor(np.zeros((1, 3, 8, 8))))


def test_conv_block_preserves_spatial_extents():
    block = build(ConvBlock(2, 3))
    for hw in (8, 16, 32, 64):
        assert block(T.Tensor(np.zeros((1, 2, hw, hw), np.float32))).shape == (1, 3, hw, hw)


def test_conv_block_param_gradients():
    block = build(ConvBlock(1, 3), dtype=np.float64)
    x = uniform((1, 1, 8, 8), 0.1, 1, seed=3, dtype=np.float64)
    check_grads(lambda: T.tsum(block(x)), block.params(), tol=1e-5)


# ---------------------------------------------------------------------------
# MatchChain

def test_match_chain_one_hop():
    chain = build(MatchChain(4, 4, 1))
    out = chain(uniform((1, 4, 16, 16), -1, 1, seed=0))
    assert out.shape == (1, 4, 8, 8)


def test_match_chain_three_hops_widens_last():
    chain = build(MatchChain(2, 8, 3))
    out = chain(uniform((1, 2, 32, 32), -1, 1, seed=0))
    assert out.shape == (1, 8, 4, 4)
    # intermediate hops preserve the source channel count
    assert chain.convs[0].weight.shape == (2, 2, 2, 2)
    assert chain.convs[1].weight.shape == (2, 2, 2, 2)
    assert chain.convs[2].weight.shape == (8, 2, 2, 2)


def test_match_chain_identity_kernels_subsample():
    # a single 1 at the top-left of each 2x2 kernel with identity channel
    # mixing acts as stride-2 subsampling
    chain = build(MatchChain(3, 3, 2))
    for conv in chain.convs:
        conv.weight.data[...] = 0.0
        conv.bias.data[...] = 0.0
        for c in range(3):
            conv.weight.data[c, c, 0, 0] = 1.0
    x = uniform((1, 3, 16, 16), -1, 1, seed=5)
    out = chain(x)
    assert np.array_equal(out.data, x.data[:, :, ::4, ::4])


def test_match_chain_shapes_exhaustive_l4():
    # for every source level i <= target level l within a 4-level network
    base = 4
    for l in range(1, 4):
        cl = base * 2 ** (l - 1)
        for i in range(1, l + 1):
            ci = base * 2 ** (i - 1)
            hops = l - i + 1
            chain = build(MatchChain(ci, cl, hops))
            h = 4 * 2 ** hops
            out = chain(T.Tensor(np.zeros((1, ci, h, h), np.float32)))
            assert out.shape == (1, cl, 4, 4), (i, l)


def test_match_chain_grad():
    chain = build(MatchChain(2, 4, 2), dtype=np.float64)
    x = uniform((1, 2, 8, 8), -1, 1, seed=6, dtype=np.float64)
    check_grads(lambda: T.tsum(T.mul(chain(x), chain(x))), chain.params(), tol=1e-5)


# ---------------------------------------------------------------------------
# SdcBlock

def test_sdc_preserves_shape():
    block = build(SdcBlock(8))
    out = block(uniform((1, 8, 16, 16), -1, 1, seed=0))
    assert out.shape == (1, 8, 16, 16)


def test_sdc_zero_weights():
    block = build(SdcBlock(4))
    for p in block.params():
        p.data[...] = 0.0
    out = block(uniform((1, 4, 8, 8), -1, 1, seed=0))
    assert np.all(out.data == 0.0)


def test_sdc_receptive_field_15x15():
    # impulse response support is confined to a 15x15 window
    block = build(SdcBlock(1), seed=3, dtype=np.float64)
    for conv in block.convs:
        conv.weight.data = np.abs(conv.weight.data) + 0.1  # keep relu open
        conv.bias.data[...] = 0.0
    x = T.Tensor(np.zeros((1, 1, 33, 33)))
    x.data[0, 0, 16, 16] = 1.0
    out = block(x).data[0, 0]
    nz = np.argwhere(out != 0)
    assert nz.size > 0
    assert nz[:, 0].min() >= 16 - 7 and nz[:, 0].max() <= 16 + 7
    assert nz[:, 1].min() >= 16 - 7 and nz[:, 1].max() <= 16 + 7


def test_sdc_spatial_preservation_sweep():
    block = build(SdcBlock(2))
    for hw in (8, 16, 24, 32, 64):
        assert block(T.Tensor(np.zeros((1, 2, hw, hw), np.float32))).shape == (1, 2, hw, hw)


# ---------------------------------------------------------------------------
# MlpHead

def test_mlp_zero_params_give_half():
    head = build(MlpHead(8))
    for p in head.params():
        p.data[...] = 0.0
    out = head(uniform((2, 8, 1, 1), -1, 1, seed=0))
    assert np.all(out.data == 0.5)


def test_mlp_hidden_width():
    head = build(MlpHead(8))
    assert head.fc1.weight.shape == (2, 8, 1, 1)
    head = build(MlpHead(5))
    assert head.fc1.weight.shape == (2, 5, 1, 1)  # ceil(5/4)


def test_mlp_output_in_open_interval():
    head = build(MlpHead(6), seed=9)
    out = head(uniform((4, 6, 1, 1), -3, 3, seed=1))
    assert out.data.min() > 0.0
    assert out.data.max() < 1.0


def test_mlp_rejects_spatial():
    head = build(MlpHead(4))
    with pytest.raises(ShapeMismatch):
        head(T.Tensor(np.zeros((1, 4, 2, 2))))


def test_mlp_grad():
    head = build(MlpHead(4), dtype=np.float64)
    x = uniform((2, 4, 1, 1), -1, 1, seed=2, dtype=np.float64)
    check_grads(lambda: T.tsum(head(x)), head.params(), tol=1e-5)


def test_named_params_unique_and_stable():
    block = build(ConvBlock(1, 4))
    names = [n for n, _ in block.named_params()]
    assert len(names) == len(set(names)) == 4
    assert names == [n for n, _ in block.named_params()]
