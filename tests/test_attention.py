import numpy as np
import pytest

from fudsa import tensor as T
from fudsa.attention import AttentionGate
from fudsa.errors import ShapeMismatch

from conftest import build, check_grads, uniform


def make_gate(level=2, base=4, seed=0, dtype=np.float64, **kw):
    channels = [base * 2 ** i for i in range(level)]
    return build(AttentionGate(channels, **kw), seed, dtype), channels


def make_inputs(level=2, base=4, n=1, h=4, seed=1, dtype=np.float64):
    """Encoder maps E^1..E^l and decoder volume G^{l+1} with level geometry."""
    rng = np.random.default_rng(seed)
    enc = []
    for i in range(1, level + 1):
        ci = base * 2 ** (i - 1)
        hi = h * 2 ** (level - i + 1)
        enc.append(T.Tensor(rng.normal(size=(n, ci, hi, hi)).astype(dtype)))
    c = base * 2 ** (level - 1)
    dec = T.Tensor(rng.normal(size=(n, 2 * c, h, h)).astype(dtype))
    return enc, dec


def test_reduce_decoder_shape_and_projection():
    gate, _ = make_gate(level=2, base=8)
    g = uniform((1, 32, 8, 8), -1, 1, seed=0, dtype=np.float64)
    d = gate.reduce(g)
    assert d.shape == (1, 16, 8, 8)
    # kernel [I | 0] selects the first C channels
    gate.reduce.weight.data[...] = 0.0
    gate.reduce.bias.data[...] = 0.0
    for c in range(16):
        gate.reduce.weight.data[c, c, 0, 0] = 1.0
    d = gate.reduce(g)
    assert np.array_equal(d.data, g.data[:, :16])


def test_reduce_decoder_matches_1x1_loop_oracle():
    gate, _ = make_gate(level=1, base=3)
    g = uniform((2, 6, 4, 4), -1, 1, seed=3, dtype=np.float64)
    d = gate.reduce(g).data
    w = gate.reduce.weight.data
    b = gate.reduce.bias.data
    for n in range(2):
        for co in range(3):
            for y in range(4):
                for x in range(4):
                    acc = b[0, co, 0, 0]
                    for ci in range(6):
                        acc += w[co, ci, 0, 0] * g.data[n, ci, y, x]
                    assert abs(d[n, co, y, x] - acc) < 1e-12


def test_reduce_decoder_rejects_wrong_channels():
    gate, _ = make_gate(level=2, base=4)
    with pytest.raises(ShapeMismatch):
        gate.reduce(T.Tensor(np.zeros((1, 6, 4, 4))))


def test_misshapen_summand_raises():
    # two halvings take a 4x4 E^1 to a 1x1 S^1, which add would broadcast over D
    gate, _ = make_gate(level=2, base=4)
    enc, dec = make_inputs(level=2, base=4, h=2)
    enc[0] = T.Tensor(np.zeros((1, 4, 4, 4)))
    with pytest.raises(ShapeMismatch, match="summand shape"):
        gate(enc, dec)


def test_gate_needs_one_encoder_map_per_level():
    # zip would pair the chains with fewer maps silently, and e_l be the wrong level's
    gate, _ = make_gate(level=3, base=2)
    enc, dec = make_inputs(level=3, base=2, h=2)
    for maps in (enc[1:], enc + enc[-1:]):
        with pytest.raises(ShapeMismatch, match=f"level 3 gate needs 3 encoder maps, got {len(maps)}"):
            gate(maps, dec)


def test_channel_gate_level1_uses_decoder_alone():
    # at the top level the channel-branch summand list is [D] only
    gate, _ = make_gate(level=1, base=4)
    enc, dec = make_inputs(level=1, base=4)
    _, res = gate(enc, dec)
    assert res.channel_gate.shape == (1, 4, 1, 1)


def test_zero_mlp_gives_half_scaling():
    gate, _ = make_gate(level=2, base=4)
    for p in gate.mlp.params():
        p.data[...] = 0.0
    enc, dec = make_inputs(level=2, base=4)
    gated, res = gate(enc, dec)
    assert np.all(res.channel_gate.data == 0.5)
    e_tilde = gated.data / res.spatial_gate.data  # undo the spatial gate
    assert np.allclose(e_tilde, 0.5 * enc[-1].data)


def test_channel_gate_ratio_constancy():
    gate, _ = make_gate(level=3, base=2, seed=5)
    enc, dec = make_inputs(level=3, base=2, h=2, seed=6)
    gated, res = gate(enc, dec)
    w = res.channel_gate.data
    e_tilde = gated.data / res.spatial_gate.data
    ratio = e_tilde / enc[-1].data
    assert np.allclose(ratio, np.broadcast_to(w, ratio.shape))


def test_spatial_gate_zero_conv1_gives_half():
    gate, _ = make_gate(level=2, base=4)
    gate.spatial_conv1.weight.data[...] = 0.0
    gate.spatial_conv1.bias.data[...] = 0.0
    enc, dec = make_inputs(level=2, base=4)
    _, res = gate(enc, dec)
    assert np.allclose(res.spatial_gate.data, 0.5)


def test_spatial_gate_doubles_extents_and_ranges():
    gate, _ = make_gate(level=2, base=4, seed=2)
    enc, dec = make_inputs(level=2, base=4, h=4, seed=3)
    _, res = gate(enc, dec)
    assert res.spatial_gate.shape == (1, 1, 8, 8)
    assert 0.0 < res.spatial_gate.data.min() <= res.spatial_gate.data.max() < 1.0
    assert 0.0 < res.channel_gate.data.min() <= res.channel_gate.data.max() < 1.0


def test_attention_annihilates_zero_encoder_map():
    gate, _ = make_gate(level=2, base=4)
    enc, dec = make_inputs(level=2, base=4)
    enc[-1] = T.Tensor(np.zeros(enc[-1].shape))
    gated, _ = gate(enc, dec)
    assert np.all(gated.data == 0.0)


def test_attention_attenuates_elementwise():
    gate, _ = make_gate(level=2, base=4, seed=7)
    enc, dec = make_inputs(level=2, base=4, h=8, seed=8)
    gated, _ = gate(enc, dec)
    e = enc[-1].data
    nz = e != 0
    assert np.all(np.abs(gated.data[nz]) < np.abs(e[nz]))


def test_summand_asymmetry_sl_affects_spatial_only():
    # zeroing the level-l matched map changes Q but not W_cha
    gate, _ = make_gate(level=2, base=4, seed=9)
    enc, dec = make_inputs(level=2, base=4, seed=10)
    _, base = gate(enc, dec)
    # zero the final match chain so S^l == bias-only constant
    last = gate.match_chains[-1]
    saved = [(c.weight.data.copy(), c.bias.data.copy()) for c in last.convs]
    for c in last.convs:
        c.weight.data[...] = 0.0
        c.bias.data[...] = 0.0
    _, changed = gate(enc, dec)
    assert np.array_equal(changed.channel_gate.data, base.channel_gate.data)
    assert not np.array_equal(changed.spatial_gate.data, base.spatial_gate.data)
    for c, (w, b) in zip(last.convs, saved):
        c.weight.data, c.bias.data = w, b


@pytest.mark.parametrize("level", [1, 2, 3])
def test_gate_sums_its_inputs_once(monkeypatch, level):
    # one running sum D + S^1 + ... + S^l feeds both branches: l adds in all
    gate, _ = make_gate(level=level, base=2, seed=17)
    enc, dec = make_inputs(level=level, base=2, seed=18)
    sums, real_add = [], T.add

    def add(a, b):
        sums.append(real_add(a, b))
        return sums[-1]

    monkeypatch.setattr(T, "add", add)
    with T.Tape() as tape:
        gate(enc, dec)
    assert sum(any(node is t.node for t in sums) for node, _ in tape.nodes) == level


def test_spatial_only_pins_channel_gate():
    gate, _ = make_gate(level=2, base=4, seed=13, spatial_only=True)
    enc, dec = make_inputs(level=2, base=4, seed=14)
    _, res = gate(enc, dec)
    assert np.all(res.channel_gate.data == 1.0)


def test_attention_gradient_reaches_all_inputs_and_params():
    gate, _ = make_gate(level=2, base=2, seed=15)
    rng = np.random.default_rng(16)
    enc = [T.Tensor(rng.normal(size=(1, 2, 16, 16)), requires_grad=True),
           T.Tensor(rng.normal(size=(1, 4, 8, 8)), requires_grad=True)]
    dec = T.Tensor(rng.normal(size=(1, 8, 4, 4)), requires_grad=True)
    check_grads(lambda: T.tsum(gate(enc, dec)[0]),
                enc + [dec] + gate.params(), tol=1e-5, n=5)


def test_gate_ranges_random_forwards():
    for trial in range(20):
        gate, _ = make_gate(level=2, base=4, seed=trial)
        enc, dec = make_inputs(level=2, base=4, seed=1000 + trial)
        _, res = gate(enc, dec)
        assert 0.0 < res.channel_gate.data.min() <= res.channel_gate.data.max() < 1.0
        assert 0.0 < res.spatial_gate.data.min() <= res.spatial_gate.data.max() < 1.0
