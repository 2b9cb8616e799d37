import gc
import hashlib
import weakref
from dataclasses import fields

import numpy as np
import pytest

from fudsa import tensor as T
from fudsa.attention import AttentionGate
from fudsa.errors import InvalidArgument, ShapeMismatch
from fudsa.layers import Conv2d
from fudsa.losses import LossConfig, supervised_loss
from fudsa.network import FudsaNet, ForwardOutputs, NetworkConfig, VARIANTS
from fudsa.training import AdamState, TrainConfig, adam_step

from conftest import build, record_calls, traced_peak, uniform


def small_cfg(**kw):
    kw.setdefault("levels", 3)
    kw.setdefault("base_channels", 4)
    return NetworkConfig(**kw)


def test_channel_ladder():
    cfg = NetworkConfig(levels=4, base_channels=16)
    assert [cfg.channels_at(i) for i in range(1, 5)] == [16, 32, 64, 128]
    assert cfg.channels_at(5) == 256  # bottleneck


def test_build_deterministic():
    a = FudsaNet(small_cfg(), seed=11)
    b = FudsaNet(small_cfg(), seed=11)
    for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)
    c = FudsaNet(small_cfg(), seed=12)
    assert any(not np.array_equal(pa.data, pc.data)
               for (_, pa), (_, pc) in zip(a.named_params(), c.named_params()))


# The I and III pins moved when those variants stopped building the channel branch and
# the residual projections: initialise draws in named_params order.
PINNED_INIT = {  # (levels, base_channels, dtype, variant) -> sha256 of names and seed-3 init
    (2, 4, "f32", "full"): "a87c54cd2dcfa39a551289c432cfb6cb555b08f5f76159fa633791b7add54d99",
    (2, 4, "f32", "III"): "57e33f02c9019c26b2e54487bcced292a3663396adbd5070308e5722140bcb7f",
    (2, 4, "f64", "full"): "60b3f4777229570852f35f380f1fb7cdd6b4e61fca9b8b74491d11d792d3ddad",
    (4, 16, "f32", "full"): "682d8b5347bc760cb927496f0175e10aa63e405d593336baef28ff20f084b742",
    (3, 8, "f32", "I"): "3cbe05efd57564289dd496c2d92c438b5507358b9e5060de8498a4cdb2885fa0",
    (3, 8, "f64", "II"): "f19d9de0b1482c373b58e4055e2289bed4ba8cbb4a2824d01d956098a3b3ba3c",
    (2, 1, "f32", "full"): "b222b325d836dc9621a625583adc982647327b444a38ad0e12c580cff5c69071",
}


def test_seeded_build_is_pinned():
    # criterion 7 and saved checkpoints rely on this exact initialisation
    for (levels, width, dtype, variant), digest in PINNED_INIT.items():
        cfg = NetworkConfig(levels=levels, base_channels=width, dtype=dtype).with_variant(variant)
        h = hashlib.sha256()
        for name, p in FudsaNet(cfg, seed=3).named_params():
            h.update(name.encode())
            h.update(p.data.tobytes())
        assert h.hexdigest() == digest, (levels, width, dtype, variant)


def test_variant_ii_has_fewer_params():
    full = FudsaNet(small_cfg(), seed=0)
    no_ds = FudsaNet(small_cfg().with_variant("II"), seed=0)
    total_full, total_ii = (sum(p.data.size for p in m.params()) for m in (full, no_ds))
    assert 0 < total_ii < total_full


def test_parameter_summary_names_unique():
    model = FudsaNet(small_cfg(), seed=0)
    names = [name for name, _ in model.named_params()]
    assert len(names) == len(set(names)) == len(model.params()) > 0


def test_parameter_count_formula():
    conv = build(Conv2d(2, 4, 3))
    counts = {n: int(np.prod(p.shape)) for n, p in conv.named_params()}
    assert counts["weight"] + counts["bias"] == 76


def test_forward_shapes_and_side_maps():
    model = FudsaNet(NetworkConfig(levels=4, base_channels=4), seed=0)
    out = model(uniform((1, 1, 64, 64), 0, 1, seed=1))
    assert out.final_map.shape == (1, 1, 64, 64)
    assert len(out.side_maps) == 3
    for s in out.side_maps:
        assert s.shape == (1, 1, 64, 64)
    for m in [out.final_map] + out.side_maps:
        assert 0.0 < m.data.min() <= m.data.max() < 1.0


def test_forward_rejects_indivisible():
    model = FudsaNet(small_cfg(), seed=0)
    with pytest.raises(ShapeMismatch):
        model(T.Tensor(np.zeros((1, 1, 30, 30), np.float32)))


def test_forward_keeps_no_intermediate_map(monkeypatch):
    # ForwardOutputs holds the heads and the gates alone: every E^l, G^l, D and E-hat
    # is dead once a tape-free forward returns, while its outputs are still held
    assert [f.name for f in fields(ForwardOutputs)] == ["final_map", "side_maps", "attn"]
    model = FudsaNet(small_cfg(), seed=0)
    reduce = [dl.attention.reduce for dl in model.decoder]
    refs = []

    def watch(*tensors):  # each array and every array it is a view of
        for t in tensors:
            a = t.data
            refs.append(weakref.ref(a))
            while isinstance(a.base, np.ndarray):
                a = a.base
                refs.append(weakref.ref(a))

    def conv_maps(conv, args, out):
        if conv in reduce:
            watch(out)  # D
        if conv is model.final_head:
            watch(args[0])  # G^1

    # a gate reads E^1..E^l and G^(l+1) and makes E-hat
    record_calls(monkeypatch, AttentionGate,
                 lambda gate, args, out: watch(*args[0], args[1], out[0]))
    record_calls(monkeypatch, Conv2d, conv_maps)
    out = model(uniform((2, 1, 32, 32), 0, 1, seed=1))
    assert len(refs) >= 3 * 4 + 1  # E^1..E^3, G^2..G^4, D and E-hat thrice, and G^1
    gc.collect()
    live = sum(r() is not None for r in refs)
    assert live == 0, f"{live} of the {len(refs)} arrays watched outlive the forward"
    assert out.final_map.shape == (2, 1, 32, 32)  # held to here


def test_no_dead_branches():
    # with a loss over all heads, nearly every parameter receives gradient
    model = FudsaNet(small_cfg(), seed=3)
    x = uniform((1, 1, 32, 32), 0, 1, seed=4)
    y = T.Tensor((np.random.default_rng(5).uniform(0, 1, (1, 1, 32, 32)) > 0.8)
                 .astype(np.float32))
    with T.Tape() as tape:
        loss = supervised_loss(model(x), y, LossConfig())
        T.backward(loss, tape)
    named = list(model.named_params())
    live = sum(1 for _, p in named
               if p.grad is not None and np.abs(p.grad).max() > 0)
    assert live / len(named) >= 0.99
    model.zero_grad()


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_every_parameter_of_every_variant_gets_a_gradient(variant):
    # a variant builds only what its forward reads: variant I once carried an SDC block
    # and an MLP per gate, and variant III its projections, that no backward reached
    model = FudsaNet(small_cfg().with_variant(variant), seed=6)
    x = uniform((1, 1, 32, 32), 0, 1, seed=7)
    y = T.Tensor((np.random.default_rng(5).uniform(0, 1, x.shape) > 0.8).astype(np.float32))
    with T.Tape() as tape:
        T.backward(supervised_loss(model(x).heads(), y, LossConfig()), tape)
    assert [name for name, p in model.named_params() if p.grad is None] == []


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_fused_conv_relu_trains_to_the_bit_as_relu_of_conv(monkeypatch, variant):
    # two seeded Adam steps with each block's conv and relu taped as one op, and as two
    x = uniform((2, 1, 32, 32), 0, 1, seed=16)
    y = T.Tensor((np.random.default_rng(17).uniform(0, 1, x.shape) > 0.8).astype(np.float32))

    def train_twice():
        model = FudsaNet(small_cfg().with_variant(variant), seed=18)
        params = list(model.named_params())
        state, cfg = AdamState(params), TrainConfig(learning_rate=3e-4)
        values, nodes = [], []
        for _ in range(2):
            with T.Tape() as tape:
                loss = supervised_loss(model(x).heads(), y, cfg.loss)
                T.backward(loss, tape)
            values.append(loss.item())
            nodes.append(len(tape.nodes))
            adam_step(params, state, cfg)
            model.zero_grad()
        h = hashlib.sha256()
        for name, p in params:
            h.update(name.encode())
            h.update(p.data.tobytes())
        return h.hexdigest(), values, nodes[0]

    digest, values, fused = train_twice()
    monkeypatch.setattr(T, "conv2d_relu", lambda x, k, b, **kw: T.relu(T.conv2d(x, k, b, **kw)))
    again, again_values, unfused = train_twice()
    assert (again, again_values) == (digest, values)
    # levels 3: two relus in each of 7 conv blocks (3 encoder, bottleneck, 3 decoder)
    # and three in each gate's SDC block, which variant I does not build
    assert unfused - fused == 2 * 7 + (0 if variant == "I" else 3 * 3)


def test_variant_parameter_counts():
    # tensors and values at L4 C16: I has no channel branch, II no side heads,
    # III no residual projections
    counts = {}
    for variant in VARIANTS:
        params = FudsaNet(NetworkConfig().with_variant(variant), seed=None).params()
        counts[variant] = len(params), sum(p.data.size for p in params)
    assert counts == {"full": (168, 3210820), "I": (128, 2611400), "II": (162, 3210593),
                      "III": (156, 3192724)}


def test_variant_ii_empty_side_maps():
    model = FudsaNet(small_cfg().with_variant("II"), seed=0)
    out = model(uniform((1, 1, 32, 32), 0, 1, seed=1))
    assert out.side_maps == []


def test_full_model_sensitive_to_residual_projections():
    model = FudsaNet(small_cfg(), seed=8)
    x = uniform((1, 1, 32, 32), 0, 1, seed=9)
    base = model(x).final_map.data.copy()
    model.decoder[-1].proj[0].weight.data += 0.25  # level 1's projection of G^2
    assert not np.array_equal(base, model(x).final_map.data)


def test_residual_upsamples_stay_narrow(monkeypatch):
    # decoder residuals are projected to c channels before they are upsampled,
    # so no wide deep map is resampled onto a shallow level's extents
    cfg = NetworkConfig(levels=4, base_channels=4)
    model = FudsaNet(cfg, seed=14)
    x = uniform((1, 1, 32, 32), 0, 1, seed=15)
    ups, real_upsample = [], T.upsample

    def upsample(t, factor):
        ups.append(real_upsample(t, factor))
        return ups[-1]

    monkeypatch.setattr(T, "upsample", upsample)
    with T.Tape() as tape:
        model(x)
    nodes = [node for node, _ in tape.nodes if any(node is t.node for t in ups)]
    assert nodes
    for node in nodes:
        level = (32 // node.shape[2]).bit_length()  # extent 32 / 2^(level-1)
        assert node.shape[1] <= 2 * cfg.channels_at(level), (node.shape, level)


def test_deep_block_perturbation_reaches_shallow_output(monkeypatch):
    # residual path: perturbing the deepest decoder block changes G^1, which the
    # final head reads
    model = FudsaNet(small_cfg(), seed=10)
    x = uniform((1, 1, 32, 32), 0, 1, seed=11)
    reads = record_calls(monkeypatch, Conv2d, lambda conv, args, out: (conv, args[0].data))

    def g1():
        reads.clear()
        model(x)
        return next(a for conv, a in reads if conv is model.final_head)

    base = g1().copy()
    for p in model.decoder[0].block.params():
        p.data += 0.1
    assert not np.array_equal(base, g1())


def test_forward_deterministic():
    model = FudsaNet(small_cfg(), seed=12)
    x = uniform((1, 1, 32, 32), 0, 1, seed=13)
    a = model(x).final_map.data
    b = model(x).final_map.data
    assert np.array_equal(a, b)


def test_config_validation():
    with pytest.raises(InvalidArgument):
        NetworkConfig(levels=1)
    with pytest.raises(InvalidArgument):
        NetworkConfig(base_channels=0)


def test_width_is_bounded_before_allocation():
    # a 2^42-channel bottleneck would need PiBs; the bound fires before any allocation
    with pytest.raises(InvalidArgument, match="4398046511104 channels at the bottleneck"):
        FudsaNet(NetworkConfig(levels=2, base_channels=2 ** 40))
    with pytest.raises(InvalidArgument, match="1028 channels"):
        FudsaNet(NetworkConfig(levels=2, base_channels=257))
    FudsaNet(NetworkConfig(levels=2, base_channels=256), seed=None)  # exactly 1024 is allowed


def test_levels_too_large_to_shift_by_are_bounded_without_2_to_the_levels():
    # 1 << 2^40 once raised a bare MemoryError from both checks; the width message
    # names no channel count it could not compute
    cfg = NetworkConfig(levels=2 ** 40)

    def check():
        with pytest.raises(InvalidArgument,
                           match=rf"= 16 \* 2\^{2 ** 40} channels at the bottleneck"):
            FudsaNet(cfg)
        with pytest.raises(ShapeMismatch, match=rf"divisible by 2\^{2 ** 40}"):
            cfg.check_extent(2 ** 64, 32)

    assert traced_peak(check) < 2 ** 20
    with pytest.raises(InvalidArgument, match="2048 channels"):
        FudsaNet(NetworkConfig(levels=10, base_channels=2))
    FudsaNet(NetworkConfig(levels=10, base_channels=1), seed=None)  # 1024 at 2^10: allowed


def test_variant_table():
    assert VARIANTS == {"full": {}, "I": {"spatial_only": True},
                        "II": {"deep_supervision": False}, "III": {"decoder_residuals": False}}
    full = NetworkConfig()
    assert (full.spatial_only, full.deep_supervision, full.decoder_residuals) == \
        (False, True, True)
    # a variant sets every flag: the ones it does not name go back to the full model's
    cfg = NetworkConfig(levels=3, dtype="f64", spatial_only=True).with_variant("II")
    assert cfg == NetworkConfig(levels=3, dtype="f64", deep_supervision=False)
