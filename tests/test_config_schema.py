"""One config schema: config.txt and the checkpoint's cfg/ entries follow the
config dataclasses.  Golden digests pin the bytes written; they last moved
when the retired options' lines and entries were dropped, and nothing else
changed.  Files written before that still load (tests/legacy/)."""

import hashlib
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from fudsa import cli
from fudsa import data as D
from fudsa import tensor as T
from fudsa.losses import LossConfig
from fudsa.network import FudsaNet, NetworkConfig, VARIANTS, VariantFlags
from fudsa.training import (AdamState, TrainConfig, adam_step, load_checkpoint,
                            save_checkpoint)

LEGACY = Path(__file__).parent / "legacy"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


F64_NET = NetworkConfig(levels=3, base_channels=4, dtype="f64", sdc_dilations=(1, 3),
                        variant=VARIANTS["I"])
CUSTOM_TRAIN = TrainConfig(learning_rate=3e-4, batch_size=2, max_epochs=7, patience=2,
                           min_delta=0.0, seed=11,
                           loss=LossConfig(alpha=0.6, beta=0.4, gamma=1.5, smooth=1e-5))


def test_render_config_golden_digests():
    assert sha256(cli.render_config(NetworkConfig(), TrainConfig()).encode()) == \
        "65044c7c23d9fb72ac3bbb346ac97131a33b2713b5581dad53adffbcd12e1e68"
    assert sha256(cli.render_config(F64_NET, CUSTOM_TRAIN).encode()) == \
        "d0d0b9901c707b19e133cd07e9234747d7d56f33df390a6f7afe6d1195fe6920"


def test_checkpoint_golden_digests(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(FudsaNet(NetworkConfig(levels=2, base_channels=4, variant=VARIANTS["II"]),
                             seed=3), None, path)
    assert sha256(path.read_bytes()) == \
        "de44b86465154b4734d5998510556036681bfa7b0d6c124d3c4a928592153975"

    model = FudsaNet(F64_NET, seed=5)
    params = list(model.named_params())
    state = AdamState(params)
    for _, p in params:
        p.grad = np.ones_like(p.data)
    adam_step(params, state, TrainConfig(learning_rate=1e-3))
    save_checkpoint(model, state, path)
    assert sha256(path.read_bytes()) == \
        "e799cf3c4237e97c733b53921d18069b5ec42a67e11cce6f0be05010ad5cc93e"


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
positive = st.floats(1e-12, 1e3, allow_nan=False, allow_infinity=False)

network_configs = st.builds(
    NetworkConfig,
    levels=st.integers(2, 4),
    base_channels=st.integers(1, 3),
    input_channels=st.integers(1, 3),
    reduction=st.integers(1, 8),
    sdc_dilations=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    dtype=st.sampled_from(["f32", "f64"]),
    variant=st.builds(VariantFlags, st.booleans(), st.booleans(), st.booleans()))


@st.composite
def loss_configs(draw):
    alpha = draw(st.floats(0.0, 1.0))
    return LossConfig(alpha=alpha, beta=1.0 - alpha, gamma=draw(positive), smooth=draw(positive))


train_configs = st.builds(
    TrainConfig, learning_rate=positive, batch_size=st.integers(1, 64),
    max_epochs=st.integers(1, 1000), patience=st.integers(1, 100), min_delta=finite,
    seed=st.integers(0, 2**31), loss=loss_configs())


@given(network_configs, train_configs)
def test_config_survives_render_parse_build(net, tr):
    assert cli._build_configs(cli.parse_config_text(cli.render_config(net, tr))) == (net, tr)


@settings(max_examples=25, deadline=None)
@given(network_configs)
def test_network_config_survives_save_load(net):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(FudsaNet(net, seed=None), None, path)
        loaded, state = load_checkpoint(path)
    assert loaded.config == net and state is None


# ---------------------------------------------------------------------------
# files written before upsample_mode, channel_branch_includes_sl and
# side_weights were retired (tests/legacy/README.md says how they were made)

def fud1_entries(blob):
    """{name: array} of every entry of a FUD1 container, parsed without load_checkpoint."""
    (count,) = struct.unpack_from("<I", blob, 4)
    pos, entries = 8, {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, pos)
        name = blob[pos + 2:pos + 2 + nlen].decode()
        entries[name], pos = T._parse_ften(blob, pos + 2 + nlen)
    assert pos == len(blob)
    return entries


LEGACY_NET = NetworkConfig(levels=2, base_channels=1)


def test_legacy_config_txt_loads():
    old = (LEGACY / "config.txt").read_text()
    assert "upsample_mode=bilinear\n" in old and "channel_branch_includes_sl=false\n" in old
    net, tr = cli._build_configs(cli.parse_config_text(old))
    assert (net, tr) == (LEGACY_NET, TrainConfig(batch_size=2, max_epochs=1))
    assert cli.render_config(net, tr) == old.replace("upsample_mode=bilinear\n", "").replace(
        "channel_branch_includes_sl=false\n", "")


def test_legacy_checkpoint_loads_and_forwards_as_written(tmp_path):
    model, state = load_checkpoint(LEGACY / "final.ckpt")
    assert model.config == LEGACY_NET and state is None
    x = D.synth_phantom(9, 16).image
    # final_map.ften is the forward of the same image by the code that wrote the checkpoint
    assert np.array_equal(model(x).final_map.data, T.read_ften(LEGACY / "final_map.ften"))

    stored = fud1_entries((LEGACY / "final.ckpt").read_bytes())
    fresh = FudsaNet(LEGACY_NET, seed=None)
    for name, p in fresh.named_params():
        p.data = stored[f"p/{name}"].copy()
    assert np.array_equal(fresh(x).final_map.data, model(x).final_map.data)

    save_checkpoint(model, None, tmp_path / "resaved.ckpt")
    resaved = fud1_entries((tmp_path / "resaved.ckpt").read_bytes())
    retired = {"cfg/upsample_bilinear", "cfg/channel_branch_includes_sl"}
    assert set(stored) - set(resaved) == retired and len(resaved) == len(stored) - 2
    assert all(np.array_equal(resaved[k], stored[k]) for k in resaved)
