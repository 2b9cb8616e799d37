"""One config schema: config.txt and the checkpoint's cfg/ entries follow the
config dataclasses.  Golden digests pin the bytes written before the
listings were derived from the dataclass fields."""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from fudsa import cli
from fudsa.losses import LossConfig
from fudsa.network import FudsaNet, NetworkConfig, VARIANTS, VariantFlags
from fudsa.training import (AdamState, TrainConfig, adam_step, load_checkpoint,
                            save_checkpoint)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


F64_NET = NetworkConfig(levels=3, base_channels=4, dtype="f64", sdc_dilations=(1, 3),
                        variant=VARIANTS["I"])
CUSTOM_TRAIN = TrainConfig(learning_rate=3e-4, batch_size=2, max_epochs=7, patience=2,
                           min_delta=0.0, seed=11,
                           loss=LossConfig(alpha=0.6, beta=0.4, gamma=1.5, smooth=1e-5,
                                           side_weights=(0.5, 0.25, 0.25)))


def test_render_config_golden_digests():
    assert sha256(cli.render_config(NetworkConfig(), TrainConfig()).encode()) == \
        "879e63f49ed32838d67d7118a52ead7465c93de3deee233a05a97762ee29959c"
    assert sha256(cli.render_config(F64_NET, CUSTOM_TRAIN).encode()) == \
        "71697be45deccb4e01b089aa35949614ae0e45784392dc656b24b06c3c595e05"


def test_checkpoint_golden_digests(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(FudsaNet(NetworkConfig(levels=2, base_channels=4, upsample_mode="nearest",
                                           variant=VARIANTS["II"]), seed=3), None, path)
    assert sha256(path.read_bytes()) == \
        "3ac59830a2a03934d171c4cae1772fc01e3bb9eab9588360ccf12c55f194a4d8"

    model = FudsaNet(F64_NET, seed=5)
    params = list(model.named_params())
    state = AdamState(params)
    for _, p in params:
        p.grad = np.ones_like(p.data)
    adam_step(params, state, TrainConfig(learning_rate=1e-3))
    save_checkpoint(model, state, path)
    assert sha256(path.read_bytes()) == \
        "e60985ce457d88ab0d372a58739ee317f22c454f85b7a846fc437f8bf190fc62"


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
positive = st.floats(1e-12, 1e3, allow_nan=False, allow_infinity=False)

network_configs = st.builds(
    NetworkConfig,
    levels=st.integers(2, 4),
    base_channels=st.integers(1, 3),
    input_channels=st.integers(1, 3),
    reduction=st.integers(1, 8),
    sdc_dilations=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    upsample_mode=st.sampled_from(["bilinear", "nearest"]),
    dtype=st.sampled_from(["f32", "f64"]),
    variant=st.builds(VariantFlags, st.booleans(), st.booleans(), st.booleans(),
                      st.booleans()))


@st.composite
def loss_configs(draw):
    alpha = draw(st.floats(0.0, 1.0))
    weights = draw(st.none() | st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5))
    if weights is not None:
        weights = tuple(w / sum(weights) for w in weights)
    return LossConfig(alpha=alpha, beta=1.0 - alpha, gamma=draw(positive),
                      smooth=draw(positive), side_weights=weights)


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
