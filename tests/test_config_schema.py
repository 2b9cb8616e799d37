"""One config schema: config.txt and the checkpoint's cfg/ entries follow the
config dataclasses.  Golden digests pin the bytes written; they moved when
the retired options' lines and entries were dropped (the loss keys' lines
most recently), and the variant-I checkpoint's when variant I stopped
building a channel branch.  Files written before that still load
(tests/legacy/, and the variant-layout test in test_training.py)."""

import hashlib
import io
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from fudsa import cli
from fudsa import data as D
from fudsa import tensor as T
from fudsa.errors import FudsaError
from fudsa.network import FudsaNet, NetworkConfig
from fudsa.training import (AdamState, TrainConfig, adam_step, load_checkpoint,
                            save_checkpoint)

LEGACY = Path(__file__).parent / "legacy"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


F64_NET = NetworkConfig(levels=3, base_channels=4, dtype="f64").with_variant("I")
CUSTOM_TRAIN = TrainConfig(learning_rate=3e-4, batch_size=2, max_epochs=7, patience=2, seed=11)


def test_render_config_golden_digests():
    assert sha256(cli.render_config(NetworkConfig(), TrainConfig()).encode()) == \
        "44eebd943457be88932f6b2e95c22da442c9b2f9dbf5a9589255f9620cb80d03"
    assert sha256(cli.render_config(F64_NET, CUSTOM_TRAIN).encode()) == \
        "af2fb1c9b31cb9a43d179279cf8828ae719c6c350c40f6dbcc09067f9e9d9d7f"


def test_checkpoint_golden_digests(tmp_path):
    path = tmp_path / "a.ckpt"
    net = NetworkConfig(levels=2, base_channels=4).with_variant("II")
    save_checkpoint(FudsaNet(net, seed=3), None, path)
    assert sha256(path.read_bytes()) == \
        "665d5bb9f87bb6d58af4baedf669f1b3ca3980ea2044a158b00d871b6654f9e7"

    model = FudsaNet(F64_NET, seed=5)
    params = list(model.named_params())
    state = AdamState(params)
    for _, p in params:
        p.grad = np.ones_like(p.data)
    adam_step(params, state, TrainConfig(learning_rate=1e-3))
    save_checkpoint(model, state, path)
    assert sha256(path.read_bytes()) == \
        "cae90a2f585530e3de23c3660ba9b109e250116cbe95f201f5eeb067975fe7e0"


positive = st.floats(1e-12, 1e3, allow_nan=False, allow_infinity=False)

network_configs = st.builds(
    NetworkConfig,
    levels=st.integers(2, 4),
    base_channels=st.integers(1, 3),
    dtype=st.sampled_from(["f32", "f64"]),
    spatial_only=st.booleans(),
    deep_supervision=st.booleans(),
    decoder_residuals=st.booleans())


train_configs = st.builds(
    TrainConfig, learning_rate=positive, batch_size=st.integers(1, 64),
    max_epochs=st.integers(1, 1000), patience=st.integers(1, 100),
    seed=st.integers(0, 2**31))


@given(network_configs, train_configs)
def test_config_survives_render_parse_build(net, tr):
    assert cli._build_configs(cli.parse_config_text(cli.render_config(net, tr))) == (net, tr)


# values of each field's type, good and bad; odd tails that a value may carry
TYPED_VALUES = {int: ["2", "3", "16", " 01", "1_0", "\u0663", "\uff12", "-1", "0"],
                float: ["2e-4", "0.7", "4.0", "5e-324", "nan", "inf", "1e400"],
                bool: ["true", "false"], str: ["f32", "f64"]}
ODD_TAILS = ["=", "#", "\0", "\ufeff", " ", ",", "1,2,4", "x"]


def config_line(key):
    """key=value, the value of the key's type (a retired key's: the one that remains)."""
    keep = cli.RETIRED.get(key)
    values = [keep] if keep else TYPED_VALUES.get(cli._KEY_TYPES.get(key), ["1"])
    tail = st.one_of(st.just(""), st.sampled_from(ODD_TAILS))
    return st.tuples(st.sampled_from(values), tail).map(lambda v: f"{key}={''.join(v)}")


CONFIG_KEYS = [*cli._KEY_TYPES, *cli.RETIRED, "momentum", "\ufefflevels", ""]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(CONFIG_KEYS).flatmap(config_line), max_size=4))
def test_config_lines_build_configs_that_round_trip_or_raise(lines):
    try:
        net, tr = cli._build_configs(cli.parse_config_text("\n".join(lines)))
    except FudsaError:
        return
    assert cli._build_configs(cli.parse_config_text(cli.render_config(net, tr))) == (net, tr)


@settings(max_examples=25, deadline=None)
@given(network_configs)
def test_network_config_survives_save_load(net):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(FudsaNet(net, seed=0), None, path)
        loaded, state = load_checkpoint(path)
    assert loaded.config == net and state is None


# ---------------------------------------------------------------------------
# files written before the options of cli.RETIRED (config.txt keys) and
# training.RETIRED_ENTRIES (FUD1 cfg/ entries) were retired
# (tests/legacy/README.md says how they were made)

def fud1_entries(blob):
    """{name: array} of every entry of a FUD1 container, parsed without load_checkpoint."""
    (count,) = struct.unpack_from("<I", blob, 4)
    fh, entries = io.BytesIO(blob[8:]), {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", fh.read(2))
        name = fh.read(nlen).decode()
        entries[name] = T.read_ften_record(fh, len(blob) - 8)
    assert fh.tell() == len(blob) - 8
    return entries


LEGACY_NET = NetworkConfig(levels=2, base_channels=1)


def test_legacy_config_txt_loads():
    old = (LEGACY / "config.txt").read_text()
    retired = [f"{key}={keep}\n" for key, keep in cli.RETIRED.items() if keep]
    assert len(retired) == 10 and all(line in old for line in retired)
    net, tr = cli._build_configs(cli.parse_config_text(old))
    assert (net, tr) == (LEGACY_NET, TrainConfig(batch_size=2, max_epochs=1))
    assert cli.render_config(net, tr) == "".join(
        line for line in old.splitlines(keepends=True) if line not in retired)


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
    retired = {"cfg/upsample_bilinear", "cfg/channel_branch_includes_sl", "cfg/input_channels",
               "cfg/reduction", "cfg/sdc_dilations"}
    assert set(stored) - set(resaved) == retired and len(resaved) == len(stored) - 5
    assert all(np.array_equal(resaved[k], stored[k]) for k in resaved)
