import struct
import tracemalloc

import numpy as np
import pytest

from pathlib import Path

from fudsa import cli, schema
from fudsa import data as D
from fudsa import tensor as T
from fudsa.errors import InvalidArgument
from fudsa.network import FudsaNet, NetworkConfig
from fudsa.training import TrainConfig, save_checkpoint


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def raw_dir(tmp_path):
    d = tmp_path / "raw"
    assert run("synth", "--out", str(d), "--count", "6", "--size", "32",
               "--seed", "100") == 0
    return d


@pytest.fixture()
def data_dir(tmp_path, raw_dir):
    d = tmp_path / "proc"
    assert run("preprocess", "--in", str(raw_dir), "--out", str(d),
               "--size", "32", "--seed", "100") == 0
    return d


@pytest.fixture()
def trained(tmp_path, data_dir):
    out = tmp_path / "run"
    assert run("train", "--data", str(data_dir), "--out", str(out),
               "--seed", "0", "--learning-rate", "1e-4", "--max-epochs", "2",
               "--batch-size", "2") == 0
    return out


# ---------------------------------------------------------------------------
# config parsing

def test_config_roundtrip_through_render():
    values = cli.parse_config_text(
        "levels=3\nbase_channels=8\nlearning_rate=0.001\n"
        "spatial_only=true\nsdc_dilations=1,2,4\ngamma=1.5\n")
    net, tr = cli._build_configs(values)
    back = cli.parse_config_text(cli.render_config(net, tr))
    assert back["levels"] == 3
    assert back["base_channels"] == 8
    assert back["learning_rate"] == 0.001
    assert back["spatial_only"] is True
    assert back["sdc_dilations"] == (1, 2, 4)
    assert back["gamma"] == 1.5


def test_config_rejects_unknown_key():
    with pytest.raises(InvalidArgument):
        cli.parse_config_text("momentum=0.9\n")


def test_config_rejects_duplicate_and_malformed():
    with pytest.raises(InvalidArgument):
        cli.parse_config_text("levels=3\nlevels=4\n")
    with pytest.raises(InvalidArgument):
        cli.parse_config_text("just a line\n")
    with pytest.raises(InvalidArgument):
        cli.parse_config_text("spatial_only=yes\n")


@pytest.mark.parametrize("line", ["levels=abc", "sdc_dilations=1,x", "learning_rate=fast"])
def test_config_bad_value_names_the_line(line):
    with pytest.raises(InvalidArgument, match="config line 2: bad"):
        cli.parse_config_text("# first\n" + line + "\n")


@pytest.mark.parametrize("line", ["levels=abc", "sdc_dilations=1,x", "learning_rate=fast",
                                  "reduction=0", "sdc_dilations=1,0", "sdc_dilations=-1"])
def test_train_bad_config_value_exits_2(tmp_path, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    assert run("train", "--data", str(tmp_path / "none"), "--config", str(cfg),
               "--out", str(tmp_path / "o")) == 2


def test_config_keys_are_the_leaf_fields():
    net = dict(schema.leaf_items(NetworkConfig()))
    tr = dict(schema.leaf_items(TrainConfig()))
    assert not set(net) & set(tr)
    assert set(cli.parse_config_text(cli.render_config(NetworkConfig(), TrainConfig()))) \
        == set(net) | set(tr)
    assert len(set(net) | set(tr)) == 19
    assert not set(schema.RETIRED) & (set(net) | set(tr))


def test_build_configs_defaults_are_the_dataclass_defaults():
    assert cli._build_configs({}) == (NetworkConfig(), TrainConfig())


def test_config_comments_and_blanks_ok():
    values = cli.parse_config_text("# comment\n\nlevels=2  # trailing\n")
    assert values == {"levels": 2}


# ---------------------------------------------------------------------------
# synth

def test_synth_writes_expected_files(raw_dir):
    ids, split = D.read_manifest(raw_dir / "manifest.txt")
    assert len(ids) == 6 and split is None
    for ident in ids:
        assert (raw_dir / "images" / f"{ident}.pgm").exists()
        assert (raw_dir / "masks" / f"{ident}.pgm").exists()


def test_synth_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        assert run("synth", "--out", str(d), "--count", "3", "--size", "32",
                   "--seed", "7") == 0
    for sub in ("images", "masks"):
        for f in sorted((a / sub).iterdir()):
            assert f.read_bytes() == (b / sub / f.name).read_bytes()


def test_synth_rejects_bad_size(tmp_path):
    assert run("synth", "--out", str(tmp_path / "x"), "--count", "1",
               "--size", "0") == 2


def test_synth_size_follows_the_model_levels(tmp_path):
    # 40 px divides by 2^3, not 2^4: a 3-level model trains on it, a 4-level one is refused
    raw, proc = tmp_path / "raw", tmp_path / "proc"
    assert run("synth", "--out", str(raw), "--count", "6", "--size", "40",
               "--seed", "100") == 0
    assert run("preprocess", "--in", str(raw), "--out", str(proc),
               "--size", "40", "--seed", "100") == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("levels=3\nbase_channels=4\nmax_epochs=1\nbatch_size=2\n")
    assert run("train", "--data", str(proc), "--config", str(cfg),
               "--out", str(tmp_path / "l3")) == 0
    cfg.write_text("levels=4\nbase_channels=4\nmax_epochs=1\nbatch_size=2\n")
    assert run("train", "--data", str(proc), "--config", str(cfg),
               "--out", str(tmp_path / "l4")) == 2


# ---------------------------------------------------------------------------
# preprocess

def test_preprocess_outputs_and_split(data_dir):
    ids, split = D.read_manifest(data_dir / "manifest.txt")
    assert split is not None
    assert split.seed == 101  # --seed 100 plus the fixed split offset
    n = len(split.train_ids) + len(split.val_ids)
    assert n == len(ids)
    assert len(split.val_ids) >= 1
    img = D.read_image01(data_dir / "images" / f"{ids[0]}.pgm")
    assert img.shape == (32, 32)
    assert 0.0 <= img.min() and img.max() <= 1.0


def test_preprocess_deterministic(tmp_path, raw_dir):
    a = tmp_path / "pa"
    b = tmp_path / "pb"
    for d in (a, b):
        assert run("preprocess", "--in", str(raw_dir), "--out", str(d),
                   "--size", "32", "--seed", "5") == 0
    assert (a / "manifest.txt").read_text() == (b / "manifest.txt").read_text()
    for f in sorted((a / "images").iterdir()):
        assert f.read_bytes() == (b / "images" / f.name).read_bytes()


def test_preprocess_echoes_window_defaults(raw_dir, tmp_path, capsys):
    assert run("preprocess", "--in", str(raw_dir),
               "--out", str(tmp_path / "p"), "--size", "32") == 0
    out = capsys.readouterr().out
    assert "lo_hu=-1000.0" in out and "hi_hu=170.0" in out


def test_preprocess_rejects_empty_validation_split(tmp_path, capsys):
    # ceil(0.8 n) = n for n <= 4, so three slices leave nothing to validate on
    raw = tmp_path / "raw"
    assert run("synth", "--out", str(raw), "--count", "3", "--size", "32") == 0
    assert run("preprocess", "--in", str(raw), "--out", str(tmp_path / "p"),
               "--size", "32") == 2
    assert "none for validation" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("option, value", [("--lo-hu", "nan"), ("--hi-hu", "inf"),
                                           ("--lo-hu", "-inf")])
def test_preprocess_non_finite_window_exits_2(raw_dir, tmp_path, capsys, option, value):
    # a NaN bound once passed the lo < hi check and wrote all-zero images
    assert run("preprocess", "--in", str(raw_dir), "--out", str(tmp_path / "p"),
               "--size", "32", f"{option}={value}") == 2  # "-inf" alone reads as an option
    assert "need finite lo_hu < hi_hu" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_preprocess_missing_input_dir(tmp_path):
    assert run("preprocess", "--in", str(tmp_path / "nope"),
               "--out", str(tmp_path / "p")) == 2


# ---------------------------------------------------------------------------
# train

def test_train_writes_artifacts(trained):
    for name in ("best.ckpt", "final.ckpt", "report.csv", "config.txt"):
        assert (trained / name).exists(), name
    report = (trained / "report.csv").read_text().splitlines()
    assert report[0] == "epoch,train_loss,val_loss,val_dsc,val_iou,val_recall"


def test_train_variant_flag_echoed_in_config(tmp_path, data_dir):
    out = tmp_path / "run2"
    assert run("train", "--data", str(data_dir), "--out", str(out),
               "--variant", "II", "--max-epochs", "1", "--batch-size", "2") == 0
    cfg = cli.parse_config_text((out / "config.txt").read_text())
    assert cfg["deep_supervision"] is False
    assert cfg["decoder_residuals"] is True


def test_train_missing_manifest(tmp_path):
    assert run("train", "--data", str(tmp_path / "empty"),
               "--out", str(tmp_path / "o")) == 2


def test_train_unsplit_dataset_rejected(tmp_path, raw_dir):
    assert run("train", "--data", str(raw_dir), "--out", str(tmp_path / "o")) == 2


def test_train_manifest_section_before_split_exits_2(tmp_path, data_dir, capsys):
    manifest = data_dir / "manifest.txt"
    lines = manifest.read_text().splitlines()
    split_line = next(l for l in lines if l.startswith("# split"))
    lines.remove(split_line)
    manifest.write_text("\n".join(lines + [split_line]) + "\n")
    assert run("train", "--data", str(data_dir), "--out", str(tmp_path / "o")) == 2
    assert "before the '# split seed=' line" in capsys.readouterr().err


def test_train_overlapping_split_sections_exit_2(tmp_path, data_dir, capsys):
    manifest = data_dir / "manifest.txt"
    _, split = D.read_manifest(manifest)
    manifest.write_text(manifest.read_text() + split.train_ids[0] + "\n")  # also under val:
    assert run("train", "--data", str(data_dir), "--out", str(tmp_path / "o")) == 2
    assert "under both train: and val:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_split_mixing_image_extents_exits_2(tmp_path, data_dir, capsys, command):
    # batches stack a split's images, so one 16 px phantom among 32 px ones
    # once escaped as a bare ValueError from np.concatenate
    _, split = D.read_manifest(data_dir / "manifest.txt")
    small, odd = D.synth_phantom(seed=7, size=16), split.train_ids[-1]
    D.write_image01(data_dir / "images" / f"{odd}.pgm", small.image.data[0, 0])
    D.write_mask(data_dir / "masks" / f"{odd}.pgm", small.mask.data[0, 0])
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(FudsaNet(NetworkConfig(levels=2, base_channels=2)), None, ckpt)
    argv = (["train", "--out", str(tmp_path / "o"), "--max-epochs", "1"] if command == "train"
            else ["eval", "--checkpoint", str(ckpt), "--split", "train"])
    assert run(*argv, "--data", str(data_dir)) == 2
    assert f"{odd}: image (16, 16) vs {split.train_ids[0]}'s (32, 32)" in capsys.readouterr().err


def test_train_config_txt_reproduces_the_run(tmp_path, data_dir):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("levels=2\nbase_channels=4\nmax_epochs=2\nbatch_size=2\n")
    first, again = tmp_path / "first", tmp_path / "again"
    assert run("train", "--data", str(data_dir), "--config", str(cfg),
               "--out", str(first), "--seed", "5") == 0
    assert "seed=5\n" in (first / "config.txt").read_text()
    assert run("train", "--data", str(data_dir), "--config", str(first / "config.txt"),
               "--out", str(again)) == 0
    assert (again / "report.csv").read_bytes() == (first / "report.csv").read_bytes()
    assert (again / "config.txt").read_bytes() == (first / "config.txt").read_bytes()


def test_train_config_txt_written_before_retirement_reproduces(tmp_path, data_dir):
    # it holds upsample_mode=bilinear and channel_branch_includes_sl=false
    legacy = Path(__file__).parent / "legacy" / "config.txt"
    out = tmp_path / "o"
    assert run("train", "--data", str(data_dir), "--config", str(legacy), "--out", str(out)) == 0
    assert cli.parse_config_text((out / "config.txt").read_text()) == \
        cli.parse_config_text(legacy.read_text())


@pytest.mark.parametrize("line", ["upsample_mode=nearest", "channel_branch_includes_sl=true",
                                  "side_weights=0.5,0.5", "upsample_mode=bilinear,",
                                  "side_weights="])
def test_train_retired_option_with_another_value_exits_2(tmp_path, data_dir, capsys, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("levels=2\nbase_channels=1\nmax_epochs=1\n" + line + "\n")
    assert run("train", "--data", str(data_dir), "--config", str(cfg),
               "--out", str(tmp_path / "o")) == 2
    assert f"{line.split('=')[0]} is a retired option" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_levels_beyond_the_image_extent_exits_2(tmp_path, data_dir, capsys):
    # checked before the model is built: levels=40 once tried to allocate GiBs
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("levels=40\nmax_epochs=1\n")
    assert run("train", "--data", str(data_dir), "--config", str(cfg),
               "--out", str(tmp_path / "o")) == 2
    assert "input extents 32x32 must be divisible by 2^40" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_non_finite_learning_rate_exits_2(tmp_path, data_dir, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("levels=2\nbase_channels=4\nmax_epochs=1\nlearning_rate=nan\n")
    assert run("train", "--data", str(data_dir), "--config", str(cfg),
               "--out", str(tmp_path / "o")) == 2
    assert "learning_rate" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_config_file_applies(tmp_path, data_dir):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("levels=2\nbase_channels=4\nmax_epochs=1\nbatch_size=2\n")
    out = tmp_path / "run3"
    assert run("train", "--data", str(data_dir), "--config", str(cfg),
               "--out", str(out)) == 0
    echoed = cli.parse_config_text((out / "config.txt").read_text())
    assert echoed["levels"] == 2 and echoed["base_channels"] == 4


# ---------------------------------------------------------------------------
# eval

def test_eval_prints_csv(trained, data_dir, capsys):
    assert run("eval", "--data", str(data_dir),
               "--checkpoint", str(trained / "final.ckpt")) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "split,n_images,tp,fp,fn,tn,dsc,iou,recall"
    fields = lines[1].split(",")
    assert fields[0] == "val"
    assert all(len(f.split(".")[1]) == 4 for f in fields[6:])


def test_eval_train_split(trained, data_dir, capsys):
    assert run("eval", "--data", str(data_dir), "--split", "train",
               "--checkpoint", str(trained / "final.ckpt")) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("train,")


def test_eval_empty_split_exits_2(trained, data_dir, capsys):
    manifest = data_dir / "manifest.txt"
    text = manifest.read_text()
    manifest.write_text(text[:text.index("val:")] + "val:\n")  # hand-edited: no val ids
    assert run("eval", "--data", str(data_dir),
               "--checkpoint", str(trained / "final.ckpt")) == 2
    assert "val split" in capsys.readouterr().err


def test_eval_missing_checkpoint(data_dir, tmp_path):
    assert run("eval", "--data", str(data_dir),
               "--checkpoint", str(tmp_path / "nope.ckpt")) == 2


# ---------------------------------------------------------------------------
# predict

def test_predict_binary_mask(trained, data_dir, tmp_path):
    ids, _ = D.read_manifest(data_dir / "manifest.txt")
    img = data_dir / "images" / f"{ids[0]}.pgm"
    out = tmp_path / "pred.pgm"
    assert run("predict", "--checkpoint", str(trained / "final.ckpt"),
               "--image", str(img), "--out", str(out)) == 0
    mask, maxval = D.read_pgm(out)
    assert maxval == 255
    assert set(np.unique(mask)) <= {0, 255}
    assert mask.shape == (32, 32)


def test_predict_deterministic(trained, data_dir, tmp_path):
    ids, _ = D.read_manifest(data_dir / "manifest.txt")
    img = data_dir / "images" / f"{ids[0]}.pgm"
    outs = []
    for name in ("p1.pgm", "p2.pgm"):
        out = tmp_path / name
        assert run("predict", "--checkpoint", str(trained / "final.ckpt"),
                   "--image", str(img), "--out", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_predict_dumps_attention_gates(trained, data_dir, tmp_path):
    ids, _ = D.read_manifest(data_dir / "manifest.txt")
    img = data_dir / "images" / f"{ids[0]}.pgm"
    dump = tmp_path / "att"
    assert run("predict", "--checkpoint", str(trained / "final.ckpt"),
               "--image", str(img), "--out", str(tmp_path / "p.pgm"),
               "--dump-attention", str(dump)) == 0
    files = sorted(f.name for f in dump.iterdir())
    # one channel-gate and one spatial-gate record per decoder level
    assert files == sorted(
        [f"att_l{l}_wcha.ften" for l in range(1, 5)]
        + [f"att_l{l}_q.ften" for l in range(1, 5)])
    w = T.read_ften(dump / "att_l1_wcha.ften")
    q = T.read_ften(dump / "att_l1_q.ften")
    assert w.shape[2:] == (1, 1)   # channel gate is per-channel only
    assert q.shape[1] == 1         # spatial gate is a single map
    assert 0.0 < w.min() and w.max() < 1.0
    assert 0.0 < q.min() and q.max() < 1.0


def test_predict_rejects_indivisible_image(trained, tmp_path):
    D.write_image01(tmp_path / "odd.pgm", np.zeros((30, 30)))
    assert run("predict", "--checkpoint", str(trained / "final.ckpt"),
               "--image", str(tmp_path / "odd.pgm"),
               "--out", str(tmp_path / "o.pgm")) == 2


def test_predict_malformed_pgm_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(FudsaNet(NetworkConfig(levels=2, base_channels=2)), None, ckpt)
    (tmp_path / "bad.pgm").write_bytes(b"P5\nab 4\n255\n")
    assert run("predict", "--checkpoint", str(ckpt), "--image", str(tmp_path / "bad.pgm"),
               "--out", str(tmp_path / "o.pgm")) == 2
    assert "not an integer" in capsys.readouterr().err


def test_predict_cost_is_bounded_for_huge_dilations(tmp_path):
    # a cfg/sdc_dilations entry edited from 4.0 to 1e6 once made predict pad a
    # 16 px map to 2000016 px a side (58 TiB); taps that read only padding are
    # dropped, so every dilation of 16 or more runs the same 1x1 conv
    ckpt, image = tmp_path / "m.ckpt", tmp_path / "i.pgm"
    save_checkpoint(FudsaNet(NetworkConfig(levels=2, base_channels=4), seed=1), None, ckpt)
    D.write_image01(image, D.synth_phantom(seed=3, size=16).image.data[0, 0])
    blob = bytearray(ckpt.read_bytes())
    name = b"cfg/sdc_dilations"
    at = blob.index(name) + len(name) + 12 + 4 * 8 + 2 * 8  # the third of (1, 2, 4)
    assert struct.unpack_from("<d", blob, at) == (4.0,)
    peaks = {}
    for d in (4.0, 16.0, 1e6):
        struct.pack_into("<d", blob, at, d)
        ckpt.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            assert run("predict", "--checkpoint", str(ckpt), "--image", str(image),
                       "--out", str(tmp_path / f"{d}.pgm")) == 0
            peaks[d] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1e6] <= 2 * peaks[4.0]
    assert (tmp_path / "1000000.0.pgm").read_bytes() == (tmp_path / "16.0.pgm").read_bytes()


def test_predict_corrupt_checkpoint_exits_2(tmp_path, capsys):
    # an FTEN rank byte above numpy's 64 axes once escaped as a bare ValueError
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(FudsaNet(NetworkConfig(levels=2, base_channels=2)), None, ckpt)
    blob = bytearray(ckpt.read_bytes())
    blob[blob.index(b"FTEN") + 6] = 200
    ckpt.write_bytes(bytes(blob))
    D.write_image01(tmp_path / "i.pgm", np.zeros((16, 16)))
    assert run("predict", "--checkpoint", str(ckpt), "--image", str(tmp_path / "i.pgm"),
               "--out", str(tmp_path / "o.pgm")) == 2
    assert "FTEN shape" in capsys.readouterr().err


@pytest.mark.parametrize("entry, value", [("cfg/upsample_bilinear", 0.0),
                                          ("cfg/channel_branch_includes_sl", 1.0),
                                          ("cfg/upsample_bilinear", float("nan"))])
def test_predict_retired_checkpoint_entry_with_another_value_exits_2(tmp_path, capsys,
                                                                     entry, value):
    blob = bytearray((Path(__file__).parent / "legacy" / "final.ckpt").read_bytes())
    at = blob.index(entry.encode()) + len(entry) + 12 + 4 * 8  # past a rank-4 FTEN header
    struct.pack_into("<d", blob, at, value)
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(bytes(blob))
    D.write_image01(tmp_path / "i.pgm", np.zeros((16, 16)))
    assert run("predict", "--checkpoint", str(ckpt), "--image", str(tmp_path / "i.pgm"),
               "--out", str(tmp_path / "o.pgm")) == 2
    assert f"{entry} holds {value}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck

def test_gradcheck_small_passes(capsys):
    assert run("gradcheck", "--levels", "2", "--channels", "4",
               "--size", "16", "--samples", "3") == 0
    out = capsys.readouterr().out
    assert "max rel err" in out
    assert "FAIL" not in out


def test_gradcheck_corruption_detected(capsys, sigmoid_doubled_grad):
    code = run("gradcheck", "--levels", "2", "--channels", "4",
               "--size", "16", "--samples", "3")
    assert code == 1
    assert "final_head.weight" in capsys.readouterr().out


def test_gradcheck_rejects_bad_size():
    assert run("gradcheck", "--levels", "3", "--size", "20") == 2


def test_gradcheck_levels_beyond_size_exits_2(capsys):
    # checked before the model is built: levels=40 once tried to allocate GiBs
    assert run("gradcheck", "--levels", "40", "--size", "32") == 2
    assert "input extents 32x32 must be divisible by 2^40" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bounded options and OS errors: exit 2, not a traceback

@pytest.mark.parametrize("command, option, value, lo", [
    ("synth", "--seed", "-3", 0),
    ("preprocess", "--seed", "-3", 0),
    ("gradcheck", "--seed", "-3", 0),
    ("synth", "--count", "-2", 0),
    ("gradcheck", "--size", "0", 1),
    ("gradcheck", "--samples", "-1", 1),
])
def test_out_of_range_option_exits_2(tmp_path, raw_dir, capsys, command, option, value, lo):
    paths = {"synth": ["--out", str(tmp_path / "s")],
             "preprocess": ["--in", str(raw_dir), "--out", str(tmp_path / "p")],
             "gradcheck": ["--levels", "2", "--channels", "2", "--size", "16"]}[command]
    assert run(command, *paths, option, value) == 2
    assert f"expected an integer >= {lo}, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "s").exists() and not (tmp_path / "p").exists()


@pytest.mark.parametrize("option, config, field", [
    (["--seed", "-7"], "", "seed"),
    ([], "seed=-9\n", "seed"),
    (["--max-epochs", "0"], "", "max_epochs"),
])
def test_train_out_of_range_seed_or_epochs_exits_2(tmp_path, data_dir, capsys, option, config,
                                                   field):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("levels=2\nbase_channels=2\nmax_epochs=1\n" + config)
    assert run("train", "--data", str(data_dir), "--config", str(cfg),
               "--out", str(tmp_path / "o"), *option) == 2
    assert f"{field} must be >= " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_checkpoint_that_is_a_directory_exits_2(tmp_path, capsys):
    D.write_image01(tmp_path / "x.pgm", np.zeros((16, 16)))
    assert run("predict", "--checkpoint", str(tmp_path), "--image", str(tmp_path / "x.pgm"),
               "--out", str(tmp_path / "o.pgm")) == 2
    assert "error:" in capsys.readouterr().err


def test_output_below_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert run("synth", "--out", str(tmp_path / "file" / "x"), "--count", "1",
               "--size", "16") == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# parser plumbing

def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["--help"])
    out = capsys.readouterr().out
    for name in ("synth", "preprocess", "train", "eval", "predict", "gradcheck"):
        assert name in out


def test_seed_offsets_documented_in_help(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["--help"])
    out = capsys.readouterr().out
    assert "+1 split" in out and "+2 init" in out
