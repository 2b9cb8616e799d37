import struct
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pathlib import Path

from fudsa import cli
from fudsa import data as D
from fudsa import tensor as T
from fudsa.errors import InvalidArgument
from fudsa.losses import LossConfig
from fudsa.network import FudsaNet, NetworkConfig
from fudsa.training import AdamState, TrainConfig, load_checkpoint, save_checkpoint

from conftest import repeat_record, replace_record, traced_peak


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
        "spatial_only=true\n")
    net, tr = cli._build_configs(values)
    back = cli.parse_config_text(cli.render_config(net, tr))
    assert back["levels"] == 3
    assert back["base_channels"] == 8
    assert back["learning_rate"] == 0.001
    assert back["spatial_only"] is True


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


@pytest.mark.parametrize("line", ["levels=abc", "patience=1.5", "learning_rate=fast"])
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
    net = {f.name for f in fields(NetworkConfig)}
    tr = {f.name for f in fields(TrainConfig)}
    assert not net & tr
    assert set(cli._KEY_TYPES) == net | tr
    assert list(cli.parse_config_text(cli.render_config(NetworkConfig(), TrainConfig()))) \
        == list(cli._KEY_TYPES)
    assert len(net | tr) == 11
    assert not set(cli.RETIRED) & (net | tr)
    assert set(cli._KEY_TYPES.values()) <= {bool, int, float, str}  # one value per key, no tuples
    assert TrainConfig().loss == LossConfig()  # the paper's loss, not a key


def test_build_configs_defaults_are_the_dataclass_defaults():
    assert cli._build_configs({}) == (NetworkConfig(), TrainConfig())


def test_config_comments_and_blanks_ok():
    values = cli.parse_config_text("# comment\n\nlevels=2  # trailing\n")
    assert values == {"levels": 2}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 200), st.integers(0, 20000), st.booleans())
@example(2, 20000, False)  # two-byte comment lines: the largest multiple measured
@example(200, 20000, True)
def test_config_read_peaks_within_a_multiple_of_the_file(width, count, bom):
    comment = "#" + "x" * (width - 1) if width else ""
    text = ("\ufeff" if bom else "") + (comment + "\n") * count \
        + cli.render_config(NetworkConfig(), TrainConfig())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.txt"
        path.write_text(text, encoding="utf-8")
        size = path.stat().st_size
        peak = traced_peak(lambda: cli.parse_config_text(D.read_utf8(path)))
        values = cli.parse_config_text(D.read_utf8(path))
    assert peak <= 40 * size + 64 * 1024, (peak, size)
    assert cli._build_configs(values) == (NetworkConfig(), TrainConfig())


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


def test_preprocess_id_listed_twice_exits_2(tmp_path, raw_dir, capsys):
    # it once wrote a split holding the id under both train: and val:
    manifest = raw_dir / "manifest.txt"
    first = D.read_manifest(manifest)[0][0]
    manifest.write_text(manifest.read_text() + first + "\n")
    assert run("preprocess", "--in", str(raw_dir), "--out", str(tmp_path / "p"),
               "--size", "32") == 2
    assert f"id {first!r} is listed twice" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("ident", ["../../outside", "..", "a\0b"])
def test_preprocess_id_that_is_not_a_file_name_exits_2(tmp_path, raw_dir, capsys, ident):
    # "../../outside" once read <in>/../outside.pgm, overwrote that file outside --out
    # and exited 0; an id holding NUL ended in a ValueError traceback
    outside = tmp_path / "outside.pgm"  # both a raw slice and a mask: preprocess accepts it
    D.write_pgm(outside, np.tile(np.array([[0, 255]], dtype=np.uint16), (32, 16)), 65535)
    before = outside.read_bytes()
    manifest = raw_dir / "manifest.txt"
    manifest.write_text(manifest.read_text() + ident + "\n")
    assert run("preprocess", "--in", str(raw_dir), "--out", str(tmp_path / "p"),
               "--size", "32") == 2
    assert f"id {ident!r} is not a plain file name" in capsys.readouterr().err
    assert outside.read_bytes() == before
    assert not (tmp_path / "p").exists()


def test_preprocess_manifest_not_utf8_exits_2(tmp_path, raw_dir, capsys):
    manifest = raw_dir / "manifest.txt"
    manifest.write_bytes(manifest.read_bytes() + b"\xff\xfe\n")
    assert run("preprocess", "--in", str(raw_dir), "--out", str(tmp_path / "p"),
               "--size", "32") == 2
    assert f"{manifest}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_preprocess_rejects_empty_validation_split(tmp_path, capsys):
    # ceil(0.8 n) = n for n <= 4, so three slices leave nothing to validate on
    raw = tmp_path / "raw"
    assert run("synth", "--out", str(raw), "--count", "3", "--size", "32") == 0
    assert run("preprocess", "--in", str(raw), "--out", str(tmp_path / "p"),
               "--size", "32") == 2
    assert "none for validation" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("option, value", [("--lo-hu", "nan"), ("--hi-hu", "inf"),
                                           ("--lo-hu", "-inf"), ("--lo-hu", "-1e39")])
def test_preprocess_non_finite_window_exits_2(raw_dir, tmp_path, capsys, option, value):
    # a NaN bound once passed the lo < hi check and wrote all-zero images, and a bound
    # beyond float32's range wrote NaN images
    assert run("preprocess", "--in", str(raw_dir), "--out", str(tmp_path / "p"),
               "--size", "32", f"{option}={value}") == 2  # "-inf" alone reads as an option
    assert "need finite lo_hu < hi_hu" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("size", ["32", "64"])
def test_preprocess_mask_of_other_extents_exits_2(raw_dir, tmp_path, capsys, size):
    # 16 px masks of 32 px images were once written as mismatched pairs at --size 32,
    # and at --size 64 each mask was stretched onto its image; both exited 0
    ids, _ = D.read_manifest(raw_dir / "manifest.txt")
    for ident in ids:
        path = raw_dir / "masks" / f"{ident}.pgm"
        D.write_mask(path, D.read_mask(path)[::2, ::2])
    assert run("preprocess", "--in", str(raw_dir), "--out", str(tmp_path / "p"),
               "--size", size) == 2
    assert f"{ids[0]}: image (1, 1, 32, 32) vs mask (1, 1, 16, 16)" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_preprocess_8bit_raw_slice_exits_2(raw_dir, tmp_path, capsys):
    # an 8-bit image holds no Hounsfield units
    ident = D.read_manifest(raw_dir / "manifest.txt")[0][-1]
    image = raw_dir / "images" / f"{ident}.pgm"
    D.write_pgm(image, np.full((32, 32), 100, np.uint8), 255)
    assert run("preprocess", "--in", str(raw_dir), "--out", str(tmp_path / "p"),
               "--size", "32") == 2
    assert f"{image}: raw slices are 16-bit PGM" in capsys.readouterr().err
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


def test_train_verbose_prints_each_epoch_of_the_report(tmp_path, data_dir, trained, capsys):
    # the same run as the trained fixture's, with one line per epoch and the same report
    out = tmp_path / "verbose"
    capsys.readouterr()
    assert run("train", "--data", str(data_dir), "--out", str(out), "--verbose",
               "--seed", "0", "--learning-rate", "1e-4", "--max-epochs", "2",
               "--batch-size", "2") == 0
    report = (out / "report.csv").read_text()
    assert report == (trained / "report.csv").read_text()
    rows = [line.split(",") for line in report.splitlines()[1:-1]]  # less header and trailer
    assert len(rows) == 2
    printed = capsys.readouterr().out.splitlines()[:-1]  # less the closing best-epoch line
    assert printed == [f"epoch {r[0]}: train {float(r[1]):.4f} val {float(r[2]):.4f} "
                       f"dsc {r[3]}" for r in rows]


def test_train_best_checkpoint_holds_no_optimizer_state(trained):
    # it once held freshly zeroed moments at t = 0, which no run had: 3x final.ckpt's size
    assert load_checkpoint(trained / "best.ckpt")[1] is None


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
    # it holds the remaining value of every retired option but side_weights
    legacy = Path(__file__).parent / "legacy" / "config.txt"
    out = tmp_path / "o"
    assert run("train", "--data", str(data_dir), "--config", str(legacy), "--out", str(out)) == 0
    assert cli.parse_config_text((out / "config.txt").read_text()) == \
        cli.parse_config_text(legacy.read_text())


@pytest.mark.parametrize("line", ["upsample_mode=nearest", "channel_branch_includes_sl=true",
                                  "side_weights=0.5,0.5", "upsample_mode=bilinear,",
                                  "side_weights=", "input_channels=3", "reduction=2",
                                  "sdc_dilations=1,3", "min_delta=0", "reduction=4.5",
                                  "sdc_dilations=1,2", "alpha=2.0", "beta=-1.0", "gamma=1.5"])
def test_train_retired_option_with_another_value_exits_2(tmp_path, data_dir, capsys, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("levels=2\nbase_channels=1\nmax_epochs=1\n" + line + "\n")
    assert run("train", "--data", str(data_dir), "--config", str(cfg),
               "--out", str(tmp_path / "o")) == 2
    assert f"{line.split('=')[0]} is a retired option" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", ["min_delta=1e-5", "sdc_dilations=1, 2, 4", "reduction=4.0",
                                  "input_channels=01", "gamma=1.3333333333333333"])
def test_config_retired_option_spelling_the_remaining_value_is_skipped(line):
    # numeric fields compare as numbers, not as the text that train writes
    assert cli.parse_config_text("levels=2\n" + line + "\n") == {"levels": 2}


def test_train_config_starting_with_a_byte_order_mark_applies(tmp_path, data_dir):
    # the mark once read as part of the first key: "unknown key '\ufefflevels'", exit 2
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"\xef\xbb\xbflevels=2\nbase_channels=1\nmax_epochs=1\n")
    out = tmp_path / "o"
    assert run("train", "--data", str(data_dir), "--config", str(cfg), "--out", str(out)) == 0
    assert (out / "config.txt").read_bytes().startswith(b"levels=2\nbase_channels=1\n")


def test_train_options_override_the_same_config_keys(tmp_path, data_dir):
    in_file = {"learning_rate": 3e-4, "batch_size": 3, "max_epochs": 3, "patience": 5, "seed": 7}
    options = {"learning_rate": 2e-4, "batch_size": 2, "max_epochs": 1, "patience": 2, "seed": 3}
    assert set(in_file) == set(options) == {f.name for f in fields(TrainConfig)}
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("levels=2\nbase_channels=1\n"
                   + "".join(f"{k}={v}\n" for k, v in in_file.items()))
    argv = [arg for k, v in options.items() for arg in ("--" + k.replace("_", "-"), str(v))]
    out = tmp_path / "o"
    assert run("train", "--data", str(data_dir), "--config", str(cfg), "--out", str(out),
               *argv) == 0
    echoed = cli.parse_config_text((out / "config.txt").read_text())
    assert {k: echoed[k] for k in options} == options


def test_train_config_not_utf8_exits_2(tmp_path, data_dir, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"levels=2\n\xff\xfe\n")
    assert run("train", "--data", str(data_dir), "--config", str(cfg),
               "--out", str(tmp_path / "o")) == 2
    assert f"{cfg}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_width_beyond_the_bound_exits_2(tmp_path, data_dir, capsys):
    # checked before the model is built: this width once died with a MemoryError traceback
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"levels=2\nbase_channels={2 ** 40}\nmax_epochs=1\n")
    assert run("train", "--data", str(data_dir), "--config", str(cfg),
               "--out", str(tmp_path / "o")) == 2
    assert "at most 1024 are allowed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_levels_beyond_the_image_extent_exits_2(tmp_path, data_dir, capsys):
    # checked before the model is built: levels=40 once tried to allocate GiBs
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("levels=40\nmax_epochs=1\n")
    assert run("train", "--data", str(data_dir), "--config", str(cfg),
               "--out", str(tmp_path / "o")) == 2
    assert "input extents 32x32 must be divisible by 2^40" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_levels_too_large_to_shift_by_exits_2(tmp_path, data_dir, capsys):
    # 2^levels itself once died with a MemoryError traceback (exit 1)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"levels={2 ** 40}\nmax_epochs=1\n")
    assert run("train", "--data", str(data_dir), "--config", str(cfg),
               "--out", str(tmp_path / "o")) == 2
    assert f"input extents 32x32 must be divisible by 2^{2 ** 40}" in capsys.readouterr().err
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


def test_eval_checkpoint_with_misshapen_moment_exits_2(data_dir, tmp_path, capsys):
    # eval reads the Adam moments too: a wrong shape is a corrupt checkpoint
    model = FudsaNet(NetworkConfig(levels=2, base_channels=2))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(model, AdamState(model.named_params()), ckpt)
    ckpt.write_bytes(replace_record(ckpt.read_bytes(), "m/final_head.bias",
                                    np.zeros((1, 1, 1, 5), dtype=np.float32)))
    assert run("eval", "--data", str(data_dir), "--checkpoint", str(ckpt)) == 2
    assert "m/final_head.bias is float32 (1, 1, 1, 5)" in capsys.readouterr().err


def test_damaged_checkpoint_exits_2_from_predict_and_eval(data_dir, tmp_path, capsys):
    model = FudsaNet(NetworkConfig(levels=2, base_channels=2))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(model, AdamState(model.named_params()), ckpt)
    blob = ckpt.read_bytes()
    image = data_dir / "images" / f"{D.read_manifest(data_dir / 'manifest.txt')[0][0]}.pgm"
    for damaged in (blob[:len(blob) // 2], blob.replace(b"m/encoder", b"m/\xffncoder"),
                    blob + b"\0", repeat_record(blob, "v/final_head.bias")):
        ckpt.write_bytes(damaged)
        assert run("predict", "--checkpoint", str(ckpt), "--image", str(image),
                   "--out", str(tmp_path / "o.pgm")) == 2
        assert run("eval", "--data", str(data_dir), "--checkpoint", str(ckpt)) == 2
        assert capsys.readouterr().err.count(f"error: {ckpt}: ") == 2


@pytest.mark.parametrize("entry, value", [("p/final_head.bias", np.nan),
                                          ("m/final_head.bias", np.nan),
                                          ("v/encoder.0.conv1.weight", np.inf)])
def test_non_finite_checkpoint_entry_exits_2_from_predict_and_eval(data_dir, tmp_path, capsys,
                                                                    entry, value):
    # such a file once loaded, and predict wrote an all-zero mask and exited 0
    model = FudsaNet(NetworkConfig(levels=2, base_channels=2))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(model, AdamState(model.named_params()), ckpt)
    blob = bytearray(ckpt.read_bytes())
    struct.pack_into("<f", blob, blob.index(entry.encode()) + len(entry) + 12 + 4 * 8, value)
    ckpt.write_bytes(bytes(blob))
    image = data_dir / "images" / f"{D.read_manifest(data_dir / 'manifest.txt')[0][0]}.pgm"
    assert run("predict", "--checkpoint", str(ckpt), "--image", str(image),
               "--out", str(tmp_path / "o.pgm")) == 2
    assert run("eval", "--data", str(data_dir), "--checkpoint", str(ckpt)) == 2
    err = capsys.readouterr().err
    assert err.count("holds a NaN or an infinity") == 2 and entry[2:] in err
    assert not (tmp_path / "o.pgm").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the forward overflows
def test_non_finite_final_map_exits_3_from_predict_and_eval(data_dir, tmp_path, capsys):
    # finite weights scaled by 1e10 give an all-NaN final map, which once
    # thresholded to an empty mask
    model = FudsaNet(NetworkConfig(levels=2, base_channels=4), seed=0)
    for p in model.params():
        p.data *= 1e10
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(model, None, ckpt)
    image = data_dir / "images" / f"{D.read_manifest(data_dir / 'manifest.txt')[0][0]}.pgm"
    assert run("predict", "--checkpoint", str(ckpt), "--image", str(image),
               "--out", str(tmp_path / "o.pgm")) == 3
    assert run("eval", "--data", str(data_dir), "--checkpoint", str(ckpt)) == 3
    err = capsys.readouterr().err
    assert "the final map holds a NaN or an infinity" in err
    assert "non-finite final map for images 0.." in err
    assert not (tmp_path / "o.pgm").exists()


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


@pytest.mark.parametrize("entry, held", [("cfg/upsample_bilinear", "0.0"),
                                         ("cfg/channel_branch_includes_sl", "1.0"),
                                         ("cfg/upsample_bilinear", "nan"),
                                         ("cfg/input_channels", "3.0"),
                                         ("cfg/reduction", "2.0"),
                                         ("cfg/sdc_dilations", "1.0,2.0,8.0")])
def test_predict_retired_checkpoint_entry_with_another_value_exits_2(tmp_path, capsys,
                                                                     entry, held):
    # the whole entry is compared: (1, 2, 8) differs from (1, 2, 4) only in its last value
    values = [float(v) for v in held.split(",")]
    blob = bytearray((Path(__file__).parent / "legacy" / "final.ckpt").read_bytes())
    at = blob.index(entry.encode()) + len(entry) + 12 + 4 * 8  # past a rank-4 FTEN header
    struct.pack_into(f"<{len(values)}d", blob, at, *values)
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(bytes(blob))
    D.write_image01(tmp_path / "i.pgm", np.zeros((16, 16)))
    assert run("predict", "--checkpoint", str(ckpt), "--image", str(tmp_path / "i.pgm"),
               "--out", str(tmp_path / "o.pgm")) == 2
    assert f"{entry} holds {held}" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["cfg/spatial_only", "cfg/f64"])
def test_predict_boolean_checkpoint_entry_of_one_half_exits_2(tmp_path, capsys, entry):
    # a spatial_only of 0.5 once loaded as variant I and predicted a different mask
    blob = bytearray((Path(__file__).parent / "legacy" / "final.ckpt").read_bytes())
    at = blob.index(entry.encode()) + len(entry) + 12 + 4 * 8  # past a rank-4 FTEN header
    struct.pack_into("<d", blob, at, 0.5)
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(bytes(blob))
    D.write_image01(tmp_path / "i.pgm", np.zeros((16, 16)))
    assert run("predict", "--checkpoint", str(ckpt), "--image", str(tmp_path / "i.pgm"),
               "--out", str(tmp_path / "o.pgm")) == 2
    assert "boolean config entry holds 0.5" in capsys.readouterr().err
    assert not (tmp_path / "o.pgm").exists()


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


def test_gradcheck_levels_too_large_to_shift_by_exits_2(capsys):
    # 2^levels itself once died with a MemoryError traceback (exit 1)
    assert run("gradcheck", "--levels", str(2 ** 40)) == 2
    assert f"input extents 32x32 must be divisible by 2^{2 ** 40}" in capsys.readouterr().err


def test_gradcheck_width_beyond_the_bound_exits_2(capsys):
    assert run("gradcheck", "--levels", "2", "--channels", str(2 ** 40), "--size", "16") == 2
    assert "at most 1024 are allowed" in capsys.readouterr().err


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
