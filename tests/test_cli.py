import numpy as np
import pytest

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
        == (set(net) | set(tr)) - {"side_weights"}
    assert cli.parse_config_text("side_weights=0.5,0.5\n") == {"side_weights": (0.5, 0.5)}


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


# ---------------------------------------------------------------------------
# gradcheck

def test_gradcheck_small_passes(capsys):
    assert run("gradcheck", "--levels", "2", "--channels", "4",
               "--size", "16", "--samples", "3") == 0
    out = capsys.readouterr().out
    assert "max rel err" in out
    assert "FAIL" not in out


def test_gradcheck_corruption_detected(capsys):
    code = run("gradcheck", "--levels", "2", "--channels", "4",
               "--size", "16", "--samples", "3",
               "--corrupt", "final_head.weight")
    assert code == 1
    assert "final_head.weight" in capsys.readouterr().out


def test_gradcheck_unknown_corrupt_name_rejected():
    assert run("gradcheck", "--levels", "2", "--channels", "4",
               "--size", "16", "--samples", "1",
               "--corrupt", "no.such.param") == 2


def test_gradcheck_rejects_bad_size():
    assert run("gradcheck", "--levels", "3", "--size", "20") == 2


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
