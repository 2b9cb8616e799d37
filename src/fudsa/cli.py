"""Command-line interface: synth, preprocess, train, eval, predict, gradcheck.

Exit codes: 0 success, 1 check failure, 2 usage/validation error,
3 numerical divergence.

All randomness derives from one --seed; subsystem seeds use fixed offsets:
phantom i uses seed+i, the train/val split uses seed+1, parameter
initialization uses seed+2, epoch shuffling uses seed+3, gradient-check
coordinate sampling uses seed+4.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import data as D
from . import tensor as T
from .errors import FudsaError, InvalidArgument, NumericalDivergence
from .layers import MLP_REDUCTION, SDC_DILATIONS
from .losses import METRICS_CSV_HEADER, LossConfig, metrics_csv_row
from .network import INPUT_CHANNELS, FudsaNet, NetworkConfig, VARIANTS
from .training import (MASK_THRESHOLD, MIN_DELTA, TrainConfig, all_finite, evaluate,
                       gradient_check, load_checkpoint, save_checkpoint, train)

# config.txt keys are the config fields, in field order; each parses as its default's type
_KEY_TYPES = {f.name: type(f.default) for f in fields(NetworkConfig) + fields(TrainConfig)}

# retired option -> the config.txt text that remains (None: never written); files written
# before the removal load, and any other value is an error
RETIRED = {"upsample_mode": "bilinear", "channel_branch_includes_sl": "false",
           "side_weights": None, "input_channels": str(INPUT_CHANNELS),
           "reduction": str(MLP_REDUCTION), "sdc_dilations": ",".join(map(str, SDC_DILATIONS)),
           "min_delta": str(MIN_DELTA),
           **{f.name: str(f.default) for f in fields(LossConfig)}}


def _parse_value(kind, raw):
    """One config.txt value of the field's type; ValueError if it does not parse."""
    if kind is bool:
        if raw not in ("true", "false"):
            raise ValueError("expected true or false")
        return raw == "true"
    return kind(raw)


def _same_value(raw, keep):
    """Whether a retired key's text names the value that remains: its comma-separated
    fields compare as floats when both sides parse, else as text."""
    try:
        return [float(f) for f in raw.split(",")] == [float(f) for f in keep.split(",")]
    except ValueError:
        return raw == keep


def parse_config_text(text):
    """Flat key=value lines, '#' comments; the keys are the config fields."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgument(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in RETIRED:  # skipped if it holds the value that remains
            keep = RETIRED[key]
            if keep is None or not _same_value(raw, keep):
                raise InvalidArgument(f"config line {lineno}: {key} is a retired option"
                                      + (f"; only {key}={keep} is accepted" if keep else ""))
            continue
        if key not in _KEY_TYPES:
            raise InvalidArgument(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise InvalidArgument(f"config line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _parse_value(_KEY_TYPES[key], raw)
        except ValueError as exc:
            raise InvalidArgument(f"config line {lineno}: bad {key} value {raw!r}: {exc}") from None
    return values


def render_config(net: NetworkConfig, tr: TrainConfig):
    """config.txt text: every config field in field order, booleans as true/false."""
    return "".join(f"{name}={str(value).lower() if isinstance(value, bool) else value}\n"
                   for cfg in (net, tr) for name, value in asdict(cfg).items())


def _build_configs(values):
    """The two configs from {key: value}; missing keys keep the dataclass defaults."""
    return tuple(cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})
                 for cls in (NetworkConfig, TrainConfig))


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args):
    out = Path(args.out)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(parents=True, exist_ok=True)
    ids = []
    for i in range(args.count):
        hu, mask, _ = D.synth_phantom_fields(args.seed + i, args.size)
        ident = f"phantom{args.seed + i:06d}"
        D.write_raw_slice(out / "images" / f"{ident}.pgm", hu)
        D.write_mask(out / "masks" / f"{ident}.pgm", mask)
        ids.append(ident)
    D.write_manifest(out / "manifest.txt", ids)
    print(f"wrote {len(ids)} phantom pairs to {out}")
    return 0


def cmd_preprocess(args):
    src, out = Path(args.indir), Path(args.out)
    ids, _ = D.read_manifest(src / "manifest.txt")
    pairs = []
    for ident in ids:
        hu = D.read_raw_slice(src / "images" / f"{ident}.pgm")
        img = D.window_and_normalize(hu, args.lo_hu, args.hi_hu)
        mask = T.Tensor(D.read_mask(src / "masks" / f"{ident}.pgm")[np.newaxis, np.newaxis])
        pairs.append(D.resize_pair(D.SamplePair(img, mask, ident), args.size))
    pairs = D.filter_lesion_slices(pairs)
    split = D.split_dataset([p.identifier for p in pairs], args.seed + 1)
    if not split.val_ids:
        raise InvalidArgument(
            f"only {len(pairs)} lesion slices; the split leaves none for validation")
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(parents=True, exist_ok=True)
    for p in pairs:
        D.write_image01(out / "images" / f"{p.identifier}.pgm", p.image)
        D.write_mask(out / "masks" / f"{p.identifier}.pgm", p.mask)
    D.write_manifest(out / "manifest.txt", [p.identifier for p in pairs], split)
    print(f"lo_hu={args.lo_hu} hi_hu={args.hi_hu} size={args.size}")
    print(f"kept {len(pairs)} of {len(ids)} slices; "
          f"split {len(split.train_ids)}/{len(split.val_ids)}")
    return 0


def _read_split(root):
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise InvalidArgument(f"missing manifest: {manifest}")
    _, split = D.read_manifest(manifest)
    if split is None:
        raise InvalidArgument(f"{manifest} has no split sections; run preprocess first")
    return split


def cmd_train(args):
    values = parse_config_text(D.read_utf8(args.config)) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if k in _KEY_TYPES and v is not None)
    net_cfg, tr_cfg = _build_configs(values)
    if args.variant:
        net_cfg = net_cfg.with_variant(args.variant)

    root = Path(args.data)
    split = _read_split(root)
    train_set, val_set = D.load_pairs(root, split.train_ids), D.load_pairs(root, split.val_ids)
    for pair in train_set[:1] + val_set[:1]:  # before the model is allocated
        net_cfg.check_extent(*pair.image.shape[2:])
    model = FudsaNet(net_cfg, seed=tr_cfg.seed + 2)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def log(rec):
        print(f"epoch {rec.epoch}: train {rec.train_loss:.4f} "
              f"val {rec.val_loss:.4f} dsc {rec.val_dsc:.4f}")

    report = train(model, train_set, val_set, replace(tr_cfg, seed=tr_cfg.seed + 3),
                   log=log if args.verbose else None)
    # no optimizer state: the best epoch's moments are not kept
    save_checkpoint(model, None, out / "best.ckpt")
    save_checkpoint(model, None, out / "final.ckpt")
    (out / "report.csv").write_text(report.csv())
    (out / "config.txt").write_text(render_config(net_cfg, tr_cfg),  # the seed as given
                                    encoding="utf-8")
    print(f"best epoch {report.best_epoch}, best val loss {report.best_val_loss:.6f}")
    return 0


def cmd_eval(args):
    model, _ = load_checkpoint(args.checkpoint)
    root = Path(args.data)
    split = _read_split(root)
    ids = split.train_ids if args.split == "train" else split.val_ids
    if not ids:
        raise InvalidArgument(f"the {args.split} split of {root / 'manifest.txt'} is empty")
    pairs = D.load_pairs(root, ids)
    record, _ = evaluate(model, pairs)
    print(METRICS_CSV_HEADER)
    print(metrics_csv_row(args.split, len(pairs), record))
    return 0


def cmd_predict(args):
    model, _ = load_checkpoint(args.checkpoint)
    img = D.read_image01(args.image)
    x = T.Tensor(img[np.newaxis, np.newaxis].astype(model.config.np_dtype))
    out = model(x)
    if not all_finite(out.final_map.data):  # no threshold makes a mask of it
        raise NumericalDivergence(f"{args.image}: the final map holds a NaN or an infinity")
    mask = (out.final_map.data[0, 0] >= MASK_THRESHOLD).astype(np.uint8)
    D.write_pgm(args.out, mask * 255, 255)
    if args.dump_attention:
        dump = Path(args.dump_attention)
        dump.mkdir(parents=True, exist_ok=True)
        for level, res in out.attn.items():
            T.write_ften(dump / f"att_l{level}_wcha.ften", res.channel_gate.data)
            T.write_ften(dump / f"att_l{level}_q.ften", res.spatial_gate.data)
    print(f"wrote {args.out}")
    return 0


def cmd_gradcheck(args):
    cfg = NetworkConfig(levels=args.levels, base_channels=args.channels,
                        dtype=args.precision)
    cfg.check_extent(args.size, args.size)
    model = FudsaNet(cfg, seed=args.seed + 2)
    pair = D.synth_phantom(args.seed, args.size)
    x = T.Tensor(pair.image.data.astype(cfg.np_dtype))
    y = T.Tensor(pair.mask.data.astype(cfg.np_dtype))
    tol = 1e-5 if args.precision == "f64" else 1e-3
    results = gradient_check(model, x, y, n_samples=args.samples, seed=args.seed + 4)
    failures = []
    for name, err in results:
        status = "ok" if err < tol else "FAIL"
        print(f"{status:4s} {err:.3e} {name}")
        if err >= tol:
            failures.append(name)
    worst = max(err for _, err in results)
    print(f"checked {len(results)} parameter tensors, max rel err {worst:.3e}, "
          f"tolerance {tol:g}")
    if failures:
        print("failing tensors: " + ", ".join(failures))
        return 1
    return 0


# ---------------------------------------------------------------------------

def _at_least(lo):
    """argparse type: an integer >= lo; a smaller one raises InvalidArgument."""
    def parse(raw):
        if int(raw) < lo:
            raise InvalidArgument(f"expected an integer >= {lo}, got {raw}")
        return int(raw)
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fudsa",
        description="Full-scale deeply supervised attention segmentation toolkit. "
                    "Subsystem seeds derive from --seed by fixed offsets "
                    "(+i phantom i, +1 split, +2 init, +3 shuffle, +4 gradcheck).")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic phantom dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=_at_least(0), default=16)
    p.add_argument("--size", type=_at_least(1), default=64)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("preprocess", help="window, normalize, resize, filter and split")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lo-hu", type=float, default=D.DEFAULT_LO_HU)
    p.add_argument("--hi-hu", type=float, default=D.DEFAULT_HI_HU)
    p.add_argument("--size", type=_at_least(1), default=64)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("train", help="train on a preprocessed dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=sorted(VARIANTS))
    for f in fields(TrainConfig):  # --learning-rate, ..., --seed: override the config key
        p.add_argument("--" + f.name.replace("_", "-"), type=_KEY_TYPES[f.name])
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val"), default="val")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="segment one image with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-attention")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--size", type=_at_least(1), default=32)
    p.add_argument("--precision", choices=("f32", "f64"), default="f64")
    p.add_argument("--samples", type=_at_least(1), default=20)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(fn=cmd_gradcheck)

    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except NumericalDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FudsaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
