"""Adam training loop with early stopping, checkpointing and evaluation."""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import schema
from . import tensor as T
from .errors import CorruptCheckpoint, InvalidArgument, InvalidState, NumericalDivergence
from .losses import LossConfig, MetricsRecord, confusion_counts, supervised_loss
from .network import FudsaNet, NetworkConfig


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 4
    max_epochs: int = 300
    patience: int = 10
    min_delta: float = 1e-5
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise InvalidArgument(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not math.isfinite(self.min_delta):
            raise InvalidArgument(f"min_delta must be finite, got {self.min_delta}")
        for name, lo in (("patience", 1), ("batch_size", 1), ("max_epochs", 1), ("seed", 0)):
            if getattr(self, name) < lo:
                raise InvalidArgument(f"{name} must be >= {lo}, got {getattr(self, name)}")


class AdamState:
    def __init__(self, named_params):
        named_params = list(named_params)
        self.m = {name: np.zeros_like(p.data) for name, p in named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in named_params}
        self.t = 0


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
MASK_THRESHOLD = 0.5  # a pixel is foreground where the final map is >= this


def adam_step(named_params, state: AdamState, cfg: TrainConfig):
    """One Adam update over all parameters; missing grads count as zero."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in named_params:
        if name not in state.m or state.m[name].shape != p.data.shape:
            raise InvalidState(f"optimizer state does not match parameter {name!r}")
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_dsc: float
    val_iou: float
    val_recall: float


@dataclass
class TrainReport:
    epochs: list
    best_epoch: int
    best_val_loss: float
    stopped_early: bool

    def csv(self):
        lines = ["epoch,train_loss,val_loss,val_dsc,val_iou,val_recall"]
        for r in self.epochs:
            lines.append(f"{r.epoch},{r.train_loss:.6f},{r.val_loss:.6f},"
                         f"{r.val_dsc:.4f},{r.val_iou:.4f},{r.val_recall:.4f}")
        lines.append(f"# best_epoch={self.best_epoch} "
                     f"best_val_loss={self.best_val_loss:.6f} "
                     f"stopped_early={self.stopped_early}")
        return "\n".join(lines) + "\n"


def _stack(pairs, dtype):
    x = np.concatenate([p.image.data for p in pairs]).astype(dtype)
    y = np.concatenate([p.mask.data for p in pairs]).astype(dtype)
    return T.Tensor(x), T.Tensor(y)


def evaluate(model: FudsaNet, dataset, loss_cfg: LossConfig | None = None, chunk=8):
    """Pooled confusion counts over the whole set; no parameter mutation.

    The reported loss is the mean over images of the per-image supervised
    focal Tversky loss.
    """
    loss_cfg = loss_cfg or LossConfig()
    dtype = model.config.np_dtype
    tp = fp = fn = tn = 0
    losses = []
    for c0 in range(0, len(dataset), chunk):
        pairs = dataset[c0:c0 + chunk]
        x, y = _stack(pairs, dtype)
        out = model(x)
        heads = out.heads()
        for i in range(len(pairs)):
            image_heads = [T.Tensor(h.data[i:i + 1]) for h in heads]
            losses.append(
                supervised_loss(image_heads, T.Tensor(y.data[i:i + 1]), loss_cfg).item())
        pred = (out.final_map.data >= MASK_THRESHOLD).astype(dtype)
        c = confusion_counts(pred, y.data)
        tp, fp, fn, tn = tp + c[0], fp + c[1], fn + c[2], tn + c[3]
    return MetricsRecord.from_counts(tp, fp, fn, tn), float(np.mean(losses))


def _snapshot(model):
    return {name: p.data.copy() for name, p in model.named_params()}


def _restore(model, snap):
    for name, p in model.named_params():
        p.data[...] = snap[name]


def train(model: FudsaNet, train_set, val_set, cfg: TrainConfig,
          log=None) -> TrainReport:
    if not train_set or not val_set:
        raise InvalidArgument("train and validation sets must be nonempty")
    params = list(model.named_params())
    state = AdamState(params)
    dtype = model.config.np_dtype
    records = []
    best_loss = np.inf
    best_epoch = 0
    best_snap = _snapshot(model)
    bad_epochs = 0
    stopped = False

    for epoch in range(1, cfg.max_epochs + 1):
        order = np.arange(len(train_set))
        np.random.default_rng((cfg.seed, epoch)).shuffle(order)
        batch_losses = []
        for b0 in range(0, len(order), cfg.batch_size):
            batch = [train_set[i] for i in order[b0:b0 + cfg.batch_size]]
            x, y = _stack(batch, dtype)
            with T.Tape() as tape:
                out = model(x)
                loss = supervised_loss(out, y, cfg.loss)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericalDivergence(
                        f"non-finite loss at epoch {epoch}, batch {b0 // cfg.batch_size}")
                T.backward(loss, tape)
            adam_step(params, state, cfg)
            model.zero_grad()
            batch_losses.append(value)

        val_metrics, val_loss = evaluate(model, val_set, loss_cfg=cfg.loss)
        rec = EpochRecord(epoch, float(np.mean(batch_losses)), val_loss,
                          val_metrics.dsc, val_metrics.iou, val_metrics.recall)
        records.append(rec)
        if log:
            log(rec)

        if val_loss < best_loss - cfg.min_delta:
            best_loss = val_loss
            best_epoch = epoch
            best_snap = _snapshot(model)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                stopped = True
                break

    _restore(model, best_snap)
    return TrainReport(records, best_epoch, float(best_loss), stopped)


# ---------------------------------------------------------------------------
# checkpoints (FUD1 container of named FTEN entries)

_CKPT_MAGIC = b"FUD1"


def _config_entries(cfg: NetworkConfig):
    """cfg/ entries: the scalar leaf fields in field order (dtype as the flag f64), then tuples."""
    scalars, tuples = {}, {}
    for name, value in schema.leaf_items(cfg):
        if isinstance(value, tuple):
            tuples[f"cfg/{name}"] = np.array(value, dtype=np.float64).reshape(1, -1, 1, 1)
            continue
        if name == "dtype":
            name, value = "f64", value == "f64"
        scalars[f"cfg/{name}"] = np.full((1, 1, 1, 1), float(value), dtype=np.float64)
    return {**scalars, **tuples}


def _config_from_entries(entries):
    for option, (_, entry, keep) in schema.RETIRED.items():
        held = entries[entry].reshape(-1)[0] if entry in entries else keep
        if held != keep:
            raise CorruptCheckpoint(f"{entry} holds {held}, but {option} is retired "
                                    f"and only {keep} loads")
    values = {}
    for name, kind in schema.leaf_types(NetworkConfig).items():
        if name == "dtype":
            values[name] = "f64" if entries["cfg/f64"].reshape(-1)[0] else "f32"
        elif get_origin(kind) is tuple:
            item = get_args(kind)[0]
            values[name] = tuple(_entry_value(item, v) for v in entries[f"cfg/{name}"].reshape(-1))
        else:
            values[name] = _entry_value(kind, entries[f"cfg/{name}"].reshape(-1)[0])
    return schema.build(NetworkConfig, values)


def _entry_value(kind, v):
    """A stored float as ``kind``; an int field holding NaN, inf or a fraction is corrupt."""
    if kind is int and not float(v).is_integer():
        raise InvalidArgument(f"integer config entry holds {float(v)}")
    return kind(v)


def save_checkpoint(model: FudsaNet, state: AdamState | None, path):
    entries = dict(_config_entries(model.config))
    for name, p in model.named_params():
        entries[f"p/{name}"] = p.data
    if state is not None:
        entries["adam/t"] = np.full((1, 1, 1, 1), float(state.t), dtype=np.float64)
        for name in state.m:
            entries[f"m/{name}"] = state.m[name]
            entries[f"v/{name}"] = state.v[name]
    buf = io.BytesIO()
    buf.write(_CKPT_MAGIC)
    buf.write(struct.pack("<I", len(entries)))
    for name, arr in entries.items():
        raw = name.encode()
        buf.write(struct.pack("<H", len(raw)))
        buf.write(raw)
        T.write_ften(buf, arr)
    Path(path).write_bytes(buf.getvalue())


def load_checkpoint(path):
    """Rebuilds the model (and Adam state, if saved) from a FUD1 container.

    The model is built without initialisation and each stored tensor is
    copied once, straight from the file's bytes.
    """
    blob = Path(path).read_bytes()
    if blob[:4] != _CKPT_MAGIC:
        raise CorruptCheckpoint(f"{path}: bad magic {blob[:4]!r}")
    try:
        (count,) = struct.unpack_from("<I", blob, 4)
        pos = 8
        entries = {}
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            name = blob[pos:pos + nlen].decode()
            pos += nlen
            arr, pos = T._parse_ften(blob, pos)
            entries[name] = arr
        if pos != len(blob):
            raise CorruptCheckpoint(f"{path}: trailing bytes")
        config = _config_from_entries(entries)
        # FudsaNet allocates by levels and base_channels: match them to the stored encoder first
        first = entries.get("p/encoder.0.conv1.weight")
        if (first is None or first.shape != (config.base_channels, config.input_channels, 3, 3)
                or f"p/encoder.{config.levels - 1}.conv1.weight" not in entries
                or f"p/encoder.{config.levels}.conv1.weight" in entries):
            raise CorruptCheckpoint(
                f"{path}: cfg levels={config.levels}, base_channels={config.base_channels}, "
                f"input_channels={config.input_channels} do not match the stored encoder")
        model = FudsaNet(config, seed=None)
        for name, p in model.named_params():
            key = f"p/{name}"
            if key not in entries:
                raise CorruptCheckpoint(f"{path}: missing parameter {name!r}")
            if tuple(entries[key].shape) != p.shape:
                raise CorruptCheckpoint(
                    f"{path}: parameter {name!r} has shape {entries[key].shape}, "
                    f"expected {p.shape}")
            p.data = entries[key].astype(config.np_dtype)
        state = None
        if "adam/t" in entries:
            state = AdamState([])
            state.t = _entry_value(int, entries["adam/t"].reshape(-1)[0])
            for name, _ in model.named_params():
                state.m[name] = entries[f"m/{name}"].astype(config.np_dtype)
                state.v[name] = entries[f"v/{name}"].astype(config.np_dtype)
        return model, state
    except CorruptCheckpoint:
        raise
    except (struct.error, KeyError, IndexError, UnicodeDecodeError, InvalidArgument) as exc:
        raise CorruptCheckpoint(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# finite-difference gradient check

def gradient_check(model: FudsaNet, x: T.Tensor, y: T.Tensor, n_samples=20, seed=0):
    """Compare analytic parameter gradients against central differences.

    Returns a list of (name, max_relative_error) using the error measure
    |analytic - numeric| / max(1, |numeric|).

    Parameters are jittered in place to a generic point first.  Freshly
    built models have zero biases, and piecewise-constant inputs then leave
    many pre-activations exactly on the relu kink, where the two-sided
    difference quotient disagrees with any subgradient choice.
    """
    loss_cfg = LossConfig()
    f64 = model.config.dtype == "f64"
    h = 1e-6 if f64 else 1e-3

    jitter = np.random.default_rng(seed + 1)
    for _, p in model.named_params():
        p.data += jitter.normal(0.0, 1e-2, p.data.shape).astype(p.data.dtype)

    def loss_value():
        return supervised_loss(model(x), y, loss_cfg).item()

    with T.Tape() as tape:
        loss = supervised_loss(model(x), y, loss_cfg)
        T.backward(loss, tape)

    rng = np.random.default_rng(seed)
    results = []
    for name, p in model.named_params():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        n = min(n_samples, flat.size)
        coords = rng.choice(flat.size, size=n, replace=False)
        worst = 0.0
        for c in coords:
            keep = flat[c]
            flat[c] = keep + h
            fp_ = loss_value()
            flat[c] = keep - h
            fm_ = loss_value()
            flat[c] = keep
            numeric = (fp_ - fm_) / (2 * h)
            err = abs(analytic.reshape(-1)[c] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
        results.append((name, worst))
    model.zero_grad()
    return results
