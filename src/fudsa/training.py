"""Adam training loop with early stopping, checkpointing and evaluation."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from . import tensor as T
from .errors import CorruptCheckpoint, InvalidArgument, InvalidState, NumericalDivergence
from .layers import MLP_REDUCTION, SDC_DILATIONS
from .losses import LossConfig, MetricsRecord, confusion_counts, supervised_loss
from .network import INPUT_CHANNELS, FudsaNet, NetworkConfig


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 4
    max_epochs: int = 300
    patience: int = 10
    seed: int = 0
    loss: ClassVar[LossConfig] = LossConfig()  # the paper's one loss: not a config key

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise InvalidArgument(f"learning_rate must be finite and > 0, got {self.learning_rate}")
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
MIN_DELTA = 1e-5  # an epoch improves when its val loss is below the best by more than this
EVAL_CHUNK = 8  # images per forward in evaluate


def adam_step(named_params, state: AdamState, cfg: TrainConfig):
    """One Adam update over all parameters; missing grads count as zero.  In place, in
    the operation order of p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so bits match it."""
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
        a, u = np.empty_like(m), np.empty_like(m)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=a)
        v *= b2
        v += np.multiply(np.multiply(g, g, out=a), 1.0 - b2, out=a)
        denom = np.sqrt(np.divide(v, bc2, out=a), out=a)
        denom += ADAM_EPS
        step = np.divide(m, bc1, out=u)
        step *= cfg.learning_rate
        step /= denom
        p.data -= step


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


def all_finite(a):
    """No NaN or infinity in ``a``: two reductions, and no temporary of its size."""
    return math.isfinite(a.max()) and math.isfinite(a.min())


def _stack(pairs, dtype):
    x = np.concatenate([p.image.data for p in pairs]).astype(dtype)
    y = np.concatenate([p.mask.data for p in pairs]).astype(dtype)
    return T.Tensor(x), T.Tensor(y)


def evaluate(model: FudsaNet, dataset, loss_cfg: LossConfig | None = None):
    """Pooled confusion counts over the whole set; no parameter mutation.

    The reported loss is the mean over images of the per-image supervised
    focal Tversky loss.  A final map holding a NaN or an infinity, which no
    threshold can turn into a mask, raises NumericalDivergence.
    """
    loss_cfg = loss_cfg or LossConfig()
    dtype = model.config.np_dtype
    tp = fp = fn = tn = 0
    losses = []
    for c0 in range(0, len(dataset), EVAL_CHUNK):
        pairs = dataset[c0:c0 + EVAL_CHUNK]
        x, y = _stack(pairs, dtype)
        out = model(x)
        if not all_finite(out.final_map.data):
            raise NumericalDivergence(
                f"non-finite final map for images {c0}..{c0 + len(pairs) - 1}")
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
                # the heads alone: the other maps need not outlive the forward
                loss = supervised_loss(model(x).heads(), y, cfg.loss)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericalDivergence(
                        f"non-finite loss at epoch {epoch}, batch {b0 // cfg.batch_size}")
                T.backward(loss, tape)
            del tape, loss  # the tape's gradients need not outlive the step
            adam_step(params, state, cfg)
            model.zero_grad()
            batch_losses.append(value)

        val_metrics, val_loss = evaluate(model, val_set, loss_cfg=cfg.loss)
        rec = EpochRecord(epoch, float(np.mean(batch_losses)), val_loss,
                          val_metrics.dsc, val_metrics.iou, val_metrics.recall)
        records.append(rec)
        if log:
            log(rec)

        if val_loss < best_loss - MIN_DELTA:
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


# cfg/ entries of retired options -> the value that remains: checkpoints written before
# the removal load, and any other value is corrupt
RETIRED_ENTRIES = {"cfg/upsample_bilinear": 1.0, "cfg/channel_branch_includes_sl": 0.0,
                   "cfg/input_channels": INPUT_CHANNELS, "cfg/reduction": MLP_REDUCTION,
                   "cfg/sdc_dilations": SDC_DILATIONS}


def _config_entries(cfg: NetworkConfig):
    """cfg/ entries: the config fields in field order, dtype as the flag f64."""
    entries = {}
    for name, value in asdict(cfg).items():
        if name == "dtype":
            name, value = "f64", value == "f64"
        entries[f"cfg/{name}"] = np.full((1, 1, 1, 1), float(value), dtype=np.float64)
    return entries


def _config_from_entries(entries):
    for entry, keep in RETIRED_ENTRIES.items():
        held = entries[entry].reshape(-1) if entry in entries else None
        if held is not None and not np.array_equal(held, np.reshape(keep, -1)):  # every element
            raise CorruptCheckpoint(f"{entry} holds {','.join(map(str, held))}, but the entry "
                                    f"is retired and only {keep} loads")
    values = {f.name: _entry_value(type(f.default), entries[f"cfg/{f.name}"].reshape(-1)[0])
              for f in fields(NetworkConfig) if f.name != "dtype"}
    f64 = _entry_value(bool, entries["cfg/f64"].reshape(-1)[0])
    return NetworkConfig(**values, dtype="f64" if f64 else "f32")


def _entry_value(kind, v):
    """A stored float as ``kind``; an int field holding NaN, inf or a fraction, or a bool
    field holding anything but 0 or 1, is corrupt."""
    if kind is int and not float(v).is_integer():
        raise InvalidArgument(f"integer config entry holds {float(v)}")
    if kind is bool and v not in (0, 1):
        raise InvalidArgument(f"boolean config entry holds {float(v)}; only 0 and 1 load")
    return kind(v)


def _checked_entry(entries, key, p, config):
    """Entry ``key`` of parameter ``p``, checked by the format's one rule: present,
    ``p``'s shape in the config's dtype, and finite."""
    if key not in entries:
        raise InvalidArgument(f"missing {key}")
    a, want = entries[key], np.dtype(config.np_dtype)
    if a.shape != p.shape or a.dtype != want:
        raise InvalidArgument(f"{key} is {a.dtype.name} {a.shape}, expected {want.name} {p.shape}")
    if not all_finite(a):
        raise InvalidArgument(f"{key} holds a NaN or an infinity")
    return a


def _from_entries(entries):
    """The model, and the Adam state if ``adam/t`` is present, that FUD1 entries
    {name: array} hold: the one reading of the format, which saving runs too.  The
    arrays are kept, not copied; entries the model does not build are ignored."""
    config = _config_from_entries(entries)
    model = FudsaNet(config, seed=None)
    for name, p in model.named_params():
        p.data = _checked_entry(entries, f"p/{name}", p, config)
    state = None
    if "adam/t" in entries:
        state = AdamState([])
        state.t = _entry_value(int, entries["adam/t"].reshape(-1)[0])
        for name, p in model.named_params():
            state.m[name] = _checked_entry(entries, f"m/{name}", p, config)
            state.v[name] = _checked_entry(entries, f"v/{name}", p, config)
    return model, state


def save_checkpoint(model: FudsaNet, state: AdamState | None, path):
    entries = _config_entries(model.config)
    params = dict(model.named_params())
    for name, p in params.items():
        if not p.data.flags.writeable:  # the placeholder of a shapes-only model
            raise InvalidArgument(f"parameter {name!r} is a shape only; seed or load the model")
        entries[f"p/{name}"] = p.data
    if state is not None:
        if state.m.keys() != params.keys() or state.v.keys() != params.keys():
            raise InvalidArgument("the Adam state's names are not the model's parameters")
        entries["adam/t"] = np.full((1, 1, 1, 1), float(state.t), dtype=np.float64)
        for name in state.m:
            entries[f"m/{name}"], entries[f"v/{name}"] = state.m[name], state.v[name]
    _from_entries(entries)  # load's reading, before opening: what would not load leaves no file
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC + struct.pack("<I", len(entries)))
        for name, arr in entries.items():
            fh.write(struct.pack("<H", len(name.encode())) + name.encode())
            T.write_ften(fh, arr)


def load_checkpoint(path):
    """Rebuilds the model (and Adam state, if saved) from a FUD1 container.

    One pass reads each entry into an array of its own, its payload checked
    against the file size first; ``_from_entries`` then builds the model.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if head[:4] != _CKPT_MAGIC:
            raise CorruptCheckpoint(f"{path}: bad magic {head[:4]!r}")
        try:
            (count,) = struct.unpack("<I", head[4:])
            entries = {}
            for _ in range(count):
                (nlen,) = struct.unpack("<H", fh.read(2))
                name = fh.read(nlen).decode()
                if name in entries:  # else the later record would silently win
                    raise CorruptCheckpoint(f"{path}: entry {name!r} is listed twice")
                entries[name] = T.read_ften_record(fh, size)
            if fh.tell() != size:
                raise CorruptCheckpoint(f"{path}: trailing bytes")
            return _from_entries(entries)
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
        coords = rng.choice(p.data.size, size=min(n_samples, p.data.size), replace=False)
        worst = 0.0
        for c, numeric in zip(coords, central_differences(loss_value, p, coords, h)):
            err = abs(analytic.reshape(-1)[c] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
        results.append((name, worst))
    model.zero_grad()
    return results


def central_differences(f, tensor, coords, h):
    """(f(x + h) - f(x - h)) / 2h of scalar ``f()`` at each flat coordinate x of
    ``tensor``, moved in place and restored."""
    flat = tensor.data.reshape(-1)
    out = []
    for c in coords:
        keep = flat[c]
        flat[c] = keep + h
        fp = f()
        flat[c] = keep - h
        fm = f()
        flat[c] = keep
        out.append((fp - fm) / (2 * h))
    return out
